#include "analysis/artifact_lint.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/shape_checker.h"
#include "common/format_magic.h"
#include "common/hash.h"
#include "common/log_io.h"
#include "encode/encoding.h"

namespace geqo::analysis {
namespace {

/// Sanity bounds: a field beyond these is a corrupt length, not a real
/// deployment (the largest model is ~10^7 scalars). They keep the walker
/// from looping on garbage. Agnostic layouts are bounded by the encoder's
/// own kMaxAgnosticSymbols.
constexpr uint64_t kMaxTensorDim = 1 << 24;
constexpr uint64_t kMaxStateEntries = 1 << 12;
constexpr uint64_t kMaxNameLength = 1 << 12;
constexpr int64_t kMaxHnswLevel = 64;
constexpr uint64_t kMaxLintShards = 4096;  // ShardedCatalogOptions::Validate

/// Bounded reader over raw bytes that remembers where it fell off the end.
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return offset_; }
  bool ok() const { return ok_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

  uint64_t U64() { return Fixed<uint64_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint8_t U8() { return Fixed<uint8_t>(); }
  float F32() { return Fixed<float>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  bool Skip(size_t n) {
    if (!ok_ || remaining() < n) {
      MarkFailed();
      return false;
    }
    offset_ += n;
    return true;
  }

  std::string String(size_t max_length) {
    const uint64_t length = U64();
    if (!ok_ || length > max_length || remaining() < length) {
      MarkFailed();
      return {};
    }
    std::string out(bytes_.substr(offset_, length));
    offset_ += length;
    return out;
  }

 private:
  template <typename T>
  T Fixed() {
    if (!ok_ || remaining() < sizeof(T)) {
      MarkFailed();
      return T{};
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  void MarkFailed() { ok_ = false; }

  std::string_view bytes_;
  size_t offset_ = 0;
  bool ok_ = true;
};

std::string OffsetContext(size_t offset) {
  return "offset " + std::to_string(offset);
}

void At(Diagnostics* out, const char* code, std::string message,
        size_t offset) {
  Report(out, code, std::move(message), OffsetContext(offset));
}

/// Strips and verifies the 8-byte checksum footer shared by the v2 container
/// formats. Returns the payload view; on a bad footer the payload is still
/// returned (best effort) so the structural walk can narrow the damage.
std::string_view CheckFooter(std::string_view bytes, const char* kind_prefix,
                             Diagnostics* out) {
  const std::string truncated_code = std::string(kind_prefix) + ".truncated";
  const std::string checksum_code = std::string(kind_prefix) + ".checksum";
  if (bytes.size() < sizeof(uint64_t)) {
    Report(out, truncated_code,
           "file is shorter than the checksum footer", OffsetContext(0));
    return {};
  }
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload_size, sizeof(stored));
  const uint64_t computed = HashBytes(bytes.data(), payload_size);
  if (stored != computed) {
    Report(out, checksum_code,
           "payload checksum mismatch: the file is corrupt, truncated, or "
           "carries trailing bytes",
           OffsetContext(payload_size));
  }
  return bytes.substr(0, payload_size);
}

/// Walks a GEQOMODL section. Collects the tensor shapes and, when the
/// entries look like an EMF state dict, proves the layer graph. Returns
/// false when the walk had to stop early.
bool LintModelSection(ByteCursor* cursor, size_t expected_input_dim,
                      Diagnostics* out) {
  const size_t magic_offset = cursor->offset();
  const uint64_t magic = cursor->U64();
  if (!cursor->ok() || magic != io::kModelStateMagic) {
    At(out, "model.magic",
       "model state section does not start with the GEQOMODL magic",
       magic_offset);
    return false;
  }
  const size_t count_offset = cursor->offset();
  const uint64_t count = cursor->U64();
  if (!cursor->ok() || count > kMaxStateEntries) {
    At(out, "model.count",
       "implausible state entry count " + std::to_string(count),
       count_offset);
    return false;
  }
  std::vector<NamedShape> shapes;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t entry_offset = cursor->offset();
    const std::string name = cursor->String(kMaxNameLength);
    if (!cursor->ok()) {
      At(out, "model.name",
         "state entry " + std::to_string(i) +
             " has a truncated or oversized name",
         entry_offset);
      return false;
    }
    const size_t shape_offset = cursor->offset();
    const uint64_t rows = cursor->U64();
    const uint64_t cols = cursor->U64();
    if (!cursor->ok() || rows > kMaxTensorDim || cols > kMaxTensorDim) {
      At(out, "model.shape",
         "state entry '" + name + "' declares an implausible shape " +
             std::to_string(rows) + "x" + std::to_string(cols),
         shape_offset);
      return false;
    }
    if (!cursor->Skip(rows * cols * sizeof(float))) {
      At(out, "model.truncated",
         "state entry '" + name + "' is cut off before its " +
             std::to_string(rows * cols) + " float payload ends",
         shape_offset);
      return false;
    }
    shapes.push_back(NamedShape{name, rows, cols});
  }
  // Only state dicts that announce the EMF trunk get the layer-graph proof;
  // GEQOMODL itself is a generic named-tensor container.
  bool looks_like_emf = false;
  for (const NamedShape& shape : shapes) {
    if (shape.name == "conv1.self") looks_like_emf = true;
  }
  if (looks_like_emf) {
    for (Diagnostic diagnostic :
         CheckEmfStateShapes(shapes, expected_input_dim)) {
      out->push_back(std::move(diagnostic));
    }
  }
  return true;
}

/// Walks a GEQOHNSW section. \p expected_dim / \p expected_count are
/// cross-checked when provided (from the catalog header).
bool LintHnswSection(ByteCursor* cursor, std::optional<uint64_t> expected_dim,
                     std::optional<uint64_t> expected_count,
                     Diagnostics* out) {
  const size_t magic_offset = cursor->offset();
  const uint64_t magic = cursor->U64();
  if (!cursor->ok() || magic != io::kHnswMagic) {
    At(out, "hnsw.magic",
       "index section does not start with the GEQOHNSW magic", magic_offset);
    return false;
  }
  const size_t version_offset = cursor->offset();
  const uint64_t version = cursor->U64();
  if (!cursor->ok() || version != io::kHnswVersion) {
    At(out, "hnsw.version",
       "unsupported index version " + std::to_string(version),
       version_offset);
    return false;
  }
  const size_t params_offset = cursor->offset();
  const uint64_t dim = cursor->U64();
  const uint64_t max_connections = cursor->U64();
  cursor->Skip(3 * sizeof(uint64_t));  // ef_construction, ef_search, seed
  // v2 quantization block: resolved mode, calibration threshold, calibrated
  // flag, and — only for a calibrated quantized index — the HNSWSQ8! magic
  // plus dim (min, max) f32 range pairs.
  const size_t quant_offset = cursor->offset();
  const uint64_t quant_enabled = cursor->U64();
  cursor->Skip(sizeof(uint64_t));  // sq8_calibration threshold
  const uint64_t calibrated = cursor->U64();
  if (!cursor->ok() || quant_enabled > 1 || calibrated > 1) {
    At(out, "hnsw.quant",
       "invalid quantization flags (quant " + std::to_string(quant_enabled) +
           ", calibrated " + std::to_string(calibrated) + ")",
       quant_offset);
    return false;
  }
  if (quant_enabled == 1 && calibrated == 1) {
    const size_t sq8_magic_offset = cursor->offset();
    const uint64_t sq8_magic = cursor->U64();
    if (!cursor->ok() || sq8_magic != io::kHnswSq8Magic) {
      At(out, "hnsw.quant-magic",
         "calibrated quantized index is missing the HNSWSQ8! range-table "
         "magic",
         sq8_magic_offset);
      return false;
    }
    for (uint64_t i = 0; i < dim; ++i) {
      const size_t range_offset = cursor->offset();
      const float range_min = cursor->F32();
      const float range_max = cursor->F32();
      if (!cursor->ok() || !std::isfinite(range_min) ||
          !std::isfinite(range_max) || range_min > range_max) {
        At(out, "hnsw.quant-range",
           "SQ8 range for dimension " + std::to_string(i) +
               " is corrupt (non-finite or min > max)",
           range_offset);
        return false;
      }
    }
  }
  cursor->Skip(4 * sizeof(uint64_t));  // rng stream position
  const size_t level_offset = cursor->offset();
  const int64_t max_level = cursor->I64();
  const uint64_t entry_point = cursor->U64();
  const size_t count_offset = cursor->offset();
  const uint64_t count = cursor->U64();
  if (!cursor->ok()) {
    At(out, "hnsw.truncated", "index header is cut off", params_offset);
    return false;
  }
  if (dim == 0 || dim > kMaxTensorDim || max_connections < 2) {
    At(out, "hnsw.params",
       "invalid construction parameters (dim " + std::to_string(dim) +
           ", M " + std::to_string(max_connections) + ")",
       params_offset);
    return false;
  }
  if (expected_dim.has_value() && dim != *expected_dim) {
    At(out, "hnsw.dim-mismatch",
       "index dim " + std::to_string(dim) +
           " does not match the embedding dim " +
           std::to_string(*expected_dim) + " of the enclosing snapshot",
       params_offset);
  }
  if (expected_count.has_value() && count != *expected_count) {
    At(out, "hnsw.count-mismatch",
       "index holds " + std::to_string(count) + " vectors for " +
           std::to_string(*expected_count) + " catalog entries",
       count_offset);
    return false;
  }
  if (max_level < -1 || max_level > kMaxHnswLevel) {
    At(out, "hnsw.level",
       "implausible max level " + std::to_string(max_level), level_offset);
    return false;
  }
  if (count == 0 && max_level != -1) {
    At(out, "hnsw.entry-point", "empty index declares an entry point",
       level_offset);
  }
  if (count > 0 && entry_point >= count) {
    At(out, "hnsw.entry-point",
       "entry point " + std::to_string(entry_point) + " is out of range",
       level_offset);
  }
  if (!cursor->Skip(count * dim * sizeof(float))) {
    At(out, "hnsw.truncated", "vector payload is cut off", count_offset);
    return false;
  }
  for (uint64_t node = 0; node < count; ++node) {
    const size_t node_offset = cursor->offset();
    const int64_t level = cursor->I64();
    if (!cursor->ok() || level < 0 || level > max_level) {
      At(out, "hnsw.level",
         "node " + std::to_string(node) + " has level " +
             std::to_string(level) + " outside [0, " +
             std::to_string(max_level) + "]",
         node_offset);
      return false;
    }
    for (int64_t layer = 0; layer <= level; ++layer) {
      const size_t links_offset = cursor->offset();
      const uint64_t n_links = cursor->U64();
      if (!cursor->ok() || n_links > count) {
        At(out, "hnsw.link",
           "node " + std::to_string(node) + " layer " +
               std::to_string(layer) + " declares " +
               std::to_string(n_links) + " links (index holds " +
               std::to_string(count) + " nodes)",
           links_offset);
        return false;
      }
      for (uint64_t i = 0; i < n_links; ++i) {
        const uint32_t link = cursor->U32();
        if (!cursor->ok() || link >= count) {
          At(out, "hnsw.link",
             "node " + std::to_string(node) + " links to out-of-range id " +
                 std::to_string(link),
             links_offset);
          return false;
        }
      }
    }
  }
  const size_t end_offset = cursor->offset();
  const uint64_t end_magic = cursor->U64();
  if (!cursor->ok() || end_magic != io::kHnswEndMagic) {
    At(out, "hnsw.end-magic", "index section is missing its end marker",
       end_offset);
    return false;
  }
  return true;
}

void LintSystemSnapshot(std::string_view bytes, Diagnostics* out) {
  const std::string_view payload = CheckFooter(bytes, "snapshot", out);
  ByteCursor cursor(payload);
  const uint64_t magic = cursor.U64();
  if (!cursor.ok() || magic != io::kSystemSnapshotMagic) {
    At(out, "snapshot.magic", "missing GEQOSNAP magic", 0);
    return;
  }
  const size_t version_offset = cursor.offset();
  const uint64_t version = cursor.U64();
  if (!cursor.ok() || version != io::kSystemSnapshotVersion) {
    At(out, "snapshot.version",
       "unsupported snapshot version " + std::to_string(version),
       version_offset);
    return;
  }
  cursor.U64();  // catalog fingerprint: opaque without the live catalog
  const size_t layout_offset = cursor.offset();
  const uint64_t tables = cursor.U64();
  const uint64_t columns = cursor.U64();
  const size_t calibration_offset = cursor.offset();
  const float radius = cursor.F32();
  const float threshold = cursor.F32();
  if (!cursor.ok()) {
    At(out, "snapshot.truncated", "snapshot header is cut off", 0);
    return;
  }
  size_t expected_input_dim = 0;
  if (tables == 0 || tables > kMaxAgnosticSymbols || columns == 0 ||
      columns > kMaxAgnosticSymbols) {
    At(out, "snapshot.layout",
       "implausible agnostic layout " + std::to_string(tables) + "x" +
           std::to_string(columns),
       layout_offset);
  } else {
    expected_input_dim =
        EncodingLayout::Agnostic(tables, columns).node_vector_size();
  }
  if (!std::isfinite(radius) || radius < 0.0f) {
    At(out, "snapshot.radius",
       "calibrated VMF radius is not a finite non-negative value",
       calibration_offset);
  }
  if (!std::isfinite(threshold) || threshold < 0.0f || threshold > 1.0f) {
    At(out, "snapshot.threshold",
       "calibrated EMF threshold is outside [0, 1]", calibration_offset);
  }
  if (!LintModelSection(&cursor, expected_input_dim, out)) return;
  if (!cursor.AtEnd()) {
    At(out, "snapshot.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the model state section",
       cursor.offset());
  }
}

void LintCatalogSnapshot(std::string_view bytes, Diagnostics* out) {
  const std::string_view payload = CheckFooter(bytes, "catalog", out);
  ByteCursor cursor(payload);
  const uint64_t magic = cursor.U64();
  if (!cursor.ok() || magic != io::kCatalogMagic) {
    At(out, "catalog.magic", "missing GEQOCATG magic", 0);
    return;
  }
  const size_t version_offset = cursor.offset();
  const uint64_t version = cursor.U64();
  if (!cursor.ok() || version != io::kCatalogVersion) {
    At(out, "catalog.version",
       "unsupported catalog version " + std::to_string(version),
       version_offset);
    return;
  }
  cursor.U64();  // database schema fingerprint: opaque without the catalog
  const size_t dim_offset = cursor.offset();
  const uint64_t embedding_dim = cursor.U64();
  const size_t count_offset = cursor.offset();
  const uint64_t count = cursor.U64();
  if (!cursor.ok()) {
    At(out, "catalog.truncated", "catalog header is cut off", 0);
    return;
  }
  if (embedding_dim == 0 || embedding_dim > kMaxTensorDim) {
    At(out, "catalog.embedding-dim",
       "implausible embedding dim " + std::to_string(embedding_dim),
       dim_offset);
    return;
  }
  if (count * sizeof(uint64_t) > cursor.remaining()) {
    At(out, "catalog.entry-count",
       "entry count " + std::to_string(count) +
           " exceeds what the file can hold",
       count_offset);
    return;
  }
  cursor.Skip(count * sizeof(uint64_t));  // canonical hashes: free-form
  if (!LintHnswSection(&cursor, embedding_dim, count, out)) return;
  // Union-find forest in compressed, min-root form: every parent points at
  // or below its child and directly at its root.
  const size_t parents_offset = cursor.offset();
  std::vector<uint64_t> parents(count);
  for (uint64_t i = 0; i < count; ++i) parents[i] = cursor.U64();
  if (!cursor.ok()) {
    At(out, "catalog.truncated", "class forest is cut off", parents_offset);
    return;
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (parents[i] > i) {
      At(out, "catalog.parent-range",
         "entry " + std::to_string(i) + " has parent " +
             std::to_string(parents[i]) +
             " above itself (roots must be class minima)",
         parents_offset);
      return;
    }
    if (parents[parents[i]] != parents[i]) {
      At(out, "catalog.parent-compressed",
         "entry " + std::to_string(i) +
             " points at a non-root parent (forest must be "
             "path-compressed)",
         parents_offset);
      return;
    }
  }
  // Verifier memo (v3): strictly sorted normalized pair fingerprints, each
  // carrying its secondary check-hash pair (the collision guard) and a
  // verdict byte in the tri-state range.
  const size_t memo_offset = cursor.offset();
  const uint64_t memo_count = cursor.U64();
  if (!cursor.ok() ||
      memo_count > cursor.remaining() / (4 * sizeof(uint64_t) + 1)) {
    At(out, "catalog.truncated", "verifier memo is cut off", memo_offset);
    return;
  }
  uint64_t prev_lo = 0;
  uint64_t prev_hi = 0;
  for (uint64_t i = 0; i < memo_count; ++i) {
    const size_t entry_offset = cursor.offset();
    const uint64_t lo = cursor.U64();
    const uint64_t hi = cursor.U64();
    const uint64_t check_lo = cursor.U64();
    const uint64_t check_hi = cursor.U64();
    const uint8_t verdict = cursor.U8();
    if (!cursor.ok()) {
      At(out, "catalog.truncated", "verifier memo is cut off", entry_offset);
      return;
    }
    if (lo > hi) {
      At(out, "catalog.memo-key",
         "memo entry " + std::to_string(i) +
             " is not a normalized pair fingerprint (lo > hi)",
         entry_offset);
      return;
    }
    if (i > 0 && (lo < prev_lo || (lo == prev_lo && hi <= prev_hi))) {
      At(out, "catalog.memo-order",
         "memo entries are not strictly sorted at entry " +
             std::to_string(i),
         entry_offset);
      return;
    }
    if (lo == hi && check_lo > check_hi) {
      At(out, "catalog.memo-check",
         "memo entry " + std::to_string(i) +
             " violates the check-pair normalization on a key tie "
             "(check_lo > check_hi while lo == hi)",
         entry_offset);
      return;
    }
    if (verdict > 2) {  // EquivalenceVerdict::kUnknown is the largest value
      At(out, "catalog.memo-verdict",
         "memo entry " + std::to_string(i) + " has verdict byte " +
             std::to_string(verdict) + " outside the tri-state range",
         entry_offset);
      return;
    }
    prev_lo = lo;
    prev_hi = hi;
  }
  const size_t end_offset = cursor.offset();
  const uint64_t end_magic = cursor.U64();
  if (!cursor.ok() || end_magic != io::kCatalogEndMagic) {
    At(out, "catalog.end-magic", "catalog is missing its CATGEND! marker",
       end_offset);
    return;
  }
  if (!cursor.AtEnd()) {
    At(out, "catalog.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the end marker",
       cursor.offset());
  }
}

/// Walks a GEQOSHRD container: header, per-entry shard routing table, one
/// full GEQOCATG snapshot per shard (linted recursively), and the
/// pending-verification tail of (query gid, member gid) pairs.
void LintShardedCatalog(std::string_view bytes, Diagnostics* out) {
  const std::string_view payload = CheckFooter(bytes, "sharded", out);
  ByteCursor cursor(payload);
  const uint64_t magic = cursor.U64();
  if (!cursor.ok() || magic != io::kShardedCatalogMagic) {
    At(out, "sharded.magic", "missing GEQOSHRD magic", 0);
    return;
  }
  const size_t version_offset = cursor.offset();
  const uint64_t version = cursor.U64();
  if (!cursor.ok() || version != io::kShardedCatalogVersion) {
    At(out, "sharded.version",
       "unsupported sharded catalog version " + std::to_string(version),
       version_offset);
    return;
  }
  const size_t shards_offset = cursor.offset();
  const uint64_t num_shards = cursor.U64();
  const size_t count_offset = cursor.offset();
  const uint64_t count = cursor.U64();
  if (!cursor.ok()) {
    At(out, "sharded.truncated", "container header is cut off", 0);
    return;
  }
  if (num_shards == 0 || num_shards > kMaxLintShards) {
    At(out, "sharded.shard-count",
       "implausible shard count " + std::to_string(num_shards),
       shards_offset);
    return;
  }
  if (count > cursor.remaining() / sizeof(uint64_t)) {
    At(out, "sharded.entry-count",
       "entry count " + std::to_string(count) +
           " exceeds what the file can hold",
       count_offset);
    return;
  }
  const size_t routing_offset = cursor.offset();
  std::vector<uint64_t> shard_of(count);
  for (uint64_t i = 0; i < count; ++i) shard_of[i] = cursor.U64();
  if (!cursor.ok()) {
    At(out, "sharded.truncated", "shard routing table is cut off",
       routing_offset);
    return;
  }
  std::vector<uint64_t> per_shard(num_shards, 0);
  for (uint64_t i = 0; i < count; ++i) {
    if (shard_of[i] >= num_shards) {
      At(out, "sharded.shard-range",
         "entry " + std::to_string(i) + " routes to shard " +
             std::to_string(shard_of[i]) + " of " +
             std::to_string(num_shards),
         routing_offset);
      return;
    }
    ++per_shard[shard_of[i]];
  }
  for (uint64_t sid = 0; sid < num_shards; ++sid) {
    const size_t segment_offset = cursor.offset();
    const uint64_t segment_size = cursor.U64();
    if (!cursor.ok() || segment_size > cursor.remaining()) {
      At(out, "sharded.truncated",
         "shard " + std::to_string(sid) + " segment is cut off",
         segment_offset);
      return;
    }
    const std::string_view segment =
        payload.substr(cursor.offset(), segment_size);
    cursor.Skip(segment_size);
    // Each segment is a complete GEQOCATG snapshot (own footer, memo, end
    // magic): the catalog walker proves it. Its diagnostics carry offsets
    // relative to the segment, so anchor them with a container-level note.
    const size_t findings_before = out->size();
    LintCatalogSnapshot(segment, out);
    if (out->size() > findings_before) {
      At(out, "sharded.segment",
         "shard " + std::to_string(sid) +
             " segment failed the catalog walk (segment-relative offsets "
             "above)",
         segment_offset);
      return;
    }
    // Cross-check: the segment's entry count must match the routing table.
    // GEQOCATG layout: magic, version, fingerprint, dim, count — count at
    // byte 32 of the segment payload.
    if (segment.size() >= 5 * sizeof(uint64_t)) {
      uint64_t segment_count = 0;
      std::memcpy(&segment_count, segment.data() + 4 * sizeof(uint64_t),
                  sizeof(segment_count));
      if (segment_count != per_shard[sid]) {
        At(out, "sharded.segment-count",
           "shard " + std::to_string(sid) + " segment holds " +
               std::to_string(segment_count) +
               " entries but the routing table assigns it " +
               std::to_string(per_shard[sid]),
           segment_offset);
        return;
      }
    }
  }
  // Pending-verification tail: sorted, deduplicated (query gid, member gid)
  // pairs. Both endpoints must exist and share a shard — equivalence classes
  // never span shards, so a cross-shard pair is corruption.
  const size_t pending_offset = cursor.offset();
  const uint64_t pending_count = cursor.U64();
  if (!cursor.ok() ||
      pending_count > cursor.remaining() / (2 * sizeof(uint64_t))) {
    At(out, "sharded.truncated", "pending-verification tail is cut off",
       pending_offset);
    return;
  }
  uint64_t prev_query = 0;
  uint64_t prev_member = 0;
  for (uint64_t i = 0; i < pending_count; ++i) {
    const size_t pair_offset = cursor.offset();
    const uint64_t query_gid = cursor.U64();
    const uint64_t member_gid = cursor.U64();
    if (!cursor.ok()) {
      At(out, "sharded.truncated", "pending-verification tail is cut off",
         pair_offset);
      return;
    }
    if (query_gid >= count || member_gid >= count) {
      At(out, "sharded.pending-range",
         "pending pair " + std::to_string(i) + " names entry " +
             std::to_string(query_gid >= count ? query_gid : member_gid) +
             " beyond the " + std::to_string(count) + " stored entries",
         pair_offset);
      return;
    }
    if (shard_of[query_gid] != shard_of[member_gid]) {
      At(out, "sharded.pending-shard",
         "pending pair " + std::to_string(i) +
             " spans shards — equivalence classes never do",
         pair_offset);
      return;
    }
    if (i > 0 && (query_gid < prev_query ||
                  (query_gid == prev_query && member_gid <= prev_member))) {
      At(out, "sharded.pending-order",
         "pending pairs are not strictly sorted at pair " + std::to_string(i),
         pair_offset);
      return;
    }
    prev_query = query_gid;
    prev_member = member_gid;
  }
  const size_t end_offset = cursor.offset();
  const uint64_t end_magic = cursor.U64();
  if (!cursor.ok() || end_magic != io::kShardedCatalogEndMagic) {
    At(out, "sharded.end-magic",
       "sharded catalog is missing its end marker", end_offset);
    return;
  }
  if (!cursor.AtEnd()) {
    At(out, "sharded.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the end marker",
       cursor.offset());
  }
}

/// Walks a GEQOMANI catalog-store manifest: versioned header, store kind,
/// base segment + log tail ids, end magic, under the shared checksum
/// footer. Mirrors persist::ReadManifest's validation byte for byte so the
/// linter can gate a store directory without opening it.
void LintStoreManifest(std::string_view bytes, Diagnostics* out) {
  const std::string_view payload = CheckFooter(bytes, "manifest", out);
  ByteCursor cursor(payload);
  const uint64_t magic = cursor.U64();
  if (!cursor.ok() || magic != io::kManifestMagic) {
    At(out, "manifest.magic", "missing GEQOMANI magic", 0);
    return;
  }
  const size_t version_offset = cursor.offset();
  const uint64_t version = cursor.U64();
  if (!cursor.ok() || version != io::kManifestVersion) {
    At(out, "manifest.version",
       "unsupported manifest version " + std::to_string(version),
       version_offset);
    return;
  }
  const size_t kind_offset = cursor.offset();
  const uint64_t kind = cursor.U64();
  const size_t shards_offset = cursor.offset();
  const uint64_t num_shards = cursor.U64();
  const size_t base_offset = cursor.offset();
  const uint64_t base_id = cursor.U64();
  const uint64_t base_entry_count = cursor.U64();
  const size_t allocator_offset = cursor.offset();
  const uint64_t next_file_id = cursor.U64();
  const size_t logs_offset = cursor.offset();
  const uint64_t num_logs = cursor.U64();
  if (!cursor.ok()) {
    At(out, "manifest.truncated", "manifest header is cut off", 0);
    return;
  }
  if (kind != io::kManifestShardedKind) {
    At(out, "manifest.kind",
       "unsupported store kind " + std::to_string(kind) +
           " (only sharded-catalog stores are readable)",
       kind_offset);
    return;
  }
  if (num_shards == 0 || num_shards > kMaxLintShards) {
    At(out, "manifest.shard-count",
       "implausible shard count " + std::to_string(num_shards),
       shards_offset);
    return;
  }
  if (base_id == 0 && base_entry_count != 0) {
    At(out, "manifest.base",
       "entry count " + std::to_string(base_entry_count) +
           " without a base segment",
       base_offset);
  }
  if (base_id != 0 && base_id >= next_file_id) {
    At(out, "manifest.base",
       "base id " + std::to_string(base_id) +
           " outruns the id allocator (next " +
           std::to_string(next_file_id) + ")",
       allocator_offset);
  }
  if (num_logs > cursor.remaining() / sizeof(uint64_t)) {
    At(out, "manifest.truncated",
       "log list of " + std::to_string(num_logs) +
           " ids exceeds what the file can hold",
       logs_offset);
    return;
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_logs; ++i) {
    const size_t id_offset = cursor.offset();
    const uint64_t id = cursor.U64();
    if (!cursor.ok()) {
      At(out, "manifest.truncated", "log id list is cut off", id_offset);
      return;
    }
    if (id == 0 || id <= prev) {
      At(out, "manifest.log-ids",
         "log ids must be nonzero and strictly increasing (id " +
             std::to_string(id) + " after " + std::to_string(prev) + ")",
         id_offset);
      return;
    }
    if (id >= next_file_id || id == base_id) {
      At(out, "manifest.log-ids",
         "log id " + std::to_string(id) +
             " collides with the id allocator or the base segment",
         id_offset);
      return;
    }
    prev = id;
  }
  const size_t end_offset = cursor.offset();
  const uint64_t end_magic = cursor.U64();
  if (!cursor.ok() || end_magic != io::kManifestEndMagic) {
    At(out, "manifest.end-magic", "manifest is missing its end marker",
       end_offset);
    return;
  }
  if (!cursor.AtEnd()) {
    At(out, "manifest.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the end marker",
       cursor.offset());
  }
}

/// Decodes one framed delta-log record (the grammar of persist/wal.h) and
/// proves its type- and normalization invariants. \p offset anchors the
/// diagnostics at the frame's position in the file.
bool LintWalRecord(std::string_view record, size_t index, size_t offset,
                   uint64_t* prev_add_gid, bool* saw_add, Diagnostics* out) {
  ByteCursor cursor(record);
  const uint8_t type = cursor.U8();
  switch (type) {
    case 1: {  // kAddEntry: gid, canonical hash, check hash
      const uint64_t gid = cursor.U64();
      cursor.U64();
      cursor.U64();
      if (cursor.ok() && *saw_add && gid <= *prev_add_gid) {
        At(out, "wal.add-order",
           "record " + std::to_string(index) + " adds gid " +
               std::to_string(gid) +
               " at or below an earlier add in the same partition (gid " +
               std::to_string(*prev_add_gid) + ")",
           offset);
        return false;
      }
      *prev_add_gid = gid;
      *saw_add = true;
      break;
    }
    case 2: {  // kVerdict: normalized pair key, check pair, verdict byte
      const uint64_t lo = cursor.U64();
      const uint64_t hi = cursor.U64();
      const uint64_t check_lo = cursor.U64();
      const uint64_t check_hi = cursor.U64();
      const uint8_t verdict = cursor.U8();
      if (cursor.ok() && (lo > hi || (lo == hi && check_lo > check_hi))) {
        At(out, "wal.verdict-key",
           "record " + std::to_string(index) +
               " carries a non-normalized memo key",
           offset);
        return false;
      }
      if (cursor.ok() && verdict > 2) {  // EquivalenceVerdict::kUnknown
        At(out, "wal.verdict-range",
           "record " + std::to_string(index) + " has verdict byte " +
               std::to_string(verdict) + " outside the tri-state range",
           offset);
        return false;
      }
      break;
    }
    case 3: {  // kUnion: two distinct gids
      const uint64_t a = cursor.U64();
      const uint64_t b = cursor.U64();
      if (cursor.ok() && a == b) {
        At(out, "wal.union",
           "record " + std::to_string(index) + " unions gid " +
               std::to_string(a) + " with itself",
           offset);
        return false;
      }
      break;
    }
    case 4:  // kPending: (query gid, member gid)
      cursor.U64();
      cursor.U64();
      break;
    default:
      At(out, "wal.record-type",
         "record " + std::to_string(index) + " has unknown type " +
             std::to_string(type),
         offset);
      return false;
  }
  if (!cursor.ok() || !cursor.AtEnd()) {
    At(out, "wal.record-size",
       "record " + std::to_string(index) +
           " does not match its type's payload size",
       offset);
    return false;
  }
  return true;
}

/// Walks a GEQOWALG delta-log partition: the 32-byte header, then the
/// framed record stream. The frame checksums localize damage, so the walker
/// classifies it: a torn tail (crash mid-append — recoverable, but a
/// cleanly closed store never shows one) versus mid-log corruption (valid
/// frames after a bad one — never produced by a sequential writer).
void LintWalLog(std::string_view bytes, Diagnostics* out) {
  constexpr size_t kWalHeaderSize = 4 * sizeof(uint64_t);
  if (bytes.size() < kWalHeaderSize) {
    At(out, "wal.truncated",
       "file is shorter than the partition header (creation crash window)",
       0);
    return;
  }
  uint64_t header[4] = {};
  std::memcpy(header, bytes.data(), kWalHeaderSize);
  if (header[0] != io::kWalMagic) {
    At(out, "wal.magic", "missing GEQOWALG magic", 0);
    return;
  }
  if (header[1] != io::kWalVersion) {
    At(out, "wal.version",
       "unsupported log version " + std::to_string(header[1]),
       sizeof(uint64_t));
    return;
  }
  if (header[2] == 0) {
    At(out, "wal.file-id", "partition header names file id 0 (never issued)",
       2 * sizeof(uint64_t));
  }
  if (header[3] >= kMaxLintShards) {
    At(out, "wal.shard",
       "implausible shard index " + std::to_string(header[3]),
       3 * sizeof(uint64_t));
    return;
  }
  const io::FramedScan scan = io::ScanFramedRecords(bytes, kWalHeaderSize);
  if (scan.mid_corruption) {
    At(out, "wal.mid-corruption",
       "a record fails its checksum but valid records follow — interior "
       "damage, not a torn tail",
       scan.clean_size);
    return;
  }
  if (scan.torn) {
    At(out, "wal.torn-tail",
       std::to_string(bytes.size() - scan.clean_size) +
           " bytes past the last valid frame do not form a record "
           "(interrupted append)",
       scan.clean_size);
  }
  size_t offset = kWalHeaderSize;
  uint64_t prev_add_gid = 0;
  bool saw_add = false;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    if (!LintWalRecord(scan.records[i], i, offset, &prev_add_gid, &saw_add,
                       out)) {
      return;
    }
    offset += io::kFrameOverhead + scan.records[i].size();
  }
}

void LintModelStateFile(std::string_view bytes, Diagnostics* out) {
  ByteCursor cursor(bytes);
  if (!LintModelSection(&cursor, /*expected_input_dim=*/0, out)) return;
  if (!cursor.AtEnd()) {
    At(out, "model.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the last state entry",
       cursor.offset());
  }
}

void LintHnswFile(std::string_view bytes, Diagnostics* out) {
  ByteCursor cursor(bytes);
  if (!LintHnswSection(&cursor, std::nullopt, std::nullopt, out)) return;
  if (!cursor.AtEnd()) {
    At(out, "hnsw.trailing",
       std::to_string(cursor.remaining()) +
           " unexpected bytes after the end marker",
       cursor.offset());
  }
}

}  // namespace

std::string_view ArtifactKindToString(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSystemSnapshot:
      return "system snapshot";
    case ArtifactKind::kServingCatalog:
      return "serving catalog";
    case ArtifactKind::kModelState:
      return "model state";
    case ArtifactKind::kHnswIndex:
      return "hnsw index";
    case ArtifactKind::kShardedCatalog:
      return "sharded catalog";
    case ArtifactKind::kStoreManifest:
      return "catalog store manifest";
    case ArtifactKind::kWalLog:
      return "catalog delta log";
    case ArtifactKind::kUnknown:
      break;
  }
  return "unknown";
}

ArtifactKind SniffArtifact(std::string_view bytes) {
  if (bytes.size() < sizeof(uint64_t)) return ArtifactKind::kUnknown;
  uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  switch (magic) {
    case io::kSystemSnapshotMagic:
      return ArtifactKind::kSystemSnapshot;
    case io::kCatalogMagic:
      return ArtifactKind::kServingCatalog;
    case io::kModelStateMagic:
      return ArtifactKind::kModelState;
    case io::kHnswMagic:
      return ArtifactKind::kHnswIndex;
    case io::kShardedCatalogMagic:
      return ArtifactKind::kShardedCatalog;
    case io::kManifestMagic:
      return ArtifactKind::kStoreManifest;
    case io::kWalMagic:
      return ArtifactKind::kWalLog;
    default:
      return ArtifactKind::kUnknown;
  }
}

Diagnostics LintArtifactBytes(std::string_view bytes) {
  Diagnostics out;
  switch (SniffArtifact(bytes)) {
    case ArtifactKind::kSystemSnapshot:
      LintSystemSnapshot(bytes, &out);
      break;
    case ArtifactKind::kServingCatalog:
      LintCatalogSnapshot(bytes, &out);
      break;
    case ArtifactKind::kModelState:
      LintModelStateFile(bytes, &out);
      break;
    case ArtifactKind::kHnswIndex:
      LintHnswFile(bytes, &out);
      break;
    case ArtifactKind::kShardedCatalog:
      LintShardedCatalog(bytes, &out);
      break;
    case ArtifactKind::kStoreManifest:
      LintStoreManifest(bytes, &out);
      break;
    case ArtifactKind::kWalLog:
      LintWalLog(bytes, &out);
      break;
    case ArtifactKind::kUnknown:
      At(&out, "artifact.unknown-magic",
         "file does not start with any known GEqO artifact magic", 0);
      break;
  }
  return out;
}

Result<Diagnostics> LintArtifactFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return LintArtifactBytes(contents.str());
}

}  // namespace geqo::analysis
