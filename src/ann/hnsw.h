#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/binary_io.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"

/// \file hnsw.h
/// Hierarchical Navigable Small World index (Malkov & Yashunin [35]) for
/// approximate nearest-neighbor search, implemented from scratch. The VMF
/// (§2.2.1, Definition 2.1) embeds subexpressions with the EMF's learned
/// tree convolution and uses this index for threshold (radius) searches at
/// O(log n) per query.
///
/// Distances: graph traversal compares squared L2 distances (sqrt is
/// monotonic, so ordering is unchanged and the per-comparison sqrt of the
/// original implementation is gone); results convert to true distance only at
/// the radius-check / result boundary, so the public Neighbor contract is
/// still true L2 distance.
///
/// Arithmetic is f32 throughout, through the active kernel table.

namespace geqo::ann {

/// \brief Construction / search parameters.
struct HnswOptions {
  size_t max_connections = 16;    ///< M: links per node above layer 0
  size_t ef_construction = 100;   ///< beam width while inserting
  size_t ef_search = 64;          ///< default beam width while querying
  uint64_t seed = 0x9e3779b97f4aULL;
};

/// \brief One search hit: element id plus its L2 distance to the query.
struct Neighbor {
  size_t id;
  float distance;

  /// Orders by distance, tie-breaking equal distances by id so result
  /// ordering is deterministic across platforms and insertion interleavings
  /// (duplicate embeddings are common in catalog serving).
  bool operator<(const Neighbor& other) const {
    if (distance != other.distance) return distance < other.distance;
    return id < other.id;
  }
};

/// \brief One graph node: its top layer and its adjacency lists, one per
/// layer 0..level.
struct HnswNode {
  int level = 0;
  std::vector<std::vector<uint32_t>> neighbors;
};

/// \brief A decoded GEQOHNSW section (layout: HnswIndex::Serialize).
struct HnswImage {
  uint64_t dim = 0;
  HnswOptions options;
  std::array<uint64_t, 4> rng_state{};
  int64_t max_level = -1;
  uint64_t entry_point = 0;
  uint64_t count = 0;
  /// count * dim float32, row-major; views the decoded bytes.
  std::string_view vectors;
  std::vector<HnswNode> nodes;
};

/// \brief Decodes one GEQOHNSW section at \p reader's position — the one
/// decoder of the format, shared by HnswIndex::Deserialize, the catalog
/// segment decoder and geqo_lint. It proves every invariant the index
/// relies on (version, parameters, levels, link ids, entry point) and
/// never sizes a container beyond what the input can hold.
/// Refusals carry hnsw.* codes; returns false when the walk had to stop.
bool DecodeHnsw(io::ByteReader* reader, HnswImage* out,
                io::DecodeErrors* errors);

/// \brief An HNSW index over fixed-dimension float vectors.
///
/// Vectors are copied in. Ids are assigned densely in insertion order.
///
/// Thread-safety contract (relied on by serve::ShardedCatalog): the index
/// is a single-writer / multi-reader structure. Any number of const
/// searches (SearchKnn / SearchRadius) may run concurrently with each
/// other — search state lives in a per-call context and the observability
/// tallies are relaxed atomics. Add is NOT safe concurrently with anything,
/// including searches: it splices link lists and grows the vector arena in
/// place, so writers need exclusive external synchronization (the sharded
/// catalog wraps each shard's index in a reader-writer lock: probes hold it
/// shared, inserts hold it unique).
///
/// Under Clang's -Wthread-safety that external lock is a real capability:
/// ShardedCatalog::Shard pt-guards its whole EquivalenceCatalog — and
/// therefore this index — behind Shard::mu (rank kShard), so any unlocked
/// path to Add or Search is a compile error there, not a convention. The
/// index itself stays annotation-free by design: it owns no lock and must
/// stay usable single-threaded without one (the pipeline's per-thread
/// indexes never synchronize).
class HnswIndex {
 public:
  HnswIndex(size_t dim, HnswOptions options = HnswOptions());

  /// Inserts \p vector (length dim()); returns its id.
  size_t Add(const float* vector);
  size_t Add(const std::vector<float>& vector);

  /// Approximate k-nearest-neighbor search, closest first.
  std::vector<Neighbor> SearchKnn(const float* query, size_t k,
                                  size_t ef = 0) const;

  /// Approximate radius search: all indexed vectors within L2 distance
  /// \p radius of \p query (closest first). \p ef bounds the exploration
  /// beam; larger values increase recall.
  std::vector<Neighbor> SearchRadius(const float* query, float radius,
                                     size_t ef = 0) const;

  /// Exact (brute-force, always f32) radius search, for recall evaluation.
  std::vector<Neighbor> ExactRadius(const float* query, float radius) const;

  size_t size() const { return nodes_.size(); }
  size_t dim() const { return dim_; }
  /// Stored f32 vector for \p id — 32-byte aligned (rows are padded to the
  /// kernel alignment).
  const float* vector(size_t id) const {
    return vectors_.data() + id * padded_dim_;
  }
  const HnswOptions& options() const { return options_; }

  /// Writes the complete index state — options, the rng's position in its
  /// stream, all vectors, and the layered graph — to \p os. A deserialized
  /// index continues to accept Add calls and produces bit-identical search
  /// results and level assignments to the original.
  Status Serialize(std::ostream& os) const;

  /// Restores an index written by Serialize: DecodeHnsw, then FromImage.
  /// Fails with a descriptive Status (never aborts or throws) on anything
  /// DecodeHnsw refuses and on trailing bytes.
  static Result<std::unique_ptr<HnswIndex>> Deserialize(std::string_view bytes);

  /// Builds the index an image describes; \p image must come from a
  /// successful DecodeHnsw.
  static std::unique_ptr<HnswIndex> FromImage(HnswImage image);

 private:
  using Node = HnswNode;

  /// Per-search state; building it once per search keeps searches safely
  /// concurrent.
  struct SearchContext {
    explicit SearchContext(const float* q) : query(q) {}

    const float* query;
    /// Per-search scratch for SearchLayer: a byte-mask visited set and the
    /// two beam heaps, allocated once per search instead of per layer (the
    /// hot serving probe was dominated by these allocations, not distance
    /// math). Living in the context keeps concurrent searches safe.
    std::vector<uint8_t> visited;
    std::vector<Neighbor> best_heap;
    std::vector<Neighbor> candidate_heap;
  };

  /// Squared distance from the context's query to stored element \p id.
  float DistanceSq(const SearchContext& ctx, uint32_t id) const;
  /// Exact f32 squared distance between two stored elements (link pruning).
  float StoredDistanceSq(uint32_t a, uint32_t b) const;
  /// Drains the pending distance/hop tallies into the metrics registry
  /// ("hnsw.distance_computations", "hnsw.hops"). Called at the end of every
  /// public operation so hot inner loops only touch the local atomics.
  void FoldMetrics() const;
  int RandomLevel();
  /// Greedy descent in one layer starting from \p entry.
  uint32_t GreedySearch(const SearchContext& ctx, uint32_t entry,
                        int layer) const;
  /// Beam search within a layer; returns up to \p ef closest by squared
  /// distance, sorted. Mutates only \p ctx's scratch buffers.
  std::vector<Neighbor> SearchLayer(SearchContext& ctx, uint32_t entry,
                                    size_t ef, int layer) const;
  /// Links \p id to the closest \p max_links of \p candidates in \p layer,
  /// pruning back-links that overflow.
  void Connect(uint32_t id, const std::vector<Neighbor>& candidates, int layer,
               size_t max_links);

  size_t dim_;
  /// dim_ rounded up to a whole number of 32-byte blocks; row stride of
  /// vectors_ (floats).
  size_t padded_dim_;
  HnswOptions options_;
  double level_multiplier_;
  Rng rng_;
  /// Flat row-major storage, one padded row per element, 32-byte aligned.
  AlignedVector<float> vectors_;
  std::vector<Node> nodes_;
  int max_level_ = -1;
  uint32_t entry_point_ = 0;

  /// Index-local observability tallies. Searches run concurrently from the
  /// VMF's parallel region, so these are relaxed atomics (statistics only);
  /// they are drained to the global registry by FoldMetrics.
  mutable std::atomic<uint64_t> pending_distances_{0};
  mutable std::atomic<uint64_t> pending_hops_{0};
};

}  // namespace geqo::ann
