#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/artifact_lint.h"
#include "analysis/sql_lint.h"
#include "ann/hnsw.h"
#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/geqo_system.h"
#include "common/log_io.h"
#include "ml/emf_model.h"
#include "nn/serialize.h"
#include "serve/persist/manifest.h"
#include "serve/persist/wal.h"
#include "workload/generator.h"
#include "workload/schemas.h"

// Corruption tests for the artifact linter and the snapshot loaders, which
// share one decoder per format: every seeded corruption (byte truncation,
// bit flips, hand-crafted section violations, fixed-value field sweeps)
// must be flagged by geqo_lint with a named diagnostic AND rejected by the
// corresponding Load path — while pristine artifacts produce zero findings
// and load.

namespace geqo::analysis {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string CodesOf(const Diagnostics& diagnostics) {
  return FormatDiagnostics(diagnostics);
}

/// A fresh directory under ::testing::TempDir(), removed with its contents on
/// destruction. ctest runs every test as its own process, in parallel, so
/// fixed file names directly under TempDir() would be shared between them.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = ::testing::TempDir() + "/lint_test.XXXXXX";
    GEQO_CHECK(mkdtemp(pattern.data()) != nullptr) << "mkdtemp " << pattern;
    path_ = pattern;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The fixed values every field sweep writes into each word it visits.
constexpr uint64_t kSweepValues[] = {0, 1, uint64_t{1} << 31,
                                     uint64_t{1} << 62, ~uint64_t{0}};

/// Wraps GEQOCATG \p segment as the only shard of a GEQOSHRD container
/// holding \p count entries and no pending tail.
std::string OneShardContainer(const std::string& segment, uint64_t count) {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "one-shard container");
  writer.U64(io::kShardedCatalogMagic);
  writer.U64(io::kShardedCatalogVersion);
  writer.U64(1);
  writer.U64(count);
  for (uint64_t i = 0; i < count; ++i) writer.U64(0);
  writer.U64(segment.size());
  writer.Bytes(segment.data(), segment.size());
  writer.U64(0);
  writer.U64(io::kShardedCatalogEndMagic);
  GEQO_CHECK_OK(writer.status());
  std::ostringstream file;
  GEQO_CHECK_OK(io::WriteChecksummed(file, payload.str(), "container"));
  return file.str();
}

/// The GEQOCATG segment of a one-shard GEQOSHRD export.
std::string OnlySegmentOf(const std::string& sharded) {
  io::ByteReader reader(sharded);
  reader.U64();  // magic
  reader.U64();  // version
  GEQO_CHECK(reader.U64() == 1) << "expected a one-shard export";
  const uint64_t count = reader.U64();
  for (uint64_t i = 0; i < count; ++i) reader.U64();  // routing
  const std::string segment(reader.Bytes(reader.U64()));
  GEQO_CHECK(reader.ok());
  return segment;
}

/// Rewrites the current-version GEQOHNSW section that starts at \p at in
/// \p bytes into the retired v2 layout: version word 2 and, after the seven
/// header words, the quantization block of a calibrated index — mode 1,
/// calibration threshold 8, calibrated flag 1, the range-table magic, and
/// one (min, max) f32 pair per dimension.
std::string WithVersion2Hnsw(const std::string& bytes, size_t at) {
  constexpr uint64_t kRangeTableMagic = 0x484e535753513821ULL;
  uint64_t dim = 0;
  std::memcpy(&dim, bytes.data() + at + 2 * sizeof(uint64_t), sizeof(dim));
  std::ostringstream block;
  io::BinaryWriter writer(block, "v2 quantization block");
  for (const uint64_t word : {uint64_t{1}, uint64_t{8}, uint64_t{1},
                              kRangeTableMagic}) {
    writer.U64(word);
  }
  for (uint64_t i = 0; i < dim; ++i) {
    writer.F32(-1.0f);
    writer.F32(1.0f);
  }
  GEQO_CHECK_OK(writer.status());
  std::string out = bytes;
  const uint64_t version = 2;
  std::memcpy(out.data() + at + sizeof(uint64_t), &version, sizeof(version));
  out.insert(at + 7 * sizeof(uint64_t), block.str());
  return out;
}

/// The offset of the first GEQOHNSW magic in \p bytes.
size_t HnswSectionOffset(const std::string& bytes) {
  const std::string magic(reinterpret_cast<const char*>(&io::kHnswMagic),
                          sizeof(uint64_t));
  const size_t at = bytes.find(magic);
  GEQO_CHECK(at != std::string::npos) << "no GEQOHNSW section";
  return at;
}

// Shared fixture: one small system + serving catalog saved once, reused by
// every corruption test in the suite.
class ArtifactLintTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog());
    GeqoSystemOptions options;
    options.model.conv1_size = 8;
    options.model.conv2_size = 8;
    options.model.fc1_size = 8;
    options.model.fc2_size = 4;
    system_ = new GeqoSystem(catalog_, options);

    GeneratorOptions generator_options;
    const QueryGenerator generator(catalog_, generator_options);
    Rng rng(7);
    plans_ = new std::vector<PlanPtr>(generator.GenerateMany(3, &rng));

    dir_ = new ScopedTempDir();
    system_path_ = dir_->path() + "/lint_system.snapshot";
    catalog_path_ = dir_->path() + "/lint_catalog.snapshot";
    sharded_path_ = dir_->path() + "/lint_sharded.snapshot";
    GEQO_CHECK_OK(system_->SaveSnapshot(system_path_));
    // The GEQOCATG artifact: the one shard segment of a synchronous
    // (one-shard, drained) serving catalog's export.
    auto serving = system_->OpenShardedCatalog(
        serve::ShardedCatalogOptions::Synchronous(
            system_->options().pipeline));
    for (const PlanPtr& plan : *plans_) {
      GEQO_CHECK_OK(serve::ProbeAddAndDrain(*serving, plan).status());
    }
    {
      std::ostringstream exported;
      GEQO_CHECK_OK(serving->ExportSnapshot(exported));
      WriteFile(catalog_path_, OnlySegmentOf(exported.str()));
    }

    // A sharded catalog with a non-empty pending-verification tail: deferred
    // mode (no verifier threads) queues every undecided class, and feeding a
    // duplicate plan with the learned filters disabled guarantees at least
    // one undecided class reaches the queue.
    sharded_plans_ = new std::vector<PlanPtr>(*plans_);
    sharded_plans_->push_back((*plans_)[0]);
    serve::ShardedCatalogOptions sharded_options;
    sharded_options.catalog.pipeline = system_->options().pipeline;
    sharded_options.catalog.pipeline.use_vmf = false;
    sharded_options.catalog.pipeline.use_emf = false;
    sharded_options.num_shards = 2;
    sharded_options.verifier_threads = 0;
    auto sharded = system_->OpenShardedCatalog(sharded_options);
    for (const PlanPtr& plan : *sharded_plans_) {
      GEQO_CHECK_OK(sharded->ProbeAdd(plan).status());
    }
    sharded_pending_ = sharded->PendingVerifications();
    {
      std::ofstream out(sharded_path_, std::ios::binary | std::ios::trunc);
      GEQO_CHECK_OK(sharded->ExportSnapshot(out));
    }
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
    delete sharded_plans_;
    delete plans_;
    delete system_;
    delete catalog_;
    sharded_plans_ = nullptr;
    plans_ = nullptr;
    system_ = nullptr;
    catalog_ = nullptr;
  }

  static Diagnostics Lint(const std::string& bytes) {
    return LintArtifactBytes(bytes);
  }

  static Status LoadSystem(const std::string& bytes) {
    const std::string path = dir_->path() + "/lint_mut.snapshot";
    WriteFile(path, bytes);
    const Status status = system_->LoadSnapshot(path);
    std::remove(path.c_str());
    return status;
  }

  /// Loads GEQOCATG \p bytes the way a restart does: as the one segment of
  /// a one-shard GEQOSHRD container.
  static Status LoadServing(const std::string& bytes) {
    std::istringstream stream(OneShardContainer(bytes, plans_->size()));
    serve::ShardedCatalogOptions options;
    options.verifier_threads = 0;
    return system_->ImportShardedSnapshot(stream, *plans_, options).status();
  }

  // GEQOSHRD payload: magic, version, num_shards, count, count routing
  // words, then per shard a length-prefixed GEQOCATG segment, the pending
  // tail, and the end magic, under the checksum footer.

  static Status LoadSharded(const std::string& bytes) {
    std::istringstream stream(bytes);
    serve::ShardedCatalogOptions options;
    options.verifier_threads = 0;
    return system_->ImportShardedSnapshot(stream, *sharded_plans_, options)
        .status();
  }

  /// Rewrites 8 bytes of the checksummed payload at \p offset and refreshes
  /// the footer, so the structural decoder (not the checksum) must object.
  static std::string MutatePayloadU64(const std::string& bytes, size_t offset,
                                      uint64_t value) {
    std::string payload = bytes.substr(0, bytes.size() - sizeof(uint64_t));
    std::memcpy(payload.data() + offset, &value, sizeof(value));
    std::ostringstream out;
    GEQO_CHECK_OK(io::WriteChecksummed(out, payload, "mutated artifact"));
    return out.str();
  }

  /// Where each shard segment of a GEQOSHRD container sits: the offset of
  /// its checksummed bytes and their size (segment footer included).
  struct SegmentSpan {
    size_t begin = 0;
    size_t size = 0;
  };

  static std::vector<SegmentSpan> SegmentSpans(const std::string& sharded) {
    io::ByteReader reader(sharded);
    reader.U64();  // magic
    reader.U64();  // version
    const uint64_t num_shards = reader.U64();
    const uint64_t count = reader.U64();
    for (uint64_t i = 0; i < count; ++i) reader.U64();  // routing
    std::vector<SegmentSpan> spans;
    for (uint64_t sid = 0; sid < num_shards; ++sid) {
      const uint64_t size = reader.U64();
      spans.push_back({reader.offset(), size});
      reader.Bytes(size);
    }
    GEQO_CHECK(reader.ok());
    return spans;
  }

  /// Recomputes the footer of every segment in \p spans and of the
  /// container, so a mutated field must be caught by a structural decoder,
  /// not by a checksum.
  static std::string RefreshFooters(std::string bytes,
                                    const std::vector<SegmentSpan>& spans) {
    const auto refresh = [&bytes](size_t begin, size_t size) {
      const size_t payload = size - sizeof(uint64_t);
      const uint64_t checksum =
          io::PayloadChecksum(std::string_view(bytes).substr(begin, payload));
      std::memcpy(bytes.data() + begin + payload, &checksum, sizeof(checksum));
    };
    for (const SegmentSpan& span : spans) refresh(span.begin, span.size);
    refresh(0, bytes.size());
    return bytes;
  }

  /// Overwrites the u64 at \p offset of the container and refreshes every
  /// footer.
  static std::string MutateShardedU64(const std::string& bytes, size_t offset,
                                      uint64_t value) {
    std::string out = bytes;
    std::memcpy(out.data() + offset, &value, sizeof(value));
    return RefreshFooters(std::move(out), SegmentSpans(bytes));
  }

  /// The decoded sharded fixture, for locating fields by structure.
  static serve::ShardedSnapshotImage DecodedSharded(const std::string& bytes) {
    serve::ShardedSnapshotImage image;
    io::DecodeErrors errors;
    GEQO_CHECK(serve::DecodeShardedSnapshot(bytes, &image, &errors) &&
               errors.empty());
    return image;
  }

  static ScopedTempDir* dir_;
  static Catalog* catalog_;
  static GeqoSystem* system_;
  static std::vector<PlanPtr>* plans_;
  static std::vector<PlanPtr>* sharded_plans_;
  static std::string system_path_;
  static std::string catalog_path_;
  static std::string sharded_path_;
  static size_t sharded_pending_;
};

ScopedTempDir* ArtifactLintTest::dir_ = nullptr;
Catalog* ArtifactLintTest::catalog_ = nullptr;
GeqoSystem* ArtifactLintTest::system_ = nullptr;
std::vector<PlanPtr>* ArtifactLintTest::plans_ = nullptr;
std::vector<PlanPtr>* ArtifactLintTest::sharded_plans_ = nullptr;
std::string ArtifactLintTest::system_path_;
std::string ArtifactLintTest::catalog_path_;
std::string ArtifactLintTest::sharded_path_;
size_t ArtifactLintTest::sharded_pending_ = 0;

TEST_F(ArtifactLintTest, PristineArtifactsHaveZeroFindings) {
  const auto system_findings = LintArtifactFile(system_path_);
  ASSERT_TRUE(system_findings.ok());
  EXPECT_TRUE(system_findings->empty()) << CodesOf(*system_findings);
  EXPECT_EQ(SniffArtifact(ReadFile(system_path_)),
            ArtifactKind::kSystemSnapshot);

  const auto catalog_findings = LintArtifactFile(catalog_path_);
  ASSERT_TRUE(catalog_findings.ok());
  EXPECT_TRUE(catalog_findings->empty()) << CodesOf(*catalog_findings);
  EXPECT_EQ(SniffArtifact(ReadFile(catalog_path_)),
            ArtifactKind::kServingCatalog);

  // The pristine files also load.
  EXPECT_TRUE(LoadSystem(ReadFile(system_path_)).ok());
  EXPECT_TRUE(LoadServing(ReadFile(catalog_path_)).ok());
}

TEST_F(ArtifactLintTest, TruncationIsDetectedAtEveryDepth) {
  for (const std::string& path : {system_path_, catalog_path_}) {
    const std::string bytes = ReadFile(path);
    for (const double fraction : {0.02, 0.2, 0.5, 0.8, 0.99}) {
      const std::string cut =
          bytes.substr(0, static_cast<size_t>(bytes.size() * fraction));
      const Diagnostics findings = Lint(cut);
      EXPECT_TRUE(HasFindings(findings))
          << path << " truncated to " << fraction;
      // The checksum footer (now misaligned) always names the corruption.
      EXPECT_TRUE(HasCode(findings, "snapshot.checksum") ||
                  HasCode(findings, "catalog.checksum") ||
                  HasCode(findings, "snapshot.truncated") ||
                  HasCode(findings, "catalog.truncated") ||
                  HasCode(findings, "artifact.unknown-magic"))
          << CodesOf(findings);
      const Status load = path == system_path_ ? LoadSystem(cut)
                                               : LoadServing(cut);
      EXPECT_FALSE(load.ok()) << path << " truncated to " << fraction;
    }
  }
}

TEST_F(ArtifactLintTest, BitFlipsAreDetectedEverywhere) {
  for (const std::string& path : {system_path_, catalog_path_}) {
    const std::string bytes = ReadFile(path);
    for (const size_t offset :
         {size_t{0}, size_t{8}, bytes.size() / 2, bytes.size() - 1}) {
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(flipped[offset] ^ 0x20);
      const Diagnostics findings = Lint(flipped);
      EXPECT_TRUE(HasFindings(findings)) << path << " flip at " << offset;
      if (offset == 0) {
        // The leading magic no longer matches any artifact.
        EXPECT_TRUE(HasCode(findings, "artifact.unknown-magic"))
            << CodesOf(findings);
      } else {
        EXPECT_TRUE(HasCode(findings, "snapshot.checksum") ||
                    HasCode(findings, "catalog.checksum"))
            << CodesOf(findings);
      }
      const Status load = path == system_path_ ? LoadSystem(flipped)
                                               : LoadServing(flipped);
      EXPECT_FALSE(load.ok()) << path << " flip at " << offset;
    }
  }
}

TEST_F(ArtifactLintTest, SystemSnapshotSingleByteFlipSweep) {
  // Every byte of the system snapshot under three masks: the linter and the
  // loader's decoder must both reject each flip, without aborting or
  // throwing. Flips in the agnostic layout fields once took the linter past
  // EncodingLayout::Agnostic's bound (a GEQO_CHECK abort).
  //
  // The sweep runs in memory. LoadSnapshot's verdict on bytes is
  // DecodeSystemSnapshot's, and past the magic the linter runs that decoder
  // and reports its errors, which carry snapshot.* or model.* codes (the
  // linter's own policy codes are emf.*). So one lint call per flip shows
  // both verdicts; a flip of the magic, which the linter cannot sniff, is
  // decoded directly. A file-backed load of one flip per region follows.
  const auto decoder_refused = [](const Diagnostics& findings) {
    for (const Diagnostic& finding : findings) {
      if (finding.code.rfind("snapshot.", 0) == 0 ||
          finding.code.rfind("model.", 0) == 0) {
        return true;
      }
    }
    return false;
  };
  const std::string bytes = ReadFile(system_path_);
  std::string flipped = bytes;
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      flipped[offset] = static_cast<char>(bytes[offset] ^ mask);
      Diagnostics findings;
      EXPECT_NO_THROW(findings = Lint(flipped));
      EXPECT_TRUE(HasFindings(findings))
          << "flip " << static_cast<int>(mask) << " at " << offset;
      if (offset < sizeof(uint64_t)) {
        SystemSnapshotImage image;
        io::DecodeErrors errors;
        EXPECT_NO_THROW(DecodeSystemSnapshot(flipped, &image, &errors));
        EXPECT_TRUE(HasCode(findings, "artifact.unknown-magic"))
            << CodesOf(findings);
        EXPECT_FALSE(errors.empty())
            << "flip " << static_cast<int>(mask) << " at " << offset;
      } else {
        EXPECT_TRUE(decoder_refused(findings))
            << "flip " << static_cast<int>(mask) << " at " << offset << ": "
            << CodesOf(findings);
      }
    }
    flipped[offset] = bytes[offset];
  }

  // One file-backed load per region: magic, version, schema fingerprint,
  // agnostic layout, calibration (radius, threshold), model state, footer.
  const size_t footer = bytes.size() - sizeof(uint64_t);
  for (const size_t offset :
       {size_t{0}, size_t{8}, size_t{16}, size_t{24}, size_t{40},
        (48 + footer) / 2, footer + 3}) {
    flipped[offset] = static_cast<char>(bytes[offset] ^ 0x80);
    Status load;
    EXPECT_NO_THROW(load = LoadSystem(flipped));
    EXPECT_FALSE(load.ok()) << "flip at " << offset;
    flipped[offset] = bytes[offset];
  }
}

TEST_F(ArtifactLintTest, OversizedAgnosticLayoutIsAFindingAndAStatus) {
  // Offset 24 is the layout's table count (6). 134 passes the old loose
  // bound but not EncodingLayout::Agnostic's; with the footer refreshed,
  // the linter and the loader each reach the decoder's layout check.
  const std::string bytes = MutatePayloadU64(ReadFile(system_path_), 24, 134);
  const Diagnostics findings = Lint(bytes);
  EXPECT_TRUE(HasCode(findings, "snapshot.layout")) << CodesOf(findings);
  EXPECT_FALSE(HasCode(findings, "snapshot.checksum")) << CodesOf(findings);
  const Status load = LoadSystem(bytes);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.message().find("implausible agnostic layout"),
            std::string::npos)
      << load.ToString();
}

TEST_F(ArtifactLintTest, VersionFieldFlipNamesTheVersion) {
  // Byte 8 is the low byte of the version field: rewrite it to a valid
  // little-endian "version 9" and fix up the checksum so the structural
  // decoder (not the footer) must catch it.
  std::string bytes = ReadFile(system_path_);
  bytes[8] = 9;
  std::string payload = bytes.substr(0, bytes.size() - sizeof(uint64_t));
  std::ostringstream refreshed;
  GEQO_CHECK_OK(io::WriteChecksummed(refreshed, payload, "test"));
  const Diagnostics findings = Lint(refreshed.str());
  ASSERT_TRUE(HasFindings(findings));
  EXPECT_TRUE(HasCode(findings, "snapshot.version")) << CodesOf(findings);
  EXPECT_FALSE(HasCode(findings, "snapshot.checksum")) << CodesOf(findings);
  EXPECT_FALSE(LoadSystem(refreshed.str()).ok());
}

// ---------------------------------------------------------------------------
// GEQOSHRD sharded catalog container.

TEST_F(ArtifactLintTest, PristineShardedCatalogHasZeroFindings) {
  const std::string bytes = ReadFile(sharded_path_);
  EXPECT_EQ(SniffArtifact(bytes), ArtifactKind::kShardedCatalog);
  const auto findings = LintArtifactFile(sharded_path_);
  ASSERT_TRUE(findings.ok());
  EXPECT_TRUE(findings->empty()) << CodesOf(*findings);
  EXPECT_TRUE(LoadSharded(bytes).ok());
  // The fixture was built to carry a pending-verification tail, so these
  // tests exercise the tail decoder, not an empty section.
  EXPECT_GT(sharded_pending_, 0u);
}

TEST_F(ArtifactLintTest, ShardedTruncationAndBitFlipsAreDetected) {
  const std::string bytes = ReadFile(sharded_path_);
  for (const double fraction : {0.02, 0.5, 0.99}) {
    const std::string cut =
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction));
    const Diagnostics findings = Lint(cut);
    EXPECT_TRUE(HasFindings(findings)) << "truncated to " << fraction;
    EXPECT_FALSE(LoadSharded(cut).ok()) << "truncated to " << fraction;
  }
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x20);
  const Diagnostics findings = Lint(flipped);
  EXPECT_TRUE(HasCode(findings, "sharded.checksum")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(flipped).ok());
}

// Payload layout: magic(8) version(8) num_shards(8) count(8), then the
// per-entry shard routing table. The tail is: ...pairs, end magic(8).

TEST_F(ArtifactLintTest, ShardedVersionIsChecked) {
  const std::string mutated =
      MutatePayloadU64(ReadFile(sharded_path_), 8, 9);
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.version")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedRoutingEntryOutOfRange) {
  const std::string mutated =
      MutatePayloadU64(ReadFile(sharded_path_), 32, 9999);
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.shard-range")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedRoutingSegmentCountMismatch) {
  // Re-route entry 0 to the other shard (still a valid shard id): the
  // routing table now disagrees with the segments' own entry counts.
  const std::string bytes = ReadFile(sharded_path_);
  uint64_t shard0 = 0;
  std::memcpy(&shard0, bytes.data() + 32, sizeof(shard0));
  const std::string mutated = MutatePayloadU64(bytes, 32, 1 - shard0);
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.segment-count"))
      << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedPendingPairOutOfRange) {
  ASSERT_GT(sharded_pending_, 0u);
  const std::string bytes = ReadFile(sharded_path_);
  // The last pair's member gid sits 16 bytes before the end magic, which is
  // the final 8 payload bytes.
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  const std::string mutated =
      MutatePayloadU64(bytes, payload_size - 2 * sizeof(uint64_t), 1u << 20);
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.pending-range")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedEndMarkerMissing) {
  const std::string bytes = ReadFile(sharded_path_);
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  const std::string mutated =
      MutatePayloadU64(bytes, payload_size - sizeof(uint64_t), 0);
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.end-magic")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedPendingPairsOutOfOrder) {
  // The writer sorts and deduplicates the pending tail; a repeated pair
  // (count bumped, footer refreshed) is corruption to the linter and the
  // loader alike.
  const std::string bytes = ReadFile(sharded_path_);
  const serve::ShardedSnapshotImage image = DecodedSharded(bytes);
  ASSERT_FALSE(image.pending.empty());
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  const size_t pairs_end = payload_size - sizeof(uint64_t);
  const size_t count_offset =
      pairs_end - image.pending.size() * 2 * sizeof(uint64_t) -
      sizeof(uint64_t);
  std::string mutated = bytes;
  mutated.insert(pairs_end,
                 bytes.substr(pairs_end - 2 * sizeof(uint64_t),
                              2 * sizeof(uint64_t)));
  const uint64_t count = image.pending.size() + 1;
  std::memcpy(mutated.data() + count_offset, &count, sizeof(count));
  mutated = RefreshFooters(std::move(mutated), SegmentSpans(bytes));
  const Diagnostics findings = Lint(mutated);
  EXPECT_TRUE(HasCode(findings, "sharded.pending-order")) << CodesOf(findings);
  EXPECT_FALSE(LoadSharded(mutated).ok());
}

TEST_F(ArtifactLintTest, ShardedImportRefusesHugeCountsWithoutThrowing) {
  // Footer-refreshed counts that once reached an allocation before any
  // bound: an HNSW vector count of 2^40 (std::bad_alloc), an HNSW dim of
  // 2^40, a memo count of 2^62 (std::bad_array_new_length),
  // and a pending count near the payload size (a VerifyTask reserve sized
  // by the file). Each must be a Status from the loader and a named
  // finding from the linter.
  const std::string bytes = ReadFile(sharded_path_);
  const serve::ShardedSnapshotImage image = DecodedSharded(bytes);
  const std::vector<SegmentSpan> spans = SegmentSpans(bytes);
  size_t sid = 0;
  while (image.segments[sid].canonical_hashes.empty()) ++sid;
  const serve::CatalogSegmentImage& segment = image.segments[sid];
  const size_t base = spans[sid].begin;
  // GEQOHNSW: 7 parameter words, 4 rng words, max level, entry point, then
  // the count.
  const size_t hnsw = 5 * sizeof(uint64_t) +
                      segment.canonical_hashes.size() * sizeof(uint64_t);
  const size_t hnsw_count = hnsw + 13 * sizeof(uint64_t);
  // The memo is the last section before the end magic and the footer.
  const size_t memo_count = spans[sid].size - 3 * sizeof(uint64_t) -
                            segment.memo.size() * (4 * sizeof(uint64_t) + 1);
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  const size_t pending_count = payload_size - sizeof(uint64_t) -
                               image.pending.size() * 2 * sizeof(uint64_t) -
                               sizeof(uint64_t);

  const auto word = [&bytes](size_t offset) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
  };
  ASSERT_EQ(word(base + hnsw), io::kHnswMagic);
  ASSERT_EQ(word(base + hnsw_count), segment.canonical_hashes.size());
  ASSERT_EQ(word(base + memo_count), segment.memo.size());
  ASSERT_EQ(word(pending_count), image.pending.size());

  const struct {
    const char* name;
    std::string bytes;
    const char* code;
  } cases[] = {
      {"hnsw count 2^40",
       MutateShardedU64(bytes, base + hnsw_count, 1ull << 40),
       "hnsw.truncated"},
      {"hnsw dim 2^40", MutateShardedU64(bytes, base + hnsw + 16, 1ull << 40),
       "hnsw.params"},
      {"memo count 2^62",
       MutateShardedU64(bytes, base + memo_count, 1ull << 62),
       "catalog.truncated"},
      {"pending count near the payload size",
       MutateShardedU64(bytes, pending_count, payload_size - 1),
       "sharded.truncated"},
  };
  for (const auto& test_case : cases) {
    Status load;
    EXPECT_NO_THROW(load = LoadSharded(test_case.bytes)) << test_case.name;
    EXPECT_FALSE(load.ok()) << test_case.name;
    Diagnostics findings;
    EXPECT_NO_THROW(findings = Lint(test_case.bytes)) << test_case.name;
    EXPECT_TRUE(HasCode(findings, test_case.code))
        << test_case.name << ": " << CodesOf(findings);
  }
}

TEST_F(ArtifactLintTest, HnswVersion2IsRefusedByEveryReader) {
  // The v2 GEQOHNSW layout carried a quantization block that v3 dropped.
  // No reader decodes it: each refuses the version word with hnsw.version,
  // as a Status or a finding, before it reaches the block.
  ann::HnswIndex index(4);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    index.Add({rng.NextFloat(), rng.NextFloat(), rng.NextFloat(),
               rng.NextFloat()});
  }
  std::ostringstream out;
  GEQO_CHECK_OK(index.Serialize(out));
  const std::string standalone = WithVersion2Hnsw(out.str(), 0);

  const auto loaded = ann::HnswIndex::Deserialize(standalone);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("hnsw.version"), std::string::npos)
      << loaded.status().ToString();

  Diagnostics findings;
  EXPECT_NO_THROW(findings = Lint(standalone));
  EXPECT_TRUE(HasCode(findings, "hnsw.version")) << CodesOf(findings);

  // The serving catalog segment with its index section rewritten to v2, the
  // segment footer recomputed so the structural decoder must object.
  const std::string segment = ReadFile(catalog_path_);
  std::string payload = segment.substr(0, segment.size() - sizeof(uint64_t));
  payload = WithVersion2Hnsw(payload, HnswSectionOffset(payload));
  std::ostringstream refreshed;
  GEQO_CHECK_OK(io::WriteChecksummed(refreshed, payload, "v2 segment"));
  Status load;
  EXPECT_NO_THROW(load = LoadServing(refreshed.str()));
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.ToString().find("hnsw.version"), std::string::npos)
      << load.ToString();
  EXPECT_NO_THROW(findings = Lint(refreshed.str()));
  EXPECT_TRUE(HasCode(findings, "hnsw.version")) << CodesOf(findings);
}

TEST_F(ArtifactLintTest, ShardedFieldSweepLintMatchesLoader) {
  // Every 8-byte-aligned word of the container overwritten with a fixed set
  // of values, every footer refreshed: no throw, and the linter finds
  // nothing exactly when the loader succeeds. Two kinds of word are bound,
  // not decoded — each segment's schema fingerprint and its canonical
  // hashes are compared with the live catalog and plans — so they are left
  // out; the segment footers are recomputed anyway.
  const std::string bytes = ReadFile(sharded_path_);
  const serve::ShardedSnapshotImage image = DecodedSharded(bytes);
  const std::vector<SegmentSpan> spans = SegmentSpans(bytes);
  std::vector<bool> skip(bytes.size(), false);
  for (size_t sid = 0; sid < spans.size(); ++sid) {
    const size_t begin = spans[sid].begin;
    skip[begin + 2 * sizeof(uint64_t)] = true;  // schema fingerprint
    for (size_t i = 0; i < image.segments[sid].canonical_hashes.size(); ++i) {
      skip[begin + (5 + i) * sizeof(uint64_t)] = true;
    }
    skip[begin + spans[sid].size - sizeof(uint64_t)] = true;  // footer
  }
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  size_t accepted = 0;
  size_t refused = 0;
  for (size_t offset = 0; offset + sizeof(uint64_t) <= payload_size;
       offset += sizeof(uint64_t)) {
    if (skip[offset]) continue;
    for (const uint64_t value : kSweepValues) {
      const std::string mutated = MutateShardedU64(bytes, offset, value);
      Diagnostics findings;
      Status load;
      EXPECT_NO_THROW(findings = Lint(mutated)) << "offset " << offset;
      EXPECT_NO_THROW(load = LoadSharded(mutated)) << "offset " << offset;
      EXPECT_EQ(findings.empty(), load.ok())
          << "offset " << offset << " value " << value << ": "
          << CodesOf(findings) << " / " << load.ToString();
      ++(load.ok() ? accepted : refused);
    }
  }
  // Both verdicts occur, so the sweep proves agreement, not a tautology.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Hand-crafted catalog payloads: section-level invariant violations that a
// checksum cannot catch (the writer computes a valid footer over bad bytes).

struct MemoEntry {
  uint64_t lo;
  uint64_t hi;
  uint64_t check_lo;
  uint64_t check_hi;
  uint8_t verdict;
};

// Crafted segments are bound to a small live system — its schema
// fingerprint, the canonical hashes of its first plans, and its embedding
// dim — so the loader reaches the same bytes the linter walks: a clean
// craft loads, and each violation is refused by both.
class CraftedCatalogTest : public ::testing::Test {
 protected:
  /// The crafted embedding dim: the fixture model's conv2 width.
  static constexpr uint64_t kDim = 4;

  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog());
    GeqoSystemOptions options;
    options.model.conv1_size = 8;
    options.model.conv2_size = kDim;
    options.model.fc1_size = 8;
    options.model.fc2_size = 4;
    system_ = new GeqoSystem(catalog_, options);
    const QueryGenerator generator(catalog_, GeneratorOptions());
    Rng rng(7);
    plans_ = new std::vector<PlanPtr>(generator.GenerateMany(3, &rng));
    // The binding comes from a real export of those plans.
    auto serving = system_->OpenShardedCatalog(
        serve::ShardedCatalogOptions::Synchronous(
            system_->options().pipeline));
    for (const PlanPtr& plan : *plans_) {
      GEQO_CHECK_OK(serve::ProbeAddAndDrain(*serving, plan).status());
    }
    std::ostringstream exported;
    GEQO_CHECK_OK(serving->ExportSnapshot(exported));
    serve::CatalogSegmentImage image;
    io::DecodeErrors errors;
    GEQO_CHECK(serve::DecodeCatalogSegment(OnlySegmentOf(exported.str()),
                                           &image, &errors) &&
               errors.empty());
    fingerprint_ = image.schema_fingerprint;
    hashes_ = new std::vector<uint64_t>(image.canonical_hashes);
  }

  static void TearDownTestSuite() {
    delete hashes_;
    delete plans_;
    delete system_;
    delete catalog_;
    hashes_ = nullptr;
    plans_ = nullptr;
    system_ = nullptr;
    catalog_ = nullptr;
  }

  /// GEQOCATG bytes with \p parents.size() entries (the fixture's first
  /// plans), the given class forest and memo, and optional header/trailer
  /// damage.
  static std::string Craft(const std::vector<uint64_t>& parents,
                           const std::vector<MemoEntry>& memo,
                           uint64_t version = io::kCatalogVersion,
                           uint64_t end_magic = io::kCatalogEndMagic,
                           const std::string& trailing = {}) {
    GEQO_CHECK(parents.size() <= hashes_->size());
    std::ostringstream payload;
    io::BinaryWriter writer(payload, "crafted catalog");
    writer.U64(io::kCatalogMagic);
    writer.U64(version);
    writer.U64(fingerprint_);
    writer.U64(kDim);
    writer.U64(parents.size());
    for (size_t i = 0; i < parents.size(); ++i) writer.U64((*hashes_)[i]);
    ann::HnswIndex index(kDim);
    std::vector<float> vector(kDim, 0.0f);
    for (size_t i = 0; i < parents.size(); ++i) {
      vector[0] = static_cast<float>(i);
      index.Add(vector);
    }
    GEQO_CHECK_OK(index.Serialize(payload));
    for (const uint64_t parent : parents) writer.U64(parent);
    writer.U64(memo.size());
    for (const MemoEntry& entry : memo) {
      writer.U64(entry.lo);
      writer.U64(entry.hi);
      writer.U64(entry.check_lo);
      writer.U64(entry.check_hi);
      writer.U8(entry.verdict);
    }
    writer.U64(end_magic);
    payload << trailing;
    std::ostringstream file;
    GEQO_CHECK_OK(
        io::WriteChecksummed(file, payload.str(), "crafted catalog"));
    return file.str();
  }

  /// Loads crafted \p bytes holding \p entries entries the way a restart
  /// does: as the one segment of a one-shard GEQOSHRD container.
  static Status Load(const std::string& bytes, size_t entries) {
    std::istringstream stream(OneShardContainer(bytes, entries));
    const std::vector<PlanPtr> plans(plans_->begin(),
                                     plans_->begin() + entries);
    serve::ShardedCatalogOptions options;
    options.verifier_threads = 0;
    return system_->ImportShardedSnapshot(stream, plans, options).status();
  }

  static Catalog* catalog_;
  static GeqoSystem* system_;
  static std::vector<PlanPtr>* plans_;
  static std::vector<uint64_t>* hashes_;
  static uint64_t fingerprint_;
};

Catalog* CraftedCatalogTest::catalog_ = nullptr;
GeqoSystem* CraftedCatalogTest::system_ = nullptr;
std::vector<PlanPtr>* CraftedCatalogTest::plans_ = nullptr;
std::vector<uint64_t>* CraftedCatalogTest::hashes_ = nullptr;
uint64_t CraftedCatalogTest::fingerprint_ = 0;

TEST_F(CraftedCatalogTest, WellFormedCraftIsClean) {
  const std::string bytes =
      Craft({0, 1, 0}, {{3, 5, 9, 2, 0}, {3, 7, 1, 1, 1}, {4, 4, 2, 6, 2}});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(findings.empty()) << CodesOf(findings);
  const Status load = Load(bytes, 3);
  EXPECT_TRUE(load.ok()) << load.ToString();
}

TEST_F(CraftedCatalogTest, UnsupportedVersion) {
  const std::string bytes = Craft({}, {}, /*version=*/1);
  const Diagnostics findings = LintArtifactBytes(bytes);
  ASSERT_TRUE(HasFindings(findings));
  EXPECT_EQ(findings[0].code, "catalog.version");
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, ParentAboveChild) {
  const std::string bytes = Craft({1, 0}, {});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.parent-range")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 2).ok());
}

TEST_F(CraftedCatalogTest, ParentNotPathCompressed) {
  const std::string bytes = Craft({0, 0, 1}, {});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.parent-compressed"))
      << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 3).ok());
}

TEST_F(CraftedCatalogTest, MemoKeyNotNormalized) {
  const std::string bytes = Craft({}, {{9, 3, 0, 0, 0}});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.memo-key")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, MemoNotStrictlySorted) {
  const std::string bytes = Craft({}, {{5, 6, 0, 0, 0}, {5, 6, 0, 0, 1}});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.memo-order")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, MemoCheckPairNotNormalizedOnKeyTie) {
  // A key tie (lo == hi) forces the check pair into (min, max) order; a
  // descending check pair there means the writer's collision guard is
  // corrupt and a memo hit could silently compare the wrong direction.
  const std::string bytes = Craft({}, {{4, 4, 9, 3, 0}});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.memo-check")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, MemoVerdictOutOfRange) {
  const std::string bytes = Craft({}, {{3, 5, 1, 2, 7}});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.memo-verdict")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, MissingEndMarker) {
  const std::string bytes =
      Craft({}, {}, io::kCatalogVersion, /*end_magic=*/0);
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.end-magic")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, TrailingBytesInsideTheChecksummedPayload) {
  const std::string bytes =
      Craft({}, {}, io::kCatalogVersion, io::kCatalogEndMagic, "stowaway");
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "catalog.trailing")) << CodesOf(findings);
  EXPECT_FALSE(Load(bytes, 0).ok());
}

TEST_F(CraftedCatalogTest, ImplausibleEmbeddingDim) {
  // dim 0 is rejected before the HNSW section is even entered.
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "crafted catalog");
  writer.U64(io::kCatalogMagic);
  writer.U64(io::kCatalogVersion);
  writer.U64(fingerprint_);
  writer.U64(0);  // embedding dim
  writer.U64(0);  // count
  std::ostringstream file;
  GEQO_CHECK_OK(io::WriteChecksummed(file, payload.str(), "crafted catalog"));
  const Diagnostics findings = LintArtifactBytes(file.str());
  EXPECT_TRUE(HasCode(findings, "catalog.embedding-dim"))
      << CodesOf(findings);
  EXPECT_FALSE(Load(file.str(), 0).ok());
}

// ---------------------------------------------------------------------------
// Standalone GEQOMODL and GEQOHNSW blobs.

std::string SmallModelStateBytes() {
  ml::EmfModelOptions options;
  options.input_dim = 12;
  options.conv1_size = 8;
  options.conv2_size = 8;
  options.fc1_size = 8;
  options.fc2_size = 4;
  ml::EmfModel model(options);
  std::ostringstream bytes;
  GEQO_CHECK_OK(nn::SaveState(model.State(), bytes));
  return bytes.str();
}

TEST(ModelStateLintTest, CleanStateAndCorruptions) {
  const std::string bytes = SmallModelStateBytes();
  EXPECT_EQ(SniffArtifact(bytes), ArtifactKind::kModelState);
  EXPECT_TRUE(LintArtifactBytes(bytes).empty())
      << CodesOf(LintArtifactBytes(bytes));

  const Diagnostics truncated =
      LintArtifactBytes(bytes.substr(0, bytes.size() / 3));
  EXPECT_TRUE(HasFindings(truncated)) << CodesOf(truncated);

  const Diagnostics trailing = LintArtifactBytes(bytes + "junk");
  EXPECT_TRUE(HasCode(trailing, "model.trailing")) << CodesOf(trailing);
}

TEST(HnswLintTest, CleanIndexAndCorruptions) {
  ann::HnswIndex index(4);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    index.Add({rng.NextFloat(), rng.NextFloat(), rng.NextFloat(),
               rng.NextFloat()});
  }
  std::ostringstream out;
  GEQO_CHECK_OK(index.Serialize(out));
  const std::string bytes = out.str();
  EXPECT_EQ(SniffArtifact(bytes), ArtifactKind::kHnswIndex);
  EXPECT_TRUE(LintArtifactBytes(bytes).empty())
      << CodesOf(LintArtifactBytes(bytes));

  // Chop off the end marker.
  const Diagnostics cut =
      LintArtifactBytes(bytes.substr(0, bytes.size() - sizeof(uint64_t)));
  EXPECT_TRUE(HasCode(cut, "hnsw.end-magic")) << CodesOf(cut);

  const Diagnostics trailing = LintArtifactBytes(bytes + "junk");
  EXPECT_TRUE(HasCode(trailing, "hnsw.trailing")) << CodesOf(trailing);
}

TEST(HnswLintTest, CorruptedHeaderIsNamed) {
  ann::HnswIndex index(4);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    index.Add({rng.NextFloat(), rng.NextFloat(), rng.NextFloat(),
               rng.NextFloat()});
  }
  std::ostringstream out;
  GEQO_CHECK_OK(index.Serialize(out));
  const std::string bytes = out.str();
  EXPECT_TRUE(LintArtifactBytes(bytes).empty())
      << CodesOf(LintArtifactBytes(bytes));

  // Header layout: magic, version, dim, M, ef_construction, ef_search, seed,
  // 4 rng words, max level, entry point, count.
  const struct {
    size_t word;
    uint64_t value;
    const char* code;
  } cases[] = {
      {1, 2, "hnsw.version"},        // the retired v2 layout
      {2, 0, "hnsw.params"},         // dim 0
      {3, 1, "hnsw.params"},         // M below 2
      {11, 65, "hnsw.level"},        // max level past the sanity bound
      {12, 20, "hnsw.entry-point"},  // entry point out of range
  };
  for (const auto& test_case : cases) {
    std::string corrupted = bytes;
    std::memcpy(corrupted.data() + test_case.word * sizeof(uint64_t),
                &test_case.value, sizeof(uint64_t));
    const Diagnostics findings = LintArtifactBytes(corrupted);
    EXPECT_TRUE(HasCode(findings, test_case.code))
        << "word " << test_case.word << ": " << CodesOf(findings);
  }

  // A cut inside the header after the version word is a truncation finding.
  const Diagnostics cut =
      LintArtifactBytes(bytes.substr(0, 9 * sizeof(uint64_t)));
  EXPECT_TRUE(HasCode(cut, "hnsw.truncated")) << CodesOf(cut);
}

// ---------------------------------------------------------------------------
// GEQOMANI store manifests and GEQOWALG delta-log partitions: every
// corruption the linter names must also be rejected by the persistence
// layer's own reader, and vice versa — both run the recovery path's
// decoder on the same raw bytes.

std::string CraftManifest(uint64_t kind, uint64_t num_shards, uint64_t base_id,
                          uint64_t base_entries, uint64_t next_file_id,
                          const std::vector<uint64_t>& log_ids,
                          uint64_t version = io::kManifestVersion,
                          uint64_t end_magic = io::kManifestEndMagic) {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "crafted manifest");
  writer.U64(io::kManifestMagic);
  writer.U64(version);
  writer.U64(kind);
  writer.U64(num_shards);
  writer.U64(base_id);
  writer.U64(base_entries);
  writer.U64(next_file_id);
  writer.U64(log_ids.size());
  for (const uint64_t id : log_ids) writer.U64(id);
  writer.U64(end_magic);
  std::ostringstream file;
  GEQO_CHECK_OK(io::WriteChecksummed(file, payload.str(), "crafted manifest"));
  return file.str();
}

/// Writes \p bytes as a MANIFEST and runs the recovery-path reader.
Status ReadManifestBytes(const std::string& bytes) {
  const ScopedTempDir dir;
  WriteFile(dir.path() + "/MANIFEST", bytes);
  return serve::persist::ReadManifest(dir.path()).status();
}

TEST(StoreManifestLintTest, CleanManifestHasZeroFindingsAndLoads) {
  const std::string bytes = CraftManifest(
      /*kind=*/2, /*num_shards=*/4, /*base_id=*/3, /*base_entries=*/17,
      /*next_file_id=*/9, /*log_ids=*/{5, 8});
  EXPECT_EQ(SniffArtifact(bytes), ArtifactKind::kStoreManifest);
  EXPECT_TRUE(LintArtifactBytes(bytes).empty())
      << CodesOf(LintArtifactBytes(bytes));
  EXPECT_TRUE(ReadManifestBytes(bytes).ok());
}

TEST(StoreManifestLintTest, BitFlipAndTruncationAreDetected) {
  const std::string bytes =
      CraftManifest(2, 1, 0, 0, 4, {2, 3});
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x20);
  EXPECT_TRUE(HasCode(LintArtifactBytes(flipped), "manifest.checksum"))
      << CodesOf(LintArtifactBytes(flipped));
  EXPECT_FALSE(ReadManifestBytes(flipped).ok());

  const std::string cut = bytes.substr(0, bytes.size() / 2);
  EXPECT_TRUE(HasFindings(LintArtifactBytes(cut)))
      << CodesOf(LintArtifactBytes(cut));
  EXPECT_FALSE(ReadManifestBytes(cut).ok());
}

TEST(StoreManifestLintTest, StructuralViolationsAreNamed) {
  const struct {
    std::string bytes;
    const char* code;
  } cases[] = {
      // Version from the future.
      {CraftManifest(2, 1, 0, 0, 2, {}, /*version=*/9), "manifest.version"},
      // Store kind other than sharded.
      {CraftManifest(5, 1, 0, 0, 2, {}), "manifest.kind"},
      // Zero shards.
      {CraftManifest(2, 0, 0, 0, 2, {}), "manifest.shard-count"},
      // Entry count without a base segment.
      {CraftManifest(2, 1, 0, 12, 2, {}), "manifest.base"},
      // Base id the allocator never issued.
      {CraftManifest(2, 1, 7, 1, 2, {}), "manifest.base"},
      // Log ids out of order.
      {CraftManifest(2, 1, 0, 0, 9, {5, 5}), "manifest.log-ids"},
      // Log id colliding with the base segment.
      {CraftManifest(2, 1, 3, 1, 9, {3}), "manifest.log-ids"},
      // Log id the allocator never issued.
      {CraftManifest(2, 1, 0, 0, 4, {6}), "manifest.log-ids"},
      // Missing end marker.
      {CraftManifest(2, 1, 0, 0, 2, {}, io::kManifestVersion,
                     /*end_magic=*/0),
       "manifest.end-magic"},
  };
  for (const auto& test_case : cases) {
    const Diagnostics findings = LintArtifactBytes(test_case.bytes);
    EXPECT_TRUE(HasCode(findings, test_case.code))
        << "expected " << test_case.code << ", got " << CodesOf(findings);
    EXPECT_FALSE(ReadManifestBytes(test_case.bytes).ok())
        << test_case.code << " must also fail the recovery-path reader";
  }
}

TEST(StoreManifestLintTest, RetiredSingleCatalogKindIsRejectedByBoth) {
  // Kind 1 was the single-catalog store. The field stays in the format,
  // but the loader and the linter now accept only the sharded kind — and
  // reach the same verdict on the same bytes.
  const std::string bytes = CraftManifest(
      /*kind=*/1, /*num_shards=*/1, /*base_id=*/0, /*base_entries=*/0,
      /*next_file_id=*/3, /*log_ids=*/{2});
  const Diagnostics findings = LintArtifactBytes(bytes);
  EXPECT_TRUE(HasCode(findings, "manifest.kind")) << CodesOf(findings);
  const Status load = ReadManifestBytes(bytes);
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
  EXPECT_NE(load.message().find("store kind 1"), std::string::npos)
      << load.ToString();
  // The same manifest with the sharded kind is clean for both.
  const std::string sharded = CraftManifest(2, 1, 0, 0, 3, {2});
  EXPECT_TRUE(LintArtifactBytes(sharded).empty());
  EXPECT_TRUE(ReadManifestBytes(sharded).ok());
}

TEST(StoreManifestLintTest, FieldSweepLintMatchesLoader) {
  // Every word of a clean manifest's payload overwritten with each sweep
  // value, footer refreshed: no throw, and the linter finds nothing exactly
  // when ReadManifest succeeds.
  const std::string bytes = CraftManifest(
      /*kind=*/2, /*num_shards=*/4, /*base_id=*/3, /*base_entries=*/17,
      /*next_file_id=*/9, /*log_ids=*/{5, 8});
  const std::string payload = bytes.substr(0, bytes.size() - sizeof(uint64_t));
  size_t accepted = 0;
  size_t refused = 0;
  for (size_t offset = 0; offset < payload.size();
       offset += sizeof(uint64_t)) {
    for (const uint64_t value : kSweepValues) {
      std::string mutated = payload;
      std::memcpy(mutated.data() + offset, &value, sizeof(value));
      std::ostringstream file;
      GEQO_CHECK_OK(io::WriteChecksummed(file, mutated, "swept manifest"));
      Diagnostics findings;
      Status load;
      EXPECT_NO_THROW(findings = LintArtifactBytes(file.str()));
      EXPECT_NO_THROW(load = ReadManifestBytes(file.str()));
      EXPECT_EQ(findings.empty(), load.ok())
          << "offset " << offset << " value " << value << ": "
          << CodesOf(findings) << " / " << load.ToString();
      ++(load.ok() ? accepted : refused);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

std::string CraftWal(const std::vector<serve::persist::WalRecord>& records,
                     uint64_t file_id = 7, uint64_t shard = 0,
                     uint64_t magic = io::kWalMagic,
                     uint64_t version = io::kWalVersion) {
  std::string out;
  const uint64_t header[4] = {magic, version, file_id, shard};
  out.append(reinterpret_cast<const char*>(header), sizeof(header));
  for (const serve::persist::WalRecord& record : records) {
    io::AppendFramedRecord(&out, serve::persist::EncodeWalRecord(record));
  }
  return out;
}

/// Writes \p bytes as a partition file and runs the recovery-path reader.
Result<serve::persist::WalReplay> ReadWalBytes(const std::string& bytes,
                                               uint64_t file_id = 7,
                                               uint64_t shard = 0) {
  const ScopedTempDir dir;
  const std::string path = dir.path() + "/lint_wal.log";
  WriteFile(path, bytes);
  return serve::persist::ReadWalFile(path, file_id, shard);
}

TEST(WalLintTest, CleanPartitionHasZeroFindingsAndReplays) {
  using serve::persist::WalRecord;
  const std::string bytes = CraftWal({
      WalRecord::Add(0, 0xAAA, 0xBBB),
      WalRecord::Add(1, 0xCCC, 0xDDD),
      WalRecord::Verdict(3, 5, 1, 2, 1),
      WalRecord::Union(0, 1),
      WalRecord::Pending(1, 0),
  });
  EXPECT_EQ(SniffArtifact(bytes), ArtifactKind::kWalLog);
  EXPECT_TRUE(LintArtifactBytes(bytes).empty())
      << CodesOf(LintArtifactBytes(bytes));
  const auto replay = ReadWalBytes(bytes);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records.size(), 5u);
  EXPECT_FALSE(replay->torn);
}

TEST(WalLintTest, TornTailAndMidCorruptionAreDistinguished) {
  using serve::persist::WalRecord;
  const std::string bytes = CraftWal(
      {WalRecord::Add(0, 1, 2), WalRecord::Add(1, 3, 4)});

  // An interrupted append: garbage past the last full frame. The linter
  // flags it, but the recovery reader treats it as a truncatable tail.
  const std::string torn = bytes + "half-writ";
  EXPECT_TRUE(HasCode(LintArtifactBytes(torn), "wal.torn-tail"))
      << CodesOf(LintArtifactBytes(torn));
  const auto torn_replay = ReadWalBytes(torn);
  ASSERT_TRUE(torn_replay.ok()) << torn_replay.status().ToString();
  EXPECT_TRUE(torn_replay->torn);
  EXPECT_EQ(torn_replay->records.size(), 2u);

  // A bit flip inside the FIRST record while a valid frame follows: interior
  // damage, which truncation would wrongly drop durable records for — both
  // layers must refuse.
  std::string interior = bytes;
  interior[4 * sizeof(uint64_t) + sizeof(uint32_t) + 2] ^= 0x01;
  EXPECT_TRUE(HasCode(LintArtifactBytes(interior), "wal.mid-corruption"))
      << CodesOf(LintArtifactBytes(interior));
  EXPECT_FALSE(ReadWalBytes(interior).ok());

  // Shorter than its own header: the creation crash window.
  const std::string stub = bytes.substr(0, 11);
  EXPECT_TRUE(HasCode(LintArtifactBytes(stub), "wal.truncated"))
      << CodesOf(LintArtifactBytes(stub));
  const auto stub_replay = ReadWalBytes(stub);
  ASSERT_TRUE(stub_replay.ok());
  EXPECT_TRUE(stub_replay->header_torn);
}

TEST(WalLintTest, RecordGrammarViolationsAreNamed) {
  using serve::persist::WalRecord;
  // Verdict byte beyond the tri-state range: both layers refuse.
  const std::string bad_verdict =
      CraftWal({WalRecord::Verdict(3, 5, 1, 2, /*verdict=*/7)});
  EXPECT_TRUE(HasCode(LintArtifactBytes(bad_verdict), "wal.verdict-range"))
      << CodesOf(LintArtifactBytes(bad_verdict));
  EXPECT_FALSE(ReadWalBytes(bad_verdict).ok());

  // Non-normalized memo key (lo > hi): the journal always normalizes, so
  // this is corruption even though the frame checksum holds.
  const std::string bad_key = CraftWal({WalRecord::Verdict(9, 3, 0, 0, 1)});
  EXPECT_TRUE(HasCode(LintArtifactBytes(bad_key), "wal.verdict-key"))
      << CodesOf(LintArtifactBytes(bad_key));
  EXPECT_FALSE(ReadWalBytes(bad_key).ok());

  // A self-union and a gid regression among adds. The journal never writes
  // either: OnUnion fires only when Union joined two distinct classes, and
  // a shard's adds are journaled under its lock in gid order.
  const std::string self_union = CraftWal({WalRecord::Union(2, 2)});
  EXPECT_TRUE(HasCode(LintArtifactBytes(self_union), "wal.union"));
  EXPECT_FALSE(ReadWalBytes(self_union).ok());
  const std::string add_regression =
      CraftWal({WalRecord::Add(4, 0, 0), WalRecord::Add(4, 0, 0)});
  EXPECT_TRUE(HasCode(LintArtifactBytes(add_regression), "wal.add-order"));
  EXPECT_FALSE(ReadWalBytes(add_regression).ok());

  // An unknown record type, correctly framed: the checksum holds but the
  // grammar doesn't.
  std::string unknown;
  const uint64_t header[4] = {io::kWalMagic, io::kWalVersion, 7, 0};
  unknown.append(reinterpret_cast<const char*>(header), sizeof(header));
  io::AppendFramedRecord(&unknown, std::string("\x09junk", 5));
  EXPECT_TRUE(HasCode(LintArtifactBytes(unknown), "wal.record-type"))
      << CodesOf(LintArtifactBytes(unknown));
  EXPECT_FALSE(ReadWalBytes(unknown).ok());

  // Header mismatches: wrong version, and a partition filed under the wrong
  // manifest slot (file id / shard).
  const std::string bad_version =
      CraftWal({}, 7, 0, io::kWalMagic, /*version=*/9);
  EXPECT_TRUE(HasCode(LintArtifactBytes(bad_version), "wal.version"))
      << CodesOf(LintArtifactBytes(bad_version));
  EXPECT_FALSE(ReadWalBytes(bad_version).ok());
  EXPECT_FALSE(ReadWalBytes(CraftWal({}, /*file_id=*/8), 7, 0).ok());
}

TEST(WalLintTest, FieldSweepLintMatchesLoader) {
  // Every header word and every u64 field of every record overwritten with
  // each sweep value, the record's frame checksum recomputed: no throw, and
  // the linter finds nothing exactly when ReadWalFile succeeds. The reader
  // is told the manifest slot the (possibly mutated) header names, so the
  // sweep compares decoding, not slot bookkeeping.
  using serve::persist::WalRecord;
  const std::vector<WalRecord> records = {
      WalRecord::Add(0, 0xAAA, 0xBBB), WalRecord::Add(1, 0xCCC, 0xDDD),
      WalRecord::Verdict(3, 5, 1, 2, 1), WalRecord::Union(0, 1),
      WalRecord::Pending(1, 0)};
  struct Field {
    size_t record;  ///< records.size() = the header
    size_t offset;  ///< within the header, or within the record payload
  };
  std::vector<Field> fields;
  for (size_t word = 0; word < 4; ++word) {
    fields.push_back({records.size(), word * sizeof(uint64_t)});
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t payload = serve::persist::EncodeWalRecord(records[i]).size();
    for (size_t offset = 1; offset + sizeof(uint64_t) <= payload;
         offset += sizeof(uint64_t)) {
      fields.push_back({i, offset});
    }
  }
  size_t accepted = 0;
  size_t refused = 0;
  for (const Field& field : fields) {
    for (const uint64_t value : kSweepValues) {
      uint64_t header[4] = {io::kWalMagic, io::kWalVersion, 7, 0};
      std::string body;
      for (size_t i = 0; i < records.size(); ++i) {
        std::string payload = serve::persist::EncodeWalRecord(records[i]);
        if (field.record == i) {
          std::memcpy(payload.data() + field.offset, &value, sizeof(value));
        }
        io::AppendFramedRecord(&body, payload);
      }
      if (field.record == records.size()) {
        header[field.offset / sizeof(uint64_t)] = value;
      }
      const std::string bytes =
          std::string(reinterpret_cast<const char*>(header), sizeof(header)) +
          body;
      Diagnostics findings;
      EXPECT_NO_THROW(findings = LintArtifactBytes(bytes));
      bool loaded = false;
      EXPECT_NO_THROW(loaded = ReadWalBytes(bytes, header[2], header[3]).ok());
      EXPECT_EQ(findings.empty(), loaded)
          << "record " << field.record << " offset " << field.offset
          << " value " << value << ": " << CodesOf(findings);
      ++(loaded ? accepted : refused);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// SQL workload linting.

TEST(SqlLintTest, CleanWorkloadHasNoFindings) {
  const Catalog catalog = MakeTpchCatalog();
  const Diagnostics findings = LintSqlText(
      "-- a comment\n"
      "SELECT r_name FROM region WHERE r_regionkey > 1;\n"
      "SELECT n.n_name, r.r_name\n"
      "FROM nation AS n, region AS r\n"
      "WHERE n.n_regionkey = r.r_regionkey;\n",
      catalog);
  EXPECT_TRUE(findings.empty()) << CodesOf(findings);
}

TEST(SqlLintTest, ParseErrorCarriesTheLineNumber) {
  const Catalog catalog = MakeTpchCatalog();
  const Diagnostics findings = LintSqlText(
      "SELECT r_name FROM region;\n"
      "\n"
      "SELECT FROM WHERE;\n",
      catalog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "sql.parse");
  EXPECT_NE(findings[0].context.find("line 3"), std::string::npos)
      << findings[0].context;
}

TEST(SqlLintTest, UnknownColumnIsAFinding) {
  const Catalog catalog = MakeTpchCatalog();
  const Diagnostics findings =
      LintSqlText("SELECT r_nothing FROM region;", catalog);
  ASSERT_TRUE(HasFindings(findings));
  EXPECT_EQ(findings[0].code, "sql.parse");
}

TEST(SqlLintTest, CommentsAndBlanksAreIgnored) {
  const Catalog catalog = MakeTpchCatalog();
  EXPECT_TRUE(LintSqlText("", catalog).empty());
  EXPECT_TRUE(LintSqlText("-- nothing here\n\n;\n  ;", catalog).empty());
}

}  // namespace
}  // namespace geqo::analysis
