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

// Corruption tests for the artifact linter and the v2 snapshot loaders:
// every seeded corruption (byte truncation, bit flips, hand-crafted section
// violations) must be flagged by geqo_lint's walker with a named diagnostic
// AND rejected by the corresponding Load path — while pristine artifacts
// produce zero findings.

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

  /// The GEQOCATG segment of a one-shard GEQOSHRD export.
  static std::string OnlySegmentOf(const std::string& sharded) {
    std::istringstream file(sharded);
    const Result<std::string> payload_bytes =
        io::ReadChecksummed(file, "one-shard export");
    GEQO_CHECK_OK(payload_bytes.status());
    std::istringstream payload(*payload_bytes);
    io::BinaryReader reader(payload, "one-shard export");
    reader.U64();  // magic
    reader.U64();  // version
    GEQO_CHECK(reader.U64() == 1) << "expected a one-shard export";
    const uint64_t count = reader.U64();
    for (uint64_t i = 0; i < count; ++i) reader.U64();  // routing
    std::string segment(reader.U64(), '\0');
    reader.Bytes(segment.data(), segment.size());
    GEQO_CHECK_OK(reader.status());
    return segment;
  }

  /// Wraps \p segment as the only shard of a GEQOSHRD container holding
  /// \p count entries and no pending tail.
  static std::string OneShardContainer(const std::string& segment,
                                       uint64_t count) {
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

  static Status LoadSharded(const std::string& bytes) {
    std::istringstream stream(bytes);
    serve::ShardedCatalogOptions options;
    options.verifier_threads = 0;
    return system_->ImportShardedSnapshot(stream, *sharded_plans_, options)
        .status();
  }

  /// Rewrites 8 bytes of the checksummed payload at \p offset and refreshes
  /// the footer, so the structural walker (not the checksum) must object.
  static std::string MutatePayloadU64(const std::string& bytes, size_t offset,
                                      uint64_t value) {
    std::string payload = bytes.substr(0, bytes.size() - sizeof(uint64_t));
    std::memcpy(payload.data() + offset, &value, sizeof(value));
    std::ostringstream out;
    GEQO_CHECK_OK(io::WriteChecksummed(out, payload, "mutated artifact"));
    return out.str();
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
  // loader must both reject each flip, without aborting or throwing. Flips
  // in the agnostic layout fields once took the linter past
  // EncodingLayout::Agnostic's bound (a GEQO_CHECK abort).
  const std::string bytes = ReadFile(system_path_);
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(flipped[offset] ^ mask);
      Diagnostics findings;
      EXPECT_NO_THROW(findings = Lint(flipped));
      EXPECT_TRUE(HasFindings(findings))
          << "flip " << static_cast<int>(mask) << " at " << offset;
      Status load;
      EXPECT_NO_THROW(load = LoadSystem(flipped));
      EXPECT_FALSE(load.ok())
          << "flip " << static_cast<int>(mask) << " at " << offset;
    }
  }
}

TEST_F(ArtifactLintTest, OversizedAgnosticLayoutIsAFindingAndAStatus) {
  // Offset 24 is the layout's table count (6). 134 passes the old loose
  // bound but not EncodingLayout::Agnostic's; with the footer refreshed,
  // the walker and the loader each reach their layout check.
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
  // walker (not the footer) must catch it.
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
  // tests exercise the tail walker, not an empty section.
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

std::string CraftCatalog(uint64_t dim, const std::vector<uint64_t>& parents,
                         const std::vector<MemoEntry>& memo,
                         uint64_t version = io::kCatalogVersion,
                         uint64_t end_magic = io::kCatalogEndMagic,
                         const std::string& trailing = {}) {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "crafted catalog");
  writer.U64(io::kCatalogMagic);
  writer.U64(version);
  writer.U64(0);  // schema fingerprint (opaque to the linter)
  writer.U64(dim);
  writer.U64(parents.size());
  for (size_t i = 0; i < parents.size(); ++i) writer.U64(i);  // hashes
  ann::HnswIndex index(dim);
  std::vector<float> vector(dim, 0.0f);
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
  GEQO_CHECK_OK(io::WriteChecksummed(file, payload.str(), "crafted catalog"));
  return file.str();
}

TEST(CraftedCatalogTest, WellFormedCraftIsClean) {
  const Diagnostics findings = LintArtifactBytes(CraftCatalog(
      4, {0, 1, 0},
      {{3, 5, 9, 2, 0}, {3, 7, 1, 1, 1}, {4, 4, 2, 6, 2}}));
  EXPECT_TRUE(findings.empty()) << CodesOf(findings);
}

TEST(CraftedCatalogTest, UnsupportedVersion) {
  const Diagnostics findings =
      LintArtifactBytes(CraftCatalog(4, {}, {}, /*version=*/1));
  ASSERT_TRUE(HasFindings(findings));
  EXPECT_EQ(findings[0].code, "catalog.version");
}

TEST(CraftedCatalogTest, ParentAboveChild) {
  const Diagnostics findings = LintArtifactBytes(CraftCatalog(4, {1, 0}, {}));
  EXPECT_TRUE(HasCode(findings, "catalog.parent-range")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, ParentNotPathCompressed) {
  const Diagnostics findings =
      LintArtifactBytes(CraftCatalog(4, {0, 0, 1}, {}));
  EXPECT_TRUE(HasCode(findings, "catalog.parent-compressed"))
      << CodesOf(findings);
}

TEST(CraftedCatalogTest, MemoKeyNotNormalized) {
  const Diagnostics findings =
      LintArtifactBytes(CraftCatalog(4, {}, {{9, 3, 0, 0, 0}}));
  EXPECT_TRUE(HasCode(findings, "catalog.memo-key")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, MemoNotStrictlySorted) {
  const Diagnostics findings = LintArtifactBytes(
      CraftCatalog(4, {}, {{5, 6, 0, 0, 0}, {5, 6, 0, 0, 1}}));
  EXPECT_TRUE(HasCode(findings, "catalog.memo-order")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, MemoCheckPairNotNormalizedOnKeyTie) {
  // A key tie (lo == hi) forces the check pair into (min, max) order; a
  // descending check pair there means the writer's collision guard is
  // corrupt and a memo hit could silently compare the wrong direction.
  const Diagnostics findings =
      LintArtifactBytes(CraftCatalog(4, {}, {{4, 4, 9, 3, 0}}));
  EXPECT_TRUE(HasCode(findings, "catalog.memo-check")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, MemoVerdictOutOfRange) {
  const Diagnostics findings =
      LintArtifactBytes(CraftCatalog(4, {}, {{3, 5, 1, 2, 7}}));
  EXPECT_TRUE(HasCode(findings, "catalog.memo-verdict")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, MissingEndMarker) {
  const Diagnostics findings = LintArtifactBytes(
      CraftCatalog(4, {}, {}, io::kCatalogVersion, /*end_magic=*/0));
  EXPECT_TRUE(HasCode(findings, "catalog.end-magic")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, TrailingBytesInsideTheChecksummedPayload) {
  const Diagnostics findings = LintArtifactBytes(
      CraftCatalog(4, {}, {}, io::kCatalogVersion, io::kCatalogEndMagic,
                   "stowaway"));
  EXPECT_TRUE(HasCode(findings, "catalog.trailing")) << CodesOf(findings);
}

TEST(CraftedCatalogTest, ImplausibleEmbeddingDim) {
  // dim 0 is rejected before the HNSW section is even entered.
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "crafted catalog");
  writer.U64(io::kCatalogMagic);
  writer.U64(io::kCatalogVersion);
  writer.U64(0);
  writer.U64(0);  // embedding dim
  writer.U64(0);  // count
  std::ostringstream file;
  GEQO_CHECK_OK(io::WriteChecksummed(file, payload.str(), "crafted catalog"));
  const Diagnostics findings = LintArtifactBytes(file.str());
  EXPECT_TRUE(HasCode(findings, "catalog.embedding-dim"))
      << CodesOf(findings);
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

TEST(HnswLintTest, CorruptedCalibrationIsNamed) {
  ann::HnswOptions options;
  options.quant = ann::QuantOverride::kOn;
  options.sq8_calibration = 8;
  ann::HnswIndex index(4, options);
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

  // Quant block layout: 7 header u64s, then quant_enabled / threshold /
  // calibrated u64s, the HNSWSQ8! sub-magic, and the per-dim range table.
  const size_t quant_offset = 7 * sizeof(uint64_t);
  const size_t magic_offset = 10 * sizeof(uint64_t);
  const size_t table_offset = 11 * sizeof(uint64_t);

  std::string bad_flag = bytes;
  bad_flag[quant_offset] = 7;  // quant_enabled must be 0 or 1
  const Diagnostics flag = LintArtifactBytes(bad_flag);
  EXPECT_TRUE(HasCode(flag, "hnsw.quant")) << CodesOf(flag);

  std::string bad_magic = bytes;
  bad_magic[magic_offset] ^= 0x5a;
  const Diagnostics magic = LintArtifactBytes(bad_magic);
  EXPECT_TRUE(HasCode(magic, "hnsw.quant-magic")) << CodesOf(magic);

  // Swap the first (min, max) pair so min > max.
  std::string bad_range = bytes;
  float range_min = 0.0f;
  float range_max = 0.0f;
  std::memcpy(&range_min, bad_range.data() + table_offset, sizeof(float));
  std::memcpy(&range_max, bad_range.data() + table_offset + sizeof(float),
              sizeof(float));
  ASSERT_LT(range_min, range_max);
  std::memcpy(bad_range.data() + table_offset, &range_max, sizeof(float));
  std::memcpy(bad_range.data() + table_offset + sizeof(float), &range_min,
              sizeof(float));
  const Diagnostics range = LintArtifactBytes(bad_range);
  EXPECT_TRUE(HasCode(range, "hnsw.quant-range")) << CodesOf(range);
}

// ---------------------------------------------------------------------------
// GEQOMANI store manifests and GEQOWALG delta-log partitions: every
// corruption the linter names must also be rejected by the persistence
// layer's own reader, and vice versa — the walker mirrors the recovery
// path's validation, from raw bytes.

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

  // A self-union and a gid regression among adds.
  EXPECT_TRUE(HasCode(LintArtifactBytes(CraftWal({WalRecord::Union(2, 2)})),
                      "wal.union"));
  EXPECT_TRUE(HasCode(
      LintArtifactBytes(
          CraftWal({WalRecord::Add(4, 0, 0), WalRecord::Add(4, 0, 0)})),
      "wal.add-order"));

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
