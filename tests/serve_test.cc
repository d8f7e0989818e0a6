#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/geqo_system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_catalog.h"
#include "serve/union_find.h"
#include "serve/verifier_memo.h"
#include "serve_test_util.h"
#include "test_util.h"
#include "workload/schemas.h"

// The serving catalog's synchronous deployment — one shard, no background
// verifier threads, the plane drained after every call — checked against
// the class-at-a-time cascade's contract: classes, memoization, class
// shortcuts, stage accounting, and GEQOSHRD snapshot round trips.

namespace geqo {
namespace {

using serve::ShardedCatalog;
using serve::ShardedCatalogOptions;
using serve::UnionFind;
using serve::VerifiedProbe;
using testing::EquivalentsOf;
using testing::MustParse;
using testing::ProbeAddVerified;
using testing::ProbeVerified;

/// One small trained system shared by the suite (training dominates the
/// suite's runtime; the serving-layer behaviour under test is deterministic
/// given the trained weights).
class ServeTest : public ::testing::Test {
 protected:
  static GeqoSystem& System() {
    static GeqoSystem* system = [] {
      static Catalog catalog = MakeTpchCatalog();
      GeqoSystemOptions options;
      options.model.conv1_size = 32;
      options.model.conv2_size = 32;
      options.model.fc1_size = 32;
      options.model.fc2_size = 16;
      options.model.dropout = 0.2f;
      options.training.epochs = 8;
      options.synthetic_data.num_base_queries = 40;
      auto* out = new GeqoSystem(&catalog, options);
      GEQO_CHECK_OK(out->TrainOnSyntheticWorkload(0xC0DE).status());
      return out;
    }();
    return *system;
  }

  /// A catalog in the synchronous deployment.
  static std::unique_ptr<ShardedCatalog> Open(
      const GeqoOptions& pipeline = System().options().pipeline) {
    return System().OpenShardedCatalog(
        ShardedCatalogOptions::Synchronous(pipeline));
  }

  /// Three mutually-equivalent lineitem queries, one near-miss, and an
  /// equivalent supplier pair.
  static std::vector<PlanPtr> StreamPlans() {
    const Catalog& catalog = System().catalog();
    return {
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity + 5 > 25",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE 20 < l_quantity",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity > 20",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity > 21",
                  catalog),
        MustParse("SELECT s_suppkey FROM supplier WHERE s_acctbal > 40",
                  catalog),
        MustParse("SELECT s_suppkey FROM supplier WHERE 40 < s_acctbal",
                  catalog),
    };
  }
};

TEST_F(ServeTest, UnionFindMinRootPolicy) {
  UnionFind uf;
  for (int i = 0; i < 6; ++i) uf.Add();
  EXPECT_EQ(uf.NumClasses(), 6u);
  EXPECT_TRUE(uf.Union(4, 2));
  EXPECT_TRUE(uf.Union(5, 4));
  EXPECT_FALSE(uf.Union(2, 5));  // already joined
  EXPECT_EQ(uf.Find(5), 2u);     // oldest member is the representative
  EXPECT_EQ(uf.NumClasses(), 4u);

  // Restore round-trips through the compressed canonical form.
  UnionFind restored;
  ASSERT_TRUE(restored.Restore(uf.CompressedParents()).ok());
  EXPECT_EQ(restored.NumClasses(), 4u);
  EXPECT_EQ(restored.Find(5), 2u);
  // Class sizes are tracked at the roots, through unions and restores.
  EXPECT_EQ(uf.ClassSize(5), 3u);
  EXPECT_EQ(uf.ClassSize(0), 1u);
  EXPECT_EQ(restored.ClassSize(4), 3u);

  // Corrupt parent arrays are rejected.
  EXPECT_FALSE(UnionFind().Restore({1, 1}).ok());  // parent > element
  EXPECT_FALSE(UnionFind().Restore({0, 0, 1}).ok());  // non-root parent
}

TEST_F(ServeTest, ProbeAddBuildsEquivalenceClasses) {
  auto catalog = Open();
  const std::vector<PlanPtr> plans = StreamPlans();
  std::vector<std::vector<size_t>> equivalents;
  for (const PlanPtr& plan : plans) {
    const VerifiedProbe step = ProbeAddVerified(*catalog, plan);
    EXPECT_EQ(step.id, equivalents.size());
    equivalents.push_back(EquivalentsOf(*catalog, step.id));
  }
  ASSERT_EQ(catalog->size(), plans.size());

  // The three lineitem rewrites collapse into one class rooted at the
  // oldest member; the supplier pair forms its own class; the near-miss
  // (l_quantity > 21) stays a singleton.
  EXPECT_EQ(catalog->ClassOf(1), 0u);
  EXPECT_EQ(catalog->ClassOf(2), 0u);
  EXPECT_EQ(catalog->ClassOf(3), 3u);
  EXPECT_EQ(catalog->ClassOf(5), 4u);
  EXPECT_EQ(catalog->NumClasses(), 3u);
  EXPECT_EQ(catalog->ClassMembers(0), (std::vector<size_t>{0, 1, 2}));
  testing::ExpectOracleAgreement(System(), *catalog);

  // Each verified ProbeAdd joined exactly its proven peers.
  EXPECT_EQ(equivalents[2], (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(equivalents[3].empty());
  EXPECT_EQ(equivalents[5], (std::vector<size_t>{4}));

  // Probe alone never mutates the entry set or the classes; once the plane
  // has memoized its proof, a repeat probe reports the proven class with
  // its representative.
  const size_t classes_before = catalog->NumClasses();
  ProbeVerified(*catalog, plans[0]);
  const VerifiedProbe probe = ProbeVerified(*catalog, plans[0]);
  EXPECT_EQ(catalog->size(), plans.size());
  EXPECT_EQ(catalog->NumClasses(), classes_before);
  EXPECT_EQ(probe.probe.proven_ids, (std::vector<size_t>{0, 1, 2}));
  ASSERT_TRUE(probe.probe.representative.has_value());
  EXPECT_EQ(*probe.probe.representative, 0u);
}

TEST_F(ServeTest, ProbeLatencyCoversPreparationAndSumsStages) {
  auto catalog = Open();
  const std::vector<PlanPtr> plans = StreamPlans();
  ProbeAddVerified(*catalog, plans[0]);
  ProbeAddVerified(*catalog, plans[1]);

  // The stopwatch starts at Probe entry: the first stage is the query
  // preparation (canonicalize + hash + encode), and `seconds` is exactly
  // the sum of the reported stages.
  auto probe = catalog->Probe(plans[2]);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  ASSERT_FALSE(probe->stages.empty());
  EXPECT_EQ(probe->stages.front().name, "prepare");
  EXPECT_GT(probe->stages.front().seconds, 0.0);
  double stage_sum = 0.0;
  for (const StageReport& stage : probe->stages) stage_sum += stage.seconds;
  EXPECT_DOUBLE_EQ(probe->seconds, stage_sum);

  auto probe_add = catalog->ProbeAdd(plans[3]);
  ASSERT_TRUE(probe_add.ok());
  ASSERT_FALSE(probe_add->probe.stages.empty());
  EXPECT_EQ(probe_add->probe.stages.front().name, "prepare");
  stage_sum = 0.0;
  for (const StageReport& stage : probe_add->probe.stages) {
    stage_sum += stage.seconds;
  }
  EXPECT_DOUBLE_EQ(probe_add->probe.seconds, stage_sum);
}

TEST_F(ServeTest, MemoCollisionIsDetectedAndNeverServesTheWrongVerdict) {
  serve::VerifierMemo memo;
  // Two distinct plan pairs engineered to share the 64-bit fingerprint key
  // (same primary hashes) while their secondary check hashes differ — the
  // collision the key alone cannot see.
  const serve::CheckedPair first =
      serve::MakeCheckedPair(0x1111, 0xAAAA, 0x2222, 0xBBBB);
  const serve::CheckedPair collided =
      serve::MakeCheckedPair(0x1111, 0xCCCC, 0x2222, 0xDDDD);
  ASSERT_EQ(first.key.lo, collided.key.lo);
  ASSERT_EQ(first.key.hi, collided.key.hi);

  memo.Insert(first.key, first.check, EquivalenceVerdict::kEquivalent);
  const auto hit = memo.Lookup(first.key, first.check);
  EXPECT_FALSE(hit.collision);
  ASSERT_TRUE(hit.verdict.has_value());
  EXPECT_EQ(*hit.verdict, EquivalenceVerdict::kEquivalent);

  // The colliding pair must NOT inherit the cached (unsound for it)
  // kEquivalent: the mismatching check pair demotes the hit to a miss.
  const auto miss = memo.Lookup(collided.key, collided.check);
  EXPECT_TRUE(miss.collision);
  EXPECT_FALSE(miss.verdict.has_value());

  // Re-inserting under the same key overwrites — last verifier outcome
  // wins, and the evicted pair now reads as the collision.
  memo.Insert(collided.key, collided.check,
              EquivalenceVerdict::kNotEquivalent);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(memo.Lookup(first.key, first.check).collision);

  // The checked pair is symmetric in its arguments...
  const serve::CheckedPair swapped =
      serve::MakeCheckedPair(0x2222, 0xDDDD, 0x1111, 0xCCCC);
  EXPECT_TRUE(swapped.check == collided.check);
  // ...including on a primary-hash tie, where the check pair itself is
  // ordered (the invariant geqo_lint's catalog.memo-check enforces).
  const serve::CheckedPair tie = serve::MakeCheckedPair(7, 9, 7, 3);
  EXPECT_EQ(tie.check.lo, 3u);
  EXPECT_EQ(tie.check.hi, 9u);
}

TEST_F(ServeTest, MemoShortCircuitsRepeatProbes) {
  auto catalog = Open();
  const std::vector<PlanPtr> plans = StreamPlans();
  for (size_t i = 0; i < 4; ++i) ProbeAddVerified(*catalog, plans[i]);
  const PlanPtr query = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE l_quantity + 1 > 21",
      System().catalog());

  obs::SetTraceLevel(obs::TraceLevel::kMetrics);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const VerifiedProbe first = ProbeVerified(*catalog, query);
  const obs::MetricsSnapshot mid = obs::MetricsRegistry::Global().Snapshot();
  const VerifiedProbe second = ProbeVerified(*catalog, query);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  obs::SetTraceLevel(obs::TraceLevel::kOff);

  ASSERT_FALSE(first.probe.matches.empty());
  EXPECT_GT(first.verifier_calls, 0u);

  // The repeat probe decided every candidate from the memo: zero verifier
  // calls and nothing for the plane, visible both in the result and in the
  // serve.*/verify.* metrics.
  EXPECT_EQ(second.verifier_calls, 0u);
  EXPECT_EQ(second.probe.pending_classes, 0u);
  EXPECT_GT(second.memo_hits, 0u);
  EXPECT_EQ(second.probe.proven_ids, (std::vector<size_t>{0, 1, 2}));
  EXPECT_GT(mid.Value("serve.verifier_calls") - before.Value("serve.verifier_calls"), 0.0);
  EXPECT_EQ(after.Value("serve.verifier_calls") - mid.Value("serve.verifier_calls"), 0.0);
  EXPECT_EQ(after.Value("verify.pairs_checked") - mid.Value("verify.pairs_checked"), 0.0);
  EXPECT_GT(after.Value("serve.memo_hits") - mid.Value("serve.memo_hits"), 0.0);
}

TEST_F(ServeTest, ClassShortcutProvesOnceAndAdoptsWholeClass) {
  auto catalog = Open();
  const std::vector<PlanPtr> plans = StreamPlans();
  for (size_t i = 0; i < 3; ++i) {  // the three mutually-equivalent rewrites
    ProbeAddVerified(*catalog, plans[i]);
  }
  ASSERT_EQ(catalog->NumClasses(), 1u);

  // A fresh equivalent query must adopt the 3-member class with exactly one
  // pairwise proof (against the representative) — the other members are
  // class shortcuts, not verifier calls. The proof happens on the async
  // plane, which counts the shortcuts it takes.
  const PlanPtr query = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE l_quantity + 2 > 22",
      System().catalog());
  const VerifiedProbe probe = ProbeVerified(*catalog, query);
  EXPECT_EQ(probe.verifier_calls, 1u);
  EXPECT_EQ(probe.class_shortcuts, 2u);
  EXPECT_EQ(probe.probe.class_shortcuts, 0u);

  // The memoized proof now decides the class at probe time.
  const VerifiedProbe again = ProbeVerified(*catalog, query);
  ASSERT_EQ(again.probe.proven_ids, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(again.verifier_calls, 0u);
  EXPECT_EQ(again.probe.class_shortcuts, 2u);
  ASSERT_TRUE(again.probe.representative.has_value());
  EXPECT_EQ(*again.probe.representative, 0u);
}

TEST_F(ServeTest, PlaneResumesClassifyWalkAtTheFirstMiss) {
  // The root's pair is memoized kUnknown (non-linear outputs that are not
  // syntactically identical), the next member's pair is not memoized. The
  // plane must resume at that member, not re-walk the root: the memo hits
  // of probe plus plane add up to the one lookup the sync cascade makes.
  const Catalog& db = System().catalog();
  GeqoOptions pipeline = System().options().pipeline;
  pipeline.vmf.radius = 1e6f;  // wide-open funnel: every pair reaches
  pipeline.emf.threshold = 0.0f;  // the verifier
  auto catalog = Open(pipeline);
  const PlanPtr root = MustParse(
      "SELECT l_quantity * l_discount FROM lineitem WHERE l_quantity > 20",
      db);
  const PlanPtr member = MustParse(
      "SELECT l_quantity * l_discount FROM lineitem WHERE 20 < l_quantity",
      db);
  const PlanPtr query = MustParse(
      "SELECT l_quantity * l_extendedprice FROM lineitem WHERE l_quantity > 20",
      db);

  ProbeAddVerified(*catalog, root);
  const VerifiedProbe primed = ProbeVerified(*catalog, query);
  ASSERT_EQ(primed.verifier_calls, 1u);  // (query, root) -> kUnknown
  ASSERT_EQ(ProbeVerified(*catalog, query).probe.pending_classes, 0u)
      << "the root pair should be memoized kUnknown";
  const VerifiedProbe joined = ProbeAddVerified(*catalog, member);
  ASSERT_EQ(catalog->ClassOf(joined.id), 0u) << "member must join the root";

  const serve::ShardedCatalogStats before = catalog->stats();
  const VerifiedProbe probe = ProbeVerified(*catalog, query);
  const serve::ShardedCatalogStats after = catalog->stats();
  EXPECT_EQ(probe.probe.memo_hits, 1u);  // the root, at probe time
  EXPECT_EQ(probe.probe.pending_classes, 1u);
  EXPECT_EQ(after.async_memo_hits - before.async_memo_hits, 0u);
  EXPECT_EQ(probe.memo_hits, 1u);
  EXPECT_EQ(probe.verifier_calls, 1u);  // the member, on the plane
}

TEST_F(ServeTest, SnapshotRoundTripIsBitIdentical) {
  const std::vector<PlanPtr> plans = StreamPlans();
  const std::vector<PlanPtr> first_half(plans.begin(), plans.begin() + 4);

  // Uninterrupted catalog: full stream.
  auto uninterrupted = Open();
  std::vector<VerifiedProbe> expected;
  for (size_t i = 0; i < 4; ++i) ProbeAddVerified(*uninterrupted, plans[i]);
  std::stringstream snapshot;
  ASSERT_TRUE(uninterrupted->ExportSnapshot(snapshot).ok());
  std::vector<std::vector<size_t>> want_equivalents;
  for (size_t i = 4; i < plans.size(); ++i) {
    expected.push_back(ProbeAddVerified(*uninterrupted, plans[i]));
    want_equivalents.push_back(
        EquivalentsOf(*uninterrupted, expected.back().id));
  }

  // Interrupted catalog: restore the snapshot, replay the remainder.
  ShardedCatalogOptions load_options;
  load_options.verifier_threads = 0;
  auto loaded =
      System().ImportShardedSnapshot(snapshot, first_half, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_shards(), 1u);
  EXPECT_EQ((*loaded)->size(), 4u);
  EXPECT_EQ((*loaded)->NumClasses(), uninterrupted->NumClasses() - 1);
  for (size_t i = 4; i < plans.size(); ++i) {
    const VerifiedProbe result = ProbeAddVerified(**loaded, plans[i]);
    const VerifiedProbe& want = expected[i - 4];
    EXPECT_EQ(result.id, want.id);
    EXPECT_EQ((*loaded)->ClassOf(result.id),
              uninterrupted->ClassOf(want.id));
    EXPECT_EQ(EquivalentsOf(**loaded, result.id), want_equivalents[i - 4]);
    // The same filter survivors, classified the same way.
    ASSERT_EQ(result.probe.matches.size(), want.probe.matches.size());
    for (size_t k = 0; k < want.probe.matches.size(); ++k) {
      EXPECT_EQ(result.probe.matches[k].id, want.probe.matches[k].id);
      EXPECT_EQ(result.probe.matches[k].verdict,
                want.probe.matches[k].verdict);
    }
    EXPECT_EQ(result.probe.proven_ids, want.probe.proven_ids);
    EXPECT_EQ(result.probe.representative, want.probe.representative);
    EXPECT_EQ(result.verifier_calls, want.verifier_calls);
    EXPECT_EQ(result.memo_hits, want.memo_hits);
    EXPECT_EQ(result.class_shortcuts, want.class_shortcuts);
  }

  // After replay, both catalogs serialize to identical bytes.
  std::stringstream bytes_uninterrupted;
  std::stringstream bytes_loaded;
  ASSERT_TRUE(uninterrupted->ExportSnapshot(bytes_uninterrupted).ok());
  ASSERT_TRUE((*loaded)->ExportSnapshot(bytes_loaded).ok());
  EXPECT_EQ(bytes_uninterrupted.str(), bytes_loaded.str());
}

TEST_F(ServeTest, LoadedMemoNeverReProves) {
  const std::vector<PlanPtr> plans = StreamPlans();
  const std::vector<PlanPtr> entries(plans.begin(), plans.begin() + 3);
  auto original = Open();
  for (const PlanPtr& plan : entries) ProbeAddVerified(*original, plan);
  // Probe (without adding) so the verdicts land in the memo, then persist.
  const PlanPtr query = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE l_quantity + 3 > 23",
      System().catalog());
  const VerifiedProbe primed = ProbeVerified(*original, query);
  EXPECT_GT(primed.verifier_calls, 0u);
  std::stringstream snapshot;
  ASSERT_TRUE(original->ExportSnapshot(snapshot).ok());

  auto loaded = ShardedCatalog::ImportSnapshot(
      snapshot, System().ServeComponents(), entries, original->options());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->memo_size(), original->memo_size());

  const VerifiedProbe replay = ProbeVerified(**loaded, query);
  EXPECT_EQ(replay.verifier_calls, 0u);
  EXPECT_GT(replay.memo_hits, 0u);
  EXPECT_EQ(replay.probe.proven_ids, (std::vector<size_t>{0, 1, 2}));
}

TEST_F(ServeTest, LoadRejectsCorruptAndMismatchedSnapshots) {
  const std::vector<PlanPtr> plans = StreamPlans();
  const std::vector<PlanPtr> entries(plans.begin(), plans.begin() + 3);
  auto original = Open();
  for (const PlanPtr& plan : entries) ProbeAddVerified(*original, plan);
  std::stringstream snapshot;
  ASSERT_TRUE(original->ExportSnapshot(snapshot).ok());
  const std::string bytes = snapshot.str();
  const auto import_bytes = [&](const std::string& data,
                                const std::vector<PlanPtr>& with,
                                const Catalog* db = nullptr) {
    std::stringstream stream(data);
    serve::CatalogComponents components = System().ServeComponents();
    if (db != nullptr) components.db_catalog = db;
    return ShardedCatalog::ImportSnapshot(stream, components, with,
                                          original->options());
  };

  // Garbage stream: the whole-payload checksum rejects it before any field
  // is decoded.
  const auto garbage = import_bytes("not a catalog snapshot at all", entries);
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find("checksum mismatch"),
            std::string::npos);

  // Wrong plan count.
  const auto short_plans =
      import_bytes(bytes, {entries.begin(), entries.begin() + 2});
  ASSERT_FALSE(short_plans.ok());
  EXPECT_NE(short_plans.status().message().find("entry count mismatch"),
            std::string::npos);

  // Right count, wrong order: the shard segment's canonical hash check
  // names the entry.
  std::vector<PlanPtr> reordered = {entries[1], entries[0], entries[2]};
  const auto swapped = import_bytes(bytes, reordered);
  ASSERT_FALSE(swapped.ok());
  EXPECT_NE(swapped.status().message().find("does not match"),
            std::string::npos);

  // A different database schema: the segment's fingerprint check fires
  // before any section is decoded.
  Catalog other = MakeTpchCatalog();
  GEQO_CHECK_OK(
      other.AddTable(TableDef("extra", {{"x", ValueType::kInt}})));
  const auto foreign = import_bytes(bytes, entries, &other);
  ASSERT_FALSE(foreign.ok());
  EXPECT_NE(foreign.status().message().find("fingerprint mismatch"),
            std::string::npos);

  // Truncations at several depths all fail loudly.
  for (const double fraction : {0.1, 0.5, 0.95}) {
    const std::string cut =
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction));
    EXPECT_FALSE(import_bytes(cut, entries).ok()) << "fraction " << fraction;
  }

  // Trailing garbage lands inside the checksummed span and is rejected.
  const auto trailing = import_bytes(bytes + "extra", entries);
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);
}

TEST_F(ServeTest, InvalidOptionsPoisonCatalog) {
  GeqoOptions pipeline = System().options().pipeline;
  pipeline.vmf.radius = -1.0f;
  auto catalog = Open(pipeline);
  const PlanPtr plan = StreamPlans()[0];
  EXPECT_FALSE(catalog->Add(plan).ok());
  EXPECT_FALSE(catalog->Probe(plan).ok());
  EXPECT_FALSE(catalog->ProbeAdd(plan).ok());
  std::stringstream sink;
  EXPECT_FALSE(catalog->ExportSnapshot(sink).ok());
}

}  // namespace
}  // namespace geqo
