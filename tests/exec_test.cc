#include <gtest/gtest.h>

#include "exec/database.h"
#include "exec/result_cache.h"
#include "oracle/row_executor.h"
#include "test_util.h"

namespace geqo {
namespace {

using testing::MakeFigure1Catalog;
using testing::MustParse;

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : catalog_(MakeFigure1Catalog()) {
    DataGenOptions options;
    options.default_rows = 50;
    options.key_cardinality = 10;  // dense keys: joins produce matches
    options.seed = 999;
    db_ = std::make_unique<Database>(Database::Generate(catalog_, options));
    executor_ = std::make_unique<RowExecutor>(db_.get());
  }

  RowSet Run(std::string_view sql) {
    auto result = executor_->Execute(MustParse(sql, catalog_));
    GEQO_CHECK(result.ok()) << result.status().ToString();
    return *result;
  }

  Catalog catalog_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<RowExecutor> executor_;
};

TEST_F(ExecTest, ScanReturnsAllRows) {
  const RowSet result = Run("SELECT * FROM a");
  EXPECT_EQ(result.num_rows(), 50u);
  EXPECT_EQ(result.num_columns(), 3u);
}

TEST_F(ExecTest, SelectionFilters) {
  const RowSet all = Run("SELECT * FROM a");
  const RowSet filtered = Run("SELECT * FROM a WHERE a.val > 50");
  EXPECT_LT(filtered.num_rows(), all.num_rows());
  size_t expected = 0;
  for (const auto& row : all.rows) {
    if (row[1].AsDouble() > 50) ++expected;  // val is column 1
  }
  EXPECT_EQ(filtered.num_rows(), expected);
}

TEST_F(ExecTest, ProjectionComputesExpressions) {
  const RowSet result = Run("SELECT a.val + 1 AS v1 FROM a WHERE a.val = 7");
  for (const auto& row : result.rows) {
    EXPECT_DOUBLE_EQ(row[0].AsDouble(), 8.0);
  }
}

TEST_F(ExecTest, HashJoinMatchesNestedLoop) {
  // Equality join (hash path) must equal the same join forced through the
  // nested-loop path via an equivalent non-plain predicate.
  const RowSet hash = Run(
      "SELECT a.x, b.y FROM a, b WHERE a.joinkey = b.joinkey");
  const RowSet nested = Run(
      "SELECT a.x, b.y FROM a, b WHERE a.joinkey + 0 = b.joinkey");
  EXPECT_GT(hash.num_rows(), 0u);
  EXPECT_TRUE(hash.BagEquals(nested));
}

TEST_F(ExecTest, CrossJoinCardinality) {
  const RowSet result = Run("SELECT a.x, b.y FROM a, b");
  EXPECT_EQ(result.num_rows(), 50u * 50u);
}

TEST_F(ExecTest, EquivalentQueriesProduceEqualBags) {
  // The Figure 1 pair must produce identical bags on real data.
  const RowSet q1 = Run(
      "SELECT a.x, b.y FROM a, b WHERE a.joinkey = b.joinkey AND "
      "a.val > b.val + 10 AND b.val > 10");
  const RowSet q2 = Run(
      "SELECT a.x, b.y FROM b, a WHERE b.joinkey = a.joinkey AND "
      "b.val + 10 < a.val AND b.val + 10 > 20 AND a.val > 20");
  EXPECT_TRUE(q1.BagEquals(q2));
}

TEST_F(ExecTest, NonEquivalentQueriesDiffer) {
  const RowSet q1 = Run("SELECT a.x FROM a WHERE a.val > 10");
  const RowSet q2 = Run("SELECT a.x FROM a WHERE a.val > 90");
  EXPECT_FALSE(q1.BagEquals(q2));
}

TEST_F(ExecTest, BagEqualityIgnoresOrderButNotMultiplicity) {
  RowSet a;
  a.column_names = {"c"};
  a.rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(2)}};
  RowSet b;
  b.column_names = {"c"};
  b.rows = {{Value::Int(2)}, {Value::Int(2)}, {Value::Int(1)}};
  RowSet c;
  c.column_names = {"c"};
  c.rows = {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}};
  EXPECT_TRUE(a.BagEquals(b));
  EXPECT_FALSE(a.BagEquals(c));
}

TEST_F(ExecTest, StatsPopulated) {
  ExecStats stats;
  auto result = executor_->Execute(
      MustParse("SELECT a.x FROM a WHERE a.val > 50", catalog_), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.rows_scanned, 50u);
  EXPECT_EQ(stats.rows_output, result->num_rows());
  EXPECT_GE(stats.seconds, 0.0);
}

TEST_F(ExecTest, OuterJoinNotSupported) {
  const auto result = executor_->Execute(MustParse(
      "SELECT a.x FROM a LEFT JOIN b ON a.joinkey = b.joinkey", catalog_));
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST(ResultCacheTest, FullBudgetCachesEverything) {
  std::vector<QueryProfile> profiles = {
      {0, 0, 1.0, 100}, {1, 0, 1.0, 100}, {2, 0, 1.0, 100},  // class 0 x3
      {3, 1, 2.0, 50},  {4, 1, 2.0, 50},                     // class 1 x2
      {5, 2, 5.0, 500},                                      // singleton
  };
  ResultCacheSimulator simulator(profiles);
  EXPECT_EQ(simulator.FullMaterializationBytes(), 650u);
  const CacheSimulation full = simulator.Simulate(650);
  EXPECT_DOUBLE_EQ(full.baseline_seconds, 12.0);
  // Saved: class 0 saves 2s, class 1 saves 2s; singleton saves nothing.
  EXPECT_DOUBLE_EQ(full.cached_seconds, 8.0);
  EXPECT_EQ(full.classes_materialized, 2u);
}

TEST(ResultCacheTest, TightBudgetPicksBestPerClass) {
  std::vector<QueryProfile> profiles = {
      {0, 0, 10.0, 100}, {1, 0, 10.0, 100},  // class 0: saves 10s, 100B
      {2, 1, 1.0, 100},  {3, 1, 1.0, 100},   // class 1: saves 1s, 100B
  };
  ResultCacheSimulator simulator(profiles);
  const CacheSimulation tight = simulator.Simulate(100);
  EXPECT_EQ(tight.classes_materialized, 1u);
  EXPECT_DOUBLE_EQ(tight.cached_seconds, 12.0);  // saved the 10s class
}

TEST(ResultCacheTest, ZeroBudgetSavesNothing) {
  std::vector<QueryProfile> profiles = {{0, 0, 1.0, 10}, {1, 0, 1.0, 10}};
  ResultCacheSimulator simulator(profiles);
  const CacheSimulation none = simulator.Simulate(0);
  EXPECT_DOUBLE_EQ(none.cached_seconds, none.baseline_seconds);
  EXPECT_EQ(none.ReductionPercent(), 0.0);
}

TEST(OnlineResultCacheTest, AdmitsOnSecondAccessAndServesHits) {
  OnlineResultCache cache(1000);
  const CacheRequest request{.equivalence_class = 7,
                             .canonical_hash = 0xfeedULL,
                             .execution_seconds = 2.0,
                             .result_bytes = 100};
  // First access: always a miss, never materialized (no reuse evidence).
  CacheAccess first = cache.OnQuery(request);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.admitted);
  EXPECT_DOUBLE_EQ(first.charged_seconds, 2.0);
  EXPECT_EQ(first.equivalence_class, 7u);
  EXPECT_EQ(first.canonical_hash, 0xfeedULL);
  EXPECT_FALSE(cache.Contains(7));
  // Second access demonstrates reuse: executed once more, then admitted.
  CacheAccess second = cache.OnQuery(request);
  EXPECT_FALSE(second.hit);
  EXPECT_TRUE(second.admitted);
  EXPECT_TRUE(cache.Contains(7));
  // Third access is a hit at zero cost.
  CacheAccess third = cache.OnQuery(request);
  EXPECT_TRUE(third.hit);
  EXPECT_DOUBLE_EQ(third.charged_seconds, 0.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().admissions, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().saved_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 1.0 / 3.0);
}

TEST(OnlineResultCacheTest, EvictsLowerValueResidentsUnderPressure) {
  OnlineResultCache cache(100);
  // Class 1 earns residency with a modest value.
  const CacheRequest modest{
      .equivalence_class = 1, .execution_seconds = 1.0, .result_bytes = 100};
  cache.OnQuery(modest);
  cache.OnQuery(modest);
  ASSERT_TRUE(cache.Contains(1));
  // Class 2 is worth far more but needs class 1's bytes: evict and replace.
  const CacheRequest valuable{
      .equivalence_class = 2, .execution_seconds = 10.0, .result_bytes = 100};
  cache.OnQuery(valuable);
  CacheAccess takeover = cache.OnQuery(valuable);
  EXPECT_TRUE(takeover.admitted);
  EXPECT_TRUE(takeover.evicted);
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().used_bytes, 100u);
}

TEST(OnlineResultCacheTest, RejectsLowValueAndOversizedCandidates) {
  OnlineResultCache cache(100);
  const CacheRequest resident{
      .equivalence_class = 1, .execution_seconds = 10.0, .result_bytes = 100};
  cache.OnQuery(resident);
  cache.OnQuery(resident);
  ASSERT_TRUE(cache.Contains(1));
  // A cheaper class must not displace the valuable resident.
  const CacheRequest cheap{
      .equivalence_class = 2, .execution_seconds = 1.0, .result_bytes = 100};
  cache.OnQuery(cheap);
  CacheAccess rejected = cache.OnQuery(cheap);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.stats().rejected, 1u);
  // A result larger than the whole budget can never be admitted.
  const CacheRequest huge{
      .equivalence_class = 3, .execution_seconds = 100.0, .result_bytes = 1000};
  cache.OnQuery(huge);
  CacheAccess oversized = cache.OnQuery(huge);
  EXPECT_FALSE(oversized.admitted);
  EXPECT_EQ(cache.stats().rejected, 2u);
}

TEST(OnlineResultCacheTest, ConvergesToSimulatorChoiceOnRepeatedStream) {
  // Replaying the simulator's profile stream a few times ends with the same
  // class materialized that the offline policy picks under the same budget.
  const std::vector<QueryProfile> profiles = {
      {0, 0, 10.0, 100}, {1, 0, 10.0, 100},  // class 0: saves 10s per round
      {2, 1, 1.0, 100},  {3, 1, 1.0, 100},   // class 1: saves 1s per round
  };
  ResultCacheSimulator simulator(profiles);
  const CacheSimulation offline = simulator.Simulate(100);
  ASSERT_EQ(offline.classes_materialized, 1u);

  OnlineResultCache cache(100);
  for (int round = 0; round < 3; ++round) {
    for (const QueryProfile& profile : profiles) {
      cache.OnQuery(CacheRequest{
          .equivalence_class = profile.equivalence_class,
          .execution_seconds = profile.execution_seconds,
          .result_bytes = profile.result_bytes});
    }
  }
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
}

TEST(DatabaseTest, GenerationRespectsRowCounts) {
  const Catalog catalog = MakeFigure1Catalog();
  DataGenOptions options;
  options.default_rows = 10;
  options.rows_per_table["b"] = 25;
  const Database db = Database::Generate(catalog, options);
  EXPECT_EQ(db.Find("a")->num_rows(), 10u);
  EXPECT_EQ(db.Find("b")->num_rows(), 25u);
  EXPECT_EQ(db.TotalRows(), 35u);
}

TEST(DatabaseTest, JoinKeysShareDomain) {
  const Catalog catalog = MakeFigure1Catalog();
  DataGenOptions options;
  options.default_rows = 200;
  options.key_cardinality = 5;
  const Database db = Database::Generate(catalog, options);
  const TableData* a = db.Find("a");
  for (const int64_t key : const_cast<TableData*>(a)->ints(0)) {
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 5);
  }
}

}  // namespace
}  // namespace geqo
