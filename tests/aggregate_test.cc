#include <gtest/gtest.h>

#include "encode/agnostic.h"
#include "exec/database.h"
#include "oracle/row_executor.h"
#include "pipeline/baselines.h"
#include "test_util.h"
#include "verify/verifier.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

/// \file aggregate_test.cc
/// Tests for the §9.1 extension: GROUP BY / aggregation across the parser,
/// executor, featurization, verifier, rewriter, and baselines.

namespace geqo {
namespace {

using testing::MakeFigure1Catalog;
using testing::MustParse;

class AggregateTest : public ::testing::Test {
 protected:
  AggregateTest() : catalog_(MakeFigure1Catalog()) {
    DataGenOptions options;
    options.default_rows = 60;
    options.key_cardinality = 8;
    options.seed = 0xA66;
    database_ = std::make_unique<Database>(Database::Generate(catalog_, options));
    executor_ = std::make_unique<RowExecutor>(database_.get());
  }

  RowSet Run(std::string_view sql) {
    auto result = executor_->Execute(MustParse(sql, catalog_));
    GEQO_CHECK(result.ok()) << result.status().ToString();
    return *result;
  }

  Catalog catalog_;
  std::unique_ptr<Database> database_;
  std::unique_ptr<RowExecutor> executor_;
};

TEST_F(AggregateTest, ParserBuildsAggregateNode) {
  const PlanPtr plan = MustParse(
      "SELECT a.joinkey, COUNT(*) AS n, SUM(a.val) AS total FROM a "
      "GROUP BY a.joinkey",
      catalog_);
  ASSERT_EQ(plan->kind(), OpKind::kAggregate);
  EXPECT_EQ(plan->group_by().size(), 1u);
  ASSERT_EQ(plan->aggregates().size(), 2u);
  EXPECT_EQ(plan->aggregates()[0].fn, AggregateFn::kCount);
  EXPECT_EQ(plan->aggregates()[0].argument, nullptr);
  EXPECT_EQ(plan->aggregates()[1].fn, AggregateFn::kSum);
  EXPECT_EQ(plan->aggregates()[1].name, "total");
}

TEST_F(AggregateTest, ParserRejectsNonGroupedSelectItem) {
  EXPECT_TRUE(ParseSql("SELECT a.val, COUNT(*) FROM a GROUP BY a.joinkey",
                       catalog_)
                  .status()
                  .IsParseError());
}

TEST_F(AggregateTest, ParserRejectsAggregateBeforePlainItem) {
  EXPECT_TRUE(ParseSql("SELECT COUNT(*), a.joinkey FROM a GROUP BY a.joinkey",
                       catalog_)
                  .status()
                  .IsParseError());
}

TEST_F(AggregateTest, GlobalAggregateWithoutGroupBy) {
  const RowSet result = Run("SELECT COUNT(*) AS n FROM a");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), 60);
}

TEST_F(AggregateTest, GroupedCountsSumToTotal) {
  const RowSet grouped =
      Run("SELECT a.joinkey, COUNT(*) AS n FROM a GROUP BY a.joinkey");
  EXPECT_LE(grouped.num_rows(), 8u);  // key cardinality
  int64_t total = 0;
  for (const auto& row : grouped.rows) total += row[1].AsInt();
  EXPECT_EQ(total, 60);
}

TEST_F(AggregateTest, SumMinMaxAvgAgree) {
  const RowSet result = Run(
      "SELECT SUM(a.val) AS s, MIN(a.val) AS lo, MAX(a.val) AS hi, "
      "AVG(a.val) AS mean, COUNT(a.val) AS n FROM a");
  ASSERT_EQ(result.num_rows(), 1u);
  const double sum = result.rows[0][0].AsDouble();
  const double lo = result.rows[0][1].AsDouble();
  const double hi = result.rows[0][2].AsDouble();
  const double mean = result.rows[0][3].AsDouble();
  const int64_t n = result.rows[0][4].AsInt();
  EXPECT_EQ(n, 60);
  EXPECT_LE(lo, mean);
  EXPECT_LE(mean, hi);
  EXPECT_NEAR(mean, sum / static_cast<double>(n), 1e-9);
}

TEST_F(AggregateTest, AggregateOverJoinExecutes) {
  const RowSet result = Run(
      "SELECT a.joinkey, COUNT(*) AS n FROM a, b "
      "WHERE a.joinkey = b.joinkey GROUP BY a.joinkey");
  EXPECT_GT(result.num_rows(), 0u);
  EXPECT_EQ(result.num_columns(), 2u);
}

TEST_F(AggregateTest, VerifierProvesAggregateOverRewrittenChild) {
  SpesVerifier verifier(&catalog_);
  const PlanPtr q1 = MustParse(
      "SELECT b.joinkey, SUM(a.val) AS s FROM a, b "
      "WHERE a.joinkey = b.joinkey AND a.val > b.val + 10 AND b.val > 10 "
      "GROUP BY b.joinkey",
      catalog_);
  const PlanPtr q2 = MustParse(
      "SELECT b.joinkey, SUM(a.val) AS s FROM b, a "
      "WHERE b.joinkey = a.joinkey AND b.val + 10 < a.val "
      "AND b.val + 10 > 20 AND a.val > 20 GROUP BY b.joinkey",
      catalog_);
  EXPECT_EQ(verifier.CheckEquivalence(q1, q2),
            EquivalenceVerdict::kEquivalent);
}

TEST_F(AggregateTest, VerifierDistinguishesAggregateSpecs) {
  SpesVerifier verifier(&catalog_);
  const PlanPtr sum = MustParse(
      "SELECT a.joinkey, SUM(a.val) AS s FROM a GROUP BY a.joinkey", catalog_);
  const PlanPtr avg = MustParse(
      "SELECT a.joinkey, AVG(a.val) AS s FROM a GROUP BY a.joinkey", catalog_);
  const PlanPtr other_key = MustParse(
      "SELECT a.x, SUM(a.val) AS s FROM a GROUP BY a.x", catalog_);
  EXPECT_NE(verifier.CheckEquivalence(sum, avg),
            EquivalenceVerdict::kEquivalent);
  EXPECT_NE(verifier.CheckEquivalence(sum, other_key),
            EquivalenceVerdict::kEquivalent);
  // Aggregate vs plain SPJ stays conservative.
  const PlanPtr plain = MustParse("SELECT a.joinkey, a.val FROM a", catalog_);
  EXPECT_EQ(verifier.CheckEquivalence(sum, plain),
            EquivalenceVerdict::kUnknown);
}

TEST_F(AggregateTest, RewriteVariantsOfAggregatesStayEquivalent) {
  const Catalog tpch = MakeTpchCatalog();
  GeneratorOptions options;
  options.aggregate_probability = 1.0;
  QueryGenerator generator(&tpch, options);
  Rewriter rewriter(&tpch);
  SpesVerifier verifier(&tpch);
  Rng rng(0xA67);
  for (int trial = 0; trial < 10; ++trial) {
    const PlanPtr base = generator.Generate(&rng);
    ASSERT_EQ(base->kind(), OpKind::kAggregate);
    const auto variant = rewriter.RewriteOnce(base, &rng);
    ASSERT_TRUE(variant.ok());
    EXPECT_EQ(verifier.CheckEquivalence(base, *variant),
              EquivalenceVerdict::kEquivalent)
        << base->ToString() << "\nvs\n"
        << (*variant)->ToString();
  }
}

TEST_F(AggregateTest, RewriteVariantsProduceIdenticalResults) {
  const Catalog tpch = MakeTpchCatalog();
  DataGenOptions data_options;
  data_options.default_rows = 100;
  const Database db = Database::Generate(tpch, data_options);
  RowExecutor executor(&db);
  GeneratorOptions options;
  options.aggregate_probability = 1.0;
  QueryGenerator generator(&tpch, options);
  Rewriter rewriter(&tpch);
  Rng rng(0xA68);
  for (int trial = 0; trial < 8; ++trial) {
    const PlanPtr base = generator.Generate(&rng);
    const auto variant = rewriter.RewriteOnce(base, &rng);
    ASSERT_TRUE(variant.ok());
    const auto result_base = executor.Execute(base);
    const auto result_variant = executor.Execute(*variant);
    ASSERT_TRUE(result_base.ok() && result_variant.ok());
    EXPECT_TRUE(result_base->BagEquals(*result_variant));
  }
}

TEST_F(AggregateTest, EncodingMarksAggregateSegments) {
  const EncodingLayout layout = EncodingLayout::FromCatalog(catalog_);
  PlanEncoder encoder(&layout, &catalog_, ValueRange{0, 100});
  const PlanPtr plan = MustParse(
      "SELECT a.joinkey, SUM(a.val) AS s FROM a GROUP BY a.joinkey", catalog_);
  const auto encoded = encoder.Encode(plan);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const float* root = encoded->nodes.Row(0);
  // a.joinkey is sorted column 0; a.val is column 1.
  EXPECT_EQ(root[layout.group_by_offset() + 0], 1.0f);
  EXPECT_EQ(root[layout.agg_fn_offset() +
                 static_cast<size_t>(AggregateFn::kSum)],
            1.0f);
  EXPECT_EQ(root[layout.agg_col_offset() + 1], 1.0f);
}

TEST_F(AggregateTest, AgnosticPathsAgreeOnAggregates) {
  const EncodingLayout instance_layout = EncodingLayout::FromCatalog(catalog_);
  const EncodingLayout agnostic_layout = EncodingLayout::Agnostic(4, 6);
  PlanEncoder encoder(&instance_layout, &catalog_, ValueRange{0, 100});
  const PlanPtr q1 = MustParse(
      "SELECT b.joinkey, AVG(a.x) AS m FROM a, b WHERE a.joinkey = b.joinkey "
      "GROUP BY b.joinkey",
      catalog_);
  const PlanPtr q2 = MustParse(
      "SELECT b.joinkey, AVG(a.x) AS m FROM b, a WHERE b.joinkey = a.joinkey "
      "GROUP BY b.joinkey",
      catalog_);
  const auto path_a = EncodePairAgnostic(q1, q2, agnostic_layout, catalog_,
                                         ValueRange{0, 100});
  ASSERT_TRUE(path_a.ok()) << path_a.status().ToString();
  const auto i1 = encoder.Encode(q1);
  const auto i2 = encoder.Encode(q2);
  ASSERT_TRUE(i1.ok() && i2.ok());
  const auto converter = AgnosticConverter::Create(
      &instance_layout, &agnostic_layout, {&*i1, &*i2});
  ASSERT_TRUE(converter.ok());
  const EncodedPlan b1 = converter->Convert(*i1);
  for (size_t i = 0; i < b1.nodes.size(); ++i) {
    ASSERT_EQ(path_a->first.nodes.values()[i], b1.nodes.values()[i]) << i;
  }
}

TEST_F(AggregateTest, BaselinesHandleAggregates) {
  // Join commutation under an aggregate: signature-equal; different
  // aggregate function: signature-different.
  const PlanPtr q1 = MustParse(
      "SELECT b.joinkey, SUM(a.val) AS s FROM a, b "
      "WHERE a.joinkey = b.joinkey GROUP BY b.joinkey",
      catalog_);
  const PlanPtr q2 = MustParse(
      "SELECT b.joinkey, SUM(a.val) AS s FROM b, a "
      "WHERE b.joinkey = a.joinkey GROUP BY b.joinkey",
      catalog_);
  const PlanPtr q3 = MustParse(
      "SELECT b.joinkey, MAX(a.val) AS s FROM a, b "
      "WHERE a.joinkey = b.joinkey GROUP BY b.joinkey",
      catalog_);
  EXPECT_EQ(*PlanSignature(q1, catalog_), *PlanSignature(q2, catalog_));
  EXPECT_NE(*PlanSignature(q1, catalog_), *PlanSignature(q3, catalog_));
  EXPECT_EQ(*OptimizerNormalForm(q1, catalog_),
            *OptimizerNormalForm(q2, catalog_));
  EXPECT_NE(*OptimizerNormalForm(q1, catalog_),
            *OptimizerNormalForm(q3, catalog_));
}

TEST_F(AggregateTest, SchemaFilterSeesAggregateArity) {
  const PlanPtr narrow = MustParse(
      "SELECT a.joinkey, COUNT(*) AS n FROM a GROUP BY a.joinkey", catalog_);
  const auto arity = narrow->NumOutputColumns(catalog_);
  ASSERT_TRUE(arity.ok());
  EXPECT_EQ(*arity, 2u);
}

}  // namespace
}  // namespace geqo
