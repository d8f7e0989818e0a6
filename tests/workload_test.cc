#include <gtest/gtest.h>

#include "exec/database.h"
#include "oracle/row_executor.h"
#include "plan/canonicalize.h"
#include "plan/subexpr.h"
#include "verify/verifier.h"
#include "workload/generator.h"
#include "workload/labeled_data.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

namespace geqo {
namespace {

TEST(SchemasTest, TpchCatalogShape) {
  const Catalog catalog = MakeTpchCatalog();
  EXPECT_EQ(catalog.tables().size(), 8u);
  EXPECT_NE(catalog.FindTable("lineitem"), nullptr);
  EXPECT_GE(catalog.JoinKeysFor("lineitem").size(), 3u);
}

TEST(SchemasTest, TpcdsCatalogShape) {
  const Catalog catalog = MakeTpcdsCatalog();
  EXPECT_EQ(catalog.tables().size(), 12u);
  EXPECT_GE(catalog.JoinKeysFor("store_sales").size(), 5u);
}

TEST(SchemasTest, RandomCatalogIsValid) {
  Rng rng(51);
  const Catalog catalog = MakeRandomCatalog(RandomSchemaOptions(), &rng);
  EXPECT_EQ(catalog.tables().size(), 6u);
  for (const TableDef& table : catalog.tables()) {
    EXPECT_FALSE(table.NumericColumns().empty());
  }
}

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest()
      : catalog_(MakeTpchCatalog()),
        generator_(&catalog_, GeneratorOptions()) {}
  Catalog catalog_;
  QueryGenerator generator_;
};

TEST_F(GeneratorTest, PlansAreWellFormedSpj) {
  Rng rng(52);
  for (int i = 0; i < 50; ++i) {
    const PlanPtr plan = generator_.Generate(&rng);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->kind(), OpKind::kProject);
    const auto flat = FlattenSpj(plan, catalog_);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString() << plan->ToString();
    EXPECT_GE(flat->atoms.size(), 1u);
    EXPECT_LE(flat->atoms.size(), 3u);
  }
}

TEST_F(GeneratorTest, PlansEncodeCleanly) {
  Rng rng(53);
  const EncodingLayout layout = EncodingLayout::FromCatalog(catalog_);
  PlanEncoder encoder(&layout, &catalog_, ValueRange{0, 100});
  for (int i = 0; i < 30; ++i) {
    const auto encoded = encoder.Encode(generator_.Generate(&rng));
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  }
}

TEST_F(GeneratorTest, PlansExecuteOnSyntheticData) {
  Rng rng(54);
  DataGenOptions data_options;
  data_options.default_rows = 100;
  const Database db = Database::Generate(catalog_, data_options);
  RowExecutor executor(&db);
  for (int i = 0; i < 20; ++i) {
    const auto result = executor.Execute(generator_.Generate(&rng));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  Rng rng1(55);
  Rng rng2(55);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(generator_.Generate(&rng1)->Equals(*generator_.Generate(&rng2)));
  }
}

class RewriteTest : public ::testing::Test {
 protected:
  RewriteTest()
      : catalog_(MakeTpchCatalog()),
        generator_(&catalog_, GeneratorOptions()),
        rewriter_(&catalog_),
        verifier_(&catalog_) {}
  Catalog catalog_;
  QueryGenerator generator_;
  Rewriter rewriter_;
  SpesVerifier verifier_;
};

/// Property: every individual rewrite rule preserves verifier equivalence.
TEST_F(RewriteTest, EachRulePreservesVerifierEquivalence) {
  Rng rng(61);
  for (const RewriteRule rule : kAllRewriteRules) {
    for (int trial = 0; trial < 8; ++trial) {
      const PlanPtr base = generator_.Generate(&rng);
      const auto rewritten = rewriter_.Apply(rule, base, &rng);
      ASSERT_TRUE(rewritten.ok()) << RewriteRuleToString(rule);
      const EquivalenceVerdict verdict =
          verifier_.CheckEquivalence(base, *rewritten);
      EXPECT_EQ(verdict, EquivalenceVerdict::kEquivalent)
          << "rule " << RewriteRuleToString(rule) << " broke equivalence:\n"
          << base->ToString() << "\nvs\n"
          << (*rewritten)->ToString();
    }
  }
}

/// Property: rewritten variants return the same bag of rows when executed.
TEST_F(RewriteTest, VariantsProduceIdenticalResults) {
  Rng rng(62);
  DataGenOptions data_options;
  data_options.default_rows = 120;
  const Database db = Database::Generate(catalog_, data_options);
  RowExecutor executor(&db);
  for (int trial = 0; trial < 15; ++trial) {
    const PlanPtr base = generator_.Generate(&rng);
    const auto variants = rewriter_.Variants(base, 2, &rng);
    ASSERT_TRUE(variants.ok());
    const auto base_result = executor.Execute(base);
    ASSERT_TRUE(base_result.ok());
    for (const PlanPtr& variant : *variants) {
      const auto variant_result = executor.Execute(variant);
      ASSERT_TRUE(variant_result.ok());
      EXPECT_TRUE(base_result->BagEquals(*variant_result))
          << "variant changed results:\n"
          << base->ToString() << "\nvs\n"
          << variant->ToString();
    }
  }
}

TEST_F(RewriteTest, RebuildPlanRoundTrips) {
  Rng rng(63);
  for (int trial = 0; trial < 10; ++trial) {
    const PlanPtr base = generator_.Generate(&rng);
    const auto flat = FlattenSpj(base, catalog_);
    ASSERT_TRUE(flat.ok());
    const PlanPtr rebuilt = RebuildPlan(*flat);
    EXPECT_EQ(verifier_.CheckEquivalence(base, rebuilt),
              EquivalenceVerdict::kEquivalent);
  }
}

TEST_F(RewriteTest, CrossTermImpliedMatchesFigure1Pattern) {
  // Hand-check the rule on the paper's example structure.
  Catalog catalog;
  GEQO_CHECK_OK(catalog.AddTable(TableDef(
      "a", {ColumnDef{"joinkey", ValueType::kInt},
            ColumnDef{"val", ValueType::kInt}, ColumnDef{"x", ValueType::kInt}})));
  GEQO_CHECK_OK(catalog.AddTable(TableDef(
      "b", {ColumnDef{"joinkey", ValueType::kInt},
            ColumnDef{"val", ValueType::kInt}, ColumnDef{"y", ValueType::kInt}})));
  // a.val - b.val > 10 and b.val > 10 are present; the rule may add
  // a.val > 20.
  const PlanPtr base = PlanNode::Project(
      {OutputColumn{"x", Expr::Column("a", "x")}},
      PlanNode::Select(
          Comparison{Expr::Column("b", "val"), CompareOp::kGt,
                     Expr::IntLiteral(10)},
          PlanNode::Select(
              Comparison{Expr::Column("a", "val"), CompareOp::kGt,
                         Expr::Binary(ExprKind::kAdd, Expr::Column("b", "val"),
                                      Expr::IntLiteral(10))},
              PlanNode::Join(
                  JoinType::kInner,
                  Comparison{Expr::Column("a", "joinkey"), CompareOp::kEq,
                             Expr::Column("b", "joinkey")},
                  PlanNode::Scan("a", "a"), PlanNode::Scan("b", "b")))));
  Rewriter rewriter(&catalog);
  SpesVerifier verifier(&catalog);
  Rng rng(64);
  const auto rewritten =
      rewriter.Apply(RewriteRule::kAddCrossTermImplied, base, &rng);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_GT(CountPredicates(*rewritten), CountPredicates(base));
  EXPECT_EQ(verifier.CheckEquivalence(base, *rewritten),
            EquivalenceVerdict::kEquivalent);
}

TEST(LabeledDataTest, BalancedAndCorrectlyLabeled) {
  const Catalog catalog = MakeTpchCatalog();
  Rng rng(65);
  LabeledDataOptions options;
  options.num_base_queries = 20;
  options.variants_per_query = 2;
  const auto pairs = BuildLabeledPairs(catalog, options, &rng);
  ASSERT_TRUE(pairs.ok());
  size_t positives = 0;
  for (const LabeledPair& pair : *pairs) positives += pair.equivalent;
  const size_t negatives = pairs->size() - positives;
  EXPECT_GT(positives, 0u);
  EXPECT_GT(negatives, 0u);
  // Roughly balanced (within 2x).
  EXPECT_LT(positives, 2 * negatives + 2);
  EXPECT_LT(negatives, 2 * positives + 2);

  // Sampled labels agree with the verifier.
  SpesVerifier verifier(&catalog);
  size_t label_errors = 0;
  size_t checked = 0;
  for (size_t i = 0; i < pairs->size(); i += 5) {
    const LabeledPair& pair = (*pairs)[i];
    const EquivalenceVerdict verdict =
        verifier.CheckEquivalence(pair.lhs, pair.rhs);
    if (pair.equivalent) {
      EXPECT_EQ(verdict, EquivalenceVerdict::kEquivalent);
    } else if (verdict == EquivalenceVerdict::kEquivalent) {
      ++label_errors;  // the paper tolerates rare false negatives (§5)
    }
    ++checked;
  }
  EXPECT_LE(label_errors, checked / 10);
}

TEST(LabeledDataTest, EncodesToDataset) {
  const Catalog catalog = MakeTpchCatalog();
  Rng rng(66);
  LabeledDataOptions options;
  options.num_base_queries = 10;
  const auto pairs = BuildLabeledPairs(catalog, options, &rng);
  ASSERT_TRUE(pairs.ok());
  const EncodingLayout instance = EncodingLayout::FromCatalog(catalog);
  const EncodingLayout agnostic = EncodingLayout::Agnostic(6, 8);
  size_t skipped = 0;
  const auto dataset = EncodeLabeledPairs(*pairs, catalog, instance, agnostic,
                                          ValueRange{0, 100}, &skipped);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->size() + skipped, pairs->size());
  EXPECT_GT(dataset->size(), 0u);
  for (const EncodedPlan& plan : dataset->lhs) {
    EXPECT_EQ(plan.nodes.cols(), agnostic.node_vector_size());
  }
}

}  // namespace
}  // namespace geqo
