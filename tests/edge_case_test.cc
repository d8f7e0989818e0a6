#include <gtest/gtest.h>

#include "exec/database.h"
#include "oracle/row_executor.h"
#include "plan/subexpr.h"
#include "test_util.h"
#include "verify/verifier.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

/// \file edge_case_test.cc
/// Edge-case and failure-injection tests across modules: verifier resource
/// caps, degenerate plans, cross-join fallbacks, and value semantics.

namespace geqo {
namespace {

using testing::MakeFigure1Catalog;
using testing::MustParse;

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_TRUE(Value::Int(3) == Value::Double(3.0));
  EXPECT_TRUE(Value::Int(3) < Value::Double(3.5));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, StringOrderingAndHash) {
  EXPECT_TRUE(Value::String("abc") < Value::String("abd"));
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_NE(Value::String("x").Hash(), Value::String("y").Hash());
}

TEST(VerifierLimitsTest, BijectionCapYieldsUnknown) {
  // A 5-way self join has 5! = 120 alias bijections; capping at 1 forces the
  // verifier to give up with Unknown instead of a wrong NotEquivalent.
  Catalog catalog = MakeFigure1Catalog();
  VerifierOptions options;
  options.max_bijections = 1;
  SpesVerifier verifier(&catalog, options);

  // Self-join pair whose only passing bijection is non-identity.
  const PlanPtr q1 = MustParse(
      "SELECT t1.x FROM a t1, a t2 WHERE t1.joinkey = t2.joinkey AND "
      "t1.val > 3",
      catalog);
  const PlanPtr q2 = MustParse(
      "SELECT t2.x FROM a t1, a t2 WHERE t2.joinkey = t1.joinkey AND "
      "t2.val > 3",
      catalog);
  const EquivalenceVerdict verdict = verifier.CheckEquivalence(q1, q2);
  // With the cap the verifier may abandon the search; it must never claim
  // NotEquivalent for this truly-equivalent pair.
  EXPECT_NE(verdict, EquivalenceVerdict::kNotEquivalent);
}

TEST(VerifierLimitsTest, StatsCountUnknowns) {
  Catalog catalog = MakeFigure1Catalog();
  SpesVerifier verifier(&catalog);
  const PlanPtr nonlinear = MustParse(
      "SELECT a.x FROM a WHERE a.val * 2 > 6", catalog);
  const PlanPtr linear = MustParse(
      "SELECT a.x FROM a WHERE a.val > 3", catalog);
  EXPECT_EQ(verifier.CheckEquivalence(nonlinear, linear),
            EquivalenceVerdict::kUnknown);
  EXPECT_EQ(verifier.stats().unknown_results, 1u);
}

TEST(RebuildPlanTest, DisconnectedJoinGraphFallsBackToCrossJoin) {
  // Two atoms with no connecting predicate must still rebuild (cross join
  // with the constant-true predicate), preserving semantics.
  Catalog catalog = MakeFigure1Catalog();
  FlatSpj flat;
  flat.atoms = {TableAtom{"a", "a"}, TableAtom{"b", "b"}};
  flat.predicates = {
      Comparison{Expr::Column("a", "val"), CompareOp::kGt, Expr::IntLiteral(5)}};
  flat.has_root_project = false;
  const PlanPtr rebuilt = RebuildPlan(flat);
  ASSERT_NE(rebuilt, nullptr);

  DataGenOptions options;
  options.default_rows = 20;
  const Database db = Database::Generate(catalog, options);
  RowExecutor executor(&db);
  const auto rows = executor.Execute(rebuilt);
  ASSERT_TRUE(rows.ok());
  // Selection applies on top of the 20 x 20 cross product.
  EXPECT_LE(rows->num_rows(), 400u);
}

TEST(RebuildPlanTest, AvoidsCrossJoinWhenPredicateExists) {
  // Atom order (b, a) with an a-b join predicate: the greedy rebuild must
  // wire the join through the predicate rather than cross-joining.
  FlatSpj flat;
  flat.atoms = {TableAtom{"b", "b"}, TableAtom{"a", "a"}};
  flat.predicates = {Comparison{Expr::Column("a", "joinkey"), CompareOp::kEq,
                                Expr::Column("b", "joinkey")}};
  const PlanPtr rebuilt = RebuildPlan(flat);
  // Find the join node: its predicate must not be the constant-true one.
  const PlanNode* node = rebuilt.get();
  while (node->kind() != OpKind::kJoin) node = node->child(0).get();
  EXPECT_FALSE(node->predicate().lhs->is_literal());
}

TEST(ExecutorEdgeTest, EmptySelectionYieldsEmptyAggregates) {
  Catalog catalog = MakeFigure1Catalog();
  DataGenOptions options;
  options.default_rows = 30;
  const Database db = Database::Generate(catalog, options);
  RowExecutor executor(&db);
  // Infeasible predicate: zero input rows, zero output groups.
  const auto rows = executor.Execute(MustParse(
      "SELECT a.joinkey, COUNT(*) AS n FROM a WHERE a.val > 5 AND a.val < 3 "
      "GROUP BY a.joinkey",
      catalog));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 0u);
}

TEST(ExecutorEdgeTest, DivisionByZeroIsAnError) {
  Catalog catalog = MakeFigure1Catalog();
  DataGenOptions options;
  options.default_rows = 5;
  const Database db = Database::Generate(catalog, options);
  RowExecutor executor(&db);
  const auto rows = executor.Execute(
      MustParse("SELECT a.x / 0 AS boom FROM a", catalog));
  EXPECT_FALSE(rows.ok());
}

TEST(ExecutorEdgeTest, UnknownTableIsAnError) {
  Catalog catalog = MakeFigure1Catalog();
  DataGenOptions options;
  options.default_rows = 5;
  const Database db = Database::Generate(catalog, options);
  RowExecutor executor(&db);
  // Build a plan referencing a table the database does not hold.
  const auto rows = executor.Execute(PlanNode::Scan("ghost", "g"));
  EXPECT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsNotFound());
}

TEST(CatalogEdgeTest, RejectsBadDefinitions) {
  Catalog catalog;
  EXPECT_FALSE(catalog.AddTable(TableDef("empty", {})).ok());
  GEQO_CHECK_OK(catalog.AddTable(
      TableDef("t", {ColumnDef{"c", ValueType::kInt}})));
  EXPECT_FALSE(catalog.AddTable(
      TableDef("t", {ColumnDef{"c", ValueType::kInt}})).ok());  // duplicate
  EXPECT_FALSE(catalog.AddJoinKey({"t", "c", "nope", "c"}).ok());
  EXPECT_FALSE(catalog.AddJoinKey({"t", "nope", "t", "c"}).ok());
}

TEST(HashEdgeTest, UnorderedCombineIsAssociativeAndCommutative) {
  const uint64_t seed = 42;
  uint64_t acc1 = seed;
  for (const uint64_t v : {7ull, 11ull, 13ull}) {
    acc1 = HashCombineUnordered(acc1, v);
  }
  uint64_t acc2 = seed;
  for (const uint64_t v : {13ull, 7ull, 11ull}) {
    acc2 = HashCombineUnordered(acc2, v);
  }
  EXPECT_EQ(acc1, acc2);
}

TEST(SubexpressionEdgeTest, AggregatePlansEnumerateChildren) {
  Catalog catalog = MakeFigure1Catalog();
  const PlanPtr plan = MustParse(
      "SELECT a.joinkey, COUNT(*) AS n FROM a WHERE a.val > 3 "
      "GROUP BY a.joinkey",
      catalog);
  // Aggregate -> Select -> Scan: 3 subexpressions.
  EXPECT_EQ(EnumerateSubexpressions(plan).size(), 3u);
}

}  // namespace
}  // namespace geqo
