#include <gtest/gtest.h>

#include "ann/hnsw.h"
#include "encode/agnostic.h"
#include "exec/database.h"
#include "oracle/row_executor.h"
#include "plan/subexpr.h"
#include "pipeline/baselines.h"
#include "smt/solver.h"
#include "test_util.h"
#include "verify/verifier.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

/// \file property_test.cc
/// Parameterized property tests over randomized inputs (seed-swept with
/// TEST_P), checking cross-module invariants:
///   - the SMT solver agrees with construction (satisfiable-by-construction
///     systems are SAT; adding a violated constraint makes them UNSAT);
///   - the verifier is sound w.r.t. actual execution (Equivalent implies
///     equal bags on a concrete database; differing bags imply not
///     Equivalent);
///   - rewrite variants keep signatures of *some* tier (verifier) equal;
///   - the baselines are sound (equal normal forms imply verifier-provable
///     equivalence or unknown);
///   - HNSW radius recall holds across dimensions.

namespace geqo {
namespace {

// ---------------------------------------------------------------------------
// SMT solver properties.
// ---------------------------------------------------------------------------

class SmtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtPropertyTest, ConstructedSatisfiableSystemsAreSat) {
  Rng rng(GetParam());
  // Assign concrete values to variables, then emit only constraints those
  // values satisfy: the solver must answer SAT.
  smt::DiffLogicSolver solver;
  const size_t num_vars = 2 + rng.Uniform(5);
  std::vector<smt::VarId> vars = {smt::kZeroVar};
  std::vector<double> values = {0.0};
  for (size_t v = 0; v < num_vars; ++v) {
    vars.push_back(solver.NewVariable());
    values.push_back(static_cast<double>(rng.UniformInt(-50, 50)));
  }
  const size_t num_constraints = 3 + rng.Uniform(12);
  for (size_t c = 0; c < num_constraints; ++c) {
    const size_t x = rng.Uniform(vars.size());
    size_t y = rng.Uniform(vars.size());
    if (x == y) y = (y + 1) % vars.size();
    const double difference = values[x] - values[y];
    // Pick a bound the assignment satisfies: difference <= bound.
    const double slack = static_cast<double>(rng.UniformInt(0, 20));
    const bool strict = rng.Bernoulli(0.4);
    const double bound = difference + slack + (strict ? 1.0 : 0.0);
    solver.AddUnit({solver.AddAtom({vars[x], vars[y], bound, strict}), true});
  }
  EXPECT_EQ(solver.Solve(), smt::Verdict::kSat);
}

TEST_P(SmtPropertyTest, ViolatedConstraintMakesConstructedSystemUnsat) {
  Rng rng(GetParam() ^ 0xdead);
  smt::DiffLogicSolver solver;
  const smt::VarId x = solver.NewVariable();
  const smt::VarId y = solver.NewVariable();
  const double vx = static_cast<double>(rng.UniformInt(-20, 20));
  const double vy = static_cast<double>(rng.UniformInt(-20, 20));
  // Pin x and y to their values via equalities against the zero variable.
  solver.AddUnit({solver.AddAtom({x, smt::kZeroVar, vx, false}), true});
  solver.AddUnit({solver.AddAtom({smt::kZeroVar, x, -vx, false}), true});
  solver.AddUnit({solver.AddAtom({y, smt::kZeroVar, vy, false}), true});
  solver.AddUnit({solver.AddAtom({smt::kZeroVar, y, -vy, false}), true});
  // Now demand x - y < (x - y): violated by construction.
  solver.AddUnit({solver.AddAtom({x, y, vx - vy, true}), true});
  EXPECT_EQ(solver.Solve(), smt::Verdict::kUnsat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// Verifier-vs-execution soundness.
// ---------------------------------------------------------------------------

class VerifierSoundnessTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  VerifierSoundnessTest()
      : catalog_(MakeTpchCatalog()), verifier_(&catalog_) {
    DataGenOptions options;
    options.default_rows = 80;
    options.key_cardinality = 12;
    options.seed = 0xDB + GetParam();
    database_ = std::make_unique<Database>(Database::Generate(catalog_, options));
  }

  Catalog catalog_;
  SpesVerifier verifier_;
  std::unique_ptr<Database> database_;
};

TEST_P(VerifierSoundnessTest, EquivalentVerdictImpliesEqualBags) {
  Rng rng(GetParam() * 7919);
  QueryGenerator generator(&catalog_, GeneratorOptions());
  Rewriter rewriter(&catalog_);
  RowExecutor executor(database_.get());

  // Mix of rewrite pairs (likely equivalent) and random pairs (likely not).
  for (int trial = 0; trial < 6; ++trial) {
    const PlanPtr a = generator.Generate(&rng);
    const PlanPtr b = trial % 2 == 0 ? *rewriter.RewriteOnce(a, &rng)
                                     : generator.Generate(&rng);
    const EquivalenceVerdict verdict = verifier_.CheckEquivalence(a, b);
    const auto result_a = executor.Execute(a);
    const auto result_b = executor.Execute(b);
    ASSERT_TRUE(result_a.ok() && result_b.ok());
    if (verdict == EquivalenceVerdict::kEquivalent) {
      EXPECT_TRUE(result_a->BagEquals(*result_b))
          << "verifier said Equivalent but execution differs:\n"
          << a->ToString() << "\nvs\n"
          << b->ToString();
    }
    if (!result_a->BagEquals(*result_b)) {
      EXPECT_NE(verdict, EquivalenceVerdict::kEquivalent);
    }
  }
}

TEST_P(VerifierSoundnessTest, BaselinesAreSoundAgainstVerifier) {
  Rng rng(GetParam() * 104729);
  QueryGenerator generator(&catalog_, GeneratorOptions());
  Rewriter rewriter(&catalog_);
  for (int trial = 0; trial < 5; ++trial) {
    const PlanPtr a = generator.Generate(&rng);
    const PlanPtr b = trial % 2 == 0 ? *rewriter.RewriteOnce(a, &rng)
                                     : generator.Generate(&rng);
    const auto signature_a = PlanSignature(a, catalog_);
    const auto signature_b = PlanSignature(b, catalog_);
    const auto optimizer_a = OptimizerNormalForm(a, catalog_);
    const auto optimizer_b = OptimizerNormalForm(b, catalog_);
    ASSERT_TRUE(signature_a.ok() && signature_b.ok());
    ASSERT_TRUE(optimizer_a.ok() && optimizer_b.ok());
    // Both baselines claim equivalence only when it truly holds.
    if (*signature_a == *signature_b || *optimizer_a == *optimizer_b) {
      EXPECT_EQ(verifier_.CheckEquivalence(a, b),
                EquivalenceVerdict::kEquivalent)
          << a->ToString() << "\nvs\n"
          << b->ToString();
    }
  }
}

TEST_P(VerifierSoundnessTest, SubexpressionsOfRewritesStayConsistent) {
  // Every subexpression of a plan is executable, and enumeration of a
  // workload dedupes: sanity over random inputs.
  Rng rng(GetParam() * 31337);
  QueryGenerator generator(&catalog_, GeneratorOptions());
  const std::vector<PlanPtr> queries = generator.GenerateMany(4, &rng);
  const std::vector<PlanPtr> subexpressions =
      EnumerateWorkloadSubexpressions(queries);
  RowExecutor executor(database_.get());
  for (const PlanPtr& subexpression : subexpressions) {
    EXPECT_TRUE(executor.Execute(subexpression).ok());
  }
  // Dedupe property: no two enumerated subexpressions are structurally equal.
  for (size_t i = 0; i < subexpressions.size(); ++i) {
    for (size_t j = i + 1; j < subexpressions.size(); ++j) {
      EXPECT_FALSE(subexpressions[i]->Equals(*subexpressions[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierSoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// HNSW recall across dimensions.
// ---------------------------------------------------------------------------

class HnswRecallTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HnswRecallTest, RadiusRecallAcrossDimensions) {
  const size_t dim = GetParam();
  Rng rng(0x9e37 + dim);
  ann::HnswOptions options;
  options.ef_search = 96;
  ann::HnswIndex index(dim, options);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 300; ++i) {
    std::vector<float> point(dim);
    for (float& v : point) v = static_cast<float>(rng.NextGaussian());
    index.Add(point);
    points.push_back(std::move(point));
  }
  size_t found = 0;
  size_t expected = 0;
  const float radius = static_cast<float>(std::sqrt(dim)) * 0.8f;
  for (size_t q = 0; q < points.size(); q += 23) {
    const auto exact = index.ExactRadius(points[q].data(), radius);
    const auto approx = index.SearchRadius(points[q].data(), radius, 96);
    expected += exact.size();
    for (const ann::Neighbor& hit : exact) {
      for (const ann::Neighbor& candidate : approx) {
        if (candidate.id == hit.id) {
          ++found;
          break;
        }
      }
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(expected), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Dims, HnswRecallTest,
                         ::testing::Values(4, 16, 64, 128));

// ---------------------------------------------------------------------------
// Encoding invariants across catalogs.
// ---------------------------------------------------------------------------

class EncodingInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingInvariantTest, PathAEqualsPathBOnRandomPairs) {
  const Catalog catalog = MakeTpcdsCatalog();
  const EncodingLayout instance_layout = EncodingLayout::FromCatalog(catalog);
  const EncodingLayout agnostic_layout = EncodingLayout::Agnostic(6, 8);
  Rng rng(GetParam() * 65537);
  QueryGenerator generator(&catalog, GeneratorOptions());
  Rewriter rewriter(&catalog);
  PlanEncoder encoder(&instance_layout, &catalog, ValueRange{0, 100});

  for (int trial = 0; trial < 5; ++trial) {
    const PlanPtr a = generator.Generate(&rng);
    const PlanPtr b = trial % 2 == 0 ? *rewriter.RewriteOnce(a, &rng)
                                     : generator.Generate(&rng);
    const auto path_a =
        EncodePairAgnostic(a, b, agnostic_layout, catalog, ValueRange{0, 100});
    const auto ia = encoder.Encode(a);
    const auto ib = encoder.Encode(b);
    ASSERT_TRUE(ia.ok() && ib.ok());
    const auto converter = AgnosticConverter::Create(
        &instance_layout, &agnostic_layout, {&*ia, &*ib});
    if (!path_a.ok() || !converter.ok()) {
      // Capacity overflow must be reported by both paths consistently.
      EXPECT_EQ(path_a.ok(), converter.ok());
      continue;
    }
    const EncodedPlan ba = converter->Convert(*ia);
    const EncodedPlan bb = converter->Convert(*ib);
    ASSERT_EQ(path_a->first.nodes.size(), ba.nodes.size());
    for (size_t k = 0; k < ba.nodes.size(); ++k) {
      ASSERT_EQ(path_a->first.nodes.values()[k], ba.nodes.values()[k]);
    }
    for (size_t k = 0; k < bb.nodes.size(); ++k) {
      ASSERT_EQ(path_a->second.nodes.values()[k], bb.nodes.values()[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingInvariantTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace geqo
