/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the performance-sensitive
/// primitives:
///   - instance encoding of a plan (§4.1);
///   - db-agnostic encoding, path A (symbolize + encode) vs path B (the
///     fast converter, §4.2.1) — the paper measures path B ~1.8x faster;
///   - HNSW insertion and radius search (§2.2.1);
///   - DPLL(T) satisfiability queries (the verifier's inner loop);
///   - a full verifier pair check;
///   - the EMF forward pass;
///   - the blocked MatMul kernel across sizes;
///   - thread-scaling of batched EMF scoring and the end-to-end pipeline
///     (the tentpole speedup: run with --benchmark_filter=Threads and
///     compare the per-Arg wall times).

#include <benchmark/benchmark.h>

#include "ann/hnsw.h"
#include "common/thread_pool.h"
#include "encode/agnostic.h"
#include "filters/emf_filter.h"
#include "ml/emf_model.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "pipeline/baselines.h"
#include "pipeline/geqo.h"
#include "smt/solver.h"
#include "tensor/tensor.h"
#include "verify/verifier.h"
#include "workload/generator.h"
#include "workload/labeled_data.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

namespace geqo {
namespace {

/// Shared fixtures, built once.
struct Fixture {
  Catalog catalog = MakeTpchCatalog();
  EncodingLayout instance_layout = EncodingLayout::FromCatalog(catalog);
  EncodingLayout agnostic_layout = EncodingLayout::Agnostic(6, 8);
  PlanPtr q1;
  PlanPtr q2;
  EncodedPlan e1;
  EncodedPlan e2;

  Fixture() {
    Rng rng(0x314159);
    QueryGenerator generator(&catalog, GeneratorOptions());
    q1 = generator.Generate(&rng);
    Rewriter rewriter(&catalog);
    q2 = *rewriter.RewriteOnce(q1, &rng);
    PlanEncoder encoder(&instance_layout, &catalog, ValueRange{0, 100});
    e1 = *encoder.Encode(q1);
    e2 = *encoder.Encode(q2);
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

void BM_InstanceEncode(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  PlanEncoder encoder(&fixture.instance_layout, &fixture.catalog,
                      ValueRange{0, 100});
  for (auto _ : state) {
    auto encoded = encoder.Encode(fixture.q1);
    benchmark::DoNotOptimize(encoded);
  }
}
BENCHMARK(BM_InstanceEncode);

void BM_AgnosticPathA_SymbolizeAndEncode(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto pair = EncodePairAgnostic(fixture.q1, fixture.q2,
                                   fixture.agnostic_layout, fixture.catalog,
                                   ValueRange{0, 100});
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(BM_AgnosticPathA_SymbolizeAndEncode);

void BM_AgnosticPathB_FastConverter(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto converter =
        AgnosticConverter::Create(&fixture.instance_layout,
                                  &fixture.agnostic_layout,
                                  {&fixture.e1, &fixture.e2});
    EncodedPlan a = converter->Convert(fixture.e1);
    EncodedPlan b = converter->Convert(fixture.e2);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_AgnosticPathB_FastConverter);

void BM_HnswInsert(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 2000; ++i) {
    std::vector<float> point(64);
    for (float& v : point) v = static_cast<float>(rng.NextGaussian());
    points.push_back(std::move(point));
  }
  size_t next = 0;
  ann::HnswIndex index(64);
  for (auto _ : state) {
    index.Add(points[next % points.size()]);
    ++next;
  }
}
BENCHMARK(BM_HnswInsert);

void BM_HnswRadiusSearch(benchmark::State& state) {
  Rng rng(8);
  ann::HnswIndex index(64);
  std::vector<float> query(64);
  for (int i = 0; i < 5000; ++i) {
    std::vector<float> point(64);
    for (float& v : point) v = static_cast<float>(rng.NextGaussian());
    index.Add(point);
  }
  for (auto _ : state) {
    auto hits = index.SearchRadius(query.data(), 6.0f);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_HnswRadiusSearch);

void BM_SmtImplication(benchmark::State& state) {
  for (auto _ : state) {
    // The Figure-1 implication: a - b > 10 ∧ b > 10 ⊢ a > 20 (UNSAT check).
    smt::DiffLogicSolver solver;
    const smt::VarId a = solver.NewVariable();
    const smt::VarId b = solver.NewVariable();
    solver.AddUnit({solver.AddAtom({b, a, -10.0, true}), true});
    solver.AddUnit({solver.AddAtom({smt::kZeroVar, b, -10.0, true}), true});
    solver.AddUnit({solver.AddAtom({a, smt::kZeroVar, 20.0, false}), true});
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_SmtImplication);

void BM_VerifierEquivalentPair(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  SpesVerifier verifier(&fixture.catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verifier.CheckEquivalence(fixture.q1, fixture.q2));
  }
}
BENCHMARK(BM_VerifierEquivalentPair);

void BM_VerifierNonEquivalentPair(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  Rng rng(0x1777);
  QueryGenerator generator(&fixture.catalog, GeneratorOptions());
  const PlanPtr other = generator.Generate(&rng);
  SpesVerifier verifier(&fixture.catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.CheckEquivalence(fixture.q1, other));
  }
}
BENCHMARK(BM_VerifierNonEquivalentPair);

void BM_EmfForwardPair(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  ml::EmfModelOptions options;
  options.input_dim = fixture.agnostic_layout.node_vector_size();
  options.conv1_size = 64;
  options.conv2_size = 64;
  options.fc1_size = 64;
  options.fc2_size = 32;
  ml::EmfModel model(options);
  auto converter = AgnosticConverter::Create(
      &fixture.instance_layout, &fixture.agnostic_layout,
      {&fixture.e1, &fixture.e2});
  const EncodedPlan a = converter->Convert(fixture.e1);
  const EncodedPlan b = converter->Convert(fixture.e2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba({&a}, {&b}));
  }
}
BENCHMARK(BM_EmfForwardPair);

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  const Tensor a = Tensor::Randn(n, n, 1.0f, &rng);
  const Tensor b = Tensor::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposeB(benchmark::State& state) {
  // The Linear-forward shape (x · Wᵀ): the row-row dot-product path.
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(12);
  const Tensor a = Tensor::Randn(n, n, 1.0f, &rng);
  const Tensor b = Tensor::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b, false, true);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulTransposeB)->Arg(64)->Arg(128)->Arg(256);

/// Workload fixture for the thread-scaling benches: >= 200 encoded plans
/// with planted equivalences and an (untrained) model of deployed size.
struct ScalingFixture {
  Catalog catalog = MakeTpchCatalog();
  EncodingLayout instance_layout = EncodingLayout::FromCatalog(catalog);
  EncodingLayout agnostic_layout = EncodingLayout::Agnostic(6, 8);
  std::unique_ptr<ml::EmfModel> model;
  std::vector<PlanPtr> workload;
  std::vector<EncodedPlan> encoded;
  std::vector<std::pair<size_t, size_t>> pairs;

  ScalingFixture() {
    ml::EmfModelOptions options;
    options.input_dim = agnostic_layout.node_vector_size();
    options.conv1_size = 64;
    options.conv2_size = 64;
    options.fc1_size = 64;
    options.fc2_size = 32;
    model = std::make_unique<ml::EmfModel>(options);

    Rng rng(0x9e3779);
    QueryGenerator generator(&catalog, GeneratorOptions());
    Rewriter rewriter(&catalog);
    for (size_t i = 0; i < 180; ++i) {
      workload.push_back(generator.Generate(&rng));
    }
    for (size_t i = 0; i < 40; ++i) {
      workload.push_back(*rewriter.RewriteOnce(workload[i], &rng));
    }
    encoded = *EncodeWorkload(workload, instance_layout, catalog,
                              ValueRange{0, 100});
    // A fixed scoring load for the EMF bench: every planted pair plus a
    // band of random same-schema pairs, ~600 total.
    for (size_t i = 0; i < 40; ++i) pairs.emplace_back(i, 180 + i);
    while (pairs.size() < 600) {
      const size_t i = rng.Uniform(workload.size());
      const size_t j = rng.Uniform(workload.size());
      if (i < j) pairs.emplace_back(i, j);
    }
  }
};

ScalingFixture& GetScalingFixture() {
  static ScalingFixture fixture;
  return fixture;
}

void BM_EmfScoresThreads(benchmark::State& state) {
  ScalingFixture& fixture = GetScalingFixture();
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  EmfFilterOptions options;
  options.batch_size = 64;  // 600 pairs -> ~10 shards
  const EquivalenceModelFilter emf(fixture.model.get(),
                                   &fixture.instance_layout,
                                   &fixture.agnostic_layout, options);
  // One untimed call with metrics on reads the dedup telemetry: trunk rows
  // (distinct agnostic conversions embedded) per scored pair.
  const obs::TraceLevel saved_level = obs::GlobalTraceLevel();
  obs::SetTraceLevel(obs::TraceLevel::kMetrics);
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t pairs_before = registry.GetCounter("emf.pairs_scored").value();
  const uint64_t rows_before = registry.GetCounter("emf.trunk_rows").value();
  GEQO_CHECK_OK(emf.Scores(fixture.pairs, fixture.encoded).status());
  state.counters["pairs_scored"] = static_cast<double>(
      registry.GetCounter("emf.pairs_scored").value() - pairs_before);
  state.counters["trunk_rows"] = static_cast<double>(
      registry.GetCounter("emf.trunk_rows").value() - rows_before);
  obs::SetTraceLevel(saved_level);
  for (auto _ : state) {
    auto scores = emf.Scores(fixture.pairs, fixture.encoded);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * fixture.pairs.size());
  ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_EmfScoresThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineDetectThreads(benchmark::State& state) {
  // End-to-end DetectEquivalences over the 220-plan workload. Generous VMF
  // radius and a zero EMF threshold keep the funnel wide so encoding, VMF,
  // EMF, and verification all carry real load.
  ScalingFixture& fixture = GetScalingFixture();
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  GeqoOptions options;
  options.vmf.radius = 6.0f;
  options.emf.threshold = 0.0f;
  GeqoPipeline pipeline(&fixture.catalog, fixture.model.get(),
                        &fixture.instance_layout, &fixture.agnostic_layout,
                        options);
  for (auto _ : state) {
    auto result =
        pipeline.DetectEquivalences(fixture.workload, ValueRange{0, 100});
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_PipelineDetectThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PlanSignatureHash(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto signature = PlanSignature(fixture.q1, fixture.catalog);
    benchmark::DoNotOptimize(signature);
  }
}
BENCHMARK(BM_PlanSignatureHash);

}  // namespace
}  // namespace geqo

BENCHMARK_MAIN();
