/// \file bench_serve.cpp
/// Online serving benchmark (§1 / §7.7 deployment scenario): streams a
/// detection workload through the synchronous serving deployment — a
/// one-shard ShardedCatalog in deferred mode, drained after every call —
/// with ProbeAdd, the motivating "check each incoming subexpression against
/// the repository" loop, then re-probes the full stream against the warm
/// catalog. Reports probe latency percentiles (probe plus drain) and the
/// work the memo cache and equivalence classes save, and writes
/// BENCH_serve.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ann/hnsw.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "encode/encoding.h"
#include "filters/vmf.h"
#include "serve/sharded_catalog.h"
#include "tensor/kernels/kernel_table.h"
#include "workload/generator.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace geqo::bench {
namespace {

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5));
  return sorted[index];
}

/// One synchronous step, which must succeed. Its latency is the probe's
/// stage sum plus the inline drain.
serve::VerifiedProbe Step(serve::ShardedCatalog& catalog, const PlanPtr& plan,
                          bool add) {
  auto step = add ? serve::ProbeAddAndDrain(catalog, plan)
                  : serve::ProbeAndDrain(catalog, plan);
  GEQO_CHECK(step.ok()) << step.status().ToString();
  return std::move(*step);
}

struct PhaseAccumulator {
  std::vector<double> latencies;
  size_t verifier_calls = 0;
  size_t memo_hits = 0;
  size_t class_shortcuts = 0;
  double total_seconds = 0.0;

  void Record(const serve::VerifiedProbe& step) {
    const double seconds = step.probe.seconds + step.drain_seconds;
    latencies.push_back(seconds);
    verifier_calls += step.verifier_calls;
    memo_hits += step.memo_hits;
    class_shortcuts += step.class_shortcuts;
    total_seconds += seconds;
  }

  ServeBenchReport Finish(const std::string& label,
                          const serve::ShardedCatalog& catalog) {
    std::sort(latencies.begin(), latencies.end());
    ServeBenchReport report;
    report.label = label;
    report.catalog_size = catalog.size();
    report.num_classes = catalog.NumClasses();
    report.probes = latencies.size();
    report.verifier_calls = verifier_calls;
    report.memo_hits = memo_hits;
    report.class_shortcuts = class_shortcuts;
    const double decided =
        static_cast<double>(memo_hits) + static_cast<double>(verifier_calls);
    report.memo_hit_rate =
        decided > 0.0 ? static_cast<double>(memo_hits) / decided : 0.0;
    report.p50_seconds = Percentile(latencies, 0.50);
    report.p99_seconds = Percentile(latencies, 0.99);
    report.total_seconds = total_seconds;
    return report;
  }
};

void PrintPhase(const ServeBenchReport& report) {
  std::printf(
      "%-8s  probes=%-4zu p50=%7.3f ms  p99=%7.3f ms  verifier=%-5llu "
      "memo=%-5llu shortcuts=%-5llu memo-hit=%5.1f%%\n",
      report.label.c_str(), report.probes, report.p50_seconds * 1e3,
      report.p99_seconds * 1e3,
      static_cast<unsigned long long>(report.verifier_calls),
      static_cast<unsigned long long>(report.memo_hits),
      static_cast<unsigned long long>(report.class_shortcuts),
      report.memo_hit_rate * 100.0);
}

/// Times the serving-core embed+probe loop (EMF embedding through the VMF's
/// singleton map, then an HNSW radius probe of a pre-built catalog index)
/// under the currently forced kernel table.
KernelBenchReport RunEmbedProbePhase(const VectorMatchingFilter& vmf,
                                     const std::vector<EncodedPlan>& encoded,
                                     float radius) {
  // Index build is serving state, not the measured op.
  const ann::HnswOptions& hnsw = vmf.options().hnsw;
  std::unique_ptr<ann::HnswIndex> index;
  for (const EncodedPlan& plan : encoded) {
    auto embedding = vmf.EmbedSingle(plan);
    GEQO_CHECK(embedding.ok()) << embedding.status().ToString();
    if (index == nullptr) {
      index = std::make_unique<ann::HnswIndex>(embedding->size(), hnsw);
    }
    index->Add(*embedding);
  }
  GEQO_CHECK(index != nullptr);

  KernelBenchReport report;
  report.isa = kernels::ActiveIsaName();
  Stopwatch watch;
  // Whole passes over the stream until enough wall clock has accumulated,
  // so both modes are measured over the same op mix.
  while (report.seconds < 0.5) {
    for (const EncodedPlan& plan : encoded) {
      auto embedding = vmf.EmbedSingle(plan);
      GEQO_CHECK(embedding.ok()) << embedding.status().ToString();
      index->SearchRadius(embedding->data(), radius);
    }
    report.ops += encoded.size();
    report.seconds = watch.ElapsedSeconds();
  }
  report.ops_per_second =
      static_cast<double>(report.ops) / std::max(report.seconds, 1e-12);
  return report;
}

void PrintKernelPhase(const KernelBenchReport& report) {
  std::printf("%-6s  ops=%-6zu %10.1f ops/s\n", report.isa.c_str(),
              report.ops, report.ops_per_second);
}

/// Open-loop multi-client phase: \p probers client threads issue probes on
/// a fixed (staggered) arrival schedule while \p adders threads feed a
/// sustained back-to-back write burst. Latency is completion minus the
/// *scheduled* arrival, so a probe that queued behind a writer's critical
/// section pays for the whole wait — the convention under which a
/// mutex-serialized catalog and the sharded catalog are comparable.
ConcurrentServeReport RunOpenLoop(
    const std::string& label, size_t probers, size_t adders,
    const std::vector<PlanPtr>& probe_plans,
    const std::vector<PlanPtr>& add_plans, double interval_seconds,
    size_t probes_per_prober,
    const std::function<bool(const PlanPtr&)>& probe,
    const std::function<bool(const PlanPtr&)>& add) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> latencies(probers);
  std::atomic<size_t> adds_done{0};
  std::atomic<bool> failed{false};
  Stopwatch wall;
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_seconds));

  std::vector<std::thread> threads;
  for (size_t p = 0; p < probers; ++p) {
    threads.emplace_back([&, p] {
      // Stagger the probers across the interval so clients don't arrive in
      // lockstep bursts — a herd would serialize on the CPU and charge its
      // own queueing to both configurations equally.
      const Clock::duration offset = interval * static_cast<int>(p) /
                                     static_cast<int>(probers);
      latencies[p].reserve(probes_per_prober);
      for (size_t i = 0; i < probes_per_prober; ++i) {
        const Clock::time_point scheduled =
            start + (static_cast<int>(i) + 1) * interval + offset;
        std::this_thread::sleep_until(scheduled);  // no-op once behind
        const PlanPtr& plan =
            probe_plans[(p * 17 + i) % probe_plans.size()];
        if (!probe(plan)) {
          failed = true;
          return;
        }
        latencies[p].push_back(
            std::chrono::duration<double>(Clock::now() - scheduled).count());
      }
    });
  }
  // Adders model a sustained write burst: back-to-back, no pacing. Under
  // the mutex baseline that keeps the lock busy with inline verification
  // for the whole burst, which is exactly the probe-tail pathology the
  // sharded catalog's async plane removes.
  for (size_t a = 0; a < adders; ++a) {
    threads.emplace_back([&, a] {
      for (size_t i = a; i < add_plans.size(); i += adders) {
        if (!add(add_plans[i])) {
          failed = true;
          return;
        }
        adds_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  GEQO_CHECK(!failed.load()) << label << ": a client call failed";

  std::vector<double> merged;
  for (const auto& per_prober : latencies) {
    merged.insert(merged.end(), per_prober.begin(), per_prober.end());
  }
  std::sort(merged.begin(), merged.end());
  ConcurrentServeReport report;
  report.label = label;
  report.probers = probers;
  report.adders = adders;
  report.probes = merged.size();
  report.adds = adds_done.load();
  report.p50_seconds = Percentile(merged, 0.50);
  report.p99_seconds = Percentile(merged, 0.99);
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

void PrintConcurrent(const ConcurrentServeReport& report) {
  std::printf(
      "%-14s  %zux%zu clients  shards=%zu vthreads=%zu  probes=%-5zu "
      "adds=%-4zu p50=%7.3f ms  p99=%7.3f ms  wall=%6.2f s\n",
      report.label.c_str(), report.probers, report.adders, report.num_shards,
      report.verifier_threads, report.probes, report.adds,
      report.p50_seconds * 1e3, report.p99_seconds * 1e3,
      report.wall_seconds);
}

}  // namespace
}  // namespace geqo::bench

int main() {
  using namespace geqo;
  using namespace geqo::bench;

  PrintHeader("bench_serve",
              "the online serving scenario (incremental probe latency, "
              "memoization and class shortcuts)");

  const Scale scale = GetScale();
  BenchContext context = TpchTrainedSystem(scale);
  const DetectionWorkload workload = MakeDetectionWorkload(
      *context.catalog, Pick(30, 80, 200), Pick(8, 20, 50), /*seed=*/0x5EF3);
  std::printf("# workload: %zu subexpressions, %zu planted equivalences\n\n",
              workload.subexpressions.size(), workload.planted.size());

  auto catalog = context.system->OpenShardedCatalog(
      serve::ShardedCatalogOptions::Synchronous(
          context.system->options().pipeline));
  std::vector<ServeBenchReport> phases;

  // Phase 1: the cold stream — every query probes the catalog built from
  // its predecessors, then joins it.
  PhaseAccumulator stream;
  size_t proven_pairs = 0;
  for (const PlanPtr& plan : workload.subexpressions) {
    const serve::VerifiedProbe step = Step(*catalog, plan, /*add=*/true);
    stream.Record(step);
    proven_pairs += catalog->ClassMembers(step.id).size() - 1;
  }
  phases.push_back(stream.Finish("stream", *catalog));
  PrintPhase(phases.back());

  // Phase 2: re-probe the identical stream against the warm catalog. The
  // stream phase only checked each query against its predecessors, so the
  // forward pairs (against entries added later) still need proofs; the
  // backward pairs come from the memo and the classes.
  PhaseAccumulator reprobe;
  for (const PlanPtr& plan : workload.subexpressions) {
    reprobe.Record(Step(*catalog, plan, /*add=*/false));
  }
  phases.push_back(reprobe.Finish("reprobe", *catalog));
  PrintPhase(phases.back());

  // Phase 3: the steady state of a recurring workload — every surviving
  // pair has been decided once, so the verifier is never invoked again.
  PhaseAccumulator steady;
  for (const PlanPtr& plan : workload.subexpressions) {
    steady.Record(Step(*catalog, plan, /*add=*/false));
  }
  phases.push_back(steady.Finish("steady", *catalog));
  PrintPhase(phases.back());
  GEQO_CHECK(phases.back().verifier_calls == 0)
      << "steady-state probes must be fully memoized";

  std::printf(
      "\ncatalog: %zu entries in %zu classes, %zu memoized verdicts, "
      "%zu proven pairs during the stream\n",
      catalog->size(), catalog->NumClasses(), catalog->memo_size(),
      proven_pairs);
  std::printf("modeled AV seconds saved by memo+classes at steady state: %.2f\n",
              ModeledAvSeconds(0.0, phases.back().memo_hits +
                                        phases.back().class_shortcuts));

  // Phase 4: kernel throughput — the embed+probe core of every probe above,
  // measured under the portable scalar table and again under the best
  // dispatched table (both f32), for the speedup record.
  std::printf("\n# embed+probe kernel throughput (%s host)\n",
              kernels::Avx2TableOrNull() != nullptr ? "avx2" : "scalar-only");
  GeqoSystem& system = *context.system;
  PlanEncoder encoder(&system.instance_layout(), &system.catalog(),
                      system.value_range());
  std::vector<EncodedPlan> encoded;
  for (const PlanPtr& plan : workload.subexpressions) {
    auto plan_encoded = encoder.Encode(plan);
    GEQO_CHECK(plan_encoded.ok()) << plan_encoded.status().ToString();
    encoded.push_back(std::move(*plan_encoded));
  }
  const VmfOptions vmf_options = system.options().pipeline.vmf;
  VectorMatchingFilter vmf(&system.model(), &system.instance_layout(),
                           &system.agnostic_layout(), vmf_options);

  const kernels::Isa saved_isa = kernels::ActiveIsa();
  std::vector<KernelBenchReport> kernel_phases;

  kernels::SetIsa(kernels::Isa::kScalar);
  kernel_phases.push_back(RunEmbedProbePhase(vmf, encoded, vmf_options.radius));
  PrintKernelPhase(kernel_phases.back());

  const kernels::Isa best_isa = kernels::Avx2TableOrNull() != nullptr
                                    ? kernels::Isa::kAvx2
                                    : kernels::Isa::kScalar;
  kernels::SetIsa(best_isa);
  kernel_phases.push_back(RunEmbedProbePhase(vmf, encoded, vmf_options.radius));
  PrintKernelPhase(kernel_phases.back());

  kernels::SetIsa(saved_isa);

  const double speedup =
      kernel_phases[1].ops_per_second /
      std::max(kernel_phases[0].ops_per_second, 1e-12);
  std::printf("embed+probe speedup (%s over scalar): %.2fx\n",
              kernel_phases[1].isa.c_str(), speedup);

  // Phase 5: the multi-client open-loop comparison. The baseline is the
  // pre-sharding deployment: the synchronous one-shard catalog behind one
  // mutex, draining inline under it, so an adder's in-lock verification
  // serializes every concurrent probe behind it. The sharded catalog routes
  // probes to per-shard reader-writer locks and pushes verification onto
  // the async plane. Both configurations run with the modeled SPES
  // invocation stall (the paper's AV is a JVM + Z3 subprocess per check,
  // ~18 ms — see kSpesInvocationOverheadSeconds): the phase measures where
  // that unavoidable cost lands, inline under the serving lock or off it.
  std::printf("\n# open-loop multi-client serving (probe p99 under writes, "
              "modeled %.0f ms AV stall)\n",
              kSpesInvocationOverheadSeconds * 1e3);
  constexpr size_t kProbers = 4;
  constexpr size_t kAdders = 2;
  const size_t probes_per_prober = Pick(100, 150, 300);
  // Half the burst entries are rewrites of the other half, so the write
  // stream keeps the verifier busy — the mutex baseline pays those proofs
  // inline under its lock, the sharded catalog pays them on the async
  // plane.
  const DetectionWorkload growth = MakeDetectionWorkload(
      *context.catalog, Pick(60, 120, 240), Pick(30, 60, 120),
      /*seed=*/0xADDE);
  // Pace arrivals with generous slack over the uncontended service rate
  // (32x the steady-state p50 per prober, i.e. 8x aggregate). With slack,
  // latency isolates per-probe blocking — a probe stuck behind a writer's
  // in-lock verification pays for that wait — instead of compounding into
  // arrival-rate saturation that would drown both configurations equally;
  // the probe window also comfortably outlasts the write burst, so the
  // tail reflects burst-period probes, not a saturated steady state.
  const double interval_seconds =
      std::max(16.0 * phases.back().p50_seconds, 2e-3);
  std::vector<ConcurrentServeReport> concurrent;

  {
    // A fresh baseline catalog with the modeled AV stall, warmed with the
    // same entries the sharded run below starts from (warm-up runs before
    // the clock, outside the mutex).
    GeqoOptions baseline_pipeline = context.system->options().pipeline;
    baseline_pipeline.verifier.modeled_invocation_stall_seconds =
        kSpesInvocationOverheadSeconds;
    auto baseline = context.system->OpenShardedCatalog(
        serve::ShardedCatalogOptions::Synchronous(baseline_pipeline));
    for (const PlanPtr& plan : workload.subexpressions) {
      Step(*baseline, plan, /*add=*/true);
    }
    std::mutex mu;
    concurrent.push_back(RunOpenLoop(
        "mutex-baseline", kProbers, kAdders, workload.subexpressions,
        growth.subexpressions, interval_seconds, probes_per_prober,
        [&](const PlanPtr& plan) {
          std::lock_guard<std::mutex> lock(mu);
          return serve::ProbeAndDrain(*baseline, plan).ok();
        },
        [&](const PlanPtr& plan) {
          std::lock_guard<std::mutex> lock(mu);
          return serve::ProbeAddAndDrain(*baseline, plan).ok();
        }));
    concurrent.back().num_shards = 1;
    concurrent.back().verifier_threads = 0;
    PrintConcurrent(concurrent.back());
  }

  {
    serve::ShardedCatalogOptions sharded_options;
    sharded_options.catalog.pipeline = context.system->options().pipeline;
    sharded_options.catalog.pipeline.verifier
        .modeled_invocation_stall_seconds = kSpesInvocationOverheadSeconds;
    sharded_options.num_shards = 4;
    sharded_options.verifier_threads = 2;
    auto sharded = context.system->OpenShardedCatalog(sharded_options);
    auto warm = sharded->AddBatch(workload.subexpressions);
    GEQO_CHECK(warm.ok()) << warm.status().ToString();
    for (const PlanPtr& plan : workload.subexpressions) {
      GEQO_CHECK(sharded->Probe(plan).ok());
    }
    sharded->DrainPendingVerifications();  // warm memo + classes, like above
    concurrent.push_back(RunOpenLoop(
        "sharded", kProbers, kAdders, workload.subexpressions,
        growth.subexpressions, interval_seconds, probes_per_prober,
        [&](const PlanPtr& plan) { return sharded->Probe(plan).ok(); },
        [&](const PlanPtr& plan) { return sharded->ProbeAdd(plan).ok(); }));
    concurrent.back().num_shards = sharded->num_shards();
    concurrent.back().verifier_threads =
        sharded_options.verifier_threads;
    PrintConcurrent(concurrent.back());
    sharded->DrainPendingVerifications();
    GEQO_CHECK(sharded->PendingVerifications() == 0);
  }

  const double p99_speedup = concurrent[0].p99_seconds /
                             std::max(concurrent[1].p99_seconds, 1e-12);
  std::printf("probe p99 under concurrent adds: sharded is %.1fx better than "
              "the mutex baseline\n",
              p99_speedup);
  // Wall-clock comparisons are noisy on loaded machines, so a regression is
  // reported (and recorded in BENCH_serve.json) rather than hard-aborted;
  // lanes that want a floor set GEQO_SERVE_MIN_P99_SPEEDUP (a factor, e.g.
  // "1.0" for parity, "3" for the paper target).
  if (concurrent[1].p99_seconds > concurrent[0].p99_seconds) {
    std::printf("WARNING: sharded probe p99 (%.3f ms) did not beat the mutex "
                "baseline (%.3f ms) on this run — likely scheduling noise\n",
                concurrent[1].p99_seconds * 1e3,
                concurrent[0].p99_seconds * 1e3);
  }
  if (const char* min_speedup = std::getenv("GEQO_SERVE_MIN_P99_SPEEDUP");
      min_speedup != nullptr && std::atof(min_speedup) > 0.0) {
    GEQO_CHECK(p99_speedup >= std::atof(min_speedup))
        << "sharded probe p99 speedup " << p99_speedup
        << "x is under GEQO_SERVE_MIN_P99_SPEEDUP=" << min_speedup;
  }
  // Optional absolute SLO for CI lanes (milliseconds).
  if (const char* slo_ms = std::getenv("GEQO_SERVE_SLO_MS");
      slo_ms != nullptr && std::atof(slo_ms) > 0.0) {
    GEQO_CHECK(concurrent[1].p99_seconds * 1e3 <= std::atof(slo_ms))
        << "sharded probe p99 " << concurrent[1].p99_seconds * 1e3
        << " ms exceeds GEQO_SERVE_SLO_MS=" << slo_ms;
  }

  // Phase 6: durability — what a serving pause costs on a populated
  // catalog. Stream the workload into a durable CatalogStore, bulk-grow it
  // to bench scale, then compare the two ways a service made its state
  // durable: (a) the legacy pause — serialize the whole catalog and write
  // the bytes to disk durably, O(catalog); (b) the incremental
  // Checkpoint() pause — fsync the log tail and rotate, independent of
  // catalog size. Finally (c): fold the log into a base, append a small
  // tail, and measure a cold reopen's recovery (base import + tail
  // replay), the designed restart path.
  std::printf("\n# durable store: checkpoint pause vs full-snapshot pause\n");
  DurabilityBenchReport durability;
  {
    const std::string dir = "bench_cache/serve_store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    // Full add-ordered plan list: the probe stream, the bulk population,
    // and the post-compaction tail (the reopen replays against it).
    std::vector<PlanPtr> all_plans = workload.subexpressions;
    {
      Rng rng(0xD07A);
      QueryGenerator generator(context.catalog.get(), GeneratorOptions());
      const size_t bulk = Pick(600, 3000, 8000);
      const size_t tail = Pick(60, 120, 240);
      for (size_t i = 0; i < bulk + tail; ++i) {
        all_plans.push_back(generator.Generate(&rng));
      }
    }
    const size_t tail_count = Pick(60, 120, 240);
    const size_t populated = all_plans.size() - tail_count;

    const serve::ShardedCatalogOptions store_options =
        serve::ShardedCatalogOptions::Synchronous(
            context.system->options().pipeline);
    auto store =
        context.system->OpenShardedCatalogStore(dir, all_plans, store_options);
    GEQO_CHECK(store.ok()) << store.status().ToString();
    serve::ShardedCatalog& stored = *(*store)->sharded();
    for (const PlanPtr& plan : workload.subexpressions) {
      Step(stored, plan, /*add=*/true);
    }
    for (size_t i = stored.size(); i < populated; ++i) {
      GEQO_CHECK(stored.Add(all_plans[i]).ok());
    }
    durability.entries = stored.size();
    durability.wal_records = (*store)->stats().wal_records_appended;

    // (a) Legacy full-snapshot pause: what Save(path) used to cost —
    // serialize everything, write it out, fsync.
    Stopwatch snapshot_watch;
    {
      std::ostringstream snapshot;
      GEQO_CHECK_OK((*store)->ExportSnapshot(snapshot));
      const std::string bytes = snapshot.str();
      const std::string path = "bench_cache/serve_store_snapshot.bin";
      std::FILE* file = std::fopen(path.c_str(), "wb");
      GEQO_CHECK(file != nullptr);
      GEQO_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                 bytes.size());
      GEQO_CHECK(std::fflush(file) == 0);
#ifdef __unix__
      GEQO_CHECK(::fsync(fileno(file)) == 0);
#endif
      GEQO_CHECK(std::fclose(file) == 0);
    }
    durability.snapshot_pause_ms = snapshot_watch.ElapsedSeconds() * 1e3;
    std::filesystem::remove("bench_cache/serve_store_snapshot.bin", ec);

    // (b) Incremental checkpoint pause on the same populated catalog.
    Stopwatch checkpoint_watch;
    GEQO_CHECK_OK((*store)->Checkpoint());
    durability.checkpoint_pause_ms = checkpoint_watch.ElapsedSeconds() * 1e3;

    // (c) Fold into a base, append a fresh tail, and cold-restart: the
    // reopen imports the base and replays only the tail generation.
    GEQO_CHECK_OK((*store)->Compact());
    for (size_t i = populated; i < all_plans.size(); ++i) {
      GEQO_CHECK(stored.Add(all_plans[i]).ok());
    }
    GEQO_CHECK_OK((*store)->Close());

    Stopwatch reopen_watch;
    auto reopened =
        context.system->OpenShardedCatalogStore(dir, all_plans, store_options);
    GEQO_CHECK(reopened.ok()) << reopened.status().ToString();
    durability.recovery_replay_ms = reopen_watch.ElapsedSeconds() * 1e3;
    GEQO_CHECK((*reopened)->sharded()->size() == all_plans.size())
        << "recovery lost entries: " << (*reopened)->sharded()->size()
        << " of " << all_plans.size();
    GEQO_CHECK_OK((*reopened)->Close());
    std::filesystem::remove_all(dir, ec);

    std::printf(
        "entries=%zu wal_records=%zu  full_snapshot_pause=%7.3f ms  "
        "checkpoint_pause=%7.3f ms  recovery(base+%zu-record tail)=%7.3f ms\n",
        durability.entries, durability.wal_records,
        durability.snapshot_pause_ms, durability.checkpoint_pause_ms,
        tail_count, durability.recovery_replay_ms);
  }

  WriteServeArtifact(phases, kernel_phases, speedup, concurrent, p99_speedup,
                     &durability);
  std::printf("\nBENCH_serve.json written\n");
  return 0;
}
