#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "exec/result_cache.h"
#include "exec/session.h"
#include "plan/canonicalize.h"
#include "serve/sharded_catalog.h"

/// \file bench_e2e.cpp
/// The end-to-end compute-reuse loop (§7.7 at reduced scale): concurrent
/// client streams of recurring subexpressions are served either by raw
/// vectorized execution (no reuse machinery) or through the full loop —
/// ShardedCatalog::ProbeAdd resolves each query to an equivalence class,
/// and an OnlineResultCache short-circuits classes with demonstrated
/// reuse. The artifact (BENCH_e2e.json) records both stream reports. The
/// vectorized engine's parity with the row-at-a-time oracle over this
/// query mix is a test (VecExecWorkloadTest.E2eBenchWorkloadMatchesOracle).

namespace geqo::bench {
namespace {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(q * (sorted.size() - 1) + 0.5));
  return sorted[index];
}

/// The recurring stream: \p rounds passes over the workload, each round
/// rotated so clients do not replay the exact arrival order.
std::vector<const PlanPtr*> BuildStream(const std::vector<PlanPtr>& plans,
                                        size_t rounds) {
  std::vector<const PlanPtr*> stream;
  stream.reserve(plans.size() * rounds);
  for (size_t r = 0; r < rounds; ++r) {
    const size_t offset = (r * 7) % plans.size();
    for (size_t i = 0; i < plans.size(); ++i) {
      stream.push_back(&plans[(offset + i) % plans.size()]);
    }
  }
  return stream;
}

/// Closed-loop multi-client phase: \p clients threads pull queries from the
/// shared \p stream via an atomic cursor and serve each one through
/// \p serve (which returns true when the query was a cache hit). Latency is
/// per-query service time under the closed-loop convention — the stream has
/// no think time, so throughput is the headline number and the percentiles
/// describe the per-query cost distribution.
template <typename ServeFn>
E2eStreamReport RunStream(const std::string& label,
                          const std::vector<const PlanPtr*>& stream,
                          size_t clients, const ServeFn& serve) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> hits{0};
  std::atomic<bool> failed{false};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(stream.size() / clients + 1);
      while (true) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= stream.size()) return;
        Stopwatch query_watch;
        bool hit = false;
        if (!serve(*stream[i], &hit)) {
          failed = true;
          return;
        }
        if (hit) hits.fetch_add(1, std::memory_order_relaxed);
        latencies[c].push_back(query_watch.ElapsedSeconds());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  GEQO_CHECK(!failed.load()) << label << ": a client query failed";

  std::vector<double> merged;
  for (const auto& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  std::sort(merged.begin(), merged.end());
  E2eStreamReport report;
  report.label = label;
  report.clients = clients;
  report.queries = merged.size();
  report.cache_hits = hits.load();
  report.executions = report.queries - report.cache_hits;
  report.p50_seconds = Percentile(merged, 0.50);
  report.p99_seconds = Percentile(merged, 0.99);
  report.wall_seconds = wall.ElapsedSeconds();
  report.queries_per_second = static_cast<double>(report.queries) /
                              std::max(report.wall_seconds, 1e-12);
  return report;
}

void PrintStream(const E2eStreamReport& report) {
  std::printf(
      "%-10s  %zu clients  queries=%-5zu exec=%-5zu hits=%-5zu "
      "p50=%7.3f ms  p99=%7.3f ms  wall=%6.2f s  %8.1f q/s\n",
      report.label.c_str(), report.clients, report.queries, report.executions,
      report.cache_hits, report.p50_seconds * 1e3, report.p99_seconds * 1e3,
      report.wall_seconds, report.queries_per_second);
}

}  // namespace
}  // namespace geqo::bench

int main() {
  using namespace geqo;
  using namespace geqo::bench;

  PrintHeader("bench_e2e",
              "the end-to-end compute-reuse loop (equivalence detection "
              "feeding an online result cache over the vectorized engine)");

  const Scale scale = GetScale();
  BenchContext context = TpchTrainedSystem(scale);
  const DetectionWorkload workload = MakeDetectionWorkload(
      *context.catalog, Pick(24, 48, 96), Pick(8, 16, 32), /*seed=*/0xE2E0);
  const size_t rounds = Pick(4, 5, 7);
  const std::vector<const PlanPtr*> stream =
      BuildStream(workload.subexpressions, rounds);

  DataGenOptions data_options;
  data_options.default_rows = Pick(300, 600, 1200);
  data_options.key_cardinality = 40;
  data_options.seed = 0xE2EDA7A;
  const Database database = Database::Generate(*context.catalog, data_options);
  std::printf("# workload: %zu subexpressions x %zu rounds over %zu data "
              "rows\n\n",
              workload.subexpressions.size(), rounds, database.TotalRows());

  // Concurrent client streams. The uncached configuration executes every
  // arrival; the cached configuration resolves each arrival to an
  // equivalence class — an exact-match tier first (CanonicalHash lookup, the
  // cheapest filter in the stack), falling back to the semantic tier
  // (ShardedCatalog::ProbeAdd) for texts it has never seen — and then lets
  // the OnlineResultCache short-circuit classes with demonstrated reuse.
  // Rewritten duplicates miss the exact tier but land in their original
  // class through the probe, which is the detection loop paying for itself.
  const size_t clients = Pick(2, 4, 4);
  std::printf("# concurrent streams (%zu clients)\n", clients);
  std::vector<E2eStreamReport> streams;
  {
    streams.push_back(RunStream(
        "uncached", stream, clients, [&](const PlanPtr& plan, bool* hit) {
          *hit = false;
          exec::ExecutionSession client_session(&database);
          return client_session.Execute(plan).ok();
        }));
    PrintStream(streams.back());
  }

  auto catalog = context.system->OpenShardedCatalog();
  // Budget sized to hold a handful of representatives, so admission and
  // eviction both exercise (the §7.7 knapsack at online scale).
  const size_t budget_bytes = 1024 * 1024;
  OnlineResultCache cache(budget_bytes);
  {
    // Per-class serving profile: the last measured execution, used to value
    // accesses before they execute (hits are charged the cost they avoided).
    struct ClassProfile {
      double seconds = 0.0;
      size_t bytes = 0;
    };
    std::unordered_map<size_t, ClassProfile> profiles;
    std::unordered_map<uint64_t, size_t> class_by_hash;
    std::mutex cache_mu;
    streams.push_back(RunStream(
        "cached", stream, clients, [&](const PlanPtr& plan, bool* hit) {
          const uint64_t hash = CanonicalHash(plan);
          size_t cls = 0;
          bool known_text = false;
          {
            std::lock_guard<std::mutex> lock(cache_mu);
            const auto it = class_by_hash.find(hash);
            if (it != class_by_hash.end()) {
              cls = it->second;
              known_text = true;
            }
          }
          if (!known_text) {
            auto probe = catalog->ProbeAdd(plan);
            if (!probe.ok()) return false;
            cls = catalog->ClassOf(probe->id);
            std::lock_guard<std::mutex> lock(cache_mu);
            class_by_hash.emplace(hash, cls);
          }
          {
            std::lock_guard<std::mutex> lock(cache_mu);
            const ClassProfile& known = profiles[cls];
            const CacheAccess access =
                cache.OnQuery(CacheRequest{.equivalence_class = cls,
                                           .canonical_hash = hash,
                                           .execution_seconds = known.seconds,
                                           .result_bytes = known.bytes});
            if (access.hit) {
              *hit = true;
              return true;
            }
          }
          *hit = false;
          exec::ExecutionSession client_session(&database);
          Stopwatch exec_watch;
          auto rows = client_session.Execute(plan);
          if (!rows.ok()) return false;
          const double seconds = exec_watch.ElapsedSeconds();
          std::lock_guard<std::mutex> lock(cache_mu);
          ClassProfile& profile = profiles[cls];
          profile.seconds = seconds;
          profile.bytes = rows->ByteSize();
          return true;
        }));
    catalog->DrainPendingVerifications();
    PrintStream(streams.back());
  }

  const double cached_speedup =
      streams[1].queries_per_second /
      std::max(streams[0].queries_per_second, 1e-12);
  std::printf("\ncached over uncached throughput: %.2fx  (hit rate %.0f%%)\n",
              cached_speedup,
              100.0 * static_cast<double>(streams[1].cache_hits) /
                  std::max<size_t>(streams[1].queries, 1));
  std::printf("catalog: %zu entries in %zu classes; cache: %zu/%zu bytes, "
              "%zu admissions, %zu evictions, %zu rejected\n",
              catalog->size(), catalog->NumClasses(),
              cache.stats().used_bytes, cache.budget_bytes(),
              cache.stats().admissions, cache.stats().evictions,
              cache.stats().rejected);
  // Throughput comparisons are noisy on loaded machines, so a regression is
  // reported (and recorded in BENCH_e2e.json) rather than hard-aborted;
  // lanes that want a floor set GEQO_E2E_MIN_SPEEDUP (a factor, e.g. "1.0"
  // for parity).
  if (cached_speedup < 1.0) {
    std::printf("WARNING: cached stream (%.1f q/s) did not beat the uncached "
                "stream (%.1f q/s) on this run — likely scheduling noise\n",
                streams[1].queries_per_second, streams[0].queries_per_second);
  }
  if (const char* min_speedup = std::getenv("GEQO_E2E_MIN_SPEEDUP");
      min_speedup != nullptr && std::atof(min_speedup) > 0.0) {
    GEQO_CHECK(cached_speedup >= std::atof(min_speedup))
        << "cached-over-uncached speedup " << cached_speedup
        << "x is under GEQO_E2E_MIN_SPEEDUP=" << min_speedup;
  }

  WriteE2eArtifact(streams, cached_speedup, catalog->size(),
                   catalog->NumClasses(), cache.stats().used_bytes,
                   cache.budget_bytes());
  std::printf("\nwrote BENCH_e2e.json\n");
  return 0;
}
