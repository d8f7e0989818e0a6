#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

/// \file workload.h
/// The contract between main.cc and the three workloads.
///
/// A run is: Setup (repeated; the median is setup_s), one measured Phase,
/// then the phase's output checks. A traced run measures an untraced phase
/// and, after a fresh Setup, a traced one; the traced phase's spans give
/// the per-layer table, and the difference between the two phases is the
/// tracing overhead.

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (BENCHMARK.json
/// "end_to_end", same order). Per workload the generic names mean:
///   ops_per_s        detect: candidate pairs resolved/s at the stated N;
///                    reuse: queries served/s; ingest: acknowledged adds/s
///   latency_p50_ms   detect: one DetectEquivalences call; reuse: one query
///   latency_tail_ms  (closed loop); ingest: one probe, timed from its due
///                    time (open loop). Tail: the p90 call for detect (too
///                    few calls for a percentile with ten samples beyond
///                    it), p95 for reuse, p75 for ingest (see reuse.cc and
///                    ingest.cc).
///   recall           planted equivalent pairs found / planted pairs
///                    (detect: reported by GEqO_SET; reuse: variants that
///                    landed in their class; ingest: rewrites that joined
///                    their source's class after the verifier drained)
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},       {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},  {"recall", "ratio"},
};

/// Per-layer metrics (BENCHMARK.json "per_layer", same order). A layer the
/// workload does not exercise reports 0: it did no work.
inline constexpr MetricDef kPerLayer[] = {
    {"ml.train_s", "s"},
    {"detect.encode_s", "s"},
    {"detect.sf_s", "s"},
    {"detect.vmf_s", "s"},
    {"detect.emf_s", "s"},
    {"detect.verify_s", "s"},
    {"detect.sf_pairs_out", "count"},
    {"detect.vmf_pairs_out", "count"},
    {"detect.emf_pairs_out", "count"},
    {"detect.verify_yield", "ratio"},
    {"nn.embed_us", "us"},
    {"ann.search_us", "us"},
    {"emf.score_pair_us", "us"},
    {"verify.pair_us", "us"},
    {"serve.prepare_us", "us"},
    {"serve.vmf_us", "us"},
    {"serve.emf_us", "us"},
    {"serve.classify_us", "us"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.verify_tasks", "count"},
    {"serve.async_verifier_calls", "count"},
    {"serve.pending_max", "count"},
    {"serve.drain_s", "s"},
    {"plan.canonical_hash_us", "us"},
    {"reuse.exact_tier_hit_ratio", "ratio"},
    {"exec.query_p50_ms", "ms"},
    {"exec.query_p99_ms", "ms"},
    {"exec.rows_per_s", "1/s"},
    {"exec.executions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.rejected", "count"},
    {"cache.onquery_us", "us"},
    {"persist.append_us", "us"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.compactions", "count"},
    {"persist.wal_records", "count"},
    {"persist.replayed_records", "count"},
    {"persist.recover_s", "s"},
    {"ingest.generator_late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Values by metric name.
using Values = std::map<std::string, double>;

/// \brief What one measured phase produced.
struct PhaseResult {
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  uint64_t recall_found = 0;
  uint64_t recall_planted = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks: false aborts the run with `error`.
  bool correct = true;
  std::string error;
  /// Per-layer values known from counters and library reports (span-derived
  /// layers are filled from the traced phase's table).
  Values layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Builds fresh state: trains the EMF, generates inputs from \p seed,
  /// and warms every lazy path. Returns the EMF training seconds.
  virtual double Setup(uint64_t seed) = 0;
  /// Runs the workload for \p seconds on the current state, then checks
  /// its outputs (outside the timed interval).
  virtual PhaseResult Measure(double seconds) = 0;
  /// Per-layer values derived from a traced phase's spans (none by
  /// default: most layers report through the library's own counters).
  virtual void LayersFromSpans(const std::vector<LayerRow>& /*rows*/,
                               Values* /*layers*/) {}
  /// Replays the workload's own inputs through the public filter and
  /// verifier calls one at a time (nn/ann/emf/verify per-call costs).
  virtual void Replay(Values* layers) = 0;
};

std::unique_ptr<Workload> MakeDetectWorkload();
std::unique_ptr<Workload> MakeReuseWorkload();
/// \p work_dir holds the store directory while the workload runs.
std::unique_ptr<Workload> MakeIngestWorkload(const std::string& work_dir);

}  // namespace perfbench
