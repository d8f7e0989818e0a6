// geqo_perfbench: runs one benchmark workload and prints its metrics.
//
//   geqo_perfbench --workload detect|reuse|ingest --seed N --seconds S
//                  --trace 0|1 [--out-dir DIR]
//   geqo_perfbench --list-metrics
//
// --trace 0 sets up kSetups times (setup_s is the median), measures the workload
// for S seconds with tracing off and prints the end-to-end metrics.
// --trace 1 measures S/2 seconds untraced, sets up again, measures S/2
// seconds with spans recorded around every public library call, prints
// the per-layer table and metrics plus the tracing overhead, and writes
// the spans to DIR. Either way the last stdout line is the JSON result;
// a failed output check exits non-zero without printing one.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "stats.h"
#include "tensor/kernels/kernel_table.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SOURCE_REV
#define PERFBENCH_SOURCE_REV "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "geqo_perfbench: %s\nusage: geqo_perfbench --workload "
               "detect|reuse|ingest --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               message);
  std::exit(2);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) Usage(("missing value for " + flag).c_str());
    ++i;
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args.seed)) Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 60) {
        Usage("--seconds must be a whole number in [1, 60]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) Usage("bad --trace");
      args.trace = number == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  const std::string& name = args.workload;
  if (name == "detect") return MakeDetectWorkload();
  if (name == "reuse") return MakeReuseWorkload();
  if (name == "ingest") return MakeIngestWorkload(args.out_dir);
  return nullptr;
}

void PrintHost(const Args& args) {
  std::printf("# host: isa=%s cores=%u build=%s rev=%s\n",
              geqo::kernels::ActiveIsaName(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_SOURCE_REV);
  std::printf("# run: workload=%s seed=%llu seconds=%.0f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
}

/// Sets up once, timing it. Returns (setup seconds, training seconds).
std::pair<double, double> TimedSetup(Workload& workload, uint64_t seed) {
  geqo::Stopwatch watch;
  const double train_s = workload.Setup(seed);
  const double setup_s = watch.ElapsedSeconds();
  std::printf("# set-up: %.3f s (EMF training %.3f s)\n", setup_s, train_s);
  return {setup_s, train_s};
}

bool CheckPhase(const PhaseResult& phase) {
  if (phase.correct) return true;
  std::fflush(stdout);
  std::fprintf(stderr, "geqo_perfbench: output check failed: %s\n",
               phase.error.c_str());
  return false;
}

void PrintPhase(const char* label, const PhaseResult& phase) {
  std::printf("# %s phase: wall %.2f s, ops %.6g/s, latency p50 %.4g ms, "
              "tail %.4g ms, %s, %s\n",
              label, phase.wall_s, phase.ops_per_s, phase.latency_p50_ms,
              phase.latency_tail_ms,
              FormatRatio("recall", phase.recall_found, phase.recall_planted)
                  .c_str(),
              FormatRatio("fail_ratio", phase.failed, phase.attempted).c_str());
}

/// The workload's end-to-end numbers under their per-workload names
/// (detect_pairs_per_s, query_p50_ms, probe_p50_ms, ...).
void PrintWorkloadNames(const Workload& workload, const PhaseResult& phase) {
  const std::string name = workload.name();
  const double recall = Ratio(phase.recall_found, phase.recall_planted);
  std::printf("# per-workload names (%s)\n", name.c_str());
  std::printf("  %s\n",
              FormatRatio("fail_ratio", phase.failed, phase.attempted).c_str());
  if (name == "detect") {
    std::printf("  detect_pairs_per_s %.6g 1/s\n", phase.ops_per_s);
    std::printf("  %s\n", FormatRatio("detect_recall", phase.recall_found,
                                      phase.recall_planted)
                              .c_str());
  } else if (name == "reuse") {
    std::printf("  query_per_s %.6g 1/s\n  query_p50_ms %.6g ms\n"
                "  query_p95_ms %.6g ms\n  variant recall %.4f\n",
                phase.ops_per_s, phase.latency_p50_ms, phase.latency_tail_ms,
                recall);
  } else {
    const auto recover = phase.layers.find("persist.recover_s");
    std::printf("  add_per_s %.6g 1/s\n  probe_p50_ms %.6g ms\n"
                "  probe_p75_ms %.6g ms\n  recover_s %.6g s\n"
                "  rewrite recall %.4f\n",
                phase.ops_per_s, phase.latency_p50_ms, phase.latency_tail_ms,
                recover == phase.layers.end() ? 0.0 : recover->second, recall);
  }
}

int RunUntraced(const Args& args, Workload& workload) {
  std::vector<double> setup_s;
  for (size_t k = 0; k < kSetups; ++k) {
    setup_s.push_back(TimedSetup(workload, args.seed).first);
  }
  const PhaseResult phase = workload.Measure(args.seconds);
  if (!CheckPhase(phase)) return 3;
  PrintPhase("measured", phase);

  Report report;
  std::printf("# end-to-end metrics (%s)\n", workload.name());
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("ops_per_s", phase.ops_per_s, "1/s");
  report.Metric("latency_p50_ms", phase.latency_p50_ms, "ms");
  report.Metric("latency_tail_ms", phase.latency_tail_ms, "ms");
  report.Metric("recall", Ratio(phase.recall_found, phase.recall_planted),
                "ratio");
  std::printf("  (setup_s is the median of %zu set-ups)\n", setup_s.size());
  PrintWorkloadNames(workload, phase);
  std::fflush(stdout);
  std::printf("%s\n",
              report.ResultJson(true, phase.attempted, phase.failed).c_str());
  return 0;
}

int RunTraced(const Args& args, Workload& workload) {
  const double half = args.seconds / 2.0;
  const auto [setup1_s, train1_s] = TimedSetup(workload, args.seed);
  const PhaseResult untraced = workload.Measure(half);
  if (!CheckPhase(untraced)) return 3;
  PrintPhase("untraced", untraced);

  const auto [setup2_s, train2_s] = TimedSetup(workload, args.seed);
  Tracer::Clear();
  Tracer::SetEnabled(true);
  const PhaseResult traced = workload.Measure(half);
  Tracer::SetEnabled(false);
  if (!CheckPhase(traced)) return 3;
  PrintPhase("traced", traced);

  const std::vector<SpanRecord> spans = Tracer::Collect();
  const std::vector<LayerRow> rows = BuildLayerTable(spans);
  std::printf("# per-layer table (%s, traced phase, %zu spans, wall %.2f s)\n",
              workload.name(), spans.size(), traced.wall_s);
  PrintLayerTable(rows, traced.wall_s);

  Values layers = traced.layers;
  workload.LayersFromSpans(rows, &layers);
  workload.Replay(&layers);
  layers["ml.train_s"] = Median({train1_s, train2_s});
  const double overhead =
      untraced.ops_per_s > 0.0
          ? 100.0 * (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s
          : 0.0;
  layers["trace.overhead_pct"] = overhead;
  layers["trace.spans"] = static_cast<double>(spans.size());
  std::printf("# tracing overhead (traced minus untraced): ops_per_s %+.6g "
              "(%+.2f%% slower), latency_p50_ms %+.4g, latency_tail_ms "
              "%+.4g; set-ups %.2f s / %.2f s\n",
              traced.ops_per_s - untraced.ops_per_s, overhead,
              traced.latency_p50_ms - untraced.latency_p50_ms,
              traced.latency_tail_ms - untraced.latency_tail_ms, setup1_s,
              setup2_s);

  const std::string path = args.out_dir + "/spans-" + workload.name() + "-" +
                           std::to_string(args.seed) + ".json";
  if (WriteSpans(spans, path)) {
    std::printf("# spans written to %s\n", path.c_str());
  } else {
    std::printf("# could not write spans to %s\n", path.c_str());
  }

  Report report;
  std::printf("# per-layer metrics (%s)\n", workload.name());
  for (const MetricDef& def : kPerLayer) {
    const auto it = layers.find(def.name);
    report.Metric(def.name, it == layers.end() ? 0.0 : it->second, def.unit);
  }
  std::fflush(stdout);
  std::printf("%s\n", report
                          .ResultJson(true, untraced.attempted + traced.attempted,
                                      untraced.failed + traced.failed)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const MetricDef& def : kEndToEnd) {
      std::printf("end_to_end %s %s\n", def.name, def.unit);
    }
    for (const MetricDef& def : kPerLayer) {
      std::printf("per_layer %s %s\n", def.name, def.unit);
    }
    return 0;
  }
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) Usage(("cannot create --out-dir: " + ec.message()).c_str());
  // Library INFO lines (store GC notices) would drown the report.
  geqo::SetLogLevel(geqo::LogLevel::kWarning);
  PrintHost(args);
  return args.trace ? RunTraced(args, *workload) : RunUntraced(args, *workload);
}
