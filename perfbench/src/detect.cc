// `detect`: batch GEqO_SET. Repeated GeqoSystem::DetectEquivalences calls
// over one generated TPC-H workload with planted rewrites. EMF batch
// inference dominates; the executor, result cache and persistence do no
// work here.

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/database.h"
#include "exec/session.h"
#include "inputs.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kThreads = 4;        // the pool is the only thread budget
constexpr size_t kSubexpressions = 2000;
constexpr size_t kPlanted = 200;      // 10% of the workload

using Pairs = std::vector<std::pair<size_t, size_t>>;

double StageSeconds(const geqo::GeqoResult& result, const char* name) {
  const geqo::StageReport* stage = result.FindStage(name);
  return stage == nullptr ? 0.0 : stage->seconds;
}

size_t StagePairsOut(const geqo::GeqoResult& result, const char* name) {
  const geqo::StageReport* stage = result.FindStage(name);
  return stage == nullptr ? 0 : stage->pairs_out;
}

class DetectWorkload final : public Workload {
 public:
  const char* name() const override { return "detect"; }

  double Setup(uint64_t seed) override {
    trained_ = TrainedSystem();  // release the previous state first
    trained_ = TrainSystem();
    geqo::ThreadPool::SetGlobalThreads(kThreads);
    inputs_ = MakeDetectInputs(*trained_.catalog, kSubexpressions, kPlanted,
                               seed);
    // The first call pays lazy initialisation; its answer is the reference
    // every timed call must reproduce.
    auto first = trained_.system->DetectEquivalences(inputs_.subexpressions);
    GEQO_CHECK(first.ok()) << first.status().ToString();
    reference_ = first->equivalences;
    data_.default_rows = 100;
    data_.key_cardinality = 20;
    data_.seed = seed ^ 0xD1FFu;
    std::printf("# detect: N=%zu subexpressions, %zu planted, %zu total "
                "pairs, %zu reported equivalences\n",
                inputs_.subexpressions.size(), inputs_.planted.size(),
                inputs_.TotalPairs(), reference_.size());
    return trained_.train_seconds;
  }

  PhaseResult Measure(double seconds) override {
    PhaseResult out;
    std::vector<double> call_ms;
    std::vector<double> pairs_per_s;
    std::vector<double> encode_s, sf_s, vmf_s, emf_s, verify_s;
    geqo::GeqoResult last;
    geqo::Stopwatch wall;
    do {
      ++out.attempted;
      CallResult result = Call();
      if (!result.ok) {
        ++out.failed;
        continue;
      }
      if (result.value.equivalences != reference_) {
        out.correct = false;
        out.error = "equivalence list differs between repetitions";
        return out;
      }
      call_ms.push_back(result.seconds * 1e3);
      pairs_per_s.push_back(static_cast<double>(result.value.total_pairs) /
                            result.seconds);
      encode_s.push_back(StageSeconds(result.value, "encode"));
      sf_s.push_back(StageSeconds(result.value, "sf"));
      vmf_s.push_back(StageSeconds(result.value, "vmf"));
      emf_s.push_back(StageSeconds(result.value, "emf"));
      verify_s.push_back(StageSeconds(result.value, "verify"));
      last = std::move(result.value);
    } while (wall.ElapsedSeconds() < seconds);
    out.wall_s = wall.ElapsedSeconds();
    out.ops_per_s = Median(pairs_per_s);
    const Summary calls = Summarize(call_ms);
    out.latency_p50_ms = calls.median;
    // Ten or so calls leave no percentile with ten samples beyond it; the
    // tail is the p90 call (nearest rank), reported with its count.
    std::vector<double> sorted_ms = call_ms;
    std::sort(sorted_ms.begin(), sorted_ms.end());
    out.latency_tail_ms = Percentile(sorted_ms, 0.9);
    Report::PrintSummary("detect.call_ms", calls, "ms");

    std::vector<std::pair<size_t, size_t>> found = reference_;
    std::sort(found.begin(), found.end());
    for (const auto& pair : inputs_.planted) {
      if (std::binary_search(found.begin(), found.end(), pair)) {
        ++out.recall_found;
      }
    }
    out.recall_planted = inputs_.planted.size();

    Values& layers = out.layers;
    layers["detect.encode_s"] = Median(encode_s);
    layers["detect.sf_s"] = Median(sf_s);
    layers["detect.vmf_s"] = Median(vmf_s);
    layers["detect.emf_s"] = Median(emf_s);
    layers["detect.verify_s"] = Median(verify_s);
    layers["detect.sf_pairs_out"] = StagePairsOut(last, "sf");
    layers["detect.vmf_pairs_out"] = StagePairsOut(last, "vmf");
    layers["detect.emf_pairs_out"] = StagePairsOut(last, "emf");
    const size_t verified = StagePairsOut(last, "emf");
    layers["detect.verify_yield"] = Ratio(last.equivalences.size(), verified);
    std::printf("  funnel: %llu pairs -> sf %zu -> vmf %zu -> emf %zu -> "
                "verified equivalent %zu; %s\n",
                static_cast<unsigned long long>(last.total_pairs),
                StagePairsOut(last, "sf"), StagePairsOut(last, "vmf"),
                verified, last.equivalences.size(),
                FormatRatio("verify_yield", last.equivalences.size(), verified)
                    .c_str());

    // Differential soundness check, outside the timed loop: every reported
    // pair must return the same bag of rows on a generated database.
    const std::string unsound = CheckReportedPairs();
    if (!unsound.empty()) {
      out.correct = false;
      out.error = unsound;
    }
    return out;
  }

  void Replay(Values* layers) override {
    // The pairs the verifier sees here: the EMF survivors, led by the
    // planted ones.
    Pairs pairs = inputs_.planted;
    for (const auto& pair : reference_) {
      if (pairs.size() >= 512) break;
      pairs.push_back(pair);
    }
    std::vector<geqo::PlanPtr> sample(inputs_.subexpressions.begin(),
                                      inputs_.subexpressions.end());
    ReplayFilterLayers(*trained_.system, sample, pairs, layers);
  }

 private:
  struct CallResult {
    bool ok = false;
    double seconds = 0.0;
    geqo::GeqoResult value;
  };

  CallResult Call() {
    ScopedSpan span("detect.call");
    const int64_t start_ns = Tracer::NowNs();
    geqo::Stopwatch watch;
    auto result = trained_.system->DetectEquivalences(inputs_.subexpressions);
    CallResult out;
    out.seconds = watch.ElapsedSeconds();
    if (!result.ok()) return out;
    out.ok = true;
    out.value = std::move(*result);
    // The pipeline runs its stages back to back; lay their reported
    // durations out as child spans of the call.
    int64_t cursor = start_ns;
    for (const geqo::StageReport& stage : out.value.stages) {
      const int64_t end = cursor + static_cast<int64_t>(stage.seconds * 1e9);
      Tracer::RecordChild(StageSpanName(stage.name), cursor, end);
      cursor = end;
    }
    return out;
  }

  static const char* StageSpanName(const std::string& stage) {
    if (stage == "encode") return "detect.encode";
    if (stage == "sf") return "detect.sf";
    if (stage == "vmf") return "detect.vmf";
    if (stage == "emf") return "detect.emf";
    if (stage == "verify") return "detect.verify";
    return "detect.other";
  }

  std::string CheckReportedPairs() const {
    const geqo::Database database =
        geqo::Database::Generate(*trained_.catalog, data_);
    const geqo::exec::ExecutionSession session(&database);
    for (const auto& [i, j] : reference_) {
      auto lhs = session.Execute(inputs_.subexpressions[i]);
      auto rhs = session.Execute(inputs_.subexpressions[j]);
      if (!lhs.ok() || !rhs.ok()) {
        return "execution failed on a reported pair";
      }
      if (!lhs->BagEquals(*rhs)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "reported equivalent pair (%zu, %zu) returns different "
                      "rows",
                      i, j);
        return buf;
      }
    }
    return "";
  }

  TrainedSystem trained_;
  DetectInputs inputs_;
  Pairs reference_;
  geqo::DataGenOptions data_;
};

}  // namespace

std::unique_ptr<Workload> MakeDetectWorkload() {
  return std::make_unique<DetectWorkload>();
}

}  // namespace perfbench
