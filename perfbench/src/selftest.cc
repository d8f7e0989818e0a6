// perfbench_selftest: checks the benchmark's own helpers — percentiles and
// report formatting, window statistics, span self-time accounting — and
// that a seed regenerates byte-identical workload inputs. Exits non-zero on
// the first failed check. Run it through `python3 perfbench/run.py
// --selftest`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "workload/schemas.h"

namespace perfbench {
namespace {

int g_checks = 0;

#define SELFTEST_CHECK(cond)                                              \
  do {                                                                    \
    ++g_checks;                                                           \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

std::vector<double> Iota(size_t n) {
  std::vector<double> out;
  for (size_t i = 1; i <= n; ++i) out.push_back(static_cast<double>(i));
  return out;
}

void TestPercentiles() {
  const std::vector<double> hundred = Iota(100);
  SELFTEST_CHECK(Percentile(hundred, 0.5) == 50.0);
  SELFTEST_CHECK(Percentile(hundred, 0.99) == 99.0);
  SELFTEST_CHECK(Percentile(hundred, 1.0) == 100.0);
  SELFTEST_CHECK(Percentile(hundred, 0.0) == 1.0);
  SELFTEST_CHECK(Percentile({}, 0.5) == 0.0);
  SELFTEST_CHECK(Median({3.0, 1.0, 2.0}) == 2.0);

  // The tail is the highest percentile with at least ten samples above it.
  Summary s = Summarize(Iota(1000));
  SELFTEST_CHECK(s.count == 1000 && s.tail_label == "p99" && s.tail == 990.0);
  s = Summarize(Iota(999));
  SELFTEST_CHECK(s.tail_label == "p95");
  s = Summarize(Iota(10000));
  SELFTEST_CHECK(s.tail_label == "p99.9" && s.tail == 9990.0);
  s = Summarize(Iota(20));
  SELFTEST_CHECK(s.tail_label == "p50" && s.median == 10.0);
  s = Summarize(Iota(5));
  SELFTEST_CHECK(s.tail_label == "max" && s.tail == 5.0 && s.max == 5.0);
}

void TestWindows() {
  // 10 completions in [0,1), 20 in [1,2), 5 in the partial window [2,2.5),
  // one past the span.
  WindowCounter first(1.0, 2.5);
  WindowCounter second(1.0, 2.5);
  for (int i = 0; i < 10; ++i) first.Add(0.05 + 0.09 * i);
  for (int i = 0; i < 20; ++i) second.Add(1.02 + 0.045 * i);
  for (int i = 0; i < 5; ++i) second.Add(2.1 + 0.05 * i);
  second.Add(2.6);
  first.Merge(second);
  const std::vector<double> rates = first.Rates(2.5);
  SELFTEST_CHECK(rates.size() == 2 && rates[0] == 10.0 && rates[1] == 20.0);
  SELFTEST_CHECK(first.Rates(1.5).size() == 1);
  SELFTEST_CHECK(WindowCounter(1.0, 3.0).Rates(3.0).size() == 3);
}

void TestReservoir() {
  // Below capacity the reservoir keeps every value; above it, a uniform
  // sample: the median of 1..100000 sampled 10000 times stays near 50000.
  Reservoir small(10, 1);
  for (int i = 0; i < 5; ++i) small.Add(i);
  SELFTEST_CHECK(small.offered() == 5 && small.samples().size() == 5);
  Reservoir big(10000, 1);
  for (int i = 1; i <= 100000; ++i) big.Add(i);
  SELFTEST_CHECK(big.offered() == 100000 && big.samples().size() == 10000);
  const double median = Median(big.samples());
  SELFTEST_CHECK(median > 48000.0 && median < 52000.0);
  Reservoir again(10000, 1);
  for (int i = 1; i <= 100000; ++i) again.Add(i);
  SELFTEST_CHECK(again.samples() == big.samples());
}

void TestReport() {
  SELFTEST_CHECK(FormatRatio("hit", 19, 20) == "hit=0.9500 (19/20)");
  SELFTEST_CHECK(FormatRatio("hit", 0, 0) == "hit=0.0000 (0/0)");
  SELFTEST_CHECK(Ratio(1, 4) == 0.25 && Ratio(3, 0) == 0.0);
  Report report;
  report.Metric("a_ms", 1.25, "ms");
  report.Metric("b", std::nan(""), "count");
  SELFTEST_CHECK(report.ResultJson(true, 7, 1) ==
                 "{\"correct\": true, \"attempted\": 7, \"failed\": 1, "
                 "\"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
                 "\"b\": {\"value\": 0, \"unit\": \"count\"}}}");
}

void TestSpans() {
  // Hand-built: a 100 ns root with children covering [10,30) and [20,60):
  // their union is 50 ns, so the root's self time is 50 ns.
  std::vector<SpanRecord> spans(3);
  spans[0] = SpanRecord{"root", 1, 0, 1, 0, 0, 100};
  spans[1] = SpanRecord{"child", 2, 1, 1, 0, 10, 30};
  spans[2] = SpanRecord{"child", 3, 1, 1, 0, 20, 60};
  const std::vector<LayerRow> rows = BuildLayerTable(spans);
  const LayerRow* root = FindLayer(rows, "root");
  const LayerRow* child = FindLayer(rows, "child");
  SELFTEST_CHECK(root != nullptr && child != nullptr);
  SELFTEST_CHECK(std::abs(root->self_s - 50e-9) < 1e-15);
  SELFTEST_CHECK(child->count == 2 && std::abs(child->total_s - 60e-9) < 1e-15);

  // Recorded spans nest by thread and share the root's request id.
  Tracer::Clear();
  { ScopedSpan ignored("off"); }
  SELFTEST_CHECK(Tracer::Collect().empty());
  Tracer::SetEnabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    const int64_t start = Tracer::NowNs();
    Tracer::RecordChild("stage", start, start + 5);
  }
  { ScopedSpan next("next"); }
  Tracer::SetEnabled(false);
  const std::vector<SpanRecord> recorded = Tracer::Collect();
  SELFTEST_CHECK(recorded.size() == 4);
  const SpanRecord* outer = nullptr;
  for (const SpanRecord& span : recorded) {
    if (std::string(span.name) == "outer") outer = &span;
  }
  SELFTEST_CHECK(outer != nullptr && outer->parent == 0);
  for (const SpanRecord& span : recorded) {
    const std::string name = span.name;
    if (name == "inner" || name == "stage") {
      SELFTEST_CHECK(span.parent == outer->id &&
                     span.request == outer->request);
    }
    if (name == "next") SELFTEST_CHECK(span.request != outer->request);
    SELFTEST_CHECK(span.end_ns >= span.start_ns);
  }
}

std::string ArrivalText(const std::vector<uint32_t>& arrivals) {
  std::string out;
  for (uint32_t a : arrivals) out += std::to_string(a) + ",";
  return out;
}

std::string PairText(const std::vector<std::pair<size_t, size_t>>& pairs) {
  std::string out;
  for (const auto& [i, j] : pairs) {
    out += std::to_string(i) + ":" + std::to_string(j) + ",";
  }
  return out;
}

void TestInputsAreSeeded() {
  const geqo::Catalog catalog = geqo::MakeTpchCatalog();

  const auto detect = [&](uint64_t seed) {
    const DetectInputs in = MakeDetectInputs(catalog, 120, 12, seed);
    return InputFingerprint(in.subexpressions) + PairText(in.planted);
  };
  SELFTEST_CHECK(detect(7) == detect(7));
  SELFTEST_CHECK(detect(7) != detect(8));

  const auto reuse = [&](uint64_t seed) {
    const ReuseInputs in = MakeReuseInputs(catalog, 20, 3, 30, 2000, 100, seed);
    return InputFingerprint(in.texts) + ArrivalText(in.arrivals) +
           std::to_string(in.data.seed);
  };
  SELFTEST_CHECK(reuse(7) == reuse(7));
  SELFTEST_CHECK(reuse(7) != reuse(8));
  // The fixture part of the stream is the same for every seed.
  const ReuseInputs r7 = MakeReuseInputs(catalog, 20, 3, 30, 2000, 100, 7);
  const ReuseInputs r8 = MakeReuseInputs(catalog, 20, 3, 30, 2000, 100, 8);
  SELFTEST_CHECK(InputFingerprint({r7.texts.begin(), r7.texts.begin() + 80}) ==
                 InputFingerprint({r8.texts.begin(), r8.texts.begin() + 80}));
  SELFTEST_CHECK(std::equal(r7.arrivals.begin(), r7.arrivals.begin() + 100,
                            r8.arrivals.begin()));
  SELFTEST_CHECK(!std::equal(r7.arrivals.begin() + 100, r7.arrivals.end(),
                             r8.arrivals.begin() + 100));

  const auto ingest = [&](uint64_t seed) {
    const IngestInputs in = MakeIngestInputs(catalog, 50, 200, 0.1, 40, seed);
    return InputFingerprint(in.warm) + InputFingerprint(in.stream) +
           InputFingerprint(in.probes) + PairText(in.planted);
  };
  SELFTEST_CHECK(ingest(7) == ingest(7));
  SELFTEST_CHECK(ingest(7) != ingest(8));

  // Shapes the workloads rely on.
  const DetectInputs d = MakeDetectInputs(catalog, 120, 12, 3);
  SELFTEST_CHECK(d.subexpressions.size() == 120 && d.planted.size() == 12);
  SELFTEST_CHECK(d.TotalPairs() == 120 * 119 / 2);
  for (const auto& [i, j] : d.planted) SELFTEST_CHECK(i < j && j < 120);
  const ReuseInputs r = MakeReuseInputs(catalog, 20, 3, 30, 2000, 100, 3);
  SELFTEST_CHECK(r.texts.size() == 20 * 4 + 30 && r.arrivals.size() == 2000);
  for (uint32_t a : r.arrivals) SELFTEST_CHECK(a < r.texts.size());
  SELFTEST_CHECK(r.ClassOfText(5) == 1 && r.ClassOfText(80) == 20);
  const IngestInputs g = MakeIngestInputs(catalog, 50, 200, 0.1, 40, 3);
  SELFTEST_CHECK(g.warm.size() == 50 && g.stream.size() == 200 &&
                 g.probes.size() == 40 && !g.planted.empty());
  for (const auto& [source, rewrite] : g.planted) {
    SELFTEST_CHECK(source < rewrite && rewrite < 250);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentiles();
  TestWindows();
  TestReservoir();
  TestReport();
  TestSpans();
  TestInputsAreSeeded();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
