#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 0.5);
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.median = Percentile(samples, 0.5);
  summary.max = samples.back();
  summary.tail = summary.max;
  summary.tail_label = "max";
  struct Level {
    double q;
    const char* label;
  };
  static constexpr Level kLadder[] = {{0.999, "p99.9"}, {0.99, "p99"},
                                      {0.95, "p95"},    {0.90, "p90"},
                                      {0.75, "p75"},    {0.50, "p50"}};
  for (const Level& level : kLadder) {
    const size_t rank = static_cast<size_t>(
        std::ceil(level.q * static_cast<double>(samples.size())));
    if (samples.size() - std::max<size_t>(rank, 1) >= 10) {
      summary.tail = Percentile(samples, level.q);
      summary.tail_label = level.label;
      break;
    }
  }
  return summary;
}

WindowCounter::WindowCounter(double window_s, double span_s)
    : window_s_(window_s),
      counts_(static_cast<size_t>(std::ceil(span_s / window_s)), 0) {}

void WindowCounter::Add(double t) {
  const size_t w = static_cast<size_t>(t / window_s_);
  if (t >= 0.0 && w < counts_.size()) ++counts_[w];
}

void WindowCounter::Merge(const WindowCounter& other) {
  for (size_t w = 0; w < counts_.size() && w < other.counts_.size(); ++w) {
    counts_[w] += other.counts_[w];
  }
}

std::vector<double> WindowCounter::Rates(double end_s) const {
  std::vector<double> rates;
  for (size_t w = 0; w < counts_.size(); ++w) {
    if (static_cast<double>(w + 1) * window_s_ > end_s + 1e-9) break;
    rates.push_back(static_cast<double>(counts_[w]) / window_s_);
  }
  return rates;
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed) {
  samples_.reserve(capacity);
}

void Reservoir::Add(double value) {
  ++offered_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // splitmix64
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const uint64_t slot = z % offered_;
  if (slot < capacity_) samples_[slot] = value;
}

double Ratio(uint64_t numerator, uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

std::string FormatRatio(const std::string& name, uint64_t numerator,
                        uint64_t denominator) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s=%.4f (%llu/%llu)", name.c_str(),
                Ratio(numerator, denominator),
                static_cast<unsigned long long>(numerator),
                static_cast<unsigned long long>(denominator));
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
  std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::PrintSummary(const std::string& name, const Summary& summary,
                          const std::string& unit) {
  std::printf("  %-28s p50=%.4g %s  %s=%.4g %s  (n=%zu)\n", name.c_str(),
              summary.median, unit.c_str(), summary.tail_label.c_str(),
              summary.tail, unit.c_str(), summary.count);
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
