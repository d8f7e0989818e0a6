#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file stats.h
/// Percentiles and the run report. Timings are summarised as a median plus
/// the highest percentile that still has at least ten samples beyond it,
/// always with the sample count; every ratio carries its numerator and
/// denominator.

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample, q in [0, 1].
/// Returns 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (the nearest-rank 0.5 percentile).
double Median(std::vector<double> samples);

/// \brief A timing distribution: median and the guide's tail percentile.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  /// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
  /// above it; the maximum when no percentile qualifies (count < 11).
  double tail = 0.0;
  std::string tail_label;  ///< "p99", "p99.9", ... or "max"
  double max = 0.0;
};
Summary Summarize(std::vector<double> samples);

/// \brief Completions per fixed-length window of a phase, in memory that
/// does not grow with the number of completions. The median of the
/// windows' rates is robust to a short stall of the host.
class WindowCounter {
 public:
  /// Windows of \p window_s seconds covering [0, \p span_s).
  WindowCounter(double window_s, double span_s);
  /// Counts a completion \p t seconds after the start of the phase.
  void Add(double t);
  void Merge(const WindowCounter& other);
  /// Completions per second in each full window that ends by \p end_s.
  std::vector<double> Rates(double end_s) const;

 private:
  double window_s_;
  std::vector<uint64_t> counts_;
};

/// \brief A uniform sample of at most `capacity` values from a stream
/// (Algorithm R), so memory stays fixed however many values are offered.
/// The replacement draws come from \p seed, so a sample is reproducible.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void Add(double value);
  uint64_t offered() const { return offered_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  size_t capacity_;
  uint64_t offered_ = 0;
  uint64_t state_;
  std::vector<double> samples_;
};

/// "name=0.9500 (19/20)"; a zero denominator prints the ratio as 0.
std::string FormatRatio(const std::string& name, uint64_t numerator,
                        uint64_t denominator);
double Ratio(uint64_t numerator, uint64_t denominator);

/// \brief Collects metrics for one run and renders both the human report
/// and the final machine-readable result line.
class Report {
 public:
  /// Records a metric for the result line and prints "name value unit".
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints a timing summary line ("name p50=.. p99=.. n=..") without
  /// adding it to the result line.
  static void PrintSummary(const std::string& name, const Summary& summary,
                           const std::string& unit);

  /// The final result line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..},...}} with values printed to
  /// full double precision. Non-finite values are rendered as 0.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
