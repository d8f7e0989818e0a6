#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file trace.h
/// Span recording for the traced run. Spans are recorded only in benchmark
/// code, around each public library call a workload makes; each carries a
/// name, start, end, its parent span and a request id shared by every span
/// of one request. Spans stay in per-thread memory and are collected and
/// written out when the run ends. With tracing disabled a ScopedSpan costs
/// one relaxed load and records nothing.

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string
  uint64_t id = 0;        ///< unique, > 0
  uint64_t parent = 0;    ///< 0 for a root span
  uint64_t request = 0;   ///< shared by the spans of one request
  uint32_t thread = 0;    ///< dense per-thread index
  int64_t start_ns = 0;   ///< steady clock, relative to the trace epoch
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// Nanoseconds since the trace epoch (steady clock).
  static int64_t NowNs();
  /// Moves every recorded span out of the per-thread buffers. Call only
  /// after every recording thread has been joined.
  static std::vector<SpanRecord> Collect();
  /// Drops every recorded span.
  static void Clear();
  /// Records a completed child of the innermost open span on this thread
  /// (used for library stage durations returned in StageReports).
  static void RecordChild(const char* name, int64_t start_ns, int64_t end_ns);
};

/// \brief RAII span. A root span starts a new request; nested spans inherit
/// the request of their parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// \brief One row of the per-layer table.
struct LayerRow {
  std::string name;
  size_t count = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< minus the time covered by child spans
  std::vector<double> durations_s;
};

/// Aggregates spans by name; self time is each span's duration minus the
/// part of its interval covered by its direct children.
std::vector<LayerRow> BuildLayerTable(const std::vector<SpanRecord>& spans);

/// Prints the table with each layer's self time as a share of \p wall_s.
void PrintLayerTable(const std::vector<LayerRow>& rows, double wall_s);

/// Finds a row by name (nullptr when absent).
const LayerRow* FindLayer(const std::vector<LayerRow>& rows,
                          const std::string& name);

/// Writes spans in Chrome trace-event JSON ("ph":"X", microseconds).
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench
