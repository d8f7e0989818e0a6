#pragma once

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/geqo.h"
#include "tensor/kernels/kernel_table.h"

/// \file stage_scope.h
/// Shared stage accounting for cascade runners. Both the batch pipeline
/// (GeqoPipeline::DetectEquivalences) and the serving layer
/// (serve::ShardedCatalog::Probe) report their work as an ordered
/// std::vector<StageReport>; StageScope is the one implementation of "time a
/// stage, open a tracing span, capture the registry delta".

namespace geqo {

/// Measures one pipeline stage: wall clock, a tracing span, and — when
/// metrics are enabled — the global registry delta attributable to the
/// stage. Instantiate at stage entry, call Finish(&report) at stage exit.
class StageScope {
 public:
  explicit StageScope(const char* name) : span_(name) {
    if (obs::MetricsEnabled()) {
      before_ = obs::MetricsRegistry::Global().Snapshot();
      metered_ = true;
    }
  }

  void Finish(StageReport* report) {
    report->seconds = watch_.ElapsedSeconds();
    if (metered_) {
      report->metrics =
          obs::MetricsRegistry::Global().Snapshot().DeltaSince(before_);
    }
  }

 private:
  obs::Span span_;
  Stopwatch watch_;
  obs::MetricsSnapshot before_;
  bool metered_ = false;
};

inline StageReport MakeStage(const char* name, bool enabled) {
  StageReport report;
  report.name = name;
  report.enabled = enabled;
  report.isa = kernels::ActiveIsaName();
  return report;
}

}  // namespace geqo
