#pragma once

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/geqo_system.h"
#include "workload.h"

/// \file layers.h
/// Per-layer helpers shared by the workloads: span-table lookups and the
/// replay of a workload's own inputs through the public filter and
/// verifier calls, one call at a time.

namespace perfbench {

/// Median of a named layer's span durations times \p scale (1e6 for
/// microseconds); 0 when the layer recorded no span.
double LayerMedian(const std::vector<LayerRow>& rows, const std::string& name,
                   double scale);
double LayerPercentile(const std::vector<LayerRow>& rows,
                       const std::string& name, double q, double scale);

/// Times VectorMatchingFilter::EmbedSingle and HnswIndex::SearchRadius per
/// plan, EquivalenceModelFilter::Scores per pair (batches of 64) and
/// SpesVerifier::CheckEquivalence per pair, as medians in microseconds
/// (nn.embed_us, ann.search_us, emf.score_pair_us, verify.pair_us). \p pairs
/// index \p plans.
void ReplayFilterLayers(geqo::GeqoSystem& system,
                        const std::vector<geqo::PlanPtr>& plans,
                        const std::vector<std::pair<size_t, size_t>>& pairs,
                        Values* layers);

/// Records a probe's reported stage durations (ShardedProbeResult::stages)
/// as child spans of the open span, laid back to back and ending now, named
/// "serve.<stage>".
void RecordStageSpans(const std::vector<geqo::StageReport>& stages);

/// Per-stage duration samples of ShardedProbeResult::stages.
struct StageSamples {
  std::vector<double> prepare, vmf, emf, classify;
  size_t memo_hits = 0;

  void Add(const std::vector<geqo::StageReport>& stages, size_t memo);
  void Merge(const StageSamples& other);
  /// serve.{prepare,vmf,emf,classify}_us medians.
  void Report(Values* layers) const;
};

/// Raises \p max to at least \p value.
void RaiseMax(std::atomic<uint64_t>* max, uint64_t value);

}  // namespace perfbench
