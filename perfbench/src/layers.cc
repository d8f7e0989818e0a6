#include "layers.h"

#include <algorithm>

#include "ann/hnsw.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "encode/encoding.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
#include "verify/verifier.h"

namespace perfbench {

double LayerPercentile(const std::vector<LayerRow>& rows,
                       const std::string& name, double q, double scale) {
  const LayerRow* row = FindLayer(rows, name);
  if (row == nullptr) return 0.0;
  std::vector<double> sorted = row->durations_s;
  std::sort(sorted.begin(), sorted.end());
  return Percentile(sorted, q) * scale;
}

double LayerMedian(const std::vector<LayerRow>& rows, const std::string& name,
                   double scale) {
  return LayerPercentile(rows, name, 0.5, scale);
}

void ReplayFilterLayers(geqo::GeqoSystem& system,
                        const std::vector<geqo::PlanPtr>& plans,
                        const std::vector<std::pair<size_t, size_t>>& pairs,
                        Values* layers) {
  const geqo::GeqoOptions& options = system.pipeline().options();
  const geqo::PlanEncoder encoder(&system.instance_layout(), &system.catalog(),
                                  system.value_range());
  std::vector<geqo::EncodedPlan> encoded;
  encoded.reserve(plans.size());
  for (const geqo::PlanPtr& plan : plans) {
    auto one = encoder.Encode(plan);
    GEQO_CHECK(one.ok()) << one.status().ToString();
    encoded.push_back(std::move(*one));
  }

  // nn: one embedding per plan (the first kMaxEmbedded plans).
  constexpr size_t kMaxEmbedded = 500;
  const geqo::VectorMatchingFilter vmf(&system.model(),
                                       &system.instance_layout(),
                                       &system.agnostic_layout(), options.vmf);
  std::vector<std::vector<float>> embeddings;
  std::vector<double> embed_s;
  for (size_t i = 0; i < std::min(encoded.size(), kMaxEmbedded); ++i) {
    geqo::Stopwatch watch;
    auto embedding = vmf.EmbedSingle(encoded[i]);
    embed_s.push_back(watch.ElapsedSeconds());
    GEQO_CHECK(embedding.ok()) << embedding.status().ToString();
    embeddings.push_back(std::move(*embedding));
  }
  (*layers)["nn.embed_us"] = Median(embed_s) * 1e6;

  // ann: radius search of every plan against an index of all of them.
  if (!embeddings.empty()) {
    geqo::ann::HnswIndex index(embeddings.front().size(), options.vmf.hnsw);
    for (const auto& embedding : embeddings) index.Add(embedding);
    std::vector<double> search_s;
    for (const auto& embedding : embeddings) {
      geqo::Stopwatch watch;
      index.SearchRadius(embedding.data(), options.vmf.radius);
      search_s.push_back(watch.ElapsedSeconds());
    }
    (*layers)["ann.search_us"] = Median(search_s) * 1e6;
  }

  // emf: batched pair scoring, per pair.
  const geqo::EquivalenceModelFilter emf(&system.model(),
                                         &system.instance_layout(),
                                         &system.agnostic_layout(),
                                         options.emf);
  constexpr size_t kEmfBatch = 64;
  std::vector<double> score_s;
  for (size_t begin = 0; begin + kEmfBatch <= pairs.size(); begin += kEmfBatch) {
    const std::vector<std::pair<size_t, size_t>> batch(
        pairs.begin() + static_cast<std::ptrdiff_t>(begin),
        pairs.begin() + static_cast<std::ptrdiff_t>(begin + kEmfBatch));
    geqo::Stopwatch watch;
    auto scores = emf.Scores(batch, encoded);
    score_s.push_back(watch.ElapsedSeconds() / kEmfBatch);
    GEQO_CHECK(scores.ok()) << scores.status().ToString();
  }
  (*layers)["emf.score_pair_us"] = Median(score_s) * 1e6;

  // verify: the in-process DPLL(T) check, no modeled stall.
  geqo::SpesVerifier verifier(&system.catalog());
  std::vector<double> verify_s;
  for (const auto& [i, j] : pairs) {
    geqo::Stopwatch watch;
    verifier.CheckEquivalence(plans[i], plans[j]);
    verify_s.push_back(watch.ElapsedSeconds());
  }
  (*layers)["verify.pair_us"] = Median(verify_s) * 1e6;
}

void RecordStageSpans(const std::vector<geqo::StageReport>& stages) {
  if (!Tracer::enabled()) return;
  double total = 0.0;
  for (const auto& stage : stages) total += stage.seconds;
  int64_t cursor = Tracer::NowNs() - static_cast<int64_t>(total * 1e9);
  for (const auto& stage : stages) {
    const int64_t end = cursor + static_cast<int64_t>(stage.seconds * 1e9);
    const char* name = stage.name == "prepare"    ? "serve.prepare"
                       : stage.name == "sf"       ? "serve.sf"
                       : stage.name == "vmf"      ? "serve.vmf"
                       : stage.name == "emf"      ? "serve.emf"
                       : stage.name == "classify" ? "serve.classify"
                                                  : "serve.other";
    Tracer::RecordChild(name, cursor, end);
    cursor = end;
  }
}

void StageSamples::Add(const std::vector<geqo::StageReport>& stages,
                       size_t memo) {
  memo_hits += memo;
  for (const auto& stage : stages) {
    if (stage.name == "prepare") prepare.push_back(stage.seconds);
    if (stage.name == "vmf") vmf.push_back(stage.seconds);
    if (stage.name == "emf") emf.push_back(stage.seconds);
    if (stage.name == "classify") classify.push_back(stage.seconds);
  }
}

void StageSamples::Merge(const StageSamples& other) {
  memo_hits += other.memo_hits;
  for (auto [mine, theirs] :
       {std::pair{&prepare, &other.prepare}, std::pair{&vmf, &other.vmf},
        std::pair{&emf, &other.emf}, std::pair{&classify, &other.classify}}) {
    mine->insert(mine->end(), theirs->begin(), theirs->end());
  }
}

void StageSamples::Report(Values* layers) const {
  (*layers)["serve.prepare_us"] = Median(prepare) * 1e6;
  (*layers)["serve.vmf_us"] = Median(vmf) * 1e6;
  (*layers)["serve.emf_us"] = Median(emf) * 1e6;
  (*layers)["serve.classify_us"] = Median(classify) * 1e6;
}

void RaiseMax(std::atomic<uint64_t>* max, uint64_t value) {
  uint64_t seen = max->load(std::memory_order_relaxed);
  while (value > seen && !max->compare_exchange_weak(seen, value)) {
  }
}

}  // namespace perfbench
