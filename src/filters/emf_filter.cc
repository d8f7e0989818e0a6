#include "filters/emf_filter.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "ml/trainer.h"
#include "obs/metrics.h"

namespace geqo {

Result<std::vector<float>> EquivalenceModelFilter::Scores(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<EncodedPlan>& instance_encoded) const {
  std::vector<const EncodedPlan*> views;
  views.reserve(instance_encoded.size());
  for (const EncodedPlan& plan : instance_encoded) views.push_back(&plan);
  return Scores(pairs, views);
}

Result<std::vector<float>> EquivalenceModelFilter::Scores(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<const EncodedPlan*>& instance_encoded) const {
  if (pairs.empty()) return std::vector<float>();
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);
  const size_t num_batches = (pairs.size() + batch_size - 1) / batch_size;
  // Side 2p is pair p's lhs plan, side 2p + 1 its rhs plan.
  const size_t num_sides = 2 * pairs.size();
  auto plan_of = [&](size_t side) {
    return side % 2 == 0 ? pairs[side / 2].first : pairs[side / 2].second;
  };

  // Each plan's reference mask, once; a pair's union mask is the OR of two.
  std::vector<uint8_t> used(instance_encoded.size(), 0);
  for (const auto& [a, b] : pairs) used[a] = used[b] = 1;
  std::vector<ReferenceMask> masks(instance_encoded.size());
  ParallelFor(0, masks.size(), [&](size_t i) {
    if (used[i]) {
      masks[i] = ReferenceMask::Of(*instance_layout_, *instance_encoded[i]);
    }
  });
  // Pairwise fast conversion (§4.2.1): slot maps over the two members only.
  auto reset_for_pair = [&](size_t p, ReferenceMask* mask,
                            AgnosticConverter* converter) {
    *mask = masks[pairs[p].first];
    mask->Union(masks[pairs[p].second]);
    return converter->Reset(*mask);
  };

  // Conversion keys. Convert(plan) reads the pair's slot maps only at the
  // slots the plan itself marks (its other slots are zero and stay zero), so
  // the plan plus the agnostic slots of its marked slots fix its converted
  // encoding exactly. A side's key is those mapped slots, table slots first.
  std::vector<size_t> key_offset(num_sides + 1, 0);
  for (size_t side = 0; side < num_sides; ++side) {
    key_offset[side + 1] = key_offset[side] + masks[plan_of(side)].Count();
  }
  std::vector<uint32_t> keys(key_offset[num_sides]);
  std::vector<Status> batch_status(num_batches);
  ParallelFor(0, num_batches, [&](size_t batch_index) {
    const size_t begin = batch_index * batch_size;
    const size_t end = std::min(begin + batch_size, pairs.size());
    AgnosticConverter converter(instance_layout_, agnostic_layout_);
    ReferenceMask mask;
    for (size_t p = begin; p < end; ++p) {
      const Status status = reset_for_pair(p, &mask, &converter);
      if (!status.ok()) {
        batch_status[batch_index] = status;
        return;
      }
      for (const size_t side : {2 * p, 2 * p + 1}) {
        const ReferenceMask& own = masks[plan_of(side)];
        uint32_t* key = keys.data() + key_offset[side];
        ReferenceMask::ForEachSlot(own.tables, [&](size_t t) {
          *key++ = static_cast<uint32_t>(converter.MappedTable(t));
        });
        ReferenceMask::ForEachSlot(own.columns, [&](size_t c) {
          *key++ = static_cast<uint32_t>(converter.MappedColumn(c));
        });
      }
    }
  });
  // Deterministic error selection: each batch stops at its first failing
  // pair, so the first failing batch holds the first failing pair.
  for (const Status& status : batch_status) {
    if (!status.ok()) return status;
  }

  // Distinct conversions in pair order: conversion u first appears at side
  // first_side[u], and row[side] is the conversion (embedding row) of a side.
  std::vector<size_t> first_side;
  std::vector<uint32_t> row(num_sides);
  std::vector<std::vector<uint32_t>> plan_conversions(instance_encoded.size());
  for (size_t side = 0; side < num_sides; ++side) {
    auto same_key = [&](uint32_t u) {
      return std::equal(keys.begin() + key_offset[side],
                        keys.begin() + key_offset[side + 1],
                        keys.begin() + key_offset[first_side[u]]);
    };
    std::vector<uint32_t>& seen = plan_conversions[plan_of(side)];
    const auto it = std::find_if(seen.begin(), seen.end(), same_key);
    if (it != seen.end()) {
      row[side] = *it;
    } else {
      row[side] = static_cast<uint32_t>(first_side.size());
      seen.push_back(row[side]);
      first_side.push_back(side);
    }
  }

  // Trunk: embed each distinct conversion once. A trunk row depends on its
  // own tree only (EmfModel::Embed), so the chunking does not change it.
  const size_t num_conversions = first_side.size();
  const size_t dim = model_->embedding_dim();
  Tensor embeddings(num_conversions, dim);
  const size_t num_chunks = (num_conversions + batch_size - 1) / batch_size;
  ParallelFor(0, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * batch_size;
    const size_t end = std::min(begin + batch_size, num_conversions);
    AgnosticConverter converter(instance_layout_, agnostic_layout_);
    ReferenceMask mask;
    std::vector<EncodedPlan> converted;
    converted.reserve(end - begin);
    for (size_t u = begin; u < end; ++u) {
      // The key pass already built these maps once without error.
      GEQO_CHECK_OK(reset_for_pair(first_side[u] / 2, &mask, &converter));
      converted.push_back(
          converter.Convert(*instance_encoded[plan_of(first_side[u])]));
    }
    std::vector<const EncodedPlan*> views;
    views.reserve(converted.size());
    for (const EncodedPlan& plan : converted) views.push_back(&plan);
    const Tensor chunk_embeddings = model_->Embed(views);
    std::copy(chunk_embeddings.Row(0),
              chunk_embeddings.Row(0) + (end - begin) * dim,
              embeddings.Row(begin));
  });

  // Head: the same batch_size pair batches as a per-pair conversion would
  // feed it. With GEQO_QUANT on, a head batch of >= 8 rows runs int8, so
  // keeping the batches keeps every score bit-identical to scoring the
  // batch's converted pairs with PredictProba. As in every region above,
  // workers write disjoint slots and call only re-entrant model inference
  // (EmfModel class comment).
  std::vector<float> scores(pairs.size());
  ParallelFor(0, num_batches, [&](size_t batch_index) {
    const size_t begin = batch_index * batch_size;
    const size_t end = std::min(begin + batch_size, pairs.size());
    Tensor lhs(end - begin, dim);
    Tensor rhs(end - begin, dim);
    for (size_t p = begin; p < end; ++p) {
      const float* a = embeddings.Row(row[2 * p]);
      const float* b = embeddings.Row(row[2 * p + 1]);
      std::copy(a, a + dim, lhs.Row(p - begin));
      std::copy(b, b + dim, rhs.Row(p - begin));
    }
    const Tensor probs = nn::Sigmoid(model_->InferHead(lhs, rhs));
    for (size_t i = 0; i < probs.rows(); ++i) {
      scores[begin + i] = probs.At(i, 0);
    }
  });

  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("emf.pairs_scored").Add(pairs.size());
    registry.GetCounter("emf.trunk_rows").Add(num_conversions);
  }
  return scores;
}

Result<std::vector<std::pair<size_t, size_t>>> EquivalenceModelFilter::Filter(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<EncodedPlan>& instance_encoded) const {
  GEQO_ASSIGN_OR_RETURN(std::vector<float> scores,
                        Scores(pairs, instance_encoded));
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] >= options_.threshold) out.push_back(pairs[i]);
  }
  return out;
}

Result<float> CalibrateEmfThreshold(ml::EmfModel* model,
                                    const ml::PairDataset& dataset,
                                    double target_recall) {
  const std::vector<float> probabilities = ml::PredictAll(model, dataset);
  std::vector<float> positive_scores;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.labels[i] > 0.5f) positive_scores.push_back(probabilities[i]);
  }
  if (positive_scores.empty()) {
    return Status::InvalidArgument(
        "EMF calibration requires positive training pairs");
  }
  std::sort(positive_scores.begin(), positive_scores.end());
  const size_t index = std::min(
      positive_scores.size() - 1,
      static_cast<size_t>((1.0 - target_recall) *
                          static_cast<double>(positive_scores.size())));
  const float threshold = positive_scores[index] * 0.9f;  // safety margin
  return std::clamp(threshold, 0.02f, 0.5f);
}

}  // namespace geqo
