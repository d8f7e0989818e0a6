#pragma once

#include <utility>
#include <vector>

#include "encode/agnostic.h"
#include "ml/dataset.h"
#include "ml/emf_model.h"

/// \file emf_filter.h
/// The equivalence model filter (EMF, §2.2/§5) as a pairwise filter stage:
/// candidate pairs are pairwise db-agnostic-encoded via the fast converter
/// (§4.2.1) and scored by the trained EmfModel; pairs with probability below
/// the threshold are pruned before verification. The siamese trunk runs once
/// per distinct converted plan, not twice per pair (DESIGN.md §4, "EMF pair
/// scoring").

namespace geqo {

/// \brief EMF filter configuration.
struct EmfFilterOptions {
  float threshold = 0.5f;  ///< minimum P(equivalent) to pass the filter
  size_t batch_size = 256;
};

/// \brief Scores and filters candidate pairs with the EMF network.
class EquivalenceModelFilter {
 public:
  EquivalenceModelFilter(ml::EmfModel* model,
                         const EncodingLayout* instance_layout,
                         const EncodingLayout* agnostic_layout,
                         EmfFilterOptions options = EmfFilterOptions())
      : model_(model),
        instance_layout_(instance_layout),
        agnostic_layout_(agnostic_layout),
        options_(options) {}

  /// Equivalence probability for each (i, j) pair of workload indices.
  /// \p instance_encoded is indexed by workload position. Bit-identical to
  /// converting each pair with AgnosticConverter::Create and scoring batches
  /// of batch_size pairs with EmfModel::PredictProba; a pair that overflows
  /// the agnostic layout fails the call with Create's status for the first
  /// such pair.
  Result<std::vector<float>> Scores(
      const std::vector<std::pair<size_t, size_t>>& pairs,
      const std::vector<EncodedPlan>& instance_encoded) const;

  /// View-based variant for query-vs-catalog scoring: callers assemble the
  /// position space from encodings that live in different containers (e.g.
  /// slot 0 = the probe query, slots 1..k = catalog entries) without copying
  /// any of them.
  Result<std::vector<float>> Scores(
      const std::vector<std::pair<size_t, size_t>>& pairs,
      const std::vector<const EncodedPlan*>& instance_encoded) const;

  /// The pairs whose score clears the threshold.
  Result<std::vector<std::pair<size_t, size_t>>> Filter(
      const std::vector<std::pair<size_t, size_t>>& pairs,
      const std::vector<EncodedPlan>& instance_encoded) const;

  const EmfFilterOptions& options() const { return options_; }
  ml::EmfModel* model() const { return model_; }

 private:
  ml::EmfModel* model_;
  const EncodingLayout* instance_layout_;
  const EncodingLayout* agnostic_layout_;
  EmfFilterOptions options_;
};

/// \brief Calibrates the EMF decision threshold from labeled pairs: the
/// probability quantile that keeps \p target_recall of the equivalent pairs
/// above threshold (the paper operates the EMF at TPR ~0.98 with moderate
/// TNR, Table 1 — false negatives "should be minimized at all costs",
/// §7.1.1). Clamped to [0.02, 0.5].
Result<float> CalibrateEmfThreshold(ml::EmfModel* model,
                                    const ml::PairDataset& dataset,
                                    double target_recall = 0.97);

}  // namespace geqo
