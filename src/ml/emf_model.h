#pragma once

#include <memory>
#include <vector>

#include "encode/encoding.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "nn/treeconv.h"

/// \file emf_model.h
/// The Equivalence Model Filter network (§5, Figure 6): a siamese pair of
/// two tree-convolution layers (each followed by batch normalization and
/// PReLU) produces a 128-dimensional summary per subexpression via dynamic
/// max pooling; the two summaries are concatenated and classified by three
/// fully connected layers. The learned tree convolution doubles as the
/// VMF's embedding function (§2.2).

namespace geqo::ml {

/// \brief Architecture hyperparameters (defaults follow §5/Figure 7's
/// found-best shape scaled to the embedding size h = 128).
struct EmfModelOptions {
  size_t input_dim = 0;   ///< |NV_alpha|; required
  size_t conv1_size = 128;
  size_t conv2_size = 128;  ///< also the embedding dimension h
  size_t fc1_size = 128;
  size_t fc2_size = 64;
  float dropout = 0.5f;   ///< paper trains with 50% dropout on all layers
  uint64_t seed = 0x5eed5eedULL;
};

/// \brief The EMF network. Forward/backward over batches of encoded plan
/// pairs; both plans of a pair share the convolution weights (siamese).
///
/// Thread-safety: the const inference entry points (PredictProba, Embed,
/// InferHead, InferLogits) run through the layers' cache-free Infer paths and may be
/// called concurrently from many threads on one model instance, provided no
/// thread calls Forward/TrainStep at the same time (training mutates weights
/// and layer caches). The parallel EMF/VMF stages rely on this contract.
class EmfModel {
 public:
  explicit EmfModel(EmfModelOptions options);

  /// Logits for each pair, shape [batch, 1]. \p lhs and \p rhs must have
  /// equal length; element i of each forms pair i. Caches activations for
  /// TrainStep's backward pass — training-side API, not re-entrant.
  Tensor Forward(const std::vector<const EncodedPlan*>& lhs,
                 const std::vector<const EncodedPlan*>& rhs, bool training);

  /// One optimization step on a batch; returns the BCE loss. \p labels is
  /// [batch, 1] with entries in {0, 1}.
  float TrainStep(const std::vector<const EncodedPlan*>& lhs,
                  const std::vector<const EncodedPlan*>& rhs,
                  const Tensor& labels, nn::Adam* optimizer);

  /// Inference logits, shape [batch, 1]: Embed over [lhs..., rhs...] then
  /// InferHead. Bit-identical to Forward(lhs, rhs, /*training=*/false) but
  /// cache-free and re-entrant.
  Tensor InferLogits(const std::vector<const EncodedPlan*>& lhs,
                     const std::vector<const EncodedPlan*>& rhs) const;

  /// Equivalence probabilities (sigmoid of logits), shape [batch, 1].
  /// Re-entrant (see class comment).
  Tensor PredictProba(const std::vector<const EncodedPlan*>& lhs,
                      const std::vector<const EncodedPlan*>& rhs) const;

  /// The VMF embedding: pooled tree-convolution features, [n, h] (§2.2,
  /// §4.2.2). Runs the convolutional trunk in inference mode. Each output row
  /// depends on its own plan only, not on the rest of the batch. Re-entrant
  /// (see class comment).
  Tensor Embed(const std::vector<const EncodedPlan*>& plans) const;

  /// Classifier-head logits, shape [n, 1], for pairs whose trunk embeddings
  /// (Embed rows) are row i of \p lhs_embedding and \p rhs_embedding, both
  /// [n, h]. Each logit depends on its own pair only. Re-entrant (see class
  /// comment).
  Tensor InferHead(const Tensor& lhs_embedding,
                   const Tensor& rhs_embedding) const;

  /// Embedding dimension h.
  size_t embedding_dim() const { return options_.conv2_size; }
  const EmfModelOptions& options() const { return options_; }

  /// Trainable parameters (for the optimizer).
  std::vector<nn::ParamRef> Params();
  /// Full state (parameters + batch-norm running statistics) for
  /// (de)serialization via nn::SaveState/LoadState.
  std::vector<nn::StateEntry> State();

  /// Total number of trainable scalars.
  size_t NumParameters();

 private:
  /// Runs the convolutional trunk; returns pooled [n, h] features.
  Tensor ForwardTrunk(const nn::TreeBatch& batch, bool training);
  /// Cache-free inference trunk (running batch-norm statistics, no dropout).
  Tensor InferTrunk(const nn::TreeBatch& batch) const;
  /// Backpropagates through the trunk given pooled-feature gradients.
  void BackwardTrunk(const Tensor& pooled_grad);

  EmfModelOptions options_;
  Rng rng_;
  nn::TreeConv conv1_;
  nn::BatchNorm1d bn1_;
  nn::PReLU act1_;
  nn::TreeConv conv2_;
  nn::BatchNorm1d bn2_;
  nn::PReLU act2_;
  nn::DynamicMaxPool pool_;
  Tensor cached_diff_sign_;  ///< sign(e_a - e_b) for the |.| backward pass
  nn::Linear fc1_;
  nn::PReLU act3_;
  nn::Dropout drop1_;
  nn::Linear fc2_;
  nn::PReLU act4_;
  nn::Dropout drop2_;
  nn::Linear fc3_;
  size_t last_pair_count_ = 0;
};

}  // namespace geqo::ml
