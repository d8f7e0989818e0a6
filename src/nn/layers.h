#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

/// \file layers.h
/// Trainable neural-network layers: Linear, PReLU, BatchNorm1d, Dropout.
/// Each layer caches its forward inputs and implements reverse-mode
/// backpropagation; gradients accumulate into per-parameter grad tensors
/// consumed by the Adam optimizer.
///
/// Every layer also exposes a const `Infer` path that computes the same
/// inference-mode output as `Forward(..., training=false)` without touching
/// the backward caches. Infer is safe to call concurrently from many threads
/// on one layer instance as long as no thread trains it — the thread-safety
/// contract the parallel filter cascade relies on (DESIGN.md, "Concurrency
/// model").

namespace geqo::nn {

/// \brief A reference to one trainable parameter and its gradient buffer.
struct ParamRef {
  std::string name;
  Tensor* value;
  Tensor* grad;
};

/// \brief Fully connected layer: y = x W^T + b.
///
/// Weights use Kaiming-uniform-style Gaussian init scaled by sqrt(2/fan_in),
/// appropriate for the PReLU activations that follow them (§5).
class Linear {
 public:
  Linear(size_t in_features, size_t out_features, Rng* rng);

  Tensor Forward(const Tensor& x);
  /// Forward pass without caching: re-entrant, usable concurrently.
  Tensor Infer(const Tensor& x) const;
  Tensor Backward(const Tensor& dy);
  void CollectParams(const std::string& prefix, std::vector<ParamRef>* out);

  size_t in_features() const { return weight_.cols(); }
  size_t out_features() const { return weight_.rows(); }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  Tensor weight_;  ///< [out, in]
  Tensor bias_;    ///< [1, out]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;
};

/// \brief Parametric ReLU with one learnable slope per channel (§5).
class PReLU {
 public:
  explicit PReLU(size_t channels, float initial_slope = 0.25f);

  Tensor Forward(const Tensor& x);
  /// Forward pass without caching: re-entrant, usable concurrently.
  Tensor Infer(const Tensor& x) const;
  Tensor Backward(const Tensor& dy);
  void CollectParams(const std::string& prefix, std::vector<ParamRef>* out);

 private:
  Tensor slope_;  ///< [1, channels]
  Tensor slope_grad_;
  Tensor cached_input_;
};

/// \brief Batch normalization over the batch dimension of a [N, C] tensor,
/// with learnable scale/shift and running statistics for inference.
class BatchNorm1d {
 public:
  explicit BatchNorm1d(size_t channels, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  Tensor Forward(const Tensor& x, bool training);
  /// Inference-mode forward (running statistics) without caching:
  /// re-entrant, usable concurrently. Bit-identical to
  /// Forward(x, /*training=*/false).
  Tensor Infer(const Tensor& x) const;
  Tensor Backward(const Tensor& dy);
  void CollectParams(const std::string& prefix, std::vector<ParamRef>* out);

  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  float momentum_;
  float epsilon_;
  Tensor gamma_;  ///< [1, C]
  Tensor beta_;   ///< [1, C]
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor running_mean_;
  Tensor running_var_;
  // Caches for backward.
  Tensor cached_normalized_;
  Tensor cached_inv_std_;
};

/// \brief Inverted dropout: active only in training mode (paper trains with
/// 50% dropout on all layers, §7).
class Dropout {
 public:
  Dropout(float probability, Rng* rng);

  Tensor Forward(const Tensor& x, bool training);
  Tensor Backward(const Tensor& dy);

 private:
  float probability_;
  Rng* rng_;
  Tensor mask_;
  bool mask_active_ = false;
};

}  // namespace geqo::nn
