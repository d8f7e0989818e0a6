#include "nn/layers.h"

#include <cmath>

#include "tensor/kernels/kernel_table.h"

namespace geqo::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : weight_(Tensor::Randn(out_features, in_features,
                            std::sqrt(2.0f / static_cast<float>(in_features)),
                            rng)),
      bias_(1, out_features),
      weight_grad_(out_features, in_features),
      bias_grad_(1, out_features) {}

Tensor Linear::Forward(const Tensor& x) {
  GEQO_CHECK(x.cols() == weight_.cols())
      << "Linear input " << x.ShapeString() << " vs weight "
      << weight_.ShapeString();
  cached_input_ = x;
  Tensor y = ops::MatMul(x, weight_, /*transpose_a=*/false,
                         /*transpose_b=*/true);
  ops::AddRowVectorInPlace(&y, bias_);
  return y;
}

Tensor Linear::Infer(const Tensor& x) const {
  GEQO_CHECK(x.cols() == weight_.cols())
      << "Linear input " << x.ShapeString() << " vs weight "
      << weight_.ShapeString();
  Tensor y = ops::MatMul(x, weight_, /*transpose_a=*/false,
                         /*transpose_b=*/true);
  ops::AddRowVectorInPlace(&y, bias_);
  return y;
}

Tensor Linear::Backward(const Tensor& dy) {
  // dW += dy^T x ; db += colsum(dy) ; dx = dy W.
  ops::AddInPlace(&weight_grad_,
                  ops::MatMul(dy, cached_input_, /*transpose_a=*/true,
                              /*transpose_b=*/false));
  ops::AddInPlace(&bias_grad_, ops::ColumnSum(dy));
  return ops::MatMul(dy, weight_);
}

void Linear::CollectParams(const std::string& prefix,
                           std::vector<ParamRef>* out) {
  out->push_back(ParamRef{prefix + ".weight", &weight_, &weight_grad_});
  out->push_back(ParamRef{prefix + ".bias", &bias_, &bias_grad_});
}

PReLU::PReLU(size_t channels, float initial_slope)
    : slope_(Tensor::Full(1, channels, initial_slope)),
      slope_grad_(1, channels) {}

Tensor PReLU::Forward(const Tensor& x) {
  GEQO_CHECK(x.cols() == slope_.cols());
  cached_input_ = x;
  Tensor y = x;
  for (size_t r = 0; r < y.rows(); ++r) {
    float* row = y.Row(r);
    for (size_t c = 0; c < y.cols(); ++c) {
      if (row[c] < 0.0f) row[c] *= slope_.At(0, c);
    }
  }
  return y;
}

Tensor PReLU::Infer(const Tensor& x) const {
  GEQO_CHECK(x.cols() == slope_.cols());
  Tensor y = x;
  for (size_t r = 0; r < y.rows(); ++r) {
    float* row = y.Row(r);
    for (size_t c = 0; c < y.cols(); ++c) {
      if (row[c] < 0.0f) row[c] *= slope_.At(0, c);
    }
  }
  return y;
}

Tensor PReLU::Backward(const Tensor& dy) {
  Tensor dx = dy;
  for (size_t r = 0; r < dy.rows(); ++r) {
    const float* x_row = cached_input_.Row(r);
    const float* dy_row = dy.Row(r);
    float* dx_row = dx.Row(r);
    for (size_t c = 0; c < dy.cols(); ++c) {
      if (x_row[c] < 0.0f) {
        slope_grad_.At(0, c) += dy_row[c] * x_row[c];
        dx_row[c] = dy_row[c] * slope_.At(0, c);
      }
    }
  }
  return dx;
}

void PReLU::CollectParams(const std::string& prefix,
                          std::vector<ParamRef>* out) {
  out->push_back(ParamRef{prefix + ".slope", &slope_, &slope_grad_});
}

BatchNorm1d::BatchNorm1d(size_t channels, float momentum, float epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Tensor::Full(1, channels, 1.0f)),
      beta_(1, channels),
      gamma_grad_(1, channels),
      beta_grad_(1, channels),
      running_mean_(1, channels),
      running_var_(Tensor::Full(1, channels, 1.0f)) {}

Tensor BatchNorm1d::Forward(const Tensor& x, bool training) {
  GEQO_CHECK(x.cols() == gamma_.cols());
  const size_t n = x.rows();
  const size_t c_count = x.cols();
  Tensor mean(1, c_count);
  Tensor var(1, c_count);
  if (training && n > 1) {
    for (size_t r = 0; r < n; ++r) {
      const float* row = x.Row(r);
      for (size_t c = 0; c < c_count; ++c) mean.At(0, c) += row[c];
    }
    for (size_t c = 0; c < c_count; ++c) mean.At(0, c) /= static_cast<float>(n);
    for (size_t r = 0; r < n; ++r) {
      const float* row = x.Row(r);
      for (size_t c = 0; c < c_count; ++c) {
        const float d = row[c] - mean.At(0, c);
        var.At(0, c) += d * d;
      }
    }
    for (size_t c = 0; c < c_count; ++c) var.At(0, c) /= static_cast<float>(n);
    // Update running statistics.
    for (size_t c = 0; c < c_count; ++c) {
      running_mean_.At(0, c) = (1.0f - momentum_) * running_mean_.At(0, c) +
                               momentum_ * mean.At(0, c);
      running_var_.At(0, c) =
          (1.0f - momentum_) * running_var_.At(0, c) + momentum_ * var.At(0, c);
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  cached_inv_std_ = Tensor(1, c_count);
  for (size_t c = 0; c < c_count; ++c) {
    cached_inv_std_.At(0, c) = 1.0f / std::sqrt(var.At(0, c) + epsilon_);
  }
  cached_normalized_ = Tensor(n, c_count);
  Tensor y(n, c_count);
  for (size_t r = 0; r < n; ++r) {
    const float* row = x.Row(r);
    for (size_t c = 0; c < c_count; ++c) {
      const float normalized =
          (row[c] - mean.At(0, c)) * cached_inv_std_.At(0, c);
      cached_normalized_.At(r, c) = normalized;
      y.At(r, c) = gamma_.At(0, c) * normalized + beta_.At(0, c);
    }
  }
  return y;
}

Tensor BatchNorm1d::Infer(const Tensor& x) const {
  GEQO_CHECK(x.cols() == gamma_.cols());
  const size_t n = x.rows();
  const size_t c_count = x.cols();
  // Same arithmetic as Forward's inference branch (running statistics,
  // 1/sqrt(var + eps)) so outputs are bit-identical to it.
  Tensor inv_std(1, c_count);
  for (size_t c = 0; c < c_count; ++c) {
    inv_std.At(0, c) = 1.0f / std::sqrt(running_var_.At(0, c) + epsilon_);
  }
  Tensor y(n, c_count);
  for (size_t r = 0; r < n; ++r) {
    const float* row = x.Row(r);
    float* y_row = y.Row(r);
    for (size_t c = 0; c < c_count; ++c) {
      const float normalized =
          (row[c] - running_mean_.At(0, c)) * inv_std.At(0, c);
      y_row[c] = gamma_.At(0, c) * normalized + beta_.At(0, c);
    }
  }
  return y;
}

Tensor BatchNorm1d::Backward(const Tensor& dy) {
  const size_t n = dy.rows();
  const size_t c_count = dy.cols();
  GEQO_CHECK(cached_normalized_.rows() == n);

  Tensor sum_dy(1, c_count);
  Tensor sum_dy_xhat(1, c_count);
  for (size_t r = 0; r < n; ++r) {
    const float* dy_row = dy.Row(r);
    const float* xhat_row = cached_normalized_.Row(r);
    for (size_t c = 0; c < c_count; ++c) {
      sum_dy.At(0, c) += dy_row[c];
      sum_dy_xhat.At(0, c) += dy_row[c] * xhat_row[c];
    }
  }
  for (size_t c = 0; c < c_count; ++c) {
    beta_grad_.At(0, c) += sum_dy.At(0, c);
    gamma_grad_.At(0, c) += sum_dy_xhat.At(0, c);
  }

  // Standard batchnorm gradient:
  // dx = gamma * inv_std / n * (n*dy - sum_dy - xhat * sum_dy_xhat).
  Tensor dx(n, c_count);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t r = 0; r < n; ++r) {
    const float* dy_row = dy.Row(r);
    const float* xhat_row = cached_normalized_.Row(r);
    float* dx_row = dx.Row(r);
    for (size_t c = 0; c < c_count; ++c) {
      dx_row[c] = gamma_.At(0, c) * cached_inv_std_.At(0, c) * inv_n *
                  (static_cast<float>(n) * dy_row[c] - sum_dy.At(0, c) -
                   xhat_row[c] * sum_dy_xhat.At(0, c));
    }
  }
  return dx;
}

void BatchNorm1d::CollectParams(const std::string& prefix,
                                std::vector<ParamRef>* out) {
  out->push_back(ParamRef{prefix + ".gamma", &gamma_, &gamma_grad_});
  out->push_back(ParamRef{prefix + ".beta", &beta_, &beta_grad_});
}

Dropout::Dropout(float probability, Rng* rng)
    : probability_(probability), rng_(rng) {
  GEQO_CHECK(probability >= 0.0f && probability < 1.0f);
}

Tensor Dropout::Forward(const Tensor& x, bool training) {
  if (!training || probability_ == 0.0f) {
    mask_active_ = false;
    return x;
  }
  mask_active_ = true;
  mask_ = Tensor(x.rows(), x.cols());
  const float keep_scale = 1.0f / (1.0f - probability_);
  Tensor y = x;
  for (size_t i = 0; i < y.size(); ++i) {
    const bool keep = !rng_->Bernoulli(probability_);
    mask_.mutable_values()[i] = keep ? keep_scale : 0.0f;
    y.mutable_values()[i] *= mask_.values()[i];
  }
  return y;
}

Tensor Dropout::Backward(const Tensor& dy) {
  if (!mask_active_) return dy;
  return ops::Mul(dy, mask_);
}

}  // namespace geqo::nn
