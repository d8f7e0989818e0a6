#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "tensor/kernels/kernel_table.h"

namespace geqo {

KernelStats& GetKernelStats() {
  static KernelStats stats;
  return stats;
}

namespace ops {
namespace {

void CountKernel(double flops) {
  KernelStats& stats = GetKernelStats();
  stats.dispatches.fetch_add(1, std::memory_order_relaxed);
  stats.AddFlops(flops);
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("tensor.dispatches").Increment();
    registry.GetCounter(kernels::DispatchCounterName()).Increment();
    registry.GetGauge("tensor.flops").Add(flops);
  }
}

/// Inner-dimension block for the untransposed kernel: a kc x n panel of b is
/// streamed once per block and reused across all m output rows, instead of
/// re-reading the whole of b for every row. Summation still visits k in
/// increasing order per output element, so results are bit-identical to the
/// unblocked ikj kernel (and independent of the blocking factor).
constexpr size_t kMatMulKBlock = 64;

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a,
              bool transpose_b) {
  const size_t m = transpose_a ? a.cols() : a.rows();
  const size_t k = transpose_a ? a.rows() : a.cols();
  const size_t k2 = transpose_b ? b.cols() : b.rows();
  const size_t n = transpose_b ? b.rows() : b.cols();
  GEQO_CHECK(k == k2) << "MatMul shape mismatch: " << a.ShapeString() << " x "
                      << b.ShapeString();
  Tensor out(m, n);
  CountKernel(2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k));
  const kernels::KernelTable& kt = kernels::Active();

  if (!transpose_a && !transpose_b) {
    // Blocked ikj: k is tiled so the active panel of b stays cache-resident
    // across output rows; the j loop is a contiguous axpy.
    for (size_t k0 = 0; k0 < k; k0 += kMatMulKBlock) {
      const size_t k1 = std::min(k0 + kMatMulKBlock, k);
      for (size_t i = 0; i < m; ++i) {
        float* out_row = out.Row(i);
        const float* a_row = a.Row(i);
        for (size_t kk = k0; kk < k1; ++kk) {
          const float a_ik = a_row[kk];
          if (a_ik == 0.0f) continue;
          kt.axpy(a_ik, b.Row(kk), out_row, n);
        }
      }
    }
    return out;
  }

  if (!transpose_a && transpose_b) {
    // C[i,j] = <a_i, b_j>: both operands stream row-wise (the Linear-layer
    // forward shape x W^T, the hottest kernel in EMF inference).
    for (size_t i = 0; i < m; ++i) {
      const float* a_row = a.Row(i);
      float* out_row = out.Row(i);
      for (size_t j = 0; j < n; ++j) {
        out_row[j] = kt.dot(a_row, b.Row(j), k);
      }
    }
    return out;
  }

  if (transpose_a && !transpose_b) {
    // C = A^T B via rank-1 updates: row kk of a and of b are contiguous, so
    // the kk-outer order replaces strided column walks with streamed rows.
    for (size_t kk = 0; kk < k; ++kk) {
      const float* a_row = a.Row(kk);
      const float* b_row = b.Row(kk);
      for (size_t i = 0; i < m; ++i) {
        const float a_ki = a_row[i];
        if (a_ki == 0.0f) continue;
        kt.axpy(a_ki, b_row, out.Row(i), n);
      }
    }
    return out;
  }

  // A^T B^T: not on any hot path; keep the simple generic loop.
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a.At(kk, i) * b.At(j, kk);
      out.At(i, j) = acc;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  GEQO_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = a;
  CountKernel(static_cast<double>(a.size()));
  kernels::Active().add(out.data(), b.data(), out.size());
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  GEQO_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = a;
  CountKernel(static_cast<double>(a.size()));
  kernels::Active().sub(out.data(), b.data(), out.size());
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  GEQO_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = a;
  CountKernel(static_cast<double>(a.size()));
  kernels::Active().mul(out.data(), b.data(), out.size());
  return out;
}

Tensor Scale(const Tensor& a, float scalar) {
  Tensor out = a;
  CountKernel(static_cast<double>(a.size()));
  kernels::Active().scale(out.data(), scalar, out.size());
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  GEQO_CHECK(a->rows() == b.rows() && a->cols() == b.cols());
  CountKernel(static_cast<double>(a->size()));
  kernels::Active().add(a->data(), b.data(), a->size());
}

void AddRowVectorInPlace(Tensor* a, const Tensor& bias) {
  GEQO_CHECK(bias.rows() == 1 && bias.cols() == a->cols());
  CountKernel(static_cast<double>(a->size()));
  const kernels::KernelTable& kt = kernels::Active();
  const float* b = bias.data();
  for (size_t r = 0; r < a->rows(); ++r) {
    kt.add(a->Row(r), b, a->cols());
  }
}

Tensor ColumnSum(const Tensor& a) {
  Tensor out(1, a.cols());
  CountKernel(static_cast<double>(a.size()));
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t r = 0; r < a.rows(); ++r) {
    kt.add(out.Row(0), a.Row(r), a.cols());
  }
  return out;
}

Tensor RowNorms(const Tensor& a) {
  Tensor out(1, a.rows());
  CountKernel(2.0 * static_cast<double>(a.size()));
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.Row(r);
    out.At(0, r) = std::sqrt(kt.dot(row, row, a.cols()));
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  Tensor out(a.cols(), a.rows());
  CountKernel(static_cast<double>(a.size()));
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out.At(c, r) = a.At(r, c);
  }
  return out;
}

Tensor ConcatColumns(const Tensor& a, const Tensor& b) {
  GEQO_CHECK(a.rows() == b.rows());
  Tensor out(a.rows(), a.cols() + b.cols());
  CountKernel(static_cast<double>(out.size()));
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = out.Row(r);
    std::copy(a.Row(r), a.Row(r) + a.cols(), row);
    std::copy(b.Row(r), b.Row(r) + b.cols(), row + a.cols());
  }
  return out;
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  return kernels::Active().squared_distance(a, b, n);
}

}  // namespace ops
}  // namespace geqo
