#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/rng.h"

/// \file tensor.h
/// A minimal dense float32 matrix type ("tensor" with rank <= 2) backing the
/// neural-network substrate. This replaces the paper's PyTorch dependency:
/// the EMF model is small (two tree convolutions + three linear layers), so
/// straightforward single-threaded kernels reproduce its behaviour.

namespace geqo {

/// \brief A row-major dense float32 matrix. A 1 x n tensor doubles as a
/// vector. Cheap to move; copies are explicit data copies.
class Tensor {
 public:
  Tensor() = default;
  Tensor(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  static Tensor Zeros(size_t rows, size_t cols) { return Tensor(rows, cols); }
  static Tensor Full(size_t rows, size_t cols, float value) {
    Tensor out(rows, cols);
    std::fill(out.data_.begin(), out.data_.end(), value);
    return out;
  }
  /// Gaussian init with standard deviation \p stddev.
  static Tensor Randn(size_t rows, size_t cols, float stddev, Rng* rng) {
    Tensor out(rows, cols);
    for (float& v : out.data_) {
      v = static_cast<float>(rng->NextGaussian()) * stddev;
    }
    return out;
  }
  static Tensor FromVector(const std::vector<float>& values) {
    Tensor out;
    out.rows_ = 1;
    out.cols_ = values.size();
    out.data_.assign(values.begin(), values.end());
    return out;
  }
  static Tensor FromRows(size_t rows, size_t cols,
                         const std::vector<float>& values) {
    GEQO_CHECK(values.size() == rows * cols);
    Tensor out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.data_.assign(values.begin(), values.end());
    return out;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    GEQO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    GEQO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const AlignedVector<float>& values() const { return data_; }
  AlignedVector<float>& mutable_values() { return data_; }

  /// Reinterprets the buffer with a new shape of identical element count.
  Tensor Reshaped(size_t rows, size_t cols) const {
    GEQO_CHECK(rows * cols == data_.size());
    Tensor out = *this;
    out.rows_ = rows;
    out.cols_ = cols;
    return out;
  }

  /// Returns rows [begin, end) as a new tensor.
  Tensor Slice(size_t begin, size_t end) const {
    GEQO_CHECK(begin <= end && end <= rows_);
    Tensor out(end - begin, cols_);
    std::copy(data_.begin() + static_cast<ptrdiff_t>(begin * cols_),
              data_.begin() + static_cast<ptrdiff_t>(end * cols_),
              out.data_.begin());
    return out;
  }

  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  std::string ShapeString() const {
    return "[" + std::to_string(rows_) + " x " + std::to_string(cols_) + "]";
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  /// 32-byte aligned so the buffer's first element satisfies the SIMD
  /// kernels' aligned-load fast path (rows after the first are only aligned
  /// when cols is a multiple of 8; the kernels use unaligned-tolerant loads,
  /// so this is a performance property, not a correctness requirement).
  AlignedVector<float> data_;
};

/// \brief Counters for kernel dispatches and floating point work, used by the
/// Fig-12 device model: the simulated accelerator charges a fixed latency per
/// dispatch plus (measured CPU compute time / calibrated speedup).
///
/// Counters are atomics because kernels dispatch concurrently from the
/// parallel filter cascade (relaxed ordering: they are statistics, not
/// synchronization). Reads implicitly load; Reset is not atomic with respect
/// to concurrent dispatches — call it at quiesce points only.
struct KernelStats {
  std::atomic<uint64_t> dispatches{0};
  std::atomic<double> flops{0.0};

  void AddFlops(double amount) {
    // fetch_add on atomic<double> is C++20 but not yet lock-free everywhere;
    // a CAS loop compiles to the same thing where it is.
    double current = flops.load(std::memory_order_relaxed);
    while (!flops.compare_exchange_weak(current, current + amount,
                                        std::memory_order_relaxed)) {
    }
  }

  void Reset() {
    dispatches.store(0, std::memory_order_relaxed);
    flops.store(0.0, std::memory_order_relaxed);
  }
};

/// Global kernel statistics (thread-safe: see KernelStats).
KernelStats& GetKernelStats();

namespace ops {

/// C = A x B (optionally transposing either input). Shapes must agree.
Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// out = a + b (elementwise, same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// out = a - b (elementwise).
Tensor Sub(const Tensor& a, const Tensor& b);
/// out = a * b (elementwise Hadamard product).
Tensor Mul(const Tensor& a, const Tensor& b);
/// out = a * scalar.
Tensor Scale(const Tensor& a, float scalar);
/// a += b (in place).
void AddInPlace(Tensor* a, const Tensor& b);
/// Adds row vector \p bias (1 x cols) to every row of \p a.
void AddRowVectorInPlace(Tensor* a, const Tensor& bias);
/// Column-wise sum producing a 1 x cols tensor.
Tensor ColumnSum(const Tensor& a);
/// Row-wise L2 norms as a 1 x rows tensor.
Tensor RowNorms(const Tensor& a);
/// Transposed copy.
Tensor Transpose(const Tensor& a);
/// Concatenates two tensors with equal row counts along columns.
Tensor ConcatColumns(const Tensor& a, const Tensor& b);
/// Squared L2 distance between two equal-length vectors (1 x n tensors).
float SquaredDistance(const float* a, const float* b, size_t n);

}  // namespace ops
}  // namespace geqo
