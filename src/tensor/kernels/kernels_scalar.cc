#include "tensor/kernels/kernel_table.h"

/// \file kernels_scalar.cc
/// Portable reference kernels. These loops ARE the pre-dispatch tensor.cc
/// arithmetic, moved verbatim: strict left-to-right accumulation, no
/// reassociation, no FMA contraction surprises beyond what the base compile
/// flags already allowed. The forced-`GEQO_ISA=scalar` CI lane asserts the
/// pipeline output is bit-identical to the pre-dispatch code, so treat any
/// change to the float ordering here as a format break.

namespace geqo::kernels {
namespace {

float DotScalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyScalar(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

float SquaredDistanceScalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void AddScalar(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SubScalar(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void MulScalar(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void ScaleScalar(float* dst, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= s;
}

void AddF64Scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SubF64Scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void MulF64Scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
}

void DivF64Scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] /= src[i];
}

void FillF64Scalar(double* dst, double v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = v;
}

std::size_t CmpSelectF64Scalar(int op, const double* a, const double* b,
                               std::uint32_t* out, std::size_t n) {
  std::size_t count = 0;
  switch (op) {
    case 0:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] == b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
    case 1:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
    case 2:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] < b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
    case 3:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] <= b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
    case 4:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] > b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
    default:
      for (std::size_t i = 0; i < n; ++i)
        if (a[i] >= b[i]) out[count++] = static_cast<std::uint32_t>(i);
      break;
  }
  return count;
}

constexpr KernelTable kScalarTable = {
    "scalar",         DotScalar, AxpyScalar, SquaredDistanceScalar,
    AddScalar,        SubScalar, MulScalar,  ScaleScalar,
    AddF64Scalar,     SubF64Scalar, MulF64Scalar, DivF64Scalar,
    FillF64Scalar,    CmpSelectF64Scalar,
};

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

}  // namespace geqo::kernels
