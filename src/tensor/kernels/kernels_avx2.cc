#include "tensor/kernels/kernel_table.h"

/// \file kernels_avx2.cc
/// AVX2+FMA kernels. This is the only translation unit in the tree compiled
/// with -mavx2 -mfma (see src/tensor/CMakeLists.txt); everything here is
/// fenced behind GEQO_KERNELS_AVX2 so the file still links into portable
/// builds, where Avx2TableOrNull() simply reports "unavailable".
///
/// Accuracy contract: float reductions use four independent accumulators and
/// a lane-tree horizontal sum, so dot/squared_distance may differ from the
/// scalar table by reassociation only (tested to a small ULP bound in
/// kernels_test). Elementwise ops are exact — identical bits to the scalar
/// table — because per-element float ops don't reassociate. (axpy uses FMA,
/// so its single rounding per element can differ from scalar mul+add by
/// <= 1 ULP per update.)

#if defined(GEQO_KERNELS_AVX2)

#include <immintrin.h>

namespace geqo::kernels {
namespace {

float Hsum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

float DotAvx2(const float* a, const float* b, std::size_t n) {
  // Four accumulators break the FMA dependency chain that makes the scalar
  // loop latency-bound; loads are unaligned-tolerant so callers with
  // arbitrary row offsets (transpose variants, tails) stay correct.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = Hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                 _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void AxpyAvx2(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float SquaredDistanceAvx2(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = Hsum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void AddAvx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void SubAvx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void MulAvx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void ScaleAvx2(float* dst, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), vs));
  }
  for (; i < n; ++i) dst[i] *= s;
}

void AddF64Avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void SubF64Avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void MulF64Avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

void DivF64Avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_div_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] /= src[i];
}

void FillF64Avx2(double* dst, double v, std::size_t n) {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(dst + i, vv);
  for (; i < n; ++i) dst[i] = v;
}

/// One compare predicate per 4-lane step; the movemask bits drive ascending
/// index emission, so output order matches the scalar table exactly. Inputs
/// are NaN-free (executor contract), so the ordered predicates (and NEQ_UQ
/// for !=) agree bitwise with the scalar <,<=,==,... comparisons.
template <int kPredicate>
std::size_t CmpSelectF64Body(const double* a, const double* b,
                             std::uint32_t* out, std::size_t n,
                             bool (*scalar_tail)(double, double)) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d cmp = _mm256_cmp_pd(_mm256_loadu_pd(a + i),
                                      _mm256_loadu_pd(b + i), kPredicate);
    int mask = _mm256_movemask_pd(cmp);
    while (mask != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(mask));
      out[count++] = static_cast<std::uint32_t>(i + bit);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (scalar_tail(a[i], b[i])) out[count++] = static_cast<std::uint32_t>(i);
  }
  return count;
}

std::size_t CmpSelectF64Avx2(int op, const double* a, const double* b,
                             std::uint32_t* out, std::size_t n) {
  switch (op) {
    case 0:
      return CmpSelectF64Body<_CMP_EQ_OQ>(a, b, out, n,
                                          [](double x, double y) { return x == y; });
    case 1:
      return CmpSelectF64Body<_CMP_NEQ_UQ>(a, b, out, n,
                                           [](double x, double y) { return x != y; });
    case 2:
      return CmpSelectF64Body<_CMP_LT_OQ>(a, b, out, n,
                                          [](double x, double y) { return x < y; });
    case 3:
      return CmpSelectF64Body<_CMP_LE_OQ>(a, b, out, n,
                                          [](double x, double y) { return x <= y; });
    case 4:
      return CmpSelectF64Body<_CMP_GT_OQ>(a, b, out, n,
                                          [](double x, double y) { return x > y; });
    default:
      return CmpSelectF64Body<_CMP_GE_OQ>(a, b, out, n,
                                          [](double x, double y) { return x >= y; });
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",         DotAvx2, AxpyAvx2, SquaredDistanceAvx2,
    AddAvx2,        SubAvx2, MulAvx2,  ScaleAvx2,
    AddF64Avx2,     SubF64Avx2, MulF64Avx2, DivF64Avx2,
    FillF64Avx2,    CmpSelectF64Avx2,
};

bool HostSupportsAvx2Fma() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

const KernelTable* Avx2TableOrNull() {
  static const bool supported = HostSupportsAvx2Fma();
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace geqo::kernels

#else  // !GEQO_KERNELS_AVX2

namespace geqo::kernels {

const KernelTable* Avx2TableOrNull() { return nullptr; }

}  // namespace geqo::kernels

#endif  // GEQO_KERNELS_AVX2
