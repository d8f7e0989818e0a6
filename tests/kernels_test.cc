#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/tensor.h"

/// Kernel-dispatch tests: the scalar table must reproduce the historical
/// tensor.cc arithmetic bit-for-bit (the forced-GEQO_ISA=scalar CI lane
/// depends on it), the AVX2 table must agree with scalar within a small
/// reassociation tolerance on float reductions and exactly on elementwise /
/// integer kernels, and both must be correct across odd lengths and
/// unaligned bases (SIMD tail + misalignment handling).

namespace geqo::kernels {
namespace {

/// Sizes straddling every tail case: below one vector, exact multiples of
/// 8/16/32, and off-by-one on both sides.
const size_t kSizes[] = {0,  1,  2,  3,  7,  8,  9,  15, 16, 17,
                         24, 31, 32, 33, 63, 64, 65, 100, 127, 257};

std::vector<float> RandomFloats(size_t n, Rng* rng) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng->NextGaussian());
  return out;
}

/// Tolerance for reassociated float sums: proportional to the sum of
/// absolute terms (computed in double), with a floor for near-zero results.
float SumTolerance(double abs_sum) {
  return static_cast<float>(abs_sum * 1e-6 + 1e-6);
}

/// Restores the entry ISA when a test forces tables.
class IsaGuard {
 public:
  IsaGuard() : saved_(ActiveIsa()) {}
  ~IsaGuard() { SetIsa(saved_); }

 private:
  Isa saved_;
};

TEST(KernelTableTest, ScalarMatchesReferenceBitwise) {
  Rng rng(11);
  const KernelTable& scalar = ScalarTable();
  for (const size_t n : kSizes) {
    const std::vector<float> a = RandomFloats(n, &rng);
    const std::vector<float> b = RandomFloats(n, &rng);

    float ref_dot = 0.0f;
    for (size_t i = 0; i < n; ++i) ref_dot += a[i] * b[i];
    EXPECT_EQ(scalar.dot(a.data(), b.data(), n), ref_dot) << "n=" << n;

    float ref_sq = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      const float d = a[i] - b[i];
      ref_sq += d * d;
    }
    EXPECT_EQ(scalar.squared_distance(a.data(), b.data(), n), ref_sq)
        << "n=" << n;

    std::vector<float> y = b;
    std::vector<float> ref_y = b;
    const float alpha = 0.37f;
    scalar.axpy(alpha, a.data(), y.data(), n);
    for (size_t i = 0; i < n; ++i) ref_y[i] += alpha * a[i];
    EXPECT_EQ(y, ref_y) << "n=" << n;
  }
}

TEST(KernelTableTest, Avx2MatchesScalarWithinTolerance) {
  const KernelTable* avx2 = Avx2TableOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this build/host";
  const KernelTable& scalar = ScalarTable();
  Rng rng(12);
  for (const size_t n : kSizes) {
    const std::vector<float> a = RandomFloats(n, &rng);
    const std::vector<float> b = RandomFloats(n, &rng);

    double abs_dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      abs_dot += std::fabs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(avx2->dot(a.data(), b.data(), n),
                scalar.dot(a.data(), b.data(), n), SumTolerance(abs_dot))
        << "n=" << n;

    double abs_sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(a[i]) - b[i];
      abs_sq += d * d;
    }
    EXPECT_NEAR(avx2->squared_distance(a.data(), b.data(), n),
                scalar.squared_distance(a.data(), b.data(), n),
                SumTolerance(abs_sq))
        << "n=" << n;

    // axpy: per-element, one FMA rounding vs mul+add — within 1 ULP each.
    std::vector<float> y_avx = b;
    std::vector<float> y_scalar = b;
    avx2->axpy(1.7f, a.data(), y_avx.data(), n);
    scalar.axpy(1.7f, a.data(), y_scalar.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_avx[i], y_scalar[i], std::fabs(y_scalar[i]) * 1e-6 + 1e-7)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelTableTest, ElementwiseKernelsAreBitIdenticalAcrossTables) {
  const KernelTable* avx2 = Avx2TableOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this build/host";
  const KernelTable& scalar = ScalarTable();
  Rng rng(13);
  for (const size_t n : kSizes) {
    const std::vector<float> src = RandomFloats(n, &rng);
    const std::vector<float> base = RandomFloats(n, &rng);

    for (int op = 0; op < 4; ++op) {
      std::vector<float> d_avx = base;
      std::vector<float> d_scalar = base;
      switch (op) {
        case 0:
          avx2->add(d_avx.data(), src.data(), n);
          scalar.add(d_scalar.data(), src.data(), n);
          break;
        case 1:
          avx2->sub(d_avx.data(), src.data(), n);
          scalar.sub(d_scalar.data(), src.data(), n);
          break;
        case 2:
          avx2->mul(d_avx.data(), src.data(), n);
          scalar.mul(d_scalar.data(), src.data(), n);
          break;
        default:
          avx2->scale(d_avx.data(), -2.5f, n);
          scalar.scale(d_scalar.data(), -2.5f, n);
          break;
      }
      EXPECT_EQ(d_avx, d_scalar) << "op=" << op << " n=" << n;
    }
  }
}

TEST(KernelTableTest, F64ExecutorKernelsAreBitIdenticalAcrossTables) {
  // The vectorized query executor's f64 ops are elementwise (no
  // reassociation), so scalar and AVX2 must agree bit-for-bit — query
  // results must not depend on GEQO_ISA.
  const KernelTable* avx2 = Avx2TableOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this build/host";
  const KernelTable& scalar = ScalarTable();
  Rng rng(77);
  for (const size_t n : kSizes) {
    AlignedVector<double> a(n);
    AlignedVector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.NextGaussian() * 100.0;
      b[i] = rng.NextGaussian() * 100.0 + (i % 3 == 0 ? 1.0 : 0.0);
      if (b[i] == 0.0) b[i] = 1.0;  // div kernel contract: no zero divisors
    }
    const auto check = [&](void (*s_op)(double*, const double*, size_t),
                           void (*v_op)(double*, const double*, size_t),
                           const char* name) {
      AlignedVector<double> s = a;
      AlignedVector<double> v = a;
      s_op(s.data(), b.data(), n);
      v_op(v.data(), b.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(s[i], v[i]) << name << " n=" << n << " i=" << i;
      }
    };
    check(scalar.add_f64, avx2->add_f64, "add_f64");
    check(scalar.sub_f64, avx2->sub_f64, "sub_f64");
    check(scalar.mul_f64, avx2->mul_f64, "mul_f64");
    check(scalar.div_f64, avx2->div_f64, "div_f64");

    AlignedVector<double> fill_s(n, 0.0);
    AlignedVector<double> fill_v(n, 1.0);
    scalar.fill_f64(fill_s.data(), 42.5, n);
    avx2->fill_f64(fill_v.data(), 42.5, n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fill_s[i], fill_v[i]) << "fill_f64 n=" << n << " i=" << i;
    }
  }
}

TEST(KernelTableTest, CmpSelectF64MatchesScalarOnEveryOp) {
  const KernelTable* avx2 = Avx2TableOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this build/host";
  const KernelTable& scalar = ScalarTable();
  Rng rng(78);
  for (const size_t n : kSizes) {
    AlignedVector<double> a(n);
    AlignedVector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      // Small integer domain: plenty of exact ties for ==, <=, >=.
      a[i] = static_cast<double>(rng.Uniform(8));
      b[i] = static_cast<double>(rng.Uniform(8));
    }
    for (int op = 0; op < 6; ++op) {
      AlignedVector<uint32_t> s_out(n);
      AlignedVector<uint32_t> v_out(n);
      const size_t s_n = scalar.cmp_select_f64(op, a.data(), b.data(),
                                               s_out.data(), n);
      const size_t v_n =
          avx2->cmp_select_f64(op, a.data(), b.data(), v_out.data(), n);
      ASSERT_EQ(s_n, v_n) << "op=" << op << " n=" << n;
      for (size_t i = 0; i < s_n; ++i) {
        ASSERT_EQ(s_out[i], v_out[i]) << "op=" << op << " n=" << n;
      }
      // Selected indices must be strictly ascending (the executor's
      // selection-vector invariant).
      for (size_t i = 1; i < s_n; ++i) ASSERT_LT(s_out[i - 1], s_out[i]);
    }
  }
}

TEST(KernelTableTest, UnalignedBasesAreHandled) {
  const KernelTable* avx2 = Avx2TableOrNull();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this build/host";
  const KernelTable& scalar = ScalarTable();
  Rng rng(16);
  const size_t n = 67;
  // Carve operands at every offset within one 8-float vector, so loads start
  // at every possible misalignment relative to the 32-byte boundary.
  const std::vector<float> pool = RandomFloats(n + 16, &rng);
  for (size_t offset_a = 0; offset_a < 8; ++offset_a) {
    for (size_t offset_b = 0; offset_b < 8; ++offset_b) {
      const float* a = pool.data() + offset_a;
      const float* b = pool.data() + offset_b + 8;
      double abs_dot = 0.0;
      for (size_t i = 0; i < n; ++i) {
        abs_dot += std::fabs(static_cast<double>(a[i]) * b[i]);
      }
      EXPECT_NEAR(avx2->dot(a, b, n), scalar.dot(a, b, n),
                  SumTolerance(abs_dot))
          << "offsets " << offset_a << "," << offset_b;
    }
  }
}

TEST(KernelTableTest, MatMulTransposeVariantsAgreeAcrossIsas) {
  if (Avx2TableOrNull() == nullptr) {
    GTEST_SKIP() << "AVX2 unavailable on this build/host";
  }
  IsaGuard guard;
  Rng rng(17);
  // Odd shapes on purpose: every variant exercises tails.
  const Tensor a = Tensor::Randn(13, 21, 1.0f, &rng);
  const Tensor b = Tensor::Randn(21, 9, 1.0f, &rng);
  const Tensor at = ops::Transpose(a);
  const Tensor bt = ops::Transpose(b);

  struct Variant {
    const Tensor* lhs;
    const Tensor* rhs;
    bool ta;
    bool tb;
  };
  const Variant variants[] = {{&a, &b, false, false},
                              {&a, &bt, false, true},
                              {&at, &b, true, false},
                              {&at, &bt, true, true}};
  for (const Variant& variant : variants) {
    ASSERT_TRUE(SetIsa(Isa::kScalar));
    const Tensor scalar_out =
        ops::MatMul(*variant.lhs, *variant.rhs, variant.ta, variant.tb);
    ASSERT_TRUE(SetIsa(Isa::kAvx2));
    const Tensor avx2_out =
        ops::MatMul(*variant.lhs, *variant.rhs, variant.ta, variant.tb);
    ASSERT_EQ(scalar_out.rows(), avx2_out.rows());
    ASSERT_EQ(scalar_out.cols(), avx2_out.cols());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_NEAR(avx2_out.values()[i], scalar_out.values()[i],
                  std::fabs(scalar_out.values()[i]) * 1e-5 + 1e-5)
          << "ta=" << variant.ta << " tb=" << variant.tb << " i=" << i;
    }
  }
}

TEST(KernelTableTest, IsaSpecParsing) {
  Isa isa = Isa::kScalar;
  EXPECT_TRUE(ResolveIsaSpec("scalar", &isa));
  EXPECT_EQ(isa, Isa::kScalar);
  EXPECT_TRUE(ResolveIsaSpec("avx2", &isa));
  EXPECT_EQ(isa, Isa::kAvx2);
  EXPECT_TRUE(ResolveIsaSpec("auto", &isa));
  EXPECT_EQ(isa,
            Avx2TableOrNull() != nullptr ? Isa::kAvx2 : Isa::kScalar);
  EXPECT_FALSE(ResolveIsaSpec("sse9", &isa));
  EXPECT_FALSE(ResolveIsaSpec("", &isa));
}

TEST(KernelTableTest, SetIsaSwitchesTheActiveTable) {
  IsaGuard guard;
  ASSERT_TRUE(SetIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_STREQ(ActiveIsaName(), "scalar");
  EXPECT_STREQ(DispatchCounterName(), "kernel.dispatch.scalar");
  if (Avx2TableOrNull() != nullptr) {
    ASSERT_TRUE(SetIsa(Isa::kAvx2));
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
    EXPECT_STREQ(ActiveIsaName(), "avx2");
    EXPECT_STREQ(DispatchCounterName(), "kernel.dispatch.avx2");
  } else {
    EXPECT_FALSE(SetIsa(Isa::kAvx2));
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  }
}

TEST(AlignmentTest, TensorBuffersAreKernelAligned) {
  static_assert(kKernelAlignment == 32, "AVX2 vectors are 32 bytes");
  Rng rng(19);
  for (const size_t cols : {1u, 3u, 8u, 17u, 64u}) {
    const Tensor t = Tensor::Randn(5, cols, 1.0f, &rng);
    EXPECT_TRUE(IsKernelAligned(t.data())) << "cols=" << cols;
  }
  AlignedVector<float> v(123);
  EXPECT_TRUE(IsKernelAligned(v.data()));
  AlignedVector<uint8_t> codes(77);
  EXPECT_TRUE(IsKernelAligned(codes.data()));
}

TEST(AlignmentTest, AlignedStrideRoundsUpToWholeBlocks) {
  EXPECT_EQ(AlignedStride(1, sizeof(float)), 8u);
  EXPECT_EQ(AlignedStride(8, sizeof(float)), 8u);
  EXPECT_EQ(AlignedStride(9, sizeof(float)), 16u);
  EXPECT_EQ(AlignedStride(1, sizeof(uint8_t)), 32u);
  EXPECT_EQ(AlignedStride(32, sizeof(uint8_t)), 32u);
  EXPECT_EQ(AlignedStride(33, sizeof(uint8_t)), 64u);
}

}  // namespace
}  // namespace geqo::kernels
