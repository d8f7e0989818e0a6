#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

/// \file kernel_table.h
/// Runtime ISA dispatch for the tensor hot loops.
///
/// Every arithmetic inner loop in the cascade — MatMul for EMF inference,
/// SquaredDistance for HNSW search, and the elementwise ops — funnels through
/// one function-pointer table selected once at startup. Two implementations
/// exist: a portable scalar table whose arithmetic is bit-identical to the
/// historical loops in tensor.cc, and an AVX2+FMA table compiled in its own
/// translation unit (the only TU built with -mavx2 -mfma, keeping the rest of
/// the binary portable). Selection order:
///
///   1. `GEQO_ISA=scalar|avx2|auto` env override, read once at first use.
///      `avx2` on a host without AVX2 support logs a warning and falls back.
///   2. `auto` (default): CPUID probe — AVX2+FMA present picks the AVX2 table.
///
/// Benches and tests can flip tables after startup with SetIsa(); production
/// code never does. All float arithmetic is f32 on every table.

namespace geqo::kernels {

/// Instruction sets a kernel table can be built for.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// One entry point per hot loop. Pointer parameters follow the historical
/// tensor.cc conventions: contiguous f32 rows, no aliasing between source and
/// destination unless the name says "in place" (dst-accumulating ops read and
/// write dst only at the same index, so dst==src is still well-defined).
struct KernelTable {
  /// Strict-order reference semantics are defined by the scalar table; SIMD
  /// tables may reassociate float sums (documented ULP tolerance), but all
  /// integer kernels must be exact across tables.
  const char* name;

  /// sum_i a[i]*b[i]
  float (*dot)(const float* a, const float* b, std::size_t n);
  /// y[i] += a * x[i]
  void (*axpy)(float a, const float* x, float* y, std::size_t n);
  /// sum_i (a[i]-b[i])^2
  float (*squared_distance)(const float* a, const float* b, std::size_t n);
  /// dst[i] += src[i]
  void (*add)(float* dst, const float* src, std::size_t n);
  /// dst[i] -= src[i]
  void (*sub)(float* dst, const float* src, std::size_t n);
  /// dst[i] *= src[i]
  void (*mul)(float* dst, const float* src, std::size_t n);
  /// dst[i] *= s
  void (*scale)(float* dst, float s, std::size_t n);

  // --- f64 executor kernels -------------------------------------------------
  // The vectorized query executor (src/exec) evaluates expressions over dense
  // double columns through these. All are elementwise (no reassociation), so
  // results must be bit-identical across tables — the executor's parity tests
  // compare whole query results against the row-at-a-time oracle under
  // GEQO_ISA=scalar and auto.

  /// dst[i] += src[i]
  void (*add_f64)(double* dst, const double* src, std::size_t n);
  /// dst[i] -= src[i]
  void (*sub_f64)(double* dst, const double* src, std::size_t n);
  /// dst[i] *= src[i]
  void (*mul_f64)(double* dst, const double* src, std::size_t n);
  /// dst[i] /= src[i] — caller must reject zero divisors first.
  void (*div_f64)(double* dst, const double* src, std::size_t n);
  /// dst[i] = v
  void (*fill_f64)(double* dst, double v, std::size_t n);
  /// Writes the indices i in [0,n) with `a[i] <op> b[i]` to out (ascending)
  /// and returns how many passed. op follows plan::CompareOp order:
  /// 0 ==, 1 !=, 2 <, 3 <=, 4 >, 5 >=. Inputs are never NaN (the executor
  /// rejects division by zero before it happens), so ordered SIMD predicates
  /// agree with the scalar comparisons.
  std::size_t (*cmp_select_f64)(int op, const double* a, const double* b,
                                std::uint32_t* out, std::size_t n);
};

/// The table every op dispatches through. First call resolves GEQO_ISA /
/// CPUID; subsequent calls are a single atomic load.
const KernelTable& Active();

/// Currently active ISA / its lower-case name ("scalar", "avx2").
Isa ActiveIsa();
const char* ActiveIsaName();

/// Metrics counter name for the active table, e.g. "kernel.dispatch.avx2".
const char* DispatchCounterName();

/// Portable reference table (always available).
const KernelTable& ScalarTable();

/// AVX2+FMA table, or nullptr when the binary was built without AVX2 support
/// or the host CPU lacks AVX2/FMA. Defined in kernels_avx2.cc.
const KernelTable* Avx2TableOrNull();

/// Forces the active table (benches / parity tests). Returns false and leaves
/// the table unchanged when \p isa is unavailable on this build/host.
bool SetIsa(Isa isa);

/// Parses "scalar" / "avx2" / "auto" (case-sensitive, as documented for
/// GEQO_ISA). Returns false on an unrecognised spec. "auto" resolves to the
/// best ISA the host supports.
bool ResolveIsaSpec(const std::string& spec, Isa* out);

}  // namespace geqo::kernels
