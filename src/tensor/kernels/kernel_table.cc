#include "tensor/kernels/kernel_table.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"

namespace geqo::kernels {
namespace {

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<int> g_active_isa{static_cast<int>(Isa::kScalar)};
std::once_flag g_init_once;

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &ScalarTable();
    case Isa::kAvx2:
      return Avx2TableOrNull();
  }
  return nullptr;
}

/// Resolves GEQO_ISA exactly once. Unknown specs and unavailable ISAs
/// degrade with a warning rather than aborting: a serving binary started
/// with a stale env var should come up (slower), not crash.
void InitFromEnv() {
  Isa isa = Isa::kScalar;
  const char* spec = std::getenv("GEQO_ISA");
  std::string spec_str = spec == nullptr ? "auto" : spec;
  if (!ResolveIsaSpec(spec_str, &isa)) {
    GEQO_LOG(kWarning) << "GEQO_ISA=" << spec_str
                       << " not recognised (want scalar|avx2|auto); using auto";
    ResolveIsaSpec("auto", &isa);
  }
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) {
    GEQO_LOG(kWarning) << "GEQO_ISA=" << spec_str
                       << " unavailable on this build/host; using scalar";
    isa = Isa::kScalar;
    table = &ScalarTable();
  }
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
}

void EnsureInit() { std::call_once(g_init_once, InitFromEnv); }

}  // namespace

const KernelTable& Active() {
  EnsureInit();
  return *g_active.load(std::memory_order_acquire);
}

Isa ActiveIsa() {
  EnsureInit();
  return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
}

const char* ActiveIsaName() { return Active().name; }

const char* DispatchCounterName() {
  switch (ActiveIsa()) {
    case Isa::kScalar:
      return "kernel.dispatch.scalar";
    case Isa::kAvx2:
      return "kernel.dispatch.avx2";
  }
  return "kernel.dispatch.scalar";
}

bool SetIsa(Isa isa) {
  EnsureInit();
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) return false;
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return true;
}

bool ResolveIsaSpec(const std::string& spec, Isa* out) {
  if (spec == "scalar") {
    *out = Isa::kScalar;
    return true;
  }
  if (spec == "avx2") {
    *out = Isa::kAvx2;
    return true;
  }
  if (spec == "auto") {
    *out = Avx2TableOrNull() != nullptr ? Isa::kAvx2 : Isa::kScalar;
    return true;
  }
  return false;
}

}  // namespace geqo::kernels
