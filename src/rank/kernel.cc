// Scalar scan kernel + runtime dispatch. This translation unit is
// compiled with -ffp-contract=off (see CMakeLists.txt) so the scalar
// element ops below round exactly as written -- no fused multiply-adds
// -- which is one half of the bitwise contract with the AVX2 kernel
// (the other half is kernel_avx2.cc being compiled without FMA).

#include "rank/kernel.h"

#include <cstdlib>
#include <cstring>

namespace uclean {
namespace psr_internal {

void FoldFactorScalar(double* c, const double* base, std::size_t top,
                      double q) {
  const double h = 1.0 - q;
  // Writes descend so every read of base[j] / base[j-1] sees the
  // pre-update value when c aliases base (Advance's in-place multiply
  // and RebuildCounts both rely on this).
  c[top] = base[top - 1] * q;
  for (std::size_t j = top - 1; j > 0; --j) {
    c[j] = base[j] * h + base[j - 1] * q;
  }
  c[0] = base[0] * h;
}

void DivideOutFwdScalar(double* excl, const double* c, std::size_t top,
                        double q) {
  const double headroom = 1.0 - q;
  excl[0] = c[0] / headroom;
  for (std::size_t j = 1; j < top; ++j) {
    const double v = (c[j] - excl[j - 1] * q) / headroom;
    excl[j] = v < 0.0 ? 0.0 : v;
  }
}

void DivideOutBwdScalar(double* excl, const double* c, std::size_t top,
                        double q) {
  excl[top - 1] = c[top] / q;
  for (std::size_t j = top - 1; j > 0; --j) {
    const double v = (c[j] - (1.0 - q) * excl[j]) / q;
    excl[j - 1] = v < 0.0 ? 0.0 : v;
  }
}

namespace {

void UpdateArgmaxScalar(double* best_prob, int32_t* best_index,
                        const double* rho, std::size_t n, int32_t rank_index) {
  for (std::size_t i = 0; i < n; ++i) {
    if (rho[i] > best_prob[i]) {
      best_prob[i] = rho[i];
      best_index[i] = rank_index;
    }
  }
}

double EmitSegmentScalar(double* dst, const double* src, std::size_t n,
                         double e, double p, double* best_prob,
                         int32_t* best_index, int32_t rank_index) {
  // One sweep, everything fused: the scalar path pays exactly what the
  // historical fused emission loop paid.
  if (best_prob == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = e * src[i];
      dst[i] = v;
      p += v;
    }
    return p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double v = e * src[i];
    dst[i] = v;
    p += v;
    if (v > best_prob[i]) {
      best_prob[i] = v;
      best_index[i] = rank_index;
    }
  }
  return p;
}

bool CpuHasAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // The cpuid probe is invariant for the process lifetime; cache it.
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace

const ScanKernel& ScalarScanKernel() {
  static const ScanKernel kernel = {
      KernelKind::kScalar, "scalar",          FoldFactorScalar,
      UpdateArgmaxScalar,  EmitSegmentScalar,
  };
  return kernel;
}

const ScanKernel* Avx2ScanKernelOrNull() {
  if (!CpuHasAvx2()) return nullptr;
  return Avx2ScanKernelImpl();
}

const ScanKernel& DefaultScanKernel() {
  if (!Avx2Disabled()) {
    const ScanKernel* avx2 = Avx2ScanKernelOrNull();
    if (avx2 != nullptr) return *avx2;
  }
  return ScalarScanKernel();
}

}  // namespace psr_internal

bool Avx2CompiledIn() { return psr_internal::Avx2ScanKernelImpl() != nullptr; }

bool Avx2Supported() { return psr_internal::Avx2ScanKernelOrNull() != nullptr; }

bool Avx2Disabled() {
  // Re-read on every call (no static): the forced-scalar CI leg and the
  // dispatch-override tests toggle the variable within one process.
  const char* value = std::getenv("UCLEAN_DISABLE_AVX2");
  if (value == nullptr || value[0] == '\0') return false;
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "OFF") != 0 && std::strcmp(value, "false") != 0;
}

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<const psr_internal::ScanKernel*> SelectScanKernel(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return &psr_internal::DefaultScanKernel();
    case KernelKind::kScalar:
      return &psr_internal::ScalarScanKernel();
    case KernelKind::kAvx2: {
      const psr_internal::ScanKernel* avx2 =
          psr_internal::Avx2ScanKernelOrNull();
      if (avx2 == nullptr) {
        return Status::InvalidArgument(
            Avx2CompiledIn()
                ? "kernel 'avx2' requested but this CPU does not support AVX2"
                : "kernel 'avx2' requested but the AVX2 kernel was not "
                  "compiled into this binary");
      }
      return avx2;
    }
  }
  return Status::InvalidArgument("unknown kernel kind");
}

}  // namespace uclean
