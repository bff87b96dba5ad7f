// Scalar scan kernel + runtime dispatch. This translation unit is
// compiled with -ffp-contract=off (see CMakeLists.txt) so the scalar
// element ops below round exactly as written -- no fused multiply-adds
// -- which is one half of the bitwise contract with the AVX2 kernel
// (the other half is kernel_avx2.cc being compiled without FMA).

#include "rank/kernel.h"

#include <cstdlib>
#include <cstring>

#include "common/check.h"

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

namespace {

// The chained recurrences below run member m's element j right after
// member m-1's, so the division chains of the members are independent
// within one element and the CPU overlaps them. `prev[m]` holds member
// m's exclusion at the element before the current one, `fresh` the
// element just computed for the member before m; every expression is
// the width-1 recurrence's (or FoldFactorScalar's) with its operands in
// the same order.

template <std::size_t W>
void DivideOutChainFwd(const double* c, std::size_t top, const double* q,
                       const double* q_next, double* const* excl,
                       double* const* counts) {
  double headroom[W];
  double fold_h[W];
  double prev[W];
  for (std::size_t m = 0; m < W; ++m) {
    headroom[m] = 1.0 - q[m];
    fold_h[m] = m + 1 < W ? 1.0 - q_next[m] : 0.0;
  }
  double in = c[0];
  for (std::size_t m = 0; m < W; ++m) {
    if (m > 0) {
      in = prev[m - 1] * fold_h[m - 1];
      counts[m][0] = in;
    }
    prev[m] = in / headroom[m];
    excl[m][0] = prev[m];
  }
  for (std::size_t j = 1; j < top; ++j) {
    in = c[j];
    double fresh = 0.0;
    for (std::size_t m = 0; m < W; ++m) {
      if (m > 0) {
        in = fresh * fold_h[m - 1] + prev[m - 1] * q_next[m - 1];
        counts[m][j] = in;
        prev[m - 1] = fresh;
      }
      const double v = (in - prev[m] * q[m]) / headroom[m];
      fresh = v < 0.0 ? 0.0 : v;
      excl[m][j] = fresh;
    }
    prev[W - 1] = fresh;
  }
  for (std::size_t m = 1; m < W; ++m) {
    counts[m][top] = prev[m - 1] * q_next[m - 1];
  }
}

template <std::size_t W>
void DivideOutChainBwd(const double* c, std::size_t top, const double* q,
                       const double* q_next, double* const* excl,
                       double* const* counts) {
  double headroom[W];
  double fold_h[W];
  double prev[W];
  for (std::size_t m = 0; m < W; ++m) {
    headroom[m] = 1.0 - q[m];
    fold_h[m] = m + 1 < W ? 1.0 - q_next[m] : 0.0;
  }
  double in = c[top];
  for (std::size_t m = 0; m < W; ++m) {
    if (m > 0) {
      in = prev[m - 1] * q_next[m - 1];
      counts[m][top] = in;
    }
    prev[m] = in / q[m];
    excl[m][top - 1] = prev[m];
  }
  for (std::size_t j = top - 1; j > 0; --j) {
    in = c[j];
    double fresh = 0.0;
    for (std::size_t m = 0; m < W; ++m) {
      if (m > 0) {
        in = prev[m - 1] * fold_h[m - 1] + fresh * q_next[m - 1];
        counts[m][j] = in;
        prev[m - 1] = fresh;
      }
      const double v = (in - headroom[m] * prev[m]) / q[m];
      fresh = v < 0.0 ? 0.0 : v;
      excl[m][j - 1] = fresh;
    }
    prev[W - 1] = fresh;
  }
  for (std::size_t m = 1; m < W; ++m) {
    counts[m][0] = prev[m - 1] * fold_h[m - 1];
  }
}

template <std::size_t W>
void DivideOutChainOf(const double* c, std::size_t top, bool forward,
                      const double* q, const double* q_next,
                      double* const* excl, double* const* counts) {
  if (forward) {
    DivideOutChainFwd<W>(c, top, q, q_next, excl, counts);
  } else {
    DivideOutChainBwd<W>(c, top, q, q_next, excl, counts);
  }
}

}  // namespace

void DivideOutChain(const double* c, std::size_t top, std::size_t width,
                    bool forward, const double* q, const double* q_next,
                    double* const* excl, double* const* counts) {
  static_assert(kMaxChain == 4, "DivideOutChain dispatches widths 1..4");
  switch (width) {
    case 1:
      return DivideOutChainOf<1>(c, top, forward, q, q_next, excl, counts);
    case 2:
      return DivideOutChainOf<2>(c, top, forward, q, q_next, excl, counts);
    case 3:
      return DivideOutChainOf<3>(c, top, forward, q, q_next, excl, counts);
    case 4:
      return DivideOutChainOf<4>(c, top, forward, q, q_next, excl, counts);
  }
  UCLEAN_CHECK(false && "DivideOutChain width outside 1..kMaxChain");
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
