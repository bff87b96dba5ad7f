// Compute kernels for the PSR scan core (rank/psr_scan_core.h): the
// element-wise arithmetic of the hot loops -- the Bernoulli multiply-in
// (`fold_factor`, shared by Advance and RebuildCounts) and the emission
// passes (`emit_segment` for the per-rank rho buffer and its prefix sum,
// `update_argmax` for the U-kRanks trackers) -- packaged as a table of
// function pointers so the scan can be retargeted at runtime between a
// portable scalar path and an AVX2 path. The stable divide-out
// (`DivideOutChain`) is not in the table: it is one scalar code path for
// every kernel (see below).
//
// THE BITWISE CONTRACT. Every kernel computes the exact same IEEE-754
// double operation sequence per element, so scalar and AVX2 outputs are
// bitwise equal -- not merely close -- for every input. This is what
// lets the rest of the library ignore the kernel choice entirely: the
// engine's checkpoints, replays, pooled-session overlays and shard
// boundary hand-offs all rely on different drivers reproducing identical
// state, and a kernel that drifted by even one ulp would break those
// guarantees. Concretely:
//
//  * `fold_factor` / `update_argmax` and emit_segment's scale are
//    element-wise maps with no loop-carried rounding: each output lane
//    is the same mul/add/compare sequence in both paths (AVX2 packs four
//    lanes per instruction; per-lane IEEE semantics are identical to
//    scalar).
//    The kernel translation units are compiled with -ffp-contract=off
//    and without -mfma, so no path ever fuses a multiply-add the other
//    path rounds in two steps.
//  * Within one tuple the divide-out recurrence is sequential: each
//    element is a mul+sub+div+clamp chain on its predecessor, and a
//    lane-parallel evaluation would re-associate those roundings, so
//    the elements of one exclusion are never vectorized. Consecutive
//    tuples overlap instead: element j of tuple i+1's exclusion needs
//    only elements j and j-1 of tuple i's (through the fold that
//    advances the count vector between them), so DivideOutChain runs
//    the recurrences of up to kMaxChain consecutive tuples in lockstep
//    -- independent division chains the CPU pipelines -- with every
//    element's op sequence unchanged. It is one scalar code path for
//    every kernel, compiled in kernel.cc under -ffp-contract=off (in a
//    header, a host with FMA as a baseline could fuse its fold's
//    mul+add), which keeps the contract exact instead of falling back
//    to a tolerance gate.
//
// Runtime dispatch: the AVX2 path is compiled into its own translation
// unit (kernel_avx2.cc) with -mavx2 applied to that file only -- the
// library itself carries no -march requirement and stays runnable on
// any x86-64 (or non-x86) host. SelectScanKernel picks the table from
// an exec-layer KernelKind: kAuto probes the CPU once (and honors the
// UCLEAN_DISABLE_AVX2 environment variable, the forced-scalar CI leg's
// switch); kScalar and kAvx2 force a specific path, with kAvx2 failing
// fast when the host cannot run it. An explicit kAvx2 request ignores
// the environment switch so equivalence tests can still pit both
// kernels against each other under a forced-scalar environment.

#ifndef UCLEAN_RANK_KERNEL_H_
#define UCLEAN_RANK_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace uclean {
namespace psr_internal {

/// Minimal C++17 aligned allocator: the scan core's structure-of-arrays
/// buffers are 32-byte aligned so the AVX2 kernels start on a full
/// vector lane (unaligned intrinsics are used throughout, so alignment
/// is a performance property, never a correctness one).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// The scan core's double buffers (count vector, exclusion scratch,
/// emission scratch): contiguous, 32-byte aligned, value-semantics like
/// std::vector<double>.
using AlignedBuf =
    std::vector<double, AlignedAllocator<double, 32>>;

/// One retargetable kernel table. All functions tolerate the degenerate
/// sizes the scan produces (top >= 1 for fold, n == 0 for the emission
/// ops).
struct ScanKernel {
  /// The concrete kind this table implements (never kAuto) and its
  /// display name ("scalar" / "avx2", announced by the CLI).
  KernelKind kind;
  const char* name;

  /// Multiplies a Bernoulli factor (success mass q) into a count vector:
  /// writes c[0..top] from base[0..top-1], where
  ///     c[top] = base[top-1] * q
  ///     c[j]   = base[j] * (1-q) + base[j-1] * q    (j = top-1 .. 1)
  ///     c[0]   = base[0] * (1-q)
  /// Alias-safe for c == base (writes descend; every read of an index
  /// happens before any write at or below it).
  void (*fold_factor)(double* c, const double* base, std::size_t top,
                      double q);

  /// Element-wise argmax update for the U-kRanks trackers: for each i in
  /// [0, n), when rho[i] > best_prob[i] (strict), set best_prob[i] =
  /// rho[i] and best_index[i] = rank_index.
  void (*update_argmax)(double* best_prob, int32_t* best_index,
                        const double* rho, std::size_t n, int32_t rank_index);

  /// Fused emission segment: dst[i] = e * src[i] for i in [0, n) with
  /// the sequential prefix accumulation p += dst[i] folded in (ascending
  /// index order -- the prefix is part of the arithmetic lineage and
  /// must never re-associate); returns the updated prefix. When
  /// best_prob is non-null, the update_argmax pass over the same window
  /// is folded in as well (best_index, rank_index as above). Both
  /// kernels run everything in ONE sweep -- which is what keeps the
  /// structure-of-arrays scan as fast as the historical fused emission
  /// loop on the scalar path; the sequential accumulation is the sweep's
  /// latency chain, and the AVX2 kernel packs the scale and argmax of
  /// each 4-element chunk beside it: identical per-element arithmetic,
  /// bitwise-equal results.
  double (*emit_segment)(double* dst, const double* src, std::size_t n,
                         double e, double p, double* best_prob,
                         int32_t* best_index, int32_t rank_index);
};

/// The scalar Bernoulli multiply-in (the scalar table's fold_factor).
void FoldFactorScalar(double* c, const double* base, std::size_t top,
                      double q);

/// Most consecutive tuples one DivideOutChain call runs in lockstep. A
/// compile-time constant: a single-thread ladder {20, 100, 500} scan of
/// 5,000 x-tuples x 10 Gaussian bars (mass U[0.5, 0.9]) ran 1.32x faster
/// than at width 1 at width 2, 1.34x at 3, 1.39x at 4 and 1.35x at 8
/// (4-vCPU AVX2 host, GCC 12), all bitwise equal.
constexpr std::size_t kMaxChain = 4;

/// Stable divide-out of a chain of `width` (1..kMaxChain) consecutive
/// tuples whose x-tuples are all active. Member m divides its x-tuple's
/// Bernoulli factor (success mass q[m]) out of C_m, the count vector
/// before it, writing the exclusion excl[m][0..top-1]:
///     forward (q <= 1/2):
///         excl[0] = C[0] / (1-q)
///         excl[j] = max(0, (C[j] - excl[j-1] * q) / (1-q))
///     backward (q > 1/2), from the exact top seed:
///         excl[top-1] = C[top] / q
///         excl[j-1]   = max(0, (C[j] - (1-q) * excl[j]) / q)
/// C_0 is c[0..top]. For m >= 1, C_m is member m-1's exclusion with its
/// factor multiplied back in at the advanced mass q_next[m-1] -- exactly
/// FoldFactorScalar(C_m, excl[m-1], top, q_next[m-1]) -- and is written
/// to counts[m][0..top] (counts[0] and q_next[width-1] are unused).
/// Every member runs one direction. Each element runs the op sequence of
/// the width-1 recurrence and of the fold, so the outputs are bitwise
/// what `width` single-tuple divide-out and fold steps produce.
void DivideOutChain(const double* c, std::size_t top, std::size_t width,
                    bool forward, const double* q, const double* q_next,
                    double* const* excl, double* const* counts);

/// The portable scalar kernel (always available).
const ScanKernel& ScalarScanKernel();

/// The AVX2 kernel, or null when it cannot run here (not compiled in,
/// or the CPU lacks AVX2). Deliberately IGNORES UCLEAN_DISABLE_AVX2 so
/// equivalence tests can exercise both kernels regardless of the
/// environment; use SelectScanKernel(KernelKind::kAuto) for the
/// production choice.
const ScanKernel* Avx2ScanKernelOrNull();

/// What kAuto resolves to right now (scalar, or AVX2 when supported and
/// not disabled via the environment). Never null.
const ScanKernel& DefaultScanKernel();

/// Defined in kernel_avx2.cc: the raw AVX2 table when that translation
/// unit was compiled with AVX2 support, null otherwise. Internal --
/// callers want Avx2ScanKernelOrNull, which adds the CPU probe.
const ScanKernel* Avx2ScanKernelImpl();

}  // namespace psr_internal

/// True when the AVX2 kernel was compiled into this binary.
bool Avx2CompiledIn();

/// True when the AVX2 kernel is compiled in AND this CPU reports AVX2.
bool Avx2Supported();

/// True when the UCLEAN_DISABLE_AVX2 environment variable is set to a
/// truthy value (anything but "", "0", "off", "OFF", "false"). Read on
/// every call -- never cached -- so tests can toggle it.
bool Avx2Disabled();

/// "auto" / "scalar" / "avx2".
const char* KernelKindName(KernelKind kind);

/// Resolves a KernelKind to a concrete kernel table. kAuto returns the
/// best kernel this host can run (honoring UCLEAN_DISABLE_AVX2);
/// kScalar always succeeds; kAvx2 fails with InvalidArgument when the
/// AVX2 path is unavailable on this host.
Result<const psr_internal::ScanKernel*> SelectScanKernel(KernelKind kind);

}  // namespace uclean

#endif  // UCLEAN_RANK_KERNEL_H_
