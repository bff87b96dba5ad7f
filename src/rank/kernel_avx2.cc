// AVX2 scan kernel. This is the ONLY translation unit compiled with
// -mavx2 (CMake applies it per-file when the compiler supports the
// flag), so the library binary stays runnable on any x86-64 host:
// whether this code ever executes is decided at runtime by
// SelectScanKernel's CPU probe. Compiled with -ffp-contract=off and
// without -mfma: per-lane packed mul/add round exactly like the scalar
// kernel's separate mul and add, which is what keeps the two kernels
// bitwise equal (see the contract in kernel.h).

#include "rank/kernel.h"

#if defined(UCLEAN_HAVE_AVX2)

#include <immintrin.h>

namespace uclean {
namespace psr_internal {
namespace {

void FoldFactorAvx2(double* c, const double* base, std::size_t top,
                    double q) {
  const double h = 1.0 - q;
  c[top] = base[top - 1] * q;
  const __m256d vh = _mm256_set1_pd(h);
  const __m256d vq = _mm256_set1_pd(q);
  // Same descending order as the scalar kernel: a chunk writes
  // c[j-3..j] from loads of base[j-4..j], and every later load index is
  // strictly below every earlier store index, so the in-place (c ==
  // base) case stays alias-safe exactly as in the scalar loop.
  std::size_t j = top - 1;
  while (j >= 4) {
    const __m256d hi = _mm256_loadu_pd(base + j - 3);
    const __m256d lo = _mm256_loadu_pd(base + j - 4);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(hi, vh), _mm256_mul_pd(lo, vq));
    _mm256_storeu_pd(c + j - 3, r);
    j -= 4;
  }
  for (; j > 0; --j) {
    c[j] = base[j] * h + base[j - 1] * q;
  }
  c[0] = base[0] * h;
}

// The argmax update of the 4-element chunk at best_prob/best_index from
// the candidates `r`, tagging winners with `vi` (rank_index in every
// lane).
inline void ArgmaxChunk(double* best_prob, int32_t* best_index, __m256d r,
                        __m128i vi) {
  // Compresses the four 64-bit compare-mask lanes into four 32-bit
  // lanes (low dword of each) so the int32 index array can blend on the
  // same predicate as the double array.
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256d b = _mm256_loadu_pd(best_prob);
  // Strict greater-than, ordered: the exact predicate of the scalar
  // tracker (NaNs never occur; probabilities are finite).
  const __m256d gt = _mm256_cmp_pd(r, b, _CMP_GT_OQ);
  if (_mm256_movemask_pd(gt) == 0) return;
  _mm256_storeu_pd(best_prob, _mm256_blendv_pd(b, r, gt));
  const __m128i m32 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(gt), pick));
  const __m128i cur =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(best_index));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(best_index),
                   _mm_blendv_epi8(cur, vi, m32));
}

void UpdateArgmaxAvx2(double* best_prob, int32_t* best_index,
                      const double* rho, std::size_t n, int32_t rank_index) {
  const __m128i vi = _mm_set1_epi32(rank_index);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ArgmaxChunk(best_prob + i, best_index + i, _mm256_loadu_pd(rho + i), vi);
  }
  for (; i < n; ++i) {
    if (rho[i] > best_prob[i]) {
      best_prob[i] = rho[i];
      best_index[i] = rank_index;
    }
  }
}

double EmitSegmentAvx2(double* dst, const double* src, std::size_t n,
                       double e, double p, double* best_prob,
                       int32_t* best_index, int32_t rank_index) {
  // One sweep, like the scalar kernel: a packed scale, the prefix
  // accumulation as the same strictly sequential scalar sum (lane by
  // lane, ascending -- a packed horizontal reduction would re-associate
  // it), and the packed argmax, all per 4-element chunk. The sequential
  // sum is the sweep's latency chain; the packed work hides under it.
  // Each element sees the exact mul, add and compare of the scalar
  // kernel, so the results are bitwise equal.
  const __m256d ve = _mm256_set1_pd(e);
  const __m128i vi = _mm_set1_epi32(rank_index);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_mul_pd(ve, _mm256_loadu_pd(src + i));
    _mm256_storeu_pd(dst + i, v);
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    p += _mm_cvtsd_f64(lo);
    p += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    p += _mm_cvtsd_f64(hi);
    p += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    if (best_prob != nullptr) {
      ArgmaxChunk(best_prob + i, best_index + i, v, vi);
    }
  }
  for (; i < n; ++i) {
    const double v = e * src[i];
    dst[i] = v;
    p += v;
    if (best_prob != nullptr && v > best_prob[i]) {
      best_prob[i] = v;
      best_index[i] = rank_index;
    }
  }
  return p;
}

}  // namespace

const ScanKernel* Avx2ScanKernelImpl() {
  static const ScanKernel kernel = {
      KernelKind::kAvx2, "avx2",          FoldFactorAvx2,
      UpdateArgmaxAvx2,  EmitSegmentAvx2,
  };
  return &kernel;
}

}  // namespace psr_internal
}  // namespace uclean

#else  // !UCLEAN_HAVE_AVX2

namespace uclean {
namespace psr_internal {

const ScanKernel* Avx2ScanKernelImpl() { return nullptr; }

}  // namespace psr_internal
}  // namespace uclean

#endif  // UCLEAN_HAVE_AVX2
