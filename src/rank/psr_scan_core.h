// Internal Poisson-binomial scan core shared by the one-shot ComputePsr /
// ComputePsrLadder and the incremental PsrEngine. All drivers run the exact
// same per-tuple arithmetic through this state machine, which is what makes
// the engine's checkpoint/replay results bitwise indistinguishable from a
// from-scratch scan over the same database.
//
// Multi-k design.
//
// The count-vector recurrence is k-independent: the distribution of "how
// many x-tuples contribute a tuple ranked above the current position"
// evolves identically for every k, and only the emission (summing the
// first k entries of the exclusion view) and the Lemma-2 stop rule depend
// on k. The core therefore exposes the per-tuple work in three stages --
// BuildExclusion (k-independent, O(T) divide-out), EmitLadder (per-k
// emission from the shared exclusion view), Advance (k-independent, O(T)
// multiply-in) -- so one scan can serve an ascending ladder of k values:
// the expensive divide-out/multiply-in pair runs once per tuple however
// many k's are served, and the per-rank probabilities rho_i(h) are shared
// verbatim across every rung with k >= h. Because the head mass
// Pr[#contributors < k] is non-decreasing in k and non-increasing along
// the scan, the stop rule fires rung by rung from the smallest k upward;
// stopped rungs simply stop emitting while the scan continues for the
// larger ones.
//
// Numerical design.
//
// Naively one truncates the count vector at k and divides an x-tuple's
// Bernoulli factor out with the forward recurrence
//
//     c_excl[j] = (c[j] - c_excl[j-1] * q) / (1 - q),
//
// but that recurrence amplifies absolute rounding error by q/(1-q) PER
// INDEX: for an x-tuple whose remaining mass 1-q is small (heavily skewed
// alternatives, e.g. Gaussian histograms with sigma much smaller than the
// interval), the error explodes as (q/(1-q))^k and the output is garbage.
//
// This implementation is exact-and-stable instead:
//  * X-tuples whose above-mass q has reached 1 (within 1e-12) are pulled
//    out of the vector as an integer SHIFT (they always contribute one
//    tuple); the vector only covers the "unsaturated" x-tuples and is kept
//    UNTRUNCATED (length = #unsaturated + 1), so top seeds are exact.
//  * Dividing out a factor uses the forward recurrence when q <= 1/2
//    (error ratio q/(1-q) <= 1) and the backward recurrence
//        c_excl[j-1] = (c[j] - (1-q) * c_excl[j]) / q
//    seeded exactly from the top (c_excl[T-1] = c[T] / q) when q > 1/2
//    (error ratio (1-q)/q < 1, division by q >= 1/2). Both directions are
//    non-amplifying per index, but near q = 1/2 the ratio is ~1 either
//    way, with no margin: this bounds each step's error, not the
//    scan's. On the paper's default shape (unit mass, 10 Gaussian bars)
//    the error between refreshes drives sum p past k from k ~ 90
//    (ROADMAP.md item 1).
//  * The divide/multiply error is non-amplifying in ABSOLUTE terms (at
//    the scale of the vector's bulk, ~1), not relative to the smallest
//    coefficients: across thousands of positions the tail entries --
//    head masses near the stop threshold, low counts after many
//    saturations -- accumulate a noise floor that is pure rounding
//    lineage. The scan therefore REFRESHES the vector on a fixed grid:
//    at every live tuple whose ordinal (count of live tuples since rank
//    0) is a multiple of kCountRefreshGridLive, the vector is
//    reconstituted from the per-x-tuple masses (RebuildCounts, an exact
//    product of the active factors). The grid is keyed to live ordinals,
//    which are invariant under checkpoint replay and session overlays,
//    so EVERY driver -- one-shot, session replay, and every shard of a
//    sharded scan -- performs the
//    refresh at the same tuples and stays bitwise identical to every
//    other. Rank-range sharding (rank/sharded_scan.h) leans on this:
//    shard cut points are grid points, so a shard's boundary state
//    (mass bookkeeping forwarded cheaply, vector rebuilt on entry) is
//    bit-for-bit the state the sequential scan has there.
//
// Cost: O(T) per tuple where T is the number of unsaturated x-tuples that
// overlap the scan position (bounded by the tuples scanned so far, which
// the Lemma-2 stop keeps small for ranked data), plus O(k_max) for
// emission across the whole ladder, plus an amortized O(T^2 /
// kCountRefreshGridLive) per tuple for the refresh grid. The O(T)
// divide-out dominates: each of its elements waits on the one before,
// so it runs at the latency of one division chain per element. The scan
// loop therefore divides out up to kMaxChain consecutive tuples in one
// lockstep pass (ExclusionChain), overlapping their chains. On 5,000
// x-tuples x 10 Gaussian bars with existence mass U[0.5, 0.9], a
// single-thread ladder {20, 100, 500} scan (8,727 tuples deep) takes
// 25 ms where one chain per tuple took 42 ms (4-vCPU AVX2 host, GCC 12,
// the AVX2 emission's one-sweep form included); at mass U[0.2, 0.6] it
// is 2.1x faster, while unit-mass scans, where saturations and
// direction changes cut most chains, gain ~15%.
//
// Kernel layout.
//
// The state is structure-of-arrays: four contiguous aligned double
// buffers (count vector `c`, exclusion scratch `c_excl`, emission
// scratch `rho`, per-x-tuple masses `q`) plus a parallel byte array of
// per-x-tuple states. All element arithmetic on those buffers is routed
// through a runtime-selected ScanKernel (rank/kernel.h): the multiply-in
// fold and the emission scale/argmax passes vectorize under AVX2, the
// divide-out is one scalar chained kernel in every kernel (sequential
// within a tuple, overlapped across consecutive tuples; see
// ExclusionChain), and every kernel is bitwise equal to every other -- so
// the kernel choice, like the thread count, never changes a result. The
// emission loop is split accordingly: a vectorizable pass materializes
// rho[h-1] for the whole ladder into `rho`, the prefix/latch pass stays
// a strictly sequential scalar sum (re-associating it would change
// roundings), and the per-rung matrix/argmax passes are element-wise
// maps over the shared scratch.

#ifndef UCLEAN_RANK_PSR_SCAN_CORE_H_
#define UCLEAN_RANK_PSR_SCAN_CORE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "model/database.h"
#include "model/tuple.h"
#include "rank/kernel.h"
#include "rank/psr.h"

namespace uclean {
namespace psr_internal {

/// Per-x-tuple scan state.
enum class XTupleState : uint8_t {
  kInactive,   // no tuple passed yet (q == 0)
  kActive,     // 0 < q < 1: participates in the count vector
  kSaturated,  // q == 1 (within tolerance): folded into the shift
};

constexpr double kSaturationThreshold = 1.0 - 1e-12;

/// Count-vector refresh cadence in live-tuple ordinals (see the file
/// comment): every driver rebuilds the vector from the mass bookkeeping
/// at live ordinals 0, G, 2G, ... counted from rank 0. One shared
/// constant for the whole library -- scan core refresh, engine
/// checkpointing and shard-cut selection all key off it, the refresh
/// points are part of the arithmetic lineage, and changing them between
/// two drivers would break their bitwise agreement. The grid is also
/// what anchors the scalar/AVX2 kernel equivalence: at every grid point
/// the state is a pure function of the mass bookkeeping, so the kernel
/// tests can assert bitwise equality there (and everywhere else --
/// see rank/kernel.h).
constexpr size_t kCountRefreshGridLive = 4096;

/// Probabilistic generalization of the Lemma-2 stop: once the probability
/// that fewer than k tuples rank above the scan position drops below this
/// bound, every later tuple's top-k probability is below it too (p_i is at
/// most that head mass), so the scan stops. The induced quality error is
/// below n * |omega_max| * 1e-15, far inside the paper's 1e-8
/// cross-validation bar. Lemma 2 proper is the special case where the head
/// mass is exactly zero (k x-tuples saturated).
constexpr double kNegligibleHeadMass = 1e-15;

/// The k-independent scan state at one rank position, advanced tuple by
/// tuple. Structure-of-arrays: the hot buffers are contiguous aligned
/// double arrays operated on through the retargetable `kernel` table
/// (rank/kernel.h), never element-by-element in driver code.
struct ScanCore {
  // c[0..T]: distribution of the number of contributing unsaturated
  // x-tuples, where T is the current unsaturated-active count. Saturated
  // x-tuples add `saturated` contributors deterministically.
  AlignedBuf c;
  AlignedBuf c_excl;  // BuildExclusion's exclusion scratch
  // Emission scratch: rho[h-1] for h = 1..k_max, materialized per tuple
  // by EmitLadder (sized lazily to the ladder's largest k).
  AlignedBuf rho;
  size_t active = 0;     // unsaturated active x-tuples (== c.size() - 1)
  size_t saturated = 0;

  AlignedBuf q;                    // per-x-tuple above-mass (frozen once
                                   // saturated; unused from then on)
  std::vector<XTupleState> state;  // per-x-tuple scan state

  /// The element-op table every hot loop routes through. Set by Init
  /// (and inherited by copies: shard walks, forked sessions); all
  /// kernels are bitwise equal, so cores with different kernels still
  /// produce identical state.
  const ScanKernel* kernel = &ScalarScanKernel();

  /// The exclusion view for one tuple: the count distribution over all
  /// OTHER x-tuples, split into a deterministic shift (saturated others)
  /// and a vector over the unsaturated others. Valid until the next
  /// BuildExclusion or Advance call on the core.
  struct Exclusion {
    size_t others_shift = 0;
    const AlignedBuf* counts = nullptr;
  };

  /// Resets to the scan-start state for `num_xtuples` x-tuples, running
  /// all element arithmetic through `k` (defaults to what kAuto resolves
  /// to on this host).
  void Init(size_t num_xtuples, const ScanKernel* k = &DefaultScanKernel()) {
    kernel = k;
    c.assign(1, 1.0);
    c_excl.clear();
    active = 0;
    saturated = 0;
    q.assign(num_xtuples, 0.0);
    state.assign(num_xtuples, XTupleState::kInactive);
  }

  /// Reconstitutes `c` from the mass bookkeeping alone: the product of
  /// every active x-tuple's Bernoulli factor, multiplied in ascending
  /// x-tuple order with exactly the arithmetic Advance's in-place
  /// (aliased) multiply performs. A pure function of (q, state), so any
  /// two cores with identical bookkeeping rebuild identical vectors --
  /// the property the refresh grid and shard boundary hand-off rely on.
  void RebuildCounts() {
    c.assign(1, 1.0);
    size_t rebuilt = 0;
    for (size_t l = 0; l < state.size(); ++l) {
      if (state[l] != XTupleState::kActive) continue;
      const size_t top = c.size();
      c.resize(top + 1);
      // In-place fold: the kernel's descending writes keep reads of
      // c[j] / c[j-1] on pre-update values.
      kernel->fold_factor(c.data(), c.data(), top, q[l]);
      ++rebuilt;
    }
    UCLEAN_CHECK(rebuilt == active);
  }

  /// True when the (generalized) Lemma-2 rule says every tuple at or after
  /// the current position has negligible top-k probability. Monotone both
  /// along the scan (the contributor count is stochastically non-
  /// decreasing) and downward in k (the head mass only shrinks), so once a
  /// rung of a ladder stops, it stays stopped and so do all smaller rungs.
  bool ShouldStop(size_t k) const {
    return StopRuleFires(c.data(), c.size(), saturated, k);
  }

  /// ShouldStop on a stored state: the count vector c[0..len) and the
  /// saturated count of a checkpoint, say.
  static bool StopRuleFires(const double* c, size_t len, size_t saturated,
                            size_t k) {
    if (saturated >= k) return true;  // Lemma 2 proper
    // Head mass: Pr[fewer than k x-tuples contribute above the position].
    double head = 0.0;
    const size_t head_top = std::min(k - saturated, len);
    for (size_t j = 0; j < head_top; ++j) head += c[j];
    return head < kNegligibleHeadMass;
  }

  /// Builds the exclusion view for tuple `t` (others = all x-tuples except
  /// t's own tau_l), dividing tau_l's Bernoulli factor out of the count
  /// vector when it is active. The single-tuple step: the scan loop's
  /// ExclusionChain computes the same view, bit for bit, for chains of
  /// consecutive tuples, and calls this only when there is nothing to
  /// divide out.
  Exclusion BuildExclusion(const Tuple& t) {
    const int32_t l = t.xtuple;
    Exclusion ex;
    ex.others_shift = saturated;
    ex.counts = &c;
    switch (state[l]) {
      case XTupleState::kInactive:
        break;  // tau_l not in the vector: excl == c
      case XTupleState::kSaturated:
        // tau_l sits in the shift (possible only when its residual mass,
        // and hence t.prob, is below the saturation tolerance).
        ex.others_shift = saturated - 1;
        break;
      case XTupleState::kActive: {
        const double ql = q[l];
        const size_t top = active;  // c has indices 0..top
        c_excl.resize(top);         // exclusion has indices 0..top-1
        // Stable direction choice (see the file comment): a chain of
        // one, the one scalar divide-out whatever the kernel
        // (rank/kernel.h).
        double* out = c_excl.data();
        DivideOutChain(c.data(), top, 1, ql <= 0.5, &ql, nullptr, &out,
                       nullptr);
        ex.counts = &c_excl;
        break;
      }
    }
    return ex;
  }

  /// Advances the state past `t`: tau_l's above-mass grows by t.prob. `ex`
  /// must be the exclusion view built for `t`.
  void Advance(const Tuple& t, const Exclusion& ex) {
    const int32_t l = t.xtuple;
    if (state[l] == XTupleState::kSaturated) return;  // shift absorbs it
    const double q_new = q[l] + t.prob;
    q[l] = q_new;
    if (q_new >= kSaturationThreshold) {
      // tau_l now always contributes: fold it into the shift. `ex`
      // already holds the vector without tau_l's factor.
      if (state[l] == XTupleState::kActive) {
        c.assign(ex.counts->begin(), ex.counts->end());
        --active;
      }
      state[l] = XTupleState::kSaturated;
      ++saturated;
    } else {
      // Multiply tau_l's updated Bernoulli factor into the others-vector.
      // `base` may alias `c` (inactive x-tuple: excl == c); the kernel's
      // fold is alias-safe, and base.data() is read after the resize.
      const AlignedBuf& base = *ex.counts;
      const size_t top = base.size();  // counts 0..top-1
      c.resize(top + 1);
      kernel->fold_factor(c.data(), base.data(), top, q_new);
      if (state[l] == XTupleState::kInactive) {
        state[l] = XTupleState::kActive;
        ++active;
      }
      UCLEAN_DCHECK(c.size() == active + 1);
    }
  }
};

/// Emits tuple `t` at rank index `i` into every still-active rung
/// `outs[first_active..]` (ascending k). The per-rank probabilities
/// rho_i(h) are computed once from the shared exclusion view and each
/// rung's top-k probability is the running prefix sum at its own k, so the
/// whole ladder costs one O(k_max) pass. When `track_best` is set the
/// per-rank argmax trackers are updated for every active rung (only valid
/// for a single uninterrupted scan from rank 0).
///
/// Pass structure (results identical to the historical fused per-h
/// loop, value for value):
///  1. one `emit_segment` sweep per rung segment of the exclusion
///     window, which fuses the scale rho[h-1] = e * excl[h-1-shift],
///     the strictly sequential prefix sum in h order (a parallel prefix
///     would re-associate the additions and change roundings), and --
///     on the common single-rung tracked path -- the argmax trackers.
///     The scalar kernel runs this as literally one loop; the AVX2
///     kernel vectorizes the scale and argmax around the same
///     sequential accumulation, bitwise equal either way.
///  2. only when a later pass reads rho wholesale (per-rung matrix rows
///     via contiguous copy of rho[0..k_j), or the multi-rung argmax
///     pass): the out-of-window regions are zero-filled and the rows /
///     trackers consume the materialized buffer. Skipping the fill and
///     the p += 0.0 additions otherwise is a bitwise identity -- rho is
///     nonnegative, p starts at +0.0, and a zero never beats the strict
///     argmax compare.
inline void EmitLadder(const Tuple& t, size_t i, ScanCore& core,
                       const ScanCore::Exclusion& ex,
                       const std::vector<PsrOutput*>& outs, size_t first_active,
                       bool track_best) {
  const size_t rungs = outs.size();
  if (first_active >= rungs) return;
  const double e = t.prob;
  const AlignedBuf& excl = *ex.counts;
  const size_t excl_len = excl.size();
  const size_t k_max = outs[rungs - 1]->k;
  const bool store_matrix = outs[rungs - 1]->has_rank_probabilities;
  const bool track = track_best && !t.is_null;
  const ScanKernel& kernel = *core.kernel;

  AlignedBuf& rho = core.rho;
  if (rho.size() < k_max) rho.resize(k_max);
  const size_t shift = ex.others_shift;
  const size_t lo = std::min(shift, k_max);
  const size_t hi = std::min(k_max, shift + excl_len);
  // The single-rung tracked path folds the argmax update into the
  // emission sweep itself; multi-rung tracking and matrix storage read
  // rho[0..k_j) wholesale afterwards and need the out-of-window zeros
  // materialized.
  const bool fuse_argmax = track && !store_matrix && rungs - first_active == 1;
  const bool rho_consumed = store_matrix || (track && !fuse_argmax);
  if (rho_consumed) {
    std::fill(rho.begin(), rho.begin() + lo, 0.0);
    std::fill(rho.begin() + hi, rho.begin() + k_max, 0.0);
  }

  // Walk the exclusion window once, segmented at rung boundaries: each
  // emit_segment call scales the segment into rho, folds it into the
  // running prefix in ascending h order, and each rung latches its
  // top-k probability as its boundary is crossed -- the same values, in
  // the same order, as the historical fused per-h loop (ranks outside
  // [lo, hi) contribute exact zeros and are skipped).
  double p = 0.0;
  size_t done = 0;  // ranks [0, done) already accumulated
  for (size_t next = first_active; next < rungs; ++next) {
    PsrOutput& out = *outs[next];
    const size_t a = std::max(done, lo);
    const size_t b = std::min(out.k, hi);
    if (b > a) {
      p = kernel.emit_segment(
          rho.data() + a, excl.data() + (a - shift), b - a, e, p,
          fuse_argmax ? out.best_rank_prob.data() + a : nullptr,
          fuse_argmax ? out.best_rank_index.data() + a : nullptr,
          static_cast<int32_t>(i));
    }
    done = out.k;
    // The rung grows as it emits: +0.0 for the tombstoned slots since
    // its last emission, then p_i.
    UCLEAN_DCHECK(out.topk_prob.size() <= i);
    out.topk_prob.resize(i);
    out.topk_prob.push_back(p);
  }

  if (!rho_consumed) return;
  // Every rung j >= first_active consumes the shared prefix rho[0..k_j):
  // rungs below first_active are stopped and receive nothing, exactly as
  // in the fused loop (their latch had already passed).
  for (size_t j = first_active; j < rungs; ++j) {
    PsrOutput& out = *outs[j];
    const size_t kj = out.k;
    if (store_matrix) {
      out.rank_prob.resize(i * kj);
      out.rank_prob.insert(out.rank_prob.end(), rho.begin(), rho.begin() + kj);
    }
    if (track) {
      kernel.update_argmax(out.best_rank_prob.data(),
                           out.best_rank_index.data(), rho.data(), kj,
                           static_cast<int32_t>(i));
    }
  }
}

/// One empty PsrOutput per rung of `ladder` (defined in psr.cc, shared
/// with the engine's Create and the overlay scan path): the scan grows
/// each rung as it emits and StopRung sizes it.
void InitLadderOutputs(const KLadder& ladder, const PsrOptions& options,
                       std::vector<PsrOutput>* outputs);

/// Ends `out` at its stop position `at`: its scan_end, and the length of
/// its live prefix (tombstoned slots after its last emission read +0.0).
inline void StopRung(size_t at, PsrOutput* out) {
  out->scan_end = at;
  out->topk_prob.resize(at);
  if (out->has_rank_probabilities) out->rank_prob.resize(at * out->k);
}

/// The chained divide-out of one scan call (rank/kernel.h): up to
/// kMaxChain consecutive live tuples whose exclusions, and the count
/// vectors before each of them, one lockstep DivideOutChain pass
/// computes. Build serves them position by position and Advance swaps
/// the precomputed vectors in, so between members the scan loop runs
/// every per-position step -- refresh, stop checks, checkpoint,
/// emission -- on exactly the state the single-tuple path
/// (ScanCore::BuildExclusion / Advance) has there. A chain starts at a
/// tuple whose x-tuple is active and adds the next live tuple only
/// while:
///  * the previous member's advance does not saturate (a saturating
///    advance changes the vector's length);
///  * the new member's live ordinal is off the refresh grid, so no
///    RebuildCounts falls inside a chain;
///  * the new member's x-tuple is active, or is already in the chain
///    (its mass is then the chain's post-advance value);
///  * its divide-out runs in the first member's direction;
///  * it lies before the scan's end.
/// Owned by the scan call, never by a core: the buffers are scratch, and
/// a scan that stops mid-chain leaves the core in the state the
/// single-tuple path leaves.
class ExclusionChain {
 public:
  /// The exclusion view for live position `i` of `db`, whose live
  /// ordinal is `live`: the chain's next member when `i` is one,
  /// otherwise the first member of a chain formed at `i` over positions
  /// before `end`. Valid until the next Build or Advance call.
  template <typename Db>
  ScanCore::Exclusion Build(const Db& db, size_t i, size_t live, size_t end,
                            ScanCore& core) {
    if (member_ + 1 < width_) {
      ++member_;
      UCLEAN_DCHECK(pos_[member_] == i);
      return {core.saturated, &excl_[member_]};
    }
    width_ = 0;
    member_ = 0;
    const Tuple& first = db.tuple(i);
    if (core.state[first.xtuple] != XTupleState::kActive) {
      return core.BuildExclusion(first);  // nothing to divide out
    }
    int32_t xtuple[kMaxChain];
    double q[kMaxChain];       // mass each member divides out
    double q_next[kMaxChain];  // its mass after its advance
    xtuple[0] = first.xtuple;
    q[0] = core.q[first.xtuple];
    q_next[0] = q[0] + first.prob;
    pos_[0] = i;
    const bool forward = q[0] <= 0.5;
    size_t width = 1;
    size_t p = i;
    while (width < kMaxChain && q_next[width - 1] < kSaturationThreshold) {
      do {
        ++p;
      } while (p < end && db.is_tombstone(p));
      if (p >= end || (live + width) % kCountRefreshGridLive == 0) break;
      const Tuple& t = db.tuple(p);
      size_t m = width;
      while (m > 0 && xtuple[m - 1] != t.xtuple) --m;
      double qt = 0.0;
      if (m > 0) {
        qt = q_next[m - 1];  // already in the chain: its advanced mass
      } else if (core.state[t.xtuple] == XTupleState::kActive) {
        qt = core.q[t.xtuple];
      } else {
        break;
      }
      if ((qt <= 0.5) != forward) break;
      xtuple[width] = t.xtuple;
      q[width] = qt;
      q_next[width] = qt + t.prob;
      pos_[width] = p;
      ++width;
    }
    const size_t top = core.active;
    double* excl[kMaxChain];
    double* counts[kMaxChain] = {};
    for (size_t m = 0; m < width; ++m) {
      excl_[m].resize(top);
      excl[m] = excl_[m].data();
      if (m > 0) {
        counts_[m].resize(top + 1);
        counts[m] = counts_[m].data();
      }
    }
    DivideOutChain(core.c.data(), top, width, forward, q, q_next, excl,
                   counts);
    width_ = width;
    return {core.saturated, &excl_[0]};
  }

  /// Advances `core` past `t`, the tuple the last Build served `ex` for.
  /// A member with a successor only adds its mass: the chain already
  /// folded its advanced factor into the successor's count vector.
  void Advance(const Tuple& t, const ScanCore::Exclusion& ex,
               ScanCore& core) {
    if (member_ + 1 < width_) {
      core.q[t.xtuple] += t.prob;
      core.c.swap(counts_[member_ + 1]);
      return;
    }
    core.Advance(t, ex);
  }

 private:
  size_t width_ = 0;   // members of the current chain (0: none)
  size_t member_ = 0;  // the member Build served last
  size_t pos_[kMaxChain] = {};
  AlignedBuf excl_[kMaxChain];
  AlignedBuf counts_[kMaxChain];  // [m]: the vector before member m >= 1
};

/// The one per-position scan loop, shared by the one-shot drivers, the
/// engine and every shard of a sharded scan: runs positions [begin, end)
/// of `db` through `core`, emitting position i at index i - emit_base of
/// the ladder `outs` (ascending k; rungs before `first_active` are
/// already stopped and receive nothing). `live_at_begin` is the
/// live-tuple ordinal of position `begin` (0 for full scans; checkpoints
/// and shard cuts record it): the count vector refreshes at every live
/// ordinal that is a multiple of kCountRefreshGridLive, BEFORE that
/// position's stop checks, so every driver makes the same stop decisions
/// from the same refreshed state. A rung whose stop rule first fires at
/// position i, and every rung still running at `end` (i == end), is
/// ended there by StopRung at index i - emit_base. `maybe_checkpoint(
/// core, i, live)` is invoked for every live position before it is
/// processed -- the engine snapshots there, the one-shot drivers pass a
/// no-op.
///
/// `Db` is ProbabilisticDatabase or any type exposing its read interface
/// (num_tuples / tuple / is_tombstone) -- per-session DatabaseOverlay
/// views run the exact same arithmetic, which keeps a session's replayed
/// state bitwise identical to a from-scratch scan of its view.
template <typename Db, typename CheckpointFn>
inline void RunLadderScan(const Db& db, size_t begin, size_t end,
                          size_t live_at_begin, size_t emit_base,
                          bool early_termination, ScanCore& core,
                          const std::vector<PsrOutput*>& outs,
                          size_t first_active, bool track_best,
                          CheckpointFn&& maybe_checkpoint) {
  const size_t rungs = outs.size();
  ExclusionChain chain;
  size_t live = live_at_begin;
  for (size_t i = begin; i < end; ++i) {
    const bool is_live = !db.is_tombstone(i);
    if (is_live && live % kCountRefreshGridLive == 0) core.RebuildCounts();
    if (early_termination) {
      // The stop rule fires smallest-k first (head mass grows with k).
      while (first_active < rungs &&
             core.ShouldStop(outs[first_active]->k)) {
        StopRung(i - emit_base, outs[first_active]);
        ++first_active;
      }
      if (first_active == rungs) return;
    }
    if (!is_live) continue;  // cleaning-session garbage slot
    maybe_checkpoint(core, i, live);
    const Tuple& t = db.tuple(i);
    const ScanCore::Exclusion ex = chain.Build(db, i, live, end, core);
    EmitLadder(t, i - emit_base, core, ex, outs, first_active, track_best);
    chain.Advance(t, ex, core);
    ++live;
  }
  for (size_t j = first_active; j < rungs; ++j) {
    StopRung(end - emit_base, outs[j]);
  }
}

}  // namespace psr_internal
}  // namespace uclean

#endif  // UCLEAN_RANK_PSR_SCAN_CORE_H_
