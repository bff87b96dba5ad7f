// PSR: rank-probability computation for probabilistic top-k queries.
//
// Computes, for every tuple t_i of a rank-sorted x-tuple database, the
// rank-h probabilities rho_i(h) (Definition 2) and the top-k probability
// p_i = sum_h rho_i(h) (Definition 3) in O(kn) total time, following the
// dynamic-programming approach of Bernecker et al. (TKDE 2010) that the
// paper adopts (Section IV-B).
//
// Sketch: scan tuples in descending rank order, maintaining the
// Poisson-binomial distribution c[j] = Pr[exactly j x-tuples contribute a
// tuple ranked above the current position], where x-tuple tau_l contributes
// with probability q_l = (mass of tau_l above the position). For tuple t_i
// in tau_l, conditioning on t_i's existence excludes the rest of tau_l, so
// tau_l's Bernoulli factor is divided out of c, giving
// rho_i(h) = e_i * c_excl[h-1]. After emitting t_i, q_l grows by e_i and
// the factor is multiplied back in.
//
// Numerically, each divide-out runs in the direction whose per-index
// error ratio is at most 1 (forward for q_l <= 1/2, backward from an
// exact untruncated top seed for q_l > 1/2), x-tuples whose above-mass
// reaches 1 are folded into an exact integer shift, and the count vector
// is rebuilt from the masses at a fixed grid of scan positions; see the
// implementation notes in psr_scan_core.h. That bounds the error of each
// step, not of the scan: between rebuilds rounding error grows with scan
// depth, and near q_l = 1/2 neither direction leaves any margin. The MOV
// stand-in keeps sum_i p_i = k up to k = 2000, but on the paper's default
// shape (5,000 x-tuples x 10 Gaussian bars, unit mass) sum_i p_i exceeds
// k from k ~ 90 (293.5 at k = 100) -- an open defect, ROADMAP.md item 1.
//
// Early termination (Lemma 2): once at least k x-tuples are saturated
// (q_l = 1, i.e. they certainly contribute a higher-ranked tuple), every
// later tuple has zero top-k probability and the scan stops.
//
// Incremental recomputation: adaptive cleaning sessions re-derive rank
// probabilities after every pclean success. A successful clean collapses
// one x-tuple tau_l to a certain tuple while leaving every other tuple's
// rank unchanged, so the scan state at every position ranked above tau_l's
// best alternative is untouched -- tau_l was still inactive there. The
// PsrEngine (psr_engine.h) exploits this: it checkpoints the scan state at
// intervals during the initial pass, and on a clean restores the last
// checkpoint at or before the collapsed x-tuple's first member and replays
// only the suffix. Within the replay the collapsed x-tuple's certain tuple
// saturates on contact and is folded straight into the integer shift, and
// its old Bernoulli factor never enters the count vector (the restored
// checkpoint predates the x-tuple's activation), so no explicit divide-out
// is needed and the replayed suffix is bitwise identical to a from-scratch
// scan of the cleaned database. Tuples are addressed by rank index
// throughout; a session's tombstoned slots (DatabaseOverlay::
// ApplyCleanOutcome) are skipped by both the one-shot scan and the engine.

#ifndef UCLEAN_RANK_PSR_H_
#define UCLEAN_RANK_PSR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"

namespace uclean {

class DatabaseOverlay;

/// An ascending ladder of k values served by one shared PSR scan. The
/// count-vector recurrence of the scan is k-independent until emission, so
/// a whole ladder of top-k queries (Figure 5's sharing effect, taken
/// across k) costs one pass: the per-rank probabilities rho_i(h) are
/// computed once and each rung reads its own prefix sum.
struct KLadder {
  /// Strictly ascending, all >= 1. Use Of() to build from arbitrary input.
  std::vector<size_t> ks;

  /// Validates, sorts and dedups `ks`. Fails with InvalidArgument when the
  /// list is empty or contains a zero.
  static Result<KLadder> Of(std::vector<size_t> ks);

  /// Checks the invariant every consumer relies on (non-empty, strictly
  /// ascending, positive) -- holds by construction for ladders built with
  /// Of(), but hand-assembled ones go through the scan drivers too.
  Status Validate() const;

  size_t size() const { return ks.size(); }
  size_t max_k() const { return ks.back(); }
  size_t operator[](size_t i) const { return ks[i]; }

  /// Index of `k` in the ladder, or npos when absent.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t IndexOf(size_t k) const;

  /// "{5, 10, 25, 50}".
  std::string ToString() const;
};

/// Tuning knobs for the PSR scan.
struct PsrOptions {
  /// Apply the Lemma-2 stop rule (on by default; results are identical
  /// either way, later tuples provably have p_i = 0).
  bool early_termination = true;

  /// Keep the full n-by-k rank-probability matrix. Costs O(nk) memory;
  /// only the brute-force validation tests and small examples need it —
  /// query evaluation uses the incrementally tracked per-rank argmaxes.
  bool store_rank_probabilities = false;
};

/// Rank-probability information for one database and one k. By Lemma 2
/// every tuple at or past the scan's stop point has top-k probability
/// 0, so the per-rank vectors hold only the live prefix [0, scan_end):
/// topk_prob.size() == scan_end, and rank_prob.size() == scan_end * k
/// when the matrix is stored. Read through topk_at / rank_probability
/// to walk every rank.
struct PsrOutput {
  size_t k = 0;

  /// Tuple count of the database the scan ran over: consumers check it
  /// against their database, which the prefix-sized vectors cannot show.
  size_t num_tuples = 0;

  /// p_i per rank index below scan_end (includes materialized null
  /// tuples; +0.0 for a session's tombstoned slots).
  std::vector<double> topk_prob;

  /// Number of tuples with strictly positive top-k probability.
  size_t num_nonzero = 0;

  /// Rank index at which the Lemma-2 rule stopped the scan (== num_tuples
  /// when the whole database was scanned).
  size_t scan_end = 0;

  /// For each h in 1..k: the highest rho_i(h) over *real* tuples, and the
  /// rank index attaining it (-1 if no real tuple can take rank h). This is
  /// exactly the U-kRanks answer (Section III-B).
  std::vector<double> best_rank_prob;
  std::vector<int32_t> best_rank_index;

  /// Flattened scan_end-by-k matrix rho[i*k + (h-1)] when
  /// PsrOptions::store_rank_probabilities is set; empty otherwise.
  std::vector<double> rank_prob;
  bool has_rank_probabilities = false;

  /// p_i for any rank index: +0.0 at or past scan_end.
  double topk_at(size_t rank_index) const {
    return rank_index < topk_prob.size() ? topk_prob[rank_index] : 0.0;
  }

  /// rho_i(h) from the stored matrix, +0.0 at or past scan_end. Requires
  /// has_rank_probabilities and h in [1, k].
  double rank_probability(size_t rank_index, size_t h) const {
    UCLEAN_DCHECK(has_rank_probabilities);
    UCLEAN_DCHECK(h >= 1 && h <= k);
    const size_t at = rank_index * k + (h - 1);
    return at < rank_prob.size() ? rank_prob[at] : 0.0;
  }
};

/// Everything one PSR scan needs, in one request-shaped value: the rung
/// ladder, the scan knobs, the execution knobs (threads AND compute
/// kernel -- ExecOptions::kernel), an optional session overlay to scan
/// instead of the base database, and the checkpoint cadence for engine
/// consumers. This is THE way to ask for a scan: ComputePsrLadder and
/// PsrEngine::Create take it directly.
struct ScanRequest {
  /// Engine checkpoint cadence default, in live tuples (see
  /// PsrEngine::kInitialCheckpointInterval, which aliases this).
  static constexpr size_t kDefaultCheckpointInterval = 64;

  /// The k rungs served by the scan (ascending; build with KLadder::Of).
  KLadder ladder;

  /// Scan knobs (early termination, rank-probability matrix).
  PsrOptions psr;

  /// Execution knobs: thread count, shared pool, compute kernel.
  ExecOptions exec;

  /// When set, the scan runs over this copy-on-write session view
  /// instead of the base database (one-shot scans only; engines fork
  /// sessions through PsrEngine::ForkSession/ReplaySession). The
  /// overlay's base() must be the database the request is issued
  /// against, and it must outlive the call.
  const DatabaseOverlay* overlay = nullptr;

  /// Engine snapshot cadence in live tuples (PsrEngine::Create only;
  /// one-shot scans keep no checkpoints and ignore it).
  size_t checkpoint_interval = kDefaultCheckpointInterval;

  /// A single-rung request for a plain top-k query -- the 1-rung ladder
  /// IS the single-k path. Fails with InvalidArgument when k == 0.
  static Result<ScanRequest> ForK(size_t k, const PsrOptions& psr = {});

  /// A request for `ks` (validated, sorted, deduped via KLadder::Of).
  static Result<ScanRequest> ForLadder(std::vector<size_t> ks,
                                       const PsrOptions& psr = {});

  /// The invariants every scan driver relies on: a valid ladder and a
  /// positive checkpoint interval. (Exec and kernel are resolved -- and
  /// validated -- per call by ResolveExec/SelectScanKernel.)
  Status Validate() const;
};

/// The result of one requested scan: a complete PsrOutput per rung of the
/// request's ladder (ascending k), plus the concrete kernel the scan ran
/// on (what KernelKind::kAuto resolved to; never kAuto) and the threads
/// it ran on.
struct ScanResult {
  std::vector<PsrOutput> outputs;
  KernelKind kernel = KernelKind::kScalar;

  /// 1 when the scan ran whole on the calling thread; otherwise it was
  /// cut into shards (rank/sharded_scan.h), and this is the pool's width
  /// capped at the shard count.
  size_t threads = 1;

  size_t num_rungs() const { return outputs.size(); }

  /// The output of rung `rung` -- `output()` is the single-k accessor.
  const PsrOutput& output(size_t rung = 0) const {
    UCLEAN_DCHECK(rung < outputs.size());
    return outputs[rung];
  }
};

/// Runs ONE shared PSR scan serving every rung of `request.ladder`:
/// output j holds the complete PsrOutput for k = ladder[j], identical
/// (to rounding) to an independent single-k run, at roughly the cost of
/// the largest rung alone -- the count-vector work is shared and each
/// rung stops emitting at its own Lemma-2 point.
///
/// Parallelism: with ExecOptions{num_threads > 1} the scan is sharded by
/// rank range (rank/sharded_scan.h); results agree with the sequential
/// form to 1e-12 for any thread/shard count (bitwise in practice).
/// Kernels: the scan runs on the kernel ExecOptions::kernel resolves to;
/// every kernel is bitwise equal to every other (rank/kernel.h), so this
/// knob never changes results either.
///
/// Fails with InvalidArgument when the request, its exec options or its
/// kernel choice do not validate, or when request.overlay is set but its
/// base() is not `db`.
Result<ScanResult> ComputePsrLadder(const ProbabilisticDatabase& db,
                                    const ScanRequest& request);

}  // namespace uclean

#endif  // UCLEAN_RANK_PSR_H_
