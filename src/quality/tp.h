// TP: quality computation via the tuple-form expression (Theorem 1).
//
//   S(D,Q) = sum_i omega_i * p_i
//
// where p_i is the top-k probability (from PSR) and omega_i depends only on
// the existential probabilities of t_i's own x-tuple members ranked at or
// above it (Eq. 6). With Y(x) = x log2 x and E_i the at-or-above mass of
// t_i's x-tuple (Eq. 7):
//
//   omega_i = log2 e_i + (1/e_i) * (Y(1 - E_i) - Y(1 - E_i + e_i))
//
// The E_i values follow incrementally from one pass over the rank order
// (Eq. 9), so given a PSR pass TP adds only O(n) work -- this is the
// computation-sharing effect Figure 5 measures. Tuples at or after the PSR
// scan's Lemma-2 stop point have p_i = 0 and contribute nothing.
//
// Multi-k sharing: omega_i is k-INDEPENDENT -- only the top-k
// probabilities p_i it is paired with depend on k. The ladder forms below
// therefore run the E/omega recurrence once and reuse the values for
// every rung of a k-ladder served by one shared PSR scan
// (ComputePsrLadder / the ladder PsrEngine), so quality for a whole
// ladder costs one omega pass plus a cheap per-rung accumulation.
//
// TP also exposes the per-x-tuple aggregates g(l,D) = sum_{t_i in tau_l}
// omega_i p_i: the quality score is sum_l g(l,D), and -g(l,D) is exactly the
// expected quality improvement of cleaning tau_l with certainty (Theorem 2),
// which is what every cleaning planner consumes.

#ifndef UCLEAN_QUALITY_TP_H_
#define UCLEAN_QUALITY_TP_H_

#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"

namespace uclean {

/// Output of the TP quality computation.
struct TpOutput {
  /// PWS-quality score S(D,Q).
  double quality = 0.0;

  /// Tuple count of the database the omegas were computed over.
  size_t num_tuples = 0;

  /// omega_i per rank index below the PSR scan end (+0.0 where p_i is
  /// 0); every omega past it pairs with p_i = 0 and is not stored.
  std::vector<double> omega;

  /// The PSR scan end the omegas were computed under: omega.size().
  size_t scan_end = 0;

  /// g(l,D) per x-tuple: its summed omega_i * p_i contribution (always
  /// <= 0 up to rounding; sums to `quality`).
  std::vector<double> xtuple_gain;

  /// Per-x-tuple sum of member top-k probabilities (RandP's selection
  /// weights; sums to k over the database when every world has >= k tuples).
  std::vector<double> xtuple_topk_mass;
};

/// Computes quality from a PSR pass. `psr` must have been produced from
/// `db` (same tuple order) with the same k.
Result<TpOutput> ComputeTpQuality(const ProbabilisticDatabase& db,
                                  const PsrOutput& psr);

/// Overlay form: quality of one session's copy-on-write view (base + its
/// own outcomes) from a PSR pass over the same view. The TP pass is
/// view-templated, so this is the exact arithmetic of the database form
/// -- results are bitwise what the materialized cleaned database would
/// produce. Tombstoned slots are skipped.
Result<TpOutput> ComputeTpQuality(const DatabaseOverlay& db,
                                  const PsrOutput& psr);

/// Convenience: runs PSR (with default options) and TP in sequence.
Result<TpOutput> ComputeTpQuality(const ProbabilisticDatabase& db, size_t k);

/// Ladder form: one TpOutput per rung of a shared PSR scan over `db`
/// (ComputePsrLadder / PsrEngine ladder outputs, ascending k). The
/// k-independent omega recurrence runs ONCE for the deepest rung's scan
/// range; each rung then pairs the shared omegas with its own top-k
/// probabilities. Results are identical to calling ComputeTpQuality per
/// rung. `exec` fans the per-rung masking/accumulation over a shared
/// pool (each rung touches only its own TpOutput, so parallel results
/// are bitwise equal to sequential ones); the default runs inline.
Result<std::vector<TpOutput>> ComputeTpQualityLadder(
    const ProbabilisticDatabase& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec = {});

/// Overlay form of the ladder pass (the from-scratch reference a
/// session's maintained TP ladder is held to).
Result<std::vector<TpOutput>> ComputeTpQualityLadder(
    const DatabaseOverlay& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec = {});

/// Delta pass for cleaning sessions: brings one TpOutput per rung
/// (previously computed for the session's overlay `db` + its PSR state)
/// up to date after clean outcomes whose PSR replay started at rank
/// `replay_begin`, running the omega suffix recurrence once for all
/// rungs. The omega prefix [0, replay_begin) is reused as-is -- a clean
/// never touches tuples ranked above the collapsed x-tuple's best member
/// -- and each touched rung's omega is resized to its new scan end and
/// recomputed over [replay_begin, scan_end): each touched x-tuple's
/// at-or-above mass E is re-seeded from its (unchanged) members above
/// the boundary and advanced across the suffix exactly as the full pass
/// would. The per-x-tuple aggregates
/// and the quality sum are then re-accumulated in scan order from the
/// stored per-tuple state, so the result is bitwise identical to
/// ComputeTpQualityLadder(db, psrs) at a fraction of the cost. Rungs
/// whose scan never reaches the replay boundary are untouched (a clean
/// below a rung's stop point cannot change it). `exec` fans the per-rung
/// resize/mask/accumulate suffix work over a shared pool, bitwise equal to
/// the inline default.
///
/// `psrs` must be the session's PSR state already replayed for the same
/// outcomes (PsrEngine::ReplaySession).
Status UpdateTpQualityLadder(const DatabaseOverlay& db,
                             const std::vector<PsrOutput>& psrs,
                             size_t replay_begin, std::vector<TpOutput>* tps,
                             const ExecOptions& exec = {});

}  // namespace uclean

#endif  // UCLEAN_QUALITY_TP_H_
