// The budgeted cleaning problem (Section V).
//
// A cleaning operation pclean(tau_l) (Definition 5) costs c_l units and
// succeeds with sc-probability P_l; success collapses tau_l to one certain
// tuple drawn from its existential distribution. Performing it M_l times
// succeeds with probability 1 - (1-P_l)^{M_l}, and by Theorem 2 the expected
// quality improvement of a whole plan decomposes per x-tuple:
//
//   I(X, M, D, Q) = - sum_{tau_l in X} (1 - (1-P_l)^{M_l}) * g(l, D)
//
// with g(l,D) = sum_{t_i in tau_l} omega_i p_i from the TP quality pass.
// The j-th probe of tau_l therefore contributes the marginal value
// b(l,j) = -(1-P_l)^{j-1} P_l g(l,D) (Eq. 21), which decreases
// geometrically in j (Lemma 4) -- the structure every planner exploits.
//
// Threading: plain value types and pure functions. MakeCleaningProblem
// only reads its inputs; concurrent calls are safe as long as nobody is
// mutating the database/TP state they read (clean/pipeline.h calls it on
// pool workers, one task per session, while the pool's caller waits).

#ifndef UCLEAN_CLEAN_PROBLEM_H_
#define UCLEAN_CLEAN_PROBLEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/database.h"
#include "quality/tp.h"

namespace uclean {

/// Per-x-tuple cleaning cost and success probability.
struct CleaningProfile {
  std::vector<int64_t> costs;    ///< c_l >= 1, integer (Section V-A)
  std::vector<double> sc_probs;  ///< P_l in [0, 1]

  /// Checks the profile matches a database with `num_xtuples` x-tuples and
  /// every entry is in range.
  Status Validate(size_t num_xtuples) const;
};

/// A self-contained instance of the cleaning optimization problem
/// (Definition 7): everything a planner needs, detached from the database.
struct CleaningProblem {
  /// g(l,D) per x-tuple (<= 0); -gain is the expected improvement of
  /// cleaning the x-tuple with certainty.
  std::vector<double> gain;

  /// Per-x-tuple summed top-k probability of its members (RandP's
  /// selection weights, Section V-D.3).
  std::vector<double> topk_mass;

  std::vector<int64_t> cost;    ///< c_l per x-tuple
  std::vector<double> sc_prob;  ///< P_l per x-tuple
  int64_t budget = 0;           ///< C

  size_t num_xtuples() const { return gain.size(); }

  /// Validates sizes, ranges and budget non-negativity.
  Status Validate() const;

  /// Marginal value of the j-th probe of x-tuple l (Eq. 21), j >= 1.
  double MarginalValue(size_t l, int64_t j) const;

  /// Expected improvement of probing x-tuple l exactly `probes` times
  /// (the term G(l,D,j) of Section V-B).
  double XTupleImprovement(size_t l, int64_t probes) const;
};

/// A solution: how many times to probe each x-tuple.
struct CleaningPlan {
  std::vector<int64_t> probes;          ///< M_l per x-tuple (0 = untouched)
  double expected_improvement = 0.0;    ///< I(X, M, D, Q), Theorem 2
  int64_t total_cost = 0;               ///< sum of M_l * c_l

  /// Number of x-tuples with at least one probe (|X|).
  size_t num_selected() const;

  std::string ToString() const;
};

/// Theorem-2 closed form: expected improvement of `probes` on `problem`.
double ExpectedImprovement(const CleaningProblem& problem,
                           const std::vector<int64_t>& probes);

/// Total cost of `probes` under the problem's cost vector.
int64_t PlanCost(const CleaningProblem& problem,
                 const std::vector<int64_t>& probes);

/// Builds a CleaningProblem for a top-k query on `db`: runs the PSR + TP
/// pipeline to obtain the g(l,D) table and per-x-tuple top-k masses
/// (the paper's precomputed lookup table, Section VI-C).
Result<CleaningProblem> MakeCleaningProblem(const ProbabilisticDatabase& db,
                                            size_t k,
                                            const CleaningProfile& profile,
                                            int64_t budget);

/// Builds a CleaningProblem from an already-computed TP pass (e.g. the
/// state a CleaningSession maintains incrementally), so adaptive rounds
/// never re-run PSR just to plan. `tp` must describe the database the
/// profile was generated for.
Result<CleaningProblem> MakeCleaningProblem(const TpOutput& tp,
                                            const CleaningProfile& profile,
                                            int64_t budget);

/// Weight of rung `j` in the ladder-aggregate objective sum_j w_j S_j:
/// uniform 1/rungs when `weights` is empty, weights[j] otherwise. The one
/// shared definition behind the planner aggregate (the ladder
/// MakeCleaningProblem below) and every quality report (adaptive loop,
/// session-pool CLI), so the optimized objective and the reported number
/// can never drift.
double LadderRungWeight(const std::vector<double>& weights, size_t rungs,
                        size_t j);

/// Ladder form: plans against a weighted aggregate of the per-rung gain
/// tables of a k-ladder session. With weights w_j >= 0 the aggregated gain
/// g(l) = sum_j w_j g_j(l) is the expected improvement of the weighted
/// ladder objective sum_j w_j S_j(D,Q) -- Theorem 2 is linear in the
/// quality, so the per-x-tuple decomposition survives aggregation and
/// every planner applies unchanged. Pass empty `weights` for the uniform
/// mean (each rung weighted 1/L); a single-rung ladder with uniform
/// weights degenerates to the single-k problem exactly. Fails with
/// InvalidArgument when `tps` is empty, weights mismatch or are negative,
/// or all weights are zero.
Result<CleaningProblem> MakeCleaningProblem(const std::vector<TpOutput>& tps,
                                            const std::vector<double>& weights,
                                            const CleaningProfile& profile,
                                            int64_t budget);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_PROBLEM_H_
