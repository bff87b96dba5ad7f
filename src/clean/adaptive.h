// Adaptive (multi-round) cleaning: plan, execute, re-plan with the budget
// early successes left unspent.
//
// The paper plans once, before any cleaning, and explicitly defers "how to
// update the list so that the rest of the resources can be used" to future
// work (Section V-A). This module implements that extension: after each
// executed round, the cleaned database's fresh g(l,D) table and the
// remaining budget seed the next round, until the budget is gone or no
// x-tuple can still improve the query. The ablation bench quantifies the
// realized-quality advantage over one-shot planning.
//
// The loop runs on the incremental CleaningSession: each round's
// outcomes go into the session's copy-on-write overlay (no per-round copy
// or builder round-trip), each round costs at most one partial PSR
// replay + delta TP pass, and that one refreshed TP state feeds both the
// round's quality report and the next round's CleaningProblem. The
// cleaned database is materialized once, when the loop ends.
// bench_incremental measures the win over the historical
// copy-rebuild-rescan loop.
//
// Multi-k: with AdaptiveOptions::k_ladder the session serves a whole
// ladder of top-k queries from one shared scan, the planner optimizes a
// weighted aggregate of the per-rung gain tables (uniform by default, or
// plan_weights to focus on chosen rungs), and the report carries per-rung
// quality trajectories. bench_multik measures the win over running one
// single-k session per rung.

#ifndef UCLEAN_CLEAN_ADAPTIVE_H_
#define UCLEAN_CLEAN_ADAPTIVE_H_

#include <cstdint>
#include <vector>

#include "clean/agent.h"
#include "clean/planners.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "rank/psr.h"

namespace uclean {

/// Options for the adaptive loop.
struct AdaptiveOptions {
  size_t k = 15;

  /// When non-empty, serve this k-ladder from one shared session instead
  /// of the single `k` (which is then ignored).
  std::vector<size_t> k_ladder;

  /// Per-rung planning weights for the aggregated objective
  /// sum_j w_j S_j(D,Q); empty = uniform. Must match the ladder length
  /// and bind positionally to the ASCENDING ladder -- a k_ladder that
  /// needs reordering is rejected when weights are given, so a weight
  /// never lands on the wrong rung silently.
  std::vector<double> plan_weights;

  PlannerKind planner = PlannerKind::kGreedy;
  DpOptions dp_options;
  size_t max_rounds = 64;

  /// Execution mode for the session's scans, replays and TP passes
  /// (CleaningSession::Options::exec); the sequential default and any
  /// thread count produce bitwise-identical state.
  ExecOptions exec;

  /// Fault injection + retry/deadline/breaker policy for the probe loop
  /// (clean/fault.h). Disabled by default; when enabled the loop degrades
  /// gracefully instead of failing: failed probes leave their budget
  /// unspent, the planner masks sources with open breakers, and an
  /// all-blocked round waits out one breaker cooldown (simulated) before
  /// re-planning.
  FaultOptions fault;
};

/// One round's summary.
struct AdaptiveRound {
  int64_t budget_before = 0;
  double predicted_improvement = 0.0;
  int64_t spent = 0;
  size_t successes = 0;
  /// Quality of the planning objective (the weighted ladder aggregate;
  /// the plain quality for single-k runs).
  double quality_after = 0.0;
  /// Per-rung qualities, ladder order (one entry for single-k runs).
  std::vector<double> quality_after_per_k;
  /// Fault/retry/breaker counters of this round's execution (all zero
  /// unless AdaptiveOptions::fault is enabled).
  FaultStats faults;
};

/// Outcome of an adaptive cleaning session.
struct AdaptiveReport {
  ProbabilisticDatabase final_db;
  /// The served ladder (a single rung for single-k runs).
  std::vector<size_t> ladder;
  /// Planning-objective qualities (weighted ladder aggregate; the plain
  /// quality for single-k runs).
  double initial_quality = 0.0;
  double final_quality = 0.0;
  /// Per-rung qualities, ladder order.
  std::vector<double> initial_quality_per_k;
  std::vector<double> final_quality_per_k;
  int64_t total_spent = 0;
  std::vector<AdaptiveRound> rounds;
  /// Campaign-wide fault aggregate (sum of the per-round counters).
  FaultStats faults;
};

/// Runs the adaptive plan/execute loop on `db` with total budget `budget`.
/// The rvalue overload moves the database into the session instead of
/// copying it; prefer it when the caller is done with `db`.
///
/// Threading: a pure function of its arguments -- concurrent calls on
/// DISTINCT (db, rng) pairs are safe; two calls must never share an Rng.
/// Parallelism stays inside the call (options.exec shards the session's
/// scans); the probe loop itself runs inline. For overlapping probe
/// waiting with planning across many concurrent sessions, use the pooled
/// driver in clean/pipeline.h instead.
Result<AdaptiveReport> RunAdaptiveCleaning(ProbabilisticDatabase&& db,
                                           const CleaningProfile& profile,
                                           int64_t budget,
                                           const AdaptiveOptions& options,
                                           Rng* rng);
Result<AdaptiveReport> RunAdaptiveCleaning(const ProbabilisticDatabase& db,
                                           const CleaningProfile& profile,
                                           int64_t budget,
                                           const AdaptiveOptions& options,
                                           Rng* rng);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_ADAPTIVE_H_
