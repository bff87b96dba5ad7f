// CleaningAgent: executes a cleaning plan against a database.
//
// The planners decide *what to probe*; the agent models what the paper's
// "cleaning agent" then does in the field (Section V-A): probe each
// selected x-tuple up to its assigned count, where every probe spends its
// cost and succeeds with the x-tuple's sc-probability. On success the
// entity's true state is revealed -- drawn from its existential
// distribution (Definition 5), possibly the null outcome -- the x-tuple
// collapses to that certain state, and remaining probes for it are skipped,
// leaving budget unspent (the leftovers adaptive re-planning reinvests).
//
// Every form runs in two phases whose separation lets the pipelined
// loop (clean/pipeline.h) draw many sessions' probes concurrently:
//
//  * DRAW (DrawProbes): run the probe loop against a fixed read-only
//    overlay view of the session's database, recording successes instead
//    of applying them. A draw touches only the view, the profile and the
//    session's own Rng, so draws for DIFFERENT sessions of one pool are
//    race-free by construction.
//  * COMMIT (CommitProbeDraws): apply the recorded outcomes to the pooled
//    session, on the caller thread, under the pool's serialized-caller
//    contract.
//
// Every form consumes the SAME per-session random stream in the same
// order (the probe loop reads only the probed x-tuple's own members, which
// no other x-tuple's collapse can touch), so a drawn-then-committed plan
// is bitwise identical to an inline ExecutePlan -- the equivalence the
// pipelined adaptive loop rests on (tests/pipeline_test.cc).
//
// Threading: ExecutePlan / DrawProbes / CommitProbeDraws are not
// thread-safe on shared arguments; call them the way you would any
// mutating member of the target (for pooled sessions: under SessionPool's
// serialized-caller rule). DrawProbes only reads its view, so concurrent
// draws over distinct Rngs and FaultInjectors are safe while nothing
// mutates the views.
//
// Fault tolerance (clean/fault.h). With ProbeOptions::fault set, every
// attempt first consults the session's FaultInjector: faulted attempts
// retry under the injector's RetryPolicy (exponential backoff with seeded
// jitter on the SIMULATED clock), probes whose retries exhaust or whose
// deadline passes fail WITHOUT spending budget, open circuit breakers
// skip their source outright, and a plan past its deadline abandons the
// rest. Execution still returns OK: degradation is partial completion,
// reported through ProbeRecord::last_error and the reports' FaultStats,
// never an error status. Faults draw from the injector's dedicated
// stream, so the probe value stream -- and with it every bitwise
// equivalence above -- is untouched; a null `fault` (the default) is the
// exact pre-fault code path.

#ifndef UCLEAN_CLEAN_AGENT_H_
#define UCLEAN_CLEAN_AGENT_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "clean/fault.h"
#include "clean/problem.h"
#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/status.h"
#include "model/database.h"
#include "model/database_overlay.h"

namespace uclean {

/// What happened to one selected x-tuple during plan execution.
struct ProbeRecord {
  XTupleId xtuple = 0;
  int64_t attempts = 0;      ///< probes that got an answer (<= planned)
  int64_t spent = 0;         ///< completed probes * cost
  bool success = false;
  TupleId resolved_id = -1;  ///< the revealed tuple (negative: null outcome)
  int64_t failures = 0;      ///< probes with no answer after all retries
  int64_t retries = 0;       ///< extra attempts after faulted ones
  /// kOk: every planned probe ran (or stopped early on success).
  /// kUnavailable: retries exhausted / source down / breaker open.
  /// kDeadlineExceeded: the probe or plan deadline cut this x-tuple off.
  StatusCode last_error = StatusCode::kOk;

  friend bool operator==(const ProbeRecord& a, const ProbeRecord& b) {
    return a.xtuple == b.xtuple && a.attempts == b.attempts &&
           a.spent == b.spent && a.success == b.success &&
           a.resolved_id == b.resolved_id && a.failures == b.failures &&
           a.retries == b.retries && a.last_error == b.last_error;
  }
};

/// Outcome of executing a plan.
struct ExecutionReport {
  ProbabilisticDatabase cleaned_db;
  int64_t spent = 0;          ///< total budget consumed
  /// Plan cost minus spent: early successes plus, under faults, the
  /// budget of failed/skipped/abandoned probes (reinvestable).
  int64_t leftover = 0;
  size_t successes = 0;       ///< x-tuples actually cleaned
  std::vector<ProbeRecord> log;
  FaultStats faults;          ///< all zero without a FaultInjector
};

/// Outcome of executing a plan inside a cleaning session: like
/// ExecutionReport, but the outcomes live in the session's overlay (no
/// database is materialized) and its PSR/TP refresh is deferred to
/// CleaningSession::Refresh.
struct SessionExecutionReport {
  int64_t spent = 0;
  int64_t leftover = 0;
  size_t successes = 0;
  std::vector<ProbeRecord> log;
  FaultStats faults;
};

/// Knobs of the probe loop itself (not of what is probed).
struct ProbeOptions {
  /// Simulated per-probe field latency: every probe attempt takes this
  /// long before its result is known (the agent contacts a source, a
  /// sensor, a person). 0 -- the default -- draws back-to-back. The knob
  /// models the regime the pipelined loop targets: once a round's state
  /// refresh is sub-millisecond, waiting on probes IS the round.
  std::chrono::microseconds latency{0};

  /// Per-session fault injector (clean/fault.h), or null for the exact
  /// fault-free code path. NOT owned; must outlive the call. Mutated by
  /// the probe loop under the same contract as the session's Rng.
  FaultInjector* fault = nullptr;
};

/// A drawn-but-uncommitted plan execution: the full report plus the
/// successful outcomes in draw order, ready for CommitProbeDraws.
struct ProbeDraws {
  SessionExecutionReport report;
  std::vector<std::pair<XTupleId, TupleId>> outcomes;
};

/// Runs the probe loop against a fixed view without applying anything.
/// Pure except for `rng` (advanced) and the simulated latency; never
/// touches the view. Every ExecutePlan form draws through it.
Result<ProbeDraws> DrawProbes(const DatabaseOverlay& view,
                              const CleaningProfile& profile,
                              const std::vector<int64_t>& probes, Rng* rng,
                              const ProbeOptions& options = {});

/// Applies a draw's outcomes to pooled session `id`, in draw order. Call
/// on the pool's caller thread (serialized-caller contract); the session
/// stays dirty until the next Refresh/RefreshAll.
Status CommitProbeDraws(SessionPool* pool, SessionPool::SessionId id,
                        const ProbeDraws& draws);

/// Executes `plan.probes` on `db` with per-x-tuple costs/sc-probabilities
/// from `profile`, drawing success and revealed values from `rng`. The
/// outcomes are recorded in an overlay of `db`, and the cleaned database
/// is that overlay materialized (identical to the historical builder
/// round-trip, minus the rebuild).
Result<ExecutionReport> ExecutePlan(const ProbabilisticDatabase& db,
                                    const CleaningProfile& profile,
                                    const std::vector<int64_t>& probes,
                                    Rng* rng,
                                    const ProbeOptions& options = {});

/// Session form: records each successful outcome in `session` and leaves
/// the state refresh to the caller. Draws the same random stream as the
/// database overload, so a from-scratch and an incremental run with
/// equal seeds execute identical probe sequences.
Result<SessionExecutionReport> ExecutePlan(CleaningSession* session,
                                           const CleaningProfile& profile,
                                           const std::vector<int64_t>& probes,
                                           Rng* rng,
                                           const ProbeOptions& options = {});

/// Pooled-session form: probes against session `id`'s own overlay view
/// (base + its previous outcomes) and records each success in that
/// overlay only; the shared base and every other session are untouched.
/// Same fixed random-stream order as the other overloads; implemented as
/// DrawProbes + CommitProbeDraws, so an inline execution and a pipelined
/// one are the same arithmetic by construction.
Result<SessionExecutionReport> ExecutePlan(SessionPool* pool,
                                           SessionPool::SessionId id,
                                           const CleaningProfile& profile,
                                           const std::vector<int64_t>& probes,
                                           Rng* rng,
                                           const ProbeOptions& options = {});

}  // namespace uclean

#endif  // UCLEAN_CLEAN_AGENT_H_
