// CleaningSession: one analyst's view of a database under adaptive
// cleaning, serving one k or a whole ladder of k values from one shared
// engine.
//
// The paper's adaptive loop (Section V-A extension) re-plans after every
// round of probes. A naive round deep-copies the database, rebuilds it
// through DatabaseBuilder (O(n log n)) and re-runs the full O(kn) PSR scan
// twice -- once to build the next CleaningProblem and once for the quality
// report. A successful pclean is however a tiny update: one x-tuple
// collapses to a certain tuple and no other tuple's rank moves. A session
// therefore keeps its state in a SessionCore over one checkpointed
// PsrEngine:
//
//  * a copy-on-write DatabaseOverlay records the outcomes over the
//    session's base database, which is never mutated;
//  * the engine's scan state (PsrEngine::SessionState) replays only the
//    suffix below the shallowest change;
//  * one TpOutput per rung is brought forward by the delta pass
//    (UpdateTpQualityLadder over the overlay).
//
// This is the same mechanism, and the same SessionCore, that every
// SessionPool session runs on. A CleaningSession is simply the engine's
// only session: Start moves the engine's outputs and checkpoints into
// it instead of forking a copy (PsrEngine::TakeSoleSession), and
// TakeDatabase materializes the overlay in the base's own storage.
//
// Multi-k: a session started with a KLadder maintains per-rung PSR and TP
// state from ONE shared scan -- the count-vector recurrence is
// k-independent, so serving four k's costs barely more than serving the
// largest alone, where four single-k sessions would each pay their own
// database copy, engine, scan and quality pass. Per-rung accessors take a
// rung index into ladder(); the rung-less accessors serve single-k
// sessions (rung 0).
//
// Outcomes are recorded eagerly in the overlay but state refresh is
// batched: a round of cleans costs one partial PSR replay + one shared
// delta TP pass, however many x-tuples were cleaned and however many k's
// are served. Call Refresh() after the round (the psr()/tp()/quality()
// accessors require a clean state), then read tp() to plan the next round
// -- MakeCleaningProblem has overloads that consume one rung or an
// aggregate over all of them, so the adaptive loop runs at most one
// (partial) PSR pass per round. All maintained state is bitwise identical
// to recomputing from scratch on the cleaned view at every rung.
//
// Threading: SERIALIZED CALLER. One thread drives a session at a time
// (mutators and accessors alike); the session is not internally
// synchronized. Options::exec parallelism stays INSIDE calls -- a
// Start/Refresh may shard its scan over the pool, but the session's
// public surface must still be entered by one thread. The contract is
// enforced as a common/serial_gate.h capability: every mutator opens a
// ScopedSerialCall window on gate_, so overlapping calls abort in debug
// builds and reentrant entry fails the Clang -Wthread-safety build.
// SessionCore itself carries no gate; its owner (CleaningSession,
// SessionPool) serializes calls into it.

#ifndef UCLEAN_CLEAN_SESSION_H_
#define UCLEAN_CLEAN_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serial_gate.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"

namespace uclean {

/// One cleaning session's state over a shared PsrEngine: its overlay of
/// the engine's base database, its scan state, its per-rung TP ladder,
/// and the shallowest rank its unrefreshed outcomes changed. The sole
/// session of a CleaningSession and every SessionPool session are one of
/// these; the two front-ends differ only in who owns the base and the
/// engine.
struct SessionCore {
  static constexpr size_t kNoPending = static_cast<size_t>(-1);

  DatabaseOverlay overlay;
  PsrEngine::SessionState scan;
  std::vector<TpOutput> tps;  // one per rung, ladder order
  size_t pending_replay_begin = kNoPending;

  /// True when outcomes were applied since the last Refresh.
  bool dirty() const { return pending_replay_begin != kNoPending; }

  /// Records the collapse of `xtuple` to `resolved_id` (negative = entity
  /// absent) in the overlay (see DatabaseOverlay::ApplyCleanOutcome) and
  /// widens the pending replay range. State refresh is deferred.
  Status ApplyCleanOutcome(XTupleId xtuple, TupleId resolved_id);

  /// Brings the scan and TP state up to date for every outcome applied
  /// since the last Refresh: one suffix replay through `engine`
  /// (PsrEngine::ReplaySession) plus one shared delta TP pass over the
  /// overlay (UpdateTpQualityLadder), fanned over `exec`. No-op when
  /// clean; a failed refresh leaves the state dirty.
  Status Refresh(const PsrEngine& engine, const ExecOptions& exec);
};

class CleaningSession {
 public:
  struct Options {
    PsrOptions psr;

    /// Execution mode: num_threads > 1 shards the initial scan and every
    /// replay by rank range and fans the delta TP pass per rung, all on
    /// one shared pool (see rank/sharded_scan.h -- maintained state is
    /// bitwise identical to the sequential default).
    ExecOptions exec;

    /// Initial PSR checkpoint cadence (see PsrEngine::Create).
    size_t checkpoint_interval = PsrEngine::kInitialCheckpointInterval;
  };

  /// Starts a session over `db` (one full PSR + TP pass). Move the
  /// database in when the caller no longer needs its copy.
  static Result<CleaningSession> Start(ProbabilisticDatabase db, size_t k,
                                       const Options& options);
  static Result<CleaningSession> Start(ProbabilisticDatabase db, size_t k) {
    return Start(std::move(db), k, Options());
  }

  /// Ladder form: one shared scan serves every rung of `ladder`.
  static Result<CleaningSession> Start(ProbabilisticDatabase db,
                                       const KLadder& ladder,
                                       const Options& options);
  static Result<CleaningSession> Start(ProbabilisticDatabase db,
                                       const KLadder& ladder) {
    return Start(std::move(db), ladder, Options());
  }

  /// The session's view of the database: the base plus every applied
  /// outcome. Rank indices are the base's and never move; cleaned-away
  /// siblings read as tombstones. Scan it by passing it as
  /// ScanRequest::overlay against view.base().
  const DatabaseOverlay& db() const { return core_.overlay; }

  /// The served ladder (a single rung for single-k sessions).
  const KLadder& ladder() const { return engine_.ladder(); }
  size_t num_rungs() const { return engine_.num_rungs(); }

  /// The largest served k (the only one for single-k sessions).
  size_t k() const { return engine_.k(); }

  /// True when outcomes were applied since the last Refresh.
  bool dirty() const { return core_.dirty(); }

  /// The scan's checkpoint ranks, ascending (introspection: replay-cost
  /// diagnostics, and the tests that hold them equal across widths).
  std::vector<size_t> checkpoint_positions() const {
    return core_.scan.checkpoint_positions();
  }

  // Reading a dirty session is a HARD failure in every build type (not a
  // DCHECK): a dirty session holds pre-clean PSR/TP state, and serving it
  // silently -- which is exactly what a compiled-out assertion would do in
  // Release -- corrupts every planning and reporting consumer downstream.
  // Call Refresh() after a round of ApplyCleanOutcome.

  /// Maintained PSR state of rung `rung`. Requires !dirty().
  const PsrOutput& psr(size_t rung = 0) const {
    UCLEAN_CHECK(!dirty());
    return core_.scan.output(rung);
  }

  /// Maintained TP quality state of rung `rung`. Requires !dirty().
  const TpOutput& tp(size_t rung = 0) const {
    UCLEAN_CHECK(!dirty());
    UCLEAN_DCHECK(rung < core_.tps.size());
    return core_.tps[rung];
  }

  /// All per-rung TP states, ladder order. Requires !dirty().
  const std::vector<TpOutput>& tps() const {
    UCLEAN_CHECK(!dirty());
    return core_.tps;
  }

  /// Current PWS-quality S(D,Q) at rung `rung`. Requires !dirty().
  double quality(size_t rung = 0) const {
    UCLEAN_CHECK(!dirty());
    UCLEAN_DCHECK(rung < core_.tps.size());
    return core_.tps[rung].quality;
  }

  /// Collapses `xtuple` to the certain outcome `resolved_id` (negative =
  /// entity absent) in the session's view; see DatabaseOverlay::
  /// ApplyCleanOutcome. State refresh is deferred to Refresh().
  Status ApplyCleanOutcome(XTupleId xtuple, TupleId resolved_id)
      UCLEAN_EXCLUDES(gate_);

  /// Brings PSR + TP state up to date for every outcome applied since the
  /// last Refresh: one partial PSR replay and one shared delta TP pass
  /// across all rungs. No-op when !dirty().
  Status Refresh() UCLEAN_EXCLUDES(gate_);

  /// Materializes the cleaned database in the base's own storage (no
  /// copy) and ends the session. Works on dirty sessions: it needs only
  /// the recorded outcomes.
  ProbabilisticDatabase TakeDatabase() && UCLEAN_EXCLUDES(gate_);

 private:
  CleaningSession() = default;

  // The base lives behind a stable pointer so the overlay's back-pointer
  // survives moves of the session itself.
  std::unique_ptr<ProbabilisticDatabase> base_;
  PsrEngine engine_;
  SessionCore core_;

  // Serialized-caller capability (see the header comment): one window
  // per mutating call; overlap aborts in debug builds, reentrancy fails
  // the Clang thread-safety build.
  mutable SerialGate gate_;
};

}  // namespace uclean

#endif  // UCLEAN_CLEAN_SESSION_H_
