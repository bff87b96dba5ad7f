// SessionPool: N concurrent cleaning sessions over ONE shared base
// database and ONE ladder PsrEngine checkpoint set.
//
// A CleaningSession per analyst pays, per session, a full database copy,
// a full O(k n) PSR scan, a checkpoint set and a full TP pass before the
// first probe lands. The paper's cleaning loop assumes one analyst per
// database (Sec. V); serving many concurrent users that way multiplies
// the whole start-up cost by the user count. The pool amortizes it
// instead:
//
//  * ONE base ProbabilisticDatabase, never mutated. Each session's clean
//    outcomes live in its own copy-on-write DatabaseOverlay
//    (model/database_overlay.h): overlay tombstones + patched resolved
//    tuples, rank indices stable, base untouched.
//  * ONE ladder PsrEngine over the base, scanned and checkpointed once.
//    Opening a session copies the engine's outputs (PsrEngine::
//    ForkSession -- a memcpy of each rung's live prefix, no scan) and
//    the base TP ladder.
//  * A query off the ladder scans the session's view afresh
//    (ScanLadder), but may cut that scan at every shared or private
//    checkpoint valid for the view: a shard restores one instead of
//    starting from rank 0 or a grid point.
//  * Refreshing a session replays ONLY that session's suffix
//    (PsrEngine::ReplaySession): the shared checkpoints cover the prefix
//    above the session's divergence rank, the session's private
//    checkpoints cover its own post-divergence suffix, and the shared
//    delta TP pass (UpdateTpQualityLadder over the overlay) brings its
//    per-rung quality state forward. The shared prefix is never
//    recomputed for anybody.
//
// Each session is a SessionCore (clean/session.h), the same state and
// refresh a CleaningSession runs on; a CleaningSession is the one-session
// case that moves the engine's scan state instead of forking it. Every
// session's maintained PSR/TP state is bitwise identical to a
// from-scratch ComputePsrLadder + ComputeTpQualityLadder over its
// overlay (pool_test.cc holds this under interleaved cleans and churn;
// bench_pool measures the amortization win over N CleaningSessions).
//
// Threading: SERIALIZED CALLER. Sessions are logically concurrent:
// opens, applies, refreshes and closes interleave freely and never
// observe each other. The pool itself is NOT thread-safe; callers
// serialize access (the replay scratch is per-session, but open/close
// mutate shared tables). That contract is ENFORCED twice over, as a
// common/serial_gate.h capability: every mutating entry point opens a
// ScopedSerialCall window on gate_ (debug builds turn two overlapping
// calls -- the misuse the lines above forbid -- into a hard UCLEAN_CHECK
// failure instead of silent state corruption; death-tested in
// pool_test.cc), and the Clang -Wthread-safety build statically rejects
// reentrant entry and any new code path that reaches the guarded refresh
// internals without the gate.
//
// The sanctioned way to apply hardware parallelism is THROUGH the pool,
// not around it: Options::exec shards the shared scan and every
// session's suffix replay by rank range (rank/sharded_scan.h), and
// RefreshAll runs many dirty sessions' refreshes concurrently on the
// same ThreadPool from one caller thread -- each session's scratch,
// overlay and TP state are private, and the shared engine state is
// read-only after Create, so sessions fan out without locks while the
// serialized-caller contract stays intact. clean/pipeline.h fans each
// cleaning round's per-session plan + draw step over the same pool the
// same way: those tasks only read the pool, while the caller waits.
//
// Reading a dirty session (outcomes applied, not yet refreshed) is a hard
// failure in every build type, matching CleaningSession.

#ifndef UCLEAN_CLEAN_SESSION_POOL_H_
#define UCLEAN_CLEAN_SESSION_POOL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clean/session.h"
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

class SessionPool {
 public:
  /// Session handle: an index into the pool's slot table. Slots are
  /// reused after Close, so a stale id may alias a newer session; treat
  /// ids as owned capabilities, not stable names.
  using SessionId = size_t;

  struct Options {
    PsrOptions psr;

    /// Execution mode: num_threads > 1 shards the base scan and every
    /// session replay by rank range, fans the TP passes per rung, and
    /// lets RefreshAll run whole sessions concurrently -- all on ONE
    /// shared pool. Per-session state stays bitwise identical to the
    /// sequential default.
    ExecOptions exec;

    /// Initial PSR checkpoint cadence of the shared scan (see
    /// PsrEngine::Create).
    size_t checkpoint_interval = PsrEngine::kInitialCheckpointInterval;
  };

  /// Runs the one shared scan + TP pass over `base` and readies the pool
  /// for OpenSession.
  static Result<SessionPool> Create(ProbabilisticDatabase base,
                                    const KLadder& ladder,
                                    const Options& options);
  static Result<SessionPool> Create(ProbabilisticDatabase base,
                                    const KLadder& ladder) {
    return Create(std::move(base), ladder, Options());
  }

  /// Single-k convenience.
  static Result<SessionPool> Create(ProbabilisticDatabase base, size_t k,
                                    const Options& options);
  static Result<SessionPool> Create(ProbabilisticDatabase base, size_t k) {
    return Create(std::move(base), k, Options());
  }

  /// Warm start: reconstructs a serving pool from a snapshot file written
  /// by store/snapshot.h's WriteSnapshot, with ZERO scans -- the base
  /// database, the engine's checkpointed scan state and every saved
  /// session come back bitwise identical to the saved pool. Only
  /// `options.exec` (and the checkpoint cadence for sessions opened
  /// later) is taken from `options`; the logical state -- ladder, PSR
  /// options, checkpoint contents -- comes from the file. Fails with
  /// DataLoss on a truncated, corrupt or version-mismatched file.
  /// (Defined in src/store/snapshot.cc; this declaration keeps the
  /// pool header free of store dependencies.)
  static Result<SessionPool> OpenFromSnapshot(const std::string& path,
                                              const Options& options);
  static Result<SessionPool> OpenFromSnapshot(const std::string& path) {
    return OpenFromSnapshot(path, Options());
  }

  /// The shared base database (never mutated while the pool lives).
  const ProbabilisticDatabase& base() const { return *base_; }

  /// The served ladder (a single rung for single-k pools).
  const KLadder& ladder() const { return engine_.ladder(); }
  size_t num_rungs() const { return engine_.num_rungs(); }

  /// The base TP state of rung `rung` (what a fresh session starts from).
  const TpOutput& base_tp(size_t rung = 0) const { return base_tps_[rung]; }

  /// Admission hooks for the serving front-end (src/serve/): the shared
  /// engine's maintained PSR output for rung `rung`. For a pristine
  /// session this IS the session's state (ForkSession is a memcpy), so
  /// replay-from-checkpoint serving reads base queries straight from
  /// here with zero scans. Read-only after Create/OpenFromSnapshot.
  const PsrOutput& base_psr(size_t rung = 0) const {
    return engine_.output(rung);
  }

  /// The resolved execution options (Options::exec after ResolveExec):
  /// the ONE executor shared by the base scan, session replays, RefreshAll
  /// and clean/pipeline.h's per-session round steps.
  const ExecOptions& exec() const { return options_.exec; }

  /// Opens a session: forks the shared scan state (a memcpy, no scan).
  /// Never fails on a live pool; returns a handle for every other call.
  SessionId OpenSession() UCLEAN_EXCLUDES(gate_);

  /// Number of currently open sessions.
  size_t num_open() const { return num_open_; }

  /// True when `id` names a currently open session.
  bool is_open(SessionId id) const {
    return id < sessions_.size() && sessions_[id].open;
  }

  /// Collapses `xtuple` to `resolved_id` (negative = entity absent) in
  /// session `id`'s overlay only. State refresh is deferred to Refresh.
  Status ApplyCleanOutcome(SessionId id, XTupleId xtuple, TupleId resolved_id)
      UCLEAN_EXCLUDES(gate_);

  /// Brings session `id`'s PSR + TP state up to date for every outcome
  /// applied since its last Refresh: one suffix replay from the deepest
  /// valid (shared or private) checkpoint + one delta TP pass. No-op when
  /// the session is clean.
  Status Refresh(SessionId id) UCLEAN_EXCLUDES(gate_);

  /// Refreshes EVERY dirty open session, running the per-session
  /// replay + TP work concurrently on Options::exec's pool (sequentially
  /// without one). Sessions only read the shared engine state and write
  /// their own, so the fan-out is race-free by construction and each
  /// session's result is bitwise the result of calling Refresh(id)
  /// itself. Returns the first error encountered (remaining sessions
  /// are still attempted; a failed session stays dirty).
  Status RefreshAll() UCLEAN_EXCLUDES(gate_);

  /// True when outcomes were applied to `id` since its last Refresh.
  bool dirty(SessionId id) const { return Slot(id).dirty(); }

  // Accessors mirror CleaningSession: reading a dirty session is a hard
  // failure in every build type (a dirty session would silently serve its
  // pre-clean state).

  /// Session `id`'s view of the database (base + its own outcomes).
  const DatabaseOverlay& overlay(SessionId id) const {
    return Slot(id).overlay;
  }

  /// Maintained PSR state of rung `rung`. Requires !dirty(id).
  const PsrOutput& psr(SessionId id, size_t rung = 0) const {
    const Session& s = Slot(id);
    UCLEAN_CHECK(!s.dirty());
    return s.scan.output(rung);
  }

  /// A fresh scan of `ladder` (any ks, on the pool ladder or not) over
  /// session `id`'s view: bitwise ComputePsrLadder over the view with the
  /// pool's PSR options, run on the pool's executor and cut, where that
  /// pays, at every checkpoint valid for the view as well as at grid
  /// points (PsrEngine::ScanLadder). ScanResult::threads says how many
  /// threads it ran on. Requires !dirty(id). Read-only.
  Result<ScanResult> ScanLadder(SessionId id, const KLadder& ladder) const {
    const Session& s = Slot(id);
    UCLEAN_CHECK(!s.dirty());
    return engine_.ScanLadder(s.overlay, s.scan, ladder);
  }

  /// Maintained TP quality state of rung `rung`. Requires !dirty(id).
  const TpOutput& tp(SessionId id, size_t rung = 0) const {
    const Session& s = Slot(id);
    UCLEAN_CHECK(!s.dirty());
    UCLEAN_DCHECK(rung < s.tps.size());
    return s.tps[rung];
  }

  /// All per-rung TP states, ladder order. Requires !dirty(id).
  const std::vector<TpOutput>& tps(SessionId id) const {
    const Session& s = Slot(id);
    UCLEAN_CHECK(!s.dirty());
    return s.tps;
  }

  /// Current PWS-quality S(D,Q) at rung `rung`. Requires !dirty(id).
  double quality(SessionId id, size_t rung = 0) const {
    const Session& s = Slot(id);
    UCLEAN_CHECK(!s.dirty());
    UCLEAN_DCHECK(rung < s.tps.size());
    return s.tps[rung].quality;
  }

  /// Materializes the session's outcomes into a standalone database
  /// (base + this session's cleans, dead slots dropped) and closes the
  /// session. The pool and every other session are unaffected. Works on
  /// dirty sessions (materialization needs only the recorded outcomes).
  Result<ProbabilisticDatabase> CloseAndMerge(SessionId id)
      UCLEAN_EXCLUDES(gate_);

  /// Discards the session's overlay and state, freeing the slot.
  Status Close(SessionId id) UCLEAN_EXCLUDES(gate_);

 private:
  // The snapshot store (store/snapshot.h) serializes the whole pool --
  // base, engine, slot table, free list -- and reassembles it for
  // OpenFromSnapshot without touching the public (scanning) Create path.
  friend class SnapshotAccess;

  struct Session : SessionCore {
    bool open = false;
  };

  SessionPool() = default;

  /// Gives `session` the state of a session with no outcomes: a copy of
  /// the engine's base scan (ForkSession) and of the base TP ladder, each
  /// rung its live prefix. OpenSession and the snapshot loader's pristine
  /// slots both fork through here.
  void ForkBase(Session* session) const;

  /// Refresh body inside a caller-opened gate window, shared by Refresh
  /// and RefreshAll's fan-out (whose worker tasks run under the caller's
  /// window and state that fact with gate_.AssertHeld()). Touches only
  /// `session`'s state plus the read-only shared engine.
  Status RefreshSession(Session* session) UCLEAN_REQUIRES(gate_);

  const Session& Slot(SessionId id) const {
    UCLEAN_CHECK(id < sessions_.size() && sessions_[id].open);
    return sessions_[id];
  }

  /// OK iff `id` names an open session (Status form for mutating calls).
  Status CheckOpen(SessionId id) const;

  // The base lives behind a stable pointer so the overlays' back-pointers
  // survive moves of the pool itself.
  std::unique_ptr<ProbabilisticDatabase> base_;
  PsrEngine engine_;
  std::vector<TpOutput> base_tps_;
  std::vector<Session> sessions_;    // slot table; closed slots are reused
  std::vector<size_t> free_slots_;
  size_t num_open_ = 0;
  Options options_;

  // Serialized-caller capability (see the header comment): every
  // mutating public call opens a ScopedSerialCall window; two
  // overlapping calls trip a hard UCLEAN_CHECK in debug builds and the
  // Clang thread-safety build rejects reentrant entry statically.
  mutable SerialGate gate_;
};

}  // namespace uclean

#endif  // UCLEAN_CLEAN_SESSION_POOL_H_
