// PsrEngine: the checkpointed PSR scan behind every cleaning session,
// serving a whole ladder of k values from one shared scan.
//
// A successful pclean collapses one x-tuple to a certain tuple and leaves
// every other tuple's rank unchanged (DatabaseOverlay::ApplyCleanOutcome).
// The engine scans the base database once and keeps the Poisson-binomial
// scan state of psr_scan_core.h checkpointed at intervals along the rank
// order; refreshing a session after a round of cleans restores the last
// checkpoint at or before the first changed rank and replays only the
// suffix of the scan, so a round costs O(m + suffix * (k_max + T))
// instead of a database rebuild plus an O(k n) rescan per served k.
// Replayed results are bitwise identical to running ComputePsrLadder
// from scratch over the session's overlay: the restored state is the
// exact state a fresh scan reaches at the checkpoint (the prefix is
// untouched by the clean), and the suffix executes the same arithmetic.
//
// Multi-k: the scan state (count vector, per-x-tuple masses) is
// k-independent, so ONE checkpoint set serves every rung; only the
// emission cursors differ per k. Each rung stops at its own Lemma-2
// point (scan_end is ascending in k) and holds only [0, scan_end), and
// a replay is suffix-only PER RUNG: rungs whose scan already stopped at
// or before the replay boundary are left untouched -- a clean below a
// rung's stop point cannot change its output -- while deeper rungs are
// cut back to the restore point and re-emit only their own reachable
// suffix, ending at their new stop.
//
// Sessions: a checkpoint at rank p depends only on the tuples above p,
// so it is valid for every session whose overlay still equals the base
// above p. Each session owns a SessionState (per-rung outputs plus its
// private checkpoints) and advances it through ReplaySession: the shared
// base checkpoints cover the prefix above the session's divergence rank,
// and the private list covers its post-divergence suffix. A SessionPool
// forks one SessionState per session (ForkSession, a copy of the base
// outputs). A CleaningSession is its engine's only session and takes the
// engine's outputs and checkpoints instead (TakeSoleSession, a move):
// its private list then holds every checkpoint, and the replay restores
// from it alone.
//
// Cold scans: a ladder off the engine's own (ScanLadder) is a fresh scan
// of a session's view from rank 0, but every checkpoint valid for that
// view -- the shared ones at or above its divergence rank and the
// session's own -- already holds the exact state that scan reaches
// there, whatever its ks. The sharded driver may start a shard at any
// of them by restoring it whole, so a scan that stops long before the
// first count-refresh grid point still splits; its output is bitwise a
// one-shot ComputePsrLadder over the view.
//
// Aggregate caveats after a replay:
//  * num_nonzero and scan_end are always maintained, per rung.
//  * best_rank_prob / best_rank_index are running argmaxes over the whole
//    scan; after a replay they are recomputed from the stored rank matrix
//    when PsrOptions::store_rank_probabilities is set, and reset to the
//    empty answer (0 / -1) otherwise -- cleaning consumers (TP, planners)
//    never read them, query serving should keep the matrix on.
//
// Parallel execution: Create with ExecOptions{num_threads > 1} and every
// scan the engine runs -- the initial full scan, every ReplaySession
// suffix and every ScanLadder -- is sharded by rank range over the
// shared ThreadPool
// (rank/sharded_scan.h) whenever the range justifies it, with per-rung
// argmax recomputation fanned over the same pool. Results agree with the
// sequential path to 1e-12 (bitwise wherever the shard boundary state
// comes from a checkpoint; see sharded_scan.h on rebuilt boundaries);
// checkpoint PLACEMENT may differ between the two paths, which changes
// replay cost, never replay results. Scans triggered from inside a pool
// worker (nested parallelism, e.g. SessionPool::RefreshAll fanning
// sessions) degrade to the sequential loop on that worker.
//
// Threading contract: the engine is read-only after Create. ForkSession,
// ReplaySession and ScanLadder are const and safe to call CONCURRENTLY
// from any number of threads, as long as each concurrent ReplaySession
// targets a DISTINCT (overlay, SessionState) pair -- SessionPool::
// RefreshAll's fan-out -- that no concurrent ScanLadder reads. TakeSoleSession is the one exception: its caller owns the
// engine and calls it once, right after Create, before any other call.
// A scan-running call may itself execute ON a pool worker; its nested
// sharded scan then degrades to the sequential loop inline
// (exec/thread_pool.h's nesting rule), never deadlocking the pool.

#ifndef UCLEAN_RANK_PSR_ENGINE_H_
#define UCLEAN_RANK_PSR_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"

namespace uclean {

class PsrEngine {
 private:
  /// Scan state snapshot taken just before processing rank `pos`. The
  /// snapshot is k-independent, so one checkpoint set serves every rung;
  /// it is also session-independent above the snapshotting session's own
  /// changes, which is what lets pooled sessions share the base set.
  struct Checkpoint {
    size_t pos = 0;
    /// Live-tuple ordinal of `pos` (count of live tuples above it):
    /// anchors the count-refresh grid across replays (see
    /// psr_scan_core.h).
    size_t live = 0;
    std::vector<double> c;
    size_t active = 0;
    size_t saturated = 0;
    struct XEntry {
      XTupleId xtuple;
      psr_internal::XTupleState state;
      double q;
    };
    std::vector<XEntry> xs;  // every non-inactive x-tuple
  };

 public:
  /// An empty engine; assign from Create before use.
  PsrEngine() = default;

  /// Runs the initial full scan over `db` and snapshots checkpoints at
  /// `request.checkpoint_interval` live tuples (smaller = cheaper
  /// replays, more snapshot memory; it doubles whenever the checkpoint
  /// count would exceed kMaxCheckpoints). `request.exec` selects the
  /// execution mode -- thread count AND compute kernel -- for this and
  /// every later scan (sequential by default; see the header note on
  /// parallel execution). Fails with InvalidArgument when the request,
  /// its exec options or its kernel choice do not validate, or when
  /// request.overlay is set: engines scan base databases and serve
  /// session overlays through ForkSession/ReplaySession instead.
  static Result<PsrEngine> Create(const ProbabilisticDatabase& db,
                                  const ScanRequest& request);

  /// The ladder this engine serves (ascending).
  const KLadder& ladder() const { return ladder_; }
  size_t num_rungs() const { return ladder_.size(); }

  /// The base scan's PSR state of rung `rung` (empty after
  /// TakeSoleSession).
  const PsrOutput& output(size_t rung) const { return base_.output(rung); }
  const std::vector<PsrOutput>& outputs() const { return base_.outputs(); }

  /// Single-k convenience: the first rung (the only one for engines built
  /// through the single-k Create).
  const PsrOutput& output() const { return base_.outputs().front(); }

  /// The largest served k (the only one for single-k engines).
  size_t k() const { return ladder_.max_k(); }

  /// The execution options the engine was created with (the pool is
  /// shared with TP fan-out and session-refresh consumers).
  const ExecOptions& exec() const { return exec_; }

  // ----- sessions over the shared scan -----

  /// One session's scan state: a complete per-rung PsrOutput set plus the
  /// session's private checkpoints. Obtained from ForkSession or
  /// TakeSoleSession, advanced only through ReplaySession. The session's
  /// divergence rank -- the bound on shared-checkpoint validity -- is
  /// read from its overlay, the single source of truth for what the
  /// session changed.
  class SessionState {
   public:
    SessionState() = default;

    const PsrOutput& output(size_t rung) const {
      UCLEAN_DCHECK(rung < outputs_.size());
      return outputs_[rung];
    }
    const std::vector<PsrOutput>& outputs() const { return outputs_; }

    /// The private checkpoint ranks, ascending (introspection: replay-cost
    /// diagnostics, and the restart tests replay from every one of them).
    std::vector<size_t> checkpoint_positions() const {
      std::vector<size_t> positions;
      positions.reserve(checkpoints_.size());
      for (const Checkpoint& cp : checkpoints_) positions.push_back(cp.pos);
      return positions;
    }

   private:
    friend class PsrEngine;
    friend class SnapshotAccess;  // store/snapshot.h persistence
    std::vector<PsrOutput> outputs_;       // one per rung, ascending k
    std::vector<Checkpoint> checkpoints_;  // private suffix snapshots
    psr_internal::ScanCore core_;          // replay scratch; empty until
                                           // the session's first replay
    size_t checkpoint_interval_ = kInitialCheckpointInterval;
  };

  /// Forks a pooled session's state: a copy of the base outputs, each
  /// rung its live prefix [0, scan_end) (an O(sum of scan_end) memcpy, NO
  /// scan -- this is why opening a pooled session is orders of magnitude
  /// cheaper than a scan of its own).
  SessionState ForkSession() const;

  /// Hands the base scan's outputs, checkpoint list and scan scratch to
  /// the engine's only session, by move: the session then owns the sole
  /// copy of its scan state, and the engine keeps only its ladder,
  /// options and executor. Call once, right after Create, when no other
  /// session will ever fork from this engine.
  SessionState TakeSoleSession();

  /// Re-derives `state` after ApplyCleanOutcome calls on the session's
  /// overlay `db` (a view of the database this engine was created from).
  /// Restores the deepest checkpoint still valid for the session -- its
  /// own snapshot when one survives the change, the last shared base
  /// snapshot at or above the overlay's divergence_rank() otherwise --
  /// and replays only the suffix, taking fresh private checkpoints along
  /// the way. `first_changed_rank` is the minimum CleanOutcomeDelta::
  /// first_changed_rank over the batch; num_tuples() (a batch of no-ops)
  /// makes the call free. Shared engine state is untouched, so
  /// interleaved sessions never observe each other.
  Status ReplaySession(const DatabaseOverlay& db, size_t first_changed_rank,
                       SessionState* state) const;

  /// Scans a fresh `ladder` (any ks, on this engine's ladder or not) over
  /// `view` from rank 0 with the engine's PSR options and executor:
  /// bitwise what ComputePsrLadder returns for the same ladder and
  /// options over `view` (its base when pristine), kernel and threads
  /// aside. `state` is the refreshed session state of `view` (the
  /// session's ReplaySession is up to date with every outcome the overlay
  /// holds). The sharded driver may cut the scan at every checkpoint
  /// valid for the view -- the shared ones at or above its divergence
  /// rank and the session's own -- restoring the whole checkpoint there,
  /// as well as at grid points; the view's rung at or above the ladder's
  /// top k bounds the depth its cut plan weighs (rank/sharded_scan.h).
  /// Fails with InvalidArgument on an invalid ladder and
  /// FailedPrecondition when `state` is not this engine's or not over
  /// `view`'s base. Const and read-only: safe to call concurrently with
  /// any other const call.
  Result<ScanResult> ScanLadder(const DatabaseOverlay& view,
                                const SessionState& state,
                                const KLadder& ladder) const;

  /// Checkpoint cadence: every `checkpoint_interval_` live tuples, thinned
  /// (drop every other one, double the interval) when the count exceeds
  /// kMaxCheckpoints so memory stays O(kMaxCheckpoints * m). The default
  /// cadence is the request struct's, spelled once for the whole library.
  static constexpr size_t kInitialCheckpointInterval =
      ScanRequest::kDefaultCheckpointInterval;
  static constexpr size_t kMaxCheckpoints = 160;

 private:
  // The snapshot store (store/snapshot.h) serializes the full engine
  // state -- checkpoints, outputs, ladder, cadence -- and rebuilds it
  // without a scan; it owns the invariants a hand-assembled engine must
  // satisfy (outputs consistent with the ladder, checkpoints ascending).
  friend class SnapshotAccess;

  /// Copies the scan state into a fresh checkpoint appended to `cps`,
  /// thinning (and doubling `*interval`) at capacity. `live` is pos's
  /// live-tuple ordinal.
  static void SnapshotInto(const psr_internal::ScanCore& core, size_t pos,
                           size_t live, std::vector<Checkpoint>* cps,
                           size_t* interval);

  /// Drops every other checkpoint (always retaining the first) and
  /// doubles `*interval` -- the capacity response shared by SnapshotInto
  /// and the sharded-scan checkpoint merge.
  static void ThinCheckpoints(std::vector<Checkpoint>* cps, size_t* interval);

  /// Sets `core` to the scan state `cp` holds, sizing its per-x-tuple
  /// arrays to `num_xtuples` (a forked session's first replay allocates
  /// its scratch here).
  static void RestoreInto(const Checkpoint& cp, size_t num_xtuples,
                          psr_internal::ScanCore* core);

  /// Cuts each of `scan`'s rungs that re-emits back to `begin` and runs
  /// the scan loop over `db` from its scratch to the stop point, growing
  /// them and snapshotting into its checkpoints along the way -- sharded
  /// over `exec`'s pool when the range justifies it, sequentially
  /// otherwise. Rungs whose scan had already stopped at or before `begin`
  /// are left untouched. `Db` is
  /// ProbabilisticDatabase (the base scan) or DatabaseOverlay (session
  /// replays); both run identical arithmetic.
  template <typename Db>
  static void ScanFrom(const Db& db, size_t begin, size_t live_at_begin,
                       const PsrOptions& options, const ExecOptions& exec,
                       SessionState* scan);

  /// Recomputes num_nonzero and (from the matrix, when stored) the
  /// per-rank argmaxes after a scan, for every rung that re-emitted; the
  /// per-rung work fans over `exec`'s pool.
  template <typename Db>
  static void FinalizeAggregates(const Db& db, size_t begin, bool from_rank_0,
                                 const ExecOptions& exec,
                                 std::vector<PsrOutput>* outputs);

  ExecOptions exec_;
  PsrOptions options_;
  KLadder ladder_;
  // The base scan, held as a session's state: its checkpoints are the
  // shared ones every session may restore from.
  SessionState base_;
};

}  // namespace uclean

#endif  // UCLEAN_RANK_PSR_ENGINE_H_
