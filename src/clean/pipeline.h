// Pipelined adaptive cleaning over a SessionPool: overlap agent probes
// with planning and commit each round through one concurrent RefreshAll.
//
// The paper's adaptive loop (Section V-A) is strictly serial per analyst:
// plan -> probe -> refresh, repeat. After the sharded-scan work a round's
// state refresh is a sub-millisecond suffix replay, which leaves probe
// LATENCY -- the agent waiting on sources in the field -- as the round's
// wall clock. This driver restructures one pool round so that waiting
// overlaps with everything else:
//
//   1. PLAN + SUBMIT, session order: plan session s from its refreshed
//      state, then hand the probe batch to the exec pool (SubmitProbes)
//      and move on. While the caller plans session s+1, batches
//      0..s are already drawing on workers -- probes are pure draws
//      against each session's own DatabaseOverlay, so batches for all
//      sessions run concurrently, race-free by construction.
//   2. WAIT + COMMIT, fixed session order: take each batch's draws and
//      apply them on the caller thread under the pool's
//      serialized-caller contract. Waiting on batch s overlaps with
//      batches s+1..N-1 still drawing.
//   3. One RefreshAll commits the round: every dirty session's suffix
//      replay + delta TP pass, fanned over the same executor.
//
// DETERMINISM. Pipelined state is BITWISE equal to the serial loop
// (PipelineOptions::overlap = false), whatever the completion order of
// the in-flight batches:
//  * every session draws from its own seeded Rng stream, consumed in the
//    same order as inline execution (plan draws, then probe draws, per
//    round -- see clean/agent.h on why deferring commits does not move
//    the stream);
//  * a draw reads only its session's overlay, which nothing mutates
//    while the batch is in flight;
//  * commits and refreshes run in fixed session order on the caller.
// tests/pipeline_test.cc holds per-session quality, probe logs and Rng
// engine state bitwise equal under seeded shuffles of completion order;
// bench_pipeline measures the overlap win on the probe-latency regime.
//
// Threading contract: RunPipelinedCleaning is a serialized-caller entry
// point like every SessionPool mutator -- one thread drives it, and the
// pool must not be touched by anyone else until it returns. All
// parallelism (probe batches, sharded replays, RefreshAll fan-out) stays
// INSIDE the call, on the pool's own executor.

#ifndef UCLEAN_CLEAN_PIPELINE_H_
#define UCLEAN_CLEAN_PIPELINE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/planners.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/status.h"

namespace uclean {

/// Options for the pipelined pool round loop.
struct PipelineOptions {
  PlannerKind planner = PlannerKind::kGreedy;
  DpOptions dp_options;

  /// Per-session round cap; defaults to the adaptive loop's own cap
  /// (read from it, not duplicated) so the pooled driver and
  /// RunAdaptiveCleaning can never drift apart.
  size_t max_rounds = AdaptiveOptions().max_rounds;

  /// Per-rung planning weights for the ladder aggregate (empty =
  /// uniform), positional on the pool's ladder.
  std::vector<double> plan_weights;

  /// True (default) overlaps probe batches with planning as described in
  /// the header; false runs the exact same code path with every draw
  /// inline on the caller -- the serial reference the equivalence tests
  /// and bench compare against.
  bool overlap = true;

  /// Probe-loop knobs (simulated per-probe latency) applied to every
  /// session's batches. ProbeOptions::fault is ignored here: fault
  /// injection is configured through `fault` below, which gives every
  /// session its own injector (a shared one would couple the sessions'
  /// fault streams and break the serial/pipelined equivalence).
  ProbeOptions probe;

  /// Fault injection + retry/deadline/breaker policy (clean/fault.h).
  /// When enabled, session s draws faults from a dedicated injector
  /// seeded `fault.seed + s` -- the same per-session stream convention as
  /// the probe Rngs -- so serial and pipelined campaigns with equal seeds
  /// commit identical outcomes at any fail rate.
  FaultOptions fault;

  /// Caller-owned injectors, one per session id, overriding the internal
  /// fault.seed + s construction above (used with fault.enabled; must
  /// then have exactly one entry per id). The loop consumes them exactly
  /// as it would its own, and they survive the call -- which is what lets
  /// the snapshot store capture mid-campaign breaker/clock/stream state:
  /// run part of a campaign with external injectors, save their
  /// SaveState alongside the session Rngs, and a resumed run (restored
  /// injectors + spent_so_far below) continues the exact fault stream.
  /// Not owned; must outlive the call.
  std::vector<FaultInjector>* injectors = nullptr;

  /// Budget already spent per session (positional on `ids`; empty means
  /// none). Session s probes with `budget - spent_so_far[s]` remaining,
  /// which is how a resumed campaign carries differing per-session
  /// spends forward. The returned report still counts only THIS call's
  /// activity; the resuming caller merges it with the saved progress.
  /// For deterministic planners (greedy, DP) a save/resume split at a
  /// round boundary commits bitwise the outcomes of the uninterrupted
  /// run; the randomized planners (randu, randp) would consume one extra
  /// planning draw on sessions that finish before the split, so resumed
  /// determinism is only guaranteed for the deterministic planners.
  std::vector<int64_t> spent_so_far;

  /// Test hook: extra per-probe latency added for session s (index into
  /// this vector; missing entries add nothing). Seeded shuffles of this
  /// vector permute batch COMPLETION order without touching any session's
  /// draw stream -- how pipeline_test drives the determinism claim.
  std::vector<std::chrono::microseconds> session_latency_jitter;
};

/// One session's campaign summary.
struct PipelineSessionReport {
  int64_t spent = 0;
  int64_t leftover = 0;
  size_t successes = 0;
  size_t rounds = 0;  ///< rounds in which this session executed probes
  /// Concatenated probe log, round order (the equivalence fingerprint).
  std::vector<ProbeRecord> log;
  /// Final per-rung qualities, ladder order (refreshed).
  std::vector<double> final_quality;
  /// Campaign-wide fault counters of this session's probe loop (all zero
  /// unless PipelineOptions::fault is enabled).
  FaultStats faults;
};

/// Outcome of a pipelined (or serial-reference) pool campaign.
struct PipelineReport {
  size_t rounds = 0;  ///< rounds in which any session executed probes
  std::vector<PipelineSessionReport> sessions;  ///< one per id, in order
};

/// Runs the adaptive plan/probe/refresh loop for the open sessions `ids`
/// of `pool`, each with its own budget `budget` and its own Rng
/// (*rngs)[s] -- rngs must have one entry per id and outlives the call.
/// Sessions must be open and clean (refreshed); they are left open and
/// clean, so the caller can inspect pool state or CloseAndMerge
/// afterwards. Probe batches run on the pool's own executor
/// (SessionPool::exec()); with a sequential executor the overlap mode
/// degrades to inline draws.
Result<PipelineReport> RunPipelinedCleaning(
    SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
    const CleaningProfile& profile, int64_t budget, std::vector<Rng>* rngs,
    const PipelineOptions& options);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_PIPELINE_H_
