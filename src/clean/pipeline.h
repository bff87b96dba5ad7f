// Pipelined adaptive cleaning over a SessionPool: each round runs every
// session's plan + probe step concurrently and commits the round through
// one concurrent RefreshAll.
//
// The paper's adaptive loop (Section V-A) is strictly serial per analyst:
// plan -> probe -> refresh, repeat. After the sharded-scan work a round's
// state refresh is a sub-millisecond suffix replay, which leaves probe
// LATENCY -- the agent waiting on sources in the field -- as the round's
// wall clock. This driver runs many analysts' copies of that round side
// by side:
//
//   1. STEP, one ExecParallelFor over the sessions: task s builds session
//      s's problem from its refreshed TP state, masks the sources its
//      breakers block, plans on its own Rng, and draws the plan's probes
//      against its own overlay (DrawProbes) into slot s -- or, with
//      nothing probeable, waits out one breaker cooldown or marks itself
//      done. Tasks only read the pool and each writes only its own slot.
//   2. COMMIT, fixed session order on the caller.
//   3. One RefreshAll: every dirty session's suffix replay + delta TP
//      pass, fanned over the same executor.
//
// PipelineOptions::overlap only picks the executor of step 1 (the pool's,
// or a sequential one), so the serial reference is this same code. The
// first error in session order is returned before anything of its round
// is committed -- after every later session has also planned and drawn.
//
// DETERMINISM. Overlapped state is BITWISE equal to the serial loop,
// whatever order the steps finish in:
//  * every session plans and draws from its own seeded Rng stream,
//    consumed in the same order as inline execution (plan draws, then
//    probe draws, per round -- see clean/agent.h on why deferring
//    commits does not move the stream);
//  * a step reads only its session's TP state and overlay, which nothing
//    mutates during the step;
//  * commits and refreshes run in fixed session order on the caller.
// tests/pipeline_test.cc holds per-session quality, probe logs and Rng
// engine state bitwise equal under seeded shuffles of completion order;
// bench_pipeline measures the overlap win on the probe-latency regime.
//
// Threading contract: RunPipelinedCleaning is a serialized-caller entry
// point like every SessionPool mutator -- one thread drives it, and the
// pool must not be touched by anyone else until it returns. All
// parallelism (the round's steps, sharded replays, RefreshAll fan-out)
// stays INSIDE the call, on the pool's own executor.

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

  /// True (default) runs each round's per-session steps on the pool's
  /// executor as described in the header; false runs the exact same code
  /// on a sequential executor, every step inline on the caller -- the
  /// serial reference the equivalence tests and bench compare against.
  bool overlap = true;

  /// Probe-loop knobs (simulated per-probe latency) applied to every
  /// session's draws. ProbeOptions::fault is ignored here: fault
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
  /// vector permute the order in which sessions' steps FINISH without
  /// touching any session's draw stream -- how pipeline_test drives the
  /// determinism claim.
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
/// afterwards. With `options.overlap` the round's steps run on the pool's
/// own executor (SessionPool::exec()); with a sequential one they run
/// inline either way.
Result<PipelineReport> RunPipelinedCleaning(
    SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
    const CleaningProfile& profile, int64_t budget, std::vector<Rng>* rngs,
    const PipelineOptions& options);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_PIPELINE_H_
