#include "clean/pipeline.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clean/fault.h"
#include "clean/problem.h"
#include "exec/thread_pool.h"

namespace uclean {

namespace {

/// Per-session probe options: the shared knobs plus this session's test
/// jitter.
ProbeOptions SessionProbeOptions(const PipelineOptions& options, size_t s) {
  ProbeOptions probe = options.probe;
  if (s < options.session_latency_jitter.size()) {
    probe.latency += options.session_latency_jitter[s];
  }
  return probe;
}

/// What one session's step did in the current round; kDone is sticky.
enum class Step : uint8_t { kIdle, kDrew, kWaiting, kDone };

}  // namespace

Result<PipelineReport> RunPipelinedCleaning(
    SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
    const CleaningProfile& profile, int64_t budget, std::vector<Rng>* rngs,
    const PipelineOptions& options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("RunPipelinedCleaning requires a pool");
  }
  if (rngs == nullptr || rngs->size() != ids.size()) {
    return Status::InvalidArgument(
        "RunPipelinedCleaning requires one Rng per session");
  }
  for (SessionPool::SessionId id : ids) {
    if (!pool->is_open(id)) {
      return Status::InvalidArgument("session " + std::to_string(id) +
                                     " is not open");
    }
    if (pool->dirty(id)) {
      return Status::FailedPrecondition(
          "session " + std::to_string(id) +
          " is dirty; Refresh before starting the pipeline");
    }
  }

  const size_t n = ids.size();
  // The overlapped and serial forms are one code path: overlap only picks
  // the executor the per-session steps run on.
  const ExecOptions exec = options.overlap ? pool->exec() : ExecOptions();

  // Per-session fault injectors, seeded `fault.seed + s` like the probe
  // Rngs. Each one is consumed only by its own session's step, so steps
  // stay race-free and serial and overlapped campaigns draw identical
  // fault streams. A caller passing PipelineOptions::injectors
  // substitutes its own identically-constructed set (so it can read
  // their state after the call -- the snapshot store's mid-campaign
  // save).
  std::vector<FaultInjector> owned_injectors;
  std::vector<FaultInjector>* injectors = options.injectors;
  if (options.fault.enabled) {
    UCLEAN_RETURN_IF_ERROR(options.fault.Validate());
    if (injectors != nullptr) {
      if (injectors->size() != n) {
        return Status::InvalidArgument(
            "PipelineOptions::injectors must hold one injector per session");
      }
    } else {
      owned_injectors.reserve(n);
      for (size_t s = 0; s < n; ++s) {
        FaultOptions session_fault = options.fault;
        session_fault.seed = options.fault.seed + s;
        owned_injectors.emplace_back(session_fault);
      }
      injectors = &owned_injectors;
    }
  }

  PipelineReport report;
  report.sessions.resize(n);
  std::vector<int64_t> remaining(n, budget);
  if (!options.spent_so_far.empty()) {
    if (options.spent_so_far.size() != n) {
      return Status::InvalidArgument(
          "PipelineOptions::spent_so_far must hold one entry per session");
    }
    for (size_t s = 0; s < n; ++s) remaining[s] -= options.spent_so_far[s];
  }

  // Slot s is written only by session s's step: one Step byte and one
  // draw result per session, never a std::vector<bool>, whose packed bits
  // race when workers write neighbours.
  std::vector<Step> steps(n, Step::kIdle);
  std::vector<Result<ProbeDraws>> drawn(
      n, Result<ProbeDraws>(Status::Internal("no draw this round")));

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // ---- the step: every session plans from its refreshed state and
    // draws its probes against its own overlay, concurrently on `exec`.
    ExecParallelFor(exec, n, [&](size_t s) {
      if (steps[s] == Step::kDone) return;
      steps[s] = Step::kIdle;
      if (remaining[s] <= 0) return;
      steps[s] = Step::kDrew;  // drawn[s] gets the draws or the error
      FaultInjector* injector =
          options.fault.enabled ? &(*injectors)[s] : nullptr;
      Result<CleaningProblem> problem = MakeCleaningProblem(
          pool->tps(ids[s]), options.plan_weights, profile, remaining[s]);
      if (!problem.ok()) {
        drawn[s] = problem.status();
        return;
      }
      // Degradation: mask sources this session's open breakers block, so
      // the plan reinvests its budget in members that can still answer.
      MaskUnavailableSources(injector, &*problem);
      Result<CleaningPlan> plan = RunPlanner(options.planner, *problem,
                                             &(*rngs)[s], options.dp_options);
      if (!plan.ok()) {
        drawn[s] = plan.status();
        return;
      }
      if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) {
        // Nothing probeable. Breakers cooling down are a temporary
        // condition: wait one cooldown out (simulated) and re-plan next
        // round; otherwise this session's campaign is done.
        if (injector != nullptr && injector->num_open_sources() > 0) {
          injector->AdvanceClock(options.fault.breaker.cooldown_us);
          steps[s] = Step::kWaiting;
        } else {
          steps[s] = Step::kDone;
        }
        return;
      }
      ProbeOptions probe = SessionProbeOptions(options, s);
      probe.fault = injector;
      drawn[s] = DrawProbes(pool->overlay(ids[s]), profile, plan->probes,
                            &(*rngs)[s], probe);
    });
    bool drew_any = false;
    bool waiting_any = false;
    for (size_t s = 0; s < n; ++s) {
      if (steps[s] == Step::kWaiting) waiting_any = true;
      if (steps[s] != Step::kDrew) continue;
      if (!drawn[s].ok()) return drawn[s].status();
      drew_any = true;
    }
    if (!drew_any) {
      if (waiting_any) continue;  // breakers cooling down; re-plan
      break;
    }
    report.rounds = round + 1;

    // ---- commit in fixed session order: which step finished first never
    // matters, which is the determinism keystone.
    bool progressed = false;
    for (size_t s = 0; s < n; ++s) {
      if (steps[s] != Step::kDrew) continue;
      Result<ProbeDraws> draws = std::move(drawn[s]);
      UCLEAN_RETURN_IF_ERROR(CommitProbeDraws(pool, ids[s], *draws));
      PipelineSessionReport& session = report.sessions[s];
      session.spent += draws->report.spent;
      session.leftover += draws->report.leftover;
      session.successes += draws->report.successes;
      session.log.insert(session.log.end(), draws->report.log.begin(),
                         draws->report.log.end());
      session.faults += draws->report.faults;
      // A session that spent nothing and had nothing blocked by faults is
      // finished; a fault-blocked one keeps its unspent budget and stays
      // in the campaign (its sources may recover).
      if (draws->report.spent == 0 &&
          draws->report.faults.BlockedProbes() == 0) {
        steps[s] = Step::kDone;
        continue;
      }
      if (draws->report.spent > 0) {
        remaining[s] -= draws->report.spent;
        ++session.rounds;
      }
      progressed = true;
    }

    // ---- one concurrent RefreshAll commits the round's state.
    UCLEAN_RETURN_IF_ERROR(pool->RefreshAll());
    if (!progressed) break;
  }

  for (size_t s = 0; s < n; ++s) {
    PipelineSessionReport& session = report.sessions[s];
    session.final_quality.clear();
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      session.final_quality.push_back(pool->quality(ids[s], rung));
    }
  }
  return report;
}

}  // namespace uclean
