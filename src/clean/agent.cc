#include "clean/agent.h"

#include <string>
#include <thread>
#include <utility>

namespace uclean {

namespace {

/// Fault-aware execution of x-tuple `l`'s planned probes: each planned
/// probe gets up to RetryPolicy::max_attempts tries with backed-off
/// retries, gated by the plan deadline, the per-probe deadline and `l`'s
/// circuit breaker. Only completed probes spend budget and consume the
/// probe Rng (one success draw); every fault decision comes from the
/// injector's dedicated stream, in plan order. Sets `record->success`
/// when `l` was cleaned (the caller then reveals the outcome from `rng`).
void RunFaultedProbes(const CleaningProfile& profile, XTupleId l,
                      int64_t planned, Rng* rng, const ProbeOptions& options,
                      ProbeRecord* record, FaultStats* stats) {
  FaultInjector& fault = *options.fault;
  const RetryPolicy& retry = fault.retry();
  const int64_t cost = profile.costs[l];
  const int64_t latency_us = options.latency.count();
  for (int64_t p = 0; p < planned; ++p) {
    if (retry.plan_deadline_us > 0 &&
        fault.now_us() >= retry.plan_deadline_us) {
      stats->deadline_skips += planned - p;
      stats->budget_unspent += (planned - p) * cost;
      record->last_error = StatusCode::kDeadlineExceeded;
      return;
    }
    if (!fault.AdmitProbe(l)) {
      stats->breaker_skips += planned - p;
      stats->budget_unspent += (planned - p) * cost;
      record->last_error = StatusCode::kUnavailable;
      return;
    }
    const int64_t probe_start_us = fault.now_us();
    bool completed = false;
    StatusCode probe_error = StatusCode::kUnavailable;
    for (int64_t tries = 1; tries <= retry.max_attempts; ++tries) {
      // The backoff wait is part of the retry, so the per-probe deadline
      // is enforced both after it and after each attempt's own latency.
      if (tries > 1) {
        ++record->retries;
        ++stats->retries;
        fault.BackoffWithJitter(tries - 1);
      }
      if (retry.probe_deadline_us > 0 &&
          fault.now_us() - probe_start_us >= retry.probe_deadline_us) {
        probe_error = StatusCode::kDeadlineExceeded;
        break;
      }
      const FaultKind kind = fault.DrawAttemptFault(l);
      if (kind == FaultKind::kNone) {
        fault.AdvanceClock(latency_us);
        if (options.latency.count() > 0) {
          std::this_thread::sleep_for(options.latency);
        }
        completed = true;
        break;
      }
      switch (kind) {
        case FaultKind::kTransient:
          ++stats->transient;
          fault.AdvanceClock(latency_us);
          break;
        case FaultKind::kTimeout:
          ++stats->timeouts;
          // A timeout burns the whole per-probe deadline (the attempt
          // latency when no deadline is configured).
          fault.AdvanceClock(retry.probe_deadline_us > 0
                                 ? retry.probe_deadline_us
                                 : latency_us);
          break;
        case FaultKind::kSourceDown:
          ++stats->source_down;
          fault.AdvanceClock(latency_us);
          break;
        case FaultKind::kNone:
          break;
      }
      if (kind == FaultKind::kSourceDown) break;  // retrying is pointless
    }
    fault.RecordProbeOutcome(l, completed);
    if (!completed) {
      ++record->failures;
      ++stats->failed_probes;
      stats->budget_unspent += cost;
      record->last_error = probe_error;
      continue;  // the next planned probe tries again (breaker permitting)
    }
    ++record->attempts;
    record->spent += cost;
    if (rng->Bernoulli(profile.sc_probs[l])) {
      record->success = true;
      return;
    }
  }
}

/// Applies a draw's recorded outcomes in order through `apply`.
template <typename ApplyOutcomeFn>
Status ApplyDraws(const ProbeDraws& draws, ApplyOutcomeFn apply) {
  for (const auto& [xtuple, resolved_id] : draws.outcomes) {
    UCLEAN_RETURN_IF_ERROR(apply(xtuple, resolved_id));
  }
  return Status::OK();
}

}  // namespace

/// The probe loop shared by every form: spends budget, draws successes
/// and revealed outcomes, and RECORDS each success instead of applying
/// it. Draws from `rng` in a fixed order, and reads only the probed
/// x-tuple's own members/probabilities -- state no other x-tuple's
/// collapse can touch -- so the stream is identical whether outcomes are
/// applied between probes (inline ExecutePlan) or all at the end
/// (draw/commit, pipelined).
Result<ProbeDraws> DrawProbes(const DatabaseOverlay& db,
                              const CleaningProfile& profile,
                              const std::vector<int64_t>& probes, Rng* rng,
                              const ProbeOptions& options) {
  UCLEAN_RETURN_IF_ERROR(profile.Validate(db.num_xtuples()));
  if (probes.size() != db.num_xtuples()) {
    return Status::InvalidArgument("probes vector size mismatch");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("ExecutePlan requires an Rng");
  }
  ProbeDraws draws;
  int64_t planned_cost = 0;
  for (size_t l = 0; l < probes.size(); ++l) {
    if (probes[l] <= 0) continue;
    planned_cost += probes[l] * profile.costs[l];

    ProbeRecord record;
    record.xtuple = static_cast<XTupleId>(l);
    if (options.fault != nullptr) {
      RunFaultedProbes(profile, static_cast<XTupleId>(l), probes[l], rng,
                       options, &record, &draws.report.faults);
    } else {
      for (int64_t attempt = 0; attempt < probes[l]; ++attempt) {
        ++record.attempts;
        record.spent += profile.costs[l];
        // The field operation itself: a probe takes `latency` before its
        // result is known. Sleeping (not spinning) is the point -- waiting
        // probes release the core, which is what the pipelined driver
        // overlaps.
        if (options.latency.count() > 0) {
          std::this_thread::sleep_for(options.latency);
        }
        if (rng->Bernoulli(profile.sc_probs[l])) {
          record.success = true;
          break;  // the agent stops probing once the entity is cleaned
        }
      }
    }
    if (record.success) {
      // Reveal the true state: one alternative (possibly the null outcome),
      // drawn with its existential probability.
      const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
      std::vector<double> weights;
      weights.reserve(members.size());
      for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
      const Tuple& revealed = db.tuple(members[rng->Discrete(weights)]);
      record.resolved_id = revealed.id;
      draws.outcomes.emplace_back(static_cast<XTupleId>(l), revealed.id);
      ++draws.report.successes;
    }
    draws.report.spent += record.spent;
    draws.report.log.push_back(std::move(record));
  }
  draws.report.leftover = planned_cost - draws.report.spent;
  return draws;
}

Status CommitProbeDraws(SessionPool* pool, SessionPool::SessionId id,
                        const ProbeDraws& draws) {
  if (pool == nullptr) {
    return Status::InvalidArgument("CommitProbeDraws requires a pool");
  }
  if (!pool->is_open(id)) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  return ApplyDraws(draws,
                    [pool, id](XTupleId l, TupleId resolved_id) -> Status {
                      return pool->ApplyCleanOutcome(id, l, resolved_id);
                    });
}

// ---------------------------------------------------------- ExecutePlan

Result<ExecutionReport> ExecutePlan(const ProbabilisticDatabase& db,
                                    const CleaningProfile& profile,
                                    const std::vector<int64_t>& probes,
                                    Rng* rng, const ProbeOptions& options) {
  // Record the outcomes in an overlay of `db` and materialize it once:
  // rank order is untouched by a collapse, so the historical
  // DatabaseBuilder round-trip (re-validate + re-sort) is pure overhead.
  DatabaseOverlay view(&db);
  Result<ProbeDraws> draws = DrawProbes(view, profile, probes, rng, options);
  if (!draws.ok()) return draws.status();
  UCLEAN_RETURN_IF_ERROR(
      ApplyDraws(*draws, [&view](XTupleId l, TupleId resolved_id) -> Status {
        return view.ApplyCleanOutcome(l, resolved_id).status();
      }));
  ExecutionReport report;
  report.cleaned_db = view.MaterializeCleaned();
  report.spent = draws->report.spent;
  report.leftover = draws->report.leftover;
  report.successes = draws->report.successes;
  report.log = std::move(draws->report.log);
  report.faults = draws->report.faults;
  return report;
}

Result<SessionExecutionReport> ExecutePlan(CleaningSession* session,
                                           const CleaningProfile& profile,
                                           const std::vector<int64_t>& probes,
                                           Rng* rng,
                                           const ProbeOptions& options) {
  if (session == nullptr) {
    return Status::InvalidArgument("ExecutePlan requires a session");
  }
  Result<ProbeDraws> draws =
      DrawProbes(session->db(), profile, probes, rng, options);
  if (!draws.ok()) return draws.status();
  UCLEAN_RETURN_IF_ERROR(ApplyDraws(
      *draws, [session](XTupleId l, TupleId resolved_id) -> Status {
        return session->ApplyCleanOutcome(l, resolved_id);
      }));
  return std::move(draws->report);
}

Result<SessionExecutionReport> ExecutePlan(SessionPool* pool,
                                           SessionPool::SessionId id,
                                           const CleaningProfile& profile,
                                           const std::vector<int64_t>& probes,
                                           Rng* rng,
                                           const ProbeOptions& options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("ExecutePlan requires a pool");
  }
  if (!pool->is_open(id)) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  Result<ProbeDraws> draws =
      DrawProbes(pool->overlay(id), profile, probes, rng, options);
  if (!draws.ok()) return draws.status();
  UCLEAN_RETURN_IF_ERROR(CommitProbeDraws(pool, id, *draws));
  return std::move(draws->report);
}

}  // namespace uclean
