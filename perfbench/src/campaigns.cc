// The cleaning-campaign workloads, `campaign` and `solo`.
//
//  * campaign: one SessionPool on ladder {20, 100, 500} at nproc threads
//    serving 32 analysts' campaigns at once (budget 1,000 each, greedy
//    planner, zero probe latency) through RunPipelinedCleaning with
//    overlap on. Each campaign opens 32 fresh sessions and is driven one
//    round per call (PipelineOptions::max_rounds = 1, spent_so_far carried
//    forward, finished sessions dropped), the documented resume split that
//    commits bitwise the outcomes of an uninterrupted call for
//    deterministic planners. The split shows when each analyst's campaign
//    is done -- the end of the last round in which its session probed --
//    and that is the timed operation: 32 samples per pool campaign.
//  * solo: one analyst's RunAdaptiveCleaning on the same ladder and budget
//    on one thread -- what `clean --adaptive` runs, and the only workload
//    that runs CleaningSession's in-place tombstones and compaction. A
//    whole campaign, session start included, is the timed operation.
//
// Campaign seeds cycle through a small fixed set, so every campaign that
// ran is checked against a serial re-drive of its round loop through the
// public calls (MakeCleaningProblem, RunPlanner, then DrawProbes ->
// CommitProbeDraws -> RefreshAll, or CleaningSession::Start ->
// ExecutePlan -> Refresh): final qualities, probe logs and round
// summaries must match bitwise, and the re-drive's final state must be a
// valid top-k answer. The traced run (--trace 1) times the same re-drive
// with spans around each call.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/pipeline.h"
#include "clean/planners.h"
#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "oracle.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "serve/protocol.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using uclean::CleaningProfile;
using uclean::CleaningSession;
using uclean::ProbabilisticDatabase;
using uclean::ProbeRecord;
using uclean::Result;
using uclean::Rng;
using uclean::SessionPool;
using uclean::Status;

constexpr size_t kSessions = 32;
constexpr int64_t kBudget = 1000;
const std::vector<size_t> kLadder = {20, 100, 500};
/// Distinct campaign seeds cycled through (campaign seed i of workload
/// seed s is SubSeed(s, base + i)); every one that ran is re-driven. A
/// pool campaign already averages 32 analysts' probe luck.
constexpr size_t kPoolCampaignSeeds = 4;
constexpr size_t kSoloCampaignSeeds = 16;
/// The tail percentile, one that a run's ~650 analyst campaigns
/// (campaign) or ~100 campaigns (solo) leave more than ten samples beyond.
double TailQuantile(bool pool) { return pool ? 0.95 : 0.8; }
/// The round cap the pipelined run and the re-drive share with the
/// adaptive loop.
const size_t kMaxRounds = uclean::AdaptiveOptions().max_rounds;

uclean::KLadder Ladder() { return uclean::KLadder::Of(kLadder).value(); }

uint64_t CampaignSeed(uint64_t seed, bool pool, size_t index) {
  return SubSeed(seed, (pool ? 2000 : 3000) + index);
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// What one campaign produced: the state the oracle compares bitwise.
struct Outcome {
  size_t rounds = 0;
  uint64_t probes = 0;  ///< probe attempts, all sessions
  /// Per session: probe log and final per-rung qualities (`campaign`).
  std::vector<std::vector<ProbeRecord>> logs;
  std::vector<std::vector<double>> qualities;
  /// Per round (spent, successes) and the final database's fingerprint
  /// (`solo`, whose report carries no probe log).
  std::vector<std::pair<int64_t, size_t>> round_spend;
  std::vector<std::vector<double>> round_qualities;
  uint64_t final_db_fp = 0;
  /// Tracer clock around a re-drive's round loop (not compared).
  int64_t begin_ns = 0, end_ns = 0;

  bool operator==(const Outcome& other) const {
    if (rounds != other.rounds || logs != other.logs ||
        round_spend != other.round_spend || final_db_fp != other.final_db_fp ||
        qualities.size() != other.qualities.size() ||
        round_qualities.size() != other.round_qualities.size()) {
      return false;
    }
    for (size_t i = 0; i < qualities.size(); ++i) {
      if (!BitwiseEqual(qualities[i], other.qualities[i])) return false;
    }
    for (size_t i = 0; i < round_qualities.size(); ++i) {
      if (!BitwiseEqual(round_qualities[i], other.round_qualities[i])) {
        return false;
      }
    }
    return true;
  }
};

uint64_t DatabaseFingerprint(const ProbabilisticDatabase& db) {
  std::vector<double> fields;
  fields.reserve(3 * db.num_tuples());
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    const uclean::Tuple& tuple = db.tuple(i);
    fields.push_back(static_cast<double>(tuple.id));
    fields.push_back(tuple.score);
    fields.push_back(tuple.prob);
  }
  return uclean::serve::HashDoubles(fields);
}

// ------------------------------------------------------------- campaign

SessionPool::Options PoolOptions() {
  SessionPool::Options options;
  options.exec.num_threads = NumCpus();
  return options;
}

std::vector<SessionPool::SessionId> OpenSessions(SessionPool* pool) {
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) ids.push_back(pool->OpenSession());
  return ids;
}

Status CloseSessions(SessionPool* pool,
                     const std::vector<SessionPool::SessionId>& ids) {
  for (SessionPool::SessionId id : ids) UCLEAN_RETURN_IF_ERROR(pool->Close(id));
  return Status::OK();
}

std::vector<Rng> SessionRngs(uint64_t campaign_seed) {
  std::vector<Rng> rngs;
  for (size_t s = 0; s < kSessions; ++s) {
    rngs.emplace_back(SubSeed(campaign_seed, s));
  }
  return rngs;
}

/// One pipelined campaign on fresh sessions, one RunPipelinedCleaning call
/// per round. Appends, per analyst, the time from the campaign's start to
/// the end of the last round in which that analyst's session probed.
///
/// A session that spent nothing in a call leaves the campaign: that is the
/// uninterrupted call's own rule for a finished session when faults are
/// off, so the calls together plan exactly what one uninterrupted call
/// plans, and no finished session is planned again.
Status RunPoolCampaign(SessionPool* pool, const CleaningProfile& profile,
                       uint64_t campaign_seed, std::vector<double>* analyst_s,
                       double* campaign_s, Outcome* outcome) {
  const std::vector<SessionPool::SessionId> ids = OpenSessions(pool);
  // The sessions still in the campaign; `active_ids`, `rngs` and
  // options.spent_so_far are positional on it.
  std::vector<size_t> active;
  for (size_t s = 0; s < kSessions; ++s) active.push_back(s);
  std::vector<SessionPool::SessionId> active_ids = ids;
  std::vector<Rng> rngs = SessionRngs(campaign_seed);
  uclean::PipelineOptions options;
  options.planner = uclean::PlannerKind::kGreedy;
  options.overlap = true;
  options.max_rounds = 1;
  options.spent_so_far.assign(kSessions, 0);
  *outcome = Outcome();
  outcome->logs.resize(kSessions);
  std::vector<double> done_s(kSessions, -1.0);
  const Clock::time_point start = Clock::now();
  while (!active.empty() && outcome->rounds < kMaxRounds) {
    Result<uclean::PipelineReport> report = uclean::RunPipelinedCleaning(
        pool, active_ids, profile, kBudget, &rngs, options);
    const double elapsed_s = SecondsSince(start);
    if (!report.ok()) return report.status();
    outcome->rounds += report->rounds;
    size_t kept = 0;
    for (size_t a = 0; a < active.size(); ++a) {
      const size_t s = active[a];
      const uclean::PipelineSessionReport& session = report->sessions[a];
      if (session.spent > 0 || done_s[s] < 0.0) done_s[s] = elapsed_s;
      outcome->logs[s].insert(outcome->logs[s].end(), session.log.begin(),
                              session.log.end());
      for (const ProbeRecord& record : session.log) {
        outcome->probes += static_cast<uint64_t>(record.attempts);
      }
      if (session.spent == 0) continue;
      active[kept] = s;
      active_ids[kept] = ids[s];
      if (kept != a) rngs[kept] = std::move(rngs[a]);
      options.spent_so_far[kept] = options.spent_so_far[a] + session.spent;
      ++kept;
    }
    active.resize(kept);
    active_ids.resize(kept);
    rngs.erase(rngs.begin() + static_cast<std::ptrdiff_t>(kept), rngs.end());
    options.spent_so_far.resize(kept);
  }
  *campaign_s = SecondsSince(start);
  for (size_t s = 0; s < kSessions; ++s) {
    std::vector<double> qualities;
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      qualities.push_back(pool->quality(ids[s], rung));
    }
    outcome->qualities.push_back(std::move(qualities));
  }
  analyst_s->insert(analyst_s->end(), done_s.begin(), done_s.end());
  return CloseSessions(pool, ids);
}

/// The same campaign re-driven serially through the round loop's public
/// calls, in spans when `tracer` is on. Checks the final state's validity.
Status RedrivePoolCampaign(SessionPool* pool, const CleaningProfile& profile,
                           uint64_t campaign_seed, Tracer* tracer,
                           Outcome* outcome, Tally* tally) {
  const std::vector<SessionPool::SessionId> ids = OpenSessions(pool);
  std::vector<Rng> rngs = SessionRngs(campaign_seed);
  *outcome = Outcome();
  outcome->logs.resize(kSessions);
  std::vector<int64_t> remaining(kSessions, kBudget);
  std::vector<bool> done(kSessions, false);
  std::vector<std::optional<uclean::ProbeDraws>> draws(kSessions);
  const uint32_t none = Tracer::kNoParent;
  outcome->begin_ns = tracer->NowNs();
  for (size_t round = 0; round < kMaxRounds; ++round) {
    bool submitted = false;
    for (size_t s = 0; s < kSessions; ++s) {
      draws[s].reset();
      if (done[s] || remaining[s] <= 0) continue;
      Result<uclean::CleaningProblem> problem =
          tracer->Time("clean.problem", none, s, [&] {
            return uclean::MakeCleaningProblem(pool->tps(ids[s]), {}, profile,
                                               remaining[s]);
          });
      if (!problem.ok()) return problem.status();
      Result<uclean::CleaningPlan> plan =
          tracer->Time("clean.planner", none, s, [&] {
            return uclean::RunPlanner(uclean::PlannerKind::kGreedy, *problem,
                                      &rngs[s]);
          });
      if (!plan.ok()) return plan.status();
      if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) {
        done[s] = true;
        continue;
      }
      Result<uclean::ProbeDraws> drawn =
          tracer->Time("clean.agent.draw", none, s, [&] {
            return uclean::DrawProbes(pool->overlay(ids[s]), profile,
                                      plan->probes, &rngs[s]);
          });
      if (!drawn.ok()) return drawn.status();
      draws[s].emplace(std::move(drawn).value());
      submitted = true;
    }
    if (!submitted) break;
    ++outcome->rounds;
    bool progressed = false;
    for (size_t s = 0; s < kSessions; ++s) {
      if (!draws[s]) continue;
      UCLEAN_RETURN_IF_ERROR(tracer->Time("clean.agent.commit", none, s, [&] {
        return uclean::CommitProbeDraws(pool, ids[s], *draws[s]);
      }));
      const uclean::SessionExecutionReport& report = draws[s]->report;
      outcome->logs[s].insert(outcome->logs[s].end(), report.log.begin(),
                              report.log.end());
      for (const ProbeRecord& record : report.log) {
        outcome->probes += static_cast<uint64_t>(record.attempts);
      }
      if (report.spent == 0) {
        done[s] = true;
        continue;
      }
      remaining[s] -= report.spent;
      progressed = true;
    }
    UCLEAN_RETURN_IF_ERROR(tracer->Time("clean.pool.refresh_all", none,
                                        Tracer::kNoRequest,
                                        [&] { return pool->RefreshAll(); }));
    if (!progressed) break;
  }
  outcome->end_ns = tracer->NowNs();
  for (size_t s = 0; s < kSessions; ++s) {
    std::vector<double> qualities;
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      qualities.push_back(pool->quality(ids[s], rung));
      const std::string violation = AnswerViolation(
          pool->psr(ids[s], rung), kLadder[rung], qualities.back());
      if (!violation.empty()) {
        tally->Fail("campaign session " + std::to_string(s) + ": " + violation);
      }
    }
    outcome->qualities.push_back(std::move(qualities));
  }
  return CloseSessions(pool, ids);
}

// ----------------------------------------------------------------- solo

uclean::AdaptiveOptions SoloOptions() {
  uclean::AdaptiveOptions options;
  options.k_ladder = kLadder;
  options.planner = uclean::PlannerKind::kGreedy;
  options.exec.num_threads = 1;
  return options;
}

CleaningSession::Options SessionOptions() {
  CleaningSession::Options options;
  options.exec.num_threads = 1;
  return options;
}

Status RunSoloCampaign(const ProbabilisticDatabase& db,
                       const CleaningProfile& profile, uint64_t campaign_seed,
                       double* campaign_s, Outcome* outcome) {
  ProbabilisticDatabase copy(db);
  Rng rng(campaign_seed);
  const Clock::time_point t0 = Clock::now();
  Result<uclean::AdaptiveReport> report = uclean::RunAdaptiveCleaning(
      std::move(copy), profile, kBudget, SoloOptions(), &rng);
  *campaign_s = SecondsSince(t0);
  if (!report.ok()) return report.status();
  *outcome = Outcome();
  outcome->rounds = report->rounds.size();
  for (const uclean::AdaptiveRound& round : report->rounds) {
    outcome->round_spend.emplace_back(round.spent, round.successes);
    outcome->round_qualities.push_back(round.quality_after_per_k);
  }
  outcome->qualities.push_back(report->final_quality_per_k);
  outcome->final_db_fp = DatabaseFingerprint(report->final_db);
  return Status::OK();
}

/// RunAdaptiveCleaning's loop re-driven through CleaningSession::Start,
/// MakeCleaningProblem, RunPlanner, ExecutePlan, Refresh and TakeDatabase.
/// The final database is then scanned from scratch: the scan must be a
/// valid answer whose qualities agree with the session's maintained ones.
Status RedriveSoloCampaign(const ProbabilisticDatabase& db,
                           const CleaningProfile& profile,
                           uint64_t campaign_seed, Tracer* tracer,
                           Outcome* outcome, Tally* tally) {
  const uint32_t none = Tracer::kNoParent;
  const uint64_t request = Tracer::kNoRequest;
  Rng rng(campaign_seed);
  ProbabilisticDatabase copy(db);
  *outcome = Outcome();
  outcome->begin_ns = tracer->NowNs();
  Result<CleaningSession> session =
      tracer->Time("clean.session.start", none, request, [&] {
        return CleaningSession::Start(std::move(copy), Ladder(),
                                      SessionOptions());
      });
  if (!session.ok()) return session.status();
  int64_t remaining = kBudget;
  for (size_t round = 0; round < kMaxRounds && remaining > 0; ++round) {
    Result<uclean::CleaningProblem> problem =
        tracer->Time("clean.problem", none, request, [&] {
          return uclean::MakeCleaningProblem(session->tps(), {}, profile,
                                             remaining);
        });
    if (!problem.ok()) return problem.status();
    Result<uclean::CleaningPlan> plan =
        tracer->Time("clean.planner", none, request, [&] {
          return uclean::RunPlanner(uclean::PlannerKind::kGreedy, *problem,
                                    &rng);
        });
    if (!plan.ok()) return plan.status();
    if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) break;
    Result<uclean::SessionExecutionReport> executed =
        tracer->Time("clean.agent.execute", none, request, [&] {
          return uclean::ExecutePlan(&*session, profile, plan->probes, &rng);
        });
    if (!executed.ok()) return executed.status();
    if (executed->spent == 0) break;
    UCLEAN_RETURN_IF_ERROR(tracer->Time("clean.session.refresh", none, request,
                                        [&] { return session->Refresh(); }));
    remaining -= executed->spent;
    ++outcome->rounds;
    outcome->round_spend.emplace_back(executed->spent, executed->successes);
    std::vector<double> qualities;
    for (size_t rung = 0; rung < session->num_rungs(); ++rung) {
      qualities.push_back(session->quality(rung));
    }
    outcome->round_qualities.push_back(std::move(qualities));
    for (const ProbeRecord& record : executed->log) {
      outcome->probes += static_cast<uint64_t>(record.attempts);
    }
  }
  std::vector<double> final_quality;
  for (size_t rung = 0; rung < session->num_rungs(); ++rung) {
    final_quality.push_back(session->quality(rung));
  }
  const ProbabilisticDatabase final_db =
      tracer->Time("clean.session.take", none, request,
                   [&] { return std::move(*session).TakeDatabase(); });
  outcome->end_ns = tracer->NowNs();
  outcome->qualities.push_back(final_quality);
  outcome->final_db_fp = DatabaseFingerprint(final_db);

  Result<uclean::ScanRequest> scan_request =
      uclean::ScanRequest::ForLadder(kLadder);
  if (!scan_request.ok()) return scan_request.status();
  Result<uclean::ScanResult> scan =
      uclean::ComputePsrLadder(final_db, *scan_request);
  if (!scan.ok()) return scan.status();
  for (size_t rung = 0; rung < kLadder.size(); ++rung) {
    Result<uclean::TpOutput> tp =
        uclean::ComputeTpQuality(final_db, scan->output(rung));
    if (!tp.ok()) return tp.status();
    std::string violation =
        AnswerViolation(scan->output(rung), kLadder[rung], tp->quality);
    const double maintained = final_quality[rung];
    if (violation.empty() &&
        std::abs(tp->quality - maintained) > 1e-9 * std::abs(maintained)) {
      violation = "maintained quality " + JsonNumber(maintained) +
                  " != rescanned " + JsonNumber(tp->quality) + " at k=" +
                  std::to_string(kLadder[rung]);
    }
    if (!violation.empty()) tally->Fail("solo final database: " + violation);
  }
  return Status::OK();
}

// ------------------------------------------------------------- workload

struct CampaignSetup {
  bool pool = false;
  Inputs inputs;
  std::vector<double> setup_s, create_ms;
};

/// One timed set-up from the in-memory inputs to sessions open; returns
/// the seconds it timed. `campaign`: pool create + 32 session opens, the
/// pool left in `*pool`. `solo`: CleaningSession::Start, which
/// RunAdaptiveCleaning runs before its first round; the session is
/// dropped. No file is read: both workloads receive the database in
/// memory, and a CSV read's time proved too unsteady to compare (see
/// perfbench/README.md).
Result<double> SetupOnce(CampaignSetup* setup, Tracer* tracer,
                         std::optional<SessionPool>* pool) {
  const uint32_t none = Tracer::kNoParent;
  const uint64_t request = Tracer::kNoRequest;
  if (setup->pool) {
    ProbabilisticDatabase copy(setup->inputs.db);
    const Clock::time_point t0 = Clock::now();
    Result<SessionPool> created =
        tracer->Time("clean.pool.create", none, request, [&] {
          return SessionPool::Create(std::move(copy), Ladder(), PoolOptions());
        });
    if (!created.ok()) return created.status();
    setup->create_ms.push_back(1e3 * SecondsSince(t0));
    pool->emplace(std::move(created).value());
    const std::vector<SessionPool::SessionId> ids = OpenSessions(&**pool);
    setup->setup_s.push_back(SecondsSince(t0));
    UCLEAN_RETURN_IF_ERROR(CloseSessions(&**pool, ids));
    return setup->setup_s.back();
  }
  ProbabilisticDatabase copy(setup->inputs.db);
  const Clock::time_point t0 = Clock::now();
  Result<CleaningSession> session =
      tracer->Time("clean.session.start", none, request, [&] {
        return CleaningSession::Start(std::move(copy), Ladder(),
                                      SessionOptions());
      });
  if (!session.ok()) return session.status();
  setup->setup_s.push_back(SecondsSince(t0));
  return setup->setup_s.back();
}

/// What a sequence of campaigns measured.
struct CampaignLog {
  std::vector<double> op_s;        ///< one analyst's campaign, start to done
  std::vector<double> campaign_s;  ///< whole campaigns
  uint64_t rounds = 0;
  std::vector<std::optional<Outcome>> first;  ///< by distinct seed index
};

/// Runs campaigns, cycling through `seeds` distinct campaign seeds, until
/// they have taken `measure_s` between them, or exactly `seeds` of them
/// when there is no `measure_s`. Every campaign must repeat the outcome
/// of the first one with its seed. `slices`, if any, run between
/// campaigns.
Status RunCampaignLoop(const Args& args, const CampaignSetup& setup,
                       SessionPool* pool, size_t seeds,
                       std::optional<double> measure_s, SetupSlices* slices,
                       CampaignLog* log, Tally* tally) {
  log->first.resize(seeds);
  double busy_s = 0.0;
  for (size_t c = 0; measure_s ? busy_s < *measure_s : c < seeds; ++c) {
    const size_t index = c % seeds;
    const uint64_t campaign_seed = CampaignSeed(args.seed, setup.pool, index);
    Outcome outcome;
    double campaign_s = 0.0;
    if (setup.pool) {
      UCLEAN_RETURN_IF_ERROR(RunPoolCampaign(pool, setup.inputs.profile,
                                             campaign_seed, &log->op_s,
                                             &campaign_s, &outcome));
    } else {
      UCLEAN_RETURN_IF_ERROR(RunSoloCampaign(setup.inputs.db,
                                             setup.inputs.profile,
                                             campaign_seed, &campaign_s,
                                             &outcome));
      log->op_s.push_back(campaign_s);
    }
    log->campaign_s.push_back(campaign_s);
    busy_s += campaign_s;
    log->rounds += outcome.rounds;
    tally->Attempt();
    if (!log->first[index]) {
      log->first[index] = std::move(outcome);
    } else if (!(outcome == *log->first[index])) {
      tally->Fail("campaign seed " + std::to_string(index) +
                  " did not repeat its own outcome");
    }
    if (slices != nullptr) UCLEAN_RETURN_IF_ERROR(slices->Poll(busy_s));
  }
  return Status::OK();
}

Status Redrive(const Args& args, const CampaignSetup& setup, SessionPool* pool,
               size_t index, Tracer* tracer, Outcome* outcome, Tally* tally) {
  const uint64_t campaign_seed = CampaignSeed(args.seed, setup.pool, index);
  return setup.pool ? RedrivePoolCampaign(pool, setup.inputs.profile,
                                          campaign_seed, tracer, outcome, tally)
                    : RedriveSoloCampaign(setup.inputs.db,
                                          setup.inputs.profile, campaign_seed,
                                          tracer, outcome, tally);
}

/// Re-drives every distinct seed that ran and compares outcomes.
Status CheckAgainstRedrive(const Args& args, const CampaignSetup& setup,
                           SessionPool* pool, const CampaignLog& log,
                           Tally* tally) {
  Tracer off(false);
  for (size_t index = 0; index < log.first.size(); ++index) {
    if (!log.first[index]) continue;
    Outcome redriven;
    tally->Attempt();
    UCLEAN_RETURN_IF_ERROR(
        Redrive(args, setup, pool, index, &off, &redriven, tally));
    if (!(redriven == *log.first[index])) {
      tally->Fail("campaign seed " + std::to_string(index) +
                  ": the re-driven round loop does not reproduce the "
                  "campaign's qualities and probe logs");
    }
  }
  return Status::OK();
}

/// --trace 1: one campaign per distinct seed runs as the untraced run runs
/// it, then is re-driven without and with spans. Shares, coverage and overhead are
/// taken over the re-drives' round loops, not their validity checks.
Status RunTraced(const Args& args, const CampaignSetup& setup,
                 SessionPool* pool, Tracer* tracer, RunResult* result) {
  const size_t seeds = setup.pool ? kPoolCampaignSeeds : kSoloCampaignSeeds;
  CampaignLog pipelined;
  UCLEAN_RETURN_IF_ERROR(RunCampaignLoop(args, setup, pool, seeds,
                                         std::nullopt, nullptr, &pipelined,
                                         &result->tally));
  Tracer off(false);
  double plain_ns = 0.0, wall_ns = 0.0, covered_ns = 0.0;
  uint64_t probes = 0, rounds = 0;
  std::vector<Outcome> plain(seeds), traced(seeds);
  for (size_t index = 0; index < seeds; ++index) {
    UCLEAN_RETURN_IF_ERROR(Redrive(args, setup, pool, index, &off,
                                   &plain[index], &result->tally));
    plain_ns += static_cast<double>(plain[index].end_ns - plain[index].begin_ns);
  }
  const int64_t begin_ns = tracer->NowNs();
  for (size_t index = 0; index < seeds; ++index) {
    Outcome& outcome = traced[index];
    UCLEAN_RETURN_IF_ERROR(Redrive(args, setup, pool, index, tracer, &outcome,
                                   &result->tally));
    const double window_ns = static_cast<double>(outcome.end_ns - outcome.begin_ns);
    wall_ns += window_ns;
    covered_ns += window_ns * tracer->Coverage(outcome.begin_ns, outcome.end_ns);
    probes += outcome.probes;
    rounds += outcome.rounds;
  }
  const int64_t end_ns = tracer->NowNs();
  for (size_t index = 0; index < seeds; ++index) {
    result->tally.Attempt(2);
    if (!(plain[index] == *pipelined.first[index])) {
      result->tally.Fail("campaign seed " + std::to_string(index) +
                         ": the re-drive does not reproduce the campaign");
    }
    if (!(traced[index] == plain[index])) {
      result->tally.Fail("campaign seed " + std::to_string(index) +
                         ": the traced re-drive differs from the untraced");
    }
  }

  // Per call of each span; the detail's name carries its unit.
  struct SpanMetric {
    const char* span;
    const char* detail;
    bool in_ms;
  };
  std::vector<SpanMetric> span_metrics = {
      {"clean.problem", "clean.problem_us", false},
      {"clean.planner", "clean.planner_us", false}};
  if (setup.pool) {
    span_metrics.insert(span_metrics.end(),
                        {{"clean.agent.draw", "clean.agent.draw_us", false},
                         {"clean.agent.commit", "clean.agent.commit_us", false},
                         {"clean.pool.refresh_all", "clean.pool.refresh_all_ms",
                          true}});
  } else {
    span_metrics.insert(
        span_metrics.end(),
        {{"clean.session.start", "clean.session.start_ms", true},
         {"clean.agent.execute", "clean.agent.execute_us", false},
         {"clean.session.refresh", "clean.session.refresh_us", false},
         {"clean.session.take", "clean.session.take_ms", true}});
  }
  LayerValues values;
  double spans_ns = 0.0;
  for (const SpanMetric& metric : span_metrics) {
    const auto [ns, count] = tracer->Total(metric.span, begin_ns, end_ns);
    spans_ns += ns;
    values.Share(metric.span, ns / wall_ns);
    values.Detail(metric.detail,
                  ns / static_cast<double>(std::max<size_t>(count, 1)) /
                      (metric.in_ms ? 1e6 : 1e3),
                  metric.in_ms ? "ms" : "us");
  }
  values.Set("clean.probes", static_cast<double>(probes));
  values.Set("clean.rounds", static_cast<double>(rounds));
  if (setup.pool) {
    double pipelined_s = 0.0;
    for (double s : pipelined.campaign_s) pipelined_s += s;
    values.Set("clean.pipeline.overlap", 1e-9 * spans_ns / pipelined_s);
    values.Detail("clean.pool.create_ms", Median(setup.create_ms), "ms");
  }
  values.Set("trace.overhead", wall_ns / plain_ns);
  values.Set("trace.coverage", covered_ns / wall_ns);
  result->Note("traced_campaigns", std::to_string(seeds));
  return values.Emit(result);
}

}  // namespace

Status RunCampaigns(const Args& args, RunResult* result) {
  CampaignSetup setup;
  setup.pool = args.workload == "campaign";
  Result<Inputs> inputs = MakeInputs(args.seed);
  if (!inputs.ok()) return inputs.status();
  setup.inputs = std::move(inputs).value();

  // The first set-up's pool runs the campaigns; the slices' are dropped.
  Tracer tracer(args.trace);
  std::optional<SessionPool> pool;
  const Result<double> first_setup = SetupOnce(&setup, &tracer, &pool);
  if (!first_setup.ok()) return first_setup.status();
  SessionPool* pool_ptr = pool ? &*pool : nullptr;
  SetupSlices slices(
      [&]() -> Result<double> {
        std::optional<SessionPool> dropped;
        return SetupOnce(&setup, &tracer, &dropped);
      },
      args.seconds);

  if (args.trace) {
    UCLEAN_RETURN_IF_ERROR(slices.Finish());
    UCLEAN_RETURN_IF_ERROR(RunTraced(args, setup, pool_ptr, &tracer, result));
    UCLEAN_RETURN_IF_ERROR(WriteSpans(args, tracer, result));
  } else {
    const size_t seeds = setup.pool ? kPoolCampaignSeeds : kSoloCampaignSeeds;
    // One untimed campaign of the first seed first, so first-touch page
    // faults of the campaign state stay out of the samples.
    CampaignLog warmup, log;
    UCLEAN_RETURN_IF_ERROR(RunCampaignLoop(args, setup, pool_ptr, 1,
                                           std::nullopt, nullptr, &warmup,
                                           &result->tally));
    UCLEAN_RETURN_IF_ERROR(RunCampaignLoop(args, setup, pool_ptr, seeds,
                                           args.seconds, &slices, &log,
                                           &result->tally));
    UCLEAN_RETURN_IF_ERROR(slices.Finish());
    const double peak_rss = PeakRssMb();
    if (!(*warmup.first[0] == *log.first[0])) {
      result->tally.Fail("campaign seed 0 did not repeat its warm-up outcome");
    }
    UCLEAN_RETURN_IF_ERROR(
        CheckAgainstRedrive(args, setup, pool_ptr, log, &result->tally));
    const double tail_q = TailQuantile(setup.pool);
    RequireTailSamples(log.op_s.size(), tail_q, &result->tally);
    double busy_s = 0.0;
    for (double s : log.campaign_s) busy_s += s;
    std::vector<double> op_ms;
    for (double s : log.op_s) op_ms.push_back(1e3 * s);
    result->Add("setup_s", Median(setup.setup_s), "s");
    result->Add("ops_per_s", static_cast<double>(log.op_s.size()) / busy_s,
                "1/s");
    result->Add("p50_ms", Median(op_ms), "ms");
    result->Add("tail_ms", Percentile(op_ms, tail_q), "ms");
    result->Add("peak_rss_mb", peak_rss, "MB");
    result->Detail("campaign_s", Median(log.campaign_s), "s");
    result->Detail("campaigns", static_cast<double>(log.campaign_s.size()),
                   "count");
    result->Detail("rounds", static_cast<double>(log.rounds), "count");
    result->Note("op", JsonString(setup.pool ? "one analyst's campaign in a "
                                               "pool campaign of 32"
                                             : "one whole campaign"));
    result->Note("op_samples", std::to_string(log.op_s.size()));
  }

  result->Note("setup_repeats", std::to_string(setup.setup_s.size()));
  result->Note("tail_quantile", JsonNumber(TailQuantile(setup.pool)));
  result->Note("pool_threads",
               std::to_string(setup.pool ? pool->exec().num_threads : 1));
  result->Note("ladder", JsonString(Ladder().ToString()));
  result->Note("request_mix",
               JsonString(std::string(setup.pool ? "32 sessions" : "1 session") +
                          " x budget " + std::to_string(kBudget) +
                          ", greedy planner, zero probe latency, " +
                          std::to_string(setup.pool ? kPoolCampaignSeeds
                                                    : kSoloCampaignSeeds) +
                          " campaign seeds cycled"));
  result->Note("connections", "0");
  return Status::OK();
}

}  // namespace perfbench
