// Pipelined-vs-serial equivalence for the pipelined cleaning round
// (clean/pipeline.h + the draw/commit split in clean/agent.h):
//
//  * a full pipelined campaign (every session's plan + draw step on
//    workers) must leave every session's quality, probe log, overlay
//    outcomes and Rng ENGINE STATE bitwise equal to the serial loop, for
//    every planner, fault-free and faulted,
//  * under seeded shuffles of COMPLETION order (per-session latency
//    jitter permutes which step finishes first -- the schedule the
//    determinism claim must be independent of),
//  * the draw/commit split itself must consume exactly the random
//    stream the inline ExecutePlan forms consume,
//  * and a one-session campaign must commit what RunAdaptiveCleaning
//    commits: the same final database, qualities, spend and fault
//    counters (the CLI's `clean --adaptive` rests on this).
//
// The pipelined arms run on a real multi-thread executor, so this test is
// also the TSan workload for the pipelined round (CI runs it under
// -fsanitize=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/pipeline.h"
#include "clean/planners.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "rank/psr.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

using std::chrono::microseconds;

constexpr uint64_t kRngBase = 1000;

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

ProbabilisticDatabase MakeDb(size_t xtuples = 600) {
  SyntheticOptions opts;
  opts.num_xtuples = xtuples;
  opts.tuples_per_xtuple = 5;
  opts.real_mass_min = 0.7;  // sub-unit masses: null outcomes occur too
  opts.real_mass_max = 1.0;
  opts.seed = 20260728;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

CleaningProfile MakeProfile(size_t xtuples) {
  CleaningProfileOptions opts;
  opts.sc_pdf = ScPdf::Uniform(0.2, 0.9);  // several attempts per success
  opts.seed = 77;
  Result<CleaningProfile> profile = GenerateCleaningProfile(xtuples, opts);
  UCLEAN_CHECK(profile.ok());
  return std::move(profile).value();
}

/// Everything a campaign leaves behind that the equivalence claim covers.
struct CampaignResult {
  PipelineReport report;
  /// quality[s][rung] read back from the pool after the run.
  std::vector<std::vector<double>> quality;
  /// Each session's overlay outcome record (xtuple, resolved id), order
  /// included.
  std::vector<std::vector<std::pair<XTupleId, TupleId>>> outcomes;
  /// Final Rng engine states -- the strictest stream fingerprint: equal
  /// engines mean the two runs drew EXACTLY the same randomness.
  std::vector<std::mt19937_64> engines;
};

CampaignResult RunCampaign(const ProbabilisticDatabase& db,
                           const KLadder& ladder,
                           const CleaningProfile& profile, size_t sessions,
                           int64_t budget, size_t threads, bool overlap,
                           std::vector<microseconds> jitter = {},
                           FaultOptions fault = {},
                           PlannerKind planner = PlannerKind::kGreedy) {
  SessionPool::Options pool_options;
  pool_options.exec.num_threads = threads;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, pool_options);
  UCLEAN_CHECK(pool.ok());

  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  for (size_t s = 0; s < sessions; ++s) {
    ids.push_back(pool->OpenSession());
    rngs.emplace_back(kRngBase + s);
  }

  PipelineOptions options;
  options.planner = planner;
  options.overlap = overlap;
  options.max_rounds = 4;
  options.session_latency_jitter = std::move(jitter);
  options.fault = fault;
  Result<PipelineReport> report =
      RunPipelinedCleaning(&*pool, ids, profile, budget, &rngs, options);
  UCLEAN_CHECK(report.ok());

  CampaignResult result;
  result.report = std::move(report).value();
  for (size_t s = 0; s < sessions; ++s) {
    std::vector<double> quality;
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      quality.push_back(pool->quality(ids[s], rung));
    }
    result.quality.push_back(std::move(quality));
    result.outcomes.push_back(pool->overlay(ids[s]).outcomes());
    result.engines.push_back(rngs[s].engine());
  }
  return result;
}

/// The equivalence oracle: every observable of `a` and `b` must be
/// BITWISE equal (exact ==, not a tolerance -- both runs must execute the
/// same arithmetic on the same operands in the same order).
void ExpectCampaignsIdentical(const CampaignResult& a,
                              const CampaignResult& b) {
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  ASSERT_EQ(a.report.sessions.size(), b.report.sessions.size());
  for (size_t s = 0; s < a.report.sessions.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    const PipelineSessionReport& sa = a.report.sessions[s];
    const PipelineSessionReport& sb = b.report.sessions[s];
    EXPECT_EQ(sa.spent, sb.spent);
    EXPECT_EQ(sa.leftover, sb.leftover);
    EXPECT_EQ(sa.successes, sb.successes);
    EXPECT_EQ(sa.rounds, sb.rounds);
    EXPECT_EQ(sa.log, sb.log);
    EXPECT_TRUE(sa.faults == sb.faults)
        << "session " << s << " recorded different fault counters";
    ASSERT_EQ(sa.final_quality.size(), sb.final_quality.size());
    for (size_t rung = 0; rung < sa.final_quality.size(); ++rung) {
      EXPECT_EQ(sa.final_quality[rung], sb.final_quality[rung]);
    }
    EXPECT_EQ(a.quality[s], b.quality[s]);
    EXPECT_EQ(a.outcomes[s], b.outcomes[s]);
    EXPECT_TRUE(a.engines[s] == b.engines[s])
        << "session " << s << " drew a different random stream";
  }
}

FaultOptions TransientFaults(double fail_rate) {
  FaultOptions fault;
  fault.enabled = true;
  fault.profile.fail_rate = fail_rate;
  fault.seed = 4242;
  return fault;
}

TEST(PipelineTest, PipelinedMatchesSerialSameExecutor) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({5, 20});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  // Same 4-thread executor both arms: the only difference is WHERE each
  // session plans and draws, so every observable must be bitwise equal.
  // The randomized planners draw from each session's Rng on a worker.
  // Every probe waits 100 + 50 s us, so the sessions' steps overlap in
  // time in every build, not only under a sanitizer's slowdown: a step
  // that read another session's state would race with it here.
  std::vector<microseconds> latency;
  for (size_t s = 0; s < 6; ++s) latency.push_back(microseconds(100 + 50 * s));
  for (PlannerKind planner : {PlannerKind::kGreedy, PlannerKind::kDp,
                              PlannerKind::kRandP, PlannerKind::kRandU}) {
    for (const FaultOptions& fault : {FaultOptions(), TransientFaults(0.2)}) {
      SCOPED_TRACE(std::string(PlannerKindName(planner)) + " fail rate " +
                   std::to_string(fault.profile.fail_rate));
      CampaignResult serial = RunCampaign(db, ladder, profile, 6, 60, 4,
                                          /*overlap=*/false, latency, fault,
                                          planner);
      CampaignResult pipelined = RunCampaign(db, ladder, profile, 6, 60, 4,
                                             /*overlap=*/true, latency, fault,
                                             planner);
      ExpectCampaignsIdentical(serial, pipelined);
      // The campaign must have actually cleaned something, or the test
      // compares two no-ops.
      EXPECT_GT(pipelined.report.rounds, 0u);
      EXPECT_GT(pipelined.report.sessions[0].spent, 0);
    }
  }
}

TEST(PipelineTest, PipelinedMatchesSequentialReference) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({5, 20});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  // Strictly sequential reference (1 thread, inline draws) vs the full
  // pipelined path: the sharded-scan grid keeps even cross-thread-count
  // state bitwise equal.
  CampaignResult reference =
      RunCampaign(db, ladder, profile, 6, 60, 1, /*overlap=*/false);
  CampaignResult pipelined =
      RunCampaign(db, ladder, profile, 6, 60, 4, /*overlap=*/true);
  ExpectCampaignsIdentical(reference, pipelined);
}

TEST(PipelineTest, CompletionOrderShufflesAreInvisible) {
  const ProbabilisticDatabase db = MakeDb(300);
  const KLadder ladder = MakeLadder({10});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  const size_t sessions = 5;
  const CampaignResult reference =
      RunCampaign(db, ladder, profile, sessions, 40, 4, /*overlap=*/false);

  // Seeded shuffles of per-session latency permute which batch COMPLETES
  // first (the last-submitted batch can finish long before the first);
  // no schedule may leak into any session's state.
  std::vector<microseconds> jitter;
  for (size_t s = 0; s < sessions; ++s) {
    jitter.push_back(microseconds(150 * s));
  }
  for (uint32_t trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::mt19937 shuffle_rng(trial);
    std::shuffle(jitter.begin(), jitter.end(), shuffle_rng);
    CampaignResult shuffled = RunCampaign(db, ladder, profile, sessions, 40,
                                          4, /*overlap=*/true, jitter);
    ExpectCampaignsIdentical(reference, shuffled);
  }
}

TEST(PipelineTest, FaultedPipelinedMatchesSerial) {
  // The determinism keystone under load: at a 20% transient-failure rate
  // the per-session injectors (seeded fault.seed + s) draw, retry and
  // trip breakers identically whether each round's steps run inline or
  // on workers -- fault counters included.
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({5, 20});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  CampaignResult serial = RunCampaign(db, ladder, profile, 6, 60, 4,
                                      /*overlap=*/false, {},
                                      TransientFaults(0.2));
  CampaignResult pipelined = RunCampaign(db, ladder, profile, 6, 60, 4,
                                         /*overlap=*/true, {},
                                         TransientFaults(0.2));
  ExpectCampaignsIdentical(serial, pipelined);
  // The faulted regime must actually have faulted (and recovered), or
  // this is the fault-free test again.
  FaultStats total;
  for (const PipelineSessionReport& session : pipelined.report.sessions) {
    total += session.faults;
  }
  EXPECT_GT(total.FaultedAttempts(), 0);
  EXPECT_GT(pipelined.report.sessions[0].spent, 0);
}

TEST(PipelineTest, FaultedCompletionOrderShufflesAreInvisible) {
  // Faults + completion-order shuffles together: latency jitter permutes
  // which batch finishes first, but each session's fault stream is its
  // own (consumed in plan order), so no schedule can leak in.
  const ProbabilisticDatabase db = MakeDb(300);
  const KLadder ladder = MakeLadder({10});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  const size_t sessions = 5;
  const CampaignResult reference =
      RunCampaign(db, ladder, profile, sessions, 40, 4, /*overlap=*/false,
                  {}, TransientFaults(0.2));

  std::vector<microseconds> jitter;
  for (size_t s = 0; s < sessions; ++s) {
    jitter.push_back(microseconds(150 * s));
  }
  for (uint32_t trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::mt19937 shuffle_rng(trial);
    std::shuffle(jitter.begin(), jitter.end(), shuffle_rng);
    CampaignResult shuffled =
        RunCampaign(db, ladder, profile, sessions, 40, 4, /*overlap=*/true,
                    jitter, TransientFaults(0.2));
    ExpectCampaignsIdentical(reference, shuffled);
  }
}

TEST(PipelineTest, FaultRate0MatchesFaultFree) {
  // Enabling the fault layer at rate 0 must not change one bit of the
  // campaign: zero-probability draws never consume the fault engine.
  const ProbabilisticDatabase db = MakeDb(300);
  const KLadder ladder = MakeLadder({10});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  CampaignResult off =
      RunCampaign(db, ladder, profile, 4, 40, 4, /*overlap=*/true);
  CampaignResult rate0 = RunCampaign(db, ladder, profile, 4, 40, 4,
                                     /*overlap=*/true, {},
                                     TransientFaults(0.0));
  ExpectCampaignsIdentical(off, rate0);
  for (const PipelineSessionReport& session : rate0.report.sessions) {
    EXPECT_TRUE(session.faults == FaultStats());
  }
}

TEST(PipelineTest, DrawCommitMatchesInlineExecutePlan) {
  const ProbabilisticDatabase db = MakeDb(200);
  const KLadder ladder = MakeLadder({8});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId inline_id = pool->OpenSession();
  const SessionPool::SessionId split_id = pool->OpenSession();

  // A plan probing a spread of x-tuples a few times each.
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  for (size_t l = 0; l < probes.size(); l += 7) probes[l] = 2;

  Rng inline_rng(42), split_rng(42);
  Result<SessionExecutionReport> executed =
      ExecutePlan(&*pool, inline_id, profile, probes, &inline_rng);
  ASSERT_TRUE(executed.ok());

  Result<ProbeDraws> draws =
      DrawProbes(pool->overlay(split_id), profile, probes, &split_rng);
  ASSERT_TRUE(draws.ok());
  // The draw phase is pure: nothing applied yet, session still clean.
  EXPECT_EQ(pool->overlay(split_id).num_outcomes(), 0u);
  EXPECT_FALSE(pool->dirty(split_id));
  ASSERT_TRUE(CommitProbeDraws(&*pool, split_id, *draws).ok());

  EXPECT_EQ(executed->spent, draws->report.spent);
  EXPECT_EQ(executed->leftover, draws->report.leftover);
  EXPECT_EQ(executed->successes, draws->report.successes);
  EXPECT_EQ(executed->log, draws->report.log);
  EXPECT_TRUE(inline_rng.engine() == split_rng.engine());
  EXPECT_EQ(pool->overlay(inline_id).outcomes(),
            pool->overlay(split_id).outcomes());
}

TEST(PipelineTest, OneSessionPoolMatchesRunAdaptiveCleaning) {
  // `clean --adaptive` runs a one-session pipelined campaign, which must
  // commit what RunAdaptiveCleaning (the single-analyst loop) commits for
  // every planner, ladder shape and fault regime the CLI can ask for, at
  // any thread count, inline or overlapped.
  const ProbabilisticDatabase db = MakeDb(300);
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  FaultOptions faulted = TransientFaults(0.3);
  faulted.breaker.threshold = 2;
  size_t max_rounds_seen = 0;
  FaultStats faults_seen;
  for (const std::vector<size_t>& ks :
       {std::vector<size_t>{10}, std::vector<size_t>{5, 20, 40}}) {
    for (PlannerKind planner :
         {PlannerKind::kGreedy, PlannerKind::kDp, PlannerKind::kRandP}) {
      for (const FaultOptions& fault : {FaultOptions(), faulted}) {
        for (int64_t budget : {40, 150, 400}) {
          SCOPED_TRACE(MakeLadder(ks).ToString() + " " +
                       PlannerKindName(planner) + " fail rate " +
                       std::to_string(fault.profile.fail_rate) +
                       " budget " + std::to_string(budget));
          AdaptiveOptions adaptive;
          adaptive.k_ladder = ks;
          adaptive.planner = planner;
          adaptive.fault = fault;
          Rng rng(kRngBase);
          Result<AdaptiveReport> expected =
              RunAdaptiveCleaning(db, profile, budget, adaptive, &rng);
          ASSERT_TRUE(expected.ok()) << expected.status();
          max_rounds_seen = std::max(max_rounds_seen, expected->rounds.size());
          faults_seen += expected->faults;

          for (size_t threads : {1, 4}) {
            for (bool overlap : {false, true}) {
              SCOPED_TRACE(std::to_string(threads) + " threads, overlap " +
                           std::to_string(overlap));
              SessionPool::Options pool_options;
              pool_options.exec.num_threads = threads;
              Result<SessionPool> pool = SessionPool::Create(
                  ProbabilisticDatabase(db), MakeLadder(ks), pool_options);
              ASSERT_TRUE(pool.ok());
              const std::vector<SessionPool::SessionId> ids = {
                  pool->OpenSession()};
              std::vector<Rng> rngs;
              rngs.emplace_back(kRngBase);
              PipelineOptions options;
              options.planner = planner;
              options.overlap = overlap;
              options.fault = fault;
              Result<PipelineReport> report = RunPipelinedCleaning(
                  &*pool, ids, profile, budget, &rngs, options);
              ASSERT_TRUE(report.ok()) << report.status();

              const PipelineSessionReport& session = report->sessions[0];
              EXPECT_EQ(session.spent, expected->total_spent);
              EXPECT_EQ(session.final_quality, expected->final_quality_per_k);
              EXPECT_TRUE(session.faults == expected->faults);
              EXPECT_TRUE(rngs[0].engine() == rng.engine());
              Result<ProbabilisticDatabase> merged =
                  pool->CloseAndMerge(ids[0]);
              ASSERT_TRUE(merged.ok());
              ASSERT_EQ(merged->num_tuples(), expected->final_db.num_tuples());
              for (size_t i = 0; i < merged->num_tuples(); ++i) {
                const Tuple& a = merged->tuple(i);
                const Tuple& b = expected->final_db.tuple(i);
                EXPECT_EQ(a.id, b.id) << "rank " << i;
                EXPECT_EQ(a.xtuple, b.xtuple) << "rank " << i;
                EXPECT_EQ(a.score, b.score) << "rank " << i;
                EXPECT_EQ(a.prob, b.prob) << "rank " << i;
                EXPECT_EQ(a.is_null, b.is_null) << "rank " << i;
              }
            }
          }
        }
      }
    }
  }
  // The budgets must drive multi-round campaigns and the faulted runs
  // must fail probes and trip breakers, or this compares one-round,
  // fault-free plans only.
  EXPECT_GE(max_rounds_seen, 3u);
  EXPECT_GT(faults_seen.failed_probes, 0);
  EXPECT_GT(faults_seen.breaker_skips, 0);
}

TEST(PipelineTest, ValidationErrors) {
  const ProbabilisticDatabase db = MakeDb(100);
  const KLadder ladder = MakeLadder({5});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();
  std::vector<SessionPool::SessionId> ids = {id};
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  Rng rng(1);

  // DrawProbes: size mismatch / null rng; CommitProbeDraws: closed
  // session.
  const DatabaseOverlay& view = pool->overlay(id);
  EXPECT_FALSE(DrawProbes(view, profile, {1, 2, 3}, &rng).ok());
  EXPECT_FALSE(DrawProbes(view, profile, probes, nullptr).ok());
  Result<ProbeDraws> draws = DrawProbes(view, profile, probes, &rng);
  ASSERT_TRUE(draws.ok());
  EXPECT_FALSE(CommitProbeDraws(&*pool, id + 17, *draws).ok());

  // RunPipelinedCleaning: null pool, rng arity, a planning error on a
  // worker (nothing of its round is committed), dirty session.
  std::vector<Rng> rngs;
  rngs.emplace_back(1);
  PipelineOptions options;
  EXPECT_FALSE(
      RunPipelinedCleaning(nullptr, ids, profile, 10, &rngs, options).ok());
  std::vector<Rng> wrong_arity;
  EXPECT_FALSE(
      RunPipelinedCleaning(&*pool, ids, profile, 10, &wrong_arity, options)
          .ok());
  PipelineOptions bad_weights;
  bad_weights.plan_weights = {1.0, 1.0};  // the ladder has one rung
  EXPECT_FALSE(
      RunPipelinedCleaning(&*pool, ids, profile, 10, &rngs, bad_weights).ok());
  EXPECT_FALSE(pool->dirty(id));
  const auto& members = pool->overlay(id).base().xtuple_members(0);
  ASSERT_TRUE(
      pool->ApplyCleanOutcome(id, 0, pool->base().tuple(members[0]).id)
          .ok());
  Result<PipelineReport> dirty_run =
      RunPipelinedCleaning(&*pool, ids, profile, 10, &rngs, options);
  EXPECT_FALSE(dirty_run.ok());
  EXPECT_EQ(dirty_run.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace uclean
