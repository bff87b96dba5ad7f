// Cross-cutting behavioral properties that span modules: query-answer
// monotonicity, cleaning's effect on expected quality, planner edge cases,
// and end-to-end consistency facts the paper states in passing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "clean/agent.h"
#include "clean/brute_force.h"
#include "clean/planners.h"
#include "common/rng.h"
#include "model/paper_example.h"
#include "pworld/pw_quality.h"
#include "quality/evaluation.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

TEST(Behavior, PtkAnswerShrinksAsThresholdGrows) {
  Rng rng(71);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    Result<PsrOutput> psr = ScanPsr(db, 3);
    ASSERT_TRUE(psr.ok());
    size_t previous = SIZE_MAX;
    for (double threshold : {0.01, 0.1, 0.3, 0.6, 0.9}) {
      Result<PtkAnswer> answer = EvaluatePtk(db, *psr, threshold);
      ASSERT_TRUE(answer.ok());
      EXPECT_LE(answer->tuples.size(), previous);
      previous = answer->tuples.size();
    }
  }
}

TEST(Behavior, PtkAtMinimalThresholdEqualsNonzeroSet) {
  ProbabilisticDatabase db = MakeUdb1();
  Result<PsrOutput> psr = ScanPsr(db, 2);
  ASSERT_TRUE(psr.ok());
  Result<PtkAnswer> answer = EvaluatePtk(db, *psr, 1e-12);
  ASSERT_TRUE(answer.ok());
  size_t nonzero_real = 0;
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    if (!db.tuple(i).is_null && psr->topk_at(i) >= 1e-12) ++nonzero_real;
  }
  EXPECT_EQ(answer->tuples.size(), nonzero_real);
}

TEST(Behavior, CleaningAnyXTupleNeverLowersExpectedQuality) {
  // Theorem-2 corollary: I({tau_l}, {1}) = -(P_l) * g(l,D) >= 0, verified
  // against the brute-force expectation over cleaned outcomes.
  Rng rng(83);
  RandomDbOptions opts;
  opts.num_xtuples = 4;
  opts.max_alternatives = 3;
  for (int trial = 0; trial < 8; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    CleaningProfile profile;
    profile.costs.assign(db.num_xtuples(), 1);
    profile.sc_probs.assign(db.num_xtuples(), 0.8);
    for (size_t l = 0; l < db.num_xtuples(); ++l) {
      std::vector<int64_t> probes(db.num_xtuples(), 0);
      probes[l] = 1;
      Result<double> improvement =
          ExpectedImprovementBruteForce(db, 2, profile, probes);
      ASSERT_TRUE(improvement.ok());
      EXPECT_GE(*improvement, -1e-10)
          << "trial " << trial << " x-tuple " << l;
    }
  }
}

TEST(Behavior, FullyCleanedDatabaseHasZeroQuality) {
  Rng rng(97);
  RandomDbOptions opts;
  opts.num_xtuples = 5;
  ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
  // Collapse every x-tuple to its most likely alternative.
  DatabaseBuilder b = DatabaseBuilder::FromDatabase(db);
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
    int32_t best = members[0];
    for (int32_t idx : members) {
      if (db.tuple(idx).prob > db.tuple(best).prob) best = idx;
    }
    const Tuple& chosen = db.tuple(best);
    ASSERT_TRUE(b.ReplaceWithCertain(static_cast<XTupleId>(l),
                                     chosen.is_null ? nullptr : &chosen)
                    .ok());
  }
  Result<ProbabilisticDatabase> certain = std::move(b).Finish();
  ASSERT_TRUE(certain.ok());
  Result<TpOutput> tp = ComputeTpQuality(*certain, 3);
  Result<PwOutput> pw = ComputePwQuality(*certain, 3);
  ASSERT_TRUE(tp.ok() && pw.ok());
  EXPECT_NEAR(tp->quality, 0.0, 1e-12);
  EXPECT_EQ(pw->results.size(), 1u);
}

TEST(Behavior, AllPlannersReturnEmptyWhenNothingAffordable) {
  CleaningProblem problem;
  problem.gain = {-3.0, -1.0};
  problem.topk_mass = {1.0, 0.5};
  problem.cost = {50, 80};
  problem.sc_prob = {0.9, 0.9};
  problem.budget = 10;  // below every cost
  Rng rng(3);
  for (PlannerKind kind : {PlannerKind::kDp, PlannerKind::kGreedy,
                           PlannerKind::kRandP, PlannerKind::kRandU}) {
    Result<CleaningPlan> plan = RunPlanner(kind, problem, &rng);
    ASSERT_TRUE(plan.ok()) << PlannerKindName(kind);
    EXPECT_EQ(plan->total_cost, 0) << PlannerKindName(kind);
    EXPECT_EQ(plan->expected_improvement, 0.0) << PlannerKindName(kind);
  }
}

TEST(Behavior, SingleXTupleDpSpendsWholeBudgetOnIt) {
  CleaningProblem problem;
  problem.gain = {-4.0};
  problem.topk_mass = {1.0};
  problem.cost = {3};
  problem.sc_prob = {0.35};
  problem.budget = 17;
  Result<CleaningPlan> plan = PlanDp(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->probes[0], 17 / 3);  // every affordable probe has b > 0
  EXPECT_NEAR(plan->expected_improvement,
              problem.XTupleImprovement(0, 17 / 3), 1e-12);
}

TEST(Behavior, ConcaveEngineHandlesManyCostClasses) {
  // Costs spread over {1..50}: dozens of residue classes per group.
  Rng rng(111);
  CleaningProblem problem;
  for (int l = 0; l < 30; ++l) {
    problem.gain.push_back(-rng.Uniform(0.1, 4.0));
    problem.topk_mass.push_back(-problem.gain.back());
    problem.cost.push_back(rng.UniformInt(1, 50));
    problem.sc_prob.push_back(rng.Uniform(0.05, 0.95));
  }
  problem.budget = 400;
  DpOptions items, concave;
  items.mode = DpMode::kItems;
  concave.mode = DpMode::kConcave;
  Result<CleaningPlan> a = PlanDp(problem, items);
  Result<CleaningPlan> b = PlanDp(problem, concave);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->expected_improvement, b->expected_improvement, 1e-8);
}

TEST(Behavior, AgentOnZeroGainXTupleChangesNothingInExpectation) {
  // Probing an x-tuple outside Z succeeds and collapses it, but the
  // quality stays identical (omega * p was already zero).
  ProbabilisticDatabase db = MakeUdb1();
  const size_t k = 2;
  Result<TpOutput> before = ComputeTpQuality(db, k);
  ASSERT_TRUE(before.ok());
  // S1's t0 (21 C) ranks below every achievable top-2 position? Not quite;
  // instead use a fresh x-tuple added far below the top-2 region.
  DatabaseBuilder b = DatabaseBuilder::FromDatabase(db);
  XTupleId low = b.AddXTuple("low");
  ASSERT_TRUE(b.AddAlternative(low, 100, 1.0, 0.5).ok());
  ASSERT_TRUE(b.AddAlternative(low, 101, 2.0, 0.5).ok());
  Result<ProbabilisticDatabase> extended = std::move(b).Finish();
  ASSERT_TRUE(extended.ok());
  Result<TpOutput> base = ComputeTpQuality(*extended, k);
  ASSERT_TRUE(base.ok());
  EXPECT_NEAR(base->xtuple_gain[low], 0.0, 1e-12);

  CleaningProfile profile;
  profile.costs.assign(extended->num_xtuples(), 1);
  profile.sc_probs.assign(extended->num_xtuples(), 1.0);
  std::vector<int64_t> probes(extended->num_xtuples(), 0);
  probes[low] = 1;
  Rng rng(9);
  Result<ExecutionReport> report =
      ExecutePlan(*extended, profile, probes, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->successes, 1u);
  Result<TpOutput> after = ComputeTpQuality(report->cleaned_db, k);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after->quality, base->quality, 1e-10);
}

TEST(Behavior, QualityInvariantUnderScoreShift) {
  // PWS-quality depends on the rank ORDER only, not on score values:
  // shifting every score by a constant must not change anything.
  Rng rng(131);
  RandomDbOptions opts;
  opts.num_xtuples = 6;
  ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
  DatabaseBuilder b;
  for (size_t l = 0; l < db.num_xtuples(); ++l) b.AddXTuple();
  for (const Tuple& t : db.tuples()) {
    if (!t.is_null) {
      ASSERT_TRUE(
          b.AddAlternative(t.xtuple, t.id, t.score + 1000.0, t.prob).ok());
    }
  }
  Result<ProbabilisticDatabase> shifted = std::move(b).Finish();
  ASSERT_TRUE(shifted.ok());
  for (size_t k : {1u, 3u}) {
    Result<TpOutput> a = ComputeTpQuality(db, k);
    Result<TpOutput> c = ComputeTpQuality(*shifted, k);
    ASSERT_TRUE(a.ok() && c.ok());
    EXPECT_NEAR(a->quality, c->quality, 1e-12);
  }
}

TEST(Behavior, EvaluationRejectsInvalidOptions) {
  ProbabilisticDatabase db = MakeUdb1();
  EvaluationOptions options;
  options.k = 0;
  EXPECT_FALSE(EvaluateTopk(db, options).ok());
  options.k = 2;
  options.ptk_threshold = 0.0;
  EXPECT_FALSE(EvaluateTopk(db, options).ok());
}

TEST(Behavior, UkRanksEntriesCanRepeatTuples) {
  // The same tuple may be the most probable occupant of several ranks
  // (a well-known U-kRanks quirk); the evaluator must allow it.
  DatabaseBuilder b;
  XTupleId x0 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x0, 0, 100.0, 0.9).ok());
  XTupleId x1 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x1, 1, 90.0, 0.1).ok());
  XTupleId x2 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x2, 2, 80.0, 0.1).ok());
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  Result<PsrOutput> psr = ScanPsr(*db, 2);
  ASSERT_TRUE(psr.ok());
  UkRanksAnswer answer = EvaluateUkRanks(*db, *psr);
  // Tuple 0 dominates rank 1; rank 2 goes to whoever is most likely second,
  // which may well be tuple 1 or 2 -- but tuple 0 can never be (it exists
  // with 0.9 and is always first when present).
  EXPECT_EQ(answer.per_rank[0].tuple_id, 0);
  EXPECT_NE(answer.per_rank[1].tuple_id, -1);
}

TEST(Behavior, PlanCostAccountsMultiProbeCosts) {
  CleaningProblem problem;
  problem.gain = {-2.0, -3.0};
  problem.topk_mass = {1.0, 1.0};
  problem.cost = {3, 5};
  problem.sc_prob = {0.4, 0.6};
  problem.budget = 100;
  std::vector<int64_t> probes = {4, 2};
  EXPECT_EQ(PlanCost(problem, probes), 4 * 3 + 2 * 5);
}

TEST(Behavior, SharedEvaluationMatchesStandaloneCalls) {
  ProbabilisticDatabase db = MakeUdb1();
  EvaluationOptions options;
  options.k = 2;
  options.ptk_threshold = 0.4;
  Result<EvaluationReport> report = EvaluateTopk(db, options);
  ASSERT_TRUE(report.ok());

  Result<PsrOutput> psr = ScanPsr(db, 2);
  ASSERT_TRUE(psr.ok());
  Result<PtkAnswer> ptk = EvaluatePtk(db, *psr, 0.4);
  GlobalTopkAnswer gtopk = EvaluateGlobalTopk(db, *psr);
  Result<TpOutput> tp = ComputeTpQuality(db, *psr);
  ASSERT_TRUE(ptk.ok() && tp.ok());

  ASSERT_EQ(report->ptk.tuples.size(), ptk->tuples.size());
  for (size_t j = 0; j < ptk->tuples.size(); ++j) {
    EXPECT_EQ(report->ptk.tuples[j].tuple_id, ptk->tuples[j].tuple_id);
  }
  ASSERT_EQ(report->global_topk.tuples.size(), gtopk.tuples.size());
  EXPECT_NEAR(report->quality.quality, tp->quality, 1e-12);
}

}  // namespace
}  // namespace uclean
