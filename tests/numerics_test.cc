// Numerical-robustness regression suite.
//
// The PSR divide-out recurrence is the one place where naive implementations
// silently produce garbage: the forward exclusion amplifies rounding error
// by (q/(1-q)) per rank index, which detonates on skewed alternative masses
// (this repository's original implementation produced sum(p) = 14105
// instead of 15 on the sigma=10 synthetic workload). These tests pin the
// stable-direction implementation against exact invariants and against the
// enumeration algorithms on adversarially skewed inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "clean/planners.h"
#include "common/check.h"
#include "common/rng.h"
#include "quality/pwr.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

double SumTopkProbs(const PsrOutput& psr) {
  double total = 0.0;
  for (double p : psr.topk_prob) total += p;
  return total;
}

TEST(Numerics, Sigma10RegressionSumOfTopkProbs) {
  // The exact workload that exposed the instability: tight Gaussians give
  // per-bar masses down to ~1e-5.
  SyntheticOptions opts;
  opts.num_xtuples = 300;
  opts.sigma = 10.0;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok());
  for (size_t k : {5u, 15u, 50u}) {
    Result<PsrOutput> psr = ScanPsr(*db, k);
    ASSERT_TRUE(psr.ok());
    EXPECT_NEAR(SumTopkProbs(*psr), static_cast<double>(k), 1e-8)
        << "k=" << k;
    for (size_t i = 0; i < db->num_tuples(); ++i) {
      ASSERT_LE(psr->topk_at(i), db->tuple(i).prob + 1e-12);
      ASSERT_GE(psr->topk_at(i), -1e-12);
    }
  }
}

TEST(Numerics, Sigma10TpMatchesPwrOnSmallInstance) {
  SyntheticOptions opts;
  opts.num_xtuples = 25;
  opts.sigma = 10.0;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok());
  for (size_t k : {1u, 2u, 3u}) {
    Result<PwrOutput> pwr = ComputePwrQuality(*db, k);
    Result<TpOutput> tp = ComputeTpQuality(*db, k);
    ASSERT_TRUE(pwr.ok() && tp.ok());
    EXPECT_NEAR(pwr->quality, tp->quality, 1e-8) << "k=" << k;
  }
}

/// An x-tuple ladder with geometrically collapsing masses: the scan's
/// headroom shrinks to ~1e-12 while alternatives interleave globally.
ProbabilisticDatabase MakeGeometricLadder(size_t num_xtuples,
                                          size_t alts_per_xtuple) {
  DatabaseBuilder b;
  TupleId next_id = 0;
  for (size_t l = 0; l < num_xtuples; ++l) {
    XTupleId x = b.AddXTuple();
    double remaining = 1.0;
    for (size_t a = 0; a < alts_per_xtuple; ++a) {
      const bool last = a + 1 == alts_per_xtuple;
      const double e = last ? remaining : remaining * (1.0 - 1e-3);
      // Interleave scores so consecutive scan positions hop x-tuples.
      const double score =
          1e6 - (static_cast<double>(a) * num_xtuples + l) * 10.0;
      UCLEAN_CHECK(b.AddAlternative(x, next_id++, score, e).ok());
      remaining -= e;
      if (remaining <= 0.0) break;
    }
  }
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

TEST(Numerics, GeometricLadderInvariants) {
  // Masses decay by 1e-3 per level: headroom hits ~1e-12 at depth 4.
  ProbabilisticDatabase db = MakeGeometricLadder(20, 4);
  for (size_t k : {1u, 5u, 10u, 20u}) {
    Result<PsrOutput> psr = ScanPsr(db, k);
    ASSERT_TRUE(psr.ok());
    EXPECT_NEAR(SumTopkProbs(*psr), static_cast<double>(k), 1e-8);
    for (size_t i = 0; i < db.num_tuples(); ++i) {
      ASSERT_LE(psr->topk_at(i), db.tuple(i).prob + 1e-12);
    }
  }
}

TEST(Numerics, GeometricLadderQualityAgreement) {
  ProbabilisticDatabase db = MakeGeometricLadder(8, 3);
  for (size_t k : {1u, 2u, 4u}) {
    Result<PwrOutput> pwr = ComputePwrQuality(db, k);
    Result<TpOutput> tp = ComputeTpQuality(db, k);
    ASSERT_TRUE(pwr.ok() && tp.ok());
    EXPECT_NEAR(pwr->quality, tp->quality, 1e-8) << "k=" << k;
  }
}

TEST(Numerics, HalfHalfMassesStressForwardBackwardBoundary) {
  // q crosses exactly 0.5 at every second alternative: exercises both
  // divide-out directions and the switch between them.
  DatabaseBuilder b;
  TupleId next_id = 0;
  for (size_t l = 0; l < 40; ++l) {
    XTupleId x = b.AddXTuple();
    ASSERT_TRUE(
        b.AddAlternative(x, next_id++, 1000.0 - l, 0.5).ok());
    ASSERT_TRUE(
        b.AddAlternative(x, next_id++, 500.0 - l, 0.5).ok());
  }
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  for (size_t k : {1u, 7u, 40u}) {
    Result<PsrOutput> psr = ScanPsr(*db, k);
    ASSERT_TRUE(psr.ok());
    EXPECT_NEAR(SumTopkProbs(*psr), static_cast<double>(k), 1e-9);
  }
}

TEST(Numerics, LargeKDeepVectorStaysExact) {
  // k = 200 over 100 interleaved x-tuples: the old truncated-forward
  // recurrence would accumulate (q/(1-q))^200-style error here.
  SyntheticOptions opts;
  opts.num_xtuples = 100;
  opts.sigma = 30.0;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok());
  Result<PsrOutput> psr = ScanPsr(*db, 200);
  ASSERT_TRUE(psr.ok());
  EXPECT_NEAR(SumTopkProbs(*psr), 100.0, 1e-8);  // k > m: sum = m
}

TEST(Numerics, TinyAlternativeMassesNearOne) {
  // One alternative at 1 - 1e-11, the rest sharing 1e-11: the x-tuple
  // saturates within the 1e-12 tolerance right after its first tuple.
  DatabaseBuilder b;
  XTupleId x0 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x0, 0, 100.0, 1.0 - 1e-11).ok());
  ASSERT_TRUE(b.AddAlternative(x0, 1, 50.0, 0.5e-11).ok());
  ASSERT_TRUE(b.AddAlternative(x0, 2, 25.0, 0.5e-11).ok());
  XTupleId x1 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x1, 3, 75.0, 0.6).ok());
  ASSERT_TRUE(b.AddAlternative(x1, 4, 10.0, 0.4).ok());
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  for (size_t k : {1u, 2u}) {
    Result<PsrOutput> psr = ScanPsr(*db, k);
    ASSERT_TRUE(psr.ok());
    EXPECT_NEAR(SumTopkProbs(*psr), static_cast<double>(k), 1e-9);
    Result<PwrOutput> pwr = ComputePwrQuality(*db, k);
    Result<TpOutput> tp = ComputeTpQuality(*db, *psr);
    ASSERT_TRUE(pwr.ok() && tp.ok());
    EXPECT_NEAR(pwr->quality, tp->quality, 1e-7);
  }
}

TEST(Numerics, ProbabilisticEarlyStopErrorIsBounded) {
  // MOV-like data (sub-unit masses, nulls at the tail) never triggers
  // Lemma 2 proper; the probabilistic stop must agree with the full scan
  // to ~1e-10 while touching a fraction of the tuples.
  SyntheticOptions opts;
  opts.num_xtuples = 500;
  Result<ProbabilisticDatabase> base = GenerateSynthetic(opts);
  ASSERT_TRUE(base.ok());
  // Rebuild with masses scaled to 0.8 so every x-tuple keeps a null.
  DatabaseBuilder b;
  for (size_t l = 0; l < base->num_xtuples(); ++l) b.AddXTuple();
  for (const Tuple& t : base->tuples()) {
    if (!t.is_null) {
      ASSERT_TRUE(
          b.AddAlternative(t.xtuple, t.id, t.score, t.prob * 0.8).ok());
    }
  }
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());

  PsrOptions on, off;
  on.early_termination = true;
  off.early_termination = false;
  Result<PsrOutput> fast = ScanPsr(*db, 10, on);
  Result<PsrOutput> full = ScanPsr(*db, 10, off);
  ASSERT_TRUE(fast.ok() && full.ok());
  EXPECT_LT(fast->scan_end, db->num_tuples() / 2);  // actually stopped early
  Result<TpOutput> q_fast = ComputeTpQuality(*db, *fast);
  Result<TpOutput> q_full = ComputeTpQuality(*db, *full);
  ASSERT_TRUE(q_fast.ok() && q_full.ok());
  EXPECT_NEAR(q_fast->quality, q_full->quality, 1e-9);
}

/// The Lemma-2 test as a plain left-to-right head sum, with no early
/// exit: the oracle ScanCore::StopRuleFires must agree with.
bool HeadSumStops(const std::vector<double>& c, size_t saturated, size_t k) {
  if (saturated >= k) return true;
  double head = 0.0;
  for (size_t j = 0; j < std::min(k - saturated, c.size()); ++j) head += c[j];
  return head < psr_internal::kNegligibleHeadMass;
}

/// Empty when the stop rule and the head sum agree on (c, saturated, k).
std::string StopVerdictsDiffer(const std::vector<double>& c,
                               size_t saturated, size_t k) {
  const bool fires = psr_internal::ScanCore::StopRuleFires(
      c.data(), c.size(), saturated, k);
  if (fires == HeadSumStops(c, saturated, k)) return "";
  return "len " + std::to_string(c.size()) + " saturated " +
         std::to_string(saturated) + " k " + std::to_string(k) +
         (fires ? ": fires, the sum does not" : ": the sum fires, it does not");
}

TEST(Numerics, StopRuleEarlyExitAgreesWithTheHeadSum) {
  constexpr double kBound = psr_internal::kNegligibleHeadMass;
  const double below = std::nextafter(kBound, 0.0);
  const double above = std::nextafter(kBound, 1.0);
  const double ulp = above - kBound;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> cases = {
      // One entry at the bound, one an ulp below, alone or among zeros.
      {kBound}, {below}, {0.0, kBound, 0.0}, {0.0, below, 0.0},
      {below, below}, {kBound, 0.0, below},
      // 16 entries of 1e-16: each below the bound, their sum above it.
      std::vector<double>(16, 1e-16),
      // Sums within an ulp of the bound: exactly on it, an ulp below, a
      // tie between the two, an ulp above, and ten inexact tenths.
      {kBound / 2, kBound / 2}, {below / 2, below / 2}, {below, ulp / 2},
      {below, ulp / 4}, {below, ulp}, {kBound / 2, kBound / 2, ulp},
      std::vector<double>(10, kBound / 10),
      std::vector<double>(10, below / 10),
      // Subnormals and signed zeros.
      {tiny}, {-0.0}, {0.0, -0.0, tiny}, {-0.0, kBound}, {tiny, below},
      std::vector<double>(600, tiny), {-0.0, -0.0, 0.0},
      // A mass past the window must not count.
      {1e-16, 1e-16, 1.0}, {0.0, 0.0, 0.0, kBound}};
  for (const std::vector<double>& c : cases) {
    for (size_t k = 1; k <= c.size() + 2; ++k) {
      // saturated >= k (Lemma 2 proper), and windows longer than c.
      for (size_t saturated = 0; saturated <= k + 1; ++saturated) {
        EXPECT_EQ(StopVerdictsDiffer(c, saturated, k), "");
      }
    }
  }

  // A seeded sweep: entries log-uniform over [1e-30, 1], and again over
  // [1e-30, 10^e] for e in [-18, -13], where head sums straddle the bound.
  // Exponents come from the engine's raw 53-bit draws: the sweep makes
  // ~60 million of them, and the distribution wrappers dominate an
  // unoptimized build.
  Rng rng(20261020);
  const auto unit = [&engine = rng.engine()] {
    return static_cast<double>(engine() >> 11) * 0x1.0p-53;
  };
  const double ln10 = std::log(10.0);
  size_t fires = 0;
  size_t goes_on = 0;
  std::string first_difference;
  std::vector<double> c;
  for (int vector = 0; vector < 200000; ++vector) {
    const double top = vector < 100000 ? 0.0 : rng.Uniform(-18.0, -13.0);
    c.resize(static_cast<size_t>(rng.UniformInt(1, 600)));
    for (double& entry : c) {
      entry = std::exp((-30.0 + (top + 30.0) * unit()) * ln10);
    }
    const auto k = static_cast<size_t>(rng.UniformInt(1, 700));
    const auto saturated = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(k)));
    const bool stops = HeadSumStops(c, saturated, k);
    if (psr_internal::ScanCore::StopRuleFires(c.data(), c.size(), saturated,
                                              k) != stops &&
        first_difference.empty()) {
      first_difference = "vector " + std::to_string(vector) + ": " +
                         StopVerdictsDiffer(c, saturated, k);
    }
    (stops ? fires : goes_on)++;
  }
  EXPECT_EQ(first_difference, "");
  // Both verdicts occur often, so the sweep reaches the sum as well as
  // the early exit.
  EXPECT_GT(fires, 10000u);
  EXPECT_GT(goes_on, 10000u);
}

TEST(Numerics, CleaningObjectiveStableUnderTinyGains) {
  // Gains at rounding scale must not produce negative marginal values or
  // destabilize the planners.
  CleaningProblem problem;
  problem.gain = {-1e-300, -5e-16, 0.0, -2.0};
  problem.topk_mass = {1e-300, 5e-16, 0.0, 1.0};
  problem.cost = {1, 1, 1, 1};
  problem.sc_prob = {0.5, 0.5, 0.5, 0.5};
  problem.budget = 10;
  Result<CleaningPlan> dp = PlanDp(problem);
  Result<CleaningPlan> greedy = PlanGreedy(problem);
  ASSERT_TRUE(dp.ok() && greedy.ok());
  EXPECT_GE(dp->expected_improvement, 0.0);
  EXPECT_NEAR(dp->expected_improvement, greedy->expected_improvement, 1e-9);
  EXPECT_GT(dp->probes[3], 0);  // the only material x-tuple gets the budget
}

}  // namespace
}  // namespace uclean
