// Cross-validation of the three quality algorithms (PW, PWR, TP) and unit
// tests of their guards. The randomized agreement sweep mirrors the paper's
// own verification: "the absolute difference between the quality scores
// calculated by different methods is always smaller than 1e-8".

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "model/paper_example.h"
#include "pworld/pw_quality.h"
#include "quality/evaluation.h"
#include "quality/pwr.h"
#include "quality/tp.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

class QualityAgreementSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int>> {};

TEST_P(QualityAgreementSweep, PwPwrTpAgree) {
  const auto [num_xtuples, max_alts, subunit, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  RandomDbOptions opts;
  opts.num_xtuples = static_cast<size_t>(num_xtuples);
  opts.max_alternatives = static_cast<size_t>(max_alts);
  opts.allow_subunit_mass = subunit;
  for (int trial = 0; trial < 5; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    for (size_t k : {1u, 2u, 3u, 5u}) {
      Result<PwOutput> pw = ComputePwQuality(db, k);
      Result<PwrOutput> pwr = ComputePwrQuality(db, k);
      Result<TpOutput> tp = ComputeTpQuality(db, k);
      ASSERT_TRUE(pw.ok() && pwr.ok() && tp.ok());
      EXPECT_NEAR(pw->quality, pwr->quality, 1e-8)
          << "trial " << trial << " k " << k;
      EXPECT_NEAR(pw->quality, tp->quality, 1e-8)
          << "trial " << trial << " k " << k;
      EXPECT_EQ(pw->results.size(), pwr->num_results);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QualityAgreementSweep,
    ::testing::Combine(::testing::Values(3, 5, 7),   // x-tuples
                       ::testing::Values(2, 4),      // max alternatives
                       ::testing::Bool(),            // sub-unit mass
                       ::testing::Values(17, 91)),   // seeds
    [](const auto& suite_info) {
      return "m" + std::to_string(std::get<0>(suite_info.param)) + "a" +
             std::to_string(std::get<1>(suite_info.param)) +
             (std::get<2>(suite_info.param) ? "sub" : "full") + "s" +
             std::to_string(std::get<3>(suite_info.param));
    });

TEST(Pwr, EntropyOnlyModeMatchesCollectingMode) {
  Rng rng(64);
  RandomDbOptions opts;
  opts.num_xtuples = 6;
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    PwrOptions collecting, streaming;
    collecting.collect_results = true;
    streaming.collect_results = false;
    Result<PwrOutput> a = ComputePwrQuality(db, 3, collecting);
    Result<PwrOutput> c = ComputePwrQuality(db, 3, streaming);
    ASSERT_TRUE(a.ok() && c.ok());
    EXPECT_NEAR(a->quality, c->quality, 1e-10);
    EXPECT_EQ(a->num_results, c->num_results);
    EXPECT_TRUE(c->results.empty());
  }
}

TEST(Pwr, MaxResultsGuard) {
  ProbabilisticDatabase db = MakeUdb1();
  PwrOptions options;
  options.max_results = 3;  // udb1 has 7 pw-results at k=2
  Result<PwrOutput> out = ComputePwrQuality(db, 2, options);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(Pwr, RejectsZeroK) {
  EXPECT_FALSE(ComputePwrQuality(MakeUdb1(), 0).ok());
}

TEST(Pwr, HandlesShortResultsWhenKExceedsEntities) {
  ProbabilisticDatabase db = MakeUdb1();
  Result<PwOutput> pw = ComputePwQuality(db, 10);
  Result<PwrOutput> pwr = ComputePwrQuality(db, 10);
  ASSERT_TRUE(pw.ok() && pwr.ok());
  EXPECT_NEAR(pw->quality, pwr->quality, 1e-10);
  EXPECT_EQ(pw->results.size(), pwr->results.size());
}

TEST(Tp, RejectsMismatchedPsr) {
  ProbabilisticDatabase db1 = MakeUdb1();
  ProbabilisticDatabase db2 = MakeUdb2();
  Result<PsrOutput> psr = ScanPsr(db1, 2);
  ASSERT_TRUE(psr.ok());
  EXPECT_FALSE(ComputeTpQuality(db2, *psr).ok());
}

TEST(Tp, GainsSumToQuality) {
  Rng rng(12);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    Result<TpOutput> tp = ComputeTpQuality(db, 3);
    ASSERT_TRUE(tp.ok());
    double sum = 0.0;
    for (double g : tp->xtuple_gain) sum += g;
    EXPECT_NEAR(sum, tp->quality, 1e-9);
  }
}

TEST(Tp, CertainTupleHasZeroWeight) {
  // omega of a certain tuple (e = 1) is 0, so a fully certain x-tuple
  // contributes no ambiguity regardless of its top-k probability.
  ProbabilisticDatabase db = MakeUdb2();  // S3 and S4 are certain
  Result<PsrOutput> psr = ScanPsr(db, 2);
  ASSERT_TRUE(psr.ok());
  Result<TpOutput> tp = ComputeTpQuality(db, *psr);
  ASSERT_TRUE(tp.ok());
  const size_t r_t5 = *db.RankIndexOfTupleId(5);
  const size_t r_t6 = *db.RankIndexOfTupleId(6);
  EXPECT_NEAR(tp->omega[r_t5], 0.0, 1e-12);
  EXPECT_NEAR(tp->omega[r_t6], 0.0, 1e-12);
  EXPECT_NEAR(tp->xtuple_gain[2], 0.0, 1e-12);
  EXPECT_NEAR(tp->xtuple_gain[3], 0.0, 1e-12);
}

TEST(Tp, TopkMassMatchesPsr) {
  ProbabilisticDatabase db = MakeUdb1();
  Result<PsrOutput> psr = ScanPsr(db, 2);
  ASSERT_TRUE(psr.ok());
  Result<TpOutput> tp = ComputeTpQuality(db, *psr);
  ASSERT_TRUE(tp.ok());
  std::vector<double> expected(db.num_xtuples(), 0.0);
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    expected[db.tuple(i).xtuple] += psr->topk_at(i);
  }
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    EXPECT_NEAR(tp->xtuple_topk_mass[l], expected[l], 1e-12);
  }
}

TEST(Quality, MoreUncertaintyLowersQuality) {
  // Adding alternatives to an entity can only blur the top-k distribution.
  DatabaseBuilder sharp;
  XTupleId x = sharp.AddXTuple();
  ASSERT_TRUE(sharp.AddAlternative(x, 0, 10.0, 1.0).ok());
  XTupleId y = sharp.AddXTuple();
  ASSERT_TRUE(sharp.AddAlternative(y, 1, 5.0, 1.0).ok());
  Result<ProbabilisticDatabase> certain = std::move(sharp).Finish();
  ASSERT_TRUE(certain.ok());

  DatabaseBuilder blurred;
  x = blurred.AddXTuple();
  ASSERT_TRUE(blurred.AddAlternative(x, 0, 10.0, 0.5).ok());
  ASSERT_TRUE(blurred.AddAlternative(x, 2, 4.0, 0.5).ok());
  y = blurred.AddXTuple();
  ASSERT_TRUE(blurred.AddAlternative(y, 1, 5.0, 1.0).ok());
  Result<ProbabilisticDatabase> uncertain = std::move(blurred).Finish();
  ASSERT_TRUE(uncertain.ok());

  Result<TpOutput> q_certain = ComputeTpQuality(*certain, 1);
  Result<TpOutput> q_uncertain = ComputeTpQuality(*uncertain, 1);
  ASSERT_TRUE(q_certain.ok() && q_uncertain.ok());
  EXPECT_NEAR(q_certain->quality, 0.0, 1e-12);
  EXPECT_LT(q_uncertain->quality, q_certain->quality);
}

TEST(Quality, BoundedBelowByLogResultCount) {
  // S >= -log2 |R(D,Q)| (uniform distribution minimizes the score).
  Rng rng(7777);
  RandomDbOptions opts;
  opts.num_xtuples = 5;
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    Result<PwOutput> pw = ComputePwQuality(db, 2);
    ASSERT_TRUE(pw.ok());
    EXPECT_GE(pw->quality,
              -std::log2(static_cast<double>(pw->results.size())) - 1e-9);
    EXPECT_LE(pw->quality, 1e-12);
  }
}

TEST(Evaluation, SharedPipelineProducesEverything) {
  ProbabilisticDatabase db = MakeUdb1();
  EvaluationOptions options;
  options.k = 2;
  options.ptk_threshold = 0.4;
  Result<EvaluationReport> report = EvaluateTopk(db, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ukranks.per_rank.size(), 2u);
  EXPECT_EQ(report->ptk.tuples.size(), 3u);
  EXPECT_EQ(report->global_topk.tuples.size(), 2u);
  EXPECT_NEAR(report->quality.quality, -2.55, 0.005);
  EXPECT_GE(report->psr_seconds, 0.0);
}

TEST(Evaluation, SelectiveArtifacts) {
  ProbabilisticDatabase db = MakeUdb1();
  EvaluationOptions options;
  options.k = 2;
  options.ukranks = false;
  options.global_topk = false;
  options.quality = false;
  Result<EvaluationReport> report = EvaluateTopk(db, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ukranks.per_rank.empty());
  EXPECT_TRUE(report->global_topk.tuples.empty());
  EXPECT_EQ(report->quality.quality, 0.0);
  EXPECT_FALSE(report->ptk.tuples.empty());
}

}  // namespace
}  // namespace uclean
