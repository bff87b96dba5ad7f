// Unit tests for the PSR rank-probability dynamic program, validated
// against brute-force possible-world enumeration.

#include "rank/psr.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "model/paper_example.h"
#include "pworld/world_iterator.h"
#include "rank/psr_engine.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

/// Ground truth: rank-h probabilities by enumerating every possible world.
std::vector<std::vector<double>> BruteForceRankProbs(
    const ProbabilisticDatabase& db, size_t k) {
  std::vector<std::vector<double>> rho(db.num_tuples(),
                                       std::vector<double>(k, 0.0));
  for (PossibleWorldIterator it(db); !it.Done(); it.Next()) {
    const std::vector<int32_t> topk =
        DeterministicTopK(it.chosen_rank_indices(), k);
    for (size_t h = 0; h < topk.size(); ++h) {
      rho[topk[h]][h] += it.probability();
    }
  }
  return rho;
}

TEST(Psr, RejectsZeroK) { EXPECT_FALSE(ScanPsr(MakeUdb1(), 0).ok()); }

TEST(Psr, MatchesBruteForceOnUdb1) {
  ProbabilisticDatabase db = MakeUdb1();
  for (size_t k = 1; k <= 5; ++k) {
    PsrOptions options;
    options.store_rank_probabilities = true;
    Result<PsrOutput> psr = ScanPsr(db, k, options);
    ASSERT_TRUE(psr.ok());
    const auto truth = BruteForceRankProbs(db, k);
    for (size_t i = 0; i < db.num_tuples(); ++i) {
      double p = 0.0;
      for (size_t h = 1; h <= k; ++h) {
        EXPECT_NEAR(psr->rank_probability(i, h), truth[i][h - 1], 1e-10)
            << "k=" << k << " tuple " << i << " rank " << h;
        p += truth[i][h - 1];
      }
      EXPECT_NEAR(psr->topk_at(i), p, 1e-10);
    }
  }
}

// Parameterized sweep: random databases of varying shape, each checked
// against the brute-force oracle for several k.
class PsrRandomSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int>> {};

TEST_P(PsrRandomSweep, MatchesBruteForce) {
  const auto [num_xtuples, max_alts, subunit, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  RandomDbOptions opts;
  opts.num_xtuples = static_cast<size_t>(num_xtuples);
  opts.max_alternatives = static_cast<size_t>(max_alts);
  opts.allow_subunit_mass = subunit;
  ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);

  for (size_t k : {1u, 2u, 3u, 7u}) {
    PsrOptions options;
    options.store_rank_probabilities = true;
    Result<PsrOutput> psr = ScanPsr(db, k, options);
    ASSERT_TRUE(psr.ok());
    const auto truth = BruteForceRankProbs(db, k);
    for (size_t i = 0; i < db.num_tuples(); ++i) {
      for (size_t h = 1; h <= k; ++h) {
        ASSERT_NEAR(psr->rank_probability(i, h), truth[i][h - 1], 1e-9)
            << "k=" << k << " tuple " << i << " rank " << h;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PsrRandomSweep,
    ::testing::Combine(::testing::Values(2, 4, 6),   // x-tuples
                       ::testing::Values(1, 3, 4),   // max alternatives
                       ::testing::Bool(),            // sub-unit mass
                       ::testing::Values(101, 202)), // seeds
    [](const auto& suite_info) {
      return "m" + std::to_string(std::get<0>(suite_info.param)) + "a" +
             std::to_string(std::get<1>(suite_info.param)) +
             (std::get<2>(suite_info.param) ? "sub" : "full") + "s" +
             std::to_string(std::get<3>(suite_info.param));
    });

TEST(Psr, TopkProbsSumToKWithNullCompletion) {
  // With nulls materialized, every world has exactly m tuples, so when
  // m >= k the top-k result always holds k tuples: sum_i p_i = k.
  Rng rng(555);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  opts.max_alternatives = 3;
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    for (size_t k : {1u, 3u, 8u}) {
      Result<PsrOutput> psr = ScanPsr(db, k);
      ASSERT_TRUE(psr.ok());
      double total = 0.0;
      for (double p : psr->topk_prob) total += p;
      EXPECT_NEAR(total, static_cast<double>(k), 1e-9);
    }
  }
}

TEST(Psr, TopkProbBoundedByExistence) {
  Rng rng(31337);
  RandomDbOptions opts;
  opts.num_xtuples = 6;
  ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
  Result<PsrOutput> psr = ScanPsr(db, 3);
  ASSERT_TRUE(psr.ok());
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    EXPECT_LE(psr->topk_at(i), db.tuple(i).prob + 1e-12);
    EXPECT_GE(psr->topk_at(i), -1e-12);
  }
}

TEST(Psr, EarlyTerminationDoesNotChangeResults) {
  Rng rng(808);
  RandomDbOptions opts;
  opts.num_xtuples = 10;
  opts.max_alternatives = 4;
  opts.allow_subunit_mass = false;  // unit masses saturate x-tuples quickly
  for (int trial = 0; trial < 10; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&rng, opts);
    PsrOptions with, without;
    with.early_termination = true;
    without.early_termination = false;
    for (size_t k : {1u, 2u, 4u}) {
      Result<PsrOutput> a = ScanPsr(db, k, with);
      Result<PsrOutput> b = ScanPsr(db, k, without);
      ASSERT_TRUE(a.ok() && b.ok());
      for (size_t i = 0; i < db.num_tuples(); ++i) {
        EXPECT_NEAR(a->topk_at(i), b->topk_at(i), 1e-10);
      }
    }
  }
}

TEST(Psr, EarlyTerminationActuallyStopsEarly) {
  // A long chain of certain tuples: after k of them every later tuple has
  // zero probability and the scan must stop.
  DatabaseBuilder b;
  const size_t n = 100;
  for (size_t l = 0; l < n; ++l) {
    XTupleId x = b.AddXTuple();
    ASSERT_TRUE(
        b.AddAlternative(x, static_cast<TupleId>(l),
                         static_cast<double>(n - l), 1.0)
            .ok());
  }
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  Result<PsrOutput> psr = ScanPsr(*db, 5);
  ASSERT_TRUE(psr.ok());
  EXPECT_EQ(psr->scan_end, 5u);
  EXPECT_EQ(psr->num_nonzero, 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(psr->topk_prob[i], 1.0, 1e-12);
  for (size_t i = 5; i < n; ++i) EXPECT_EQ(psr->topk_at(i), 0.0);
}

TEST(Psr, BestRankTracksUkRanksArgmax) {
  ProbabilisticDatabase db = MakeUdb1();
  PsrOptions options;
  options.store_rank_probabilities = true;
  Result<PsrOutput> psr = ScanPsr(db, 3, options);
  ASSERT_TRUE(psr.ok());
  for (size_t h = 1; h <= 3; ++h) {
    double best = 0.0;
    for (size_t i = 0; i < db.num_tuples(); ++i) {
      if (db.tuple(i).is_null) continue;
      best = std::max(best, psr->rank_probability(i, h));
    }
    EXPECT_NEAR(psr->best_rank_prob[h - 1], best, 1e-12);
    ASSERT_GE(psr->best_rank_index[h - 1], 0);
    EXPECT_NEAR(psr->rank_probability(psr->best_rank_index[h - 1], h), best,
                1e-12);
  }
}

TEST(Psr, KBeyondDatabaseSizeGivesExistenceProbabilities) {
  // With k >= m every existing tuple is in the top-k: p_i = e_i.
  ProbabilisticDatabase db = MakeUdb1();
  Result<PsrOutput> psr = ScanPsr(db, 20);
  ASSERT_TRUE(psr.ok());
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    EXPECT_NEAR(psr->topk_at(i), db.tuple(i).prob, 1e-10);
  }
}

TEST(Psr, TinyProbabilitiesStayStable) {
  // Near-saturated x-tuples exercise the ill-conditioned divide-out path.
  DatabaseBuilder b;
  XTupleId x0 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x0, 0, 10.0, 1.0 - 1e-12).ok());
  ASSERT_TRUE(b.AddAlternative(x0, 1, 1.0, 1e-12).ok());
  XTupleId x1 = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x1, 2, 5.0, 0.5).ok());
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  Result<PsrOutput> psr = ScanPsr(*db, 1);
  ASSERT_TRUE(psr.ok());
  // Tuple 0 wins rank 1 unless it does not exist: p = 1 - 1e-12.
  const size_t i0 = *db->RankIndexOfTupleId(0);
  EXPECT_NEAR(psr->topk_prob[i0], 1.0, 1e-9);
  for (double p : psr->topk_prob) {
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1.0 + 1e-12);
  }
}

TEST(Psr, NumNonzeroCountsPositiveProbabilities) {
  ProbabilisticDatabase db = MakeUdb1();
  Result<PsrOutput> psr = ScanPsr(db, 2);
  ASSERT_TRUE(psr.ok());
  size_t count = 0;
  for (double p : psr->topk_prob) count += p > 0.0 ? 1 : 0;
  EXPECT_EQ(psr->num_nonzero, count);
}

TEST(ScanRequest, FactoriesValidate) {
  EXPECT_FALSE(ScanRequest::ForK(0).ok());
  EXPECT_FALSE(ScanRequest::ForLadder({}).ok());
  EXPECT_FALSE(ScanRequest::ForLadder({3, 0}).ok());
  Result<ScanRequest> request = ScanRequest::ForLadder({10, 5, 5});
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->ladder.ks, (std::vector<size_t>{5, 10}));
  EXPECT_TRUE(request->Validate().ok());
  request->checkpoint_interval = 0;
  EXPECT_FALSE(request->Validate().ok());
  ProbabilisticDatabase db = MakeUdb1();
  request->checkpoint_interval = ScanRequest::kDefaultCheckpointInterval;
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rungs(), 2u);
  EXPECT_EQ(scan->output(0).k, 5u);
  EXPECT_EQ(scan->output(1).k, 10u);
  // kAuto always resolves to a concrete kernel.
  EXPECT_NE(scan->kernel, KernelKind::kAuto);
}

}  // namespace
}  // namespace uclean
