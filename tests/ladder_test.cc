// Property tests for multi-k PSR sharing: a single ladder scan
// (ComputePsrLadder, the ladder PsrEngine, the ladder CleaningSession)
// must match independent single-k runs to 1e-12 at every rung -- at
// creation and after random clean sequences -- and the aggregated
// planning problem must reduce to the single-k one.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "clean/agent.h"
#include "clean/problem.h"
#include "clean/session.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

/// Per-rung comparison of a ladder output against an independent single-k
/// PSR run over the same database or session view.
template <typename Db>
void ExpectRungMatchesSingleK(const Db& db,
                              const PsrOutput& rung_out, size_t k,
                              const PsrOptions& options) {
  ASSERT_EQ(rung_out.k, k);
  Result<PsrOutput> single = ScanPsr(db, k, options);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_EQ(rung_out.scan_end, single->scan_end) << "k=" << k;
  EXPECT_EQ(rung_out.num_nonzero, single->num_nonzero) << "k=" << k;
  ASSERT_EQ(rung_out.topk_prob.size(), single->topk_prob.size());
  for (size_t i = 0; i < single->topk_prob.size(); ++i) {
    EXPECT_NEAR(rung_out.topk_prob[i], single->topk_prob[i], kTol)
        << "k=" << k << " tuple " << i;
  }
  ASSERT_EQ(rung_out.has_rank_probabilities, single->has_rank_probabilities);
  if (single->has_rank_probabilities) {
    for (size_t i = 0; i < single->topk_prob.size(); ++i) {
      for (size_t h = 1; h <= k; ++h) {
        EXPECT_NEAR(rung_out.rank_probability(i, h),
                    single->rank_probability(i, h), kTol)
            << "k=" << k << " tuple " << i << " rank " << h;
      }
    }
  }
  for (size_t h = 0; h < k; ++h) {
    EXPECT_NEAR(rung_out.best_rank_prob[h], single->best_rank_prob[h], kTol)
        << "k=" << k << " rank " << h + 1;
    EXPECT_EQ(rung_out.best_rank_index[h], single->best_rank_index[h])
        << "k=" << k << " rank " << h + 1;
  }
}

/// Per-rung comparison of a ladder TP state against an independent
/// single-k PSR + TP recomputation (with matching scan options).
template <typename Db>
void ExpectTpMatchesSingleK(const Db& db,
                            const TpOutput& rung_tp, size_t k,
                            const PsrOptions& options = {}) {
  Result<PsrOutput> psr = ScanPsr(db, k, options);
  ASSERT_TRUE(psr.ok()) << psr.status();
  Result<TpOutput> single = ComputeTpQuality(db, *psr);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_NEAR(rung_tp.quality, single->quality, kTol) << "k=" << k;
  ASSERT_EQ(rung_tp.omega.size(), single->omega.size());
  for (size_t i = 0; i < single->omega.size(); ++i) {
    EXPECT_NEAR(rung_tp.omega[i], single->omega[i], kTol)
        << "k=" << k << " tuple " << i;
  }
  ASSERT_EQ(rung_tp.xtuple_gain.size(), single->xtuple_gain.size());
  for (size_t l = 0; l < single->xtuple_gain.size(); ++l) {
    EXPECT_NEAR(rung_tp.xtuple_gain[l], single->xtuple_gain[l], kTol)
        << "k=" << k << " x-tuple " << l;
    EXPECT_NEAR(rung_tp.xtuple_topk_mass[l], single->xtuple_topk_mass[l],
                kTol)
        << "k=" << k << " x-tuple " << l;
  }
}

TEST(KLadder, OfValidatesSortsAndDedups) {
  EXPECT_FALSE(KLadder::Of({}).ok());
  EXPECT_FALSE(KLadder::Of({0}).ok());
  EXPECT_FALSE(KLadder::Of({3, 0, 5}).ok());
  Result<KLadder> ladder = KLadder::Of({25, 5, 10, 25, 5, 50});
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder->ks, (std::vector<size_t>{5, 10, 25, 50}));
  EXPECT_EQ(ladder->max_k(), 50u);
  EXPECT_EQ(ladder->IndexOf(10), 1u);
  EXPECT_EQ(ladder->IndexOf(11), KLadder::npos);
  EXPECT_EQ(ladder->ToString(), "{5, 10, 25, 50}");
}

TEST(ComputePsrLadder, RejectsUnsortedOrZeroLadders) {
  Rng maker(5);
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, {});
  KLadder bad;
  bad.ks = {5, 3};
  EXPECT_FALSE(ScanPsrLadder(db, bad).ok());
  bad.ks = {};
  EXPECT_FALSE(ScanPsrLadder(db, bad).ok());
  bad.ks = {0, 3};
  EXPECT_FALSE(ScanPsrLadder(db, bad).ok());
  bad.ks = {3, 3};
  EXPECT_FALSE(ScanPsrLadder(db, bad).ok());
  ScanRequest bad_request;
  bad_request.ladder = bad;
  EXPECT_FALSE(PsrEngine::Create(db, bad_request).ok());
}

TEST(ComputePsrLadder, MatchesSingleKRuns) {
  Rng maker(1234);
  RandomDbOptions opts;
  opts.num_xtuples = 40;
  opts.max_alternatives = 4;
  for (int trial = 0; trial < 4; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
    const KLadder ladder = MakeLadder({1, 3, 7, 12, 20});
    for (const bool store_matrix : {false, true}) {
      for (const bool early_termination : {true, false}) {
        PsrOptions options;
        options.store_rank_probabilities = store_matrix;
        options.early_termination = early_termination;
        Result<std::vector<PsrOutput>> outs =
            ScanPsrLadder(db, ladder, options);
        ASSERT_TRUE(outs.ok()) << outs.status();
        ASSERT_EQ(outs->size(), ladder.size());
        for (size_t rung = 0; rung < ladder.size(); ++rung) {
          ExpectRungMatchesSingleK(db, (*outs)[rung], ladder[rung], options);
        }
      }
    }
  }
}

TEST(ComputePsrLadder, SingleRungMatchesComputePsr) {
  Rng maker(77);
  RandomDbOptions opts;
  opts.num_xtuples = 20;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  PsrOptions options;
  options.store_rank_probabilities = true;
  Result<std::vector<PsrOutput>> outs =
      ScanPsrLadder(db, MakeLadder({6}), options);
  ASSERT_TRUE(outs.ok());
  ExpectRungMatchesSingleK(db, (*outs)[0], 6, options);
}

TEST(ComputeTpQualityLadder, MatchesSingleKRuns) {
  Rng maker(4321);
  RandomDbOptions opts;
  opts.num_xtuples = 30;
  opts.max_alternatives = 4;
  for (int trial = 0; trial < 4; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
    const KLadder ladder = MakeLadder({2, 5, 9, 14});
    Result<std::vector<PsrOutput>> psrs = ScanPsrLadder(db, ladder);
    ASSERT_TRUE(psrs.ok());
    Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(db, *psrs);
    ASSERT_TRUE(tps.ok()) << tps.status();
    ASSERT_EQ(tps->size(), ladder.size());
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      ExpectTpMatchesSingleK(db, (*tps)[rung], ladder[rung]);
    }
  }
}

/// Draws a random clean outcome for a random still-uncertain x-tuple;
/// returns false when the database is fully certain.
bool ApplyRandomOutcome(CleaningSession* session, Rng* rng) {
  const DatabaseOverlay& db = session->db();
  std::vector<XTupleId> uncertain;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
    if (members.size() > 1 || db.tuple(members[0]).prob < 1.0) {
      uncertain.push_back(static_cast<XTupleId>(l));
    }
  }
  if (uncertain.empty()) return false;
  const XTupleId l = uncertain[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(uncertain.size()) - 1))];
  const auto& members = db.xtuple_members(l);
  std::vector<double> weights;
  for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
  const Tuple& revealed = db.tuple(members[rng->Discrete(weights)]);
  Status s = session->ApplyCleanOutcome(l, revealed.id);
  EXPECT_TRUE(s.ok()) << s;
  return true;
}

struct LadderSweepParam {
  int seed;
  std::vector<size_t> ks;
  bool store_matrix;
};

class LadderSweep : public ::testing::TestWithParam<LadderSweepParam> {};

/// The core equivalence property: a ladder session under a random clean
/// sequence (batched like adaptive rounds) matches a from-scratch
/// single-k PSR + TP recomputation at EVERY rung after EVERY refresh.
TEST_P(LadderSweep, MatchesSingleKFromScratchAtEveryStep) {
  const LadderSweepParam param = GetParam();
  Rng maker(static_cast<uint64_t>(param.seed));
  RandomDbOptions opts;
  opts.num_xtuples = 24;
  opts.max_alternatives = 4;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);

  CleaningSession::Options options;
  options.psr.store_rank_probabilities = param.store_matrix;
  const KLadder ladder = MakeLadder(param.ks);
  Result<CleaningSession> session =
      CleaningSession::Start(std::move(db), ladder, options);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_EQ(session->num_rungs(), ladder.size());
  EXPECT_EQ(session->k(), ladder.max_k());

  Rng rng(static_cast<uint64_t>(param.seed) + 1000);
  for (int step = 0; step < 30; ++step) {
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      PsrOptions psr_options;
      psr_options.store_rank_probabilities = param.store_matrix;
      ExpectRungMatchesSingleK(session->db(), session->psr(rung),
                               ladder[rung], psr_options);
      ExpectTpMatchesSingleK(session->db(), session->tp(rung), ladder[rung]);
      EXPECT_NEAR(session->quality(rung), session->tp(rung).quality, 0.0);
    }
    // Batch one to three outcomes per refresh, like an adaptive round.
    const int batch = static_cast<int>(rng.UniformInt(1, 3));
    bool any = false;
    for (int b = 0; b < batch; ++b) any |= ApplyRandomOutcome(&*session, &rng);
    ASSERT_TRUE(session->Refresh().ok());
    if (!any) break;  // fully certain: nothing left to clean
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LadderSweep,
    ::testing::Values(LadderSweepParam{101, {2, 5, 9}, true},
                      LadderSweepParam{101, {2, 5, 9}, false},
                      LadderSweepParam{202, {1, 4}, false},
                      LadderSweepParam{303, {3, 6, 10, 15}, false},
                      LadderSweepParam{404, {1, 2, 3, 4, 5}, true},
                      LadderSweepParam{505, {7}, false}),
    [](const auto& info) {
      const LadderSweepParam& p = info.param;
      std::string name = "s" + std::to_string(p.seed) + "L";
      for (size_t k : p.ks) name += std::to_string(k) + "_";
      name += p.store_matrix ? "mat" : "nomat";
      return name;
    });

TEST(PsrEngineThinning, Rank0CheckpointSurvivesThinningAndFullReplay) {
  // Checkpoint interval 1 over a full (no early termination) scan of ~500
  // live tuples overflows kMaxCheckpoints and forces thinning, which must
  // leave the always-retained rank-0 snapshot intact: a clean at the very
  // top of the ranking then replays the WHOLE scan from it. (Regression:
  // the thinning loop used to self-move-assign checkpoint 0, emptying its
  // count vector and corrupting every full replay after thinning.)
  Rng maker(1357);
  RandomDbOptions opts;
  opts.num_xtuples = 200;
  opts.max_alternatives = 4;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);

  CleaningSession::Options options;
  options.checkpoint_interval = 1;
  options.psr.early_termination = false;
  const KLadder ladder = MakeLadder({3, 8});
  Result<CleaningSession> session =
      CleaningSession::Start(std::move(db), ladder, options);
  ASSERT_TRUE(session.ok()) << session.status();

  const Tuple top = session->db().tuple(0);
  ASSERT_TRUE(
      session->ApplyCleanOutcome(top.xtuple, top.is_null ? -1 : top.id).ok());
  ASSERT_TRUE(session->Refresh().ok());
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    PsrOptions psr_options;
    psr_options.early_termination = false;
    ExpectRungMatchesSingleK(session->db(), session->psr(rung), ladder[rung],
                             psr_options);
    ExpectTpMatchesSingleK(session->db(), session->tp(rung), ladder[rung],
                           psr_options);
  }
}

TEST(LadderSession, MatchesPerKSessionsUnderSharedOutcomeStream) {
  // One ladder session and one single-k session per rung consume the SAME
  // outcome stream; after every round each rung must agree with its
  // single-k session to 1e-12.
  Rng maker(90210);
  RandomDbOptions opts;
  opts.num_xtuples = 18;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({2, 4, 8});

  Result<CleaningSession> shared =
      CleaningSession::Start(ProbabilisticDatabase(base), ladder);
  ASSERT_TRUE(shared.ok());
  std::vector<CleaningSession> per_k;
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    Result<CleaningSession> single =
        CleaningSession::Start(ProbabilisticDatabase(base), ladder[rung]);
    ASSERT_TRUE(single.ok());
    per_k.push_back(std::move(single).value());
  }

  Rng outcome_rng(777);
  for (int round = 0; round < 12; ++round) {
    // Draw the round's outcomes once, against the shared session's db.
    std::vector<std::pair<XTupleId, TupleId>> outcomes;
    const DatabaseOverlay& db = shared->db();
    for (int draw = 0; draw < 2; ++draw) {
      std::vector<XTupleId> uncertain;
      for (size_t l = 0; l < db.num_xtuples(); ++l) {
        const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
        if (members.size() > 1 || db.tuple(members[0]).prob < 1.0) {
          uncertain.push_back(static_cast<XTupleId>(l));
        }
      }
      if (uncertain.empty()) break;
      const XTupleId l = uncertain[static_cast<size_t>(outcome_rng.UniformInt(
          0, static_cast<int64_t>(uncertain.size()) - 1))];
      bool already_drawn = false;
      for (const auto& outcome : outcomes) {
        already_drawn |= outcome.first == l;
      }
      if (already_drawn) continue;  // one resolution per x-tuple per round
      const auto& members = db.xtuple_members(l);
      std::vector<double> weights;
      for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
      outcomes.emplace_back(
          l, db.tuple(members[outcome_rng.Discrete(weights)]).id);
    }
    if (outcomes.empty()) break;
    for (const auto& [xtuple, resolved] : outcomes) {
      ASSERT_TRUE(shared->ApplyCleanOutcome(xtuple, resolved).ok());
      for (CleaningSession& single : per_k) {
        ASSERT_TRUE(single.ApplyCleanOutcome(xtuple, resolved).ok());
      }
    }
    ASSERT_TRUE(shared->Refresh().ok());
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      ASSERT_TRUE(per_k[rung].Refresh().ok());
      EXPECT_NEAR(shared->quality(rung), per_k[rung].quality(), kTol)
          << "round " << round << " k=" << ladder[rung];
      const TpOutput& a = shared->tp(rung);
      const TpOutput& b = per_k[rung].tp();
      for (size_t l = 0; l < a.xtuple_gain.size(); ++l) {
        EXPECT_NEAR(a.xtuple_gain[l], b.xtuple_gain[l], kTol);
      }
    }
  }
}

TEST(LadderSession, ShrinkingScanEndLeavesNoStaleOmega) {
  // Regression for the delta-TP shrink case: a clean that resolves an
  // x-tuple to a top-ranked certain tuple adds a saturated contributor
  // early, so the Lemma-2 stop fires sooner and the replayed scan_end
  // moves BACKWARD. UpdateTpQualityLadder must cut omega back to the new
  // end, or the entries in [new_end, old_end) would survive as stale
  // state that a later pass silently resurrects once the scan grows
  // again. The test forces the shrink, asserts omega holds exactly
  // [0, scan_end) at every rung's new stop point, and then pushes another
  // clean through to prove later passes stay exact.
  Rng maker(987);
  RandomDbOptions opts;
  opts.num_xtuples = 40;
  opts.max_alternatives = 4;
  opts.allow_subunit_mass = false;  // unit mass: saturation drives the stop
  const ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({2, 6});

  bool shrunk = false;
  for (size_t l = 0; l < base.num_xtuples() && !shrunk; ++l) {
    const auto& members = base.xtuple_members(static_cast<XTupleId>(l));
    if (members.size() < 2 || base.tuple(members.front()).is_null) continue;
    Result<CleaningSession> session =
        CleaningSession::Start(ProbabilisticDatabase(base), ladder);
    ASSERT_TRUE(session.ok()) << session.status();
    std::vector<size_t> old_ends;
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      old_ends.push_back(session->psr(rung).scan_end);
    }
    ASSERT_TRUE(session
                    ->ApplyCleanOutcome(static_cast<XTupleId>(l),
                                        base.tuple(members.front()).id)
                    .ok());
    ASSERT_TRUE(session->Refresh().ok());
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      shrunk |= session->psr(rung).scan_end < old_ends[rung];
    }
    if (!shrunk) continue;

    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      const TpOutput& tp = session->tp(rung);
      EXPECT_EQ(tp.scan_end, session->psr(rung).scan_end);
      EXPECT_EQ(tp.omega.size(), tp.scan_end)
          << "stale omega past scan_end " << tp.scan_end
          << " (pre-clean scan_end " << old_ends[rung] << ")";
      ExpectTpMatchesSingleK(session->db(), tp, ladder[rung]);
    }
    // A second clean (and replay) over the shrunken state must stay
    // exact: this is the pass a stale omega suffix would poison.
    ASSERT_TRUE(ApplyRandomOutcome(&*session, &maker));
    ASSERT_TRUE(session->Refresh().ok());
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      ExpectTpMatchesSingleK(session->db(), session->tp(rung), ladder[rung]);
    }
  }
  ASSERT_TRUE(shrunk) << "no clean shrank any rung's scan_end; the "
                         "regression scenario was not exercised";
}

TEST(AggregatedProblem, SingleRungReducesToSingleK) {
  Rng maker(31);
  RandomDbOptions opts;
  opts.num_xtuples = 12;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  CleaningProfile profile;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    profile.costs.push_back(1 + static_cast<int64_t>(l % 4));
    profile.sc_probs.push_back(0.5);
  }
  Result<TpOutput> tp = ComputeTpQuality(db, 5);
  ASSERT_TRUE(tp.ok());
  Result<CleaningProblem> single = MakeCleaningProblem(*tp, profile, 100);
  ASSERT_TRUE(single.ok());
  std::vector<TpOutput> tps{*tp};
  Result<CleaningProblem> ladder = MakeCleaningProblem(tps, {}, profile, 100);
  ASSERT_TRUE(ladder.ok()) << ladder.status();
  ASSERT_EQ(ladder->gain.size(), single->gain.size());
  for (size_t l = 0; l < single->gain.size(); ++l) {
    EXPECT_NEAR(ladder->gain[l], single->gain[l], 0.0) << "x-tuple " << l;
    EXPECT_NEAR(ladder->topk_mass[l], single->topk_mass[l], 0.0);
  }
}

TEST(AggregatedProblem, UniformWeightsAverageTheRungs) {
  Rng maker(32);
  RandomDbOptions opts;
  opts.num_xtuples = 12;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  CleaningProfile profile;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    profile.costs.push_back(1);
    profile.sc_probs.push_back(0.5);
  }
  const KLadder ladder = MakeLadder({2, 6});
  Result<std::vector<PsrOutput>> psrs = ScanPsrLadder(db, ladder);
  ASSERT_TRUE(psrs.ok());
  Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(db, *psrs);
  ASSERT_TRUE(tps.ok());
  Result<CleaningProblem> uniform = MakeCleaningProblem(*tps, {}, profile, 10);
  ASSERT_TRUE(uniform.ok());
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const double mean =
        0.5 * ((*tps)[0].xtuple_gain[l] + (*tps)[1].xtuple_gain[l]);
    EXPECT_NEAR(uniform->gain[l], mean > 0.0 ? 0.0 : mean, kTol);
  }
  // Weighting one rung fully reproduces that rung's problem.
  Result<CleaningProblem> only_deep =
      MakeCleaningProblem(*tps, {0.0, 1.0}, profile, 10);
  ASSERT_TRUE(only_deep.ok());
  Result<CleaningProblem> deep =
      MakeCleaningProblem((*tps)[1], profile, 10);
  ASSERT_TRUE(deep.ok());
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    EXPECT_NEAR(only_deep->gain[l], deep->gain[l], kTol);
  }
}

TEST(AggregatedProblem, ValidatesWeights) {
  CleaningProfile profile;
  profile.costs = {1};
  profile.sc_probs = {0.5};
  TpOutput tp;
  tp.xtuple_gain = {-1.0};
  tp.xtuple_topk_mass = {0.5};
  std::vector<TpOutput> tps{tp};
  EXPECT_FALSE(MakeCleaningProblem({}, {}, profile, 10).ok());
  EXPECT_FALSE(MakeCleaningProblem(tps, {0.5, 0.5}, profile, 10).ok());
  EXPECT_FALSE(MakeCleaningProblem(tps, {-1.0}, profile, 10).ok());
  EXPECT_FALSE(MakeCleaningProblem(tps, {0.0}, profile, 10).ok());
  EXPECT_TRUE(MakeCleaningProblem(tps, {2.0}, profile, 10).ok());
}

}  // namespace
}  // namespace uclean
