// Property tests for the SessionPool: every pooled session -- a
// copy-on-write DatabaseOverlay plus a forked PsrEngine::SessionState over
// ONE shared base scan -- must match a from-scratch scan of its own view
// (ComputePsrLadder with ScanRequest::overlay + ComputeTpQualityLadder)
// bit for bit at every rung after every refresh, under interleaved cleans
// across sessions and open/close churn; close-and-merge must materialize
// exactly the database the validating builder derives from the same
// outcomes; the overlay's own outcome recording is validated case by
// case; and dirty-state reads must be a hard failure in EVERY build type
// (the Release-mode stale-read regression).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

/// The acceptance property: pooled session `id` agrees with a from-scratch
/// ladder scan + TP pass over its own view at every rung, bit for bit --
/// qualities, per-x-tuple gain and mass tables, omegas, and per-tuple
/// top-k probabilities.
void ExpectMatchesFromScratch(const SessionPool& pool,
                              SessionPool::SessionId id) {
  const DatabaseOverlay& view = pool.overlay(id);
  Result<std::vector<PsrOutput>> psrs = ScanPsrLadder(view, pool.ladder());
  ASSERT_TRUE(psrs.ok()) << psrs.status();
  Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(view, *psrs);
  ASSERT_TRUE(tps.ok()) << tps.status();
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    const PsrOutput& psr = pool.psr(id, rung);
    const PsrOutput& scratch_psr = (*psrs)[rung];
    EXPECT_EQ(psr.scan_end, scratch_psr.scan_end) << "rung " << rung;
    EXPECT_EQ(psr.num_nonzero, scratch_psr.num_nonzero) << "rung " << rung;
    EXPECT_EQ(psr.topk_prob, scratch_psr.topk_prob) << "rung " << rung;

    const TpOutput& tp = pool.tp(id, rung);
    const TpOutput& scratch_tp = (*tps)[rung];
    EXPECT_EQ(pool.quality(id, rung), scratch_tp.quality) << "rung " << rung;
    EXPECT_EQ(tp.scan_end, scratch_tp.scan_end) << "rung " << rung;
    EXPECT_EQ(tp.omega, scratch_tp.omega) << "rung " << rung;
    EXPECT_EQ(tp.xtuple_gain, scratch_tp.xtuple_gain) << "rung " << rung;
    EXPECT_EQ(tp.xtuple_topk_mass, scratch_tp.xtuple_topk_mass)
        << "rung " << rung;
  }
}

/// The cleaned database the validating builder derives from `base` and
/// `outcomes` (negative resolved id = entity absent), re-sorted from
/// scratch: an independent reference for materialization.
ProbabilisticDatabase BuilderCleaned(
    const ProbabilisticDatabase& base,
    const std::vector<std::pair<XTupleId, TupleId>>& outcomes) {
  DatabaseBuilder builder = DatabaseBuilder::FromDatabase(base);
  for (const auto& [xtuple, resolved_id] : outcomes) {
    const Tuple* survivor = nullptr;
    if (resolved_id >= 0) {
      Result<size_t> rank = base.RankIndexOfTupleId(resolved_id);
      UCLEAN_CHECK(rank.ok());
      survivor = &base.tuple(*rank);
    }
    UCLEAN_CHECK(builder.ReplaceWithCertain(xtuple, survivor).ok());
  }
  Result<ProbabilisticDatabase> db = std::move(builder).Finish();
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Tuple-by-tuple and x-tuple-by-x-tuple comparison of a materialized
/// database against BuilderCleaned's reference. Probabilities and masses
/// compare to a few ulps: the builder re-sums each x-tuple's mass in its
/// own order.
void ExpectSameCleanedDatabase(const ProbabilisticDatabase& merged,
                               const ProbabilisticDatabase& reference) {
  ASSERT_EQ(merged.num_tuples(), reference.num_tuples());
  EXPECT_EQ(merged.num_real_tuples(), reference.num_real_tuples());
  for (size_t i = 0; i < reference.num_tuples(); ++i) {
    const Tuple& a = merged.tuple(i);
    const Tuple& b = reference.tuple(i);
    EXPECT_EQ(a.id, b.id) << "rank " << i;
    EXPECT_EQ(a.xtuple, b.xtuple) << "rank " << i;
    EXPECT_EQ(a.is_null, b.is_null) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.prob, b.prob) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.score, b.score) << "rank " << i;
  }
  ASSERT_EQ(merged.num_xtuples(), reference.num_xtuples());
  for (size_t l = 0; l < reference.num_xtuples(); ++l) {
    const XTupleId x = static_cast<XTupleId>(l);
    EXPECT_EQ(merged.xtuple_members(x), reference.xtuple_members(x))
        << "x-tuple " << l;
    EXPECT_DOUBLE_EQ(merged.xtuple_real_mass(x), reference.xtuple_real_mass(x))
        << "x-tuple " << l;
  }
}

/// Draws up to `count` random clean outcomes against a database or a
/// session's view; empty when it is fully certain.
template <typename Db>
std::vector<std::pair<XTupleId, TupleId>> DrawOutcomes(const Db& db,
                                                       int count, Rng* rng) {
  std::vector<std::pair<XTupleId, TupleId>> outcomes;
  for (int draw = 0; draw < count; ++draw) {
    std::vector<XTupleId> uncertain;
    for (size_t l = 0; l < db.num_xtuples(); ++l) {
      const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
      if (members.size() > 1 || db.tuple(members[0]).prob < 1.0) {
        uncertain.push_back(static_cast<XTupleId>(l));
      }
    }
    if (uncertain.empty()) break;
    const XTupleId l = uncertain[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(uncertain.size()) - 1))];
    bool already = false;
    for (const auto& outcome : outcomes) already |= outcome.first == l;
    if (already) continue;  // one resolution per x-tuple per round
    const auto& members = db.xtuple_members(l);
    std::vector<double> weights;
    for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
    outcomes.emplace_back(l, db.tuple(members[rng->Discrete(weights)]).id);
  }
  return outcomes;
}

TEST(SessionPool, SessionsMatchFromScratchUnderInterleavedCleans) {
  Rng maker(424242);
  RandomDbOptions opts;
  opts.num_xtuples = 24;
  opts.max_alternatives = 4;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({2, 5, 9});
  constexpr size_t kSessions = 3;

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), ladder);
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ(pool->ladder().ks, ladder.ks);

  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) ids.push_back(pool->OpenSession());
  EXPECT_EQ(pool->num_open(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    ExpectMatchesFromScratch(*pool, ids[s]);
  }

  Rng rng(99999);
  for (int step = 0; step < 10; ++step) {
    // Sessions advance on their own cadences (session s only cleans every
    // s+1 steps), so refreshes interleave with other sessions' applies.
    for (size_t s = 0; s < kSessions; ++s) {
      if (step % static_cast<int>(s + 1) != 0) continue;
      const auto outcomes = DrawOutcomes(pool->overlay(ids[s]),
                                         1 + static_cast<int>(s % 2), &rng);
      for (const auto& [xtuple, resolved] : outcomes) {
        ASSERT_TRUE(pool->ApplyCleanOutcome(ids[s], xtuple, resolved).ok());
      }
    }
    // Refresh in reverse order: agreement despite the asymmetry shows
    // refreshes are order-independent across sessions.
    for (size_t s = kSessions; s-- > 0;) {
      ASSERT_TRUE(pool->Refresh(ids[s]).ok());
    }
    for (size_t s = 0; s < kSessions; ++s) {
      ExpectMatchesFromScratch(*pool, ids[s]);
    }
  }
  // The shared base never absorbed anyone's cleans.
  EXPECT_EQ(pool->base().num_tuples(), base.num_tuples());
  for (size_t i = 0; i < base.num_tuples(); ++i) {
    EXPECT_EQ(pool->base().tuple(i).prob, base.tuple(i).prob) << "rank " << i;
  }
}

TEST(SessionPool, ChurnReopensCleanSlots) {
  Rng maker(777);
  RandomDbOptions opts;
  opts.num_xtuples = 16;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({3, 7});

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), ladder);
  ASSERT_TRUE(pool.ok());

  // Dirty a session, close it, and reopen: the recycled slot must serve
  // the pristine base state, not the previous tenant's leftovers.
  const SessionPool::SessionId first = pool->OpenSession();
  Rng rng(31337);
  for (const auto& [xtuple, resolved] : DrawOutcomes(pool->base(), 4, &rng)) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(first, xtuple, resolved).ok());
  }
  ASSERT_TRUE(pool->Refresh(first).ok());
  ASSERT_GT(pool->overlay(first).num_outcomes(), 0u);
  ASSERT_TRUE(pool->Close(first).ok());
  EXPECT_EQ(pool->num_open(), 0u);

  const SessionPool::SessionId reused = pool->OpenSession();
  EXPECT_EQ(reused, first);  // slot recycled
  EXPECT_EQ(pool->overlay(reused).num_outcomes(), 0u);
  for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
    EXPECT_NEAR(pool->quality(reused, rung), pool->base_tp(rung).quality,
                0.0);
  }
  ExpectMatchesFromScratch(*pool, reused);

  // The recycled session keeps matching a from-scratch scan of its view.
  for (int round = 0; round < 4; ++round) {
    for (const auto& [xtuple, resolved] :
         DrawOutcomes(pool->overlay(reused), 2, &rng)) {
      ASSERT_TRUE(pool->ApplyCleanOutcome(reused, xtuple, resolved).ok());
    }
    ASSERT_TRUE(pool->Refresh(reused).ok());
    ExpectMatchesFromScratch(*pool, reused);
  }
}

TEST(SessionPool, CloseAndMergeMatchesTheBuilderRoundTrip) {
  Rng maker(2024);
  RandomDbOptions opts;
  opts.num_xtuples = 14;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), /*k=*/4);
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();

  Rng rng(55);
  const auto outcomes = DrawOutcomes(base, 5, &rng);
  ASSERT_FALSE(outcomes.empty());
  for (const auto& [xtuple, resolved] : outcomes) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(id, xtuple, resolved).ok());
  }
  // Merge the still-dirty session: materialization consumes the recorded
  // outcomes, not the (deliberately stale) scan state.
  ASSERT_TRUE(pool->dirty(id));
  Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(id);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(pool->num_open(), 0u);
  ExpectSameCleanedDatabase(*merged, BuilderCleaned(base, outcomes));
}

TEST(SessionPool, ExecutePlanOverloadMatchesCleaningSession) {
  Rng maker(91);
  RandomDbOptions opts;
  opts.num_xtuples = 10;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  CleaningProfile profile;
  for (size_t l = 0; l < base.num_xtuples(); ++l) {
    profile.costs.push_back(1 + static_cast<int64_t>(l % 3));
    profile.sc_probs.push_back(maker.Uniform(0.2, 0.9));
  }
  std::vector<int64_t> probes(base.num_xtuples(), 0);
  for (size_t l = 0; l < probes.size(); l += 2) probes[l] = 2;

  const size_t k = 3;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(base), k);
    ASSERT_TRUE(pool.ok());
    const SessionPool::SessionId id = pool->OpenSession();
    Result<CleaningSession> session =
        CleaningSession::Start(ProbabilisticDatabase(base), k);
    ASSERT_TRUE(session.ok());

    Rng rng_a(seed), rng_b(seed);
    Result<SessionExecutionReport> pooled =
        ExecutePlan(&*pool, id, profile, probes, &rng_a);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    Result<SessionExecutionReport> single =
        ExecutePlan(&*session, profile, probes, &rng_b);
    ASSERT_TRUE(single.ok());

    EXPECT_EQ(pooled->spent, single->spent);
    EXPECT_EQ(pooled->leftover, single->leftover);
    EXPECT_EQ(pooled->successes, single->successes);
    ASSERT_EQ(pooled->log.size(), single->log.size());
    for (size_t j = 0; j < single->log.size(); ++j) {
      EXPECT_EQ(pooled->log[j].resolved_id, single->log[j].resolved_id);
    }
    EXPECT_EQ(pool->overlay(id).outcomes(), session->db().outcomes());
    ASSERT_TRUE(pool->Refresh(id).ok());
    ASSERT_TRUE(session->Refresh().ok());
    ExpectMatchesFromScratch(*pool, id);
    EXPECT_EQ(pool->quality(id), session->quality());
  }
}

TEST(SessionPool, ValidatesArguments) {
  Rng maker(5);
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, {});

  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), 0).ok());
  KLadder bad;
  bad.ks = {5, 3};
  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), bad).ok());

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), 2);
  ASSERT_TRUE(pool.ok());
  EXPECT_FALSE(pool->ApplyCleanOutcome(0, 0, 0).ok());  // never opened
  EXPECT_FALSE(pool->Refresh(99).ok());
  EXPECT_FALSE(pool->Close(0).ok());
  EXPECT_FALSE(pool->is_open(0));

  const SessionPool::SessionId id = pool->OpenSession();
  EXPECT_TRUE(pool->is_open(id));
  EXPECT_FALSE(pool->ApplyCleanOutcome(id, -1, 0).ok());    // bad x-tuple
  EXPECT_FALSE(pool->ApplyCleanOutcome(id, 0, 9999).ok());  // bad outcome
  ASSERT_TRUE(pool->Close(id).ok());
  EXPECT_FALSE(pool->Close(id).ok());  // double close
  CleaningProfile profile;
  profile.costs.assign(base.num_xtuples(), 1);
  profile.sc_probs.assign(base.num_xtuples(), 0.5);
  std::vector<int64_t> probes(base.num_xtuples(), 1);
  Rng rng(1);
  EXPECT_FALSE(ExecutePlan(&*pool, id, profile, probes, &rng).ok());
}

TEST(DatabaseOverlay, RecordsOutcomesWithoutTouchingTheBase) {
  Rng maker(66);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  opts.max_alternatives = 3;
  const ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  DatabaseOverlay overlay(&base);
  EXPECT_EQ(overlay.divergence_rank(), base.num_tuples());

  // Find an x-tuple with several alternatives; collapse to its best real
  // one.
  XTupleId target = -1;
  for (size_t l = 0; l < base.num_xtuples(); ++l) {
    if (base.xtuple_members(static_cast<XTupleId>(l)).size() > 1) {
      target = static_cast<XTupleId>(l);
      break;
    }
  }
  ASSERT_GE(target, 0);
  const auto members = base.xtuple_members(target);
  const Tuple resolved = base.tuple(members.front());
  ASSERT_FALSE(resolved.is_null);

  Result<DatabaseOverlay::CleanOutcomeDelta> delta =
      overlay.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_FALSE(delta->resolved_null);
  EXPECT_EQ(delta->first_changed_rank, static_cast<size_t>(members.front()));
  EXPECT_EQ(delta->resolved_rank, static_cast<size_t>(members.front()));
  EXPECT_EQ(overlay.divergence_rank(), static_cast<size_t>(members.front()));
  EXPECT_EQ(overlay.num_outcomes(), 1u);
  EXPECT_EQ(overlay.num_tombstones(), members.size() - 1);

  // The overlay view reflects the collapse, rank indices unchanged...
  EXPECT_EQ(overlay.num_tuples(), base.num_tuples());
  ASSERT_EQ(overlay.xtuple_members(target).size(), 1u);
  EXPECT_DOUBLE_EQ(overlay.tuple(static_cast<size_t>(members.front())).prob,
                   1.0);
  EXPECT_DOUBLE_EQ(overlay.xtuple_real_mass(target), 1.0);
  for (int32_t idx : members) {
    if (idx == members.front()) continue;
    EXPECT_TRUE(overlay.is_tombstone(static_cast<size_t>(idx)));
  }
  // ...while the base is untouched.
  EXPECT_EQ(base.xtuple_members(target).size(), members.size());
  EXPECT_LT(base.tuple(members.front()).prob, 1.0);

  // Re-cleaning: same outcome is a no-op, a dropped sibling is NotFound.
  Result<DatabaseOverlay::CleanOutcomeDelta> again =
      overlay.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->first_changed_rank, base.num_tuples());
  EXPECT_EQ(overlay.num_outcomes(), 1u);
  EXPECT_EQ(overlay.ApplyCleanOutcome(target, base.tuple(members[1]).id)
                .status()
                .code(),
            StatusCode::kNotFound);

  // Materialization drops exactly the dead slots and matches the builder
  // round trip.
  const ProbabilisticDatabase merged = overlay.MaterializeCleaned();
  EXPECT_EQ(merged.num_tuples(), base.num_tuples() - (members.size() - 1));
  ExpectSameCleanedDatabase(merged,
                            BuilderCleaned(base, {{target, resolved.id}}));
}

TEST(DatabaseOverlay, ApplyCleanOutcomeValidates) {
  Rng maker(8);
  RandomDbOptions opts;
  opts.num_xtuples = 3;
  opts.allow_subunit_mass = false;  // unit mass: no null alternatives
  const ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  DatabaseOverlay overlay(&base);
  EXPECT_EQ(overlay.ApplyCleanOutcome(-1, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(overlay.ApplyCleanOutcome(99, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(overlay.ApplyCleanOutcome(0, 123456).status().code(),
            StatusCode::kNotFound);
  // Null outcome on a full-mass x-tuple is impossible (probability zero).
  EXPECT_EQ(overlay.ApplyCleanOutcome(0, -1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(overlay.num_outcomes(), 0u);
  EXPECT_EQ(DatabaseOverlay().ApplyCleanOutcome(0, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatabaseOverlay, NullOutcomeCollapsesToCertainNull) {
  DatabaseBuilder b;
  XTupleId x = b.AddXTuple("E");
  ASSERT_TRUE(b.AddAlternative(x, 0, 9.0, 0.3).ok());
  ASSERT_TRUE(b.AddAlternative(x, 1, 4.0, 0.3).ok());  // null mass 0.4
  XTupleId y = b.AddXTuple("F");
  ASSERT_TRUE(b.AddAlternative(y, 2, 6.0, 1.0).ok());
  Result<ProbabilisticDatabase> base = std::move(b).Finish();
  ASSERT_TRUE(base.ok());
  DatabaseOverlay overlay(&*base);

  Result<DatabaseOverlay::CleanOutcomeDelta> delta =
      overlay.ApplyCleanOutcome(x, -1);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta->resolved_null);
  ASSERT_EQ(overlay.xtuple_members(x).size(), 1u);
  const Tuple& survivor = overlay.tuple(overlay.xtuple_members(x)[0]);
  EXPECT_TRUE(survivor.is_null);
  EXPECT_DOUBLE_EQ(survivor.prob, 1.0);
  EXPECT_DOUBLE_EQ(overlay.xtuple_real_mass(x), 0.0);

  // PSR on the view: F's tuple is now certain rank 1.
  Result<PsrOutput> psr = ScanPsr(overlay, 1);
  ASSERT_TRUE(psr.ok());
  const size_t f_rank = *base->RankIndexOfTupleId(2);
  EXPECT_NEAR(psr->topk_at(f_rank), 1.0, kTol);

  const ProbabilisticDatabase merged = overlay.MaterializeCleaned();
  EXPECT_EQ(merged.num_real_tuples(), 1u);  // only F's alternative remains
  EXPECT_EQ(merged.num_tuples(), 2u);       // F's tuple + E's certain null
  ExpectSameCleanedDatabase(merged, BuilderCleaned(*base, {{x, -1}}));
}

// ---------------------------------------------------------------------------
// Cold scans: SessionPool::ScanLadder runs a fresh ladder over a session's
// view, cut at the checkpoints valid for that view as well as at grid
// points. At every width its rungs hold the bits of the one-shot width-1
// ComputePsrLadder over the same view with the pool's PSR options.

/// 1,500 x-tuples x 4 Gaussian bars of mass U[0.3, 0.6]: k = 400 scans
/// past the first 4,096-live grid point, while the checkpoints of ladder
/// {5, 40, 150} end near k = 150's stop.
ProbabilisticDatabase MakeColdScanDb(size_t num_xtuples) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.3;
  opts.real_mass_max = 0.6;
  opts.seed = 3;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Session views over `pool`: pristine, cleaned near rank 0, and cleaned
/// at rank `deep` or below (each clean resolves an x-tuple to its best
/// member, which then saturates there), refreshed.
std::vector<SessionPool::SessionId> OpenColdScanViews(SessionPool* pool,
                                                      size_t deep) {
  const ProbabilisticDatabase& db = pool->base();
  std::vector<SessionPool::SessionId> ids;
  for (size_t depth : {size_t{0}, size_t{3}, deep}) {
    const SessionPool::SessionId id = pool->OpenSession();
    ids.push_back(id);
    if (depth == 0) continue;
    size_t i = depth;
    while (db.xtuple_members(db.tuple(i).xtuple)[0] != static_cast<int32_t>(i)) {
      ++i;
    }
    UCLEAN_CHECK(
        pool->ApplyCleanOutcome(id, db.tuple(i).xtuple, db.tuple(i).id).ok());
    UCLEAN_CHECK(pool->Refresh(id).ok());
    UCLEAN_CHECK(pool->overlay(id).divergence_rank() == i);
  }
  return ids;
}

/// Scans `ks` over session `id`'s view through the pool and one-shot at
/// width 1, expecting the same bits in every rung; returns the pool
/// scan's result.
ScanResult ExpectColdScanMatches(const SessionPool& pool,
                                 SessionPool::SessionId id,
                                 const std::vector<size_t>& ks,
                                 const PsrOptions& psr,
                                 const std::string& label) {
  const KLadder ladder = MakeLadder(ks);
  Result<ScanResult> got = pool.ScanLadder(id, ladder);
  UCLEAN_CHECK(got.ok());
  Result<std::vector<PsrOutput>> want =
      ScanPsrLadder(pool.overlay(id), ladder, psr);
  UCLEAN_CHECK(want.ok());
  EXPECT_EQ(got->num_rungs(), ladder.size()) << label;
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    EXPECT_EQ(RungBitsDiffer(got->output(rung), (*want)[rung]), "")
        << label << " k=" << ladder[rung] << " threads=" << got->threads;
  }
  EXPECT_GE(got->threads, 1u) << label;
  EXPECT_LE(got->threads, pool.exec().num_threads) << label;
  return std::move(got).value();
}

TEST(SessionPoolColdScan, MatchesOneShotScanAtEveryWidth) {
  const ProbabilisticDatabase db = MakeColdScanDb(1500);
  // ks below, at and above the top rung; 400 passes the grid point.
  const std::vector<std::vector<size_t>> ladders = {
      {3}, {20}, {40}, {100}, {150}, {200}, {400}, {3, 100, 400}};
  for (size_t threads : {1, 2, 4}) {
    SessionPool::Options options;
    options.exec.num_threads = threads;
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(db), MakeLadder({5, 40, 150}), options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const size_t top_end = pool->base_psr(2).scan_end;
    ASSERT_LT(top_end, psr_internal::kCountRefreshGridLive);
    const std::vector<SessionPool::SessionId> ids =
        OpenColdScanViews(&*pool, top_end / 2);
    for (size_t v = 0; v < ids.size(); ++v) {
      size_t restore_cut = 0;  // cut scans stopping before any grid point
      size_t grid_cut = 0;     // cut scans passing one
      for (const std::vector<size_t>& ks : ladders) {
        const std::string label = "threads=" + std::to_string(threads) +
                                  " view=" + std::to_string(v);
        const ScanResult got =
            ExpectColdScanMatches(*pool, ids[v], ks, PsrOptions(), label);
        if (got.threads == 1) continue;
        const size_t depth = got.outputs.back().scan_end;
        (depth < psr_internal::kCountRefreshGridLive ? restore_cut
                                                     : grid_cut)++;
      }
      if (threads == 1) continue;
      // Cuts happened at restore points alone (every k up to 200 stops
      // before the grid point) and beside the grid point (k = 400).
      EXPECT_GE(restore_cut, 4u) << "threads=" << threads << " view=" << v;
      EXPECT_EQ(grid_cut, 2u) << "threads=" << threads << " view=" << v;
    }
  }
}

TEST(SessionPoolColdScan, MatchesAtCheckpointIntervalFourWithStoredMatrix) {
  const ProbabilisticDatabase db = MakeColdScanDb(600);
  for (size_t threads : {1, 2, 4}) {
    SessionPool::Options options;
    options.exec.num_threads = threads;
    options.checkpoint_interval = 4;
    options.psr.store_rank_probabilities = true;
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(db), MakeLadder({5, 30}), options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const std::vector<SessionPool::SessionId> ids =
        OpenColdScanViews(&*pool, pool->base_psr(1).scan_end / 2);
    size_t cut = 0;
    for (size_t v = 0; v < ids.size(); ++v) {
      for (const std::vector<size_t>& ks :
           std::vector<std::vector<size_t>>{{3}, {12}, {30}, {45}, {3, 45}}) {
        const ScanResult got = ExpectColdScanMatches(
            *pool, ids[v], ks, options.psr,
            "threads=" + std::to_string(threads) + " view=" + std::to_string(v));
        EXPECT_TRUE(got.outputs.back().has_rank_probabilities);
        cut += got.threads > 1;
      }
    }
    if (threads > 1) {
      EXPECT_GE(cut, 6u) << "threads=" << threads;
    }
  }
}

TEST(SessionPoolDeathTest, DirtyReadsAreAHardFailureInEveryBuildType) {
  // The Release-mode stale-read regression: these guards used to be
  // UCLEAN_DCHECKs, which compile out under NDEBUG -- a dirty session
  // then silently served its pre-clean state. They are UCLEAN_CHECKs now,
  // so this death test must pass in Debug AND Release CI legs alike.
  Rng maker(12);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), 3);
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();
  Rng rng(7);
  const auto outcomes = DrawOutcomes(pool->base(), 1, &rng);
  ASSERT_FALSE(outcomes.empty());
  ASSERT_TRUE(
      pool->ApplyCleanOutcome(id, outcomes[0].first, outcomes[0].second)
          .ok());
  ASSERT_TRUE(pool->dirty(id));
  EXPECT_DEATH(pool->quality(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->tp(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->psr(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->tps(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH((void)pool->ScanLadder(id, MakeLadder({2})),
               "UCLEAN_CHECK failed");

  Result<CleaningSession> session = CleaningSession::Start(std::move(base), 3);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      session->ApplyCleanOutcome(outcomes[0].first, outcomes[0].second).ok());
  ASSERT_TRUE(session->dirty());
  EXPECT_DEATH(session->quality(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->tp(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->psr(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->tps(), "UCLEAN_CHECK failed");
}

#ifndef NDEBUG
/// Two threads hammering a pool's mutating entry points from outside any
/// serialization: the header's "callers serialize access" contract in
/// violated form. The debug-build reentrancy guard must turn the overlap
/// into a hard UCLEAN_CHECK failure (instead of the silent slot-table
/// corruption a release build would risk). Nearly all of each thread's
/// time is spent inside guarded calls (apply + replay-carrying refresh),
/// so an overlap -- and the abort -- is certain within a few scheduler
/// slices even on one core.
TEST(SessionPoolDeathTest, ConcurrentUseTripsTheSerializedCallerGuard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SyntheticOptions opts;
        opts.num_xtuples = 500;
        opts.real_mass_min = 0.4;
        opts.real_mass_max = 0.9;
        Result<ProbabilisticDatabase> base = GenerateSynthetic(opts);
        UCLEAN_CHECK(base.ok());
        Result<SessionPool> pool =
            SessionPool::Create(std::move(base).value(), 8);
        UCLEAN_CHECK(pool.ok());
        const auto hammer = [&pool](uint64_t seed) {
          Rng rng(seed);
          const SessionPool::SessionId id = pool->OpenSession();
          for (int iter = 0; iter < 4000; ++iter) {
            const DatabaseOverlay& view = pool->overlay(id);
            const size_t rank = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.num_tuples() - 1)));
            if (view.is_tombstone(rank)) continue;
            const Tuple& t = view.tuple(rank);
            (void)pool->ApplyCleanOutcome(id, t.xtuple, t.id);
            (void)pool->Refresh(id);
          }
        };
        std::thread other([&hammer] { hammer(2); });
        hammer(1);
        other.join();
      },
      "serialized");
}

/// Same violated contract against a CleaningSession: its
/// serialized-caller guard was promoted from documentation to a
/// SerialGate capability alongside the pool's, so two threads driving
/// one session must abort the same way.
TEST(SessionPoolDeathTest, ConcurrentSessionUseTripsTheSerializedGuard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SyntheticOptions opts;
        opts.num_xtuples = 500;
        opts.real_mass_min = 0.4;
        opts.real_mass_max = 0.9;
        Result<ProbabilisticDatabase> base = GenerateSynthetic(opts);
        UCLEAN_CHECK(base.ok());
        Result<CleaningSession> session =
            CleaningSession::Start(std::move(base).value(), 8);
        UCLEAN_CHECK(session.ok());
        const auto hammer = [&session](uint64_t seed) {
          Rng rng(seed);
          for (int iter = 0; iter < 4000; ++iter) {
            const DatabaseOverlay& view = session->db();
            const size_t rank = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.num_tuples() - 1)));
            if (view.is_tombstone(rank)) continue;
            const Tuple& t = view.tuple(rank);
            (void)session->ApplyCleanOutcome(t.xtuple, t.id);
            (void)session->Refresh();
          }
        };
        std::thread other([&hammer] { hammer(2); });
        hammer(1);
        other.join();
      },
      "serialized");
}
#endif  // NDEBUG

}  // namespace
}  // namespace uclean
