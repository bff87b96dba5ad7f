// Lemma-2-sized rungs. By Lemma 2 every tuple at or past a rung's stop
// point has top-k probability 0, so every PsrOutput and TpOutput holds
// exactly its live prefix: topk_prob.size() == scan_end, rank_prob.size()
// == scan_end * k when the matrix is stored, omega.size() == scan_end.
// Each test drives one producer of rungs and checks every rung it returns
// or maintains: one-shot ladder scans at 1, 2 and 4 threads (deep enough
// to shard, over databases and dirty views), the engine's base scan, its
// forks and its replays across cleans that move a rung's stop backward
// and forward, CleaningSession::Refresh, and the TP ladder with its delta
// pass. (The snapshot round trip is held to the same sizes in
// snapshot_test.cc.) The last tests feed the replay and the delta pass
// state from another database, which only the recorded tuple counts
// expose: the rungs' lengths fit inside either database.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "clean/session.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "rank/psr_scan_core.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

ExecOptions Threads(size_t n) {
  ExecOptions exec;
  exec.num_threads = n;
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  UCLEAN_CHECK(resolved.ok());
  return std::move(resolved).value();
}

/// 2,000 x-tuples of sub-unit mass: a k = 384 scan runs past the first
/// count-refresh grid cut, so wider execs shard it, and stops well short
/// of the database.
ProbabilisticDatabase MakeDeepDb() {
  SyntheticOptions opts;
  opts.num_xtuples = 2000;
  opts.real_mass_min = 0.2;
  opts.real_mass_max = 0.5;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// A unit-mass random database of `num_xtuples` x-tuples.
ProbabilisticDatabase MakeUnitDb(uint64_t seed, size_t num_xtuples) {
  Rng rng(seed);
  RandomDbOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.max_alternatives = 4;
  opts.allow_subunit_mass = false;
  return MakeRandomDatabase(&rng, opts);
}

/// Every rung of `outs` is sized for `n` tuples; `where` names the driver.
void ExpectSized(const std::vector<PsrOutput>& outs, size_t n,
                 const std::string& where) {
  for (const PsrOutput& out : outs) {
    EXPECT_EQ(RungSizeError(out, n), "") << where << " k=" << out.k;
  }
}

void ExpectSized(const std::vector<TpOutput>& tps,
                 const std::vector<PsrOutput>& psrs, const std::string& where) {
  ASSERT_EQ(tps.size(), psrs.size()) << where;
  for (size_t j = 0; j < tps.size(); ++j) {
    EXPECT_EQ(TpSizeError(tps[j], psrs[j]), "") << where << " k=" << psrs[j].k;
  }
}

TEST(RungSize, OneShotLadderScansAtEveryWidth) {
  const ProbabilisticDatabase db = MakeDeepDb();
  const size_t n = db.num_tuples();
  const KLadder ladder = MakeLadder({16, 384});
  // A dirty view: every tombstone ranked above a stop is a +0.0 entry.
  DatabaseOverlay view(&db);
  for (XTupleId l : {0, 5, 40, 300}) {
    const int32_t last = db.xtuple_members(l).back();
    ASSERT_TRUE(view.ApplyCleanOutcome(l, db.tuple(last).id).ok());
  }
  for (size_t threads : {1, 2, 4}) {
    const std::string where = std::to_string(threads) + " threads";
    Result<std::vector<PsrOutput>> scan =
        ScanPsrLadder(db, ladder, {}, Threads(threads));
    ASSERT_TRUE(scan.ok()) << scan.status();
    ExpectSized(*scan, n, where);
    // Deep enough to cut, and a tail was left out.
    EXPECT_GT(scan->back().scan_end, psr_internal::kCountRefreshGridLive);
    EXPECT_LT(scan->back().scan_end, n);

    Result<std::vector<PsrOutput>> dirty =
        ScanPsrLadder(view, ladder, {}, Threads(threads));
    ASSERT_TRUE(dirty.ok()) << dirty.status();
    ExpectSized(*dirty, n, where + " over a dirty view");

    Result<std::vector<TpOutput>> tps =
        ComputeTpQualityLadder(view, *dirty, Threads(threads));
    ASSERT_TRUE(tps.ok()) << tps.status();
    ExpectSized(*tps, *dirty, where + " TP over a dirty view");
  }
  // A stored matrix, and a scan with no stop: every rank is its prefix.
  PsrOptions options;
  options.store_rank_probabilities = true;
  Result<std::vector<PsrOutput>> matrix =
      ScanPsrLadder(view, MakeLadder({4, 40}), options, Threads(4));
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  ExpectSized(*matrix, n, "stored matrix");
  options = PsrOptions();
  options.early_termination = false;
  Result<std::vector<PsrOutput>> whole =
      ScanPsrLadder(view, MakeLadder({4}), options, Threads(2));
  ASSERT_TRUE(whole.ok()) << whole.status();
  ExpectSized(*whole, n, "no early termination");
  EXPECT_EQ(whole->front().topk_prob.size(), n);
}

/// Sub-unit mass, where the head-mass stop rules: cleaning an x-tuple to
/// its best member stops some rung sooner, cleaning it to absent later.
ProbabilisticDatabase MakeMovingStopDb() {
  SyntheticOptions opts;
  opts.num_xtuples = 60;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.5;
  opts.real_mass_max = 0.9;
  opts.seed = 17;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

TEST(RungSize, EngineForksAndReplaysAcrossMovingStops) {
  const ProbabilisticDatabase db = MakeMovingStopDb();
  const size_t n = db.num_tuples();
  for (bool matrix : {false, true}) {
    const std::string mode = matrix ? "matrix" : "no matrix";
    ScanRequest request;
    request.ladder = MakeLadder({3, 8});
    request.psr.store_rank_probabilities = matrix;
    request.checkpoint_interval = 4;  // replays restore mid-prefix
    Result<PsrEngine> engine = PsrEngine::Create(db, request);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ExpectSized(engine->outputs(), n, mode + " base scan");
    Result<std::vector<TpOutput>> base_tps =
        ComputeTpQualityLadder(db, engine->outputs());
    ASSERT_TRUE(base_tps.ok()) << base_tps.status();
    ExpectSized(*base_tps, engine->outputs(), mode + " base TP");

    bool moved_back = false;
    bool moved_forward = false;
    for (size_t l = 0; l < db.num_xtuples(); ++l) {
      const auto x = static_cast<XTupleId>(l);
      const auto other = static_cast<XTupleId>((l + 1) % db.num_xtuples());
      const auto best = [&db](XTupleId xtuple) {
        return db.tuple(db.xtuple_members(xtuple).front()).id;
      };
      for (bool sooner : {true, false}) {
        const std::string where = mode + " x-tuple " + std::to_string(l) +
                                  (sooner ? " to its best" : " to absent");
        PsrEngine::SessionState state = engine->ForkSession();
        ExpectSized(state.outputs(), n, where + " fork");
        std::vector<TpOutput> tps = *base_tps;
        DatabaseOverlay overlay(&db);
        // This clean, then one that moves the stops the other way: the
        // second replay starts from the first one's resized rungs.
        const TupleId absent = -1;
        for (const auto& [xtuple, resolved] :
             {std::pair{x, sooner ? best(x) : absent},
              std::pair{other, sooner ? absent : best(other)}}) {
          Result<DatabaseOverlay::CleanOutcomeDelta> delta =
              overlay.ApplyCleanOutcome(xtuple, resolved);
          ASSERT_TRUE(delta.ok()) << delta.status();
          const size_t begin = delta->first_changed_rank;
          ASSERT_TRUE(engine->ReplaySession(overlay, begin, &state).ok());
          ExpectSized(state.outputs(), n, where + " replay");
          ASSERT_TRUE(
              UpdateTpQualityLadder(overlay, state.outputs(), begin, &tps)
                  .ok());
          ExpectSized(tps, state.outputs(), where + " delta TP");
          Result<std::vector<PsrOutput>> scratch =
              ScanPsrLadder(overlay, request.ladder, request.psr);
          ASSERT_TRUE(scratch.ok()) << scratch.status();
          for (size_t j = 0; j < request.ladder.size(); ++j) {
            EXPECT_EQ(state.output(j).topk_prob, (*scratch)[j].topk_prob)
                << where;
            EXPECT_EQ(state.output(j).rank_prob, (*scratch)[j].rank_prob)
                << where;
            moved_back |= state.output(j).scan_end < engine->output(j).scan_end;
            moved_forward |=
                state.output(j).scan_end > engine->output(j).scan_end;
          }
        }
      }
    }
    EXPECT_TRUE(moved_back) << mode << ": no clean stopped a rung sooner";
    EXPECT_TRUE(moved_forward) << mode << ": no clean stopped a rung later";
  }
}

TEST(RungSize, CleaningSessionRefresh) {
  Rng maker(41);
  RandomDbOptions opts;
  opts.num_xtuples = 60;
  opts.max_alternatives = 4;
  const ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  const size_t n = db.num_tuples();
  Result<CleaningSession> session =
      CleaningSession::Start(ProbabilisticDatabase(db), MakeLadder({3, 10}));
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(7);
  for (size_t round = 0; round < 10; ++round) {
    const std::string where = "round " + std::to_string(round);
    std::vector<PsrOutput> psrs;
    for (size_t j = 0; j < session->num_rungs(); ++j) {
      psrs.push_back(session->psr(j));
    }
    ExpectSized(psrs, n, where);
    ExpectSized(session->tps(), psrs, where);
    // Three fresh x-tuples per round, each to a random member or absent.
    for (size_t c = 0; c < 3; ++c) {
      const auto x = static_cast<XTupleId>(3 * round + c);
      const std::vector<int32_t>& members = db.xtuple_members(x);
      const Tuple& pick = db.tuple(members[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(members.size()) - 1))]);
      ASSERT_TRUE(
          session->ApplyCleanOutcome(x, pick.is_null ? -1 : pick.id).ok());
    }
    ASSERT_TRUE(session->Refresh().ok());
  }
}

// ------------------------------------------------------------ the guards

/// Two unit-mass databases with the same x-tuple count whose tuple
/// counts differ, the first the smaller: its rungs' scan_end fits inside
/// the second, so only a recorded tuple count tells them apart.
std::pair<ProbabilisticDatabase, ProbabilisticDatabase> TwoDatabases() {
  ProbabilisticDatabase small = MakeUnitDb(11, 30);
  for (uint64_t seed = 12;; ++seed) {
    ProbabilisticDatabase large = MakeUnitDb(seed, 30);
    if (large.num_tuples() > small.num_tuples()) {
      return {std::move(small), std::move(large)};
    }
  }
}

TEST(RungSizeGuards, ReplayRejectsAStateFromAnotherDatabase) {
  const auto [small, large] = TwoDatabases();
  Result<ScanRequest> request = ScanRequest::ForLadder({2, 5});
  ASSERT_TRUE(request.ok());
  Result<PsrEngine> small_engine = PsrEngine::Create(small, *request);
  Result<PsrEngine> large_engine = PsrEngine::Create(large, *request);
  ASSERT_TRUE(small_engine.ok() && large_engine.ok());

  PsrEngine::SessionState state = small_engine->ForkSession();
  ASSERT_LE(state.outputs().back().scan_end, large.num_tuples());
  const DatabaseOverlay large_view(&large);
  const Status status = large_engine->ReplaySession(large_view, 0, &state);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "session state does not match the overlay's base database");
  // Its own database's view takes it.
  const DatabaseOverlay small_view(&small);
  EXPECT_TRUE(small_engine->ReplaySession(small_view, 0, &state).ok());
}

TEST(RungSizeGuards, TpDeltaRejectsRungsFromAnotherDatabase) {
  const auto [small, large] = TwoDatabases();
  ASSERT_EQ(small.num_xtuples(), large.num_xtuples());
  const KLadder ladder = MakeLadder({2, 5});
  Result<std::vector<PsrOutput>> small_psrs = ScanPsrLadder(small, ladder);
  Result<std::vector<PsrOutput>> large_psrs = ScanPsrLadder(large, ladder);
  ASSERT_TRUE(small_psrs.ok() && large_psrs.ok());
  Result<std::vector<TpOutput>> small_tps =
      ComputeTpQualityLadder(small, *small_psrs);
  Result<std::vector<TpOutput>> large_tps =
      ComputeTpQualityLadder(large, *large_psrs);
  ASSERT_TRUE(small_tps.ok() && large_tps.ok());

  const DatabaseOverlay large_view(&large);
  const std::string mismatch =
      "TP/PSR state does not match the database (tuple count mismatch)";
  // The small database's PSR ladder beside the large one's TP ladder...
  std::vector<TpOutput> tps = *large_tps;
  Status status = UpdateTpQualityLadder(large_view, *small_psrs, 0, &tps);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), mismatch);
  // ... and the large one's PSR ladder beside the small one's TP ladder,
  // whose x-tuple count matches.
  tps = *small_tps;
  status = UpdateTpQualityLadder(large_view, *large_psrs, 0, &tps);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), mismatch);
  // The matching pair passes.
  tps = *large_tps;
  EXPECT_TRUE(UpdateTpQualityLadder(large_view, *large_psrs, 0, &tps).ok());
}

}  // namespace
}  // namespace uclean
