// Tests for the execution subsystem (exec/thread_pool.h) and the sharded
// parallel PSR scan (rank/sharded_scan.h): ParallelFor/TaskGroup
// semantics, ExecOptions validation, and the load-bearing equivalence
// contract -- parallel scans, replays and pooled-session refreshes must
// match the sequential path to 1e-12 (bit-for-bit in practice: shard
// cuts sit on the count-refresh grid, so boundary states share the
// sequential arithmetic lineage) for every thread/shard count, on both
// saturating (unit-mass) and head-mass-stop (sub-unit-mass) workloads.
// Also covers the shard cut-point primitive directly: a scan restarted
// at EVERY checkpoint rank of a scanned database, including ranks past a
// shallow rung's Lemma-2 stop, reproduces the full scan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "test_util.h"
#include "rank/psr_engine.h"
#include "rank/psr_scan_core.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

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

/// A database whose deepest-rung scan crosses several count-refresh grid
/// intervals (kCountRefreshGridLive live tuples each), so the sharded
/// path genuinely cuts; sub-unit masses keep every x-tuple unsaturated
/// (head-mass stop rule, widest count vectors).
ProbabilisticDatabase MakeSubunitDb(size_t num_xtuples = 2000) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.real_mass_min = 0.2;
  opts.real_mass_max = 0.5;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

ProbabilisticDatabase MakeUnitDb(size_t num_xtuples = 2000) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Max abs elementwise difference, with the offending index in
/// *arg_max; one assert per array keeps million-entry comparisons cheap.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b,
                  size_t* arg_max) {
  UCLEAN_CHECK(a.size() == b.size());
  double max_diff = 0.0;
  *arg_max = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] < b[i] ? b[i] - a[i] : a[i] - b[i];
    if (diff > max_diff) {
      max_diff = diff;
      *arg_max = i;
    }
  }
  return max_diff;
}

void ExpectPsrEqual(const PsrOutput& seq, const PsrOutput& par,
                    const std::string& label) {
  ASSERT_EQ(seq.k, par.k) << label;
  EXPECT_EQ(seq.scan_end, par.scan_end) << label;
  EXPECT_EQ(seq.num_nonzero, par.num_nonzero) << label;
  size_t at = 0;
  ASSERT_LE(MaxAbsDiff(seq.topk_prob, par.topk_prob, &at), kTol)
      << label << " topk_prob at tuple " << at;
  ASSERT_LE(MaxAbsDiff(seq.best_rank_prob, par.best_rank_prob, &at), kTol)
      << label << " best_rank_prob at rank " << at + 1;
  for (size_t h = 0; h < seq.k; ++h) {
    EXPECT_EQ(seq.best_rank_index[h], par.best_rank_index[h])
        << label << " rank " << h + 1;
  }
  ASSERT_EQ(seq.has_rank_probabilities, par.has_rank_probabilities) << label;
  if (seq.has_rank_probabilities) {
    ASSERT_LE(MaxAbsDiff(seq.rank_prob, par.rank_prob, &at), kTol)
        << label << " rank_prob at entry " << at;
  }
}

void ExpectTpEqual(const TpOutput& seq, const TpOutput& par,
                   const std::string& label) {
  EXPECT_NEAR(seq.quality, par.quality, kTol) << label;
  EXPECT_EQ(seq.scan_end, par.scan_end) << label;
  size_t at = 0;
  ASSERT_LE(MaxAbsDiff(seq.xtuple_gain, par.xtuple_gain, &at), kTol)
      << label << " xtuple_gain at " << at;
  ASSERT_LE(MaxAbsDiff(seq.xtuple_topk_mass, par.xtuple_topk_mass, &at), kTol)
      << label << " xtuple_topk_mass at " << at;
}

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEdgeCases) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
  // Fewer items than threads.
  count = 0;
  pool.ParallelFor(2, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 2);
  // A single-thread pool runs inline.
  ThreadPool inline_pool(1);
  count = 0;
  inline_pool.ParallelFor(100, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TaskGroupRunsAllTasksAndNestedWorkRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  {
    ThreadPool::TaskGroup group(&pool);
    for (int t = 0; t < 16; ++t) {
      group.Run([&] {
        ++outer;
        // Nested parallelism from a worker degrades to inline execution
        // instead of deadlocking the fixed-size pool.
        pool.ParallelFor(8, [&](size_t) { ++inner; });
      });
    }
    group.Wait();
  }
  EXPECT_EQ(outer.load(), 16);
  EXPECT_EQ(inner.load(), 16 * 8);
  // A null-pool group is the sequential path.
  ThreadPool::TaskGroup seq_group(nullptr);
  int calls = 0;
  seq_group.Run([&] { ++calls; });
  seq_group.Wait();
  EXPECT_EQ(calls, 1);
}

TEST(ExecOptionsTest, ResolveExecValidates) {
  ExecOptions zero;
  zero.num_threads = 0;
  EXPECT_FALSE(ResolveExec(zero).ok());
  ExecOptions too_many;
  too_many.num_threads = ThreadPool::kMaxThreads + 1;
  EXPECT_FALSE(ResolveExec(too_many).ok());

  Result<ExecOptions> one = ResolveExec(ExecOptions{});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->pool, nullptr);  // sequential: no pool, no threads
  EXPECT_FALSE(one->parallel());

  ExecOptions four;
  four.num_threads = 4;
  Result<ExecOptions> resolved = ResolveExec(four);
  ASSERT_TRUE(resolved.ok());
  ASSERT_NE(resolved->pool, nullptr);
  EXPECT_EQ(resolved->pool->num_threads(), 4u);
  EXPECT_TRUE(resolved->parallel());

  // A pre-built pool is kept and num_threads aligned to it.
  ExecOptions preset;
  preset.num_threads = 99;
  preset.pool = resolved->pool;
  Result<ExecOptions> kept = ResolveExec(preset);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->pool, resolved->pool);
  EXPECT_EQ(kept->num_threads, 4u);
}

// ------------------------------------------------- sharded equivalence

TEST(ShardedScanTest, OneShotLadderMatchesSequentialAcrossThreadCounts) {
  const KLadder ladder = MakeLadder({16, 256, 512});
  for (const bool subunit : {true, false}) {
    const ProbabilisticDatabase db = subunit ? MakeSubunitDb() : MakeUnitDb();
    Result<std::vector<PsrOutput>> seq = ScanPsrLadder(db, ladder);
    ASSERT_TRUE(seq.ok()) << seq.status();
    // The deep rungs must cross the refresh grid or no cuts exist and
    // the test exercises nothing.
    ASSERT_GT(seq->back().scan_end, psr_internal::kCountRefreshGridLive);
    for (const size_t threads : {2u, 3u, 8u}) {
      Result<std::vector<PsrOutput>> par =
          ScanPsrLadder(db, ladder, {}, Threads(threads));
      ASSERT_TRUE(par.ok()) << par.status();
      for (size_t j = 0; j < ladder.size(); ++j) {
        ExpectPsrEqual(
            (*seq)[j], (*par)[j],
            (subunit ? "subunit" : "unit") + std::string(" threads=") +
                std::to_string(threads) + " k=" +
                std::to_string(ladder[j]));
      }
    }
  }
}

TEST(ShardedScanTest, MatrixAndArgmaxesMatchWithStoredProbabilities) {
  const ProbabilisticDatabase db = MakeSubunitDb(1200);
  const KLadder ladder = MakeLadder({8, 96});
  PsrOptions options;
  options.store_rank_probabilities = true;
  Result<std::vector<PsrOutput>> seq = ScanPsrLadder(db, ladder, options);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_GT(seq->back().scan_end, psr_internal::kCountRefreshGridLive);
  Result<std::vector<PsrOutput>> par =
      ScanPsrLadder(db, ladder, options, Threads(4));
  ASSERT_TRUE(par.ok()) << par.status();
  for (size_t j = 0; j < ladder.size(); ++j) {
    ExpectPsrEqual((*seq)[j], (*par)[j],
                   "matrix k=" + std::to_string(ladder[j]));
  }
}

/// Interleaves cleans and refreshes on a parallel-exec session and a
/// sequential one fed identical outcomes; every refresh must land both
/// sessions on the same maintained PSR + TP state at every rung.
TEST(ShardedScanTest, SessionReplaysMatchSequentialUnderCleans) {
  const ProbabilisticDatabase db = MakeSubunitDb();
  const KLadder ladder = MakeLadder({16, 384});

  CleaningSession::Options par_options;
  par_options.exec.num_threads = 8;
  Result<CleaningSession> seq =
      CleaningSession::Start(ProbabilisticDatabase(db), ladder);
  Result<CleaningSession> par = CleaningSession::Start(
      ProbabilisticDatabase(db), ladder, par_options);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();

  Rng rng(20260728);
  for (int round = 0; round < 4; ++round) {
    // A couple of cleans per round, drawn inside the scanned region so
    // the replay suffix is non-trivial; resolve by the existential
    // distribution (sometimes to absent). The scan depth is read once up
    // front -- psr() on a dirty session is a hard failure by contract.
    const size_t scan_end = seq->psr(ladder.size() - 1).scan_end;
    for (int c = 0; c < 2; ++c) {
      const size_t rank = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scan_end - 1)));
      if (seq->db().is_tombstone(rank)) continue;
      const Tuple& t = seq->db().tuple(rank);
      const TupleId resolved = rng.Bernoulli(0.3) ? TupleId{-1} : t.id;
      Status s1 = seq->ApplyCleanOutcome(t.xtuple, resolved);
      Status s2 = par->ApplyCleanOutcome(t.xtuple, resolved);
      ASSERT_EQ(s1.ok(), s2.ok());
    }
    ASSERT_TRUE(seq->Refresh().ok());
    ASSERT_TRUE(par->Refresh().ok());
    for (size_t j = 0; j < ladder.size(); ++j) {
      const std::string label =
          "round " + std::to_string(round) + " k=" + std::to_string(ladder[j]);
      ExpectPsrEqual(seq->psr(j), par->psr(j), label);
      ExpectTpEqual(seq->tp(j), par->tp(j), label);
    }
  }
}

// ------------------------------------- checkpoint cut-point coverage

/// The shard primitive, exercised at every restore point a session has:
/// a scan restarted from the checkpoint at rank p (ScanFrom(p) via
/// ReplaySession over an unchanged view) must reproduce the full scan's
/// output at every rung -- including checkpoints ranked past the
/// shallow rung's Lemma-2 stop, where the restart must leave that
/// rung's latched output untouched.
TEST(ShardedScanTest, ScanFromEveryCheckpointRankMatchesFullScan) {
  const ProbabilisticDatabase db = MakeSubunitDb(800);
  const KLadder ladder = MakeLadder({4, 160});
  // With the matrix on, a restart also re-derives the per-rank argmaxes
  // (through the pool-fanned FinalizeAggregates), so the comparison
  // covers every aggregate; without it a replay resets them by contract.
  PsrOptions options;
  options.store_rank_probabilities = true;
  const DatabaseOverlay unchanged(&db);
  for (const size_t threads : {1u, 4u}) {
    ScanRequest request;
    request.ladder = ladder;
    request.psr = options;
    request.exec = Threads(threads);
    Result<PsrEngine> engine = PsrEngine::Create(db, request);
    ASSERT_TRUE(engine.ok()) << engine.status();
    // The engine's sole session holds every checkpoint, as in a
    // CleaningSession.
    const PsrEngine::SessionState state = engine->TakeSoleSession();
    const std::vector<size_t> positions = state.checkpoint_positions();
    ASSERT_GT(positions.size(), 4u);
    // The shallow rung stops early; the deep rung keeps checkpointing
    // past it, so restarts beyond a latched rung are really covered.
    const size_t shallow_end = state.output(0).scan_end;
    ASSERT_LT(shallow_end, state.output(1).scan_end);
    ASSERT_GT(positions.back(), shallow_end);
    for (const size_t pos : positions) {
      PsrEngine::SessionState restarted = state;  // fresh copy per rank
      ASSERT_TRUE(engine->ReplaySession(unchanged, pos, &restarted).ok())
          << "restart at " << pos;
      for (size_t j = 0; j < ladder.size(); ++j) {
        ExpectPsrEqual(state.output(j), restarted.output(j),
                       "threads=" + std::to_string(threads) + " restart at " +
                           std::to_string(pos) + " k=" +
                           std::to_string(ladder[j]));
      }
    }
  }
}

// --------------------------------------------- pooled refresh fan-out

TEST(SessionPoolParallelTest, RefreshAllMatchesIndividualAndDedicated) {
  const ProbabilisticDatabase db = MakeSubunitDb(1200);
  const KLadder ladder = MakeLadder({8, 192});
  constexpr size_t kSessions = 4;

  SessionPool::Options par_options;
  par_options.exec.num_threads = 4;
  Result<SessionPool> par =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, par_options);
  Result<SessionPool> seq =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  ASSERT_TRUE(par.ok()) << par.status();
  ASSERT_TRUE(seq.ok()) << seq.status();

  std::vector<SessionPool::SessionId> par_ids, seq_ids;
  std::vector<CleaningSession> dedicated;
  for (size_t s = 0; s < kSessions; ++s) {
    par_ids.push_back(par->OpenSession());
    seq_ids.push_back(seq->OpenSession());
    Result<CleaningSession> session =
        CleaningSession::Start(ProbabilisticDatabase(db), ladder);
    ASSERT_TRUE(session.ok()) << session.status();
    dedicated.push_back(std::move(session).value());
  }

  Rng rng(777);
  for (int round = 0; round < 3; ++round) {
    // Distinct per-session outcome streams; session kSessions - 1 stays
    // clean in round 1 so RefreshAll also covers the mixed dirty/clean
    // case.
    for (size_t s = 0; s < kSessions; ++s) {
      if (round == 1 && s == kSessions - 1) continue;
      const size_t scan_end = dedicated[s].psr(ladder.size() - 1).scan_end;
      const size_t rank = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scan_end - 1)));
      const DatabaseOverlay& view = par->overlay(par_ids[s]);
      if (view.is_tombstone(rank)) continue;
      const Tuple& t = view.tuple(rank);
      // All three arms must agree on whether the outcome is applicable
      // (an x-tuple may already be certain from an earlier round).
      const bool par_ok =
          par->ApplyCleanOutcome(par_ids[s], t.xtuple, t.id).ok();
      const bool seq_ok =
          seq->ApplyCleanOutcome(seq_ids[s], t.xtuple, t.id).ok();
      const bool ded_ok = dedicated[s].ApplyCleanOutcome(t.xtuple, t.id).ok();
      ASSERT_EQ(par_ok, ded_ok);
      ASSERT_EQ(seq_ok, ded_ok);
    }
    // One concurrent fan-out vs per-session refreshes vs dedicated
    // sessions: all three must land on identical state.
    ASSERT_TRUE(par->RefreshAll().ok());
    for (size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(seq->Refresh(seq_ids[s]).ok());
      ASSERT_TRUE(dedicated[s].Refresh().ok());
    }
    for (size_t s = 0; s < kSessions; ++s) {
      for (size_t j = 0; j < ladder.size(); ++j) {
        const std::string label = "round " + std::to_string(round) +
                                  " session " + std::to_string(s) + " k=" +
                                  std::to_string(ladder[j]);
        ExpectPsrEqual(seq->psr(seq_ids[s], j), par->psr(par_ids[s], j),
                       label);
        ExpectTpEqual(dedicated[s].tp(j), par->tp(par_ids[s], j), label);
        EXPECT_NEAR(dedicated[s].quality(j), par->quality(par_ids[s], j),
                    kTol)
            << label;
      }
    }
  }
  // RefreshAll on an all-clean pool is a no-op.
  ASSERT_TRUE(par->RefreshAll().ok());
}

}  // namespace
}  // namespace uclean
