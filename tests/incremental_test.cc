// Property tests for the incremental cleaning engine: random sequences of
// clean outcomes recorded in a CleaningSession's overlay and brought
// forward by PsrEngine::ReplaySession + delta TP must match a from-scratch
// scan + ComputeTpQuality of the same view to 1e-12 at every step, and
// agree with the historical builder round-trip. The pinned fingerprints
// at the end hold the cleaned databases and quality trajectories to the
// exact bits the former in-place implementation (tombstones and lazy
// compaction inside ProbabilisticDatabase) produced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/session.h"
#include "clean/session_pool.h"
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

/// Checks the session's maintained PSR + TP state against a from-scratch
/// recomputation over the session's own view.
void ExpectMatchesFromScratch(const CleaningSession& session) {
  const DatabaseOverlay& db = session.db();
  PsrOptions options;
  options.store_rank_probabilities = session.psr().has_rank_probabilities;
  Result<PsrOutput> psr = ScanPsr(db, session.k(), options);
  ASSERT_TRUE(psr.ok()) << psr.status();

  const PsrOutput& inc = session.psr();
  ASSERT_EQ(inc.topk_prob.size(), psr->topk_prob.size());
  EXPECT_EQ(inc.scan_end, psr->scan_end);
  EXPECT_EQ(inc.num_nonzero, psr->num_nonzero);
  for (size_t i = 0; i < psr->topk_prob.size(); ++i) {
    EXPECT_NEAR(inc.topk_prob[i], psr->topk_prob[i], kTol) << "tuple " << i;
  }
  if (options.store_rank_probabilities) {
    for (size_t i = 0; i < psr->topk_prob.size(); ++i) {
      for (size_t h = 1; h <= session.k(); ++h) {
        EXPECT_NEAR(inc.rank_probability(i, h), psr->rank_probability(i, h),
                    kTol)
            << "tuple " << i << " rank " << h;
      }
    }
    for (size_t h = 0; h < session.k(); ++h) {
      EXPECT_NEAR(inc.best_rank_prob[h], psr->best_rank_prob[h], kTol);
      EXPECT_EQ(inc.best_rank_index[h], psr->best_rank_index[h]);
    }
  }

  Result<TpOutput> tp = ComputeTpQuality(db, *psr);
  ASSERT_TRUE(tp.ok()) << tp.status();
  EXPECT_NEAR(session.tp().quality, tp->quality, kTol);
  ASSERT_EQ(session.tp().xtuple_gain.size(), tp->xtuple_gain.size());
  for (size_t l = 0; l < tp->xtuple_gain.size(); ++l) {
    EXPECT_NEAR(session.tp().xtuple_gain[l], tp->xtuple_gain[l], kTol)
        << "x-tuple " << l;
    EXPECT_NEAR(session.tp().xtuple_topk_mass[l], tp->xtuple_topk_mass[l],
                kTol)
        << "x-tuple " << l;
  }
  for (size_t i = 0; i < tp->omega.size(); ++i) {
    EXPECT_NEAR(session.tp().omega[i], tp->omega[i], kTol) << "tuple " << i;
  }

  // The historical path: rebuild through the validating builder and
  // recompute. The rebuilt database has its own (compacted) indexing, so
  // compare the order-independent aggregates.
  Result<ProbabilisticDatabase> rebuilt =
      std::move(DatabaseBuilder::FromDatabase(db.MaterializeCleaned()))
          .Finish();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  Result<TpOutput> rebuilt_tp = ComputeTpQuality(*rebuilt, session.k());
  ASSERT_TRUE(rebuilt_tp.ok()) << rebuilt_tp.status();
  EXPECT_NEAR(session.tp().quality, rebuilt_tp->quality, kTol);
  for (size_t l = 0; l < tp->xtuple_gain.size(); ++l) {
    EXPECT_NEAR(session.tp().xtuple_gain[l], rebuilt_tp->xtuple_gain[l], kTol);
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

struct SweepParam {
  int seed;
  size_t k;
  bool store_matrix;
};

TEST(IncrementalDense, MidScanCheckpointRestoreAndThinning) {
  // A database large enough (and sub-unit enough, so the Lemma-2 stop
  // stays away) that the scan spans many checkpoints; interval 1 forces
  // the thinning path (capacity kMaxCheckpoints) and cleans restore
  // mid-scan snapshots rather than replaying from rank 0.
  Rng maker(271828);
  RandomDbOptions opts;
  opts.num_xtuples = 150;
  opts.max_alternatives = 4;
  opts.allow_subunit_mass = true;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);

  CleaningSession::Options options;
  options.checkpoint_interval = 1;
  Result<CleaningSession> session =
      CleaningSession::Start(std::move(db), /*k=*/9, options);
  ASSERT_TRUE(session.ok()) << session.status();
  ExpectMatchesFromScratch(*session);

  Rng rng(314159);
  for (int step = 0; step < 25; ++step) {
    const int batch = static_cast<int>(rng.UniformInt(1, 2));
    bool any = false;
    for (int b = 0; b < batch; ++b) any |= ApplyRandomOutcome(&*session, &rng);
    ASSERT_TRUE(session->Refresh().ok());
    ExpectMatchesFromScratch(*session);
    if (!any) break;
  }
}

class IncrementalSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IncrementalSweep, MatchesFromScratchAtEveryStep) {
  const SweepParam param = GetParam();
  Rng maker(static_cast<uint64_t>(param.seed));
  RandomDbOptions opts;
  opts.num_xtuples = 24;
  opts.max_alternatives = 4;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);

  CleaningSession::Options options;
  options.psr.store_rank_probabilities = param.store_matrix;
  Result<CleaningSession> session =
      CleaningSession::Start(std::move(db), param.k, options);
  ASSERT_TRUE(session.ok()) << session.status();
  ExpectMatchesFromScratch(*session);

  Rng rng(static_cast<uint64_t>(param.seed) + 1000);
  for (int step = 0; step < 40; ++step) {
    // Batch one to three outcomes per refresh, like an adaptive round.
    const int batch = static_cast<int>(rng.UniformInt(1, 3));
    bool any = false;
    for (int b = 0; b < batch; ++b) any |= ApplyRandomOutcome(&*session, &rng);
    ASSERT_TRUE(session->Refresh().ok());
    ExpectMatchesFromScratch(*session);
    if (!any) break;  // fully certain: nothing left to clean
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, IncrementalSweep,
    ::testing::Values(SweepParam{11, 3, true}, SweepParam{22, 1, false},
                      SweepParam{22, 7, false}, SweepParam{33, 5, true},
                      SweepParam{44, 2, false}),
    [](const auto& info) {
      const SweepParam& p = info.param;
      return "s" + std::to_string(p.seed) + "k" + std::to_string(p.k) +
             (p.store_matrix ? "mat" : "nomat");
    });

TEST(PsrEngine, CreateMatchesComputePsr) {
  Rng maker(55);
  RandomDbOptions opts;
  opts.num_xtuples = 16;
  opts.max_alternatives = 4;
  for (int trial = 0; trial < 5; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
    for (size_t k : {1u, 4u, 9u}) {
      PsrOptions options;
      options.store_rank_probabilities = true;
      Result<ScanRequest> request = ScanRequest::ForK(k, options);
      ASSERT_TRUE(request.ok());
      Result<PsrEngine> engine = PsrEngine::Create(db, *request);
      ASSERT_TRUE(engine.ok()) << engine.status();
      Result<PsrOutput> scratch = ScanPsr(db, k, options);
      ASSERT_TRUE(scratch.ok());
      EXPECT_EQ(engine->output().scan_end, scratch->scan_end);
      EXPECT_EQ(engine->output().num_nonzero, scratch->num_nonzero);
      for (size_t i = 0; i < db.num_tuples(); ++i) {
        EXPECT_NEAR(engine->output().topk_at(i), scratch->topk_at(i), kTol);
      }
      for (size_t h = 0; h < k; ++h) {
        EXPECT_EQ(engine->output().best_rank_index[h],
                  scratch->best_rank_index[h]);
      }
    }
  }
}

TEST(PsrEngine, RejectsZeroK) {
  Rng maker(56);
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, {});
  EXPECT_FALSE(ScanRequest::ForK(0).ok());
  // A hand-assembled zero-k request must be caught by Create itself.
  ScanRequest request;
  request.ladder.ks = {0};
  EXPECT_FALSE(PsrEngine::Create(db, request).ok());
}

TEST(Session, TakeDatabaseOnDirtySessionReflectsOutcomes) {
  // TakeDatabase must hand back every applied outcome even when the
  // session is still dirty (outcomes applied, no Refresh): the outcomes
  // are recorded eagerly, only the PSR/TP state refresh is deferred, and
  // ending a session is a legitimate reason never to pay for one.
  Rng maker(4242);
  RandomDbOptions opts;
  opts.num_xtuples = 12;
  opts.max_alternatives = 3;
  const ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<CleaningSession> session =
      CleaningSession::Start(ProbabilisticDatabase(base), /*k=*/3);
  ASSERT_TRUE(session.ok());
  Rng rng(17);
  size_t applied = 0;
  for (int draw = 0; draw < 4; ++draw) {
    if (!ApplyRandomOutcome(&*session, &rng)) break;
    ++applied;
  }
  ASSERT_GT(applied, 0u);
  ASSERT_TRUE(session->dirty());

  // Reference: the validating builder, with every x-tuple the session
  // collapsed replaced by its certain survivor, re-sorted from scratch.
  DatabaseBuilder builder = DatabaseBuilder::FromDatabase(base);
  for (const auto& [xtuple, resolved_id] : session->db().outcomes()) {
    const DatabaseOverlay& view = session->db();
    const Tuple& survivor = view.tuple(view.xtuple_members(xtuple)[0]);
    ASSERT_TRUE(builder
                    .ReplaceWithCertain(xtuple, resolved_id < 0 ? nullptr
                                                                : &survivor)
                    .ok());
  }
  Result<ProbabilisticDatabase> reference = std::move(builder).Finish();
  ASSERT_TRUE(reference.ok()) << reference.status();

  const ProbabilisticDatabase taken = std::move(*session).TakeDatabase();
  ASSERT_EQ(taken.num_tuples(), reference->num_tuples());
  EXPECT_EQ(taken.num_real_tuples(), reference->num_real_tuples());
  for (size_t i = 0; i < reference->num_tuples(); ++i) {
    EXPECT_EQ(taken.tuple(i).id, reference->tuple(i).id) << "rank " << i;
    EXPECT_DOUBLE_EQ(taken.tuple(i).prob, reference->tuple(i).prob)
        << "rank " << i;
  }
  for (size_t l = 0; l < reference->num_xtuples(); ++l) {
    const XTupleId x = static_cast<XTupleId>(l);
    EXPECT_EQ(taken.xtuple_members(x), reference->xtuple_members(x))
        << "x-tuple " << l;
    EXPECT_DOUBLE_EQ(taken.xtuple_real_mass(x), reference->xtuple_real_mass(x))
        << "x-tuple " << l;
  }
}

TEST(Session, ExecutePlanOverloadsAgree) {
  // The session overload of ExecutePlan must consume the same random
  // stream and land on the same cleaned state as the database overload.
  Rng maker(91);
  RandomDbOptions opts;
  opts.num_xtuples = 10;
  opts.max_alternatives = 3;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  CleaningProfile profile;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    profile.costs.push_back(1 + static_cast<int64_t>(l % 3));
    profile.sc_probs.push_back(maker.Uniform(0.2, 0.9));
  }
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  for (size_t l = 0; l < probes.size(); l += 2) probes[l] = 2;

  const size_t k = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    Result<ExecutionReport> scratch = ExecutePlan(db, profile, probes, &rng_a);
    ASSERT_TRUE(scratch.ok());

    Result<CleaningSession> session =
        CleaningSession::Start(ProbabilisticDatabase(db), k);
    ASSERT_TRUE(session.ok());
    Result<SessionExecutionReport> incremental =
        ExecutePlan(&*session, profile, probes, &rng_b);
    ASSERT_TRUE(incremental.ok());
    ASSERT_TRUE(session->Refresh().ok());

    EXPECT_EQ(scratch->spent, incremental->spent);
    EXPECT_EQ(scratch->leftover, incremental->leftover);
    EXPECT_EQ(scratch->successes, incremental->successes);
    ASSERT_EQ(scratch->log.size(), incremental->log.size());
    for (size_t j = 0; j < scratch->log.size(); ++j) {
      EXPECT_EQ(scratch->log[j].resolved_id, incremental->log[j].resolved_id);
    }
    Result<TpOutput> scratch_tp = ComputeTpQuality(scratch->cleaned_db, k);
    ASSERT_TRUE(scratch_tp.ok());
    EXPECT_NEAR(scratch_tp->quality, session->quality(), kTol);
  }
}

// ------------------------------------------------- pinned fingerprints
//
// Bit-exact fingerprints recorded from the former in-place mechanism:
// CleaningSession collapsed x-tuples inside its own ProbabilisticDatabase
// with tombstones, compacted them lazily (>= 1,024 tombstones AND >= 25%
// of slots), and remapped the engine through every compaction. The
// overlay mechanism must reproduce its results to the last bit, which
// also shows the compaction was pure bookkeeping.

/// FNV-1a over the exact bits of everything a cleaning result holds.
class BitHash {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every tuple's id, x-tuple, score and prob bits, null flag and label,
/// then every x-tuple's members and real mass.
uint64_t DatabaseFingerprint(const ProbabilisticDatabase& db) {
  BitHash h;
  h.U64(db.num_tuples());
  h.U64(db.num_real_tuples());
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    const Tuple& t = db.tuple(i);
    h.I64(t.id);
    h.I64(t.xtuple);
    h.Double(t.score);
    h.Double(t.prob);
    h.U64(t.is_null ? 1 : 0);
    h.U64(t.label.size());
    h.Bytes(t.label.data(), t.label.size());
  }
  h.U64(db.num_xtuples());
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const std::vector<int32_t>& members =
        db.xtuple_members(static_cast<XTupleId>(l));
    h.U64(members.size());
    for (int32_t idx : members) h.I64(idx);
    h.Double(db.xtuple_real_mass(static_cast<XTupleId>(l)));
  }
  return h.value();
}

struct PinnedInputs {
  ProbabilisticDatabase db;
  CleaningProfile profile;
};

PinnedInputs MakePinnedInputs(uint64_t seed, size_t num_xtuples) {
  Rng maker(seed);
  RandomDbOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.max_alternatives = 8;
  PinnedInputs in{MakeRandomDatabase(&maker, opts), {}};
  for (size_t l = 0; l < in.db.num_xtuples(); ++l) {
    in.profile.costs.push_back(1 + static_cast<int64_t>(l % 3));
    in.profile.sc_probs.push_back(maker.Uniform(0.5, 0.95));
  }
  return in;
}

TEST(PinnedFingerprint, AdaptiveLadderCampaign) {
  // ~3,000 slots: the first two rounds each tombstone over 1,024 of them
  // and a quarter of the database, so the in-place session compacted
  // twice mid-run (before the replays of rounds 1 and 2) and once more
  // in TakeDatabase.
  PinnedInputs in = MakePinnedInputs(20260601, 600);
  ASSERT_EQ(in.db.num_tuples(), 2975u);
  AdaptiveOptions options;
  options.k_ladder = {20, 120, 400};
  Rng rng(7);
  Result<AdaptiveReport> report = RunAdaptiveCleaning(
      std::move(in.db), in.profile, /*budget=*/4000, options, &rng);
  ASSERT_TRUE(report.ok()) << report.status();
  BitHash rounds;
  rounds.U64(report->rounds.size());
  for (const AdaptiveRound& round : report->rounds) {
    rounds.I64(round.spent);
    rounds.U64(round.successes);
    for (double q : round.quality_after_per_k) rounds.Double(q);
  }
  EXPECT_EQ(report->rounds.size(), 3u);
  EXPECT_EQ(rounds.value(), 0x4dd7bb9513ea62beULL);
  EXPECT_EQ(DatabaseFingerprint(report->final_db), 0x90da7dadd7f03f1eULL);
}

TEST(PinnedFingerprint, ExecutePlanCleanedDatabase) {
  const PinnedInputs in = MakePinnedInputs(20260602, 300);
  std::vector<int64_t> probes(in.db.num_xtuples(), 0);
  for (size_t l = 0; l < probes.size(); l += 2) probes[l] = 2;
  Rng rng(11);
  Result<ExecutionReport> executed =
      ExecutePlan(in.db, in.profile, probes, &rng);
  ASSERT_TRUE(executed.ok()) << executed.status();
  EXPECT_EQ(executed->successes, 139u);
  EXPECT_EQ(DatabaseFingerprint(executed->cleaned_db), 0x5e3b657a6cf0f0eeULL);
}

TEST(PinnedFingerprint, PoolCloseAndMerge) {
  PinnedInputs in = MakePinnedInputs(20260603, 300);
  Result<SessionPool> pool = SessionPool::Create(std::move(in.db), 40);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const std::vector<SessionPool::SessionId> ids = {pool->OpenSession(),
                                                   pool->OpenSession()};
  for (size_t s = 0; s < ids.size(); ++s) {
    Rng rng(100 + s);
    for (int round = 0; round < 3; ++round) {
      std::vector<int64_t> probes(pool->base().num_xtuples(), 0);
      for (size_t l = s + round; l < probes.size(); l += 3) probes[l] = 1;
      ASSERT_TRUE(
          ExecutePlan(&*pool, ids[s], in.profile, probes, &rng).ok());
      ASSERT_TRUE(pool->Refresh(ids[s]).ok());
    }
  }
  const uint64_t expected[] = {0x7bd2892dcf4bf658ULL, 0x78908b5d9f935199ULL};
  for (size_t s = 0; s < ids.size(); ++s) {
    Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(ids[s]);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(DatabaseFingerprint(*merged), expected[s]) << "session " << s;
  }
}

}  // namespace
}  // namespace uclean
