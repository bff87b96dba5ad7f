// Keystone tests of the snapshot store (store/snapshot.h): a saved pool
// reloads with ZERO scans into a pool whose behavior is BITWISE the
// original's --
//
//  * same PSR outputs, checkpoint positions, session overlays and
//    qualities, with re-serialization reproducing the exact file bytes
//    (the strongest round-trip statement: load == built, byte for byte);
//  * post-load serving behaves identically: the same cleans produce the
//    same refreshed state on the original and the reloaded pool;
//  * format-v1 files, kept as fixtures under tests/data/, load into
//    pools bitwise equal to freshly built ones and re-serialize to the
//    current writer's bytes;
//  * every corruption mode -- a bit flip inside each section, truncation
//    at every section boundary, unknown feature flags, future section
//    versions, missing sections, a database that claims tombstoned
//    slots, a rung prefix whose length is not its scan_end's, a v1 rung
//    that is not +0.0 past its Lemma-2 stop, a rung that miscounts its
//    nonzero entries -- fails with Status::DataLoss, while the all-zero
//    tombstone bitmap older writers could leave still loads;
//  * a save that fails midway leaves the previous file in place;
//  * a mid-campaign save (adaptive cleaning with faults, serial AND
//    pipelined) resumes in a fresh pool and finishes with qualities,
//    spend, probe logs, fault counters, Rng engines and FaultInjector
//    states bitwise equal to the uninterrupted campaign.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <limits>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "clean/fault.h"
#include "clean/pipeline.h"
#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/status.h"
#include "model/database.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"
#include "tests/test_util.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

#ifndef UCLEAN_TEST_DATA_DIR
#define UCLEAN_TEST_DATA_DIR ""
#endif

namespace uclean {
namespace {

constexpr uint64_t kRngBase = 4000;

/// Format-v1 files the store wrote before rungs went on the wire as their
/// Lemma-2 prefix (engine and sessions sections at version 1): the
/// campaign-bearing MakeFormatPool(120), and MakeCraftingPool with
/// MatrixOptions().
constexpr char kFormatV1File[] = "snapshot_format_v1.snap";
constexpr char kMatrixV1File[] = "snapshot_matrix_v1.snap";

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

ProbabilisticDatabase MakeDb(size_t xtuples = 400) {
  SyntheticOptions opts;
  opts.num_xtuples = xtuples;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.7;  // sub-unit masses: null outcomes occur too
  opts.real_mass_max = 1.0;
  opts.seed = 20260806;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

CleaningProfile MakeProfile(size_t xtuples) {
  CleaningProfileOptions opts;
  opts.sc_pdf = ScPdf::Uniform(0.2, 0.9);
  opts.seed = 99;
  Result<CleaningProfile> profile = GenerateCleaningProfile(xtuples, opts);
  UCLEAN_CHECK(profile.ok());
  return std::move(profile).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A committed file under tests/data/.
std::string Fixture(const std::string& name) {
  return FileBytes(std::string(UCLEAN_TEST_DATA_DIR) + "/" + name);
}

/// Resolves x-tuple `l` to its best-ranked member's tuple id.
TupleId FirstMemberId(const ProbabilisticDatabase& db, XTupleId l) {
  return db.tuple(db.xtuple_members(l)[0]).id;
}

void ExpectPsrEq(const PsrOutput& a, const PsrOutput& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_EQ(a.topk_prob, b.topk_prob);
  EXPECT_EQ(a.num_nonzero, b.num_nonzero);
  EXPECT_EQ(a.scan_end, b.scan_end);
  EXPECT_EQ(a.best_rank_prob, b.best_rank_prob);
  EXPECT_EQ(a.best_rank_index, b.best_rank_index);
  EXPECT_EQ(a.rank_prob, b.rank_prob);
  EXPECT_EQ(a.has_rank_probabilities, b.has_rank_probabilities);
}

void ExpectInjectorStateEq(const FaultInjectorState& a,
                           const FaultInjectorState& b) {
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.now_us, b.now_us);
  EXPECT_EQ(a.ever_opened, b.ever_opened);
  ASSERT_EQ(a.breakers.size(), b.breakers.size());
  for (size_t i = 0; i < a.breakers.size(); ++i) {
    EXPECT_EQ(a.breakers[i].source, b.breakers[i].source);
    EXPECT_EQ(a.breakers[i].state, b.breakers[i].state);
    EXPECT_EQ(a.breakers[i].consecutive_failures,
              b.breakers[i].consecutive_failures);
    EXPECT_EQ(a.breakers[i].open_until_us, b.breakers[i].open_until_us);
  }
  ASSERT_EQ(a.down.size(), b.down.size());
  for (size_t i = 0; i < a.down.size(); ++i) {
    EXPECT_EQ(a.down[i].source, b.down[i].source);
    EXPECT_EQ(a.down[i].down, b.down[i].down);
  }
}

/// Empty when `got` holds `want`'s bits in every field, otherwise the
/// fields that differ.
std::string TpBitsDiffer(const TpOutput& got, const TpOutput& want) {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
  };
  std::string error;
  if (std::memcmp(&got.quality, &want.quality, 8) != 0) error += "quality; ";
  if (got.num_tuples != want.num_tuples) error += "num_tuples; ";
  if (!same_bits(got.omega, want.omega)) error += "omega; ";
  if (got.scan_end != want.scan_end) error += "scan_end; ";
  if (!same_bits(got.xtuple_gain, want.xtuple_gain)) error += "xtuple_gain; ";
  if (!same_bits(got.xtuple_topk_mass, want.xtuple_topk_mass)) {
    error += "xtuple_topk_mass; ";
  }
  return error;
}

/// A pool with three sessions: two carrying cleans (one real resolution,
/// one null outcome), one pristine -- the shape most round-trip tests use.
struct TestPool {
  SessionPool pool;
  std::vector<SessionPool::SessionId> ids;
};

TestPool MakeServingPool(const ProbabilisticDatabase& db,
                         const KLadder& ladder, size_t threads = 1) {
  SessionPool::Options options;
  options.exec.num_threads = threads;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
  UCLEAN_CHECK(pool.ok());
  TestPool tp{std::move(pool).value(), {}};
  for (size_t s = 0; s < 3; ++s) tp.ids.push_back(tp.pool.OpenSession());
  UCLEAN_CHECK(
      tp.pool.ApplyCleanOutcome(tp.ids[0], 3, FirstMemberId(db, 3)).ok());
  UCLEAN_CHECK(
      tp.pool.ApplyCleanOutcome(tp.ids[0], 11, FirstMemberId(db, 11)).ok());
  UCLEAN_CHECK(tp.pool.ApplyCleanOutcome(tp.ids[1], 7, -1).ok());  // null
  UCLEAN_CHECK(tp.pool.RefreshAll().ok());
  return tp;
}

std::string SerializedPool(const SessionPool& pool) {
  std::string bytes;
  UCLEAN_CHECK(SnapshotAccess::Serialize(pool, nullptr, &bytes).ok());
  return bytes;
}

// ------------------------------------------------------------- round trip

TEST(SnapshotRoundTripTest, LoadedPoolIsBitwiseIdentical) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({5, 20});
  TestPool built = MakeServingPool(db, ladder);

  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, path).ok());

  SessionPool::Options options;  // same exec mode as the writer
  Result<SessionPool> loaded = SessionPool::OpenFromSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  // Database: shape and per-tuple content.
  ASSERT_EQ(loaded->base().num_tuples(), built.pool.base().num_tuples());
  ASSERT_EQ(loaded->base().num_xtuples(), built.pool.base().num_xtuples());
  for (size_t i = 0; i < built.pool.base().num_tuples(); ++i) {
    const Tuple& a = built.pool.base().tuple(i);
    const Tuple& b = loaded->base().tuple(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.xtuple, b.xtuple);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.prob, b.prob);
    EXPECT_EQ(a.is_null, b.is_null);
    EXPECT_EQ(a.label, b.label);
  }

  // Ladder, sessions, per-session PSR + TP state, overlays.
  EXPECT_EQ(loaded->ladder().ks, built.pool.ladder().ks);
  ASSERT_EQ(loaded->num_open(), built.pool.num_open());
  for (SessionPool::SessionId id : built.ids) {
    ASSERT_TRUE(loaded->is_open(id));
    EXPECT_EQ(loaded->overlay(id).outcomes(),
              built.pool.overlay(id).outcomes());
    for (size_t rung = 0; rung < built.pool.num_rungs(); ++rung) {
      ExpectPsrEq(loaded->psr(id, rung), built.pool.psr(id, rung));
      EXPECT_EQ(loaded->quality(id, rung), built.pool.quality(id, rung));
    }
  }

  // Checkpoint geometry: the shared scan's and each session's private
  // suffix checkpoints restore at the exact same ranks.
  EXPECT_EQ(SnapshotAccess::EngineCheckpointPositions(*loaded),
            SnapshotAccess::EngineCheckpointPositions(built.pool));
  for (SessionPool::SessionId id : built.ids) {
    EXPECT_EQ(SnapshotAccess::SessionCheckpointPositions(*loaded, id),
              SnapshotAccess::SessionCheckpointPositions(built.pool, id));
  }

  // The strongest statement: serializing the loaded pool reproduces the
  // file image byte for byte.
  EXPECT_EQ(SerializedPool(*loaded), SerializedPool(built.pool));
}

TEST(SnapshotRoundTripTest, LoadedPoolServesIdenticallyAfterMoreCleaning) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({10});
  TestPool built = MakeServingPool(db, ladder);

  const std::string path = TempPath("serve.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, path).ok());
  Result<SessionPool> loaded = SessionPool::OpenFromSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  // Same mutations on both pools -> same refreshed state, and sessions
  // opened after the reload fork the same slots with the same state.
  const SessionPool::SessionId fresh_a = built.pool.OpenSession();
  const SessionPool::SessionId fresh_b = loaded->OpenSession();
  ASSERT_EQ(fresh_a, fresh_b);
  for (SessionPool* pool : {&built.pool, &*loaded}) {
    ASSERT_TRUE(
        pool->ApplyCleanOutcome(built.ids[1], 21, FirstMemberId(db, 21))
            .ok());
    ASSERT_TRUE(
        pool->ApplyCleanOutcome(fresh_a, 5, FirstMemberId(db, 5)).ok());
    ASSERT_TRUE(pool->RefreshAll().ok());
  }
  for (SessionPool::SessionId id : {built.ids[1], fresh_a}) {
    for (size_t rung = 0; rung < built.pool.num_rungs(); ++rung) {
      ExpectPsrEq(loaded->psr(id, rung), built.pool.psr(id, rung));
      EXPECT_EQ(loaded->quality(id, rung), built.pool.quality(id, rung));
    }
  }
}

TEST(SnapshotRoundTripTest, SurvivesClosedSlotsAndThreadedWriter) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({5, 20});
  // A multi-threaded pool with a hole in the slot table: slot reuse
  // bookkeeping (free list, num_open) must survive the round trip.
  TestPool built = MakeServingPool(db, ladder, /*threads=*/4);
  ASSERT_TRUE(built.pool.Close(built.ids[1]).ok());

  const std::string path = TempPath("slots.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, path).ok());
  SessionPool::Options options;
  options.exec.num_threads = 4;
  Result<SessionPool> loaded = SessionPool::OpenFromSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->num_open(), built.pool.num_open());
  EXPECT_FALSE(loaded->is_open(built.ids[1]));
  // The freed slot is reused in the same order.
  EXPECT_EQ(loaded->OpenSession(), built.pool.OpenSession());
  EXPECT_EQ(SerializedPool(*loaded), SerializedPool(built.pool));
}

// Warm start is the serving deployment's path: off-ladder requests run
// SessionPool::ScanLadder, whose shards restore the loaded checkpoints.
// On a pool opened from a snapshot those scans are bitwise the scans of
// the pool it was saved from, for a pristine session and for a cleaned
// one saved with its private checkpoints, at widths 1 and 2.
TEST(SnapshotRoundTripTest, WarmStartedColdScansMatchTheSavedPool) {
  SyntheticOptions opts;
  opts.num_xtuples = 1500;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.3;
  opts.real_mass_max = 0.6;
  opts.seed = 3;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionPool::Options options;
    options.exec.num_threads = threads;
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(*db), MakeLadder({5, 40, 150}), options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const SessionPool::SessionId pristine = pool->OpenSession();
    const SessionPool::SessionId cleaned = pool->OpenSession();
    const size_t half = pool->base_psr(2).scan_end / 2;
    const XTupleId x = db->tuple(half).xtuple;
    ASSERT_TRUE(pool->ApplyCleanOutcome(cleaned, x, db->tuple(half).id).ok());
    ASSERT_TRUE(pool->Refresh(cleaned).ok());
    ASSERT_FALSE(
        SnapshotAccess::SessionCheckpointPositions(*pool, cleaned).empty());

    const std::string path = TempPath("cold_scans.snap");
    ASSERT_TRUE(store::WriteSnapshot(*pool, path).ok());
    Result<SessionPool> loaded = SessionPool::OpenFromSnapshot(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    size_t cut = 0;
    for (SessionPool::SessionId id : {pristine, cleaned}) {
      for (const std::vector<size_t>& ks : std::vector<std::vector<size_t>>{
               {20}, {100}, {200}, {20, 100, 200}}) {
        const KLadder ladder = MakeLadder(ks);
        Result<ScanResult> want = pool->ScanLadder(id, ladder);
        Result<ScanResult> got = loaded->ScanLadder(id, ladder);
        ASSERT_TRUE(want.ok() && got.ok());
        EXPECT_EQ(got->threads, want->threads);
        cut += got->threads > 1;
        for (size_t rung = 0; rung < ladder.size(); ++rung) {
          EXPECT_EQ(RungBitsDiffer(got->output(rung), want->output(rung)), "")
              << "session " << id << " k=" << ladder[rung];
        }
      }
    }
    EXPECT_EQ(cut > 0, threads > 1);
  }
}

// ------------------------------------------------------------ format pin

/// A pool plus campaign that reaches every branch of the section
/// encoders: a session with rung state of its own (a real clean and a
/// null clean of the top x-tuple), a session with one null clean, a
/// pristine session and a closed slot; a campaign whose first session
/// logs two probes and holds an injector with breakers and down entries,
/// and whose second has no injector. Scalar kernel on one thread, which
/// the meta section records.
struct FormatPool {
  SessionPool pool;
  store::CampaignSnapshot campaign;
};

SessionPool::Options ScalarOptions() {
  SessionPool::Options options;
  options.exec.kernel = KernelKind::kScalar;
  options.exec.num_threads = 1;
  return options;
}

FormatPool MakeFormatPool(size_t xtuples) {
  const ProbabilisticDatabase db = MakeDb(xtuples);
  Result<SessionPool> created = SessionPool::Create(
      ProbabilisticDatabase(db), MakeLadder({5, 20}), ScalarOptions());
  UCLEAN_CHECK(created.ok());
  FormatPool fp{std::move(created).value(), {}};
  SessionPool& pool = fp.pool;
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < 4; ++s) ids.push_back(pool.OpenSession());
  const XTupleId top = db.tuple(0).xtuple;
  UCLEAN_CHECK(pool.ApplyCleanOutcome(ids[0], 3, FirstMemberId(db, 3)).ok());
  UCLEAN_CHECK(pool.ApplyCleanOutcome(ids[0], top, -1).ok());
  UCLEAN_CHECK(pool.ApplyCleanOutcome(ids[1], 7, -1).ok());
  UCLEAN_CHECK(pool.RefreshAll().ok());
  UCLEAN_CHECK(pool.Close(ids[3]).ok());

  store::CampaignSnapshot& campaign = fp.campaign;
  campaign.budget = 50;
  store::CampaignSessionSnapshot probed;
  probed.session_id = ids[0];
  probed.spent = 9;
  probed.leftover = 2;
  probed.successes = 1;
  probed.rounds = 2;
  ProbeRecord hit;
  hit.xtuple = 3;
  hit.attempts = 2;
  hit.spent = 6;
  hit.success = true;
  hit.resolved_id = FirstMemberId(db, 3);
  hit.retries = 1;
  ProbeRecord miss;
  miss.xtuple = top;
  miss.attempts = 1;
  miss.spent = 3;
  miss.failures = 2;
  miss.retries = 2;
  miss.last_error = StatusCode::kUnavailable;
  probed.log = {hit, miss};
  probed.faults.transient = 4;
  probed.faults.timeouts = 1;
  probed.faults.source_down = 2;
  probed.faults.retries = 3;
  probed.faults.failed_probes = 1;
  probed.faults.breaker_skips = 1;
  probed.faults.budget_unspent = 6;
  Rng rng(kRngBase);
  (void)rng.UniformUnit();
  probed.rng_state = rng.SaveState();
  probed.has_injector = true;
  probed.injector.rng_state = Rng(71).SaveState();
  probed.injector.now_us = 12500;
  probed.injector.ever_opened = true;
  probed.injector.breakers = {{3, 1, 5, 40000}, {top, 2, 1, 20000}};
  probed.injector.down = {{3, true}, {top, false}};
  campaign.sessions.push_back(probed);

  store::CampaignSessionSnapshot plain;
  plain.session_id = ids[1];
  plain.spent = 4;
  plain.rounds = 1;
  plain.rng_state = Rng(kRngBase + 1).SaveState();
  campaign.sessions.push_back(plain);
  return fp;
}

/// A pool whose TP ladders and checkpoint lists each occur once in its
/// file: ladder {5} at a checkpoint cadence of 4 live tuples, session 0
/// holding rung state of its own (the top x-tuple nulled) and session 1
/// pristine, so stored without state. `options` sets the rest.
TestPool MakeCraftingPool(SessionPool::Options options = {}) {
  const ProbabilisticDatabase db = MakeDb(120);
  options.checkpoint_interval = 4;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), MakeLadder({5}), options);
  UCLEAN_CHECK(pool.ok());
  TestPool tp{std::move(pool).value(), {}};
  for (size_t s = 0; s < 2; ++s) tp.ids.push_back(tp.pool.OpenSession());
  UCLEAN_CHECK(
      tp.pool.ApplyCleanOutcome(tp.ids[0], db.tuple(0).xtuple, -1).ok());
  UCLEAN_CHECK(tp.pool.Refresh(tp.ids[0]).ok());
  return tp;
}

/// The stored-matrix fixture's options: a rank matrix per rung, the
/// scalar kernel on one thread.
SessionPool::Options MatrixOptions() {
  SessionPool::Options options = ScalarOptions();
  options.psr.store_rank_probabilities = true;
  return options;
}

/// A section-table row as a pin holds it.
struct PinnedSection {
  uint32_t id;
  uint32_t version;
  uint64_t size;
  uint32_t crc;
};

/// Expects `bytes` to be exactly the pinned image: its size, whole-file
/// CRC and section table.
void ExpectPinned(const std::string& bytes, uint64_t size, uint32_t crc,
                  const std::vector<PinnedSection>& sections) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(store::Crc32(bytes.data(), bytes.size()), crc);
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(bytes);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_EQ(file->sections().size(), sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    const store::SectionEntry& entry = file->sections()[i];
    EXPECT_EQ(entry.id, sections[i].id) << i;
    EXPECT_EQ(entry.version, sections[i].version) << i;
    EXPECT_EQ(entry.size, sections[i].size) << i;
    EXPECT_EQ(entry.crc, sections[i].crc) << i;
  }
}

TEST(SnapshotFormatTest, PinnedSectionTable) {
  // The current writer's bytes: a field moved on the writer and the
  // reader at once passes every round trip but fails here. The format-v1
  // bytes of the same pool are pinned on their fixture below.
  const FormatPool built = MakeFormatPool(120);
  std::string bytes;
  ASSERT_TRUE(
      SnapshotAccess::Serialize(built.pool, &built.campaign, &bytes).ok());
  ExpectPinned(bytes, 66101, 0x3db3637du,
               {
                   {store::kSectionMeta, 1, 22, 0xfab7c64bu},
                   {store::kSectionDatabase, 1, 14631, 0x97c4f3ceu},
                   {store::kSectionEngine, 2, 4764, 0x1d9cb01du},
                   {store::kSectionSessions, 2, 27368, 0x59710434u},
                   {store::kSectionCampaign, 1, 19140, 0xf1c8c6bdu},
               });

  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(bytes, ScalarOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded->has_campaign);
  std::string again;
  ASSERT_TRUE(
      SnapshotAccess::Serialize(loaded->pool, &loaded->campaign, &again).ok());
  EXPECT_EQ(again, bytes);
}

/// Expects `got` to hold `want`'s state bitwise: every base and session
/// rung and TP ladder, the overlays, the checkpoint ranks and which of
/// the first `slots` slots are open. (Checkpoint contents show in the
/// callers' byte comparisons of the re-serialized pools.)
void ExpectPoolsBitwiseEqual(const SessionPool& got, const SessionPool& want,
                             size_t slots) {
  ASSERT_EQ(got.ladder().ks, want.ladder().ks);
  EXPECT_EQ(got.num_open(), want.num_open());
  EXPECT_EQ(SnapshotAccess::EngineCheckpointPositions(got),
            SnapshotAccess::EngineCheckpointPositions(want));
  for (size_t rung = 0; rung < want.num_rungs(); ++rung) {
    EXPECT_EQ(RungBitsDiffer(got.base_psr(rung), want.base_psr(rung)), "")
        << "base rung " << rung;
    EXPECT_EQ(TpBitsDiffer(got.base_tp(rung), want.base_tp(rung)), "")
        << "base TP rung " << rung;
  }
  for (SessionPool::SessionId id = 0; id < slots; ++id) {
    ASSERT_EQ(got.is_open(id), want.is_open(id)) << "slot " << id;
    if (!want.is_open(id)) continue;
    EXPECT_EQ(got.overlay(id).outcomes(), want.overlay(id).outcomes());
    EXPECT_EQ(SnapshotAccess::SessionCheckpointPositions(got, id),
              SnapshotAccess::SessionCheckpointPositions(want, id))
        << "session " << id;
    for (size_t rung = 0; rung < want.num_rungs(); ++rung) {
      EXPECT_EQ(RungBitsDiffer(got.psr(id, rung), want.psr(id, rung)), "")
          << "session " << id << " rung " << rung;
      EXPECT_EQ(TpBitsDiffer(got.tp(id, rung), want.tp(id, rung)), "")
          << "session " << id << " TP rung " << rung;
    }
  }
}

void ExpectCampaignEq(const store::CampaignSnapshot& got,
                      const store::CampaignSnapshot& want) {
  EXPECT_EQ(got.budget, want.budget);
  ASSERT_EQ(got.sessions.size(), want.sessions.size());
  for (size_t s = 0; s < want.sessions.size(); ++s) {
    const store::CampaignSessionSnapshot& a = got.sessions[s];
    const store::CampaignSessionSnapshot& b = want.sessions[s];
    EXPECT_EQ(a.session_id, b.session_id) << s;
    EXPECT_EQ(a.spent, b.spent) << s;
    EXPECT_EQ(a.leftover, b.leftover) << s;
    EXPECT_EQ(a.successes, b.successes) << s;
    EXPECT_EQ(a.rounds, b.rounds) << s;
    EXPECT_EQ(a.log, b.log) << s;
    EXPECT_TRUE(a.faults == b.faults) << s;
    EXPECT_EQ(a.rng_state, b.rng_state) << s;
    ASSERT_EQ(a.has_injector, b.has_injector) << s;
    if (b.has_injector) ExpectInjectorStateEq(a.injector, b.injector);
  }
}

// The format-v1 fixture is what MakeFormatPool(120) serialized to before
// the engine and sessions sections moved to version 2: every rung and
// omega n entries long, zero-padded. It still loads, into a pool and a
// campaign bitwise equal to a fresh build's, and the loaded pool writes
// the fresh pool's version-2 bytes.
TEST(SnapshotCompatTest, FormatV1FileLoadsAsTheFreshPool) {
  const std::string v1 = Fixture(kFormatV1File);
  ExpectPinned(v1, 107707, 0xe44998a5u,
               {
                   {store::kSectionMeta, 1, 22, 0xfab7c64bu},
                   {store::kSectionDatabase, 1, 14631, 0x97c4f3ceu},
                   {store::kSectionEngine, 1, 11725, 0xc7a11cdau},
                   {store::kSectionSessions, 1, 62013, 0xaa7e9964u},
                   {store::kSectionCampaign, 1, 19140, 0xf1c8c6bdu},
               });
  const FormatPool fresh = MakeFormatPool(120);
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(v1, ScalarOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectPoolsBitwiseEqual(loaded->pool, fresh.pool, 4);
  ASSERT_TRUE(loaded->has_campaign);
  ExpectCampaignEq(loaded->campaign, fresh.campaign);

  std::string again;
  std::string want;
  ASSERT_TRUE(
      SnapshotAccess::Serialize(loaded->pool, &loaded->campaign, &again).ok());
  ASSERT_TRUE(
      SnapshotAccess::Serialize(fresh.pool, &fresh.campaign, &want).ok());
  EXPECT_EQ(again, want);
}

// The stored-matrix fixture, MakeCraftingPool(MatrixOptions()) in format
// v1: each rank matrix is n * k entries on the wire, zero-padded past
// scan_end * k, and loads as its live prefix too.
TEST(SnapshotCompatTest, FormatV1MatrixFileLoadsAsTheFreshPool) {
  const std::string v1 = Fixture(kMatrixV1File);
  EXPECT_EQ(v1.size(), 102534u);
  EXPECT_EQ(store::Crc32(v1.data(), v1.size()), 0x717a197fu);
  const TestPool fresh = MakeCraftingPool(MatrixOptions());
  ASSERT_TRUE(fresh.pool.base_psr(0).has_rank_probabilities);
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(v1, MatrixOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectPoolsBitwiseEqual(loaded->pool, fresh.pool, 2);
  EXPECT_EQ(SerializedPool(loaded->pool), SerializedPool(fresh.pool));
}

TEST(SnapshotWriteTest, DirtySessionIsRejected) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool built = MakeServingPool(db, MakeLadder({5}));
  ASSERT_TRUE(
      built.pool.ApplyCleanOutcome(built.ids[2], 9, FirstMemberId(db, 9))
          .ok());  // applied but NOT refreshed: the session is dirty
  const std::string path = TempPath("dirty.snap");
  Status status = store::WriteSnapshot(built.pool, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// A save that fails midway -- here the process's file-size limit stops
// it partway through the new bytes -- is IOError and leaves the snapshot
// already at its path as it was, with no temp file beside it.
TEST(SnapshotWriteTest, FailedSaveKeepsThePreviousFile) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool saved = MakeServingPool(db, MakeLadder({5}));
  const std::string path = TempPath("kept.snap");
  ASSERT_TRUE(store::WriteSnapshot(saved.pool, path).ok());
  const std::string before = FileBytes(path);
  TestPool next = MakeServingPool(db, MakeLadder({5, 20}));
  const uint64_t next_size = SerializedPool(next.pool).size();

  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit low = old_limit;
  low.rlim_cur = std::min<rlim_t>(old_limit.rlim_cur, next_size / 2);
  // Past the limit, write() fails with EFBIG instead of raising SIGXFSZ.
  // Both are restored before anything can end the test.
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const bool lowered = setrlimit(RLIMIT_FSIZE, &low) == 0;
  const Status status =
      lowered ? store::WriteSnapshot(next.pool, path) : Status::OK();
  const bool restored = setrlimit(RLIMIT_FSIZE, &old_limit) == 0;
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(lowered && restored);

  EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
  EXPECT_EQ(FileBytes(path), before);
  SessionPool::Options options;
  options.exec.num_threads = 1;  // the writer's, which the meta records
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializedPool(loaded->pool), before);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(SnapshotReadTest, MissingFileIsIOError) {
  Result<SessionPool> loaded =
      SessionPool::OpenFromSnapshot(TempPath("does_not_exist.snap"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// ------------------------------------------------------------- corruption

TEST(SnapshotCorruptionTest, BitFlipInEverySectionIsDataLoss) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool built = MakeServingPool(db, MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file->sections().size(), 4u);

  for (const store::SectionEntry& entry : file->sections()) {
    for (uint64_t at : {entry.offset, entry.offset + entry.size / 2,
                        entry.offset + entry.size - 1}) {
      std::string bad = good;
      bad[at] = static_cast<char>(bad[at] ^ 0x01);
      Result<store::LoadedSnapshot> loaded =
          SnapshotAccess::Deserialize(std::move(bad), SessionPool::Options());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << store::SectionName(entry.id) << " byte " << at;
    }
  }
}

TEST(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryIsDataLoss) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool built = MakeServingPool(db, MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  ASSERT_TRUE(file.ok());

  std::vector<size_t> cuts = {0, store::kSnapshotHeaderSize - 1,
                              store::kSnapshotHeaderSize, good.size() - 1};
  for (const store::SectionEntry& entry : file->sections()) {
    cuts.push_back(entry.offset);
    cuts.push_back(entry.offset + entry.size);
  }
  for (size_t cut : cuts) {
    ASSERT_LE(cut, good.size());
    // In memory...
    Result<store::LoadedSnapshot> loaded = SnapshotAccess::Deserialize(
        good.substr(0, cut), SessionPool::Options());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << cut;
    // ...and through the file path the CLI takes.
    const std::string path = TempPath("truncated.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(good.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(SessionPool::OpenFromSnapshot(path).status().code(),
              StatusCode::kDataLoss)
        << cut;
  }
}

/// Rebuilds the container of `good` through a mutator over its parsed
/// sections -- how the tests synthesize future/foreign files that are
/// checksum-valid but semantically out of range.
template <typename Fn>
std::string RebuildContainer(const std::string& good, Fn mutate) {
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  UCLEAN_CHECK(file.ok());
  store::SnapshotFileBuilder builder;
  builder.set_feature_flags(file->feature_flags());
  for (const store::SectionEntry& entry : file->sections()) {
    builder.AddSection(entry.id, entry.version,
                       std::string(file->payload(entry)));
  }
  mutate(&builder, *file);
  return builder.Finish();
}

/// `good` with the payload of section `section_id` passed through
/// `edit`, every CRC recomputed: how the tests craft files whose
/// checksums hold but whose contents the reader must judge.
template <typename Fn>
std::string WithPayload(const std::string& good, uint32_t section_id, Fn edit) {
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  UCLEAN_CHECK(file.ok());
  store::SnapshotFileBuilder builder;
  builder.set_feature_flags(file->feature_flags());
  for (const store::SectionEntry& entry : file->sections()) {
    std::string payload(file->payload(entry));
    if (entry.id == section_id) payload = edit(std::move(payload));
    builder.AddSection(entry.id, entry.version, std::move(payload));
  }
  return builder.Finish();
}

/// `good` with the one occurrence of `run` in section `section_id`
/// replaced by `crafted`.
std::string WithRun(const std::string& good, uint32_t section_id,
                    const std::string& run, const std::string& crafted) {
  return WithPayload(good, section_id, [&](std::string payload) {
    const size_t at = payload.find(run);
    UCLEAN_CHECK(at != std::string::npos && payload.rfind(run) == at);
    return payload.replace(at, run.size(), crafted);
  });
}

TEST(SnapshotCorruptionTest, UnknownFeatureFlagIsDataLoss) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string bad = RebuildContainer(
      SerializedPool(built.pool),
      [](store::SnapshotFileBuilder* builder, const store::SnapshotFile&) {
        builder->set_feature_flags(0x40000000u);
      });
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(bad, SessionPool::Options());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCorruptionTest, FutureSectionVersionIsDataLoss) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  ASSERT_TRUE(file.ok());
  for (const store::SectionEntry& bump : file->sections()) {
    store::SnapshotFileBuilder builder;
    for (const store::SectionEntry& entry : file->sections()) {
      const uint32_t version = entry.id == bump.id
                                   ? store::SectionVersion(entry.id) + 1
                                   : entry.version;
      builder.AddSection(entry.id, version,
                         std::string(file->payload(entry)));
    }
    Result<store::LoadedSnapshot> loaded =
        SnapshotAccess::Deserialize(builder.Finish(), SessionPool::Options());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << store::SectionName(bump.id);
  }
}

TEST(SnapshotCorruptionTest, MissingRequiredSectionIsDataLoss) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
  ASSERT_TRUE(file.ok());
  for (const store::SectionEntry& drop : file->sections()) {
    store::SnapshotFileBuilder builder;
    for (const store::SectionEntry& entry : file->sections()) {
      if (entry.id == drop.id) continue;
      builder.AddSection(entry.id, entry.version,
                         std::string(file->payload(entry)));
    }
    Result<store::LoadedSnapshot> loaded =
        SnapshotAccess::Deserialize(builder.Finish(), SessionPool::Options());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << store::SectionName(drop.id);
  }
}

TEST(SnapshotCompatTest, UnknownSectionIsSkipped) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  const std::string extended = RebuildContainer(
      good,
      [](store::SnapshotFileBuilder* builder, const store::SnapshotFile&) {
        builder->AddSection(/*id=*/42, /*version=*/9, "bytes from the future");
      });
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(extended, SessionPool::Options());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  // The reconstructed pool is the one the un-extended file describes.
  EXPECT_EQ(SerializedPool(loaded->pool), good);
}

// ------------------------------------------------ v1 tombstone field

/// Re-encodes the trailing format-v1 tombstone field of `good`'s database
/// section -- bitmap, then count, then the real-tuple counter that
/// follows them -- with every CRC recomputed: how the tests craft the
/// field contents an older writer could leave and a hostile file could
/// carry. `good` must come from the current writer, which always writes
/// an empty bitmap and a zero count.
std::string WithTombstoneField(const std::string& good, const SessionPool& pool,
                               const std::string& bitmap, uint64_t count) {
  store::BinWriter written;
  written.String(std::string_view());
  written.Varint(0);
  written.Varint(pool.base().num_real_tuples());
  store::BinWriter crafted;
  crafted.String(bitmap);
  crafted.Varint(count);
  crafted.Varint(pool.base().num_real_tuples());

  return WithPayload(good, store::kSectionDatabase, [&](std::string payload) {
    const std::string& tail = written.bytes();
    UCLEAN_CHECK(payload.size() >= tail.size() &&
                 payload.compare(payload.size() - tail.size(), tail.size(),
                                 tail) == 0);
    return payload.replace(payload.size() - tail.size(), tail.size(),
                           crafted.bytes());
  });
}

TEST(SnapshotCompatTest, AllZeroTombstoneBitmapLoads) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  const size_t n = built.pool.base().num_tuples();
  // The writer's own field is the empty bitmap with a zero count.
  ASSERT_EQ(WithTombstoneField(good, built.pool, "", 0), good);

  // An older writer left an all-zero bitmap over every tuple when a clean
  // allocated it but dropped nothing. It loads, and the reloaded pool
  // re-serializes to the current writer's bytes.
  const std::string zeros =
      WithTombstoneField(good, built.pool, std::string(n, '\0'), 0);
  ASSERT_NE(zeros, good);
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(zeros, SessionPool::Options());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(SerializedPool(loaded->pool), good);
}

TEST(SnapshotCorruptionTest, TombstonedDatabaseIsDataLoss) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  const size_t n = built.pool.base().num_tuples();
  std::string one_set(n, '\0');
  one_set[n / 2] = 1;
  const struct {
    const char* name;
    std::string bitmap;
    uint64_t count;
  } cases[] = {
      {"set byte", one_set, 0},
      {"set byte and count", one_set, 1},
      {"zero bitmap, nonzero count", std::string(n, '\0'), 1},
      {"empty bitmap, nonzero count", "", 3},
      {"short zero bitmap", std::string(n - 1, '\0'), 0},
  };
  for (const auto& c : cases) {
    Result<store::LoadedSnapshot> loaded = SnapshotAccess::Deserialize(
        WithTombstoneField(good, built.pool, c.bitmap, c.count),
        SessionPool::Options());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.name;
  }
}

// ------------------------------------------------- database invariants

/// A database section's contents, editable field by field.
struct DbParts {
  std::vector<Tuple> tuples;
  std::vector<std::vector<int32_t>> members;
  std::vector<double> real_mass;
  size_t num_real = 0;
};

DbParts PartsOf(const ProbabilisticDatabase& db) {
  DbParts parts;
  parts.tuples = db.tuples();
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const auto x = static_cast<XTupleId>(l);
    parts.members.push_back(db.xtuple_members(x));
    parts.real_mass.push_back(db.xtuple_real_mass(x));
  }
  parts.num_real = db.num_real_tuples();
  return parts;
}

/// Rewrites every member list from the tuples' own x-tuples, so an edit
/// that moves tuples breaks the rank order and nothing else.
void RelistMembers(DbParts* parts) {
  for (auto& members : parts->members) members.clear();
  for (size_t i = 0; i < parts->tuples.size(); ++i) {
    parts->members[parts->tuples[i].xtuple].push_back(static_cast<int32_t>(i));
  }
}

/// `good` with its database section re-encoded from `parts` in the
/// section's layout, every CRC recomputed: a database the builder would
/// never produce, behind checksums that hold.
std::string WithDatabase(const std::string& good, const DbParts& parts) {
  store::BinWriter w;
  w.Varint(parts.tuples.size());
  for (const Tuple& t : parts.tuples) {
    w.Zigzag(t.id);
    w.Varint(t.xtuple);
    w.F64(t.score);
    w.F64(t.prob);
    w.Bool(t.is_null);
    w.String(t.label);
  }
  w.Varint(parts.members.size());
  for (size_t l = 0; l < parts.members.size(); ++l) {
    w.Varint(parts.members[l].size());
    for (int32_t rank : parts.members[l]) w.Varint(rank);
    w.F64(parts.real_mass[l]);
  }
  w.String(std::string_view());  // format v1's empty tombstone field
  w.Varint(0);
  w.Varint(parts.num_real);
  return WithPayload(good, store::kSectionDatabase,
                     [&](const std::string&) { return w.bytes(); });
}

TEST(SnapshotCorruptionTest, DatabaseBreakingBuilderInvariantsIsDataLoss) {
  TestPool built = MakeServingPool(MakeDb(120), MakeLadder({5}));
  const std::string good = SerializedPool(built.pool);
  const DbParts base = PartsOf(built.pool.base());
  ASSERT_EQ(WithDatabase(good, base), good);
  const size_t n = base.tuples.size();
  ASSERT_LT(base.num_real, n - 1);  // at least two null tuples
  ASSERT_GE(base.members[0].size(), 2u);

  const struct {
    const char* name;
    const char* rule;  // what the reader's message names
    void (*edit)(DbParts*);
  } cases[] = {
      {"probability 2", "probability",
       [](DbParts* p) { p->tuples[0].prob = 2.0; }},
      {"probability NaN", "probability",
       [](DbParts* p) {
         p->tuples[1].prob = std::numeric_limits<double>::quiet_NaN();
       }},
      {"probability 0", "probability",
       [](DbParts* p) { p->tuples[2].prob = 0.0; }},
      {"infinite score", "score is not finite",
       [](DbParts* p) {
         p->tuples[0].score = std::numeric_limits<double>::infinity();
       }},
      {"scores ascending", "rank order",
       [](DbParts* p) {
         std::swap(p->tuples[0], p->tuples[1]);
         RelistMembers(p);
       }},
      {"equal scores, ids descending", "rank order",
       [](DbParts* p) {
         p->tuples[1].score = p->tuples[0].score;
         if (p->tuples[0].id < p->tuples[1].id) {
           std::swap(p->tuples[0].id, p->tuples[1].id);
         }
       }},
      {"null above a real tuple", "rank order",
       [](DbParts* p) {
         std::rotate(p->tuples.begin() + static_cast<long>(p->num_real) - 1,
                     p->tuples.begin() + static_cast<long>(p->num_real),
                     p->tuples.begin() + static_cast<long>(p->num_real) + 1);
         RelistMembers(p);
       }},
      {"nulls out of x-tuple order", "rank order",
       [](DbParts* p) {
         std::swap(p->tuples[p->tuples.size() - 1],
                   p->tuples[p->tuples.size() - 2]);
         RelistMembers(p);
       }},
      {"real mass 1.5", "real mass",
       [](DbParts* p) { p->real_mass[0] = 1.5; }},
      {"real mass negative", "real mass",
       [](DbParts* p) { p->real_mass[1] = -0.25; }},
      {"real mass NaN", "real mass",
       [](DbParts* p) {
         p->real_mass[2] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"real-tuple count", "real-tuple count",
       [](DbParts* p) { --p->num_real; }},
      {"member of another x-tuple", "member lists",
       [](DbParts* p) { std::swap(p->members[0][0], p->members[1][0]); }},
      {"members out of order", "member lists",
       [](DbParts* p) {
         std::swap(p->members[0][0], p->members[0][1]);
       }},
      {"member missing", "member lists",
       [](DbParts* p) { p->members[0].pop_back(); }},
      {"member listed twice", "member lists",
       [](DbParts* p) { p->members[0].push_back(p->members[0].back()); }},
  };
  for (const auto& c : cases) {
    DbParts parts = base;
    c.edit(&parts);
    Result<store::LoadedSnapshot> loaded = SnapshotAccess::Deserialize(
        WithDatabase(good, parts), SessionPool::Options());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.name;
    EXPECT_NE(loaded.status().message().find(c.rule), std::string::npos)
        << c.name << ": " << loaded.status().message();
  }
}

// ------------------------------------------- format-v1 Lemma-2 zero tail

/// `values` padded with +0.0 to `size` entries: how format v1 held a
/// rung vector.
std::vector<double> ZeroPadded(std::vector<double> values, size_t size) {
  values.resize(size, 0.0);
  return values;
}

/// Re-encodes one format-v1 rung's top-k vector and nonzero count -- the
/// run `topk_prob, num_nonzero, scan_end` of `rung`, found exactly once
/// in section `section_id` of `good` -- from `crafted`, with every CRC
/// recomputed: a file whose checksums hold but whose rung breaks the
/// zero tail the reader promises. Both encode as format v1 held a rung,
/// its top-k vector zero-padded to the database's `n` entries.
std::string WithPaddedRung(const std::string& good, uint32_t section_id,
                           size_t n, const PsrOutput& rung,
                           const PsrOutput& crafted) {
  const auto encode = [n](const PsrOutput& out) {
    store::BinWriter w;
    w.F64Array(ZeroPadded(out.topk_prob, n));
    w.Varint(out.num_nonzero);
    w.Varint(out.scan_end);
    return w.Take();
  };
  return WithRun(good, section_id, encode(rung), encode(crafted));
}

TEST(SnapshotCorruptionTest, BrokenZeroTailIsDataLoss) {
  // The stored-matrix v1 fixture: nulling the top x-tuple gave session 0
  // a rung of its own, unlike the engine's.
  const TestPool built = MakeCraftingPool(MatrixOptions());
  ASSERT_NE(built.pool.psr(built.ids[0], 0).topk_prob,
            built.pool.base_psr(0).topk_prob);
  const std::string good = Fixture(kMatrixV1File);
  const size_t n = built.pool.base().num_tuples();
  const struct {
    const char* name;
    uint32_t section;
    const PsrOutput& rung;
  } rungs[] = {
      {"engine", store::kSectionEngine, built.pool.base_psr(0)},
      {"session", store::kSectionSessions, built.pool.psr(built.ids[0], 0)},
  };
  for (const auto& r : rungs) {
    SCOPED_TRACE(r.name);
    const PsrOutput& rung = r.rung;
    ASSERT_LT(rung.scan_end, n);  // the rung stopped early: a tail exists
    ASSERT_GT(rung.num_nonzero, 0u);
    // Re-encoding the rung unchanged reproduces the file.
    ASSERT_EQ(WithPaddedRung(good, r.section, n, rung, rung), good);

    // The crafted rungs carry the wire's n entries, their tails edited.
    PsrOutput wire = rung;
    wire.topk_prob.resize(n, 0.0);
    PsrOutput positive_tail = wire;
    positive_tail.topk_prob[rung.scan_end] = 1e-300;
    PsrOutput negative_zero = wire;
    negative_zero.topk_prob[n - 1] = -0.0;
    PsrOutput one_high = wire;
    ++one_high.num_nonzero;
    PsrOutput one_low = wire;
    --one_low.num_nonzero;
    const struct {
      const char* name;
      const PsrOutput& crafted;
      const char* message;
    } cases[] = {
        {"positive entry at scan_end", positive_tail, "past scan_end"},
        {"-0.0 as the last entry", negative_zero, "past scan_end"},
        {"num_nonzero one high", one_high, "nonzero count"},
        {"num_nonzero one low", one_low, "nonzero count"},
    };
    for (const auto& c : cases) {
      Result<store::LoadedSnapshot> loaded = SnapshotAccess::Deserialize(
          WithPaddedRung(good, r.section, n, rung, c.crafted),
          SessionPool::Options());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.name;
      EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
          << c.name << ": " << loaded.status().message();
    }
  }
}

// ------------------------------------------------ crafted semantic checks

/// Deserializes `bytes` and expects DataLoss with `message` in it.
void ExpectDataLoss(const std::string& bytes, const char* message) {
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(bytes, SessionPool::Options());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find(message), std::string::npos)
      << loaded.status().message();
}

/// Re-encodes the run `quality, omega, scan_end` of format-v1 TP rung
/// `tp`, found once in the sessions section of `good`, from `crafted`,
/// each omega zero-padded to the database's `n` entries as format v1
/// held it.
std::string WithPaddedTp(const std::string& good, size_t n, const TpOutput& tp,
                         const TpOutput& crafted) {
  const auto encode = [n](const TpOutput& t) {
    store::BinWriter w;
    w.F64(t.quality);
    w.F64Array(ZeroPadded(t.omega, n));
    w.Varint(t.scan_end);
    return w.Take();
  };
  return WithRun(good, store::kSectionSessions, encode(tp), encode(crafted));
}

TEST(SnapshotCorruptionTest, BrokenTpZeroTailIsDataLoss) {
  const TestPool built = MakeCraftingPool(MatrixOptions());
  const std::string good = Fixture(kMatrixV1File);
  const size_t n = built.pool.base().num_tuples();
  // A base TP rung pairs with its engine rung, a session's with its own.
  const struct {
    const char* name;
    const TpOutput& tp;
  } ladders[] = {
      {"base", built.pool.base_tp(0)},
      {"session", built.pool.tp(built.ids[0], 0)},
  };
  for (const auto& l : ladders) {
    SCOPED_TRACE(l.name);
    ASSERT_LT(l.tp.scan_end, n);
    ASSERT_EQ(WithPaddedTp(good, n, l.tp, l.tp), good);
    TpOutput wire = l.tp;  // the wire's n omegas, tails edited below
    wire.omega.resize(n, 0.0);
    TpOutput nonzero_tail = wire;
    nonzero_tail.omega[l.tp.scan_end] = -1e-300;
    TpOutput negative_zero = wire;
    negative_zero.omega[n - 1] = -0.0;
    TpOutput one_deeper = wire;
    ++one_deeper.scan_end;
    ExpectDataLoss(WithPaddedTp(good, n, l.tp, nonzero_tail), "TP omega");
    ExpectDataLoss(WithPaddedTp(good, n, l.tp, negative_zero), "TP omega");
    ExpectDataLoss(WithPaddedTp(good, n, l.tp, one_deeper), "TP scan_end");
  }
}

/// Re-encodes the run `scan_end, topk_prob, num_nonzero` of PSR rung
/// `rung`, found exactly once in section `section_id` of `good`, from
/// `crafted`, with every CRC recomputed: version 2's layout of a rung.
std::string WithRung(const std::string& good, uint32_t section_id,
                     const PsrOutput& rung, const PsrOutput& crafted) {
  const auto encode = [](const PsrOutput& out) {
    store::BinWriter w;
    w.Varint(out.scan_end);
    w.F64Array(out.topk_prob);
    w.Varint(out.num_nonzero);
    return w.Take();
  };
  return WithRun(good, section_id, encode(rung), encode(crafted));
}

/// Re-encodes TP rung `tp`'s whole record -- quality, scan_end, omega and
/// the per-x-tuple gains and top-k masses, found once in the sessions
/// section of `good` -- from `crafted`.
std::string WithTpRecord(const std::string& good, const TpOutput& tp,
                         const TpOutput& crafted) {
  const auto encode = [](const TpOutput& t) {
    store::BinWriter w;
    w.F64(t.quality);
    w.Varint(t.scan_end);
    w.F64Array(t.omega);
    w.F64Array(t.xtuple_gain);
    w.F64Array(t.xtuple_topk_mass);
    return w.Take();
  };
  return WithRun(good, store::kSectionSessions, encode(tp), encode(crafted));
}

// A loaded rung answers top-k and quality requests as it stands, so an
// infinite or NaN value in what it keeps is DataLoss, each with its own
// message.
TEST(SnapshotCorruptionTest, NonFiniteScanValuesAreDataLoss) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TestPool built = MakeCraftingPool();
  const std::string good = SerializedPool(built.pool);
  const struct {
    const char* name;
    const TpOutput& tp;
  } ladders[] = {
      {"base", built.pool.base_tp(0)},
      {"session", built.pool.tp(built.ids[0], 0)},
  };
  for (const auto& l : ladders) {
    SCOPED_TRACE(l.name);
    ASSERT_GT(l.tp.scan_end, 0u);
    ASSERT_FALSE(l.tp.xtuple_gain.empty());
    ASSERT_EQ(WithTpRecord(good, l.tp, l.tp), good);
    TpOutput nan_quality = l.tp;
    nan_quality.quality = nan;
    TpOutput infinite_quality = l.tp;
    infinite_quality.quality = -inf;
    TpOutput infinite_omega = l.tp;
    infinite_omega.omega[0] = inf;
    TpOutput nan_gain = l.tp;
    nan_gain.xtuple_gain[0] = nan;
    TpOutput infinite_mass = l.tp;
    infinite_mass.xtuple_topk_mass.back() = inf;
    ExpectDataLoss(WithTpRecord(good, l.tp, nan_quality),
                   "TP quality is not finite");
    ExpectDataLoss(WithTpRecord(good, l.tp, infinite_quality),
                   "TP quality is not finite");
    ExpectDataLoss(WithTpRecord(good, l.tp, infinite_omega),
                   "TP omega entry is not finite");
    ExpectDataLoss(WithTpRecord(good, l.tp, nan_gain),
                   "TP x-tuple gain is not finite");
    ExpectDataLoss(WithTpRecord(good, l.tp, infinite_mass),
                   "TP x-tuple top-k mass is not finite");
  }
  const struct {
    const char* name;
    uint32_t section;
    const PsrOutput& rung;
  } rungs[] = {
      {"engine", store::kSectionEngine, built.pool.base_psr(0)},
      {"session", store::kSectionSessions, built.pool.psr(built.ids[0], 0)},
  };
  for (const auto& r : rungs) {
    SCOPED_TRACE(r.name);
    ASSERT_GT(r.rung.scan_end, 0u);
    ASSERT_EQ(WithRung(good, r.section, r.rung, r.rung), good);
    PsrOutput nan_entry = r.rung;
    nan_entry.topk_prob[0] = nan;
    PsrOutput infinite_entry = r.rung;
    infinite_entry.topk_prob[r.rung.scan_end - 1] = inf;
    ExpectDataLoss(WithRung(good, r.section, r.rung, nan_entry),
                   "PSR top-k entry is not finite");
    ExpectDataLoss(WithRung(good, r.section, r.rung, infinite_entry),
                   "PSR top-k entry is not finite");
  }
}

// Version 2 writes each rung's scan_end and then exactly its live
// prefix. Every way a CRC-valid file can break that is DataLoss with its
// own message, in the engine's rung and in a session's own.
TEST(SnapshotCorruptionTest, CraftedV2RungsAreDataLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const TestPool built = MakeCraftingPool(MatrixOptions());
  const std::string good = SerializedPool(built.pool);
  const size_t n = built.pool.base().num_tuples();
  // The run `has_rank_probabilities, rank_prob` of a rung with a matrix.
  const auto with_matrix = [&good](uint32_t section, const PsrOutput& rung,
                                   bool has, const std::vector<double>& m) {
    const auto encode = [](bool flag, const std::vector<double>& matrix) {
      store::BinWriter w;
      w.Bool(flag);
      w.F64Array(matrix);
      return w.Take();
    };
    return WithRun(good, section, encode(true, rung.rank_prob),
                   encode(has, m));
  };
  const struct {
    const char* name;
    uint32_t section;
    const PsrOutput& rung;
  } rungs[] = {
      {"engine", store::kSectionEngine, built.pool.base_psr(0)},
      {"session", store::kSectionSessions, built.pool.psr(built.ids[0], 0)},
  };
  for (const auto& r : rungs) {
    SCOPED_TRACE(r.name);
    const PsrOutput& rung = r.rung;
    ASSERT_GT(rung.scan_end, 0u);
    ASSERT_LT(rung.scan_end, n);
    ASSERT_EQ(rung.rank_prob.size(), rung.scan_end * rung.k);
    ASSERT_EQ(WithRung(good, r.section, rung, rung), good);
    ASSERT_EQ(with_matrix(r.section, rung, true, rung.rank_prob), good);

    PsrOutput short_prefix = rung;
    short_prefix.topk_prob.pop_back();
    PsrOutput long_prefix = rung;
    long_prefix.topk_prob.push_back(0.0);
    PsrOutput past_n = rung;
    past_n.scan_end = n + 1;
    past_n.topk_prob.resize(n + 1, 0.0);
    PsrOutput nan_entry = rung;
    nan_entry.topk_prob.back() = nan;
    PsrOutput one_high = rung;
    ++one_high.num_nonzero;
    const char* prefix = "PSR top-k prefix is not scan_end entries";
    ExpectDataLoss(WithRung(good, r.section, rung, short_prefix), prefix);
    ExpectDataLoss(WithRung(good, r.section, rung, long_prefix), prefix);
    ExpectDataLoss(WithRung(good, r.section, rung, past_n),
                   "PSR scan_end is past the last tuple");
    ExpectDataLoss(WithRung(good, r.section, rung, nan_entry),
                   "PSR top-k entry is not finite");
    ExpectDataLoss(WithRung(good, r.section, rung, one_high),
                   "PSR nonzero count does not match");

    const std::vector<double>& m = rung.rank_prob;
    const std::vector<double> entry_short(m.begin(), m.end() - 1);
    const std::vector<double> row_short(m.begin(), m.end() - rung.k);
    std::vector<double> entry_long = m;
    entry_long.push_back(0.0);
    std::vector<double> nan_matrix = m;
    nan_matrix[0] = nan;
    const char* matrix = "PSR rank-probability prefix is not scan_end * k";
    ExpectDataLoss(with_matrix(r.section, rung, true, entry_short), matrix);
    ExpectDataLoss(with_matrix(r.section, rung, true, row_short), matrix);
    ExpectDataLoss(with_matrix(r.section, rung, true, entry_long), matrix);
    ExpectDataLoss(with_matrix(r.section, rung, false, m), matrix);
    ExpectDataLoss(with_matrix(r.section, rung, true, nan_matrix),
                   "PSR rank probability is not finite");
  }

  // Both TP ladders live in the sessions section: the base one pairs with
  // the engine's rung, the session's with its own.
  const struct {
    const char* name;
    const TpOutput& tp;
  } ladders[] = {
      {"base", built.pool.base_tp(0)},
      {"session", built.pool.tp(built.ids[0], 0)},
  };
  for (const auto& l : ladders) {
    SCOPED_TRACE(l.name);
    ASSERT_GT(l.tp.scan_end, 0u);
    ASSERT_EQ(WithTpRecord(good, l.tp, l.tp), good);
    TpOutput short_omega = l.tp;
    short_omega.omega.pop_back();
    TpOutput long_omega = l.tp;
    long_omega.omega.push_back(0.0);
    TpOutput one_deeper = l.tp;
    ++one_deeper.scan_end;
    one_deeper.omega.push_back(0.0);
    TpOutput nan_omega = l.tp;
    nan_omega.omega.back() = nan;
    const char* prefix = "TP omega prefix is not scan_end entries";
    ExpectDataLoss(WithTpRecord(good, l.tp, short_omega), prefix);
    ExpectDataLoss(WithTpRecord(good, l.tp, long_omega), prefix);
    ExpectDataLoss(WithTpRecord(good, l.tp, one_deeper),
                   "TP scan_end does not match its PSR rung");
    ExpectDataLoss(WithTpRecord(good, l.tp, nan_omega),
                   "TP omega entry is not finite");
  }
}

// Memory holds each rung's live prefix [0, scan_end), and so does the
// wire: every loaded rung is sized as the writer's was, and the loaded
// pool writes the same bytes. Format v1 held n entries per rung (n * k
// for a stored matrix), zero-padded; its load checks the tail and drops
// it.
TEST(SnapshotRoundTripTest, RungsLoadAsTheirLivePrefix) {
  const ProbabilisticDatabase db = MakeDb(120);
  const size_t n = db.num_tuples();
  for (bool matrix : {false, true}) {
    SCOPED_TRACE(matrix ? "matrix" : "no matrix");
    SessionPool::Options options;
    options.psr.store_rank_probabilities = matrix;
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(db), MakeLadder({5, 20}), options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const SessionPool::SessionId cleaned = pool->OpenSession();
    const SessionPool::SessionId pristine = pool->OpenSession();
    const XTupleId top = db.tuple(0).xtuple;
    ASSERT_TRUE(pool->ApplyCleanOutcome(cleaned, top, -1).ok());
    ASSERT_TRUE(pool->Refresh(cleaned).ok());
    const std::string bytes = SerializedPool(*pool);

    Result<store::LoadedSnapshot> loaded =
        SnapshotAccess::Deserialize(bytes, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const SessionPool& back = loaded->pool;
    for (size_t rung = 0; rung < back.num_rungs(); ++rung) {
      const PsrOutput& base = back.base_psr(rung);
      EXPECT_EQ(RungSizeError(base, n), "") << "base rung " << rung;
      EXPECT_EQ(TpSizeError(back.base_tp(rung), base), "") << rung;
      ExpectPsrEq(base, pool->base_psr(rung));
      for (SessionPool::SessionId id : {cleaned, pristine}) {
        const PsrOutput& psr = back.psr(id, rung);
        EXPECT_EQ(RungSizeError(psr, n), "") << "session " << id;
        EXPECT_EQ(TpSizeError(back.tp(id, rung), psr), "") << id;
        ExpectPsrEq(psr, pool->psr(id, rung));
        EXPECT_EQ(back.tp(id, rung).omega, pool->tp(id, rung).omega);
      }
    }
    EXPECT_EQ(SerializedPool(back), bytes);
  }

  // A format-v1 matrix's zero tail is checked like the top-k vector's.
  const TestPool built = MakeCraftingPool(MatrixOptions());
  const std::string v1 = Fixture(kMatrixV1File);
  ASSERT_EQ(built.pool.base().num_tuples(), n);
  const PsrOutput& rung = built.pool.base_psr(0);
  ASSERT_LT(rung.scan_end, n);
  const auto encode = [&rung, n](const std::vector<double>& m) {
    store::BinWriter w;
    w.F64Array(ZeroPadded(m, n * rung.k));
    w.Bool(true);
    return w.Take();
  };
  std::vector<double> wire = rung.rank_prob;
  wire.resize(n * rung.k, 0.0);
  wire[rung.scan_end * rung.k] = 1e-300;
  ExpectDataLoss(WithRun(v1, store::kSectionEngine, encode(rung.rank_prob),
                         encode(wire)),
                 "rank probability at or past scan_end");
}

/// A checkpoint as the format spec lays it out: the test's own mirror of
/// the engine's private Checkpoint, so a crafted file can re-encode one.
struct WireCheckpoint {
  uint64_t pos = 0;
  uint64_t live = 0;
  std::vector<double> c;
  uint64_t active = 0;
  uint64_t saturated = 0;
  struct Entry {
    int64_t xtuple = 0;
    uint8_t state = 0;
    double q = 0.0;
  };
  std::vector<Entry> xs;
};

template <typename Codec>
void TransferWire(Codec& c, store::Io<Codec, WireCheckpoint>& cp) {
  c.Varint(cp.pos);
  c.Varint(cp.live);
  c.F64Array(cp.c);
  c.Varint(cp.active);
  c.Varint(cp.saturated);
  c.Size(cp.xs);
  for (auto& x : cp.xs) {
    c.Zigzag(x.xtuple);
    c.U8(x.state);
    c.F64(x.q);
  }
}

/// Reads past one encoded PSR rung.
void SkipRung(store::BinReader& r) {
  uint64_t u = 0;
  std::vector<double> v;
  std::vector<int32_t> index;
  bool b = false;
  r.Varint(u);  // k
  r.Varint(u);  // scan_end
  r.F64Array(v);
  r.Varint(u);  // num_nonzero
  r.F64Array(v);
  r.Size(index);
  for (int32_t& i : index) r.Zigzag(i);
  r.Bool(b);
  r.F64Array(v);
}

/// `good` with checkpoint `index` of the engine's list, or of session
/// slot 0's (which must hold state), passed through `mutate`.
template <typename Fn>
std::string WithCheckpoint(const std::string& good, uint32_t section_id,
                           size_t index, Fn mutate) {
  return WithPayload(good, section_id, [&](std::string payload) {
    store::BinReader r(payload);
    const auto skip_list = [&r](auto skip_one) {
      uint64_t count = 0;
      r.Varint(count);
      for (uint64_t i = 0; i < count; ++i) skip_one();
    };
    bool flag = false;
    if (section_id == store::kSectionEngine) {
      std::vector<size_t> ladder;
      r.Bool(flag);
      r.Bool(flag);
      r.VarintArray(ladder);
    } else {
      skip_list([&r] {  // the base TP ladder
        double quality = 0.0;
        uint64_t scan_end = 0;
        std::vector<double> v;
        r.F64(quality);
        r.Varint(scan_end);
        r.F64Array(v);
        r.F64Array(v);
        r.F64Array(v);
      });
      uint64_t slots = 0;
      r.Varint(slots);
      r.Bool(flag);  // slot 0 is open
      skip_list([&r] {
        int64_t id = 0;
        r.Zigzag(id);
        r.Zigzag(id);
      });
      r.Bool(flag);  // and holds state
    }
    skip_list([&r] { SkipRung(r); });
    uint64_t count = 0;
    r.Varint(count);
    UCLEAN_CHECK(index < count);
    WireCheckpoint cp;
    size_t begin = 0;
    for (size_t i = 0; i <= index; ++i) {
      begin = r.offset();
      TransferWire(r, cp);
    }
    UCLEAN_CHECK(r.ok());
    const size_t end = r.offset();
    mutate(cp);
    store::BinWriter w;
    TransferWire(w, cp);
    return payload.replace(begin, end - begin, w.bytes());
  });
}

TEST(SnapshotCorruptionTest, CraftedCheckpointIsDataLoss) {
  TestPool built = MakeCraftingPool();
  const std::string good = SerializedPool(built.pool);
  const std::vector<size_t> session_cps =
      SnapshotAccess::SessionCheckpointPositions(built.pool, built.ids[0]);
  ASSERT_GE(SnapshotAccess::EngineCheckpointPositions(built.pool).size(), 2u);
  ASSERT_GE(session_cps.size(), 2u);
  const auto unchanged = [](WireCheckpoint&) {};
  const auto one_more_saturated = [](WireCheckpoint& cp) { ++cp.saturated; };
  const auto first_entry_flipped = [](WireCheckpoint& cp) {
    UCLEAN_CHECK(!cp.xs.empty());
    cp.xs[0].state = static_cast<uint8_t>(3 - cp.xs[0].state);
  };
  for (uint32_t section : {store::kSectionEngine, store::kSectionSessions}) {
    SCOPED_TRACE(store::SectionName(section));
    ASSERT_EQ(WithCheckpoint(good, section, 1, unchanged), good);
    // A checkpoint's active and saturated counts are its x-tuple entries'.
    ExpectDataLoss(WithCheckpoint(good, section, 1, one_more_saturated),
                   "counts");
    ExpectDataLoss(WithCheckpoint(good, section, 1, first_entry_flipped),
                   "counts");
  }
  // Scans restore checkpoints, so each one must be what a walk of the
  // database (or the session's overlay) reaches there, bit for bit, and
  // its count vector must hold finite entries that are not negative.
  const auto q_one_ulp_off = [](WireCheckpoint& cp) {
    UCLEAN_CHECK(!cp.xs.empty());
    cp.xs[0].q = std::nextafter(cp.xs[0].q, 2.0);
  };
  const auto entry_moved = [](WireCheckpoint& cp) {
    // To a free x-tuple id past the last one: the list stays ascending.
    UCLEAN_CHECK(!cp.xs.empty());
    ++cp.xs.back().xtuple;
  };
  const auto nan_count = [](WireCheckpoint& cp) {
    cp.c[0] = std::numeric_limits<double>::quiet_NaN();
  };
  const auto negative_count = [](WireCheckpoint& cp) { cp.c[0] = -1e-300; };
  for (uint32_t section : {store::kSectionEngine, store::kSectionSessions}) {
    SCOPED_TRACE(store::SectionName(section));
    ExpectDataLoss(WithCheckpoint(good, section, 1, q_one_ulp_off), "walk");
    ExpectDataLoss(WithCheckpoint(good, section, 1, entry_moved), "walk");
    ExpectDataLoss(WithCheckpoint(good, section, 1, nan_count),
                   "negative or not finite");
    ExpectDataLoss(WithCheckpoint(good, section, 1, negative_count),
                   "negative or not finite");
  }
  // An engine checkpoint's live rank is its position: the base database
  // has no dead slots. (Session checkpoints run over an overlay.)
  const auto one_less_live = [](WireCheckpoint& cp) { --cp.live; };
  ExpectDataLoss(WithCheckpoint(good, store::kSectionEngine, 1, one_less_live),
                 "live rank");
}

// ---------------------------------------------------- checkpoint placement

/// 20,000 tuples of sub-unit mass: a k = 400 scan runs past two
/// count-refresh grid points, so Create and shallow replays shard.
ProbabilisticDatabase MakeDeepScanDb() {
  SyntheticOptions opts;
  opts.num_xtuples = 2000;
  opts.tuples_per_xtuple = 10;
  opts.real_mass_min = 0.3;
  opts.real_mass_max = 0.6;
  opts.seed = 20261019;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// The first rank at or below `rank` that is its x-tuple's best member.
size_t BestMemberAtOrBelow(const ProbabilisticDatabase& db, size_t rank) {
  while (db.xtuple_members(db.tuple(rank).xtuple)[0] !=
         static_cast<int32_t>(rank)) {
    ++rank;
  }
  return rank;
}

/// What a pool built and refreshed at one width leaves behind: the
/// engine's checkpoint ranks, every session's after each refresh round,
/// and the snapshot's database, engine and sessions sections (the meta
/// section records the width itself).
struct WidthRun {
  std::vector<size_t> engine;
  std::vector<std::vector<size_t>> sessions;
  std::vector<std::string> sections;
};

WidthRun RunPoolAtWidth(const ProbabilisticDatabase& db,
                        const KLadder& ladder, size_t interval,
                        size_t threads) {
  SessionPool::Options options;
  options.exec.num_threads = threads;
  options.checkpoint_interval = interval;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
  UCLEAN_CHECK(pool.ok());
  WidthRun run;
  run.engine = SnapshotAccess::EngineCheckpointPositions(*pool);
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < 3; ++s) ids.push_back(pool->OpenSession());
  // Each round cleans shallow and deep ranks (a null outcome among
  // them), refreshes one session alone -- its replay shards on the
  // caller's thread -- and the rest through RefreshAll, whose fan-out
  // runs each replay as one shard on a pool worker.
  const struct {
    size_t session;
    size_t rank;
    bool null;
  } rounds[3][3] = {
      {{0, 40, false}, {1, 3000, false}, {2, 700, true}},
      {{0, 9000, false}, {1, 15, true}, {2, 120, false}},
      {{0, 5, false}, {1, 5000, false}, {2, 60, false}},
  };
  for (size_t r = 0; r < 3; ++r) {
    for (const auto& clean : rounds[r]) {
      const XTupleId x = db.tuple(BestMemberAtOrBelow(db, clean.rank)).xtuple;
      const TupleId resolved = clean.null ? -1 : FirstMemberId(db, x);
      UCLEAN_CHECK(
          pool->ApplyCleanOutcome(ids[clean.session], x, resolved).ok());
    }
    UCLEAN_CHECK(pool->Refresh(ids[r]).ok());
    UCLEAN_CHECK(pool->RefreshAll().ok());
    for (SessionPool::SessionId id : ids) {
      run.sessions.push_back(
          SnapshotAccess::SessionCheckpointPositions(*pool, id));
    }
  }
  Result<store::SnapshotFile> file =
      store::SnapshotFile::Parse(SerializedPool(*pool));
  UCLEAN_CHECK(file.ok());
  for (uint32_t id : {store::kSectionDatabase, store::kSectionEngine,
                      store::kSectionSessions}) {
    run.sections.emplace_back(file->payload(*file->Find(id)));
  }
  return run;
}

/// One checkpoint rule at every width: a pool built and refreshed on 1,
/// 2 or 4 threads keeps the same checkpoints and writes the same
/// snapshot sections, and so does a CleaningSession, at intervals that
/// thin (4), sit off the count-refresh grid (7) and the default (64).
TEST(CheckpointPlacementTest, ListsAndSectionsDoNotDependOnWidth) {
  const ProbabilisticDatabase db = MakeDeepScanDb();
  const KLadder ladder = MakeLadder({10, 100, 400});
  for (const size_t interval : {4u, 7u, 64u}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    const WidthRun want = RunPoolAtWidth(db, ladder, interval, 1);
    ASSERT_GT(want.engine.back(), 2 * psr_internal::kCountRefreshGridLive);
    for (const size_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const WidthRun got = RunPoolAtWidth(db, ladder, interval, threads);
      EXPECT_EQ(got.engine, want.engine);
      EXPECT_EQ(got.sessions, want.sessions);
      ASSERT_EQ(got.sections.size(), want.sections.size());
      for (size_t i = 0; i < want.sections.size(); ++i) {
        EXPECT_TRUE(got.sections[i] == want.sections[i]) << "section " << i;
      }
    }

    std::vector<std::vector<size_t>> lists[2];
    for (const size_t threads : {1u, 4u}) {
      CleaningSession::Options options;
      options.exec.num_threads = threads;
      options.checkpoint_interval = interval;
      Result<CleaningSession> session =
          CleaningSession::Start(ProbabilisticDatabase(db), ladder, options);
      ASSERT_TRUE(session.ok()) << session.status();
      std::vector<std::vector<size_t>>& list = lists[threads > 1];
      list.push_back(session->checkpoint_positions());
      for (const size_t rank : {3000u, 40u, 9000u}) {
        const XTupleId x = db.tuple(BestMemberAtOrBelow(db, rank)).xtuple;
        ASSERT_TRUE(session->ApplyCleanOutcome(x, FirstMemberId(db, x)).ok());
        ASSERT_TRUE(session->Refresh().ok());
        list.push_back(session->checkpoint_positions());
      }
    }
    EXPECT_EQ(lists[1], lists[0]);
  }
}

/// Snapshots a sharded build wrote before checkpoints followed one rule
/// hold lists off it. The reader checks checkpoint states, not their
/// placement, so such a file loads, its sessions refresh bitwise to a
/// fresh scan of their views, and their new checkpoints follow the rule.
TEST(CheckpointPlacementTest, OffRuleListsFromOlderWritersLoad) {
  const ProbabilisticDatabase db = MakeDb(400);
  const KLadder ladder = MakeLadder({5, 60});
  SessionPool::Options options;
  options.checkpoint_interval = 16;
  options.psr.store_rank_probabilities = true;  // replays rebuild argmaxes
  Result<SessionPool> built =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const SessionPool::SessionId id = built->OpenSession();
  const std::vector<size_t> engine_cps =
      SnapshotAccess::EngineCheckpointPositions(*built);
  ASSERT_GE(engine_cps.size(), 6u);
  // Raising the engine's stored interval 16 -> 32 (the section's last
  // varint) leaves every odd multiple of 16 off the rule.
  const std::string crafted = WithPayload(
      SerializedPool(*built), store::kSectionEngine, [](std::string payload) {
        UCLEAN_CHECK(payload.back() == 16);
        payload.back() = 32;
        return payload;
      });
  Result<store::LoadedSnapshot> loaded =
      SnapshotAccess::Deserialize(crafted, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  SessionPool& pool = loaded->pool;
  EXPECT_EQ(SnapshotAccess::EngineCheckpointPositions(pool), engine_cps);

  // A clean whose deepest valid shared checkpoint is an odd multiple of
  // 16: the replay restores it and checkpoints on past it.
  size_t rank = 16;
  do {
    rank = BestMemberAtOrBelow(db, rank + 1);
  } while (rank / 16 % 2 == 0);
  const XTupleId x = db.tuple(rank).xtuple;
  ASSERT_TRUE(pool.ApplyCleanOutcome(id, x, FirstMemberId(db, x)).ok());
  ASSERT_TRUE(pool.Refresh(id).ok());

  const DatabaseOverlay& view = pool.overlay(id);
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options.psr;
  request.overlay = &view;
  Result<ScanResult> psr = ComputePsrLadder(view.base(), request);
  ASSERT_TRUE(psr.ok()) << psr.status();
  Result<std::vector<TpOutput>> tps =
      ComputeTpQualityLadder(view, psr->outputs);
  ASSERT_TRUE(tps.ok()) << tps.status();
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    EXPECT_EQ(RungBitsDiffer(pool.psr(id, rung), psr->output(rung)), "");
    EXPECT_EQ(pool.tp(id, rung).omega, (*tps)[rung].omega);
    EXPECT_EQ(pool.tp(id, rung).xtuple_gain, (*tps)[rung].xtuple_gain);
    EXPECT_EQ(pool.quality(id, rung), (*tps)[rung].quality);
  }
  const std::vector<size_t> own =
      SnapshotAccess::SessionCheckpointPositions(pool, id);
  ASSERT_FALSE(own.empty());
  for (const size_t pos : own) {
    size_t live = 0;
    for (size_t i = 0; i < pos; ++i) live += !view.is_tombstone(i);
    EXPECT_EQ(live % 32, 0u) << "checkpoint at rank " << pos;
  }
}

TEST(SnapshotCorruptionTest, OutOfRangeInjectorSourceIsDataLoss) {
  const FormatPool built = MakeFormatPool(40);
  std::string good;
  ASSERT_TRUE(
      SnapshotAccess::Serialize(built.pool, &built.campaign, &good).ok());
  const FaultInjectorState& injector = built.campaign.sessions[0].injector;
  // The breaker and down-source tables, with the first source of each
  // widened to int64 so a crafted one can leave XTupleId's range.
  const auto tables = [&injector](int64_t breaker_source, int64_t down_source) {
    store::BinWriter w;
    w.Size(injector.breakers);
    for (const FaultInjectorState::BreakerEntry& b : injector.breakers) {
      w.Zigzag(&b == &injector.breakers[0] ? breaker_source : b.source);
      w.U8(b.state);
      w.Zigzag(b.consecutive_failures);
      w.Zigzag(b.open_until_us);
    }
    w.Size(injector.down);
    for (const FaultInjectorState::DownEntry& d : injector.down) {
      w.Zigzag(&d == &injector.down[0] ? down_source : d.source);
      w.Bool(d.down);
    }
    return w.Take();
  };
  const int64_t breaker = injector.breakers[0].source;
  const int64_t down = injector.down[0].source;
  const std::string run = tables(breaker, down);
  ASSERT_EQ(WithRun(good, store::kSectionCampaign, run, run), good);
  // 2^31 narrowed to XTupleId would wrap to INT32_MIN, and -2^31 - 1 to
  // INT32_MAX: each must be rejected, not resumed on another x-tuple.
  const int64_t past_max = int64_t{1} << 31;
  const int64_t past_min = -past_max - 1;
  for (const std::string& crafted :
       {tables(past_max, down), tables(breaker, past_min)}) {
    Result<store::LoadedSnapshot> loaded = SnapshotAccess::Deserialize(
        WithRun(good, store::kSectionCampaign, run, crafted), ScalarOptions());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(SnapshotCorruptionTest, CrcValidPayloadCutsAndFlipsNeverCrash) {
  // The sweeps above cut at section boundaries or flip bytes under a
  // CRC. Here every section payload is rewrapped with valid CRCs after a
  // cut inside it or a flipped byte, so the decoder's own bounds are the
  // only line of defense: every cut is DataLoss, every flip loads or is
  // DataLoss, and nothing crashes -- in the current writer's bytes and
  // in the format-v1 fixture's.
  const FormatPool built = MakeFormatPool(40);
  std::string current;
  ASSERT_TRUE(
      SnapshotAccess::Serialize(built.pool, &built.campaign, &current).ok());
  const struct {
    const char* name;
    std::string bytes;
  } images[] = {{"current", current}, {"format v1", Fixture(kFormatV1File)}};
  Rng rng(20261017);
  for (const auto& image : images) {
    SCOPED_TRACE(image.name);
    const std::string& good = image.bytes;
    Result<store::SnapshotFile> file = store::SnapshotFile::Parse(good);
    ASSERT_TRUE(file.ok());
    for (const store::SectionEntry& entry : file->sections()) {
      SCOPED_TRACE(store::SectionName(entry.id));
      const int64_t size = static_cast<int64_t>(entry.size);
      std::vector<int64_t> cuts;
      for (int64_t cut = 0; cut < std::min<int64_t>(size, 512); ++cut) {
        cuts.push_back(cut);
      }
      for (int i = 0; i < 128 && size > 512; ++i) {
        cuts.push_back(rng.UniformInt(512, size - 1));
      }
      for (int64_t cut : cuts) {
        const std::string bad =
            WithPayload(good, entry.id, [cut](std::string payload) {
              payload.resize(static_cast<size_t>(cut));
              return payload;
            });
        const Status status =
            SnapshotAccess::Deserialize(bad, ScalarOptions()).status();
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "cut at " << cut;
      }
      for (int i = 0; i < 600; ++i) {
        const size_t at = static_cast<size_t>(rng.UniformInt(0, size - 1));
        const char mask = static_cast<char>(rng.UniformInt(1, 255));
        const std::string bad =
            WithPayload(good, entry.id, [at, mask](std::string payload) {
              payload[at] = static_cast<char>(payload[at] ^ mask);
              return payload;
            });
        const Status status =
            SnapshotAccess::Deserialize(bad, ScalarOptions()).status();
        EXPECT_TRUE(status.ok() || status.code() == StatusCode::kDataLoss)
            << "byte " << at << " ^ " << int{static_cast<uint8_t>(mask)}
            << ": " << status;
      }
    }
  }
}

// ---------------------------------------------------------------- inspect

TEST(SnapshotInspectTest, ReportsSectionsAndMeta) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool built = MakeServingPool(db, MakeLadder({5, 20}));
  const std::string path = TempPath("inspect.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, path).ok());

  Result<store::SnapshotInfo> info = store::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(info->format_version, store::kSnapshotFormatVersion);
  ASSERT_EQ(info->sections.size(), 4u);
  EXPECT_EQ(info->sections[0].name, "meta");
  EXPECT_EQ(info->sections[1].name, "database");
  EXPECT_EQ(info->sections[2].name, "engine");
  EXPECT_EQ(info->sections[3].name, "sessions");
  ASSERT_TRUE(info->has_meta);
  EXPECT_EQ(info->meta.tool, "uclean");
  // The recorded kernel is the writer's RESOLVED one, never "auto".
  EXPECT_TRUE(info->meta.kernel == "scalar" || info->meta.kernel == "avx2")
      << info->meta.kernel;
  EXPECT_GE(info->meta.threads, 1u);
  EXPECT_EQ(info->meta.num_xtuples, db.num_xtuples());
  EXPECT_EQ(info->meta.num_sessions, 3u);
  EXPECT_EQ(info->meta.ladder, (std::vector<size_t>{5, 20}));

  // Corrupt file: inspect fails with DataLoss like the full reader.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  const std::string bad_path = TempPath("inspect_bad.snap");
  std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_EQ(store::InspectSnapshot(bad_path).status().code(),
            StatusCode::kDataLoss);
}

// ------------------------------------------------- resumed determinism

struct CampaignArm {
  PipelineReport report;
  std::vector<std::vector<double>> quality;  // [session][rung], from the pool
  std::vector<std::mt19937_64> engines;      // final Rng engine states
  std::vector<FaultInjectorState> injectors; // final injector states
};

FaultOptions CampaignFaults() {
  FaultOptions fault;
  fault.enabled = true;
  fault.profile.fail_rate = 0.25;
  fault.profile.down_rate = 0.05;
  fault.seed = 71;
  return fault;
}

std::vector<FaultInjector> MakeInjectors(const FaultOptions& fault,
                                         size_t n) {
  std::vector<FaultInjector> injectors;
  injectors.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    FaultOptions session_fault = fault;
    session_fault.seed = fault.seed + s;
    injectors.emplace_back(session_fault);
  }
  return injectors;
}

/// Runs the uninterrupted reference campaign: `rounds` rounds of adaptive
/// cleaning with faults on a fresh pool.
CampaignArm RunUninterrupted(const ProbabilisticDatabase& db,
                             const KLadder& ladder,
                             const CleaningProfile& profile, size_t sessions,
                             int64_t budget, size_t rounds, bool overlap,
                             size_t threads) {
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
  const FaultOptions fault = CampaignFaults();
  std::vector<FaultInjector> injectors = MakeInjectors(fault, sessions);

  PipelineOptions options;
  options.overlap = overlap;
  options.max_rounds = rounds;
  options.fault = fault;
  options.injectors = &injectors;
  Result<PipelineReport> report =
      RunPipelinedCleaning(&*pool, ids, profile, budget, &rngs, options);
  UCLEAN_CHECK(report.ok());

  CampaignArm arm;
  arm.report = std::move(report).value();
  for (size_t s = 0; s < sessions; ++s) {
    std::vector<double> quality;
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      quality.push_back(pool->quality(ids[s], rung));
    }
    arm.quality.push_back(std::move(quality));
    arm.engines.push_back(rngs[s].engine());
    arm.injectors.push_back(injectors[s].SaveState());
  }
  return arm;
}

/// Runs `split` rounds, snapshots pool + campaign to disk, reloads into a
/// FRESH pool and finishes the remaining rounds from the file's state.
CampaignArm RunSplitThroughSnapshot(const ProbabilisticDatabase& db,
                                    const KLadder& ladder,
                                    const CleaningProfile& profile,
                                    size_t sessions, int64_t budget,
                                    size_t rounds, size_t split, bool overlap,
                                    size_t threads, const std::string& path) {
  SessionPool::Options pool_options;
  pool_options.exec.num_threads = threads;
  const FaultOptions fault = CampaignFaults();

  // ---- part 1: rounds [0, split) on the original pool.
  store::CampaignSnapshot saved;
  {
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(db), ladder, pool_options);
    UCLEAN_CHECK(pool.ok());
    std::vector<SessionPool::SessionId> ids;
    std::vector<Rng> rngs;
    for (size_t s = 0; s < sessions; ++s) {
      ids.push_back(pool->OpenSession());
      rngs.emplace_back(kRngBase + s);
    }
    std::vector<FaultInjector> injectors = MakeInjectors(fault, sessions);
    PipelineOptions options;
    options.overlap = overlap;
    options.max_rounds = split;
    options.fault = fault;
    options.injectors = &injectors;
    Result<PipelineReport> part1 =
        RunPipelinedCleaning(&*pool, ids, profile, budget, &rngs, options);
    UCLEAN_CHECK(part1.ok());

    saved.budget = budget;
    for (size_t s = 0; s < sessions; ++s) {
      store::CampaignSessionSnapshot cs;
      cs.session_id = ids[s];
      cs.spent = part1->sessions[s].spent;
      cs.leftover = part1->sessions[s].leftover;
      cs.successes = part1->sessions[s].successes;
      cs.rounds = part1->sessions[s].rounds;
      cs.log = part1->sessions[s].log;
      cs.faults = part1->sessions[s].faults;
      cs.rng_state = rngs[s].SaveState();
      cs.has_injector = true;
      cs.injector = injectors[s].SaveState();
      saved.sessions.push_back(std::move(cs));
    }
    UCLEAN_CHECK(store::WriteSnapshot(*pool, path, &saved).ok());
    // The writer's pool dies here: the resumed arm starts from the file.
  }

  // ---- part 2: reload and finish rounds [split, rounds).
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path, [&] {
    SessionPool::Options o;
    o.exec.num_threads = threads;
    return o;
  }());
  UCLEAN_CHECK(loaded.ok());
  UCLEAN_CHECK(loaded->has_campaign);
  SessionPool pool = std::move(loaded->pool);

  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  std::vector<FaultInjector> injectors = MakeInjectors(fault, sessions);
  std::vector<int64_t> spent_so_far;
  for (size_t s = 0; s < sessions; ++s) {
    const store::CampaignSessionSnapshot& cs = loaded->campaign.sessions[s];
    ids.push_back(static_cast<SessionPool::SessionId>(cs.session_id));
    rngs.emplace_back(0);
    UCLEAN_CHECK(rngs.back().RestoreState(cs.rng_state).ok());
    UCLEAN_CHECK(cs.has_injector);
    UCLEAN_CHECK(injectors[s].RestoreState(cs.injector).ok());
    spent_so_far.push_back(cs.spent);
  }
  PipelineOptions options;
  options.overlap = overlap;
  options.max_rounds = rounds - split;
  options.fault = fault;
  options.injectors = &injectors;
  options.spent_so_far = spent_so_far;
  Result<PipelineReport> part2 =
      RunPipelinedCleaning(&pool, ids, profile, budget, &rngs, options);
  UCLEAN_CHECK(part2.ok());

  // Merge the saved progress with part 2's report -- what a resuming
  // caller does.
  CampaignArm arm;
  arm.report = std::move(part2).value();
  for (size_t s = 0; s < sessions; ++s) {
    const store::CampaignSessionSnapshot& cs = loaded->campaign.sessions[s];
    PipelineSessionReport& session = arm.report.sessions[s];
    session.spent += cs.spent;
    session.leftover += cs.leftover;
    session.successes += cs.successes;
    session.rounds += cs.rounds;
    session.log.insert(session.log.begin(), cs.log.begin(), cs.log.end());
    session.faults += cs.faults;
    std::vector<double> quality;
    for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
      quality.push_back(pool.quality(ids[s], rung));
    }
    arm.quality.push_back(std::move(quality));
    arm.engines.push_back(rngs[s].engine());
    arm.injectors.push_back(injectors[s].SaveState());
  }
  return arm;
}

void ExpectCampaignsBitwiseEqual(const CampaignArm& a, const CampaignArm& b) {
  ASSERT_EQ(a.report.sessions.size(), b.report.sessions.size());
  for (size_t s = 0; s < a.report.sessions.size(); ++s) {
    const PipelineSessionReport& x = a.report.sessions[s];
    const PipelineSessionReport& y = b.report.sessions[s];
    EXPECT_EQ(x.spent, y.spent) << s;
    EXPECT_EQ(x.leftover, y.leftover) << s;
    EXPECT_EQ(x.successes, y.successes) << s;
    EXPECT_EQ(x.rounds, y.rounds) << s;
    EXPECT_EQ(x.log, y.log) << s;
    EXPECT_TRUE(x.faults == y.faults) << s;
    EXPECT_EQ(x.final_quality, y.final_quality) << s;
    EXPECT_EQ(a.quality[s], b.quality[s]) << s;
    EXPECT_EQ(a.engines[s], b.engines[s]) << s;
    ExpectInjectorStateEq(a.injectors[s], b.injectors[s]);
  }
}

TEST(SnapshotResumeTest, MidCampaignSaveResumesBitwiseSerial) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({10});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  const size_t kSessions = 3;
  const int64_t kBudget = 60;
  const size_t kRounds = 4;

  CampaignArm whole = RunUninterrupted(db, ladder, profile, kSessions,
                                       kBudget, kRounds, /*overlap=*/false,
                                       /*threads=*/1);
  CampaignArm resumed = RunSplitThroughSnapshot(
      db, ladder, profile, kSessions, kBudget, kRounds, /*split=*/1,
      /*overlap=*/false, /*threads=*/1, TempPath("resume_serial.snap"));

  // The split must be a genuine mid-campaign save: both halves probed.
  ASSERT_GT(resumed.report.sessions[0].spent, 0);
  ExpectCampaignsBitwiseEqual(whole, resumed);
}

TEST(SnapshotResumeTest, MidCampaignSaveResumesBitwisePipelined) {
  const ProbabilisticDatabase db = MakeDb();
  const KLadder ladder = MakeLadder({10});
  const CleaningProfile profile = MakeProfile(db.num_xtuples());
  const size_t kSessions = 3;
  const int64_t kBudget = 60;
  const size_t kRounds = 4;

  CampaignArm whole = RunUninterrupted(db, ladder, profile, kSessions,
                                       kBudget, kRounds, /*overlap=*/true,
                                       /*threads=*/4);
  CampaignArm resumed = RunSplitThroughSnapshot(
      db, ladder, profile, kSessions, kBudget, kRounds, /*split=*/2,
      /*overlap=*/true, /*threads=*/4, TempPath("resume_pipelined.snap"));

  ASSERT_GT(resumed.report.sessions[0].spent, 0);
  ExpectCampaignsBitwiseEqual(whole, resumed);
}

TEST(SnapshotResumeTest, CampaignSectionRoundTripsVerbatim) {
  const ProbabilisticDatabase db = MakeDb(120);
  TestPool built = MakeServingPool(db, MakeLadder({5}));

  store::CampaignSnapshot campaign;
  campaign.budget = 77;
  store::CampaignSessionSnapshot cs;
  cs.session_id = built.ids[0];
  cs.spent = 13;
  cs.leftover = 2;
  cs.successes = 4;
  cs.rounds = 2;
  ProbeRecord record;
  record.xtuple = 3;
  record.attempts = 2;
  record.spent = 6;
  record.success = true;
  record.resolved_id = FirstMemberId(db, 3);
  record.retries = 1;
  record.last_error = StatusCode::kUnavailable;
  cs.log.push_back(record);
  cs.faults.transient = 5;
  cs.faults.budget_unspent = 3;
  Rng rng(123);
  (void)rng.UniformUnit();
  cs.rng_state = rng.SaveState();
  cs.has_injector = false;
  campaign.sessions.push_back(cs);

  const std::string path = TempPath("campaign.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, path, &campaign).ok());
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded->has_campaign);
  EXPECT_EQ(loaded->campaign.budget, 77);
  ASSERT_EQ(loaded->campaign.sessions.size(), 1u);
  const store::CampaignSessionSnapshot& got = loaded->campaign.sessions[0];
  EXPECT_EQ(got.session_id, cs.session_id);
  EXPECT_EQ(got.spent, cs.spent);
  EXPECT_EQ(got.leftover, cs.leftover);
  EXPECT_EQ(got.successes, cs.successes);
  EXPECT_EQ(got.rounds, cs.rounds);
  EXPECT_EQ(got.log, cs.log);
  EXPECT_TRUE(got.faults == cs.faults);
  EXPECT_EQ(got.rng_state, cs.rng_state);
  EXPECT_FALSE(got.has_injector);

  // A campaign referencing a closed session must not load.
  store::CampaignSnapshot stale = campaign;
  stale.sessions[0].session_id = 99;
  const std::string stale_path = TempPath("campaign_stale.snap");
  ASSERT_TRUE(store::WriteSnapshot(built.pool, stale_path, &stale).ok());
  EXPECT_EQ(store::ReadSnapshot(stale_path).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace uclean
