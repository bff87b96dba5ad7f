// Determinism keystone of the serving front-end (src/serve/): any
// interleaving of admitted requests -- across thread counts, batching
// on/off and the socketpair transport -- is bitwise equal to running
// each client's stream alone through the existing entry points
// (ScanRequest scans, ComputeTpQuality, DrawProbes/CommitProbeDraws on
// a dedicated SessionPool).

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

namespace uclean {
namespace serve {
namespace {

constexpr size_t kNumXTuples = 80;
constexpr uint64_t kFrontendSeed = 424242;

ProbabilisticDatabase MakeDb() {
  SyntheticOptions opts;
  opts.num_xtuples = kNumXTuples;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.6;  // uncertain entities, so cleans change state
  opts.real_mass_max = 1.0;
  opts.seed = 11;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

CleaningProfile MakeProfile() {
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(kNumXTuples, CleaningProfileOptions());
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(*profile);
}

SessionPool MakePool(const ProbabilisticDatabase& db,
                     const std::vector<size_t>& ks, size_t threads) {
  Result<KLadder> ladder = KLadder::Of(ks);
  EXPECT_TRUE(ladder.ok());
  SessionPool::Options options;
  options.exec.num_threads = threads;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), *ladder, options);
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  return std::move(*pool);
}

// ---------------------------------------------------------------------------
// The batcher's load-bearing fact: a rung of a merged-ladder scan is
// bitwise the output of a dedicated single-k scan, so merging strangers'
// distinct ks into one on-the-fly KLadder never changes an answer.

TEST(ServeBatching, MergedLadderRungsMatchSoloScansBitwise) {
  const ProbabilisticDatabase db = MakeDb();
  const std::vector<size_t> ks = {7, 23, 55};
  Result<ScanRequest> merged_request = ScanRequest::ForLadder(ks);
  ASSERT_TRUE(merged_request.ok());
  Result<ScanResult> merged = ComputePsrLadder(db, *merged_request);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (size_t rung = 0; rung < ks.size(); ++rung) {
    Result<ScanRequest> solo_request = ScanRequest::ForK(ks[rung]);
    ASSERT_TRUE(solo_request.ok());
    Result<ScanResult> solo = ComputePsrLadder(db, *solo_request);
    ASSERT_TRUE(solo.ok());
    const PsrOutput& m = merged->output(rung);
    const PsrOutput& s = solo->output();
    EXPECT_EQ(m.num_nonzero, s.num_nonzero) << "k=" << ks[rung];
    EXPECT_EQ(m.scan_end, s.scan_end) << "k=" << ks[rung];
    ASSERT_EQ(m.topk_prob.size(), s.topk_prob.size());
    EXPECT_EQ(std::memcmp(m.topk_prob.data(), s.topk_prob.data(),
                          m.topk_prob.size() * sizeof(double)),
              0)
        << "rung " << rung << " (k=" << ks[rung]
        << ") of the merged scan is not bitwise the solo scan";
    EXPECT_EQ(HashDoubles(m.topk_prob), HashDoubles(s.topk_prob));
  }
}

// ---------------------------------------------------------------------------
// Randomized request-mix property test: N clients x shuffled
// topk/quality/clean streams through the front-end, against a serial
// oracle that runs each client's stream alone through the existing
// one-shot APIs. Outputs and per-session RNG fingerprints must be
// bitwise equal for every (seed, thread count, batching) configuration.

std::vector<std::vector<Request>> MakeStreams(uint64_t seed, size_t clients,
                                              size_t steps) {
  const std::vector<size_t> ks = {3, 5, 8, 20, 33};
  Rng rng(seed * 977 + 13);
  std::vector<std::vector<Request>> streams(clients);
  for (std::vector<Request>& stream : streams) {
    for (size_t r = 0; r < steps; ++r) {
      Request request;
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 5) {
        request.verb = Verb::kTopk;
      } else if (kind < 8) {
        request.verb = Verb::kQuality;
      } else {
        request.verb = Verb::kClean;
      }
      if (request.verb == Verb::kClean) {
        request.xtuple = static_cast<XTupleId>(
            rng.UniformInt(0, static_cast<int64_t>(kNumXTuples) - 1));
      } else {
        request.k = ks[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ks.size()) - 1))];
      }
      stream.push_back(request);
    }
  }
  return streams;
}

/// One client's serial oracle: a dedicated pool (its own scan), its own
/// overlay and its own Rng seeded exactly like the front-end's client.
struct OracleClient {
  SessionPool pool;
  SessionPool::SessionId sid;
  Rng rng;

  OracleClient(SessionPool p, uint64_t seed)
      : pool(std::move(p)), sid(pool.OpenSession()), rng(seed) {}
};

Reply OracleExecute(OracleClient* c, const Request& request,
                    const CleaningProfile& profile) {
  Reply reply;
  reply.verb = request.verb;
  reply.k = request.k;
  const DatabaseOverlay& view = c->pool.overlay(c->sid);
  if (request.verb == Verb::kClean) {
    reply.xtuple = request.xtuple;
    std::vector<int64_t> probes(kNumXTuples, 0);
    probes[static_cast<size_t>(request.xtuple)] = 1;
    Result<ProbeDraws> draws = DrawProbes(view, profile, probes, &c->rng);
    if (!draws.ok()) {
      reply.status = draws.status();
      return reply;
    }
    if (!draws->outcomes.empty()) {
      Status commit = CommitProbeDraws(&c->pool, c->sid, *draws);
      EXPECT_TRUE(commit.ok()) << commit.ToString();
      Status refresh = c->pool.Refresh(c->sid);
      EXPECT_TRUE(refresh.ok()) << refresh.ToString();
    }
    if (!draws->report.log.empty()) {
      const ProbeRecord& record = draws->report.log.front();
      reply.success = record.success;
      reply.resolved_id = record.resolved_id;
      reply.spent = record.spent;
    }
    reply.quality = c->pool.quality(c->sid, c->pool.num_rungs() - 1);
    const std::string state = c->rng.SaveState();
    reply.rng_fingerprint = Fnv1a64(state.data(), state.size());
    return reply;
  }
  Result<ScanRequest> scan_request = ScanRequest::ForK(request.k);
  EXPECT_TRUE(scan_request.ok());
  const bool dirty = view.num_outcomes() > 0;
  if (dirty) scan_request->overlay = &view;
  Result<ScanResult> scan = ComputePsrLadder(c->pool.base(), *scan_request);
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (request.verb == Verb::kTopk) {
    const PsrOutput& psr = scan->output();
    reply.num_nonzero = psr.num_nonzero;
    reply.scan_end = psr.scan_end;
    reply.fingerprint = HashDoubles(psr.topk_prob);
    // The argmax over all n entries (first wins), blind to scan_end, so
    // a wrong bound on the front-end's argmax shows up here.
    for (size_t i = 0; i < psr.topk_prob.size(); ++i) {
      if (psr.topk_prob[i] > reply.top_prob) {
        reply.top_prob = psr.topk_prob[i];
        reply.top_index = static_cast<int32_t>(i);
      }
    }
    if (reply.top_index >= 0) {
      const auto top = static_cast<size_t>(reply.top_index);
      reply.top_id = c->pool.base().tuple(top).id;
    }
  } else {
    Result<TpOutput> tp =
        dirty ? ComputeTpQuality(view, scan->output())
              : ComputeTpQuality(c->pool.base(), scan->output());
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    reply.quality = tp->quality;
  }
  return reply;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bitwise comparison of the result-bearing fields (plan fields are
/// explicitly NOT compared: the plan may differ across configurations,
/// the answer may not).
void ExpectSameAnswer(const Reply& got, const Reply& want,
                      const std::string& label) {
  ASSERT_EQ(got.status.code(), want.status.code()) << label;
  if (!got.status.ok()) return;
  ASSERT_EQ(got.verb, want.verb) << label;
  switch (got.verb) {
    case Verb::kTopk:
      EXPECT_EQ(got.fingerprint, want.fingerprint) << label;
      EXPECT_EQ(got.num_nonzero, want.num_nonzero) << label;
      EXPECT_EQ(got.scan_end, want.scan_end) << label;
      EXPECT_EQ(got.top_id, want.top_id) << label;
      EXPECT_EQ(got.top_index, want.top_index) << label;
      EXPECT_EQ(Bits(got.top_prob), Bits(want.top_prob)) << label;
      break;
    case Verb::kQuality:
      EXPECT_EQ(got.quality, want.quality) << label;  // exact, not approx
      break;
    case Verb::kClean:
      EXPECT_EQ(got.success, want.success) << label;
      EXPECT_EQ(got.resolved_id, want.resolved_id) << label;
      EXPECT_EQ(got.spent, want.spent) << label;
      EXPECT_EQ(got.quality, want.quality) << label;
      EXPECT_EQ(got.rng_fingerprint, want.rng_fingerprint) << label;
      break;
    case Verb::kStats:
      break;
  }
}

// The argmax stops at scan_end, so it must still reach scan_end - 1: a
// certain tuple behind three unlikely ones takes the top-1 mass, and its
// saturated x-tuple stops the k = 1 scan right after it (Lemma 2).
TEST(ServeTopk, ArgmaxAtTheLastScannedTuple) {
  DatabaseBuilder builder;
  const double probs[] = {0.1, 0.1, 0.1, 1.0, 0.5, 0.5};
  for (size_t i = 0; i < 6; ++i) {
    const XTupleId l = builder.AddXTuple();
    const auto id = static_cast<TupleId>(i);
    ASSERT_TRUE(builder.AddAlternative(l, id, 100.0 - i, probs[i]).ok());
  }
  Result<ProbabilisticDatabase> db = std::move(builder).Finish();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // On ladder {1} the request replays the pool's rung; off it ({2}) it
  // runs a fresh one-shot scan.
  for (size_t rung : {1, 2}) {
    Result<Frontend> frontend = Frontend::Create(
        MakePool(*db, {rung}, 1), std::nullopt, FrontendOptions());
    ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
    Request request;
    request.k = 1;
    const Reply reply = frontend->Execute(frontend->Connect(), request);
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    const char* plan = PlanKindName(reply.plan.executed);
    EXPECT_EQ(reply.plan.executed,
              rung == 1 ? PlanKind::kReplay : PlanKind::kSequential);
    EXPECT_EQ(reply.scan_end, 4u) << plan;
    EXPECT_EQ(reply.top_index, 3) << plan;
    EXPECT_EQ(reply.top_id, 3) << plan;
    EXPECT_NEAR(reply.top_prob, 0.729, 1e-12) << plan;
  }
}

/// Drops the plan-record tokens from a reply line.
std::string StripPlanTokens(const std::string& line) {
  std::string out;
  size_t begin = 0;
  while (begin <= line.size()) {
    size_t end = line.find(' ', begin);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(begin, end - begin);
    const bool plan_token = token.rfind("exec=", 0) == 0 ||
                            token.rfind("batch=", 0) == 0 ||
                            token.rfind("threads=", 0) == 0;
    if (!plan_token && !token.empty()) {
      if (!out.empty()) out += ' ';
      out += token;
    }
    begin = end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The serving rule: a ladder k replays, any other k on a pristine view
// joins the round's one scan, and the sharded driver's cut plan decides
// whether that scan is split. Every execution returns the solo scan's
// bits.

Request Query(Verb verb, size_t k) {
  Request request;
  request.verb = verb;
  request.k = k;
  return request;
}

/// A topk reply carries the bits of the solo single-k scan over `db`.
void ExpectSoloScan(const Reply& reply, const ProbabilisticDatabase& db,
                    size_t k) {
  Result<ScanRequest> request = ScanRequest::ForK(k);
  ASSERT_TRUE(request.ok());
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(reply.fingerprint, HashDoubles(scan->output().topk_prob)) << k;
  EXPECT_EQ(reply.num_nonzero, scan->output().num_nonzero) << k;
  EXPECT_EQ(reply.scan_end, scan->output().scan_end) << k;
}

// fp= is FNV-1a over the rung as stored: its 8 * scan_end bytes, every
// p_i before the Lemma-2 stop, whether the reply replays a pool rung
// (k = 5, 20) or runs a scan of its own (k = 7).
TEST(ServeTopk, FingerprintHashesTheLivePrefix) {
  const ProbabilisticDatabase db = MakeDb();
  Result<Frontend> frontend = Frontend::Create(MakePool(db, {5, 20}, 1),
                                               std::nullopt, FrontendOptions());
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
  const Frontend::ClientId client = frontend->Connect();
  for (size_t k : {5, 7, 20}) {
    const Reply reply = frontend->Execute(client, Query(Verb::kTopk, k));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    Result<ScanRequest> request = ScanRequest::ForK(k);
    ASSERT_TRUE(request.ok());
    Result<ScanResult> scan = ComputePsrLadder(db, *request);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    const PsrOutput& psr = scan->output();
    ASSERT_LT(psr.scan_end, db.num_tuples()) << k;  // a tail exists
    const uint64_t fp = Fnv1a64(psr.topk_prob.data(), 8 * psr.scan_end);
    EXPECT_EQ(reply.fingerprint, fp) << k;
    char hex[32];
    std::snprintf(hex, sizeof(hex), " fp=%016llx ",
                  static_cast<unsigned long long>(fp));
    EXPECT_NE(FormatReply(reply).find(hex), std::string::npos)
        << FormatReply(reply);
  }
}

TEST(ServeRule, SameColdKFromTwoClientsSharesOneScan) {
  const ProbabilisticDatabase db = MakeDb();
  Result<Frontend> frontend = Frontend::Create(MakePool(db, {5, 20}, 1),
                                               std::nullopt, FrontendOptions());
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
  const Frontend::ClientId a = frontend->Connect();
  const Frontend::ClientId b = frontend->Connect();
  const Reply alone = frontend->Execute(a, Query(Verb::kQuality, 7));
  ASSERT_TRUE(alone.status.ok()) << alone.status.ToString();
  for (Verb second : {Verb::kTopk, Verb::kQuality}) {
    const std::vector<Reply> replies = frontend->ExecuteRound(
        {{a, Query(Verb::kTopk, 7)}, {b, Query(second, 7)}});
    ASSERT_EQ(replies.size(), 2u);
    for (const Reply& reply : replies) {
      ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
      EXPECT_EQ(reply.plan.ToString(), "exec=ladder batch=2 threads=1");
    }
    ExpectSoloScan(replies[0], db, 7);
    if (second == Verb::kTopk) {
      ExpectSameAnswer(replies[1], replies[0], "same k, same bits");
    } else {
      ExpectSameAnswer(replies[1], alone, "shared quality == lone quality");
    }
  }
}

TEST(ServeRule, WarmKReplaysBesideAColdScanOfOne) {
  const ProbabilisticDatabase db = MakeDb();
  Result<Frontend> frontend = Frontend::Create(MakePool(db, {5, 20}, 1),
                                               std::nullopt, FrontendOptions());
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
  const Frontend::ClientId a = frontend->Connect();
  const Frontend::ClientId b = frontend->Connect();
  const std::vector<Reply> replies = frontend->ExecuteRound(
      {{a, Query(Verb::kTopk, 5)}, {b, Query(Verb::kTopk, 7)}});
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].status.ok()) << replies[0].status.ToString();
  ASSERT_TRUE(replies[1].status.ok()) << replies[1].status.ToString();
  EXPECT_EQ(replies[0].plan.executed, PlanKind::kReplay);
  EXPECT_EQ(replies[1].plan.ToString(), "exec=seq batch=1 threads=1");
  ExpectSoloScan(replies[0], db, 5);
  ExpectSoloScan(replies[1], db, 7);
}

TEST(ServeRule, ReplayEqualsScanAcrossLadders) {
  // Both ladders share their top rung, so clean replies (which report the
  // top rung's quality) agree; every streamed k replays on the first and
  // scans on the second, over pristine and cleaned views alike.
  const ProbabilisticDatabase db = MakeDb();
  const CleaningProfile profile = MakeProfile();
  constexpr size_t kClients = 4;
  constexpr size_t kSteps = 8;
  const std::vector<std::vector<Request>> streams =
      MakeStreams(7, kClients, kSteps);
  std::vector<std::vector<std::string>> lines[2];
  const std::vector<size_t> ladders[2] = {{3, 5, 8, 20, 33, 50}, {50}};
  for (size_t l = 0; l < 2; ++l) {
    FrontendOptions options;
    options.seed = kFrontendSeed;
    Result<Frontend> frontend =
        Frontend::Create(MakePool(db, ladders[l], 1), profile, options);
    ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
    std::vector<Frontend::ClientId> ids;
    for (size_t i = 0; i < kClients; ++i) ids.push_back(frontend->Connect());
    lines[l].resize(kClients);
    for (size_t r = 0; r < kSteps; ++r) {
      Frontend::Round round;
      for (size_t i = 0; i < kClients; ++i) {
        round.emplace_back(ids[i], streams[i][r]);
      }
      const std::vector<Reply> replies = frontend->ExecuteRound(round);
      for (size_t i = 0; i < kClients; ++i) {
        const bool query = streams[i][r].verb != Verb::kClean;
        EXPECT_EQ(replies[i].plan.executed == PlanKind::kReplay,
                  query && l == 0);
        lines[l][i].push_back(StripPlanTokens(FormatReply(replies[i])));
      }
    }
  }
  EXPECT_EQ(lines[0], lines[1]);
}

TEST(ServeRule, TheCutPlanAloneDecidesAScansWidth) {
  // 6,000 tuples of sub-unit mass on ladder {5, 500}: k = 400 stops past
  // the first 4,096-live grid point, k = 100 stops before it but deep
  // enough to cut at the pool's checkpoints, and k = 3 is too small to
  // split. A scan runs cut when the sharded driver's plan says a split
  // pays, whatever its depth; threads= is what it ran on.
  SyntheticOptions opts;
  opts.num_xtuples = 1500;
  opts.tuples_per_xtuple = 4;
  opts.real_mass_min = 0.3;
  opts.real_mass_max = 0.6;
  opts.seed = 3;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> lines[2];
  for (size_t threads : {1, 4}) {
    Result<Frontend> frontend = Frontend::Create(
        MakePool(*db, {5, 500}, threads), std::nullopt, FrontendOptions());
    ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
    const Frontend::ClientId client = frontend->Connect();
    for (size_t k : {400, 100}) {
      const Reply reply = frontend->Execute(client, Query(Verb::kTopk, k));
      ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
      EXPECT_EQ(reply.scan_end > psr_internal::kCountRefreshGridLive,
                k == 400);
      if (threads == 1) {
        EXPECT_EQ(reply.plan.ToString(), "exec=seq batch=1 threads=1") << k;
      } else {
        EXPECT_EQ(reply.plan.executed, PlanKind::kSharded) << k;
        EXPECT_GT(reply.plan.threads, 1u) << k;
        EXPECT_LE(reply.plan.threads, threads) << k;
      }
      ExpectSoloScan(reply, *db, k);
      lines[threads > 1].push_back(StripPlanTokens(FormatReply(reply)));
    }
    const Reply shallow = frontend->Execute(client, Query(Verb::kTopk, 3));
    ASSERT_TRUE(shallow.status.ok()) << shallow.status.ToString();
    EXPECT_EQ(shallow.plan.ToString(), "exec=seq batch=1 threads=1");
    lines[threads > 1].push_back(StripPlanTokens(FormatReply(shallow)));
  }
  EXPECT_EQ(lines[0], lines[1]);
}

TEST(ServeRule, QualityRequestsOfOneScanShareOneTpPass) {
  // Two quality requests and a topk request at three cold ks share one
  // scan, and its two quality rungs one TP pass; every reply is what the
  // request gets alone.
  const ProbabilisticDatabase db = MakeDb();
  for (size_t threads : {1, 4}) {
    Result<Frontend> frontend = Frontend::Create(
        MakePool(db, {5, 20}, threads), std::nullopt, FrontendOptions());
    ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
    const Frontend::ClientId a = frontend->Connect();
    const Frontend::ClientId b = frontend->Connect();
    const Frontend::ClientId c = frontend->Connect();
    const Frontend::Round round = {{a, Query(Verb::kQuality, 33)},
                                   {b, Query(Verb::kTopk, 7)},
                                   {c, Query(Verb::kQuality, 12)}};
    const std::vector<Reply> replies = frontend->ExecuteRound(round);
    ASSERT_EQ(replies.size(), round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      ASSERT_TRUE(replies[i].status.ok()) << replies[i].status.ToString();
      EXPECT_EQ(replies[i].plan.executed, PlanKind::kLadderShared);
      EXPECT_EQ(replies[i].plan.batch_size, 3u);
      const Reply alone = frontend->Execute(round[i].first, round[i].second);
      ASSERT_TRUE(alone.status.ok()) << alone.status.ToString();
      EXPECT_EQ(alone.plan.batch_size, 1u);
      ExpectSameAnswer(replies[i], alone,
                       "threads=" + std::to_string(threads) + " request " +
                           std::to_string(i));
    }
    ExpectSoloScan(replies[1], db, 7);
  }
}

TEST(ServeProperty, RequestMixMatchesSerialOracleAcrossConfigs) {
  const ProbabilisticDatabase db = MakeDb();
  const CleaningProfile profile = MakeProfile();
  const std::vector<size_t> ladder_ks = {5, 20};
  constexpr size_t kClients = 5;
  constexpr size_t kSteps = 8;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<std::vector<Request>> streams =
        MakeStreams(seed, kClients, kSteps);

    // Serial oracle: each client's stream alone, in stream order.
    std::vector<std::vector<Reply>> expected(kClients);
    {
      std::vector<OracleClient> oracle;
      oracle.reserve(kClients);
      for (size_t i = 0; i < kClients; ++i) {
        oracle.emplace_back(MakePool(db, ladder_ks, 1),
                            Frontend::ClientSeed(kFrontendSeed, i));
      }
      for (size_t i = 0; i < kClients; ++i) {
        for (const Request& request : streams[i]) {
          expected[i].push_back(OracleExecute(&oracle[i], request, profile));
        }
      }
    }

    // Every configuration must reproduce the oracle bitwise.
    const struct {
      bool batching;
      size_t threads;
    } configs[] = {{true, 1}, {false, 1}, {true, 4}, {false, 4}};
    for (const auto& config : configs) {
      FrontendOptions options;
      options.batching = config.batching;
      options.seed = kFrontendSeed;
      Result<Frontend> frontend = Frontend::Create(
          MakePool(db, ladder_ks, config.threads), profile, options);
      ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
      std::vector<Frontend::ClientId> ids;
      for (size_t i = 0; i < kClients; ++i) ids.push_back(frontend->Connect());

      for (size_t r = 0; r < kSteps; ++r) {
        std::vector<std::pair<Frontend::ClientId, Request>> round;
        for (size_t i = 0; i < kClients; ++i) {
          round.emplace_back(ids[i], streams[i][r]);
        }
        const std::vector<Reply> replies = frontend->ExecuteRound(round);
        ASSERT_EQ(replies.size(), round.size());
        for (size_t i = 0; i < kClients; ++i) {
          ExpectSameAnswer(
              replies[i], expected[i][r],
              "seed=" + std::to_string(seed) + " client=" + std::to_string(i) +
                  " round=" + std::to_string(r) +
                  " batching=" + std::to_string(config.batching) +
                  " threads=" + std::to_string(config.threads));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transport equivalence: concurrent socketpair clients through the
// LineServer produce, per client, exactly the reply lines of driving the
// front-end directly with the same admission rounds -- modulo the plan
// fields, which record latency decisions, never answers.

std::string RenderRequest(const Request& request) {
  switch (request.verb) {
    case Verb::kTopk:
    case Verb::kQuality:
      return std::string(VerbName(request.verb)) + " " +
             std::to_string(request.k);
    case Verb::kClean:
      return "clean " + std::to_string(request.xtuple);
    case Verb::kStats:
      return "stats";
  }
  return "";
}

TEST(ServeServer, ConcurrentSocketpairClientsMatchDirectRounds) {
  const ProbabilisticDatabase db = MakeDb();
  const CleaningProfile profile = MakeProfile();
  const std::vector<size_t> ladder_ks = {5, 20};
  constexpr size_t kClients = 3;
  constexpr size_t kSteps = 6;
  const std::vector<std::vector<Request>> streams =
      MakeStreams(29, kClients, kSteps);

  // Server side: one socketpair per client, writer threads racing.
  FrontendOptions options;
  options.seed = kFrontendSeed;
  Result<Frontend> served =
      Frontend::Create(MakePool(db, ladder_ks, 1), profile, options);
  ASSERT_TRUE(served.ok());
  LineServer server(&*served, ServerOptions());
  int client_fd[kClients];
  for (size_t i = 0; i < kClients; ++i) {
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    client_fd[i] = sv[0];
    Result<size_t> added = server.AddClient(sv[1], sv[1]);
    ASSERT_TRUE(added.ok());
  }
  std::vector<std::thread> writers;
  for (size_t i = 0; i < kClients; ++i) {
    writers.emplace_back([&streams, &client_fd, i] {
      std::string payload;
      for (const Request& request : streams[i]) {
        payload += RenderRequest(request) + "\n";
      }
      size_t written = 0;
      while (written < payload.size()) {
        const ssize_t n = write(client_fd[i], payload.data() + written,
                                payload.size() - written);
        if (n <= 0) break;
        written += static_cast<size_t>(n);
      }
      EXPECT_EQ(written, payload.size());
      shutdown(client_fd[i], SHUT_WR);
    });
  }
  const Status run = server.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (std::thread& t : writers) t.join();

  std::vector<std::vector<std::string>> served_lines(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    std::string all;
    char chunk[4096];
    while (true) {
      const ssize_t n = read(client_fd[i], chunk, sizeof(chunk));
      if (n <= 0) break;
      all.append(chunk, static_cast<size_t>(n));
    }
    close(client_fd[i]);
    size_t begin = 0;
    while (true) {
      const size_t nl = all.find('\n', begin);
      if (nl == std::string::npos) break;
      served_lines[i].push_back(StripPlanTokens(all.substr(begin, nl - begin)));
      begin = nl + 1;
    }
  }

  // Direct side: the same zip of streams as admission rounds.
  Result<Frontend> direct =
      Frontend::Create(MakePool(db, ladder_ks, 1), profile, options);
  ASSERT_TRUE(direct.ok());
  std::vector<Frontend::ClientId> ids;
  for (size_t i = 0; i < kClients; ++i) ids.push_back(direct->Connect());
  std::vector<std::vector<std::string>> direct_lines(kClients);
  for (size_t r = 0; r < kSteps; ++r) {
    std::vector<std::pair<Frontend::ClientId, Request>> round;
    for (size_t i = 0; i < kClients; ++i) {
      round.emplace_back(ids[i], streams[i][r]);
    }
    const std::vector<Reply> replies = direct->ExecuteRound(round);
    for (size_t i = 0; i < kClients; ++i) {
      direct_lines[i].push_back(StripPlanTokens(FormatReply(replies[i])));
    }
  }

  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(served_lines[i].size(), direct_lines[i].size()) << "client " << i;
    for (size_t r = 0; r < direct_lines[i].size(); ++r) {
      EXPECT_EQ(served_lines[i][r], direct_lines[i][r])
          << "client " << i << " reply " << r;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace uclean
