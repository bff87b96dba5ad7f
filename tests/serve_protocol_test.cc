// Malformed-input hardening of the serving protocol and LineServer:
// truncated lines, oversized payloads, unknown verbs and bad arguments
// must never crash or wedge the loop -- each becomes one structured
// kInvalidArgument reply in order, and the server keeps serving.

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "model/database.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/synthetic.h"

namespace uclean {
namespace serve {
namespace {

ProbabilisticDatabase MakeDb() {
  SyntheticOptions opts;
  opts.num_xtuples = 30;
  opts.tuples_per_xtuple = 3;
  opts.real_mass_min = 0.7;
  opts.real_mass_max = 1.0;
  opts.seed = 5;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

Result<Frontend> MakeFrontend() {
  Result<KLadder> ladder = KLadder::Of({5, 10});
  EXPECT_TRUE(ladder.ok());
  Result<SessionPool> pool =
      SessionPool::Create(MakeDb(), *ladder, SessionPool::Options());
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  // No cleaning profile on purpose: clean requests must degrade to a
  // kFailedPrecondition reply, not a crash.
  return Frontend::Create(std::move(*pool), std::nullopt, FrontendOptions());
}

// ---------------------------------------------------------------- parsing

TEST(ParseRequestTest, AcceptsEveryVerbShape) {
  Result<Request> topk = ParseRequest("topk 25");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->verb, Verb::kTopk);
  EXPECT_EQ(topk->k, 25u);

  Result<Request> quality = ParseRequest("quality 7");
  ASSERT_TRUE(quality.ok());
  EXPECT_EQ(quality->verb, Verb::kQuality);
  EXPECT_EQ(quality->k, 7u);

  Result<Request> clean = ParseRequest("clean 12");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->verb, Verb::kClean);
  EXPECT_EQ(clean->xtuple, 12);

  Result<Request> stats = ParseRequest("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, Verb::kStats);

  // Token separation tolerates tabs and runs of spaces.
  EXPECT_TRUE(ParseRequest("topk\t3").ok());
  EXPECT_TRUE(ParseRequest("  topk   3  ").ok());
}

TEST(ParseRequestTest, RejectsMalformedLinesWithInvalidArgument) {
  const char* kBad[] = {
      "",                           // empty line
      "bogus 5",                    // unknown verb
      "TOPK 5",                     // verbs are case-sensitive
      "topk",                       // missing k
      "topk abc",                   // non-numeric k
      "topk 0",                     // k below range
      "topk -3",                    // negative k
      "topk 99999999999999999999",  // k past int64
      "topk 10000001",              // k past kMaxK
      "topk 5 6",                   // trailing junk
      "topk 5 plan=seq",            // no request picks its plan
      "quality 7 plan=replay",      // ... on either query verb
      "topk 5 plan=warp",           // nor names an unknown one
      "topk 5 plan=",               // nor an empty one
      "topk 5 plan=seq extra",      // junk after a plan token
      "quality",                    // missing k
      "clean",                      // missing xtuple
      "clean x",                    // non-numeric xtuple
      "clean -1",                   // negative xtuple
      "clean 1 2",                  // trailing junk
      "clean 5 plan=seq",           // trailing junk on clean
      "stats 1",                    // stats takes no arguments
  };
  for (const char* line : kBad) {
    Result<Request> request = ParseRequest(line);
    EXPECT_FALSE(request.ok()) << "'" << line << "' should not parse";
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument)
          << "'" << line << "': " << request.status().ToString();
    }
  }
}

TEST(ParseRequestTest, PlanNamesRoundTrip) {
  const PlanKind kinds[] = {PlanKind::kSequential, PlanKind::kSharded,
                            PlanKind::kLadderShared, PlanKind::kReplay};
  for (PlanKind kind : kinds) {
    Result<PlanKind> parsed = ParsePlanKind(PlanKindName(kind));
    ASSERT_TRUE(parsed.ok()) << PlanKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParsePlanKind("auto").ok());
  EXPECT_FALSE(ParsePlanKind("").ok());
  EXPECT_FALSE(ParsePlanKind("SEQ").ok());
}

TEST(PlanRecordTest, ToStringIsTheWireForm) {
  PlanRecord record;
  record.executed = PlanKind::kLadderShared;
  record.batch_size = 3;
  record.threads = 4;
  EXPECT_EQ(record.ToString(), "exec=ladder batch=3 threads=4");
  EXPECT_EQ(PlanRecord().ToString(), "exec=seq batch=1 threads=1");
}

TEST(FormatReplyTest, ErrorRepliesAreOneSanitizedLine) {
  Reply reply;
  reply.status = Status::InvalidArgument("bad \"quoted\"\r\nmultiline");
  const std::string line = FormatReply(reply);
  EXPECT_EQ(line.rfind("error code=InvalidArgument msg=", 0), 0u) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_EQ(line.find('\r'), std::string::npos) << line;
  // Only the two delimiting quotes survive sanitization.
  size_t quotes = 0;
  for (char c : line) quotes += c == '"';
  EXPECT_EQ(quotes, 2u) << line;
}

// ------------------------------------------------------------ fingerprint

/// The definition HashDoubles must reproduce: FNV-1a 64 over every byte.
uint64_t ByteWiseHash(const std::vector<double>& values) {
  return Fnv1a64(values.data(), 8 * values.size());
}

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// `prefix` positive words, then `tail` +0.0 words: a top-k vector's
/// shape, with the Lemma-2 stop at `prefix`.
std::vector<double> WithZeroTail(size_t prefix, size_t tail) {
  std::vector<double> values(prefix + tail, 0.0);
  for (size_t i = 0; i < prefix; ++i) values[i] = 1.0 / (i + 2.0);
  return values;
}

TEST(HashDoublesTest, EdgeShapesMatchTheByteWiseHash) {
  EXPECT_EQ(HashDoubles({}), ByteWiseHash({}));
  for (size_t n : {1, 7, 8, 9, 64, 1000}) {
    const std::vector<double> zeros(n, 0.0);
    EXPECT_EQ(HashDoubles(zeros), ByteWiseHash(zeros)) << n << " zeros";
  }
  for (size_t prefix : {1, 7, 8, 9, 37}) {
    const std::vector<double> no_tail = WithZeroTail(prefix, 0);
    EXPECT_EQ(HashDoubles(no_tail), ByteWiseHash(no_tail)) << prefix;
  }
  // Tails on either side of the 8-word block the backward scan ORs, over
  // prefixes that put the last nonzero word at every block offset.
  for (size_t tail : {1, 7, 8, 9, 15, 16, 17}) {
    for (size_t prefix = 1; prefix <= 17; ++prefix) {
      const std::vector<double> values = WithZeroTail(prefix, tail);
      EXPECT_EQ(HashDoubles(values), ByteWiseHash(values))
          << "prefix " << prefix << " tail " << tail;
    }
  }
  // One nonzero word among zeros, at every offset of three whole blocks
  // and of a length with a partial block in front.
  for (size_t n : {24, 27}) {
    for (size_t at = 0; at < n; ++at) {
      std::vector<double> values(n, 0.0);
      values[at] = 0.5;
      EXPECT_EQ(HashDoubles(values), ByteWiseHash(values))
          << "n " << n << " nonzero at " << at;
    }
  }
}

TEST(HashDoublesTest, OddLastNonzeroWordsMatchTheByteWiseHash) {
  const struct {
    const char* name;
    double value;
  } words[] = {
      {"-0.0, only the top byte set", -0.0},
      {"denormal, only the low byte set", FromBits(1)},
      {"NaN payload", FromBits(0x7ff80000deadbeefULL)},
  };
  for (const auto& word : words) {
    for (size_t tail : {0, 1, 7, 8, 9, 17}) {
      std::vector<double> values = WithZeroTail(11, tail);
      values[10] = word.value;
      EXPECT_EQ(HashDoubles(values), ByteWiseHash(values))
          << word.name << " tail " << tail;
    }
  }
}

TEST(HashDoublesTest, RandomShapesMatchTheByteWiseHash) {
  Rng rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto prefix = static_cast<size_t>(rng.UniformInt(0, 80));
    const auto tail = static_cast<size_t>(rng.UniformInt(0, 80));
    std::vector<double> values = WithZeroTail(prefix, tail);
    // Interior zeros and odd words inside the prefix: only the trailing
    // run of zero words may fold in closed form.
    for (size_t i = 0; i < prefix; ++i) {
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 2) values[i] = 0.0;
      if (kind == 2) values[i] = -0.0;
      if (kind == 3) values[i] = FromBits(1);  // the smallest denormal
      if (kind >= 4) values[i] = rng.Uniform(0.0, 1.0);
    }
    ASSERT_EQ(HashDoubles(values), ByteWiseHash(values))
        << "trial " << trial << " prefix " << prefix << " tail " << tail;
  }
}

TEST(HashDoublesTest, PinnedValue) {
  // A top-k-shaped vector: 263 positive entries with one interior zero,
  // then a 3,836-entry zero tail. The value was captured from the plain
  // byte loop, so the hash cannot drift with its reference.
  std::vector<double> values = WithZeroTail(263, 3836);
  values[100] = 0.0;
  EXPECT_EQ(HashDoubles(values), 0xc8c75a29b5a33748ULL);
}

// ------------------------------------------------------------- the server

/// Runs one socketpair connection through a fresh LineServer: writes
/// `input`, half-closes, serves to completion, returns the reply lines.
std::vector<std::string> ServeOneConnection(
    Frontend* frontend, const std::string& input,
    const ServerOptions& options = ServerOptions()) {
  LineServer server(frontend, options);
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Result<size_t> added = server.AddClient(sv[1], sv[1]);
  EXPECT_TRUE(added.ok());
  size_t written = 0;
  while (written < input.size()) {
    const ssize_t n =
        write(sv[0], input.data() + written, input.size() - written);
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  EXPECT_EQ(written, input.size());
  shutdown(sv[0], SHUT_WR);
  const Status run = server.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();
  std::string all;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(sv[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    all.append(chunk, static_cast<size_t>(n));
  }
  close(sv[0]);
  std::vector<std::string> lines;
  size_t begin = 0;
  while (true) {
    const size_t newline = all.find('\n', begin);
    if (newline == std::string::npos) break;
    lines.push_back(all.substr(begin, newline - begin));
    begin = newline + 1;
  }
  EXPECT_EQ(begin, all.size()) << "partial reply line: " << all.substr(begin);
  return lines;
}

TEST(LineServerTest, MalformedLinesYieldErrorsInOrderAndServingContinues) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  const std::vector<std::string> lines = ServeOneConnection(
      &*frontend,
      "topk 5\n"
      "bogus verb\n"
      "topk 0\n"
      "quality 10\n"
      "topk 5 plan=warp\n"
      "stats\n");
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("ok verb=topk k=5 ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("error code=InvalidArgument ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("error code=InvalidArgument ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ok verb=quality k=10 ", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4].rfind("error code=InvalidArgument ", 0), 0u) << lines[4];
  EXPECT_EQ(lines[5].rfind("ok verb=stats ", 0), 0u) << lines[5];
}

TEST(LineServerTest, OversizedLineGetsOneErrorAndResynchronizes) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  ServerOptions options;
  options.max_line_bytes = 64;
  const std::string oversized(1000, 'x');
  const std::vector<std::string> lines = ServeOneConnection(
      &*frontend, "topk 5\n" + oversized + "\ntopk 10\n", options);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok verb=topk k=5 ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("error code=InvalidArgument ", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("exceeds"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("ok verb=topk k=10 ", 0), 0u) << lines[2];
}

TEST(LineServerTest, OversizedFinalLineWithoutNewlineErrorsOnce) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  ServerOptions options;
  options.max_line_bytes = 64;
  const std::vector<std::string> lines =
      ServeOneConnection(&*frontend, std::string(500, 'y'), options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("error code=InvalidArgument ", 0), 0u) << lines[0];
}

TEST(LineServerTest, TruncatedFinalLineIsServedAtEof) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  // No trailing newline before EOF: the line still counts as a request.
  const std::vector<std::string> lines =
      ServeOneConnection(&*frontend, "topk 5\ntopk 10");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ok verb=topk k=5 ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok verb=topk k=10 ", 0), 0u) << lines[1];
}

TEST(LineServerTest, CrlfAndBlankLinesAreTolerated) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  const std::vector<std::string> lines =
      ServeOneConnection(&*frontend, "topk 5\r\n\r\n   \nquality 10\r\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ok verb=topk k=5 ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok verb=quality k=10 ", 0), 0u) << lines[1];
}

TEST(LineServerTest, CleanWithoutProfileIsFailedPreconditionNotDeath) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  const std::vector<std::string> lines =
      ServeOneConnection(&*frontend, "clean 3\ntopk 5\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("error code=FailedPrecondition ", 0), 0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("ok verb=topk k=5 ", 0), 0u) << lines[1];
}

TEST(LineServerTest, PlanTokensAreInvalidArgumentAndServingContinues) {
  // The server picks every execution: a request naming a plan is
  // malformed, answered in order, and the connection keeps working.
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  const std::vector<std::string> lines = ServeOneConnection(
      &*frontend, "topk 5 plan=shard\ntopk 33 plan=replay\ntopk 5\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("error code=InvalidArgument ", 0), 0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("error code=InvalidArgument ", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind("ok verb=topk k=5 exec=replay ", 0), 0u)
      << lines[2];
}

TEST(LineServerTest, ClientGoneWithoutReadingRepliesDoesNotKillTheServer) {
  // Client A sends requests and closes its socket outright, replies
  // unread: the server's write() must come back EPIPE (not a fatal
  // SIGPIPE) and its read() may come back ECONNRESET (not a poll spin).
  // Either way only A's connection dies; client B is served in full.
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  LineServer server(&*frontend, ServerOptions());
  int a[2];
  int b[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  ASSERT_TRUE(server.AddClient(a[1], a[1]).ok());
  ASSERT_TRUE(server.AddClient(b[1], b[1]).ok());
  const std::string burst = "topk 5\ntopk 10\nstats\n";
  ASSERT_EQ(write(a[0], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  close(a[0]);  // gone entirely: no shutdown(SHUT_WR), no draining
  const std::string polite = "topk 5\nquality 10\n";
  ASSERT_EQ(write(b[0], polite.data(), polite.size()),
            static_cast<ssize_t>(polite.size()));
  shutdown(b[0], SHUT_WR);
  const Status run = server.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();
  std::string all;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(b[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    all.append(chunk, static_cast<size_t>(n));
  }
  close(b[0]);
  EXPECT_NE(all.find("ok verb=topk k=5 "), std::string::npos) << all;
  EXPECT_NE(all.find("ok verb=quality k=10 "), std::string::npos) << all;
}

TEST(LineServerTest, RejectsNegativeFds) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  LineServer server(&*frontend, ServerOptions());
  EXPECT_FALSE(server.AddClient(-1, 1).ok());
  EXPECT_FALSE(server.AddClient(1, -1).ok());
  EXPECT_EQ(server.num_connections(), 0u);
}

// ------------------------------------------------------------ client ids

TEST(FrontendClientTest, ClientsArePoolSessionsAndForeignIdsAreRejected) {
  Result<KLadder> ladder = KLadder::Of({5, 10});
  ASSERT_TRUE(ladder.ok());
  Result<SessionPool> pool =
      SessionPool::Create(MakeDb(), *ladder, SessionPool::Options());
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  // A session the front-end did not open, like a snapshot's saved one.
  const SessionPool::SessionId foreign = pool->OpenSession();
  Result<Frontend> frontend =
      Frontend::Create(std::move(*pool), std::nullopt, FrontendOptions());
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
  const Frontend::ClientId a = frontend->Connect();
  EXPECT_NE(a, foreign);
  EXPECT_TRUE(frontend->pool().is_open(a));
  EXPECT_EQ(frontend->Disconnect(foreign).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(frontend->pool().is_open(foreign));
  const uint64_t first = frontend->RngFingerprint(a);
  ASSERT_TRUE(frontend->Disconnect(a).ok());
  EXPECT_FALSE(frontend->pool().is_open(a));
  EXPECT_EQ(frontend->Disconnect(a).code(), StatusCode::kInvalidArgument);
  // The pool hands the closed slot out again; the probe seed still
  // counts connects, so the new client's stream is its own.
  const Frontend::ClientId b = frontend->Connect();
  EXPECT_EQ(b, a);
  EXPECT_NE(frontend->RngFingerprint(b), first);
}

// ------------------------------------------------------------ death tests

TEST(ServeDeathTest, NullFrontendIsAHardCheck) {
  EXPECT_DEATH(LineServer(nullptr, ServerOptions()), "UCLEAN_CHECK failed");
}

TEST(ServeDeathTest, FingerprintOfClosedClientIsAHardCheck) {
  Result<Frontend> frontend = MakeFrontend();
  ASSERT_TRUE(frontend.ok());
  const Frontend::ClientId id = frontend->Connect();
  ASSERT_TRUE(frontend->Disconnect(id).ok());
  EXPECT_DEATH(frontend->RngFingerprint(id), "UCLEAN_CHECK failed");
}

TEST(ServeDeathTest, FingerprintOfASessionNeverConnectedIsAHardCheck) {
  Result<SessionPool> pool =
      SessionPool::Create(MakeDb(), *KLadder::Of({5}), SessionPool::Options());
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const SessionPool::SessionId foreign = pool->OpenSession();
  Result<Frontend> frontend =
      Frontend::Create(std::move(*pool), std::nullopt, FrontendOptions());
  ASSERT_TRUE(frontend.ok());
  EXPECT_DEATH(frontend->RngFingerprint(foreign), "UCLEAN_CHECK failed");
}

}  // namespace
}  // namespace serve
}  // namespace uclean
