// The serving workloads, `read` and `mixed`.
//
// Both drive a LineServer over socketpairs from ONE load-generator thread
// in a closed loop: every connection sends its next request as soon as
// its previous reply line arrives, with no think time. The server's loop
// thread and one pool worker (the pool runs at 2 threads) do the serving,
// so the run uses 3 of the machine's threads.
//
//  * read: 4 analyst connections on pristine views of a pool warm-started
//    from a snapshot. topk/quality 50/50; 70% of ks on the warm ladder
//    {10, 50, 100} (answered from pool state, no scan), 30% scanned and
//    merged by the admission batcher.
//  * mixed: 2 reader connections as in read, beside 2 writer connections
//    that alternate `clean X` (X among the 100 x-tuples holding the most
//    top-100 probability) with queries on their own, now dirty, view. The
//    pool is built from CSV the way `serve --db` builds it. Every writer
//    session is replaced after kCleansPerEpoch cleans, so late cleans do
//    not pile onto x-tuples an old session already resolved.
//
// Both run as a sequence of epochs of fresh connections (a `read` epoch
// lasts 1/kReadEpochs of the measured window), and set-up slices run
// between epochs.
//
// The traced run (--trace 1) replays fixed streams with one request per
// connection per round -- the round LineServer forms when every
// connection has a request queued -- three ways: through LineServer, in
// process, and in process with spans around ParseRequest,
// Frontend::ExecuteRound and FormatReply. Each traced round's children
// (the executed scans, TP passes and reply fingerprints, and the
// writers' DrawProbes -> CommitProbeDraws -> SessionPool::Refresh on a
// shadow pool) are then re-issued on identical inputs inside spans of
// their own.

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/csv_io.h"
#include "oracle.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using uclean::DatabaseOverlay;
using uclean::ProbabilisticDatabase;
using uclean::Result;
using uclean::Rng;
using uclean::SessionPool;
using uclean::Status;
using uclean::serve::Frontend;
using uclean::serve::PlanKind;
using uclean::serve::Reply;
using uclean::serve::Request;
using uclean::serve::Verb;

constexpr size_t kPoolThreads = 2;
constexpr size_t kConnections = 4;
constexpr size_t kMixedReaders = 2;
const std::vector<size_t> kWarmLadder = {10, 50, 100};
const std::vector<size_t> kColdKs = {5, 15, 20, 25, 30, 40, 75, 150, 200};
constexpr double kWarmShare = 0.7;
constexpr size_t kHotK = 100;
constexpr size_t kHotXTuples = 100;
constexpr size_t kCleansPerEpoch = 10;
/// `read` epochs per measured window, one set-up slice after each. The
/// set-ups of one slice share the heap state the epoch before left, so
/// more, shorter slices average over more of those states.
constexpr size_t kReadEpochs = kSetupSlices;
constexpr double kTailQuantile = 0.99;
/// Fixed traced streams: rounds per pass (read) and epochs per pass
/// (mixed, 2 * kCleansPerEpoch rounds each); their counts repeat exactly.
constexpr size_t kTracedReadRounds = 250;
constexpr size_t kTracedMixedEpochs = 12;
constexpr int kTracedReps = 3;
/// Share of a traced run spent in the untraced closed loop whose replies
/// give the plan mix, batch sizes and per-verb medians.
constexpr double kTracedUntracedShare = 0.35;

/// One request as sent, with what is needed to check its reply.
struct Sent {
  Verb verb = Verb::kTopk;
  size_t k = 0;
  int32_t xtuple = 0;
  std::string line;  ///< wire form, no newline
};

Sent QuerySent(Verb verb, size_t k) {
  Sent sent;
  sent.verb = verb;
  sent.k = k;
  sent.line = std::string(uclean::serve::VerbName(verb)) + " " +
              std::to_string(k);
  return sent;
}

/// An analyst's endless query stream.
class ReaderStream {
 public:
  explicit ReaderStream(uint64_t seed) : rng_(seed) {}

  Sent Next() {
    const Verb verb = rng_.Bernoulli(0.5) ? Verb::kTopk : Verb::kQuality;
    const size_t k =
        rng_.Bernoulli(kWarmShare)
            ? kWarmLadder[static_cast<size_t>(rng_.UniformInt(0, 2))]
            : kColdKs[static_cast<size_t>(rng_.UniformInt(0, 8))];
    return QuerySent(verb, k);
  }

 private:
  Rng rng_;
};

/// One writer session's requests: (clean X, query) x kCleansPerEpoch.
std::vector<Sent> WriterScript(uint64_t seed, const std::vector<int32_t>& hot) {
  Rng rng(seed);
  ReaderStream queries(SubSeed(seed, 17));
  std::vector<Sent> script;
  for (size_t i = 0; i < kCleansPerEpoch; ++i) {
    Sent clean;
    clean.verb = Verb::kClean;
    clean.xtuple = hot[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(hot.size()) - 1))];
    clean.line = "clean " + std::to_string(clean.xtuple);
    script.push_back(std::move(clean));
    script.push_back(queries.Next());
  }
  return script;
}

/// Sub-stream bases of the workload seed: the read loop, the mixed
/// epochs and the traced fixed streams draw from disjoint ranges.
constexpr uint64_t kReadStreams = 100;
constexpr uint64_t kMixedStreams = 1000;
constexpr uint64_t kTracedStreams = 5000;

// ------------------------------------------------------------------ setup

struct ServingSetup {
  bool mixed = false;
  Inputs inputs;
  std::string snapshot_path;  ///< read
  std::string csv_path;       ///< mixed
  uint64_t snapshot_bytes = 0;
  std::vector<int32_t> hot;   ///< x-tuples holding most top-100 probability
  uint64_t frontend_seed = 0;
  std::vector<double> open_ms, csv_read_ms, create_ms, setup_s;
};

SessionPool::Options PoolOptions() {
  SessionPool::Options options;
  options.exec.num_threads = std::min(kPoolThreads, NumCpus());
  return options;
}

uclean::KLadder WarmLadder() { return uclean::KLadder::Of(kWarmLadder).value(); }

/// Builds the pool the way the workload's deployment does: a snapshot
/// warm start (read) or CSV read + Create (mixed), with set-up spans.
Result<SessionPool> OpenPool(ServingSetup* setup, Tracer* tracer,
                             bool record) {
  const Clock::time_point start = Clock::now();
  if (!setup->mixed) {
    const Clock::time_point t0 = Clock::now();
    Result<SessionPool> pool = tracer->Time("store.open", Tracer::kNoParent,
                                            Tracer::kNoRequest, [&] {
      return SessionPool::OpenFromSnapshot(setup->snapshot_path,
                                           PoolOptions());
    });
    if (record && pool.ok()) {
      setup->open_ms.push_back(1e3 * SecondsSince(t0));
      setup->setup_s.push_back(SecondsSince(start));
    }
    return pool;
  }
  const Clock::time_point t0 = Clock::now();
  Result<ProbabilisticDatabase> db = tracer->Time(
      "model.csv_read", Tracer::kNoParent, Tracer::kNoRequest,
      [&] { return uclean::ReadDatabaseCsvFile(setup->csv_path); });
  if (!db.ok()) return db.status();
  const Clock::time_point t1 = Clock::now();
  Result<SessionPool> pool = tracer->Time(
      "clean.pool.create", Tracer::kNoParent, Tracer::kNoRequest, [&] {
        return SessionPool::Create(std::move(db).value(), WarmLadder(),
                                   PoolOptions());
      });
  if (record && pool.ok()) {
    setup->csv_read_ms.push_back(1e3 * Seconds(t0, t1));
    setup->create_ms.push_back(1e3 * SecondsSince(t1));
    setup->setup_s.push_back(SecondsSince(start));
  }
  return pool;
}

Result<Frontend> MakeFrontend(SessionPool pool, const ServingSetup& setup) {
  uclean::serve::FrontendOptions options;
  options.seed = setup.frontend_seed;
  std::optional<uclean::CleaningProfile> profile;
  if (setup.mixed) profile = setup.inputs.profile;
  return Frontend::Create(std::move(pool), std::move(profile), options);
}

/// Writes the file inputs before anything is timed and finds the hot
/// x-tuples the writers clean.
Status PrepareInputs(const Args& args, ServingSetup* setup) {
  setup->mixed = args.workload == "mixed";
  setup->frontend_seed = SubSeed(args.seed, 7);
  Result<Inputs> inputs = MakeInputs(args.seed);
  if (!inputs.ok()) return inputs.status();
  setup->inputs = std::move(inputs).value();
  const ProbabilisticDatabase& db = setup->inputs.db;

  const std::string stem = args.workdir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(getpid());
  if (setup->mixed) {
    setup->csv_path = stem + ".csv";
    UCLEAN_RETURN_IF_ERROR(uclean::WriteDatabaseCsvFile(db, setup->csv_path));
  } else {
    setup->snapshot_path = stem + ".snap";
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(db), WarmLadder(), PoolOptions());
    if (!pool.ok()) return pool.status();
    UCLEAN_RETURN_IF_ERROR(
        uclean::store::WriteSnapshot(*pool, setup->snapshot_path));
    struct stat info {};
    if (stat(setup->snapshot_path.c_str(), &info) == 0) {
      setup->snapshot_bytes = static_cast<uint64_t>(info.st_size);
    }
  }

  Result<uclean::ScanRequest> request = uclean::ScanRequest::ForK(kHotK);
  if (!request.ok()) return request.status();
  Result<uclean::ScanResult> scan = uclean::ComputePsrLadder(db, *request);
  if (!scan.ok()) return scan.status();
  Result<uclean::TpOutput> tp = uclean::ComputeTpQuality(db, scan->output());
  if (!tp.ok()) return tp.status();
  // The kHotXTuples x-tuples holding the most top-100 probability: the
  // ones an analyst cleans. Drawing from every x-tuple with any mass made
  // a clean's replay depth, and with it the run's cost, swing by seed.
  const std::vector<double>& mass = tp->xtuple_topk_mass;
  for (size_t l = 0; l < mass.size(); ++l) {
    if (mass[l] > 0.0) setup->hot.push_back(static_cast<int32_t>(l));
  }
  const size_t keep = std::min(kHotXTuples, setup->hot.size());
  std::partial_sort(setup->hot.begin(), setup->hot.begin() + keep,
                    setup->hot.end(), [&](int32_t a, int32_t b) {
                      return mass[a] != mass[b] ? mass[a] > mass[b] : a < b;
                    });
  setup->hot.resize(keep);
  if (setup->hot.empty()) return Status::Internal("no x-tuple holds top-k mass");
  return Status::OK();
}

void RemoveInputs(const ServingSetup& setup) {
  if (!setup.snapshot_path.empty()) unlink(setup.snapshot_path.c_str());
  if (!setup.csv_path.empty()) unlink(setup.csv_path.c_str());
}

// ------------------------------------------------------- socket plumbing

Status WriteAll(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError(std::string("write: ") + strerror(errno));
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// A LineServer over `n` socketpairs, its loop on its own thread. The
/// destructor half-closes every client end, joins the loop and closes
/// the client fds, so no path leaves the thread running.
class ServerRun {
 public:
  explicit ServerRun(Frontend* frontend)
      : server_(frontend, uclean::serve::ServerOptions()) {}
  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;
  ~ServerRun() {
    Finish();
    for (int fd : client_fds_) close(fd);
  }

  /// Makes the socketpairs; `preload[c]` is written to connection c
  /// before it is attached (traced passes preload whole streams).
  Status Connect(size_t n, const std::vector<std::string>& preload) {
    for (size_t c = 0; c < n; ++c) {
      int sv[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        return Status::IOError(std::string("socketpair: ") + strerror(errno));
      }
      client_fds_.push_back(sv[0]);
      server_fds_.push_back(sv[1]);
      if (c < preload.size()) {
        UCLEAN_RETURN_IF_ERROR(WriteAll(sv[0], preload[c]));
        shutdown(sv[0], SHUT_WR);
      }
    }
    return Status::OK();
  }

  /// Attaches the server ends (opening one front-end client each, in
  /// connection order) and starts the loop.
  Status Start() {
    for (int fd : server_fds_) {
      Result<size_t> added = server_.AddClient(fd, fd);
      if (!added.ok()) return added.status();
    }
    loop_ = std::thread([this] { status_ = server_.Run(); });
    return Status::OK();
  }

  /// Half-closes the client ends and waits for the loop to drain.
  Status Finish() {
    if (!loop_.joinable()) return status_;
    for (int fd : client_fds_) shutdown(fd, SHUT_WR);
    loop_.join();
    return status_;
  }

  const std::vector<int>& client_fds() const { return client_fds_; }

 private:
  uclean::serve::LineServer server_;
  std::vector<int> client_fds_;
  std::vector<int> server_fds_;
  std::thread loop_;
  Status status_;
};

/// Reads what is available on `fd` into `buffer` and moves out complete
/// lines. False on EOF or a read error.
bool ReadLines(int fd, std::string* buffer, std::vector<std::string>* lines) {
  char chunk[8192];
  ssize_t n;
  do {
    n = read(fd, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  buffer->append(chunk, static_cast<size_t>(n));
  size_t begin = 0;
  while (true) {
    const size_t newline = buffer->find('\n', begin);
    if (newline == std::string::npos) break;
    lines->push_back(buffer->substr(begin, newline - begin));
    begin = newline + 1;
  }
  buffer->erase(0, begin);
  return true;
}

// ------------------------------------------------- closed-loop generator

/// Everything one closed-loop pass observed.
struct LoopLog {
  /// Reader replies: (verb, k) -> reply line -> count. Pristine views
  /// make every reply to the same query identical but for plan tokens.
  std::map<std::pair<Verb, size_t>, std::unordered_map<std::string, uint64_t>>
      reader_replies;
  /// Writer sessions in connect order: client index and (sent, reply).
  struct WriterSession {
    size_t client_index = 0;
    std::vector<std::pair<Sent, std::string>> exchanges;
  };
  std::vector<WriterSession> writers;

  /// Latencies (ms) of replies inside the measurement window, by verb.
  std::vector<double> latency_ms[3];
  std::vector<double> all_ms;
  uint64_t window_replies = 0;
  double window_s = 0.0;
};

struct ClientState {
  bool writer = false;
  ReaderStream* stream = nullptr;        // readers
  const std::vector<Sent>* script = nullptr;  // writers
  size_t next = 0;
  bool busy = false;
  Sent current;
  Clock::time_point sent_at;
  std::string buffer;
  LoopLog::WriterSession* session = nullptr;
};

/// Runs one closed loop on `run`'s connections until `stop()` is true,
/// then lets every in-flight request finish. `in_window(t)` says whether
/// a reply received at t is measured.
template <typename StopFn, typename WindowFn>
Status DriveClosedLoop(ServerRun* run, std::vector<ClientState>* clients,
                       StopFn stop, WindowFn in_window, LoopLog* log) {
  const std::vector<int>& fds = run->client_fds();
  auto send_next = [&](size_t c) -> Status {
    ClientState& client = (*clients)[c];
    if (client.writer) {
      if (client.next >= client.script->size()) return Status::OK();
      client.current = (*client.script)[client.next++];
    } else {
      client.current = client.stream->Next();
    }
    client.busy = true;
    client.sent_at = Clock::now();
    return WriteAll(fds[c], client.current.line + "\n");
  };
  auto writers_done = [&] {
    for (const ClientState& client : *clients) {
      if (client.writer &&
          (client.busy || client.next < client.script->size())) {
        return false;
      }
    }
    return true;
  };
  const bool has_writers = std::any_of(
      clients->begin(), clients->end(),
      [](const ClientState& client) { return client.writer; });

  for (size_t c = 0; c < clients->size(); ++c) {
    UCLEAN_RETURN_IF_ERROR(send_next(c));
  }
  std::vector<pollfd> polls;
  std::vector<size_t> poll_client;
  std::vector<std::string> lines;
  while (true) {
    polls.clear();
    poll_client.clear();
    for (size_t c = 0; c < clients->size(); ++c) {
      if (!(*clients)[c].busy) continue;
      polls.push_back(pollfd{fds[c], POLLIN, 0});
      poll_client.push_back(c);
    }
    if (polls.empty()) return Status::OK();
    const int ready = poll(polls.data(), polls.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + strerror(errno));
    }
    for (size_t j = 0; j < polls.size(); ++j) {
      if ((polls[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const size_t c = poll_client[j];
      ClientState& client = (*clients)[c];
      lines.clear();
      if (!ReadLines(fds[c], &client.buffer, &lines)) {
        return Status::IOError("server closed a connection mid-request");
      }
      const Clock::time_point now = Clock::now();
      for (std::string& line : lines) {
        if (!client.busy) {
          return Status::Internal("reply without a request: " + line);
        }
        client.busy = false;
        if (in_window(now)) {
          const double ms = 1e3 * Seconds(client.sent_at, now);
          log->latency_ms[static_cast<int>(client.current.verb)].push_back(ms);
          log->all_ms.push_back(ms);
          ++log->window_replies;
        }
        if (client.writer) {
          client.session->exchanges.emplace_back(client.current,
                                                 std::move(line));
        } else {
          ++log->reader_replies[{client.current.verb, client.current.k}]
                               [line];
        }
        const bool keep = client.writer ? true
                                        : !(has_writers ? writers_done()
                                                        : stop(now));
        if (keep) UCLEAN_RETURN_IF_ERROR(send_next(c));
      }
    }
  }
}

/// The untraced closed loop: epochs of fresh connections back to back.
/// A `read` epoch lasts 1/kReadEpochs of `measure_s`; a `mixed` epoch lasts
/// until its writers have made kCleansPerEpoch cleans each. The epochs of
/// the first `warmup_s` are not measured; measured epochs start until
/// `measure_s` of them has run. Set-up slices run between epochs.
Status RunClosedLoop(const Args& args, const ServingSetup& setup,
                     Frontend* frontend, double warmup_s, double measure_s,
                     SetupSlices* slices, LoopLog* log) {
  const Clock::time_point window_begin =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  const auto read_epoch = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(measure_s / kReadEpochs));
  const size_t readers = setup.mixed ? kMixedReaders : kConnections;
  const uint64_t streams_base = setup.mixed ? kMixedStreams : kReadStreams;
  size_t client_index = 0;
  double measured_s = 0.0;
  for (size_t epoch = 0; measured_s < measure_s; ++epoch) {
    const Clock::time_point epoch_start = Clock::now();
    const Clock::time_point epoch_end = epoch_start + read_epoch;
    const bool measured = epoch_start >= window_begin;
    std::vector<ReaderStream> streams;
    std::vector<std::vector<Sent>> scripts;
    for (size_t c = 0; c < kConnections; ++c) {
      const uint64_t seed =
          SubSeed(args.seed, streams_base + kConnections * epoch + c);
      if (c < readers) {
        streams.emplace_back(seed);
      } else {
        scripts.push_back(WriterScript(seed, setup.hot));
      }
    }
    std::vector<ClientState> clients(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      if (c < readers) {
        clients[c].stream = &streams[c];
      } else {
        clients[c].writer = true;
        clients[c].script = &scripts[c - readers];
        log->writers.push_back({client_index + c, {}});
      }
    }
    for (size_t c = readers; c < kConnections; ++c) {
      clients[c].session =
          &log->writers[log->writers.size() - kConnections + c];
    }
    client_index += kConnections;
    ServerRun run(frontend);
    UCLEAN_RETURN_IF_ERROR(run.Connect(kConnections, {}));
    UCLEAN_RETURN_IF_ERROR(run.Start());
    UCLEAN_RETURN_IF_ERROR(DriveClosedLoop(
        &run, &clients,
        [&](Clock::time_point now) { return now >= epoch_end; },
        [&](Clock::time_point) { return measured; }, log));
    UCLEAN_RETURN_IF_ERROR(run.Finish());
    if (measured) measured_s += SecondsSince(epoch_start);
    UCLEAN_RETURN_IF_ERROR(slices->Poll(measured_s));
  }
  log->window_s = measured_s;
  return slices->Finish();
}

// ---------------------------------------------------------------- oracle

/// Serial recomputations of pristine-view queries, one per (verb, k).
class PristineOracle {
 public:
  explicit PristineOracle(const ProbabilisticDatabase* db) : db_(db) {}
  const Expected& Get(Verb verb, size_t k) {
    auto it = cache_.find({verb, k});
    if (it == cache_.end()) {
      it = cache_.emplace(std::make_pair(verb, k),
                          ExpectQuery(*db_, nullptr, verb, k))
               .first;
    }
    return it->second;
  }

 private:
  const ProbabilisticDatabase* db_;
  std::map<std::pair<Verb, size_t>, Expected> cache_;
};

/// Replays one writer session on `shadow` with the front-end's probe
/// seed and checks every reply: cleans against the shadow's own state,
/// queries against a serial recomputation over the shadow's view.
Status CheckWriter(const LoopLog::WriterSession& session,
                   const ServingSetup& setup, SessionPool* shadow,
                   PristineOracle* pristine, Tally* tally) {
  const SessionPool::SessionId sid = shadow->OpenSession();
  Rng rng(Frontend::ClientSeed(setup.frontend_seed, session.client_index));
  bool dirty = false;
  const uclean::CleaningProfile& profile = setup.inputs.profile;
  for (const auto& [sent, line] : session.exchanges) {
    if (sent.verb != Verb::kClean) {
      if (dirty) {
        CheckReply(line,
                   ExpectQuery(shadow->base(), &shadow->overlay(sid),
                               sent.verb, sent.k),
                   1, tally);
      } else {
        CheckReply(line, pristine->Get(sent.verb, sent.k), 1, tally);
      }
      continue;
    }
    std::vector<int64_t> probes(shadow->base().num_xtuples(), 0);
    probes[static_cast<size_t>(sent.xtuple)] = 1;
    Result<uclean::ProbeDraws> draws =
        uclean::DrawProbes(shadow->overlay(sid), profile, probes, &rng);
    if (!draws.ok()) return draws.status();
    if (!draws->outcomes.empty()) {
      UCLEAN_RETURN_IF_ERROR(uclean::CommitProbeDraws(shadow, sid, *draws));
      UCLEAN_RETURN_IF_ERROR(shadow->Refresh(sid));
      dirty = true;
    }
    Reply expected;
    expected.verb = Verb::kClean;
    expected.xtuple = sent.xtuple;
    if (!draws->report.log.empty()) {
      const uclean::ProbeRecord& record = draws->report.log.front();
      expected.success = record.success;
      expected.resolved_id = record.resolved_id;
      expected.spent = record.spent;
    }
    expected.quality = shadow->quality(sid, shadow->num_rungs() - 1);
    const std::string state = rng.SaveState();
    expected.rng_fingerprint = uclean::serve::Fnv1a64(state.data(), state.size());
    CheckReply(line, Expected{uclean::serve::FormatReply(expected), {}}, 1,
               tally);
  }
  return shadow->Close(sid);
}

Status CheckLoop(const LoopLog& log, const ServingSetup& setup,
                 PristineOracle* pristine, Tally* tally) {
  for (const auto& [query, lines] : log.reader_replies) {
    const Expected& expected = pristine->Get(query.first, query.second);
    for (const auto& [line, count] : lines) {
      CheckReply(line, expected, count, tally);
    }
  }
  if (log.writers.empty()) return Status::OK();
  SessionPool::Options options;
  Result<SessionPool> shadow = SessionPool::Create(
      ProbabilisticDatabase(setup.inputs.db), WarmLadder(), options);
  if (!shadow.ok()) return shadow.status();
  for (const LoopLog::WriterSession& session : log.writers) {
    UCLEAN_RETURN_IF_ERROR(
        CheckWriter(session, setup, &*shadow, pristine, tally));
  }
  return Status::OK();
}

// ---------------------------------------------------------- traced run

/// The fixed streams of the traced run: epochs x connections x lines.
/// read is one epoch of kTracedReadRounds rounds.
struct FixedStreams {
  std::vector<std::vector<std::vector<Sent>>> epochs;
  size_t requests = 0;
};

FixedStreams MakeFixedStreams(const Args& args, const ServingSetup& setup) {
  FixedStreams fixed;
  const size_t epochs = setup.mixed ? kTracedMixedEpochs : 1;
  const size_t rounds = setup.mixed ? 2 * kCleansPerEpoch : kTracedReadRounds;
  for (size_t e = 0; e < epochs; ++e) {
    std::vector<std::vector<Sent>> conns(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      const uint64_t seed =
          SubSeed(args.seed, kTracedStreams + kConnections * e + c);
      if (setup.mixed && c >= kMixedReaders) {
        conns[c] = WriterScript(seed, setup.hot);
      } else {
        ReaderStream stream(seed);
        for (size_t r = 0; r < rounds; ++r) conns[c].push_back(stream.Next());
      }
      fixed.requests += conns[c].size();
    }
    fixed.epochs.push_back(std::move(conns));
  }
  return fixed;
}

/// One in-process pass over the fixed streams: ParseRequest ->
/// ExecuteRound -> FormatReply per round, in spans when `tracer` is on.
/// Keeps the replies (structs and lines) for the re-issue sweep.
struct InProcessPass {
  double seconds = 0.0;
  int64_t begin_ns = 0, end_ns = 0;
  /// Per round: the round span id, requests and replies.
  struct Round {
    uint32_t span = Tracer::kNoParent;
    size_t epoch = 0;
    std::vector<Sent> sent;
    std::vector<Reply> replies;
    uint64_t first_request = 0;
  };
  std::vector<Round> rounds;
  std::vector<std::vector<std::vector<std::string>>> lines;  // epoch, conn
};

Status RunInProcess(const FixedStreams& fixed, Frontend* frontend,
                    Tracer* tracer, InProcessPass* pass) {
  pass->lines.assign(fixed.epochs.size(),
                     std::vector<std::vector<std::string>>(kConnections));
  uint64_t request_id = 0;
  const Clock::time_point start = Clock::now();
  pass->begin_ns = tracer->NowNs();
  for (size_t e = 0; e < fixed.epochs.size(); ++e) {
    const auto& conns = fixed.epochs[e];
    std::vector<Frontend::ClientId> ids;
    for (size_t c = 0; c < kConnections; ++c) ids.push_back(frontend->Connect());
    const size_t rounds = conns[0].size();
    for (size_t r = 0; r < rounds; ++r) {
      InProcessPass::Round round;
      round.epoch = e;
      round.first_request = request_id;
      std::vector<std::pair<Frontend::ClientId, Request>> batch;
      for (size_t c = 0; c < kConnections; ++c) {
        const Sent& sent = conns[c][r];
        Result<Request> request =
            tracer->Time("serve.protocol.parse", Tracer::kNoParent,
                         request_id + c, [&] {
                           return uclean::serve::ParseRequest(sent.line);
                         });
        if (!request.ok()) return request.status();
        batch.emplace_back(ids[c], *request);
        round.sent.push_back(sent);
      }
      round.replies = tracer->Time(
          "serve.frontend.round", Tracer::kNoParent, request_id,
          [&] { return frontend->ExecuteRound(batch); }, &round.span);
      for (size_t c = 0; c < kConnections; ++c) {
        pass->lines[e][c].push_back(tracer->Time(
            "serve.protocol.format", Tracer::kNoParent, request_id + c,
            [&] { return uclean::serve::FormatReply(round.replies[c]); }));
      }
      request_id += kConnections;
      if (tracer->enabled()) pass->rounds.push_back(std::move(round));
    }
    for (Frontend::ClientId id : ids) {
      UCLEAN_RETURN_IF_ERROR(frontend->Disconnect(id));
    }
  }
  pass->end_ns = tracer->NowNs();
  pass->seconds = SecondsSince(start);
  return Status::OK();
}

/// The same fixed streams through LineServer: every connection's stream
/// is written before the loop starts, so each round again holds one
/// request per connection. Times attach -> loop drained, per epoch.
Status RunThroughServer(const FixedStreams& fixed, Frontend* frontend,
                        double* seconds,
                        std::vector<std::vector<std::vector<std::string>>>* lines) {
  lines->assign(fixed.epochs.size(),
                std::vector<std::vector<std::string>>(kConnections));
  *seconds = 0.0;
  for (size_t e = 0; e < fixed.epochs.size(); ++e) {
    std::vector<std::string> preload(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      for (const Sent& sent : fixed.epochs[e][c]) preload[c] += sent.line + "\n";
    }
    ServerRun run(frontend);
    UCLEAN_RETURN_IF_ERROR(run.Connect(kConnections, preload));
    const Clock::time_point start = Clock::now();
    UCLEAN_RETURN_IF_ERROR(run.Start());
    std::vector<std::string> buffers(kConnections);
    std::vector<bool> open(kConnections, true);
    size_t open_count = kConnections;
    while (open_count > 0) {
      std::vector<pollfd> polls;
      std::vector<size_t> which;
      for (size_t c = 0; c < kConnections; ++c) {
        if (!open[c]) continue;
        polls.push_back(pollfd{run.client_fds()[c], POLLIN, 0});
        which.push_back(c);
      }
      if (poll(polls.data(), polls.size(), -1) < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("poll: ") + strerror(errno));
      }
      for (size_t j = 0; j < polls.size(); ++j) {
        if ((polls[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const size_t c = which[j];
        if (!ReadLines(polls[j].fd, &buffers[c], &(*lines)[e][c])) {
          open[c] = false;
          --open_count;
        }
      }
    }
    UCLEAN_RETURN_IF_ERROR(run.Finish());
    *seconds += SecondsSince(start);
  }
  return Status::OK();
}

/// Per-layer accumulators of the re-issue sweeps.
struct ReissueTotals {
  uint64_t scans = 0;
  size_t scan_depth = 0;
  uint64_t tps = 0;
  uint64_t fingerprints = 0;
  double hashed_entries = 0.0;
  double useful_entries = 0.0;
  uint64_t cleans = 0;
  uint64_t probes = 0;
};

/// Re-issues each traced round's children on identical inputs, in spans
/// parented to the round: the executed scans (one merged ladder scan for
/// the batch, one ForK scan per unbatched query), TP for scanned quality
/// replies, HashDoubles for every topk reply, and each writer clean's
/// DrawProbes -> CommitProbeDraws -> Refresh on a shadow pool seeded
/// like the front-end's client.
Status Reissue(const InProcessPass& pass, const ServingSetup& setup,
               const Frontend& frontend, Tracer* tracer,
               ReissueTotals* totals) {
  const SessionPool& pool = frontend.pool();
  const ProbabilisticDatabase& base = pool.base();
  std::optional<SessionPool> shadow;
  if (setup.mixed) {
    Result<SessionPool> created = SessionPool::Create(
        ProbabilisticDatabase(setup.inputs.db), WarmLadder(), PoolOptions());
    if (!created.ok()) return created.status();
    shadow.emplace(std::move(created).value());
  }
  struct WriterShadow {
    SessionPool::SessionId sid = 0;
    std::unique_ptr<Rng> rng;
    bool dirty = false;
  };
  std::vector<WriterShadow> writers(kConnections);
  size_t epoch = static_cast<size_t>(-1);

  auto fingerprint = [&](const uclean::PsrOutput& psr, uint32_t parent,
                         uint64_t request) {
    tracer->Time("serve.protocol.fingerprint", parent, request,
                 [&] { return uclean::serve::HashDoubles(psr.topk_prob); });
    ++totals->fingerprints;
    totals->hashed_entries += static_cast<double>(psr.topk_prob.size());
    totals->useful_entries += static_cast<double>(psr.scan_end);
  };
  auto tp = [&](const DatabaseOverlay* view, const uclean::PsrOutput& psr,
                uint32_t parent, uint64_t request) -> Status {
    Result<uclean::TpOutput> out =
        tracer->Time("quality.tp", parent, request, [&] {
          return view != nullptr ? uclean::ComputeTpQuality(*view, psr)
                                 : uclean::ComputeTpQuality(base, psr);
        });
    ++totals->tps;
    return out.status();
  };

  for (const InProcessPass::Round& round : pass.rounds) {
    if (setup.mixed && round.epoch != epoch) {
      for (size_t c = kMixedReaders; c < kConnections; ++c) {
        if (epoch != static_cast<size_t>(-1)) {
          UCLEAN_RETURN_IF_ERROR(shadow->Close(writers[c].sid));
        }
        writers[c].sid = shadow->OpenSession();
        writers[c].rng = std::make_unique<Rng>(Frontend::ClientSeed(
            setup.frontend_seed, kConnections * round.epoch + c));
        writers[c].dirty = false;
      }
      epoch = round.epoch;
    }
    // Cleans first, as the round ran them.
    for (size_t c = 0; c < kConnections; ++c) {
      const Sent& sent = round.sent[c];
      if (sent.verb != Verb::kClean) continue;
      WriterShadow& writer = writers[c];
      const uint64_t request = round.first_request + c;
      std::vector<int64_t> probes(base.num_xtuples(), 0);
      probes[static_cast<size_t>(sent.xtuple)] = 1;
      Result<uclean::ProbeDraws> draws =
          tracer->Time("clean.agent.draw", round.span, request, [&] {
            return uclean::DrawProbes(shadow->overlay(writer.sid),
                                      setup.inputs.profile, probes,
                                      writer.rng.get());
          });
      if (!draws.ok()) return draws.status();
      ++totals->cleans;
      for (const uclean::ProbeRecord& record : draws->report.log) {
        totals->probes += static_cast<uint64_t>(record.attempts);
      }
      if (draws->outcomes.empty()) continue;
      UCLEAN_RETURN_IF_ERROR(tracer->Time(
          "clean.agent.commit", round.span, request, [&] {
            return uclean::CommitProbeDraws(&*shadow, writer.sid, *draws);
          }));
      UCLEAN_RETURN_IF_ERROR(tracer->Time(
          "clean.pool.refresh", round.span, request,
          [&] { return shadow->Refresh(writer.sid); }));
      writer.dirty = true;
    }
    // The merged ladder scan of the round's batch.
    std::vector<size_t> batch_ks;
    for (const Reply& reply : round.replies) {
      if (reply.verb != Verb::kClean &&
          reply.plan.executed == PlanKind::kLadderShared &&
          reply.plan.batch_size > 1) {
        batch_ks.push_back(reply.k);
      }
    }
    std::optional<uclean::ScanResult> merged;
    Result<uclean::ScanRequest> merged_request =
        uclean::ScanRequest::ForLadder(batch_ks);
    if (!batch_ks.empty()) {
      if (!merged_request.ok()) return merged_request.status();
      merged_request->exec = pool.exec();
      Result<uclean::ScanResult> scan =
          tracer->Time("rank.scan", round.span, round.first_request, [&] {
            return uclean::ComputePsrLadder(base, *merged_request);
          });
      if (!scan.ok()) return scan.status();
      ++totals->scans;
      totals->scan_depth =
          std::max(totals->scan_depth, scan->outputs.back().scan_end);
      merged.emplace(std::move(scan).value());
    }
    for (size_t c = 0; c < kConnections; ++c) {
      const Reply& reply = round.replies[c];
      const uint64_t request = round.first_request + c;
      if (reply.verb == Verb::kClean || !reply.status.ok()) continue;
      const WriterShadow& writer = writers[c];
      const bool dirty = setup.mixed && c >= kMixedReaders && writer.dirty;
      const DatabaseOverlay* view = dirty ? &shadow->overlay(writer.sid) : nullptr;
      const PlanKind executed = reply.plan.executed;
      if (executed == PlanKind::kReplay) {
        if (reply.verb == Verb::kTopk) {
          const size_t rung = pool.ladder().IndexOf(reply.k);
          fingerprint(dirty ? shadow->psr(writer.sid, rung) : pool.base_psr(rung),
                      round.span, request);
        }
        continue;
      }
      if (executed == PlanKind::kLadderShared && reply.plan.batch_size > 1) {
        const uclean::PsrOutput& psr =
            merged->output(merged_request->ladder.IndexOf(reply.k));
        if (reply.verb == Verb::kTopk) {
          fingerprint(psr, round.span, request);
        } else {
          UCLEAN_RETURN_IF_ERROR(tp(nullptr, psr, round.span, request));
        }
        continue;
      }
      Result<uclean::ScanRequest> single = uclean::ScanRequest::ForK(reply.k);
      if (!single.ok()) return single.status();
      if (executed == PlanKind::kSequential) {
        single->exec.num_threads = 1;
        single->exec.kernel = pool.exec().kernel;
      } else {
        single->exec = pool.exec();
      }
      single->overlay = view;
      const ProbabilisticDatabase& scan_base =
          view != nullptr ? shadow->base() : base;
      Result<uclean::ScanResult> scan = tracer->Time(
          "rank.scan", round.span, request,
          [&] { return uclean::ComputePsrLadder(scan_base, *single); });
      if (!scan.ok()) return scan.status();
      ++totals->scans;
      totals->scan_depth = std::max(totals->scan_depth, scan->output().scan_end);
      if (reply.verb == Verb::kTopk) {
        fingerprint(scan->output(), round.span, request);
      } else {
        UCLEAN_RETURN_IF_ERROR(tp(view, scan->output(), round.span, request));
      }
    }
  }
  return Status::OK();
}

/// Turns a traced pass's lines into the closed loop's log shape so the
/// same oracle checks them.
void LinesToLog(const FixedStreams& fixed,
                const std::vector<std::vector<std::vector<std::string>>>& lines,
                bool mixed, LoopLog* log) {
  for (size_t e = 0; e < fixed.epochs.size(); ++e) {
    for (size_t c = 0; c < kConnections; ++c) {
      const std::vector<Sent>& sent = fixed.epochs[e][c];
      if (mixed && c >= kMixedReaders) {
        LoopLog::WriterSession session;
        session.client_index = kConnections * e + c;
        for (size_t r = 0; r < sent.size(); ++r) {
          session.exchanges.emplace_back(sent[r], lines[e][c][r]);
        }
        log->writers.push_back(std::move(session));
        continue;
      }
      for (size_t r = 0; r < sent.size(); ++r) {
        ++log->reader_replies[{sent[r].verb, sent[r].k}][lines[e][c][r]];
      }
    }
  }
}

/// Plan mix and merged-batch size from a closed loop's reply lines.
void PlanMix(const LoopLog& log, LayerValues* values) {
  double by_plan[4] = {0, 0, 0, 0};
  double queries = 0.0, ladder_replies = 0.0, merged_scans = 0.0;
  auto count = [&](const std::string& line, double n) {
    const std::string_view exec = TokenValue(line, "exec");
    if (exec.empty()) return;
    Result<PlanKind> kind = uclean::serve::ParsePlanKind(exec);
    if (!kind.ok()) return;
    queries += n;
    by_plan[static_cast<int>(*kind)] += n;
    const double batch = std::atof(std::string(TokenValue(line, "batch")).c_str());
    if (*kind == PlanKind::kLadderShared && batch > 1.0) {
      ladder_replies += n;
      merged_scans += n / batch;
    }
  };
  for (const auto& [query, lines] : log.reader_replies) {
    for (const auto& [line, n] : lines) count(line, static_cast<double>(n));
  }
  for (const LoopLog::WriterSession& session : log.writers) {
    for (const auto& exchange : session.exchanges) count(exchange.second, 1.0);
  }
  const double q = std::max(queries, 1.0);
  values->Set("serve.cost_model.plan_seq", by_plan[0] / q);
  values->Set("serve.cost_model.plan_shard", by_plan[1] / q);
  values->Set("serve.cost_model.plan_ladder", by_plan[2] / q);
  values->Set("serve.cost_model.plan_replay", by_plan[3] / q);
  values->Set("serve.frontend.batch_size",
              merged_scans > 0.0 ? ladder_replies / merged_scans : 0.0);
}

Status FreshFrontend(ServingSetup* setup, std::optional<Frontend>* frontend) {
  Tracer off(false);
  Result<SessionPool> pool = OpenPool(setup, &off, false);
  if (!pool.ok()) return pool.status();
  Result<Frontend> made = MakeFrontend(std::move(pool).value(), *setup);
  if (!made.ok()) return made.status();
  frontend->emplace(std::move(made).value());
  return Status::OK();
}

Status RunTraced(const Args& args, ServingSetup* setup, Tracer* tracer,
                 PristineOracle* pristine, LayerValues* values,
                 RunResult* result) {
  const FixedStreams fixed = MakeFixedStreams(args, *setup);
  std::vector<double> t_server, t_plain, t_traced, coverage;
  ReissueTotals totals;
  size_t traced_rounds = 0;
  const int64_t begin_ns = tracer->NowNs();
  double pass_ns = 0.0;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    std::optional<Frontend> frontend;
    Tracer off(false);

    UCLEAN_RETURN_IF_ERROR(FreshFrontend(setup, &frontend));
    InProcessPass plain;
    UCLEAN_RETURN_IF_ERROR(RunInProcess(fixed, &*frontend, &off, &plain));
    t_plain.push_back(plain.seconds);

    UCLEAN_RETURN_IF_ERROR(FreshFrontend(setup, &frontend));
    InProcessPass traced;
    UCLEAN_RETURN_IF_ERROR(RunInProcess(fixed, &*frontend, tracer, &traced));
    t_traced.push_back(traced.seconds);
    pass_ns += static_cast<double>(traced.end_ns - traced.begin_ns);
    coverage.push_back(tracer->Coverage(traced.begin_ns, traced.end_ns));
    ReissueTotals rep_totals;
    UCLEAN_RETURN_IF_ERROR(
        Reissue(traced, *setup, *frontend, tracer, &rep_totals));
    traced_rounds = traced.rounds.size();
    totals = rep_totals;

    UCLEAN_RETURN_IF_ERROR(FreshFrontend(setup, &frontend));
    double server_s = 0.0;
    std::vector<std::vector<std::vector<std::string>>> server_lines;
    UCLEAN_RETURN_IF_ERROR(
        RunThroughServer(fixed, &*frontend, &server_s, &server_lines));
    t_server.push_back(server_s);

    // The three passes must produce the same reply bytes; the traced
    // pass's replies then go through the oracle.
    const uint64_t n = fixed.requests;
    result->tally.Attempt(2 * n);
    if (plain.lines != traced.lines) {
      result->tally.Fail("in-process replies differ with tracing on", n);
    }
    if (server_lines != traced.lines) {
      result->tally.Fail("LineServer replies differ from in-process replies", n);
    }
    LoopLog log;
    LinesToLog(fixed, traced.lines, setup->mixed, &log);
    UCLEAN_RETURN_IF_ERROR(CheckLoop(log, *setup, pristine, &result->tally));
  }

  const int64_t end_ns = tracer->NowNs();
  const double reps = static_cast<double>(kTracedReps);
  const double requests = static_cast<double>(fixed.requests);
  const double server_s = Median(t_server), plain_s = Median(t_plain);
  values->Set("serve.server_share", (server_s - plain_s) / server_s);
  values->Detail("serve.server.us_per_req", 1e6 * (server_s - plain_s) / requests,
                 "us");
  // Per-call time of each span (detail) and its share of the traced
  // passes (metric). `per` divides the total by the calls of one pass.
  struct SpanMetric {
    const char* span;
    const char* detail;
    double per;
  };
  const double cleans = static_cast<double>(std::max<uint64_t>(totals.cleans, 1));
  const std::vector<SpanMetric> span_metrics = {
      {"serve.protocol.parse", "serve.protocol.parse_us", requests},
      {"serve.protocol.format", "serve.protocol.format_us", requests},
      {"serve.protocol.fingerprint", "serve.protocol.fingerprint_us",
       static_cast<double>(std::max<uint64_t>(totals.fingerprints, 1))},
      {"rank.scan", "rank.scan_us",
       static_cast<double>(std::max<uint64_t>(totals.scans, 1))},
      {"quality.tp", "quality.tp_us",
       static_cast<double>(std::max<uint64_t>(totals.tps, 1))},
      {"clean.agent.draw", "clean.agent.draw_us", cleans},
      {"clean.agent.commit", "clean.agent.commit_us", cleans},
      {"clean.pool.refresh", "clean.pool.refresh_us", cleans},
  };
  double children_ns = 0.0;
  for (const SpanMetric& metric : span_metrics) {
    const double ns = tracer->Total(metric.span, begin_ns, end_ns).first;
    const bool child = metric.span != std::string("serve.protocol.parse") &&
                       metric.span != std::string("serve.protocol.format");
    if (child) children_ns += ns;
    values->Share(metric.span, ns / pass_ns);
    if (ns > 0.0) values->Detail(metric.detail, ns / reps / metric.per / 1e3, "us");
  }
  const double round_ns = tracer->Total("serve.frontend.round", begin_ns, end_ns).first;
  const double rounds = static_cast<double>(traced_rounds);
  values->Share("serve.frontend.self", (round_ns - children_ns) / pass_ns);
  values->Detail("serve.frontend.round_us", round_ns / reps / rounds / 1e3, "us");
  values->Detail("serve.frontend.self_us",
                 (round_ns - children_ns) / reps / rounds / 1e3, "us");
  values->Set("serve.frontend.rounds", rounds);
  values->Set("serve.protocol.fingerprint_useful",
              totals.hashed_entries > 0.0
                  ? totals.useful_entries / totals.hashed_entries
                  : 0.0);
  values->Set("rank.scans", static_cast<double>(totals.scans));
  values->Set("rank.scan_depth", static_cast<double>(totals.scan_depth));
  if (setup->mixed) values->Set("clean.probes", static_cast<double>(totals.probes));
  values->Set("trace.overhead", Median(t_traced) / plain_s);
  values->Set("trace.coverage", Median(coverage));
  result->Note("traced_rounds_per_pass", std::to_string(traced_rounds));
  result->Note("traced_reps", std::to_string(kTracedReps));
  return Status::OK();
}

}  // namespace

Status RunServing(const Args& args, RunResult* result) {
  ServingSetup setup;
  UCLEAN_RETURN_IF_ERROR(PrepareInputs(args, &setup));
  struct Cleanup {
    const ServingSetup& setup;
    ~Cleanup() { RemoveInputs(setup); }
  } cleanup{setup};

  // The first set-up's pool serves; the slices' pools are dropped.
  Tracer tracer(args.trace);
  Result<SessionPool> pool = OpenPool(&setup, &tracer, true);
  if (!pool.ok()) return pool.status();
  Result<Frontend> frontend = MakeFrontend(std::move(pool).value(), setup);
  if (!frontend.ok()) return frontend.status();

  const double loop_s =
      args.trace ? std::max(1.0, kTracedUntracedShare * args.seconds)
                 : args.seconds;
  const double warmup_s = std::min(1.0, 0.1 * loop_s);
  SetupSlices slices(
      [&]() -> Result<double> {
        Result<SessionPool> opened = OpenPool(&setup, &tracer, true);
        if (!opened.ok()) return opened.status();
        return setup.setup_s.back();
      },
      loop_s);
  LoopLog log;
  UCLEAN_RETURN_IF_ERROR(RunClosedLoop(args, setup, &*frontend, warmup_s,
                                       loop_s, &slices, &log));
  const double peak_rss = PeakRssMb();

  PristineOracle pristine(&setup.inputs.db);
  UCLEAN_RETURN_IF_ERROR(CheckLoop(log, setup, &pristine, &result->tally));

  const size_t samples = log.all_ms.size();
  auto verb_p50 = [&](Verb verb) {
    return Median(log.latency_ms[static_cast<int>(verb)]);
  };
  if (!args.trace) {
    RequireTailSamples(samples, kTailQuantile, &result->tally);
    result->Add("setup_s", Median(setup.setup_s), "s");
    result->Add("ops_per_s",
                static_cast<double>(log.window_replies) / log.window_s, "1/s");
    result->Add("p50_ms", Median(log.all_ms), "ms");
    result->Add("tail_ms", Percentile(log.all_ms, kTailQuantile), "ms");
    result->Add("peak_rss_mb", peak_rss, "MB");
    result->Detail("topk_p50_ms", verb_p50(Verb::kTopk), "ms");
    result->Detail("quality_p50_ms", verb_p50(Verb::kQuality), "ms");
    if (setup.mixed) result->Detail("clean_p50_ms", verb_p50(Verb::kClean), "ms");
  } else {
    LayerValues values;
    PlanMix(log, &values);
    if (setup.mixed) {
      values.Detail("model.csv_read_ms", Median(setup.csv_read_ms), "ms");
      values.Detail("clean.pool.create_ms", Median(setup.create_ms), "ms");
    } else {
      values.Detail("store.open_ms", Median(setup.open_ms), "ms");
      values.Set("store.bytes_per_tuple",
                 static_cast<double>(setup.snapshot_bytes) /
                     static_cast<double>(setup.inputs.db.num_tuples()));
    }
    UCLEAN_RETURN_IF_ERROR(
        RunTraced(args, &setup, &tracer, &pristine, &values, result));
    UCLEAN_RETURN_IF_ERROR(values.Emit(result));
    UCLEAN_RETURN_IF_ERROR(WriteSpans(args, tracer, result));
  }

  result->Note("setup_repeats", std::to_string(setup.setup_s.size()));
  result->Note("pool_threads", std::to_string(frontend->pool().exec().num_threads));
  result->Note("ladder", JsonString(frontend->pool().ladder().ToString()));
  result->Note("connections",
               JsonString(setup.mixed ? "2 readers + 2 writers" : "4 readers"));
  result->Note("request_mix",
               JsonString("topk/quality 50/50; k 70% on {10, 50, 100}, 30% on "
                          "{5, 15, 20, 25, 30, 40, 75, 150, 200}" +
                          std::string(setup.mixed
                                          ? "; writers alternate clean X "
                                            "(X among the 100 x-tuples "
                                            "holding the most top-100 "
                                            "probability) with a query, " +
                                                std::to_string(kCleansPerEpoch) +
                                                " cleans per session"
                                          : "")));
  result->Note("loop", JsonString("closed, no think time"));
  result->Note("latency_samples", std::to_string(samples));
  result->Note("tail_quantile", JsonNumber(kTailQuantile));
  return Status::OK();
}

}  // namespace perfbench
