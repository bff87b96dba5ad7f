// Traffic replay through the serving front-end (src/serve/): 16 clients
// on socketpair connections fire a seeded open-loop request stream --
// exponential inter-arrivals, a 70/30 topk/quality mix over six distinct
// ks -- at one LineServer, with the admission batcher ON vs OFF. Feeder
// threads write each request at its scheduled instant and timestamp the
// send; reader threads timestamp every reply line, so each request gets
// an end-to-end latency and each arm a served QPS.
//
// The load is offered faster than a sequential scan can drain it, so
// rounds accumulate several pending clients and the batcher finds
// strangers to merge: the batched arm's shared ladder scans amortize the
// count-vector recurrence over the round's distinct ks, which is where
// its QPS advantage comes from -- on any core count, since the saving is
// work removed, not work parallelized.
//
// Correctness is gated in-bench: reply lines, normalized by dropping the
// PlanRecord tokens (exec=/batch=/threads= -- what ran MAY differ across
// arms, the answer MAY NOT), must be identical per client across every
// arm and repetition. `bitwise_equal` lands in
// BENCH_serve.json and tools/check_bench.py fails CI when it is false,
// alongside cores-aware floors on the batched speedup.
//
// Output: per-arm table on stdout + machine-readable BENCH_serve.json.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr size_t kClients = 16;
constexpr size_t kRequestsPerClient = 40;
constexpr uint64_t kStreamSeed = 20260808;
constexpr uint64_t kFrontendSeed = 77;
constexpr double kMeanInterArrivalUs = 200.0;  // offered >> drain rate
constexpr int kReps = 3;

using Clock = std::chrono::steady_clock;

double ToMillis(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             d)
      .count();
}

/// One client's replayed stream: wire lines plus scheduled send offsets.
struct Stream {
  std::vector<std::string> lines;
  std::vector<double> offsets_us;  ///< arrival offsets from replay start
};

/// Draws the 16 per-client streams once; both arms replay the same bytes
/// on the same schedule. No stats verb (its open-session count depends on
/// disconnect timing) and no cleans (a dirty view leaves the batcher for
/// the rest of the run; cleaning determinism is tests/serve_test.cc's
/// job) -- this bench measures the query path under load.
std::vector<Stream> DrawStreams() {
  const size_t ks[] = {10, 20, 35, 50, 75, 100};
  std::vector<Stream> streams(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    Rng rng(kStreamSeed + 101 * c);
    double at_us = 0.0;
    for (size_t r = 0; r < kRequestsPerClient; ++r) {
      // Exponential inter-arrival via inverse transform.
      at_us += -kMeanInterArrivalUs * std::log(1.0 - rng.UniformUnit());
      const size_t k = ks[rng.UniformInt(0, 5)];
      const bool topk = rng.Bernoulli(0.7);
      streams[c].lines.push_back(
          (topk ? "topk " : "quality ") + std::to_string(k) + "\n");
      streams[c].offsets_us.push_back(at_us);
    }
  }
  return streams;
}

/// Drops the PlanRecord tokens from a reply line: what ran may legally
/// differ across arms, the answer may not.
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

struct ArmRun {
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t replies = 0;
  /// Normalized per-client reply lines, for the cross-arm bitwise gate.
  std::vector<std::vector<std::string>> normalized;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const size_t index = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

Result<ArmRun> ReplayOnce(const ProbabilisticDatabase& db,
                          const std::vector<Stream>& streams, bool batching,
                          size_t pool_threads) {
  Result<KLadder> ladder = KLadder::Of({20, 100});
  if (!ladder.ok()) return ladder.status();
  SessionPool::Options pool_options;
  pool_options.exec.num_threads = pool_threads;
  Result<SessionPool> pool = SessionPool::Create(ProbabilisticDatabase(db),
                                                 *ladder, pool_options);
  if (!pool.ok()) return pool.status();
  serve::FrontendOptions options;
  options.batching = batching;
  options.seed = kFrontendSeed;
  Result<serve::Frontend> frontend =
      serve::Frontend::Create(std::move(*pool), std::nullopt, options);
  if (!frontend.ok()) return frontend.status();
  serve::LineServer server(&*frontend, serve::ServerOptions());

  int client_fd[kClients];
  for (size_t c = 0; c < kClients; ++c) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return Status::IOError("socketpair failed");
    }
    client_fd[c] = sv[0];
    Result<size_t> added = server.AddClient(sv[1], sv[1]);
    if (!added.ok()) return added.status();
  }

  const Clock::time_point start = Clock::now();
  std::vector<std::vector<Clock::time_point>> sent(kClients);
  std::vector<std::vector<Clock::time_point>> received(kClients);
  std::vector<std::vector<std::string>> reply_lines(kClients);

  // Open-loop feeders: write each request at its scheduled offset (never
  // later than the schedule allows, regardless of how the server keeps
  // up), then half-close so EOF drains the connection.
  std::vector<std::thread> feeders;
  for (size_t c = 0; c < kClients; ++c) {
    feeders.emplace_back([&, c] {
      const Stream& stream = streams[c];
      for (size_t r = 0; r < stream.lines.size(); ++r) {
        const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(
                                        stream.offsets_us[r]));
        std::this_thread::sleep_until(at);
        sent[c].push_back(Clock::now());
        const std::string& line = stream.lines[r];
        size_t written = 0;
        while (written < line.size()) {
          const ssize_t n = write(client_fd[c], line.data() + written,
                                  line.size() - written);
          if (n <= 0) return;
          written += static_cast<size_t>(n);
        }
      }
      shutdown(client_fd[c], SHUT_WR);
    });
  }
  // Readers: timestamp every reply line as its bytes arrive.
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kClients; ++c) {
    readers.emplace_back([&, c] {
      std::string buffer;
      char chunk[4096];
      while (true) {
        const ssize_t n = read(client_fd[c], chunk, sizeof(chunk));
        if (n <= 0) break;
        const Clock::time_point now = Clock::now();
        buffer.append(chunk, static_cast<size_t>(n));
        size_t begin = 0;
        while (true) {
          const size_t newline = buffer.find('\n', begin);
          if (newline == std::string::npos) break;
          reply_lines[c].push_back(buffer.substr(begin, newline - begin));
          received[c].push_back(now);
          begin = newline + 1;
        }
        buffer.erase(0, begin);
      }
    });
  }

  const Status run = server.Run();
  for (std::thread& t : feeders) t.join();
  for (std::thread& t : readers) t.join();
  if (!run.ok()) return run;

  ArmRun arm;
  arm.normalized.resize(kClients);
  std::vector<double> latencies_ms;
  Clock::time_point last_reply = start;
  for (size_t c = 0; c < kClients; ++c) {
    if (reply_lines[c].size() != streams[c].lines.size()) {
      return Status::Internal("client " + std::to_string(c) + " got " +
                              std::to_string(reply_lines[c].size()) +
                              " replies, want " +
                              std::to_string(streams[c].lines.size()));
    }
    for (size_t r = 0; r < reply_lines[c].size(); ++r) {
      arm.normalized[c].push_back(StripPlanTokens(reply_lines[c][r]));
      latencies_ms.push_back(ToMillis(received[c][r] - sent[c][r]));
      last_reply = std::max(last_reply, received[c][r]);
      ++arm.replies;
    }
  }
  arm.wall_ms = ToMillis(last_reply - start);
  arm.qps = arm.wall_ms > 0.0 ? 1000.0 * arm.replies / arm.wall_ms : 0.0;
  arm.p50_ms = Percentile(latencies_ms, 0.50);
  arm.p99_ms = Percentile(latencies_ms, 0.99);
  return arm;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  SyntheticOptions db_opts;
  db_opts.num_xtuples = 2000;
  db_opts.tuples_per_xtuple = 5;
  db_opts.real_mass_min = 0.6;
  db_opts.real_mass_max = 1.0;
  db_opts.seed = 7;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(db_opts);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t pool_threads = std::min<size_t>(4, cores);
  const std::vector<Stream> streams = DrawStreams();

  bench::Banner("Serving traffic replay",
                std::to_string(kClients) + " open-loop clients x " +
                    std::to_string(kRequestsPerClient) +
                    " requests, admission batching on vs off, identical "
                    "seeded streams");
  bench::Header("arm,rep,wall_ms,qps,p50_ms,p99_ms,replies");

  // Median-of-kReps per arm; every run's normalized replies must agree.
  ArmRun arms[2];       // [0] = batching off, [1] = on
  double medians[2] = {0.0, 0.0};
  bool bitwise_equal = true;
  const std::vector<std::vector<std::string>>* reference = nullptr;
  std::vector<std::vector<std::string>> reference_store;
  for (int b = 0; b < 2; ++b) {
    const bool batching = b == 1;
    std::vector<double> qps_samples;
    for (int rep = 0; rep < kReps; ++rep) {
      Result<ArmRun> run = ReplayOnce(*db, streams, batching, pool_threads);
      if (!run.ok()) {
        std::printf("replay failed: %s\n", run.status().ToString().c_str());
        return 1;
      }
      if (reference == nullptr) {
        reference_store = run->normalized;
        reference = &reference_store;
      } else if (run->normalized != *reference) {
        bitwise_equal = false;
      }
      std::printf("%s,%d,%.2f,%.1f,%.3f,%.3f,%zu\n",
                  batching ? "batched" : "per_request", rep, run->wall_ms,
                  run->qps, run->p50_ms, run->p99_ms, run->replies);
      qps_samples.push_back(run->qps);
      arms[b] = std::move(run).value();
    }
    std::sort(qps_samples.begin(), qps_samples.end());
    medians[b] = qps_samples[qps_samples.size() / 2];
  }
  const double speedup = medians[0] > 0.0 ? medians[1] / medians[0] : 0.0;
  std::printf("\n# batched QPS %.1f vs per-request %.1f: %.2fx, "
              "bitwise_equal=%s (cores=%u)\n",
              medians[1], medians[0], speedup, bitwise_equal ? "yes" : "NO",
              cores);
  if (!bitwise_equal) {
    std::printf("MISMATCH: normalized replies differ across arms/reps\n");
  }

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_serve.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": %zu, \"cores\": %u,\n",
               bench::ResolvedKernelName(), pool_threads, cores);
  std::fprintf(json,
               "  \"clients\": %zu, \"requests_per_client\": %zu, "
               "\"stream_seed\": %llu, \"mean_interarrival_us\": %.1f,\n",
               kClients, kRequestsPerClient,
               static_cast<unsigned long long>(kStreamSeed),
               kMeanInterArrivalUs);
  std::fprintf(json, "  \"arms\": [\n");
  for (int b = 0; b < 2; ++b) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"median_qps\": %.2f, \"wall_ms\": "
                 "%.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"replies\": "
                 "%zu}%s\n",
                 b == 1 ? "batched" : "per_request", medians[b],
                 arms[b].wall_ms, arms[b].p50_ms, arms[b].p99_ms,
                 arms[b].replies, b == 0 ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"batched_speedup\": %.4f, \"bitwise_equal\": %s\n}\n",
               speedup, bitwise_equal ? "true" : "false");
  std::fclose(json);
  std::printf("# wrote BENCH_serve.json\n");
  return bitwise_equal ? 0 : 1;
}
