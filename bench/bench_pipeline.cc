// Measures the pipelined cleaning round (clean/pipeline.h): the adaptive
// pool loop with each round's per-session plan + draw steps run
// concurrently on the exec pool and one concurrent RefreshAll per round,
// against the serial reference loop (the same code on a sequential
// executor, every step inline), at N = 8 concurrent sessions.
//
// The regime that matters is PROBE LATENCY: in the field a probe is a
// source lookup, a sensor read, a person -- milliseconds to minutes --
// while a round's state refresh is a sub-millisecond suffix replay. The
// bench simulates that with ProbeOptions::latency (each probe attempt
// sleeps before its result is known): the serial loop serializes every
// session's waiting on the caller thread, the pipelined loop overlaps
// all sessions' waiting and planning. A zero-latency regime rides along
// as the overhead guard: with no waiting to overlap, the pipeline must
// not be pathologically slower than serial.
//
// Each (regime, threads) series times its own serial reps, interleaved
// with its pipelined reps, and divides the two medians, so a slow serial
// rep moves only that series' speedup.
//
// Correctness is asserted, not assumed: per-session final qualities,
// spent budgets and full probe logs must be BITWISE equal across every
// arm (the determinism contract pipeline_test holds under shuffled
// completion orders).
//
// Output: a per-series table on stdout and a machine-readable
// BENCH_pipeline.json gated by tools/check_bench.py in CI. Speedup
// floors are hardware-relative (the JSON records hardware_concurrency):
// the >=1.5x acceptance gate applies at >= 4 cores; the latency-overlap
// win is scheduler-driven (sleeping probes release their core), so a
// weaker floor holds even single-core.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/pipeline.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "rank/psr.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr size_t kSessions = 8;
constexpr int64_t kBudget = 120;
constexpr uint64_t kSeed = 20260728;
constexpr size_t kMaxRounds = 5;

/// One timed campaign: pool creation, session opens, the full round
/// loop. Returns the report plus per-session final qualities for the
/// cross-arm equality check.
struct ArmRun {
  double total_ms = 0.0;
  PipelineReport report;
};

Result<ArmRun> RunArm(const ProbabilisticDatabase& db, const KLadder& ladder,
                      const CleaningProfile& profile, size_t threads,
                      bool overlap, std::chrono::microseconds latency) {
  Stopwatch timer;
  SessionPool::Options pool_options;
  pool_options.exec.num_threads = threads;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, pool_options);
  if (!pool.ok()) return pool.status();

  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  for (size_t s = 0; s < kSessions; ++s) {
    ids.push_back(pool->OpenSession());
    rngs.emplace_back(kSeed + s);
  }

  PipelineOptions options;
  options.overlap = overlap;
  options.max_rounds = kMaxRounds;
  options.probe.latency = latency;
  Result<PipelineReport> report =
      RunPipelinedCleaning(&*pool, ids, profile, kBudget, &rngs, options);
  if (!report.ok()) return report.status();

  ArmRun run;
  run.report = std::move(report).value();
  run.total_ms = timer.ElapsedMillis();
  return run;
}

/// Largest absolute per-session per-rung quality difference (0.0 means
/// bitwise-identical trajectories) plus log equality.
struct ArmDiff {
  double max_quality_diff = 0.0;
  bool logs_equal = true;
};

ArmDiff CompareArms(const PipelineReport& a, const PipelineReport& b) {
  ArmDiff diff;
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    const PipelineSessionReport& sa = a.sessions[s];
    const PipelineSessionReport& sb = b.sessions[s];
    for (size_t rung = 0; rung < sa.final_quality.size(); ++rung) {
      const double d = sa.final_quality[rung] - sb.final_quality[rung];
      diff.max_quality_diff =
          std::max(diff.max_quality_diff, d < 0.0 ? -d : d);
    }
    if (sa.spent != sb.spent || !(sa.log == sb.log)) diff.logs_equal = false;
  }
  return diff;
}

struct Series {
  std::string regime;
  size_t threads = 0;
  double serial_ms = 0.0;
  double pipelined_ms = 0.0;
  double speedup = 0.0;
  double max_quality_diff = 0.0;
  bool logs_equal = true;
};

constexpr int kReps = 5;

ArmRun Median(std::vector<ArmRun> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const ArmRun& a, const ArmRun& b) {
              return a.total_ms < b.total_ms;
            });
  return std::move(reps[reps.size() / 2]);
}

/// Each arm's median rep, with its report (results are deterministic
/// across reps).
struct PairedRun {
  ArmRun serial;
  ArmRun pipelined;
};

/// Times one series' two arms kReps times each, as interleaved pairs:
/// rep r runs the serial arm first when r is even and the pipelined arm
/// first when r is odd, so a slow phase of the host lands on both arms
/// of the series alike.
Result<PairedRun> RunPairs(const ProbabilisticDatabase& db,
                           const KLadder& ladder,
                           const CleaningProfile& profile, size_t threads,
                           std::chrono::microseconds latency) {
  std::vector<ArmRun> serial;
  std::vector<ArmRun> pipelined;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool overlap : {rep % 2 == 1, rep % 2 == 0}) {
      Result<ArmRun> run = RunArm(db, ladder, profile, overlap ? threads : 1,
                                  overlap, latency);
      if (!run.ok()) return run.status();
      (overlap ? pipelined : serial).push_back(std::move(run).value());
    }
  }
  return PairedRun{Median(std::move(serial)), Median(std::move(pipelined))};
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;
  using std::chrono::microseconds;

  SyntheticOptions db_opts;
  db_opts.num_xtuples = 2000;
  db_opts.tuples_per_xtuple = 5;
  db_opts.real_mass_min = 0.7;
  db_opts.real_mass_max = 1.0;
  db_opts.seed = 31;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(db_opts);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  CleaningProfileOptions profile_opts;
  profile_opts.sc_pdf = ScPdf::Uniform(0.2, 0.9);
  profile_opts.seed = 77;
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(db->num_xtuples(), profile_opts);
  if (!profile.ok()) {
    std::printf("profile failed: %s\n",
                profile.status().ToString().c_str());
    return 1;
  }
  Result<KLadder> ladder = KLadder::Of({15});
  UCLEAN_CHECK(ladder.ok());

  struct Regime {
    const char* name;
    microseconds latency;
  };
  const std::vector<Regime> regimes = {
      {"probe_latency", microseconds(150)},
      {"zero_latency", microseconds(0)},
  };
  const std::vector<size_t> thread_arms = {2, 4, 8};

  bench::Banner(
      "Pipelined cleaning round",
      "pipelined adaptive pool loop (per-session plan + draw steps in "
      "parallel, one concurrent RefreshAll per round) vs the serial "
      "reference at N=8 sessions; 150us simulated per-probe field latency "
      "vs the zero-latency overhead guard; per-session state asserted "
      "bitwise equal across all arms");
  bench::Header(
      "regime,threads,sessions,serial_ms,pipelined_ms,speedup,"
      "max_quality_diff,logs_equal");

  std::vector<Series> all;
  bool ok = true;
  for (const Regime& regime : regimes) {
    for (size_t threads : thread_arms) {
      Result<PairedRun> pair =
          RunPairs(*db, *ladder, *profile, threads, regime.latency);
      if (!pair.ok()) {
        std::printf("arm failed: %s\n", pair.status().ToString().c_str());
        return 1;
      }
      const ArmRun& serial = pair->serial;
      const ArmRun& pipelined = pair->pipelined;
      Series series;
      series.regime = regime.name;
      series.threads = threads;
      series.serial_ms = serial.total_ms;
      series.pipelined_ms = pipelined.total_ms;
      series.speedup = pipelined.total_ms > 0.0
                           ? serial.total_ms / pipelined.total_ms
                           : 0.0;
      const ArmDiff diff = CompareArms(serial.report, pipelined.report);
      series.max_quality_diff = diff.max_quality_diff;
      series.logs_equal = diff.logs_equal;
      if (!diff.logs_equal || diff.max_quality_diff > 0.0) {
        std::printf("MISMATCH %s/threads=%zu: pipelined state diverges "
                    "from serial (quality diff %.3e, logs_equal %d)\n",
                    series.regime.c_str(), threads, diff.max_quality_diff,
                    diff.logs_equal ? 1 : 0);
        ok = false;
      }
      std::printf("%s,%zu,%zu,%.3f,%.3f,%.2f,%.3e,%d\n",
                  series.regime.c_str(), series.threads, kSessions,
                  series.serial_ms, series.pipelined_ms, series.speedup,
                  series.max_quality_diff, series.logs_equal ? 1 : 0);
      all.push_back(std::move(series));
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_pipeline.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"pipeline\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 8,\n",
               bench::ResolvedKernelName());
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
               cores == 0 ? 1 : cores);
  std::fprintf(json,
               "  \"workload\": \"synthetic 2Kx5, existence mass U[0.7, "
               "1.0], k = 15\",\n");
  std::fprintf(json,
               "  \"sessions\": %zu, \"budget\": %lld, \"max_rounds\": "
               "%zu, \"probe_latency_us\": 150, \"seed\": %llu,\n",
               kSessions, static_cast<long long>(kBudget), kMaxRounds,
               static_cast<unsigned long long>(kSeed));
  std::fprintf(json, "  \"series\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Series& x = all[i];
    std::fprintf(json,
                 "    {\"regime\": \"%s\", \"threads\": %zu, \"sessions\": "
                 "%zu, \"serial_ms\": %.4f, \"pipelined_ms\": %.4f, "
                 "\"speedup\": %.4f, \"max_quality_diff\": %.3e, "
                 "\"logs_equal\": %s}%s\n",
                 x.regime.c_str(), x.threads, kSessions, x.serial_ms,
                 x.pipelined_ms, x.speedup, x.max_quality_diff,
                 x.logs_equal ? "true" : "false",
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_pipeline.json\n");
  return ok ? 0 : 1;
}
