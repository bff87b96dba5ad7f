// Measures the sharded parallel PSR scan (rank/sharded_scan.h over the
// exec/thread_pool.h pool) against the sequential path at 1/2/4/8
// threads, on large synthetic workloads whose deepest scans cross many
// count-refresh grid intervals (the shard cut points), in three regimes:
//
//   oneshot  one large single-k scan (ComputePsrLadder, k = 1024) -- the
//            acceptance regime: the initial full scan is the start-up
//            cost every serving path pays, and the rank-range shards
//            carry almost all of its work.
//   ladder   a 4-rung ladder engine: checkpointed Create plus one
//            batched suffix ReplaySession of its sole session after
//            shallow cleans -- the incremental serving path, sharded end
//            to end.
//   pooled   a SessionPool with 8 dirty sessions brought forward by ONE
//            RefreshAll -- the parallelism budget spent across whole
//            sessions rather than within one scan.
//
// Every parallel arm's outputs are checked against the sequential arm's
// (topk probabilities, scan ends, qualities): shard cuts sit on the
// count-refresh grid, so parallel results are BITWISE equal to
// sequential ones -- the bench asserts agreement to 1e-12 and fails on
// any divergence, whatever the machine.
//
// Speedups are hardware-relative: the JSON records
// hardware_concurrency, and tools/check_bench.py scales its floors by
// the cores actually available (a 1-core container can only check that
// the parallel path is not pathologically slower; the CI gate expects
// >= 2x at 8 threads on the oneshot regime once >= 4 cores exist).
//
// Output: a per-series table on stdout and BENCH_shard.json, gated by
// tools/check_bench.py in CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr double kEqualityTol = 1e-12;
constexpr size_t kThreadArms[] = {1, 2, 4, 8};
constexpr size_t kPooledSessions = 8;
constexpr uint64_t kOutcomeSeed = 20260728;

ExecOptions Threads(size_t n) {
  ExecOptions exec;
  exec.num_threads = n;
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  UCLEAN_CHECK(resolved.ok());
  return std::move(resolved).value();
}

/// Large sub-unit-mass synthetic: no x-tuple ever saturates, so deep-k
/// scans stay wide (thousands of active x-tuples) and run tens of
/// thousands of ranks -- the databases "too large for one core" the
/// sharding targets.
Result<ProbabilisticDatabase> MakeLargeDb(size_t num_xtuples) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.real_mass_min = 0.2;
  opts.real_mass_max = 0.5;
  return GenerateSynthetic(opts);
}

/// Max |a[i] - b[i]| over the longer vector, reading +0.0 past the
/// shorter one's end (a rung holds only [0, scan_end)).
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const double x = i < a.size() ? a[i] : 0.0;
    const double y = i < b.size() ? b[i] : 0.0;
    max_diff = std::max(max_diff, std::fabs(x - y));
  }
  return max_diff;
}

/// Max topk_prob divergence across rungs; scan_end mismatches count as
/// failure outright (they would silently mask value divergence).
double ComparePsrs(const std::vector<PsrOutput>& seq,
                   const std::vector<PsrOutput>& par, bool* ok) {
  double max_diff = 0.0;
  for (size_t j = 0; j < seq.size(); ++j) {
    if (seq[j].scan_end != par[j].scan_end ||
        seq[j].num_nonzero != par[j].num_nonzero) {
      *ok = false;
    }
    max_diff = std::max(max_diff, MaxAbsDiff(seq[j].topk_prob,
                                             par[j].topk_prob));
  }
  if (max_diff > kEqualityTol) *ok = false;
  return max_diff;
}

struct Series {
  std::string regime;
  size_t threads = 0;
  double seq_ms = 0.0;
  double par_ms = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

// ---------------------------------------------------------------- oneshot

Result<std::vector<Series>> RunOneshot(const ProbabilisticDatabase& db,
                                       bool* ok) {
  Result<KLadder> ladder = KLadder::Of({1024});
  UCLEAN_CHECK(ladder.ok());
  Result<std::vector<PsrOutput>> reference = bench::ScanPsrLadder(db, *ladder);
  if (!reference.ok()) return reference.status();
  const double seq_ms = bench::MedianMillis(
      [&] { (void)bench::ScanPsrLadder(db, *ladder); });

  std::vector<Series> all;
  for (const size_t threads : kThreadArms) {
    const ExecOptions exec = Threads(threads);
    Result<std::vector<PsrOutput>> parallel =
        bench::ScanPsrLadder(db, *ladder, {}, exec);
    if (!parallel.ok()) return parallel.status();
    Series series;
    series.regime = "oneshot";
    series.threads = threads;
    series.seq_ms = seq_ms;
    series.par_ms = bench::MedianMillis(
        [&] { (void)bench::ScanPsrLadder(db, *ladder, {}, exec); });
    series.speedup = series.par_ms > 0.0 ? seq_ms / series.par_ms : 0.0;
    series.max_abs_diff = ComparePsrs(*reference, *parallel, ok);
    all.push_back(series);
  }
  return all;
}

// ---------------------------------------------------------------- ladder

/// Shallow-rank cleans for the replay half: collapsing early x-tuples
/// invalidates almost the whole checkpoint suffix, so the timed Replay
/// re-scans nearly the full depth -- the worst case sharding must carry.
std::vector<std::pair<XTupleId, TupleId>> DrawCleans(
    const ProbabilisticDatabase& db, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<XTupleId, TupleId>> cleans;
  std::vector<bool> used(db.num_xtuples(), false);
  while (cleans.size() < count) {
    const size_t rank = static_cast<size_t>(rng.UniformInt(50, 2000));
    const Tuple& t = db.tuple(rank);
    if (used[t.xtuple]) continue;
    used[t.xtuple] = true;
    cleans.emplace_back(t.xtuple, t.id);
  }
  return cleans;
}

Result<std::vector<Series>> RunLadder(const ProbabilisticDatabase& db,
                                      bool* ok) {
  Result<KLadder> ladder = KLadder::Of({16, 64, 256, 1024});
  UCLEAN_CHECK(ladder.ok());
  const auto cleans = DrawCleans(db, 4, kOutcomeSeed);

  /// One full serving cycle: checkpointed create, a round of cleans,
  /// one batched suffix replay. Returns the final outputs.
  const auto cycle =
      [&](const ExecOptions& exec) -> Result<std::vector<PsrOutput>> {
    ScanRequest request;
    request.ladder = *ladder;
    request.exec = exec;
    Result<PsrEngine> engine = PsrEngine::Create(db, request);
    if (!engine.ok()) return engine.status();
    PsrEngine::SessionState state = engine->TakeSoleSession();
    DatabaseOverlay working(&db);
    size_t first_changed = working.num_tuples();
    for (const auto& [xtuple, resolved] : cleans) {
      Result<DatabaseOverlay::CleanOutcomeDelta> delta =
          working.ApplyCleanOutcome(xtuple, resolved);
      if (!delta.ok()) return delta.status();
      first_changed = std::min(first_changed, delta->first_changed_rank);
    }
    UCLEAN_RETURN_IF_ERROR(
        engine->ReplaySession(working, first_changed, &state));
    return state.outputs();
  };

  Result<std::vector<PsrOutput>> reference = cycle(Threads(1));
  if (!reference.ok()) return reference.status();
  const double seq_ms =
      bench::MedianMillis([&] { (void)cycle(Threads(1)); });

  std::vector<Series> all;
  for (const size_t threads : kThreadArms) {
    const ExecOptions exec = Threads(threads);
    Result<std::vector<PsrOutput>> parallel = cycle(exec);
    if (!parallel.ok()) return parallel.status();
    Series series;
    series.regime = "ladder";
    series.threads = threads;
    series.seq_ms = seq_ms;
    series.par_ms = bench::MedianMillis([&] { (void)cycle(exec); });
    series.speedup = series.par_ms > 0.0 ? seq_ms / series.par_ms : 0.0;
    series.max_abs_diff = ComparePsrs(*reference, *parallel, ok);
    all.push_back(series);
  }
  return all;
}

// ---------------------------------------------------------------- pooled

Result<std::vector<Series>> RunPooled(const ProbabilisticDatabase& db,
                                      bool* ok) {
  Result<KLadder> ladder = KLadder::Of({32, 256});
  UCLEAN_CHECK(ladder.ok());

  /// Opens kPooledSessions sessions, applies one distinct shallow clean
  /// per session, and times ONE RefreshAll bringing every session
  /// forward. Returns (per-session final qualities, refresh_ms).
  struct PooledRun {
    std::vector<double> qualities;
    double refresh_ms = 0.0;
  };
  const auto run = [&](const ExecOptions& exec) -> Result<PooledRun> {
    SessionPool::Options options;
    options.exec = exec;
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(db), *ladder, options);
    if (!pool.ok()) return pool.status();
    const auto cleans =
        DrawCleans(pool->base(), kPooledSessions, kOutcomeSeed + 1);
    std::vector<SessionPool::SessionId> ids;
    for (size_t s = 0; s < kPooledSessions; ++s) {
      ids.push_back(pool->OpenSession());
      UCLEAN_RETURN_IF_ERROR(pool->ApplyCleanOutcome(
          ids[s], cleans[s].first, cleans[s].second));
    }
    Stopwatch timer;
    UCLEAN_RETURN_IF_ERROR(pool->RefreshAll());
    PooledRun result;
    result.refresh_ms = timer.ElapsedMillis();
    for (size_t s = 0; s < kPooledSessions; ++s) {
      for (size_t j = 0; j < ladder->size(); ++j) {
        result.qualities.push_back(pool->quality(ids[s], j));
      }
    }
    return result;
  };

  /// Median-of-3 on the refresh time; qualities are deterministic.
  const auto timed = [&](const ExecOptions& exec) -> Result<PooledRun> {
    std::vector<PooledRun> reps;
    for (int rep = 0; rep < 3; ++rep) {
      Result<PooledRun> one = run(exec);
      if (!one.ok()) return one.status();
      reps.push_back(std::move(one).value());
    }
    std::sort(reps.begin(), reps.end(),
              [](const PooledRun& a, const PooledRun& b) {
                return a.refresh_ms < b.refresh_ms;
              });
    return reps[reps.size() / 2];
  };

  Result<PooledRun> reference = timed(Threads(1));
  if (!reference.ok()) return reference.status();

  std::vector<Series> all;
  for (const size_t threads : kThreadArms) {
    Result<PooledRun> parallel = timed(Threads(threads));
    if (!parallel.ok()) return parallel.status();
    Series series;
    series.regime = "pooled";
    series.threads = threads;
    series.seq_ms = reference->refresh_ms;
    series.par_ms = parallel->refresh_ms;
    series.speedup =
        series.par_ms > 0.0 ? series.seq_ms / series.par_ms : 0.0;
    series.max_abs_diff =
        MaxAbsDiff(reference->qualities, parallel->qualities);
    if (series.max_abs_diff > kEqualityTol) *ok = false;
    all.push_back(series);
  }
  return all;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  Result<ProbabilisticDatabase> db = MakeLargeDb(30000);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  bench::Banner(
      "Sharded parallel PSR scan",
      "rank-range sharded scans/replays/refreshes at 1/2/4/8 threads vs "
      "the sequential path, on a 30K-x-tuple sub-unit-mass synthetic "
      "(deep scans across many refresh-grid shards); parallel output "
      "must stay bitwise equal");
  std::printf("# hardware_concurrency: %u\n", cores);
  bench::Header("regime,threads,seq_ms,par_ms,speedup,max_abs_diff");

  bool ok = true;
  std::vector<Series> all;
  for (const auto& runner : {RunOneshot, RunLadder, RunPooled}) {
    Result<std::vector<Series>> series = runner(*db, &ok);
    if (!series.ok()) {
      std::printf("series failed: %s\n", series.status().ToString().c_str());
      return 1;
    }
    for (const Series& s : *series) {
      std::printf("%s,%zu,%.3f,%.3f,%.2f,%.3e\n", s.regime.c_str(),
                  s.threads, s.seq_ms, s.par_ms, s.speedup, s.max_abs_diff);
      all.push_back(s);
    }
  }
  if (!ok) {
    std::printf("MISMATCH: parallel output diverged from sequential\n");
  }

  std::FILE* json = std::fopen("BENCH_shard.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_shard.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"shard\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 8,\n",
               bench::ResolvedKernelName());
  std::fprintf(json,
               "  \"workload\": \"synthetic 30Kx10, existence mass U[0.2, "
               "0.5], k up to 1024\",\n");
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", cores);
  std::fprintf(json, "  \"pooled_sessions\": %zu,\n", kPooledSessions);
  std::fprintf(json, "  \"series\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Series& s = all[i];
    std::fprintf(json,
                 "    {\"regime\": \"%s\", \"threads\": %zu, \"seq_ms\": "
                 "%.4f, \"par_ms\": %.4f, \"speedup\": %.4f, "
                 "\"max_abs_diff\": %.3e}%s\n",
                 s.regime.c_str(), s.threads, s.seq_ms, s.par_ms, s.speedup,
                 s.max_abs_diff, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_shard.json\n");
  return ok ? 0 : 1;
}
