// Measures the snapshot store (store/snapshot.h): cold pool start-up
// (SessionPool::Create -- one full PSR scan + TP pass -- plus P session
// opens) against warm start-up (SessionPool::OpenFromSnapshot -- file
// read + decode, ZERO scans) on a serving-scale workload, plus the
// store's raw save/load throughput and bytes-per-tuple footprint.
//
// The warm path is only worth shipping if it is (a) much faster than
// re-scanning and (b) EXACTLY equivalent. Both are asserted here, not
// just reported: every series re-serializes the warm pool and requires
// the bytes to equal the cold pool's serialization (the same bitwise
// gate the ctest suite pins), and tools/check_bench.py gates
// warm-vs-cold speedup >= 10x at the 64-session point.
//
// The workload uses sub-unit existence masses, so no x-tuple saturates
// and only the probabilistic Lemma-2 stop ends the scan -- at 14,600 of
// the 30,000 tuples for k = 5000, a deep O(n * k) cold cost -- and
// pristine sessions, which the store re-forks on load instead of
// persisting -- the snapshot cost scales with STATE, not with session
// count.
//
// Save and warm open are each the median of kTimedReps runs with at most
// one pool alive at a time, every pool destroyed outside the timed
// region: both take a few milliseconds, so the median of a few reps, or
// reps that share the heap with earlier pools, spreads run to run by
// more than a store change moves them.
//
// Output: a per-series table on stdout and BENCH_snapshot.json gated by
// tools/check_bench.py in CI. The per-series snapshot files
// (BENCH_snapshot.poolN.snap) are left on disk for the CI artifact
// upload -- a real snapshot any future reader must stay able to open.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/session_pool.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "rank/kernel.h"
#include "store/snapshot.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr int kTimedReps = 11;

struct Series {
  size_t sessions = 0;
  uint64_t file_bytes = 0;
  double cold_open_ms = 0.0;  // Create (scan + TP) + P opens, median of 3
  double warm_open_ms = 0.0;  // OpenFromSnapshot, median of kTimedReps
  double save_ms = 0.0;       // WriteSnapshot, median of kTimedReps
  double speedup = 0.0;       // cold / warm
  bool bitwise_equal = false; // serialize(warm) == serialize(cold)
};

Result<Series> RunSeries(const ProbabilisticDatabase& db,
                         const KLadder& ladder, size_t sessions,
                         const std::string& snap_path) {
  Series series;
  series.sessions = sessions;
  SessionPool::Options options;  // sequential; kernel auto-resolved
  // A sparse checkpoint set keeps the persisted engine state (and the
  // decode on the warm path) proportional to the scan OUTPUT, not the
  // scan WORK -- exactly the asymmetry the store exists to exploit.
  options.checkpoint_interval = 8192;

  // Cold arm: the full boot a serving tier pays without the store. The
  // database copy is inside the timed region on both arms (the cold arm
  // copies the caller's database, the warm arm reads the file).
  std::vector<SessionPool> cold_pools;
  series.cold_open_ms = bench::MedianMillis([&] {
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
    UCLEAN_CHECK(pool.ok());
    for (size_t s = 0; s < sessions; ++s) pool->OpenSession();
    cold_pools.push_back(std::move(pool).value());
  });
  // From here on at most one pool is alive: the last cold one until its
  // bytes are taken, then one warm pool at a time.
  std::optional<SessionPool> cold(std::move(cold_pools.back()));
  cold_pools.clear();

  series.save_ms = bench::MedianMillis(
      [&] {
        const Status saved = store::WriteSnapshot(*cold, snap_path);
        UCLEAN_CHECK(saved.ok());
      },
      kTimedReps);
  std::string cold_bytes;
  UCLEAN_RETURN_IF_ERROR(SnapshotAccess::Serialize(*cold, nullptr,
                                                   &cold_bytes));
  cold.reset();

  std::optional<SessionPool> warm;
  std::vector<double> samples;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    warm.reset();  // the previous rep's pool, outside the timed region
    Stopwatch timer;
    Result<SessionPool> pool =
        SessionPool::OpenFromSnapshot(snap_path, options);
    samples.push_back(timer.ElapsedMillis());
    UCLEAN_CHECK(pool.ok());
    warm.emplace(std::move(pool).value());
  }
  std::sort(samples.begin(), samples.end());
  series.warm_open_ms = samples[samples.size() / 2];
  series.speedup = series.warm_open_ms > 0.0
                       ? series.cold_open_ms / series.warm_open_ms
                       : 0.0;

  Result<store::SnapshotInfo> info = store::InspectSnapshot(snap_path);
  if (!info.ok()) return info.status();
  series.file_bytes = info->file_size;

  // The bitwise gate: the warm pool must re-serialize to EXACTLY the
  // cold pool's bytes -- same database, same engine scan state, same
  // sessions. Anything weaker would let a lossy decode ship.
  std::string warm_bytes;
  UCLEAN_RETURN_IF_ERROR(SnapshotAccess::Serialize(*warm, nullptr,
                                                   &warm_bytes));
  series.bitwise_equal = cold_bytes == warm_bytes;
  return series;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  // 10K entities x 2 alternatives with sub-unit masses (no x-tuple
  // saturates; the probabilistic Lemma-2 stop ends the scan at 14,600 of
  // the 30,000 tuples) served at one deep rung, k = 5000: the analytics
  // regime where the O(n * k) scan is the real boot cost. The persisted
  // state is at most O(n), whatever k, which is precisely the asymmetry
  // that makes warm starts pay.
  SyntheticOptions opts;
  opts.num_xtuples = 10000;
  opts.tuples_per_xtuple = 2;
  opts.real_mass_min = 0.55;
  opts.real_mass_max = 0.90;
  opts.seed = 20260808;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Result<KLadder> ladder = KLadder::Of({5000});
  UCLEAN_CHECK(ladder.ok());

  // Provenance for the JSON: the concrete kernel the scans resolved to
  // and the executor width (this bench runs the sequential default).
  const char* kernel_name = nullptr;
  size_t threads = 0;
  {
    Result<SessionPool> probe =
        SessionPool::Create(ProbabilisticDatabase(*db), *ladder);
    UCLEAN_CHECK(probe.ok());
    Result<const psr_internal::ScanKernel*> kernel =
        SelectScanKernel(probe->exec().kernel);
    UCLEAN_CHECK(kernel.ok());
    kernel_name = (*kernel)->name;  // static kernel table entry
    threads = probe->exec().num_threads;
  }

  bench::Banner(
      "Snapshot store",
      "cold SessionPool::Create (full scan + TP pass) vs warm "
      "OpenFromSnapshot (zero scans) on synthetic 10Kx2 with sub-unit "
      "masses at k = 5000; warm pools must re-serialize to the cold "
      "pool's exact bytes");
  bench::Header(
      "sessions,file_kb,bytes_per_tuple,save_ms,cold_open_ms,warm_open_ms,"
      "speedup,bitwise_equal");

  const size_t num_tuples = db->num_tuples();
  std::vector<Series> all;
  bool ok = true;
  for (size_t sessions : {size_t{8}, size_t{64}}) {
    const std::string snap_path =
        "BENCH_snapshot.pool" + std::to_string(sessions) + ".snap";
    Result<Series> series = RunSeries(*db, *ladder, sessions, snap_path);
    if (!series.ok()) {
      std::printf("series failed: %s\n", series.status().ToString().c_str());
      return 1;
    }
    if (!series->bitwise_equal) {
      std::printf("MISMATCH pool%zu: warm pool re-serializes to different "
                  "bytes than the cold pool\n",
                  sessions);
      ok = false;
    }
    std::printf("%zu,%.1f,%.1f,%.3f,%.3f,%.3f,%.2f,%s\n", series->sessions,
                series->file_bytes / 1024.0,
                static_cast<double>(series->file_bytes) / num_tuples,
                series->save_ms, series->cold_open_ms, series->warm_open_ms,
                series->speedup, series->bitwise_equal ? "true" : "false");
    all.push_back(std::move(series).value());
  }

  std::FILE* json = std::fopen("BENCH_snapshot.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_snapshot.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"snapshot\",\n");
  std::fprintf(json,
               "  \"workload\": \"synthetic 10Kx2, existence mass U[0.55, "
               "0.90], ladder [5000]\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": %zu,\n", kernel_name,
               threads);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"num_xtuples\": %zu, \"num_tuples\": %zu,\n",
               db->num_xtuples(), num_tuples);
  std::fprintf(json, "  \"series\": [\n");
  for (size_t s = 0; s < all.size(); ++s) {
    const Series& x = all[s];
    const double save_s = x.save_ms / 1e3;
    const double load_s = x.warm_open_ms / 1e3;
    const double mb = static_cast<double>(x.file_bytes) / (1024.0 * 1024.0);
    std::fprintf(json,
                 "    {\"sessions\": %zu, \"file_bytes\": %llu, "
                 "\"bytes_per_tuple\": %.2f,\n",
                 x.sessions, static_cast<unsigned long long>(x.file_bytes),
                 static_cast<double>(x.file_bytes) / num_tuples);
    std::fprintf(json,
                 "     \"save_ms\": %.4f, \"cold_open_ms\": %.4f, "
                 "\"warm_open_ms\": %.4f,\n",
                 x.save_ms, x.cold_open_ms, x.warm_open_ms);
    std::fprintf(json,
                 "     \"save_mb_per_s\": %.2f, \"load_mb_per_s\": %.2f,\n",
                 save_s > 0.0 ? mb / save_s : 0.0,
                 load_s > 0.0 ? mb / load_s : 0.0);
    std::fprintf(json, "     \"speedup\": %.4f, \"bitwise_equal\": %s}%s\n",
                 x.speedup, x.bitwise_equal ? "true" : "false",
                 s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_snapshot.json (snapshots left as "
              "BENCH_snapshot.pool*.snap)\n");
  return ok ? 0 : 1;
}
