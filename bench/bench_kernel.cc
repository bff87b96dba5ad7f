// Measures the vectorized PSR scan kernels (rank/kernel.h) against the
// portable scalar path, single-threaded, in two regimes:
//
//   independent   thousands of singleton x-tuples with sub-unit masses,
//                 early termination off: nothing saturates, the count
//                 vector grows to the full x-tuple count, and the scan
//                 is dominated by the element-wise fold (Advance +
//                 RebuildCounts) and emission scale -- exactly the loops
//                 the AVX2 kernel vectorizes. The >= 1.5x acceptance
//                 gate applies here.
//   alternatives  Gaussian-histogram x-tuples (many bars each): nearly
//                 every tuple runs the divide-out recurrence, which is
//                 sequential within a tuple and runs as one scalar
//                 chained kernel (DivideOutChain, up to kMaxChain
//                 consecutive tuples in lockstep) in every kernel table
//                 (rank/kernel.h) -- so the honest expectation is parity
//                 between the arms, and the gate is only a >= 0.95
//                 no-regression floor.
//
// Every arm's topk output is compared against the scalar arm's and any
// nonzero difference fails the bench outright: the kernels promise
// bitwise equality, not closeness (see rank/kernel.h).
//
// Output: a per-arm table on stdout and BENCH_kernel.json (single-thread
// tuples/sec per arm, speedup ratios, the recorded avx2 capability),
// gated by tools/check_bench.py in CI. The JSON records
// hardware_concurrency so throughput floors stay hardware-relative.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "model/database.h"
#include "rank/kernel.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr size_t kIndependentXTuples = 8000;
constexpr size_t kAlternativesXTuples = 800;
// Deep enough that the independent scan's Lemma-2 stop lands past the
// count-refresh grid (RebuildCounts runs in the timed region) while
// still truncating the scan before the materialized null tail.
constexpr size_t kTopK = 2048;

/// Singleton x-tuples (one alternative each) with sub-unit masses:
/// nothing ever saturates, there is nothing to divide out (the tuple's
/// x-tuple is inactive at its only rank), and the per-tuple cost is the
/// fold plus emission -- the vectorized loops, undiluted.
ProbabilisticDatabase MakeIndependentDb() {
  Rng rng(20260808);
  DatabaseBuilder builder;
  TupleId next_id = 0;
  for (size_t l = 0; l < kIndependentXTuples; ++l) {
    XTupleId x = builder.AddXTuple();
    const double score = rng.Uniform(0.0, 100000.0);
    const double mass = rng.Uniform(0.3, 0.6);
    Status s = builder.AddAlternative(x, next_id++, score, mass);
    UCLEAN_CHECK(s.ok());
  }
  Result<ProbabilisticDatabase> db = std::move(builder).Finish();
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

ProbabilisticDatabase MakeAlternativesDb() {
  SyntheticOptions opts;
  opts.num_xtuples = kAlternativesXTuples;
  opts.real_mass_min = 0.2;
  opts.real_mass_max = 0.5;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// One single-threaded k=kTopK scan through the request API with an
/// explicit kernel. Early termination stays on: the stop decisions are
/// part of the arithmetic lineage and must be identical across arms.
Result<PsrOutput> ScanWithKernel(const ProbabilisticDatabase& db,
                                 KernelKind kernel) {
  Result<ScanRequest> request = ScanRequest::ForK(kTopK);
  if (!request.ok()) return request.status();
  request->exec.kernel = kernel;
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs[0]);
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

struct Series {
  std::string workload;
  std::string arm;
  double ms = 0.0;
  double tuples_per_sec = 0.0;
  double max_abs_diff = 0.0;  // vs the scalar arm; must be exactly 0
};

Series TimeArm(const std::string& workload, const std::string& arm,
               size_t num_tuples, const std::function<void()>& fn) {
  Series series;
  series.workload = workload;
  series.arm = arm;
  fn();  // warm-up
  series.ms = bench::MedianMillis(fn);
  series.tuples_per_sec =
      series.ms > 0.0 ? 1000.0 * static_cast<double>(num_tuples) / series.ms
                      : 0.0;
  return series;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  const unsigned cores = std::thread::hardware_concurrency();
  const bool avx2 = Avx2Supported();
  bench::Banner(
      "Vectorized scan kernel",
      "single-thread scalar vs AVX2 scan throughput on a fold-bound "
      "independent workload (the vectorized loops) and a divide-out-bound "
      "alternatives workload (one scalar chained divide-out in every "
      "kernel; parity expected); all arms must stay bitwise equal");
  std::printf("# hardware_concurrency: %u, avx2: %s\n", cores,
              avx2 ? "true" : "false");
  bench::Header("workload,arm,ms,tuples_per_sec,max_abs_diff");

  bool ok = true;
  std::vector<Series> all;

  // ------------------------------------------------------- independent
  const ProbabilisticDatabase independent = MakeIndependentDb();
  Result<PsrOutput> ind_scalar =
      ScanWithKernel(independent, KernelKind::kScalar);
  if (!ind_scalar.ok()) {
    std::printf("scan failed: %s\n", ind_scalar.status().ToString().c_str());
    return 1;
  }
  // The scan must cross the refresh grid (RebuildCounts in the timed
  // region) or the headline number omits a vectorized loop.
  if (ind_scalar->scan_end <= psr_internal::kCountRefreshGridLive) {
    std::printf("independent scan stopped before the refresh grid\n");
    return 1;
  }
  const size_t ind_tuples = ind_scalar->scan_end;

  Series ind_scalar_series = TimeArm("independent", "scalar", ind_tuples, [&] {
    (void)ScanWithKernel(independent, KernelKind::kScalar);
  });
  all.push_back(ind_scalar_series);

  Series ind_avx2_series;
  if (avx2) {
    Result<PsrOutput> ind_avx2 =
        ScanWithKernel(independent, KernelKind::kAvx2);
    if (!ind_avx2.ok()) {
      std::printf("scan failed: %s\n", ind_avx2.status().ToString().c_str());
      return 1;
    }
    ind_avx2_series = TimeArm("independent", "avx2", ind_tuples, [&] {
      (void)ScanWithKernel(independent, KernelKind::kAvx2);
    });
    ind_avx2_series.max_abs_diff = std::max(
        MaxAbsDiff(ind_avx2->topk_prob, ind_scalar->topk_prob),
        MaxAbsDiff(ind_avx2->best_rank_prob, ind_scalar->best_rank_prob));
    if (ind_avx2->scan_end != ind_scalar->scan_end) ok = false;
    all.push_back(ind_avx2_series);
  }

  // ------------------------------------------------------ alternatives
  const ProbabilisticDatabase alternatives = MakeAlternativesDb();
  Result<PsrOutput> alt_scalar =
      ScanWithKernel(alternatives, KernelKind::kScalar);
  if (!alt_scalar.ok()) {
    std::printf("scan failed: %s\n", alt_scalar.status().ToString().c_str());
    return 1;
  }
  Series alt_scalar_series =
      TimeArm("alternatives", "scalar", alternatives.num_tuples(), [&] {
        (void)ScanWithKernel(alternatives, KernelKind::kScalar);
      });
  all.push_back(alt_scalar_series);

  Series alt_avx2_series;
  if (avx2) {
    Result<PsrOutput> alt_avx2 =
        ScanWithKernel(alternatives, KernelKind::kAvx2);
    if (!alt_avx2.ok()) {
      std::printf("scan failed: %s\n", alt_avx2.status().ToString().c_str());
      return 1;
    }
    alt_avx2_series =
        TimeArm("alternatives", "avx2", alternatives.num_tuples(), [&] {
          (void)ScanWithKernel(alternatives, KernelKind::kAvx2);
        });
    alt_avx2_series.max_abs_diff =
        MaxAbsDiff(alt_avx2->topk_prob, alt_scalar->topk_prob);
    all.push_back(alt_avx2_series);
  }

  for (const Series& s : all) {
    std::printf("%s,%s,%.3f,%.0f,%.3e\n", s.workload.c_str(), s.arm.c_str(),
                s.ms, s.tuples_per_sec, s.max_abs_diff);
    if (s.max_abs_diff != 0.0) ok = false;
  }

  const double independent_avx2_vs_scalar =
      avx2 && ind_scalar_series.ms > 0.0
          ? ind_scalar_series.ms / ind_avx2_series.ms
          : 0.0;
  const double alternatives_avx2_vs_scalar =
      avx2 && alt_scalar_series.ms > 0.0
          ? alt_scalar_series.ms / alt_avx2_series.ms
          : 0.0;

  std::printf("\n# independent avx2_vs_scalar: %.2fx\n",
              independent_avx2_vs_scalar);
  std::printf("# alternatives avx2_vs_scalar: %.2fx\n",
              alternatives_avx2_vs_scalar);
  if (!ok) {
    std::printf("MISMATCH: kernel outputs are not bitwise equal\n");
  }

  std::FILE* json = std::fopen("BENCH_kernel.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_kernel.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"kernel\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 1,\n",
               bench::ResolvedKernelName());
  std::fprintf(json,
               "  \"workload\": \"independent 8K singleton x-tuples (fold-"
               "bound), alternatives 800x10 Gaussian (divide-out-bound), "
               "k = %zu, single thread\",\n",
               kTopK);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", cores);
  std::fprintf(json, "  \"avx2\": %s,\n", avx2 ? "true" : "false");
  std::fprintf(json, "  \"independent_avx2_vs_scalar\": %.4f,\n",
               independent_avx2_vs_scalar);
  std::fprintf(json, "  \"alternatives_avx2_vs_scalar\": %.4f,\n",
               alternatives_avx2_vs_scalar);
  std::fprintf(json, "  \"bitwise_equal\": %s,\n", ok ? "true" : "false");
  std::fprintf(json, "  \"series\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Series& s = all[i];
    std::fprintf(json,
                 "    {\"workload\": \"%s\", \"arm\": \"%s\", \"ms\": %.4f, "
                 "\"tuples_per_sec\": %.0f, \"max_abs_diff\": %.3e}%s\n",
                 s.workload.c_str(), s.arm.c_str(), s.ms, s.tuples_per_sec,
                 s.max_abs_diff, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_kernel.json\n");
  return ok ? 0 : 1;
}
