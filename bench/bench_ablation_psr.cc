// Ablation: the Lemma-2 early-termination rule in PSR.
// Measures the rank-probability pass with the rule on and off across k and
// database sizes, and verifies both configurations agree on the quality
// score. Early termination pays off because ranked data saturates the
// top-k count after a small prefix; without it the scan walks all n tuples.

#include <cstdio>

#include "bench/bench_util.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "workload/synthetic.h"

int main() {
  using namespace uclean;

  bench::Banner("Ablation: PSR early termination (Lemma 2)",
                "scan time (ms) and scanned-tuple counts, on vs off");
  bench::Header("tuples,k,time_on_ms,time_off_ms,scanned_on,scanned_off,"
                "quality_delta");
  for (size_t m : {1000u, 5000u, 20000u}) {
    SyntheticOptions opts;
    opts.num_xtuples = m;
    Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
    if (!db.ok()) {
      std::printf("generation failed: %s\n", db.status().ToString().c_str());
      return 1;
    }
    for (size_t k : {5u, 15u, 50u}) {
      PsrOptions on, off;
      on.early_termination = true;
      off.early_termination = false;
      Result<PsrOutput> psr_on(Status::OK()), psr_off(Status::OK());
      const double t_on =
          bench::MedianMillis([&] { psr_on = bench::ScanPsr(*db, k, on); }, 5);
      const double t_off = bench::MedianMillis(
          [&] { psr_off = bench::ScanPsr(*db, k, off); }, 5);
      Result<TpOutput> q_on = ComputeTpQuality(*db, *psr_on);
      Result<TpOutput> q_off = ComputeTpQuality(*db, *psr_off);
      std::printf("%zu,%zu,%.4f,%.4f,%zu,%zu,%.2e\n", db->num_tuples(), k,
                  t_on, t_off, psr_on->scan_end, psr_off->scan_end,
                  q_on->quality - q_off->quality);
    }
  }
  return 0;
}
