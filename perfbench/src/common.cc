#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "rank/kernel.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

namespace perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t NumCpus() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

uclean::Result<Inputs> MakeInputs(uint64_t seed) {
  uclean::SyntheticOptions db_options;
  db_options.num_xtuples = kXTuples;
  db_options.tuples_per_xtuple = kBars;
  db_options.pdf = uclean::UncertaintyPdf::kGaussian;
  db_options.real_mass_min = kMassLo;
  db_options.real_mass_max = kMassHi;
  db_options.seed = SubSeed(seed, 1);
  uclean::Result<uclean::ProbabilisticDatabase> db =
      uclean::GenerateSynthetic(db_options);
  if (!db.ok()) return db.status();

  uclean::CleaningProfileOptions profile_options;
  profile_options.sc_pdf = uclean::ScPdf::Uniform(kScLo, kScHi);
  profile_options.seed = SubSeed(seed, 2);
  uclean::Result<uclean::CleaningProfile> profile =
      uclean::GenerateCleaningProfile(kXTuples, profile_options);
  if (!profile.ok()) return profile.status();
  return Inputs{std::move(db).value(), std::move(profile).value()};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tally::Fail(const std::string& reason, uint64_t n) {
  failed += n;
  if (reasons.size() < 8) reasons.push_back(reason);
}

void RequireTailSamples(size_t samples, double q, Tally* tally) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples)));
  const size_t beyond = samples - std::min(rank, samples);
  if (beyond < 10) {
    tally->Fail("only " + std::to_string(beyond) + " of " +
                std::to_string(samples) + " samples beyond the tail quantile " +
                JsonNumber(q) + "; lengthen the run");
  }
}

uclean::Status SetupSlices::Poll(double measured_s) {
  while (done_ < kSetupSlices && measured_s >= done_ * seconds_ / kSetupSlices) {
    UCLEAN_RETURN_IF_ERROR(RunSlice());
  }
  return uclean::Status::OK();
}

uclean::Status SetupSlices::Finish() {
  while (done_ < kSetupSlices) UCLEAN_RETURN_IF_ERROR(RunSlice());
  return uclean::Status::OK();
}

uclean::Status SetupSlices::RunSlice() {
  double timed_s = 0.0;
  do {
    uclean::Result<double> seconds = once_();
    if (!seconds.ok()) return seconds.status();
    timed_s += *seconds;
  } while (timed_s < kSetupSeconds / kSetupSlices);
  ++done_;
  return uclean::Status::OK();
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AddBaseProvenance(const Args& args, RunResult* result) {
  result->Note("workload", JsonString(args.workload));
  result->Note("seed", std::to_string(args.seed));
  result->Note("seconds", JsonNumber(args.seconds));
  result->Note("trace", args.trace ? "1" : "0");
  result->Note("nproc", std::to_string(NumCpus()));
  // The kernel kAuto resolves to, named as the BENCH_*.json files name it.
  uclean::Result<const uclean::psr_internal::ScanKernel*> kernel =
      uclean::SelectScanKernel(uclean::KernelKind::kAuto);
  result->Note("kernel", JsonString(kernel.ok() ? (*kernel)->name : "scalar"));
  result->Note("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  result->Note("compiler", JsonString(PERFBENCH_COMPILER));
  result->Note("db_shape",
               JsonString(std::to_string(kXTuples) + " x-tuples x " +
                          std::to_string(kBars) +
                          " Gaussian bars, existence mass U[" +
                          JsonNumber(kMassLo) + ", " + JsonNumber(kMassHi) +
                          "], sc-probability U[" + JsonNumber(kScLo) + ", " +
                          JsonNumber(kScHi) + "]"));
}

void PrintResult(const Args& args, const RunResult& result) {
  const Tally& tally = result.tally;
  std::printf("# perfbench %s seed=%llu trace=%d: %llu attempted, %llu "
              "failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const std::string& reason : tally.reasons) {
    std::printf("# FAILED: %s\n", reason.c_str());
  }
  for (const std::vector<Metric>* list : {&result.metrics, &result.details}) {
    for (const Metric& metric : *list) {
      std::printf("#   %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::string provenance = "{\"provenance\": {";
  for (size_t i = 0; i < result.provenance.size(); ++i) {
    if (i > 0) provenance += ", ";
    provenance += JsonString(result.provenance[i].first) + ": " +
                  result.provenance[i].second;
  }
  std::printf("%s}}\n", provenance.c_str());

  std::string line = "{\"correct\": ";
  line += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(metric.name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " +
            JsonString(metric.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
