// Shared plumbing of the repository benchmark: command-line arguments,
// seeded inputs, sample statistics, failure accounting and the result
// line every run ends with. See perfbench/README.md for the workloads.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "clean/problem.h"
#include "common/status.h"
#include "model/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to` (or to now).
double Seconds(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point from);

/// One invocation: `--workload W --seed N --seconds S --trace 0|1
/// --workdir DIR`.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

/// Independent 64-bit seed for sub-stream `stream` of the workload seed
/// (splitmix64), so every input and request stream is a pure function of
/// --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The paper's default synthetic shape with sub-unit existence mass:
/// 5,000 x-tuples x 10 Gaussian bars, mass U[0.5, 0.9] -> 55,000 tuples
/// including the null completions.
inline constexpr size_t kXTuples = 5000;
inline constexpr size_t kBars = 10;
inline constexpr double kMassLo = 0.5;
inline constexpr double kMassHi = 0.9;
inline constexpr double kScLo = 0.2;
inline constexpr double kScHi = 0.9;

/// Threads of compute: never more than the machine has.
size_t NumCpus();

struct Inputs {
  uclean::ProbabilisticDatabase db;
  uclean::CleaningProfile profile;
};

/// Generates the workload's database and cleaning profile from `seed`.
uclean::Result<Inputs> MakeInputs(uint64_t seed);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile q in (0, 1] of `values` (0 when empty).
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, MB.
double PeakRssMb();

/// Attempted/failed operations of one run. A failure keeps its first few
/// reasons for the log.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;

  void Attempt(uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& reason, uint64_t n = 1);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Fails the run when fewer than ten of `samples` lie beyond quantile `q`,
/// so every reported tail percentile has ten samples beyond it.
void RequireTailSamples(size_t samples, double q, Tally* tally);

/// Everything one run prints.
struct RunResult {
  Tally tally;
  /// The result line's metrics (BENCHMARK.json's end_to_end with --trace
  /// 0, its per_layer with --trace 1).
  std::vector<Metric> metrics;
  /// Printed in the summary only.
  std::vector<Metric> details;
  /// Provenance: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> provenance;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& json_value) {
    provenance.emplace_back(key, json_value);
  }
};

/// Set-up is timed in kSetupSlices slices spread over the measured part
/// of a run, each repeating set-up until kSetupSeconds / kSetupSlices of
/// it has been timed; the run reports the median of every set-up. Spread
/// out, the median sees the same host as the run's other figures: on a
/// shared 4-vCPU host, `mixed`'s set-up repeated back to back for 6 s took
/// 50-114 ms in phases lasting seconds, so one block of set-ups samples
/// one phase.
inline constexpr int kSetupSlices = 40;
inline constexpr double kSetupSeconds = 1.0;

class SetupSlices {
 public:
  /// `once` runs one set-up and returns the seconds it timed; the slices
  /// are spread over `seconds` of measured work.
  SetupSlices(std::function<uclean::Result<double>()> once, double seconds)
      : once_(std::move(once)), seconds_(seconds) {}

  /// Runs every slice that `measured_s` of the work has reached.
  uclean::Status Poll(double measured_s);
  /// Runs every slice not yet run.
  uclean::Status Finish();

 private:
  uclean::Status RunSlice();

  std::function<uclean::Result<double>()> once_;
  double seconds_;
  int done_ = 0;
};

/// Provenance every result carries: machine, kernel, build, seed, shape.
void AddBaseProvenance(const Args& args, RunResult* result);

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

/// Prints the metric summary and provenance, then the result object as
/// the last line of standard output.
void PrintResult(const Args& args, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
