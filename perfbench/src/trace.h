// In-memory span recorder for the traced runs, and the per-layer metrics
// they report. Spans are taken in the benchmark's own code, around calls
// into each layer's public functions; nothing inside the library is
// instrumented. A span has a name, start, end, parent span and request
// id; the recorder keeps them in memory and writes each one once, after
// the traced run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.h"
#include "common/status.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;
  static constexpr uint64_t kNoRequest = ~uint64_t{0};

  struct Span {
    const char* name = "";
    uint32_t parent = kNoParent;
    uint64_t request = kNoRequest;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Runs `fn()` inside a span and returns its result; `*id` (when given)
  /// receives the span's id for children.
  template <typename Fn>
  auto Time(const char* name, uint32_t parent, uint64_t request, Fn&& fn,
            uint32_t* id = nullptr) -> decltype(fn()) {
    if (!enabled_) return fn();
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    if (id != nullptr) *id = index;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_[index].end_ns = NowNs();
    } else {
      auto result = fn();
      spans_[index].end_ns = NowNs();
      return result;
    }
  }

  /// Summed duration (ns) and count of the spans named `name` that start
  /// inside [from_ns, to_ns).
  std::pair<double, size_t> Total(const std::string& name, int64_t from_ns,
                                  int64_t to_ns) const;

  /// Share of [from_ns, to_ns) covered by the union of all spans.
  double Coverage(int64_t from_ns, int64_t to_ns) const;

  /// Writes every span as one JSON line.
  uclean::Status Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Writes the tracer's spans to `<workdir>/<workload>-<seed>.spans.jsonl`
/// and records the path in the result's provenance.
uclean::Status WriteSpans(const Args& args, const Tracer& tracer,
                          RunResult* result);

/// Every per-layer metric a traced run reports, with its unit, in report
/// order. Layer time is reported as its share of the traced pass's wall
/// time, so a layer a workload never calls reads 0 without a zero time;
/// the per-call times are printed in the summary.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& LayerMetricSpecs();

/// Collects one traced run's per-layer values.
class LayerValues {
 public:
  /// A value of one LayerMetricSpecs() metric.
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Shorthand for the share metric of span `span`.
  void Share(const std::string& span, double share) {
    Set(span + "_share", share);
  }
  /// A summary-only value (per-call times, set-up spans).
  void Detail(const std::string& name, double value, const std::string& unit) {
    details_.push_back({name, value, unit});
  }

  /// Adds every LayerMetricSpecs() metric (0 for a layer the workload does
  /// not run) and the details to `result`. Fails on a name not in the
  /// table, so a typo cannot drop a metric silently.
  uclean::Status Emit(RunResult* result) const;

 private:
  std::map<std::string, double> values_;
  std::vector<Metric> details_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
