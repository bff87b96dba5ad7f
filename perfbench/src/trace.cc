#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::pair<double, size_t> Tracer::Total(const std::string& name,
                                        int64_t from_ns, int64_t to_ns) const {
  double total = 0.0;
  size_t count = 0;
  for (const Span& span : spans_) {
    if (name != span.name || span.start_ns < from_ns || span.start_ns >= to_ns) {
      continue;
    }
    total += static_cast<double>(span.end_ns - span.start_ns);
    ++count;
  }
  return {total, count};
}

double Tracer::Coverage(int64_t from_ns, int64_t to_ns) const {
  if (to_ns <= from_ns) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Span& span : spans_) {
    const int64_t begin = std::max(span.start_ns, from_ns);
    const int64_t end = std::min(span.end_ns, to_ns);
    if (end > begin) intervals.emplace_back(begin, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = from_ns;
  for (const auto& [begin, end] : intervals) {
    if (end <= reach) continue;
    covered += end - std::max(begin, reach);
    reach = end;
  }
  return static_cast<double>(covered) / static_cast<double>(to_ns - from_ns);
}

uclean::Status Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return uclean::Status::IOError("cannot write trace file " + path);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %lld}\n",
                 i, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 span.request == kNoRequest
                     ? -1LL
                     : static_cast<long long>(span.request));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? uclean::Status::OK()
            : uclean::Status::IOError("error writing trace file " + path);
}

uclean::Status WriteSpans(const Args& args, const Tracer& tracer,
                          RunResult* result) {
  const std::string path = args.workdir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + ".spans.jsonl";
  UCLEAN_RETURN_IF_ERROR(tracer.Write(path));
  result->Note("trace_file", JsonString(path));
  return uclean::Status::OK();
}

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      // Share of the traced pass's wall time spent in each layer's calls.
      {"serve.server_share", "share"},
      {"serve.protocol.parse_share", "share"},
      {"serve.protocol.format_share", "share"},
      {"serve.protocol.fingerprint_share", "share"},
      {"serve.frontend.self_share", "share"},
      {"rank.scan_share", "share"},
      {"quality.tp_share", "share"},
      {"clean.agent.draw_share", "share"},
      {"clean.agent.commit_share", "share"},
      {"clean.pool.refresh_share", "share"},
      {"clean.pool.refresh_all_share", "share"},
      {"clean.problem_share", "share"},
      {"clean.planner_share", "share"},
      {"clean.session.start_share", "share"},
      {"clean.agent.execute_share", "share"},
      {"clean.session.refresh_share", "share"},
      {"clean.session.take_share", "share"},
      // Work done, as counts that repeat exactly between runs.
      {"serve.frontend.rounds", "count"},
      {"rank.scans", "count"},
      {"rank.scan_depth", "tuples"},
      {"clean.probes", "count"},
      {"clean.rounds", "count"},
      // Ratios: batching, plan mix, wasted work, storage, tracing.
      {"serve.frontend.batch_size", "req/scan"},
      {"serve.cost_model.plan_seq", "share"},
      {"serve.cost_model.plan_shard", "share"},
      {"serve.cost_model.plan_ladder", "share"},
      {"serve.cost_model.plan_replay", "share"},
      {"serve.protocol.fingerprint_useful", "ratio"},
      {"clean.pipeline.overlap", "ratio"},
      {"store.bytes_per_tuple", "B/tuple"},
      {"trace.overhead", "ratio"},
      {"trace.coverage", "share"},
  };
  return specs;
}

uclean::Status LayerValues::Emit(RunResult* result) const {
  for (const auto& [name, value] : values_) {
    const bool known = std::any_of(
        LayerMetricSpecs().begin(), LayerMetricSpecs().end(),
        [&](const LayerMetricSpec& spec) { return name == spec.name; });
    if (!known) {
      return uclean::Status::Internal("per-layer metric " + name +
                                      " is not in LayerMetricSpecs()");
    }
  }
  for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
    const auto it = values_.find(spec.name);
    result->Add(spec.name, it == values_.end() ? 0.0 : it->second, spec.unit);
  }
  for (const Metric& detail : details_) {
    result->Detail(detail.name, detail.value, detail.unit);
  }
  return uclean::Status::OK();
}

}  // namespace perfbench
