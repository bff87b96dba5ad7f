#include "serve/protocol.h"

#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace uclean {
namespace serve {
namespace {

/// Largest accepted k: far above any useful rung, small enough that a
/// hostile "topk 999999999999" cannot allocate per-rank arrays at will.
constexpr int64_t kMaxK = 10'000'000;

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Splits on runs of spaces/tabs (no empty tokens).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

Result<size_t> ParseK(Verb verb, std::string_view token) {
  Result<int64_t> k = ParseInt(token);
  if (!k.ok() || *k < 1 || *k > kMaxK) {
    return Status::InvalidArgument(std::string(VerbName(verb)) + ": bad k '" +
                                   std::string(token) + "' (want 1.." +
                                   std::to_string(kMaxK) + ")");
  }
  return static_cast<size_t>(*k);
}

}  // namespace

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSequential:
      return "seq";
    case PlanKind::kSharded:
      return "shard";
    case PlanKind::kLadderShared:
      return "ladder";
    case PlanKind::kReplay:
      return "replay";
  }
  UCLEAN_CHECK(false);
  return "";
}

Result<PlanKind> ParsePlanKind(std::string_view name) {
  if (name == "seq") return PlanKind::kSequential;
  if (name == "shard") return PlanKind::kSharded;
  if (name == "ladder") return PlanKind::kLadderShared;
  if (name == "replay") return PlanKind::kReplay;
  return Status::InvalidArgument("unknown plan '" + std::string(name) +
                                 "' (want seq|shard|ladder|replay)");
}

std::string PlanRecord::ToString() const {
  return std::string("exec=") + PlanKindName(executed) +
         " batch=" + std::to_string(batch_size) +
         " threads=" + std::to_string(threads);
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kTopk:
      return "topk";
    case Verb::kQuality:
      return "quality";
    case Verb::kClean:
      return "clean";
    case Verb::kStats:
      return "stats";
  }
  UCLEAN_CHECK(false);
  return "";
}

Result<Request> ParseRequest(std::string_view line) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  Request request;
  const std::string_view verb = tokens[0];
  if (verb == "topk" || verb == "quality") {
    request.verb = verb == "topk" ? Verb::kTopk : Verb::kQuality;
    if (tokens.size() != 2) {
      return Status::InvalidArgument(std::string(verb) +
                                     ": want exactly one k");
    }
    Result<size_t> k = ParseK(request.verb, tokens[1]);
    if (!k.ok()) return k.status();
    request.k = *k;
    return request;
  }
  if (verb == "clean") {
    request.verb = Verb::kClean;
    if (tokens.size() != 2) {
      return Status::InvalidArgument("clean: want exactly one x-tuple id");
    }
    Result<int64_t> xtuple = ParseInt(tokens[1]);
    if (!xtuple.ok() || *xtuple < 0 ||
        *xtuple > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument("clean: bad x-tuple id '" +
                                     std::string(tokens[1]) + "'");
    }
    request.xtuple = static_cast<XTupleId>(*xtuple);
    return request;
  }
  if (verb == "stats") {
    request.verb = Verb::kStats;
    if (tokens.size() != 1) {
      return Status::InvalidArgument("stats: takes no arguments");
    }
    return request;
  }
  return Status::InvalidArgument("unknown verb '" + std::string(verb) +
                                 "' (want topk|quality|clean|stats)");
}

std::string FormatReply(const Reply& reply) {
  if (!reply.status.ok()) {
    std::string msg = reply.status.message();
    for (char& c : msg) {
      if (c == '\n' || c == '\r' || c == '"') c = ' ';
    }
    return std::string("error code=") + StatusCodeName(reply.status.code()) +
           " msg=\"" + msg + "\"";
  }
  std::string out = "ok verb=";
  out += VerbName(reply.verb);
  switch (reply.verb) {
    case Verb::kTopk: {
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(reply.fingerprint));
      out += " k=" + std::to_string(reply.k);
      out += ' ' + reply.plan.ToString();
      out += " nonzero=" + std::to_string(reply.num_nonzero);
      out += " scan_end=" + std::to_string(reply.scan_end);
      out += std::string(" fp=") + fp;
      out += " top=t" + std::to_string(reply.top_id) + "@" +
             std::to_string(reply.top_index) + ":" +
             FormatDouble(reply.top_prob);
      break;
    }
    case Verb::kQuality:
      out += " k=" + std::to_string(reply.k);
      out += ' ' + reply.plan.ToString();
      out += " quality=" + FormatDouble(reply.quality);
      break;
    case Verb::kClean: {
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(reply.rng_fingerprint));
      out += " xtuple=" + std::to_string(reply.xtuple);
      out += " success=" + std::to_string(reply.success ? 1 : 0);
      out += " resolved=t" + std::to_string(reply.resolved_id);
      out += " spent=" + std::to_string(reply.spent);
      out += " quality=" + FormatDouble(reply.quality);
      out += std::string(" rngfp=") + fp;
      break;
    }
    case Verb::kStats:
      out += " tuples=" + std::to_string(reply.num_tuples);
      out += " open=" + std::to_string(reply.open_sessions);
      out += " ladder=" + reply.ladder;
      break;
  }
  return out;
}

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = kFnvOffsetBasis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashDoubles(const std::vector<double>& values) {
  return Fnv1a64(values.data(), values.size() * sizeof(double));
}

}  // namespace serve
}  // namespace uclean
