#include "oracle.h"

#include <cmath>
#include <cstdlib>

#include "quality/tp.h"
#include "rank/psr.h"

namespace perfbench {
namespace {

bool IsPlanToken(std::string_view token) {
  for (std::string_view prefix :
       {"plan=", "exec=", "forced=", "batch=", "threads="}) {
    if (token.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

/// Parses a whole token as a double; false on anything else.
bool ParseNumber(std::string_view text, double* value) {
  const std::string copy(text);
  if (copy.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

/// Drops the PlanRecord tokens (plan= exec= forced= batch= threads=):
/// the plan may legitimately differ between executions, the answer not.
std::string StripPlanTokens(std::string_view line) {
  std::string out;
  size_t begin = 0;
  while (begin < line.size()) {
    size_t end = line.find(' ', begin);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(begin, end - begin);
    if (!token.empty() && !IsPlanToken(token)) {
      if (!out.empty()) out += ' ';
      out += token;
    }
    begin = end + 1;
  }
  return out;
}

/// Why `line` is not a well-formed, valid reply ("" when it is).
std::string ReplyViolation(std::string_view line) {
  if (line.substr(0, 3) != "ok ") {
    return "error reply: " + std::string(line);
  }
  const std::string_view top = TokenValue(line, "top");
  if (!top.empty()) {
    const size_t colon = top.rfind(':');
    double prob = 0.0;
    if (colon == std::string_view::npos ||
        !ParseNumber(top.substr(colon + 1), &prob)) {
      return "unparsable top= in: " + std::string(line);
    }
    if (!(prob >= 0.0 && prob <= 1.0 + kProbSlack)) {
      return "top probability outside [0, 1] in: " + std::string(line);
    }
  }
  const std::string_view quality = TokenValue(line, "quality");
  if (!quality.empty()) {
    double value = 0.0;
    if (!ParseNumber(quality, &value) || !std::isfinite(value) ||
        value > 0.0) {
      return "quality is not a finite value <= 0 in: " + std::string(line);
    }
  }
  return {};
}

}  // namespace

std::string AnswerViolation(const uclean::PsrOutput& psr, size_t k,
                            double quality) {
  double sum = 0.0;
  for (double p : psr.topk_prob) {
    if (!(p >= 0.0 && p <= 1.0 + kProbSlack)) {
      return "p=" + JsonNumber(p) + " outside [0, 1] at k=" + std::to_string(k);
    }
    sum += p;
  }
  const double kd = static_cast<double>(k);
  if (std::abs(sum - kd) > 1e-6 * kd) {
    return "sum p=" + JsonNumber(sum) + " at k=" + std::to_string(k);
  }
  if (!(std::isfinite(quality) && quality <= 0.0)) {
    return "quality " + JsonNumber(quality) + " at k=" + std::to_string(k) +
           " is not a finite value <= 0";
  }
  return {};
}

std::string_view TokenValue(std::string_view line, std::string_view key) {
  size_t begin = 0;
  while (begin < line.size()) {
    size_t end = line.find(' ', begin);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(begin, end - begin);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    begin = end + 1;
  }
  return {};
}

Expected ExpectQuery(const uclean::ProbabilisticDatabase& base,
                     const uclean::DatabaseOverlay* overlay,
                     uclean::serve::Verb verb, size_t k) {
  Expected expected;
  uclean::Result<uclean::ScanRequest> request = uclean::ScanRequest::ForK(k);
  if (!request.ok()) {
    expected.violation = request.status().ToString();
    return expected;
  }
  request->overlay = overlay;
  uclean::Result<uclean::ScanResult> scan =
      uclean::ComputePsrLadder(base, *request);
  if (!scan.ok()) {
    expected.violation = scan.status().ToString();
    return expected;
  }
  const uclean::PsrOutput& psr = scan->output();
  uclean::Result<uclean::TpOutput> tp =
      overlay != nullptr ? uclean::ComputeTpQuality(*overlay, psr)
                         : uclean::ComputeTpQuality(base, psr);
  if (!tp.ok()) {
    expected.violation = tp.status().ToString();
    return expected;
  }

  expected.violation = AnswerViolation(psr, k, tp->quality);

  uclean::serve::Reply reply;
  reply.verb = verb;
  reply.k = k;
  if (verb == uclean::serve::Verb::kTopk) {
    reply.num_nonzero = psr.num_nonzero;
    reply.scan_end = psr.scan_end;
    reply.fingerprint = uclean::serve::HashDoubles(psr.topk_prob);
    for (size_t i = 0; i < psr.topk_prob.size(); ++i) {
      if (psr.topk_prob[i] > reply.top_prob) {
        reply.top_prob = psr.topk_prob[i];
        reply.top_index = static_cast<int32_t>(i);
      }
    }
    if (reply.top_index >= 0) {
      reply.top_id = base.tuple(static_cast<size_t>(reply.top_index)).id;
    }
  } else {
    reply.quality = tp->quality;
  }
  expected.line = StripPlanTokens(uclean::serve::FormatReply(reply));
  return expected;
}

void CheckReply(std::string_view line, const Expected& expected,
                uint64_t count, Tally* tally) {
  tally->Attempt(count);
  if (!expected.violation.empty()) {
    tally->Fail(expected.violation, count);
    return;
  }
  const std::string violation = ReplyViolation(line);
  if (!violation.empty()) {
    tally->Fail(violation, count);
    return;
  }
  const std::string stripped = StripPlanTokens(line);
  if (stripped != expected.line) {
    tally->Fail("reply '" + stripped + "' != oracle '" + expected.line + "'",
                count);
  }
}

}  // namespace perfbench
