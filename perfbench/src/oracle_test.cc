// Self-test of the answer oracle: a real front-end reply passes, and a
// reply whose top probability is 1.5 or whose fingerprint has one bit
// flipped is counted as a failed operation, as is an oracle scan that is
// not a valid top-k answer. Exits non-zero on any miss.

#include <cstdio>
#include <string>

#include "clean/session_pool.h"
#include "common.h"
#include "oracle.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "workload/synthetic.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

/// `line` with the value of its `key=` token replaced by `value`.
std::string ReplaceToken(const std::string& line, const std::string& key,
                         const std::string& value) {
  const size_t begin = line.find(" " + key + "=");
  if (begin == std::string::npos) return line;
  const size_t value_begin = begin + key.size() + 2;
  size_t end = line.find(' ', value_begin);
  if (end == std::string::npos) end = line.size();
  return line.substr(0, value_begin) + value + line.substr(end);
}

/// Counts `line` against `expected` and returns how many failed.
uint64_t Failed(const std::string& line, const perfbench::Expected& expected) {
  perfbench::Tally tally;
  perfbench::CheckReply(line, expected, 1, &tally);
  return tally.attempted == 1 ? tally.failed : 99;
}

}  // namespace

int main() {
  uclean::SyntheticOptions options;
  options.num_xtuples = 300;
  options.real_mass_min = perfbench::kMassLo;
  options.real_mass_max = perfbench::kMassHi;
  options.seed = 11;
  uclean::Result<uclean::ProbabilisticDatabase> db =
      uclean::GenerateSynthetic(options);
  Expect(db.ok(), "generate the database");
  if (!db.ok()) return 1;
  uclean::Result<uclean::KLadder> ladder = uclean::KLadder::Of({10});
  uclean::Result<uclean::SessionPool> pool =
      uclean::SessionPool::Create(uclean::ProbabilisticDatabase(*db), *ladder);
  Expect(pool.ok(), "create the pool");
  if (!pool.ok()) return 1;
  uclean::Result<uclean::serve::Frontend> frontend =
      uclean::serve::Frontend::Create(std::move(pool).value(), std::nullopt,
                                      uclean::serve::FrontendOptions());
  Expect(frontend.ok(), "create the front-end");
  if (!frontend.ok()) return 1;
  const uclean::serve::Frontend::ClientId client = frontend->Connect();

  for (const char* request_line : {"topk 10", "topk 25", "quality 25"}) {
    const uclean::Result<uclean::serve::Request> request =
        uclean::serve::ParseRequest(request_line);
    const std::string line = uclean::serve::FormatReply(
        frontend->Execute(client, *request));
    const perfbench::Expected expected =
        perfbench::ExpectQuery(*db, nullptr, request->verb, request->k);
    Expect(expected.violation.empty(),
           std::string("valid oracle scan for ") + request_line + ": " +
               expected.violation);
    Expect(Failed(line, expected) == 0,
           std::string("the real reply to '") + request_line + "' passes: " +
               line);
    if (request->verb != uclean::serve::Verb::kTopk) continue;

    const std::string top(perfbench::TokenValue(line, "top"));
    const std::string inflated =
        ReplaceToken(line, "top", top.substr(0, top.rfind(':') + 1) + "1.5");
    Expect(inflated != line && Failed(inflated, expected) == 1,
           "a top probability of 1.5 is counted: " + inflated);

    std::string fp(perfbench::TokenValue(line, "fp"));
    const std::string hex = "0123456789abcdef";
    fp.back() = hex[hex.find(fp.back()) ^ 1];
    const std::string flipped = ReplaceToken(line, "fp", fp);
    Expect(flipped != line && Failed(flipped, expected) == 1,
           "a flipped fingerprint bit is counted: " + flipped);
  }

  perfbench::Expected invalid;
  invalid.violation = "oracle scan has sum p=10.5 at k=10";
  Expect(Failed("ok verb=topk k=10", invalid) == 1,
         "an invalid oracle scan is counted");
  Expect(Failed("error code=Internal msg=\"x\"",
                perfbench::ExpectQuery(*db, nullptr,
                                       uclean::serve::Verb::kTopk, 10)) == 1,
         "an error reply is counted");

  if (failures == 0) std::printf("perfbench_oracle_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
