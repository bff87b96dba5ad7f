// The answer oracle: every reply the benchmark receives is checked
// against a serial recomputation through the library's one-shot APIs,
// and every recomputation is itself checked for validity.
//
//  * A query reply (`topk K` / `quality K`) must equal, after its plan
//    tokens are stripped, the reply built from ComputePsrLadder with
//    ScanRequest::ForK(K) over the same view, ComputeTpQuality and
//    HashDoubles: fp, top, nonzero, scan_end and quality bitwise.
//  * The oracle scan must be a valid top-k answer: every p in [0, 1]
//    (up to kProbSlack of rounding), |sum p - k| <= 1e-6 k, and a
//    finite quality <= 0.
//  * The reply itself must be an ok line with its top probability in
//    [0, 1] (same slack) and a finite quality <= 0.
//
// A mismatch or a violation counts every affected reply as failed.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"
#include "serve/protocol.h"

namespace perfbench {

/// The value of the first `key=` token of a reply line ("" when absent).
std::string_view TokenValue(std::string_view line, std::string_view key);

/// Rounding may carry a probability past 1: on cleaned views a certain
/// tuple reads up to 1 + 2e-9 at k = 500. The slack is the relative
/// tolerance the sum check uses; the unit-mass drift this check exists to
/// catch is orders larger (sum p = 293.5 at k = 100).
inline constexpr double kProbSlack = 1e-6;

/// Why a scan's rung at `k` with TP quality `quality` is not a valid
/// top-k answer ("" when it is): every p in [0, 1 + kProbSlack],
/// |sum p - k| <= 1e-6 k and a finite quality <= 0.
std::string AnswerViolation(const uclean::PsrOutput& psr, size_t k,
                            double quality);

/// The oracle's answer to one query.
struct Expected {
  std::string line;       ///< expected reply, plan tokens stripped
  std::string violation;  ///< non-empty when the oracle scan is invalid
};

/// Serially recomputes `verb k` over `base`, or over the session view
/// `overlay` when it is non-null, and validity-checks the scan.
Expected ExpectQuery(const uclean::ProbabilisticDatabase& base,
                     const uclean::DatabaseOverlay* overlay,
                     uclean::serve::Verb verb, size_t k);

/// Checks `count` identical replies `line` against `expected` and counts
/// them as attempted, and as failed on any mismatch or violation.
void CheckReply(std::string_view line, const Expected& expected,
                uint64_t count, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
