// Newline-delimited request protocol of the serving front-end.
//
// One request per line, space-separated tokens, replies one line per
// request in admission order on the client's connection:
//
//   topk <k>
//   quality <k>
//   clean <xtuple>
//   stats
//
// Successful replies start with "ok", errors with "error":
//
//   ok verb=topk k=25 exec=ladder batch=4 threads=2
//      nonzero=37 scan_end=412 fp=9a1b... top=t17@3:0.9931...
//   ok verb=quality k=25 ... quality=-12.345678901234567
//   ok verb=clean xtuple=12 success=1 resolved=t123 spent=3
//      quality=-11.5... rngfp=5c77...
//   ok verb=stats tuples=4000 open=3 ladder={20, 100}
//   error code=InvalidArgument msg="topk: bad k 'abc'"
//
// Every floating-point field is rendered with round-trip precision
// (common/strings.h FormatDouble) and fp=/rngfp= are FNV-1a 64 hashes of
// the raw result bytes, so two reply lines agree exactly iff the
// underlying results are bitwise equal -- the property the traffic-replay
// bench and the request-mix tests gate on. fp= hashes the rung's stored
// top-k vector: its 8 * scan_end bytes, every p_i before the Lemma-2
// stop. Malformed input never kills a
// connection: parsing yields a structured kInvalidArgument reply and the
// loop keeps serving (tests/serve_protocol_test.cc).
//
// Threading: pure value types and pure functions; safe from any thread.

#ifndef UCLEAN_SERVE_PROTOCOL_H_
#define UCLEAN_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "model/tuple.h"

namespace uclean {
namespace serve {

/// How a top-k / quality request ran. Every execution returns the same
/// bits (a merged scan's rungs are bitwise the solo scans), so this is a
/// record of latency choices, never of answers.
enum class PlanKind : uint8_t {
  kSequential = 0,    ///< the request's own scan on one thread
  kSharded = 1,       ///< the request's own scan, cut into shards
  kLadderShared = 2,  ///< one scan shared with other requests of the round
  kReplay = 3,        ///< no scan: the client's maintained pool rung
};

/// Short wire name: "seq", "shard", "ladder", "replay".
const char* PlanKindName(PlanKind kind);

/// Parses a PlanKindName spelling; InvalidArgument on anything else.
Result<PlanKind> ParsePlanKind(std::string_view name);

/// What ran for one reply, carried on its wire line.
struct PlanRecord {
  PlanKind executed = PlanKind::kSequential;
  size_t batch_size = 1;  ///< requests sharing the executed scan
  size_t threads = 1;     ///< threads the scan ran on

  /// "exec=ladder batch=4 threads=2".
  std::string ToString() const;
};

/// The request shapes the front-end serves.
enum class Verb : uint8_t {
  kTopk = 0,
  kQuality = 1,
  kClean = 2,
  kStats = 3,
};

/// "topk", "quality", "clean", "stats".
const char* VerbName(Verb verb);

/// One parsed request line.
struct Request {
  Verb verb = Verb::kTopk;
  size_t k = 0;            ///< topk / quality
  XTupleId xtuple = 0;     ///< clean
};

/// Parses one protocol line (without the trailing newline). Fails with
/// InvalidArgument on unknown verbs, bad argument counts and unparsable
/// or out-of-range numbers; the caller turns that into an error reply.
Result<Request> ParseRequest(std::string_view line);

/// One reply line's worth of result. `status` not-OK makes this an error
/// reply and every other field is ignored.
struct Reply {
  Status status;
  Verb verb = Verb::kTopk;
  size_t k = 0;
  PlanRecord plan;

  // topk
  size_t num_nonzero = 0;
  size_t scan_end = 0;
  uint64_t fingerprint = 0;  ///< HashDoubles over the rung's topk_prob,
                             ///< its scan_end entries
  TupleId top_id = -1;       ///< argmax top-k probability (first wins)
  int32_t top_index = -1;
  double top_prob = 0.0;

  // quality
  double quality = 0.0;

  // clean
  XTupleId xtuple = 0;
  bool success = false;
  TupleId resolved_id = -1;
  int64_t spent = 0;
  uint64_t rng_fingerprint = 0;  ///< hash of the session Rng state after

  // stats
  size_t num_tuples = 0;
  size_t open_sessions = 0;
  std::string ladder;
};

/// Renders the one-line wire form (no trailing newline).
std::string FormatReply(const Reply& reply);

/// FNV-1a 64-bit over raw bytes.
uint64_t Fnv1a64(const void* data, size_t size);

/// Fingerprint of a double vector's raw IEEE-754 bytes: equal hashes are
/// (modulo collisions) bitwise-equal results. The value is
/// Fnv1a64(values.data(), 8 * values.size()). A top-k rung holds only
/// its live prefix [0, scan_end) (Lemma 2), so hashing one costs
/// O(scan_end) byte steps, not O(n).
uint64_t HashDoubles(const std::vector<double>& values);

}  // namespace serve
}  // namespace uclean

#endif  // UCLEAN_SERVE_PROTOCOL_H_
