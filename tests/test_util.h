// Shared helpers for randomized/property tests: small random databases with
// controlled shape (so brute-force oracles stay tractable), plus
// ScanRequest-based one-line scan wrappers so every test drives the
// request API of rank/psr.h -- over a database, or over a session's
// DatabaseOverlay view (ScanRequest::overlay).

#ifndef UCLEAN_TESTS_TEST_UTIL_H_
#define UCLEAN_TESTS_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"

namespace uclean {

/// Ladder scan through the request API, unwrapped to the per-rung vector.
inline Result<std::vector<PsrOutput>> ScanPsrLadder(
    const ProbabilisticDatabase& db, const KLadder& ladder,
    const PsrOptions& options = {}, const ExecOptions& exec = {}) {
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options;
  request.exec = exec;
  Result<ScanResult> scan = ComputePsrLadder(db, request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs);
}

/// From-scratch ladder scan of a session's view: the base scanned with
/// the overlay applied.
inline Result<std::vector<PsrOutput>> ScanPsrLadder(
    const DatabaseOverlay& view, const KLadder& ladder,
    const PsrOptions& options = {}, const ExecOptions& exec = {}) {
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options;
  request.exec = exec;
  request.overlay = &view;
  Result<ScanResult> scan = ComputePsrLadder(view.base(), request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs);
}

/// Single-k scan through the request API (the shape most tests want),
/// over a database or a session's view.
template <typename Db>
Result<PsrOutput> ScanPsr(const Db& db, size_t k,
                          const PsrOptions& options = {}) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  KLadder ladder;
  ladder.ks = {k};
  Result<std::vector<PsrOutput>> scan = ScanPsrLadder(db, ladder, options);
  if (!scan.ok()) return scan.status();
  return std::move((*scan)[0]);
}

struct RandomDbOptions {
  size_t num_xtuples = 4;
  size_t max_alternatives = 3;   // per x-tuple, uniform in [1, max]
  bool allow_subunit_mass = true;  // if true, ~half the x-tuples get mass < 1
  double score_min = 0.0;
  double score_max = 100.0;
};

/// Builds a random database; deterministic given the rng state.
inline ProbabilisticDatabase MakeRandomDatabase(Rng* rng,
                                                const RandomDbOptions& opts) {
  DatabaseBuilder builder;
  TupleId next_id = 0;
  for (size_t l = 0; l < opts.num_xtuples; ++l) {
    XTupleId x = builder.AddXTuple();
    const size_t alts = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(opts.max_alternatives)));
    // Random positive weights normalized to the target mass.
    std::vector<double> weights(alts);
    double total = 0.0;
    for (double& w : weights) {
      w = rng->Uniform(0.05, 1.0);
      total += w;
    }
    const double mass = (opts.allow_subunit_mass && rng->Bernoulli(0.5))
                            ? rng->Uniform(0.3, 0.95)
                            : 1.0;
    for (size_t a = 0; a < alts; ++a) {
      const double score = rng->Uniform(opts.score_min, opts.score_max);
      Status s = builder.AddAlternative(x, next_id++, score,
                                        mass * weights[a] / total);
      UCLEAN_CHECK(s.ok());
    }
  }
  Result<ProbabilisticDatabase> db = std::move(builder).Finish();
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

}  // namespace uclean

#endif  // UCLEAN_TESTS_TEST_UTIL_H_
