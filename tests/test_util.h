// Shared helpers for randomized/property tests: small random databases with
// controlled shape (so brute-force oracles stay tractable), plus
// ScanRequest-based one-line scan wrappers so every test drives the
// request API of rank/psr.h -- over a database, or over a session's
// DatabaseOverlay view (ScanRequest::overlay).

#ifndef UCLEAN_TESTS_TEST_UTIL_H_
#define UCLEAN_TESTS_TEST_UTIL_H_

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
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

/// Empty when `out` is Lemma-2-sized for a database of `n` tuples --
/// topk_prob holds exactly [0, scan_end), and so does the rank matrix
/// when stored (scan_end * k entries) -- otherwise what is off.
inline std::string RungSizeError(const PsrOutput& out, size_t n) {
  std::string error;
  const auto expect = [&error](bool holds, const std::string& what) {
    if (!holds) error += what + "; ";
  };
  const auto str = [](size_t v) { return std::to_string(v); };
  expect(out.num_tuples == n, "num_tuples " + str(out.num_tuples));
  expect(out.scan_end <= n, "scan_end " + str(out.scan_end) + " > n");
  expect(out.topk_prob.size() == out.scan_end,
         "topk_prob.size() " + str(out.topk_prob.size()) + " != scan_end " +
             str(out.scan_end));
  const size_t matrix = out.has_rank_probabilities ? out.scan_end * out.k : 0;
  expect(out.rank_prob.size() == matrix, "rank_prob.size() " +
                                             str(out.rank_prob.size()) +
                                             " != " + str(matrix));
  return error;
}

/// Empty when `got` holds `want`'s bits in every field -- k, tuple
/// count, top-k vector, nonzero count, stop, argmaxes, rank matrix --
/// otherwise the fields that differ.
inline std::string RungBitsDiffer(const PsrOutput& got, const PsrOutput& want) {
  const auto same_bits = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  std::string error;
  if (got.k != want.k) error += "k; ";
  if (got.num_tuples != want.num_tuples) error += "num_tuples; ";
  if (!same_bits(got.topk_prob, want.topk_prob)) error += "topk_prob; ";
  if (got.num_nonzero != want.num_nonzero) error += "num_nonzero; ";
  if (got.scan_end != want.scan_end) {
    error += "scan_end " + std::to_string(got.scan_end) + " vs " +
             std::to_string(want.scan_end) + "; ";
  }
  if (!same_bits(got.best_rank_prob, want.best_rank_prob)) {
    error += "best_rank_prob; ";
  }
  if (got.best_rank_index != want.best_rank_index) error += "best_rank_index; ";
  if (!same_bits(got.rank_prob, want.rank_prob)) error += "rank_prob; ";
  if (got.has_rank_probabilities != want.has_rank_probabilities) {
    error += "has_rank_probabilities; ";
  }
  return error;
}

/// Empty when `tp` is sized like its PSR rung `psr`: omega holds exactly
/// [0, scan_end) of the same scan over the same database.
inline std::string TpSizeError(const TpOutput& tp, const PsrOutput& psr) {
  std::string error;
  if (tp.num_tuples != psr.num_tuples) error += "num_tuples differ; ";
  if (tp.scan_end != psr.scan_end) error += "scan_end differs; ";
  if (tp.omega.size() != tp.scan_end) {
    error += "omega.size() " + std::to_string(tp.omega.size()) +
             " != scan_end " + std::to_string(tp.scan_end) + "; ";
  }
  return error;
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
