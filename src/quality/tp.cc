#include "quality/tp.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/entropy_math.h"

namespace uclean {

namespace {

/// omega_i (Eq. 6) for a tuple with existential probability `e` whose
/// x-tuple has at-or-above mass `e_at_or_above` at the tuple's rank.
inline double Omega(double e, double e_at_or_above) {
  return Log2Safe(e) +
         (YLog2(1.0 - e_at_or_above) - YLog2(1.0 - e_at_or_above + e)) / e;
}

/// Re-derives quality and the per-x-tuple aggregates from the per-tuple
/// state (omega + PSR top-k probabilities), accumulating in scan order so
/// every caller produces bitwise-identical sums. `Db` is
/// ProbabilisticDatabase or a per-session DatabaseOverlay view of one;
/// both run the same arithmetic (see database_overlay.h).
template <typename Db>
void AccumulateAggregates(const Db& db, const PsrOutput& psr, TpOutput* out) {
  std::fill(out->xtuple_gain.begin(), out->xtuple_gain.end(), 0.0);
  std::fill(out->xtuple_topk_mass.begin(), out->xtuple_topk_mass.end(), 0.0);
  double quality = 0.0;
  for (size_t i = 0; i < psr.scan_end; ++i) {
    if (db.is_tombstone(i)) continue;
    const Tuple& t = db.tuple(i);
    const double p = psr.topk_prob[i];
    out->xtuple_topk_mass[t.xtuple] += p;
    if (p <= 0.0) continue;  // omega * 0 contributes nothing (Lemma 5 logic)
    const double term = out->omega[i] * p;
    out->xtuple_gain[t.xtuple] += term;
    quality += term;
  }
  out->quality = quality;
}

/// Shared implementation behind both Compute forms: omega is k-independent
/// (Eq. 6 never mentions k), so the E/omega recurrence runs once over the
/// deepest rung's scan range and every rung reuses the values. The
/// per-rung masking/accumulation fans over `exec` (disjoint outputs, so
/// parallel results are bitwise equal).
template <typename Db>
Result<std::vector<TpOutput>> ComputeImpl(const Db& db,
                                          const PsrOutput* const* psrs,
                                          size_t rungs,
                                          const ExecOptions& exec) {
  const size_t n = db.num_tuples();
  size_t max_end = 0;
  for (size_t j = 0; j < rungs; ++j) {
    if (psrs[j]->num_tuples != n) {
      return Status::InvalidArgument(
          "PSR output does not match the database (tuple count mismatch)");
    }
    max_end = std::max(max_end, psrs[j]->scan_end);
  }

  // One pass of the E recurrence (Eq. 9): shared_omega[i] is omega_i for
  // every rung; rungs differ only in which entries pair with a nonzero p.
  std::vector<double> shared_omega(max_end, 0.0);
  std::vector<double> e_run(db.num_xtuples(), 0.0);
  for (size_t i = 0; i < max_end; ++i) {
    if (db.is_tombstone(i)) continue;
    const Tuple& t = db.tuple(i);
    const double e_at_or_above = e_run[t.xtuple] + t.prob;  // E_{i,x_i}
    e_run[t.xtuple] = e_at_or_above;
    shared_omega[i] = Omega(t.prob, e_at_or_above);
  }

  std::vector<TpOutput> outs(rungs);
  ExecParallelFor(exec, rungs, [&](size_t j) {
    const PsrOutput& psr = *psrs[j];
    TpOutput& out = outs[j];
    out.num_tuples = n;
    out.omega.assign(psr.scan_end, 0.0);
    out.scan_end = psr.scan_end;
    out.xtuple_gain.assign(db.num_xtuples(), 0.0);
    out.xtuple_topk_mass.assign(db.num_xtuples(), 0.0);
    for (size_t i = 0; i < psr.scan_end; ++i) {
      if (db.is_tombstone(i) || psr.topk_prob[i] <= 0.0) continue;
      out.omega[i] = shared_omega[i];
    }
    AccumulateAggregates(db, psr, &out);
  });
  return outs;
}

}  // namespace

Result<TpOutput> ComputeTpQuality(const ProbabilisticDatabase& db,
                                  const PsrOutput& psr) {
  const PsrOutput* ptr = &psr;
  Result<std::vector<TpOutput>> outs = ComputeImpl(db, &ptr, 1, {});
  if (!outs.ok()) return outs.status();
  return std::move((*outs)[0]);
}

Result<TpOutput> ComputeTpQuality(const DatabaseOverlay& db,
                                  const PsrOutput& psr) {
  const PsrOutput* ptr = &psr;
  Result<std::vector<TpOutput>> outs = ComputeImpl(db, &ptr, 1, {});
  if (!outs.ok()) return outs.status();
  return std::move((*outs)[0]);
}

Result<TpOutput> ComputeTpQuality(const ProbabilisticDatabase& db, size_t k) {
  Result<ScanRequest> request = ScanRequest::ForK(k);
  if (!request.ok()) return request.status();
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  if (!scan.ok()) return scan.status();
  return ComputeTpQuality(db, scan->output());
}

namespace {

/// Shared ladder plumbing behind the database and overlay overloads.
template <typename Db>
Result<std::vector<TpOutput>> ComputeLadderImpl(
    const Db& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec) {
  if (psrs.empty()) {
    return Status::InvalidArgument("quality ladder must not be empty");
  }
  std::vector<const PsrOutput*> ptrs;
  ptrs.reserve(psrs.size());
  for (const PsrOutput& psr : psrs) ptrs.push_back(&psr);
  return ComputeImpl(db, ptrs.data(), ptrs.size(), exec);
}

}  // namespace

Result<std::vector<TpOutput>> ComputeTpQualityLadder(
    const ProbabilisticDatabase& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec) {
  return ComputeLadderImpl(db, psrs, exec);
}

Result<std::vector<TpOutput>> ComputeTpQualityLadder(
    const DatabaseOverlay& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec) {
  return ComputeLadderImpl(db, psrs, exec);
}

Status UpdateTpQualityLadder(const DatabaseOverlay& db,
                             const std::vector<PsrOutput>& psrs,
                             size_t replay_begin, std::vector<TpOutput>* tps,
                             const ExecOptions& exec) {
  if (psrs.size() != tps->size() || psrs.empty()) {
    return Status::InvalidArgument(
        "PSR and TP ladders must be non-empty and the same length");
  }
  const size_t n = db.num_tuples();
  size_t max_end = replay_begin;
  for (size_t j = 0; j < psrs.size(); ++j) {
    const PsrOutput& psr = psrs[j];
    const TpOutput& tp = (*tps)[j];
    if (psr.num_tuples != n || tp.num_tuples != n) {
      return Status::InvalidArgument(
          "TP/PSR state does not match the database (tuple count mismatch)");
    }
    if (tp.xtuple_gain.size() != db.num_xtuples()) {
      return Status::InvalidArgument(
          "TP state does not match the database (x-tuple count mismatch)");
    }
    max_end = std::max(max_end, psr.scan_end);
  }

  // Recompute the shared omega suffix. E_run for an x-tuple first seen
  // inside the suffix is seeded from its members ranked above the
  // boundary: those are untouched by any clean with first_changed_rank >=
  // replay_begin, and xtuple_members() lists them best rank first, so the
  // seed accumulates the exact additions the full pass performed.
  std::vector<double> shared_omega(max_end, 0.0);
  std::vector<double> e_run(db.num_xtuples(), 0.0);
  std::vector<uint8_t> seeded(db.num_xtuples(), 0);
  for (size_t i = replay_begin; i < max_end; ++i) {
    if (db.is_tombstone(i)) continue;
    const Tuple& t = db.tuple(i);
    if (!seeded[t.xtuple]) {
      seeded[t.xtuple] = 1;
      double above = 0.0;
      for (int32_t idx : db.xtuple_members(t.xtuple)) {
        if (static_cast<size_t>(idx) >= replay_begin) break;
        above += db.tuple(idx).prob;
      }
      e_run[t.xtuple] = above;
    }
    const double e_at_or_above = e_run[t.xtuple] + t.prob;
    e_run[t.xtuple] = e_at_or_above;
    shared_omega[i] = Omega(t.prob, e_at_or_above);
  }

  // Re-mask and re-accumulate per rung, fanned over `exec` (disjoint
  // outputs, bitwise equal).
  ExecParallelFor(exec, psrs.size(), [&](size_t j) {
    const PsrOutput& psr = psrs[j];
    TpOutput* tp = &(*tps)[j];
    // omega holds [0, scan_end) and a replay only rewrites [replay_begin,
    // psr.scan_end). A rung whose scans never reach the boundary is
    // untouched (the clean cannot affect it); any other is sized to its
    // new scan_end, which may move either way.
    if (std::max(tp->scan_end, psr.scan_end) <= replay_begin) return;
    tp->omega.resize(psr.scan_end);
    for (size_t i = replay_begin; i < psr.scan_end; ++i) {
      const bool paired = !db.is_tombstone(i) && psr.topk_prob[i] > 0.0;
      tp->omega[i] = paired ? shared_omega[i] : 0.0;
    }
    tp->scan_end = psr.scan_end;
    AccumulateAggregates(db, psr, tp);
  });
  return Status::OK();
}

}  // namespace uclean
