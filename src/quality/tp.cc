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

/// The one TP pass behind the full and delta forms. omega is
/// k-independent (Eq. 6 never mentions k), so the E/omega recurrence runs
/// once over [begin, deepest scan end) and every rung reuses the values.
/// E for an x-tuple first met at or past `begin` is seeded from its
/// members ranked above the boundary: a clean with first_changed_rank >=
/// begin leaves those untouched, and xtuple_members() lists them best
/// rank first, so the seed accumulates the exact additions a pass from
/// rank 0 performs (which seeds nothing). Each rung whose scans reach
/// `begin` is then re-masked over [begin, scan_end) and re-accumulated,
/// fanned over `exec` (disjoint outputs, so parallel results are bitwise
/// equal).
template <typename Db>
void RunTpPass(const Db& db, const std::vector<const PsrOutput*>& psrs,
               size_t begin, TpOutput* tps, const ExecOptions& exec) {
  size_t max_end = begin;
  for (const PsrOutput* psr : psrs) max_end = std::max(max_end, psr->scan_end);
  std::vector<double> shared_omega(max_end, 0.0);
  std::vector<double> e_run(db.num_xtuples(), 0.0);
  std::vector<uint8_t> seeded(begin > 0 ? db.num_xtuples() : 0, 0);
  for (size_t i = begin; i < max_end; ++i) {
    if (db.is_tombstone(i)) continue;
    const Tuple& t = db.tuple(i);
    if (begin > 0 && !seeded[t.xtuple]) {
      seeded[t.xtuple] = 1;
      double above = 0.0;
      for (int32_t idx : db.xtuple_members(t.xtuple)) {
        if (static_cast<size_t>(idx) >= begin) break;
        above += db.tuple(idx).prob;
      }
      e_run[t.xtuple] = above;
    }
    const double e_at_or_above = e_run[t.xtuple] + t.prob;  // E_{i,x_i}
    e_run[t.xtuple] = e_at_or_above;
    shared_omega[i] = Omega(t.prob, e_at_or_above);
  }

  ExecParallelFor(exec, psrs.size(), [&](size_t j) {
    const PsrOutput& psr = *psrs[j];
    TpOutput* tp = &tps[j];
    // omega holds [0, scan_end). A rung whose scans never reach the
    // boundary is untouched (a clean cannot affect it); any other is
    // sized to its new scan_end, which may move either way.
    if (std::max(tp->scan_end, psr.scan_end) <= begin) return;
    tp->omega.resize(psr.scan_end);
    for (size_t i = begin; i < psr.scan_end; ++i) {
      const bool paired = !db.is_tombstone(i) && psr.topk_prob[i] > 0.0;
      tp->omega[i] = paired ? shared_omega[i] : 0.0;
    }
    tp->scan_end = psr.scan_end;
    AccumulateAggregates(db, psr, tp);
  });
}

/// The full pass: fresh outputs sized for `db`, then RunTpPass from rank
/// 0.
template <typename Db>
Result<std::vector<TpOutput>> ComputeImpl(
    const Db& db, const std::vector<const PsrOutput*>& psrs,
    const ExecOptions& exec) {
  std::vector<TpOutput> outs(psrs.size());
  for (size_t j = 0; j < psrs.size(); ++j) {
    if (psrs[j]->num_tuples != db.num_tuples()) {
      return Status::InvalidArgument(
          "PSR output does not match the database (tuple count mismatch)");
    }
    outs[j].num_tuples = db.num_tuples();
    outs[j].xtuple_gain.assign(db.num_xtuples(), 0.0);
    outs[j].xtuple_topk_mass.assign(db.num_xtuples(), 0.0);
  }
  RunTpPass(db, psrs, /*begin=*/0, outs.data(), exec);
  return outs;
}

/// Pointers to a ladder's rungs, the form RunTpPass reads.
std::vector<const PsrOutput*> RungPointers(const std::vector<PsrOutput>& psrs) {
  std::vector<const PsrOutput*> ptrs;
  ptrs.reserve(psrs.size());
  for (const PsrOutput& psr : psrs) ptrs.push_back(&psr);
  return ptrs;
}

/// Shared ladder plumbing behind the database and overlay overloads.
template <typename Db>
Result<std::vector<TpOutput>> ComputeLadderImpl(
    const Db& db, const std::vector<PsrOutput>& psrs,
    const ExecOptions& exec) {
  if (psrs.empty()) {
    return Status::InvalidArgument("quality ladder must not be empty");
  }
  return ComputeImpl(db, RungPointers(psrs), exec);
}

}  // namespace

Result<TpOutput> ComputeTpQuality(const ProbabilisticDatabase& db,
                                  const PsrOutput& psr) {
  Result<std::vector<TpOutput>> outs = ComputeImpl(db, {&psr}, {});
  if (!outs.ok()) return outs.status();
  return std::move((*outs)[0]);
}

Result<TpOutput> ComputeTpQuality(const DatabaseOverlay& db,
                                  const PsrOutput& psr) {
  Result<std::vector<TpOutput>> outs = ComputeImpl(db, {&psr}, {});
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
  for (size_t j = 0; j < psrs.size(); ++j) {
    const TpOutput& tp = (*tps)[j];
    if (psrs[j].num_tuples != n || tp.num_tuples != n) {
      return Status::InvalidArgument(
          "TP/PSR state does not match the database (tuple count mismatch)");
    }
    if (tp.xtuple_gain.size() != db.num_xtuples()) {
      return Status::InvalidArgument(
          "TP state does not match the database (x-tuple count mismatch)");
    }
  }
  RunTpPass(db, RungPointers(psrs), replay_begin, tps->data(), exec);
  return Status::OK();
}

}  // namespace uclean
