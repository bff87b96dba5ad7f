#include "rank/psr.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "model/database_overlay.h"
#include "rank/kernel.h"
#include "rank/psr_scan_core.h"
#include "rank/sharded_scan.h"

namespace uclean {

// The per-tuple arithmetic (exclusion build, ladder emission, advance) and
// its numerical-stability notes live in psr_scan_core.h, shared with the
// incremental PsrEngine so all drivers always agree bitwise.

Result<KLadder> KLadder::Of(std::vector<size_t> ks) {
  if (ks.empty()) {
    return Status::InvalidArgument("k-ladder must not be empty");
  }
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  if (ks.front() == 0) {
    return Status::InvalidArgument("every k in a ladder must be positive");
  }
  KLadder ladder;
  ladder.ks = std::move(ks);
  return ladder;
}

Status KLadder::Validate() const {
  if (ks.empty() || ks.front() == 0 || !std::is_sorted(ks.begin(), ks.end()) ||
      std::adjacent_find(ks.begin(), ks.end()) != ks.end()) {
    return Status::InvalidArgument(
        "k-ladder must be non-empty, strictly ascending and positive "
        "(build it with KLadder::Of)");
  }
  return Status::OK();
}

size_t KLadder::IndexOf(size_t k) const {
  const auto it = std::lower_bound(ks.begin(), ks.end(), k);
  if (it == ks.end() || *it != k) return npos;
  return static_cast<size_t>(it - ks.begin());
}

std::string KLadder::ToString() const {
  std::string out = "{";
  for (size_t j = 0; j < ks.size(); ++j) {
    if (j > 0) out += ", ";
    out += std::to_string(ks[j]);
  }
  return out + "}";
}

Result<ScanRequest> ScanRequest::ForK(size_t k, const PsrOptions& psr) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  ScanRequest request;
  request.ladder.ks = {k};
  request.psr = psr;
  return request;
}

Result<ScanRequest> ScanRequest::ForLadder(std::vector<size_t> ks,
                                           const PsrOptions& psr) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  if (!ladder.ok()) return ladder.status();
  ScanRequest request;
  request.ladder = *std::move(ladder);
  request.psr = psr;
  return request;
}

Status ScanRequest::Validate() const {
  UCLEAN_RETURN_IF_ERROR(ladder.Validate());
  if (checkpoint_interval == 0) {
    return Status::InvalidArgument("checkpoint_interval must be positive");
  }
  return Status::OK();
}

namespace psr_internal {

void InitLadderOutputs(const KLadder& ladder, const PsrOptions& options,
                       std::vector<PsrOutput>* outputs) {
  outputs->clear();
  outputs->resize(ladder.size());
  for (size_t j = 0; j < ladder.size(); ++j) {
    PsrOutput& out = (*outputs)[j];
    out.k = ladder[j];
    out.best_rank_prob.assign(out.k, 0.0);
    out.best_rank_index.assign(out.k, -1);
    out.has_rank_probabilities = options.store_rank_probabilities;
  }
}

}  // namespace psr_internal

namespace {

// The one-shot ladder scan, generic over the scanned view (`Db` is
// ProbabilisticDatabase or DatabaseOverlay -- both expose num_tuples /
// num_xtuples / tuple / is_tombstone). Request/exec/kernel validation
// happened in the caller; `kernel` is the concrete resolved table.
template <typename Db>
Result<ScanResult> ScanRequested(const Db& db, const ScanRequest& request,
                                 const ExecOptions& resolved,
                                 const psr_internal::ScanKernel* kernel) {
  ScanResult result;
  result.kernel = kernel->kind;
  psr_internal::InitLadderOutputs(request.ladder, request.psr, &result.outputs);
  std::vector<PsrOutput*> outs;
  outs.reserve(result.outputs.size());
  for (PsrOutput& out : result.outputs) {
    out.num_tuples = db.num_tuples();
    outs.push_back(&out);
  }

  psr_internal::ScanCore core;
  core.Init(db.num_xtuples(), kernel);
  bool sharded = false;
  if (resolved.parallel()) {
    // One-shot scans keep no checkpoints: the snapshot hook is a no-op.
    const auto no_checkpoints = [](size_t, size_t) {
      return [](const psr_internal::ScanCore&, size_t, size_t) {};
    };
    sharded = psr_internal::RunShardedLadderScan(
        db, 0, 0, request.psr, resolved.pool.get(), core, outs,
        /*track_best=*/true, no_checkpoints);
  }
  if (!sharded) {
    psr_internal::RunLadderScan(
        db, 0, db.num_tuples(), 0, /*emit_base=*/0,
        request.psr.early_termination, core, outs, /*first_active=*/0,
        /*track_best=*/true,
        [](const psr_internal::ScanCore&, size_t, size_t) {});
  }
  for (PsrOutput& out : result.outputs) {
    for (double p : out.topk_prob) out.num_nonzero += p > 0.0;
  }
  return result;
}

}  // namespace

Result<ScanResult> ComputePsrLadder(const ProbabilisticDatabase& db,
                                    const ScanRequest& request) {
  UCLEAN_RETURN_IF_ERROR(request.Validate());
  Result<ExecOptions> resolved = ResolveExec(request.exec);
  if (!resolved.ok()) return resolved.status();
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(resolved->kernel);
  if (!kernel.ok()) return kernel.status();
  if (request.overlay != nullptr) {
    if (&request.overlay->base() != &db) {
      return Status::InvalidArgument(
          "request.overlay must be a view over the database the request "
          "is issued against");
    }
    return ScanRequested(*request.overlay, request, *resolved, *kernel);
  }
  return ScanRequested(db, request, *resolved, *kernel);
}

}  // namespace uclean
