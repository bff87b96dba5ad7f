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
    return psr_internal::ScanLadderFromRank0(*request.overlay, request.ladder,
                                             request.psr, *resolved, *kernel,
                                             /*restores=*/nullptr);
  }
  return psr_internal::ScanLadderFromRank0(db, request.ladder, request.psr,
                                           *resolved, *kernel,
                                           /*restores=*/nullptr);
}

}  // namespace uclean
