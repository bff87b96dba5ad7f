#include "clean/session.h"

#include <memory>
#include <utility>
#include <vector>

namespace uclean {

Status SessionCore::ApplyCleanOutcome(XTupleId xtuple, TupleId resolved_id) {
  Result<DatabaseOverlay::CleanOutcomeDelta> delta =
      overlay.ApplyCleanOutcome(xtuple, resolved_id);
  if (!delta.ok()) return delta.status();
  if (delta->first_changed_rank >= overlay.num_tuples()) {
    return Status::OK();  // outcome was already materialized
  }
  const size_t begin = delta->first_changed_rank;
  if (pending_replay_begin == kNoPending || begin < pending_replay_begin) {
    pending_replay_begin = begin;
  }
  return Status::OK();
}

Status SessionCore::Refresh(const PsrEngine& engine, const ExecOptions& exec) {
  if (!dirty()) return Status::OK();
  UCLEAN_RETURN_IF_ERROR(
      engine.ReplaySession(overlay, pending_replay_begin, &scan));
  UCLEAN_RETURN_IF_ERROR(UpdateTpQualityLadder(overlay, scan.outputs(),
                                               pending_replay_begin, &tps,
                                               exec));
  pending_replay_begin = kNoPending;
  return Status::OK();
}

Result<CleaningSession> CleaningSession::Start(ProbabilisticDatabase db,
                                               size_t k,
                                               const Options& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  KLadder ladder;
  ladder.ks = {k};
  return Start(std::move(db), ladder, options);
}

Result<CleaningSession> CleaningSession::Start(ProbabilisticDatabase db,
                                               const KLadder& ladder,
                                               const Options& options) {
  CleaningSession session;
  session.base_ = std::make_unique<ProbabilisticDatabase>(std::move(db));

  ScanRequest request;
  request.ladder = ladder;
  request.psr = options.psr;
  request.exec = options.exec;
  request.checkpoint_interval = options.checkpoint_interval;
  Result<PsrEngine> engine = PsrEngine::Create(*session.base_, request);
  if (!engine.ok()) return engine.status();
  session.engine_ = std::move(engine).value();

  // The only session of this engine: it takes the scan state over rather
  // than forking a copy of it.
  SessionCore& core = session.core_;
  core.overlay = DatabaseOverlay(session.base_.get());
  core.scan = session.engine_.TakeSoleSession();

  // The engine resolved the exec options (building the shared pool when
  // asked to); every TP pass fans over that same pool.
  Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(
      *session.base_, core.scan.outputs(), session.engine_.exec());
  if (!tps.ok()) return tps.status();
  core.tps = std::move(tps).value();
  return session;
}

Status CleaningSession::ApplyCleanOutcome(XTupleId xtuple,
                                          TupleId resolved_id) {
  ScopedSerialCall guard(gate_);
  return core_.ApplyCleanOutcome(xtuple, resolved_id);
}

Status CleaningSession::Refresh() {
  ScopedSerialCall guard(gate_);
  return core_.Refresh(engine_, engine_.exec());
}

ProbabilisticDatabase CleaningSession::TakeDatabase() && {
  ScopedSerialCall guard(gate_);
  return core_.overlay.MaterializeCleaned(std::move(*base_));
}

}  // namespace uclean
