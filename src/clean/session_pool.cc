#include "clean/session_pool.h"

#include <memory>
#include <string>
#include <utility>

namespace uclean {

Result<SessionPool> SessionPool::Create(ProbabilisticDatabase base, size_t k,
                                        const Options& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  KLadder ladder;
  ladder.ks = {k};
  return Create(std::move(base), ladder, options);
}

Result<SessionPool> SessionPool::Create(ProbabilisticDatabase base,
                                        const KLadder& ladder,
                                        const Options& options) {
  SessionPool pool;
  pool.options_ = options;
  // Resolve the executor ONCE: the engine's sharded scans, every TP
  // pass and RefreshAll's session fan-out all share this pool.
  Result<ExecOptions> exec = ResolveExec(options.exec);
  if (!exec.ok()) return exec.status();
  pool.options_.exec = std::move(exec).value();
  pool.base_ = std::make_unique<ProbabilisticDatabase>(std::move(base));

  ScanRequest request;
  request.ladder = ladder;
  request.psr = options.psr;
  request.exec = pool.options_.exec;
  request.checkpoint_interval = options.checkpoint_interval;
  Result<PsrEngine> engine = PsrEngine::Create(*pool.base_, request);
  if (!engine.ok()) return engine.status();
  pool.engine_ = std::move(engine).value();

  Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(
      *pool.base_, pool.engine_.outputs(), pool.options_.exec);
  if (!tps.ok()) return tps.status();
  pool.base_tps_ = std::move(tps).value();
  return pool;
}

SessionPool::SessionId SessionPool::OpenSession() {
  ScopedSerialCall guard(gate_);
  SessionId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = sessions_.size();
    sessions_.emplace_back();
  }
  Session& session = sessions_[id];
  session.open = true;
  session.overlay = DatabaseOverlay(base_.get());
  ForkBase(&session);
  ++num_open_;
  return id;
}

void SessionPool::ForkBase(Session* session) const {
  session->scan = engine_.ForkSession();
  session->tps = base_tps_;
}

Status SessionPool::CheckOpen(SessionId id) const {
  if (id >= sessions_.size() || !sessions_[id].open) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  return Status::OK();
}

Status SessionPool::ApplyCleanOutcome(SessionId id, XTupleId xtuple,
                                      TupleId resolved_id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  return sessions_[id].ApplyCleanOutcome(xtuple, resolved_id);
}

Status SessionPool::RefreshSession(Session* session) {
  return session->Refresh(engine_, options_.exec);
}

Status SessionPool::Refresh(SessionId id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  return RefreshSession(&sessions_[id]);
}

Status SessionPool::RefreshAll() {
  ScopedSerialCall guard(gate_);
  std::vector<Session*> pending;
  for (Session& session : sessions_) {
    if (session.open && session.dirty()) {
      pending.push_back(&session);
    }
  }
  // Fan whole sessions across the pool: each task reads only the shared
  // engine (immutable after Create) and writes only its own session, so
  // per-session results are bitwise what Refresh(id) would produce. A
  // session's own replay runs as one shard on the worker (nested
  // parallelism runs inline), which is exactly the right shape: the
  // parallelism budget is spent across sessions.
  std::vector<Status> statuses(pending.size(), Status::OK());
  ExecParallelFor(options_.exec, pending.size(), [&](size_t i) {
    // Workers run inside the window this call opened; the caller blocks
    // in ExecParallelFor until every task is done, so the gate stays
    // held for the whole fan-out.
    gate_.AssertHeld();
    statuses[i] = RefreshSession(pending[i]);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Result<ProbabilisticDatabase> SessionPool::CloseAndMerge(SessionId id) {
  ProbabilisticDatabase merged;
  {
    // Materialization reads the session's overlay, so it must sit
    // inside the guarded window; scoped because Close takes the
    // (non-recursive) guard itself.
    ScopedSerialCall guard(gate_);
    UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
    merged = sessions_[id].overlay.MaterializeCleaned();
  }
  UCLEAN_RETURN_IF_ERROR(Close(id));
  return merged;
}

Status SessionPool::Close(SessionId id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  // Free the slot's heavy state eagerly; the slot is reused by the next
  // OpenSession.
  sessions_[id] = Session();
  free_slots_.push_back(id);
  --num_open_;
  return Status::OK();
}

}  // namespace uclean
