#include "rank/psr_engine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "rank/sharded_scan.h"

namespace uclean {

Result<PsrEngine> PsrEngine::Create(const ProbabilisticDatabase& db,
                                    const ScanRequest& request) {
  UCLEAN_RETURN_IF_ERROR(request.Validate());
  if (request.overlay != nullptr) {
    return Status::InvalidArgument(
        "engines are created over base databases; serve session overlays "
        "through ForkSession/ReplaySession");
  }
  Result<ExecOptions> resolved = ResolveExec(request.exec);
  if (!resolved.ok()) return resolved.status();
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(resolved->kernel);
  if (!kernel.ok()) return kernel.status();

  PsrEngine engine;
  engine.exec_ = std::move(resolved).value();
  engine.options_ = request.psr;
  engine.ladder_ = request.ladder;
  SessionState& base = engine.base_;
  base.checkpoint_interval_ = request.checkpoint_interval;
  psr_internal::InitLadderOutputs(request.ladder, request.psr, &base.outputs_);
  for (PsrOutput& out : base.outputs_) out.num_tuples = db.num_tuples();
  base.core_.Init(db.num_xtuples(), *kernel);
  ScanFrom(db, 0, 0, engine.options_, engine.exec_, &base);
  return engine;
}

void PsrEngine::ThinCheckpoints(std::vector<Checkpoint>* cps,
                                size_t* interval) {
  // Keep every other checkpoint (always retaining the first one) and
  // double the interval, bounding memory while preserving coverage.
  size_t kept = 0;
  for (size_t j = 0; j < cps->size(); j += 2) {
    // Guard the j == kept case: self-move-assignment empties the kept
    // checkpoint's vectors (corrupting the always-retained rank-0 one).
    if (kept != j) (*cps)[kept] = std::move((*cps)[j]);
    ++kept;
  }
  cps->resize(kept);
  *interval *= 2;
}

void PsrEngine::SnapshotInto(const psr_internal::ScanCore& core, size_t pos,
                             size_t live, std::vector<Checkpoint>* cps,
                             size_t* interval) {
  if (cps->size() >= kMaxCheckpoints) ThinCheckpoints(cps, interval);
  Checkpoint cp;
  cp.pos = pos;
  cp.live = live;
  cp.c.assign(core.c.begin(), core.c.end());
  cp.active = core.active;
  cp.saturated = core.saturated;
  for (size_t l = 0; l < core.state.size(); ++l) {
    if (core.state[l] == psr_internal::XTupleState::kInactive) continue;
    cp.xs.push_back({static_cast<XTupleId>(l), core.state[l], core.q[l]});
  }
  cps->push_back(std::move(cp));
}

void PsrEngine::RestoreInto(const Checkpoint& cp, size_t num_xtuples,
                            psr_internal::ScanCore* core) {
  core->c.assign(cp.c.begin(), cp.c.end());
  core->active = cp.active;
  core->saturated = cp.saturated;
  core->q.assign(num_xtuples, 0.0);
  core->state.assign(num_xtuples, psr_internal::XTupleState::kInactive);
  for (const Checkpoint::XEntry& x : cp.xs) {
    core->q[x.xtuple] = x.q;
    core->state[x.xtuple] = x.state;
  }
}

template <typename Db>
void PsrEngine::ScanFrom(const Db& db, size_t begin, size_t live_at_begin,
                         const PsrOptions& options, const ExecOptions& exec,
                         SessionState* scan) {
  std::vector<PsrOutput>* outputs = &scan->outputs_;
  std::vector<Checkpoint>* cps = &scan->checkpoints_;
  size_t* interval = &scan->checkpoint_interval_;
  // A rung whose scan already stopped at or before `begin` cannot be
  // affected: it holds nothing past scan_end, and the state that produced
  // its stop decision is prefix-only. Everything deeper is cut back to
  // `begin` and re-emits from there (scan_end is ascending in k, so the
  // replaying rungs are a suffix of the ladder).
  size_t first_active = 0;
  if (begin > 0) {
    while (first_active < outputs->size() &&
           (*outputs)[first_active].scan_end <= begin) {
      ++first_active;
    }
  }
  std::vector<PsrOutput*> outs;
  outs.reserve(outputs->size());
  for (PsrOutput& out : *outputs) outs.push_back(&out);
  for (size_t j = first_active; j < outputs->size(); ++j) {
    PsrOutput& out = (*outputs)[j];
    psr_internal::StopRung(begin, &out);  // until the scan ends it anew
    if (begin == 0) {
      // A from-rank-0 scan re-runs the argmax trackers; clear the maxima a
      // previous scan left behind (a replay of the whole range restores
      // the rank-0 checkpoint but reuses the output buffers).
      std::fill(out.best_rank_prob.begin(), out.best_rank_prob.end(), 0.0);
      std::fill(out.best_rank_index.begin(), out.best_rank_index.end(), -1);
    }
  }
  if (begin == 0) {
    cps->clear();
    SnapshotInto(scan->core_, 0, 0, cps, interval);
  }

  // Running argmaxes are only meaningful over a whole scan; a partial
  // replay rebuilds them from the stored matrix in FinalizeAggregates.
  const bool track_best = begin == 0;

  // Parallel path: shard the active rungs' range over the pool. Shard s
  // snapshots into its own list (its rebuilt boundary state first, then
  // on the usual live-tuple cadence); the lists merge in shard order and
  // thin to capacity, so checkpoint PLACEMENT differs from the
  // sequential path while every snapshot remains a valid restore point.
  bool sharded = false;
  if (exec.parallel()) {
    struct ShardCheckpoints {
      std::vector<Checkpoint> cps;
      size_t interval = 0;
      size_t since = 0;
      bool snapshot_first = false;
    };
    std::vector<ShardCheckpoints> shard_cps;
    const size_t base_interval = *interval;
    const auto make_checkpoint_fn = [&shard_cps, base_interval](
                                        size_t s, size_t num_shards) {
      if (shard_cps.empty()) shard_cps.resize(num_shards);
      ShardCheckpoints* local = &shard_cps[s];
      local->interval = base_interval;
      local->snapshot_first = s > 0;
      return [local](const psr_internal::ScanCore& core, size_t pos,
                     size_t live) {
        if (local->snapshot_first || local->since >= local->interval) {
          SnapshotInto(core, pos, live, &local->cps, &local->interval);
          local->snapshot_first = false;
          local->since = 0;
        }
        ++local->since;
      };
    };
    std::vector<PsrOutput*> active_outs(outs.begin() + first_active,
                                        outs.end());
    sharded = psr_internal::RunShardedLadderScan(
                  db, begin, live_at_begin, options, exec.pool.get(),
                  scan->core_, active_outs, track_best,
                  make_checkpoint_fn) > 0;
    if (sharded) {
      for (ShardCheckpoints& local : shard_cps) {
        for (Checkpoint& cp : local.cps) cps->push_back(std::move(cp));
        *interval = std::max(*interval, local.interval);
      }
      while (cps->size() > kMaxCheckpoints) ThinCheckpoints(cps, interval);
    }
  }
  if (!sharded) {
    size_t since_checkpoint = 0;
    psr_internal::RunLadderScan(
        db, begin, db.num_tuples(), live_at_begin, /*emit_base=*/0,
        options.early_termination, scan->core_, outs, first_active, track_best,
        [cps, interval, &since_checkpoint](
            const psr_internal::ScanCore& scanned, size_t i, size_t live) {
          if (since_checkpoint >= *interval) {
            SnapshotInto(scanned, i, live, cps, interval);
            since_checkpoint = 0;
          }
          ++since_checkpoint;
        });
  }
  FinalizeAggregates(db, begin, begin == 0, exec, outputs);
}

template <typename Db>
void PsrEngine::FinalizeAggregates(const Db& db, size_t begin,
                                   bool from_rank_0, const ExecOptions& exec,
                                   std::vector<PsrOutput>* outputs) {
  // Each rung's recount/argmax rebuild touches only that rung's output,
  // so the per-rung work fans over the pool verbatim.
  ExecParallelFor(exec, outputs->size(), [&](size_t j) {
    PsrOutput& out = (*outputs)[j];
    // Untouched rungs (stopped at or before the replay boundary) keep
    // every aggregate; recounting them would be wasted work.
    if (!from_rank_0 && out.scan_end <= begin) return;
    out.num_nonzero = 0;
    for (double p : out.topk_prob) out.num_nonzero += p > 0.0;
    const size_t k = out.k;
    if (!out.has_rank_probabilities) {
      if (!from_rank_0) {
        // Tracked argmaxes are stale and the matrix is off: reset to the
        // empty answer rather than serve wrong ones (see header).
        std::fill(out.best_rank_prob.begin(), out.best_rank_prob.end(), 0.0);
        std::fill(out.best_rank_index.begin(), out.best_rank_index.end(), -1);
      }
      return;
    }
    if (from_rank_0) return;  // running argmaxes are exact for full scans
    std::fill(out.best_rank_prob.begin(), out.best_rank_prob.end(), 0.0);
    std::fill(out.best_rank_index.begin(), out.best_rank_index.end(), -1);
    for (size_t i = 0; i < out.scan_end; ++i) {
      const Tuple& t = db.tuple(i);
      if (t.is_null || db.is_tombstone(i)) continue;
      for (size_t h = 0; h < k; ++h) {
        const double rho = out.rank_prob[i * k + h];
        if (rho > out.best_rank_prob[h]) {
          out.best_rank_prob[h] = rho;
          out.best_rank_index[h] = static_cast<int32_t>(i);
        }
      }
    }
  });
}

PsrEngine::SessionState PsrEngine::ForkSession() const {
  SessionState state;
  // Each rung holds only its live prefix, [0, scan_end), so the copy is
  // O(scan_end) per rung -- this is what keeps opening a pooled session
  // an order of magnitude cheaper than a scan of its own.
  state.outputs_ = base_.outputs_;
  // Sessions inherit the engine's kernel: mixing kernels would be safe
  // (they are bitwise equal) but pointless. The replay scratch itself is
  // left empty: a session's first replay sizes it (RestoreInto), and a
  // pristine session never replays.
  state.core_.kernel = base_.core_.kernel;
  state.checkpoint_interval_ = base_.checkpoint_interval_;
  return state;
}

PsrEngine::SessionState PsrEngine::TakeSoleSession() {
  return std::exchange(base_, SessionState());
}

Status PsrEngine::ReplaySession(const DatabaseOverlay& db,
                                size_t first_changed_rank,
                                SessionState* state) const {
  // Key off the ladder, not the engine's own outputs and checkpoints:
  // after TakeSoleSession the session holds those.
  if (ladder_.size() == 0) {
    return Status::FailedPrecondition("PsrEngine was not initialized");
  }
  if (state == nullptr || state->outputs_.size() != ladder_.size()) {
    return Status::FailedPrecondition(
        "session state was not obtained from this engine");
  }
  if (state->outputs_.front().num_tuples != db.num_tuples()) {
    return Status::FailedPrecondition(
        "session state does not match the overlay's base database");
  }
  if (first_changed_rank >= db.num_tuples()) return Status::OK();  // no-op
  // The overlay is the single source of truth for how shallow the
  // session's changes reach: every recorded outcome is reflected there,
  // so a shared snapshot at or above its divergence rank is valid no
  // matter what `first_changed_rank` the caller batched up (passing a
  // conservatively shallow rank merely pops more private snapshots).
  const size_t divergence = db.divergence_rank();

  // The session's own snapshots taken past the change hold pre-clean
  // state; drop them.
  while (!state->checkpoints_.empty() &&
         state->checkpoints_.back().pos > first_changed_rank) {
    state->checkpoints_.pop_back();
  }

  // Deepest restore point still valid for this session: a shared base
  // snapshot is valid wherever the overlay still equals the base (at or
  // above the divergence rank -- a snapshot at pos depends only on tuples
  // ranked above pos); a surviving private snapshot is valid by the
  // invalidation above. The rank-0 snapshot always qualifies: it is in
  // the shared list, or in a sole session's private one, where no change
  // ranks above it.
  const Checkpoint* restore = nullptr;
  for (auto it = base_.checkpoints_.rbegin(); it != base_.checkpoints_.rend();
       ++it) {
    if (it->pos <= divergence) {
      restore = &*it;
      break;
    }
  }
  if (!state->checkpoints_.empty() &&
      (restore == nullptr || state->checkpoints_.back().pos >= restore->pos)) {
    restore = &state->checkpoints_.back();
  }
  UCLEAN_CHECK(restore != nullptr);

  const size_t replay_begin = restore->pos;
  RestoreInto(*restore, db.num_xtuples(), &state->core_);
  ScanFrom(db, replay_begin, restore->live, options_, exec_, state);
  return Status::OK();
}

Result<ScanResult> PsrEngine::ScanLadder(const DatabaseOverlay& view,
                                         const SessionState& state,
                                         const KLadder& ladder) const {
  UCLEAN_RETURN_IF_ERROR(ladder.Validate());
  if (ladder_.size() == 0) {
    return Status::FailedPrecondition("PsrEngine was not initialized");
  }
  if (state.outputs_.size() != ladder_.size()) {
    return Status::FailedPrecondition(
        "session state was not obtained from this engine");
  }
  if (state.outputs_.front().num_tuples != view.num_tuples()) {
    return Status::FailedPrecondition(
        "session state does not match the view's base database");
  }
  // Every checkpoint valid for the view, ascending: a shared one at or
  // above the view's divergence rank, and any of the session's own (a
  // refreshed session holds none past its changes). A shared checkpoint
  // sorts ahead of a private one at its position; either is the view's
  // exact state there.
  const size_t divergence = view.divergence_rank();
  std::vector<const Checkpoint*> valid;
  valid.reserve(base_.checkpoints_.size() + state.checkpoints_.size());
  for (const Checkpoint& cp : base_.checkpoints_) {
    if (cp.pos > divergence) break;
    valid.push_back(&cp);
  }
  const size_t shared = valid.size();
  for (const Checkpoint& cp : state.checkpoints_) valid.push_back(&cp);
  std::inplace_merge(
      valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(shared),
      valid.end(), [](const Checkpoint* a, const Checkpoint* b) {
        return a->pos < b->pos;
      });
  psr_internal::RestorePoints restores;
  restores.cuts.reserve(valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    const Checkpoint& cp = *valid[i];
    if (cp.pos == 0) continue;  // the scan's own start
    if (!restores.cuts.empty() && restores.cuts.back().pos == cp.pos) continue;
    restores.cuts.push_back({cp.pos, cp.live, cp.active, i});
  }
  restores.restore = [&valid, num_xtuples = view.num_xtuples()](
                         size_t index, psr_internal::ScanCore* core) {
    RestoreInto(*valid[index], num_xtuples, core);
  };
  // The scan's depth: the first checkpoint whose state already stops the
  // top k (the stop latches along the scan), else the view's own rung at
  // or above that k, which stops no earlier.
  restores.depth_bound = view.num_tuples();
  if (options_.early_termination) {
    const size_t k_max = ladder.max_k();
    const auto stops = std::partition_point(
        valid.begin(), valid.end(), [k_max](const Checkpoint* cp) {
          return !psr_internal::ScanCore::StopRuleFires(
              cp->c.data(), cp->c.size(), cp->saturated, k_max);
        });
    const auto above =
        std::lower_bound(ladder_.ks.begin(), ladder_.ks.end(), k_max);
    if (stops != valid.end()) {
      restores.depth_bound = (*stops)->pos;
    } else if (above != ladder_.ks.end()) {
      restores.depth_bound =
          state.outputs_[static_cast<size_t>(above - ladder_.ks.begin())]
              .scan_end;
    }
  }
  // A pristine view scans its base directly: the same tuples, without the
  // overlay's per-slot lookups.
  if (view.num_outcomes() == 0) {
    return psr_internal::ScanLadderFromRank0(view.base(), ladder, options_,
                                             exec_, state.core_.kernel,
                                             &restores);
  }
  return psr_internal::ScanLadderFromRank0(view, ladder, options_, exec_,
                                           state.core_.kernel, &restores);
}

}  // namespace uclean
