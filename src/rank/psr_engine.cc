#include "rank/psr_engine.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
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
  // Keep the checkpoints at multiples of the doubled interval (rank 0
  // among them), bounding memory while preserving coverage.
  *interval *= 2;
  cps->erase(std::remove_if(cps->begin(), cps->end(),
                            [every = *interval](const Checkpoint& cp) {
                              return cp.live % every != 0;
                            }),
             cps->end());
}

size_t PsrEngine::SnapshotInto(const psr_internal::ScanCore& core,
                               size_t pos, size_t live,
                               std::vector<Checkpoint>* cps,
                               size_t* interval) {
  while (cps->size() >= kMaxCheckpoints) ThinCheckpoints(cps, interval);
  if (live % *interval == 0) {
    cps->push_back({pos, live,
                    std::vector<double>(core.c.begin(), core.c.end()),
                    core.active, core.saturated});
  }
  return (live / *interval + 1) * *interval;
}

void PsrEngine::RestoreInto(const Checkpoint& cp, const DatabaseOverlay& view,
                            psr_internal::ScanCore* core) {
  core->Init(view.num_xtuples(), core->kernel);
  psr_internal::ForwardMasses(view, 0, cp.pos, core);
  // A walk that disagrees with the checkpoint means the view changed
  // above it: the caller broke the validity rule, and the stored vector
  // would be scanned against the wrong masses.
  UCLEAN_CHECK(core->active == cp.active && core->saturated == cp.saturated);
  core->c.assign(cp.c.begin(), cp.c.end());
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
  outs.reserve(outputs->size() - first_active);
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
    outs.push_back(&out);
  }
  if (begin == 0) {
    cps->clear();
    SnapshotInto(scan->core_, 0, 0, cps, interval);
  }

  // Running argmaxes are only meaningful over a whole scan; a partial
  // replay rebuilds them from the stored matrix in FinalizeAggregates.
  const bool track_best = begin == 0;

  // One checkpoint rule at every width: a checkpoint at each live ordinal
  // past the scan's start that is a multiple of the list's interval
  // (SnapshotInto). Shard 0 snapshots into the scan's own list, every
  // later shard into a list of its own; those are appended in shard
  // order and the whole is thinned once, which leaves exactly the list
  // one shard over the whole range writes.
  struct ShardList {
    std::vector<Checkpoint> cps;
    size_t interval = 0;
  };
  std::vector<ShardList> later;
  const size_t start_interval = *interval;
  const auto hook = [](std::vector<Checkpoint>* list, size_t* every,
                       size_t from) {
    // The next multiple of *every at or past `from`: an inline compare
    // per live position, the snapshot itself out of line.
    return [list, every, next = (from + *every - 1) / *every * *every](
               const psr_internal::ScanCore& core, size_t pos,
               size_t live) mutable {
      if (live == next) next = SnapshotInto(core, pos, live, list, every);
    };
  };
  psr_internal::RunShardedLadderScan(
      db, begin, live_at_begin, options, exec.pool.get(), &scan->core_, outs,
      track_best, [&](size_t s, size_t num_shards, size_t live) {
        if (s == 0) {
          later.resize(num_shards - 1, ShardList{{}, start_interval});
          return hook(cps, interval, live + 1);
        }
        return hook(&later[s - 1].cps, &later[s - 1].interval, live);
      });
  for (ShardList& shard : later) {
    while (*interval < shard.interval) ThinCheckpoints(cps, interval);
    while (shard.interval < *interval) {
      ThinCheckpoints(&shard.cps, &shard.interval);
    }
    std::move(shard.cps.begin(), shard.cps.end(), std::back_inserter(*cps));
  }
  while (cps->size() > kMaxCheckpoints) ThinCheckpoints(cps, interval);
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
  // The session's own snapshots taken past the change hold pre-clean
  // state; drop them.
  while (!state->checkpoints_.empty() &&
         state->checkpoints_.back().pos > first_changed_rank) {
    state->checkpoints_.pop_back();
  }

  // Restore the deepest checkpoint still valid for this session. The
  // overlay is the single source of truth for how shallow the session's
  // changes reach: every recorded outcome is reflected there, so a shared
  // snapshot at or above its divergence rank is valid no matter what
  // `first_changed_rank` the caller batched up (passing a conservatively
  // shallow rank merely pops more private snapshots). The rank-0 snapshot
  // always qualifies: it is in the shared list, or in a sole session's
  // private one, where no change ranks above it.
  const std::vector<const Checkpoint*> valid =
      ValidCheckpoints(db.divergence_rank(), *state);
  UCLEAN_CHECK(!valid.empty());
  const Checkpoint* restore = valid.back();
  const size_t replay_begin = restore->pos;
  RestoreInto(*restore, db, &state->core_);
  ScanFrom(db, replay_begin, restore->live, options_, exec_, state);
  return Status::OK();
}

std::vector<const PsrEngine::Checkpoint*> PsrEngine::ValidCheckpoints(
    size_t divergence, const SessionState& state) const {
  // A shared checkpoint at pos depends only on the tuples ranked above
  // pos, so it is valid wherever the view still equals the base: at or
  // above the divergence rank. The session's own are valid by
  // ReplaySession's invalidation (a refreshed session holds none past
  // its changes). A shared checkpoint sorts ahead of a private one at
  // its position; either is the view's exact state there.
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
  return valid;
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
  const std::vector<const Checkpoint*> valid =
      ValidCheckpoints(view.divergence_rank(), state);
  psr_internal::RestorePoints restores;
  restores.cuts.reserve(valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    const Checkpoint& cp = *valid[i];
    if (cp.pos == 0) continue;  // the scan's own start
    if (!restores.cuts.empty() && restores.cuts.back().pos == cp.pos) continue;
    restores.cuts.push_back({cp.pos, cp.live, cp.active, i});
  }
  restores.restore = [&valid, &view](size_t index,
                                     psr_internal::ScanCore* core) {
    RestoreInto(*valid[index], view, core);
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
