// Sharded parallel PSR scan: rank-range decomposition of the ladder scan
// over a fixed-size ThreadPool (exec/thread_pool.h).
//
// Why rank ranges shard cleanly. The scan state at position p -- the
// Poisson-binomial count vector plus per-x-tuple above-masses -- depends
// only on the tuples ranked above p, never on k, the session, or anything
// below p (the same fact that makes PsrEngine checkpoints shareable
// across rungs and pooled sessions). A shard that holds the state at its
// range start can therefore scan its range in complete isolation; per-
// rank outputs land in disjoint index ranges and the only cross-shard
// reconciliation is for the scan-global aggregates (the per-rung Lemma-2
// stop rank, the per-rank argmax trackers, num_nonzero).
//
// Boundary states, bitwise. A replay's surviving checkpoints all sit at
// or above the replay boundary (deeper ones were invalidated by the
// clean), so shard starts inside the suffix -- and all shard starts of
// an initial full scan -- need their state produced first. Two facts
// make that cheap AND exact:
//
//  * The per-x-tuple mass bookkeeping underneath the scan (q / state /
//    active / saturated) evolves by a handful of additions per tuple --
//    orders of magnitude cheaper than the per-tuple count-vector work --
//    and is bitwise identical in every driver (same sums, same order).
//    ForwardMasses advances just that bookkeeping across a range.
//  * The scan refreshes its count vector from the bookkeeping at every
//    live-tuple ordinal divisible by kCountRefreshGridLive
//    (psr_scan_core.h). At those grid points the vector is a pure
//    function of the bookkeeping.
//
// Shard cut points are such grid points, or restore points. The
// orchestrator runs the cheap mass prewalk from the start state, hands
// each grid shard the bookkeeping at its cut (the shard's first loop
// iteration performs the grid refresh, reconstituting the count vector
// bit-for-bit as the sequential scan does there), and dispatches shards
// pipelined: shard s scans while the prewalk advances to cut s+1. A
// scan from rank 0 over a view PsrEngine holds checkpoints for
// (PsrEngine::ScanLadder) may also cut at every such checkpoint: that
// shard restores the whole checkpoint -- the exact state the
// sequential scan has there, count vector included -- the same restore
// a session replay starts from. Every per-position operation inside a
// shard is then the exact op sequence of the sequential scan on the
// exact same state, so PARALLEL OUTPUT IS BITWISE EQUAL TO SEQUENTIAL
// OUTPUT for any shard/thread count.
//
// Cut plans. Without restore points the planner spaces at most 4x the
// pool's width of shards evenly over the grid points up to a
// conservative estimate of the deepest stop (CollectGridCuts). With
// restore points (every checkpoint interval, 64 live tuples by default)
// it cuts into at most the pool's width of shards. A position costs
// O(active x-tuples), so the cuts balance the work estimated from the
// candidates' active counts up to the scan's depth bound -- the first
// restore point whose state already stops the top k, else the view's
// own rung at or above that k, else the prewalk's likely stop -- and the
// planner splits only when every shard keeps kMinShardWork
// (PlanWorkCuts).
//
// Lemma-2 stops across shards. Stops latch monotonically along the scan,
// so each shard's rung ends at the first position in its range where the
// rung's stop fires and the merge takes the first firing in shard order;
// a shard whose boundary state already fails every rung's stop check
// exits at its first position without scanning (deep shards past the
// ladder's stop are skipped entirely -- and the cut planner does not
// even cut past a conservative estimate of the deepest stop). The merge
// appends each shard's emitted range in shard order up to the stopping
// shard, so every merged rung holds exactly [0, scan_end).

#ifndef UCLEAN_RANK_SHARDED_SCAN_H_
#define UCLEAN_RANK_SHARDED_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "model/tuple.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"

namespace uclean {
namespace psr_internal {

/// Most shards one scan is ever cut into; with dynamic claiming this
/// keeps late heavy shards from serializing the tail while bounding the
/// per-shard fixed costs (state copy, boundary refresh, merge).
constexpr size_t kMaxShardsPerScan = 32;

/// Least estimated work, in active x-tuple positions (the sum of the
/// active count over a shard's positions), worth a shard of its own in a
/// restore-point plan. Set by measurement on 5,000 x-tuples x 10
/// Gaussian bars with mass U[0.5, 0.9] (4-vCPU AVX2 host, GCC 12, a
/// 2-thread pool): a position costs 7-8 ns per active x-tuple, and a
/// two-shard split ran a k = 5 scan (16,000 units, ~140 us) 0.95-0.98x
/// and a k = 15 scan (33,000 units, ~270 us) 1.24-1.29x of its width-1
/// time.
constexpr double kMinShardWork = 12000.0;

/// A shard boundary: a live position, its live ordinal and the active
/// x-tuple count there (the restore-point planner's work estimate). A
/// cut's state comes from the mass prewalk at a count-refresh grid point
/// (`restore == kGridCut`) or from the caller's restore point `restore`.
struct ShardCut {
  static constexpr size_t kGridCut = static_cast<size_t>(-1);
  size_t pos = 0;
  size_t live = 0;
  size_t active = 0;
  size_t restore = kGridCut;
};

/// The scan states a caller holds exactly, ready to cut a scan at:
/// PsrEngine's checkpoints valid for the scanned view.
struct RestorePoints {
  /// Ascending positions past the scan's begin; cut.restore indexes the
  /// caller's list.
  std::vector<ShardCut> cuts;
  /// Loads restore point `index` into `core` (kernel already set). Runs
  /// on the shard's thread, concurrently with other shards' restores.
  std::function<void(size_t index, ScanCore* core)> restore;
  /// A position the scan stops at or before (a restore point whose state
  /// stops the top k, or the view's rung at or above it); num_tuples()
  /// or more when nothing bounds it.
  size_t depth_bound = static_cast<size_t>(-1);
};

/// Advances ONLY the per-x-tuple mass bookkeeping of `core` across
/// positions [from, to): the exact additions, saturation folds and
/// activation flips the scan performs, minus all count-vector work.
/// core->c goes stale; the grid refresh (RebuildCounts) reconstitutes it.
template <typename Db>
void ForwardMasses(const Db& db, size_t from, size_t to, ScanCore* core) {
  for (size_t i = from; i < to; ++i) {
    if (db.is_tombstone(i)) continue;
    const Tuple& t = db.tuple(i);
    const int32_t l = t.xtuple;
    if (core->state[l] == XTupleState::kSaturated) continue;
    const double q_new = core->q[l] + t.prob;
    core->q[l] = q_new;
    if (q_new >= kSaturationThreshold) {
      if (core->state[l] == XTupleState::kActive) --core->active;
      core->state[l] = XTupleState::kSaturated;
      ++core->saturated;
    } else if (core->state[l] == XTupleState::kInactive) {
      core->state[l] = XTupleState::kActive;
      ++core->active;
    }
  }
}

/// What one mass prewalk found: the grid points usable as cuts, where it
/// stopped (`end.pos`, with `end.active` active x-tuples there), and
/// where the k_max stop most likely fires (`likely`, at or before end).
struct GridWalk {
  std::vector<ShardCut> grid;
  ShardCut end;
  ShardCut likely;
};

/// One cheap pass from (begin, live_at_begin) up to `limit` that collects
/// the grid points usable as shard cuts, stopping at a CONSERVATIVE
/// estimate of the k_max Lemma-2 stop: the first position where either
/// k_max x-tuples saturated (the stop fires there exactly) or the
/// expected contributor count mu clears k_max by a Chernoff margin that
/// forces the head mass below the stop threshold. The true stop can only
/// be EARLIER, so cuts planned inside the estimate never lose coverage --
/// shards past the true stop exit at their first position. The likely
/// stop is where the contributor count's mean mu first stands 7 standard
/// deviations above k_max (a normal tail of 1e-12; the stop's 1e-15 is
/// 7.9): on perfbench's shape it fell 1-8% before the true stop for k in
/// 15-300, and 13-24% before it at mass U[0.9, 1] -- while 8 ran up to
/// 4% past it on masses of at most 0.6 -- and a plan cut before the stop
/// loses balance, not a shard. Only restore-point plans read the active
/// counts and the likely stop: `estimate` = false leaves them unset and
/// the walk as cheap as the grid plan's cuts alone need. Pass
/// early_termination=false to walk the whole range.
template <typename Db>
GridWalk CollectGridCuts(const Db& db, const ScanCore& at_begin, size_t begin,
                         size_t live_at_begin, size_t k_max,
                         bool early_termination, size_t limit, bool estimate) {
  std::vector<double> q(at_begin.q.begin(), at_begin.q.end());
  std::vector<uint8_t> saturated(q.size(), 0);
  size_t num_saturated = at_begin.saturated;
  size_t active = at_begin.active;
  double mu = static_cast<double>(num_saturated);
  double var = 0.0;  // of the unsaturated contributors
  for (size_t l = 0; l < q.size(); ++l) {
    if (at_begin.state[l] == XTupleState::kSaturated) {
      saturated[l] = 1;
    } else {
      mu += q[l];
      if (estimate) var += q[l] * (1.0 - q[l]);
    }
  }
  const double k = static_cast<double>(k_max);
  GridWalk walk;
  bool likely = !early_termination || !estimate;
  size_t live = live_at_begin;
  size_t i = begin;
  for (; i < limit; ++i) {
    if (early_termination) {
      if (num_saturated >= k_max) break;
      if (!likely && mu > k && (mu - k) * (mu - k) > var * 49.0) {
        walk.likely = {i, live, active};
        likely = true;
      }
      // exp(-(mu-k)^2 / 2mu) < 1e-15 once (mu-k)^2 > 72 mu.
      if (mu > k && (mu - k) * (mu - k) > mu * 72.0) break;
    }
    if (db.is_tombstone(i)) continue;
    if (live % kCountRefreshGridLive == 0 && i > begin) {
      walk.grid.push_back({i, live, active});
    }
    const Tuple& t = db.tuple(i);
    const int32_t l = t.xtuple;
    if (!saturated[l]) {
      // Tuple probabilities are positive, so q == 0 is an inactive
      // x-tuple.
      const double q_old = q[l];
      const double q_new = q_old + t.prob;
      if (q_new >= kSaturationThreshold) {
        saturated[l] = 1;
        ++num_saturated;
        mu += 1.0 - q_old;
        if (estimate) {
          var -= q_old * (1.0 - q_old);
          if (q_old > 0.0) --active;
        }
      } else {
        mu += t.prob;
        if (estimate) {
          var += q_new * (1.0 - q_new) - q_old * (1.0 - q_old);
          if (q_old == 0.0) ++active;
        }
      }
      q[l] = q_new;
    }
    ++live;
  }
  walk.end = {i, live, active};
  if (!likely) walk.likely = walk.end;
  return walk;
}

/// Picks the shard boundaries of a scan without restore points: `begin`
/// plus at most (max_shards - 1) evenly spaced grid cuts plus
/// `hard_end`, so no two cuts are closer than the grid's
/// kCountRefreshGridLive live tuples. Returns empty when fewer than two
/// shards result.
std::vector<ShardCut> PlanShardCuts(size_t begin, size_t live_at_begin,
                                    size_t hard_end,
                                    const std::vector<ShardCut>& grid,
                                    size_t num_threads);

/// Picks the shard boundaries of a restore-point plan: `start`, then at
/// most num_threads - 1 of the ascending `candidates` (restore and grid
/// points inside the scan) chosen to balance the work estimated from
/// their active counts up to `end`, then `hard_end`. A cut is taken only
/// when the shards on both sides of it keep kMinShardWork. Returns empty
/// when fewer than two shards result.
std::vector<ShardCut> PlanWorkCuts(const ShardCut& start,
                                   const std::vector<ShardCut>& candidates,
                                   const ShardCut& end, size_t hard_end,
                                   size_t num_threads);

/// The cut plan of a scan over `db` from (begin, live_at_begin, at_begin)
/// for a ladder topped by `k_max`: the grid plan (PlanShardCuts) without
/// restore points, otherwise the work-balanced plan (PlanWorkCuts) over
/// the restore points and the grid points before the depth bound. The
/// prewalk runs only when a grid point can fall inside the scan or
/// nothing bounds its depth.
template <typename Db>
std::vector<ShardCut> PlanCuts(const Db& db, size_t begin,
                               size_t live_at_begin, const ScanCore& at_begin,
                               size_t k_max, bool early_termination,
                               const RestorePoints* restores,
                               size_t num_threads) {
  const size_t n = db.num_tuples();
  if (restores == nullptr || restores->cuts.empty()) {
    const GridWalk walk = CollectGridCuts(db, at_begin, begin, live_at_begin,
                                          k_max, early_termination, n,
                                          /*estimate=*/false);
    return PlanShardCuts(begin, live_at_begin, n, walk.grid, num_threads);
  }
  const size_t bound = std::min(restores->depth_bound, n);
  const size_t to_grid =
      kCountRefreshGridLive - live_at_begin % kCountRefreshGridLive;
  GridWalk walk;
  if (bound == n || bound > begin + to_grid) {
    walk = CollectGridCuts(db, at_begin, begin, live_at_begin, k_max,
                           early_termination, bound, /*estimate=*/true);
    // Without a bound the likely stop ends the work estimate.
    if (bound == n) walk.end = walk.likely;
  } else {
    // No grid point fits before the bound: the active count of the
    // deepest restore point at or above it stands in for the tail's.
    const auto past = std::upper_bound(
        restores->cuts.begin(), restores->cuts.end(), bound,
        [](size_t pos, const ShardCut& cut) { return pos < cut.pos; });
    walk.end = {bound, 0,
                past == restores->cuts.begin() ? at_begin.active
                                               : std::prev(past)->active};
  }
  std::vector<ShardCut> candidates;
  candidates.reserve(restores->cuts.size() + walk.grid.size());
  std::merge(restores->cuts.begin(), restores->cuts.end(), walk.grid.begin(),
             walk.grid.end(), std::back_inserter(candidates),
             [](const ShardCut& a, const ShardCut& b) { return a.pos < b.pos; });
  // Keep the candidates strictly inside the scan, one per position (a
  // restore point sorts ahead of a grid point at its position).
  size_t kept = 0;
  for (const ShardCut& cut : candidates) {
    if (cut.pos <= begin || cut.pos >= walk.end.pos) continue;
    if (kept > 0 && candidates[kept - 1].pos == cut.pos) continue;
    candidates[kept++] = cut;
  }
  candidates.resize(kept);
  const ShardCut start = {begin, live_at_begin, at_begin.active};
  return PlanWorkCuts(start, candidates, walk.end, n, num_threads);
}

/// One shard's private scan results: compact per-rung outputs indexed by
/// i - begin. A rung's scan_end is relative too: where its stop rule
/// first fired in this range (end - begin = never fired here), and the
/// length of what it emitted.
struct ShardResult {
  size_t begin = 0;
  size_t end = 0;
  size_t live_at_begin = 0;
  std::vector<PsrOutput> rungs;
};

/// One empty compact (range-indexed) output per rung of `outs`, copying
/// k / matrix flags from the shared outputs.
inline void InitShardOutputs(const std::vector<PsrOutput*>& outs,
                             ShardResult* result) {
  result->rungs.resize(outs.size());
  for (size_t j = 0; j < outs.size(); ++j) {
    PsrOutput& rung = result->rungs[j];
    rung.k = outs[j]->k;
    rung.best_rank_prob.assign(rung.k, 0.0);
    rung.best_rank_index.assign(rung.k, -1);
    rung.has_rank_probabilities = outs[j]->has_rank_probabilities;
  }
}

/// The sharded counterpart of RunLadderScan over the ACTIVE rungs `outs`
/// (shared outputs already cut back to `begin`, as the sequential
/// prologue leaves them). Plans the cuts (PlanCuts: grid points, plus
/// `restores` when given), pipelines boundary-bookkeeping hand-off with
/// shard dispatch on `pool`, merges stops/argmaxes and appends each
/// rung's live range, sizing it to the merged stop. Returns the number
/// of shards it ran, or 0 -- leaving outputs untouched -- when the range
/// does not justify sharding; the caller then runs the sequential loop.
///
/// `make_checkpoint_fn(s, num_shards)` is called on the orchestrating
/// thread, in shard order, and must return an independently usable
/// `void(const ScanCore&, size_t pos, size_t live)` snapshot hook for
/// shard s (hooks run concurrently, one per shard).
template <typename Db, typename MakeCheckpointFn>
size_t RunShardedLadderScan(const Db& db, size_t begin, size_t live_at_begin,
                            const PsrOptions& options, ThreadPool* pool,
                            const ScanCore& start_state,
                            const std::vector<PsrOutput*>& outs,
                            bool track_best,
                            MakeCheckpointFn&& make_checkpoint_fn,
                            const RestorePoints* restores = nullptr) {
  if (pool == nullptr || pool->num_threads() < 2 || ThreadPool::InWorker() ||
      outs.empty()) {
    return 0;
  }
  const size_t n = db.num_tuples();
  const std::vector<ShardCut> cuts =
      PlanCuts(db, begin, live_at_begin, start_state, outs.back()->k,
               options.early_termination, restores, pool->num_threads());
  if (cuts.empty()) return 0;
  const size_t num_shards = cuts.size() - 1;
  const size_t rungs = outs.size();

  std::vector<ShardResult> results(num_shards);
  {
    ThreadPool::TaskGroup group(pool);
    ScanCore walk = start_state;  // prewalk bookkeeping; c valid at begin
    size_t walked = begin;
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardCut& cut = cuts[s];
      ScanCore core;
      if (cut.restore != ShardCut::kGridCut) {
        core.kernel = start_state.kernel;  // the shard task restores it
      } else {
        // Hand-off: advance the cheap mass bookkeeping to this cut while
        // the already dispatched shards scan their ranges. The count
        // vector is left stale; the shard's first grid refresh rebuilds
        // it bit-for-bit as the sequential scan does at this ordinal.
        ForwardMasses(db, walked, cut.pos, &walk);
        walked = cut.pos;
        core = walk;
      }
      ShardResult& result = results[s];
      result.begin = cut.pos;
      result.end = cuts[s + 1].pos;
      result.live_at_begin = cut.live;
      group.Run([&db, &options, track_best, &result, restores,
                 restore = cut.restore, core = std::move(core),
                 checkpoint = make_checkpoint_fn(s, num_shards),
                 &outs]() mutable {
        // The sequential loop over the shard's range from the state at
        // its cut -- a restored checkpoint, or the mass bookkeeping at a
        // grid point, whose stale count vector the loop's first refresh
        // reconstitutes -- emitting into the compact outputs, whose
        // stops are relative to the shard's begin.
        if (restore != ShardCut::kGridCut) restores->restore(restore, &core);
        InitShardOutputs(outs, &result);
        std::vector<PsrOutput*> shard_outs;
        shard_outs.reserve(result.rungs.size());
        for (PsrOutput& out : result.rungs) shard_outs.push_back(&out);
        RunLadderScan(db, result.begin, result.end, result.live_at_begin,
                      /*emit_base=*/result.begin, options.early_termination,
                      core, shard_outs, /*first_active=*/0, track_best,
                      checkpoint);
      });
    }
    group.Wait();
  }

  // Per-rung stop merge: the first firing in shard order is the rank the
  // sequential scan would have stopped at (stops latch monotonically).
  // Every shard before it ran the rung to its end, so appending the
  // shards' rungs in order up to that one lays out [begin, stop).
  for (size_t j = 0; j < rungs; ++j) {
    PsrOutput& out = *outs[j];
    UCLEAN_DCHECK(out.topk_prob.size() == begin);
    size_t scan_end = n;
    for (const ShardResult& result : results) {
      const PsrOutput& rung = result.rungs[j];
      out.topk_prob.insert(out.topk_prob.end(), rung.topk_prob.begin(),
                           rung.topk_prob.end());
      out.rank_prob.insert(out.rank_prob.end(), rung.rank_prob.begin(),
                           rung.rank_prob.end());
      if (track_best) {
        // Strict > keeps the earliest attaining rank, exactly like the
        // sequential running tracker.
        for (size_t h = 0; h < out.k; ++h) {
          if (rung.best_rank_prob[h] > out.best_rank_prob[h]) {
            out.best_rank_prob[h] = rung.best_rank_prob[h];
            out.best_rank_index[h] = static_cast<int32_t>(
                rung.best_rank_index[h] + static_cast<int32_t>(result.begin));
          }
        }
      }
      if (result.begin + rung.scan_end < result.end) {
        scan_end = result.begin + rung.scan_end;  // emission ends here
        break;
      }
    }
    StopRung(scan_end, &out);
  }
  return num_shards;
}

/// One ladder scan from rank 0 over `db` into a fresh ScanResult: the
/// body of ComputePsrLadder and PsrEngine::ScanLadder. Sharded over
/// `exec`'s pool when the cut plan pays (at `restores` too, when given),
/// sequential otherwise; ScanResult::threads records which.
template <typename Db>
ScanResult ScanLadderFromRank0(const Db& db, const KLadder& ladder,
                               const PsrOptions& psr, const ExecOptions& exec,
                               const ScanKernel* kernel,
                               const RestorePoints* restores) {
  ScanResult result;
  result.kernel = kernel->kind;
  InitLadderOutputs(ladder, psr, &result.outputs);
  std::vector<PsrOutput*> outs;
  outs.reserve(result.outputs.size());
  for (PsrOutput& out : result.outputs) {
    out.num_tuples = db.num_tuples();
    outs.push_back(&out);
  }

  ScanCore core;
  core.Init(db.num_xtuples(), kernel);
  size_t shards = 0;
  if (exec.parallel()) {
    // Scans from rank 0 keep no checkpoints: the snapshot hook is a
    // no-op.
    const auto no_checkpoints = [](size_t, size_t) {
      return [](const ScanCore&, size_t, size_t) {};
    };
    shards = RunShardedLadderScan(db, 0, 0, psr, exec.pool.get(), core, outs,
                                  /*track_best=*/true, no_checkpoints,
                                  restores);
  }
  if (shards == 0) {
    RunLadderScan(db, 0, db.num_tuples(), 0, /*emit_base=*/0,
                  psr.early_termination, core, outs, /*first_active=*/0,
                  /*track_best=*/true, [](const ScanCore&, size_t, size_t) {});
  }
  result.threads =
      shards == 0 ? 1 : std::min(shards, exec.pool->num_threads());
  for (PsrOutput& out : result.outputs) {
    for (double p : out.topk_prob) out.num_nonzero += p > 0.0;
  }
  return result;
}

}  // namespace psr_internal
}  // namespace uclean

#endif  // UCLEAN_RANK_SHARDED_SCAN_H_
