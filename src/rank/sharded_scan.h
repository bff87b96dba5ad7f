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
// Shard cut points are exactly such grid points. The orchestrator runs
// the cheap mass prewalk from the start state, hands each shard the
// bookkeeping at its cut (the shard's first loop iteration performs the
// grid refresh, reconstituting the count vector bit-for-bit as the
// sequential scan does there), and dispatches shards pipelined: shard s
// scans while the prewalk advances to cut s+1. Every per-position
// operation inside a shard is then the exact op sequence of the
// sequential scan on the exact same state, so PARALLEL OUTPUT IS BITWISE
// EQUAL TO SEQUENTIAL OUTPUT for any shard/thread count (tests hold
// 1e-12; in practice the arrays match bit-for-bit).
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

/// A candidate cut: a live position whose live ordinal is a multiple of
/// kCountRefreshGridLive (a count-refresh grid point).
struct GridPoint {
  size_t pos = 0;
  size_t live = 0;
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

/// One cheap pass from (begin, live_at_begin) that collects the grid
/// points usable as shard cuts, stopping at a CONSERVATIVE estimate of
/// the k_max Lemma-2 stop: the first position where either k_max
/// x-tuples saturated (the stop fires there exactly) or the expected
/// contributor count mu clears k_max by a Chernoff margin that forces
/// the head mass below the stop threshold. The true stop can only be
/// EARLIER, so cuts planned inside the estimate never lose coverage --
/// shards past the true stop exit at their first position. Pass
/// early_termination=false to walk the whole range.
template <typename Db>
std::vector<GridPoint> CollectGridCuts(const Db& db, const ScanCore& at_begin,
                                       size_t begin, size_t live_at_begin,
                                       size_t k_max, bool early_termination) {
  std::vector<double> q(at_begin.q.begin(), at_begin.q.end());
  std::vector<uint8_t> saturated(q.size(), 0);
  size_t num_saturated = at_begin.saturated;
  double mu = static_cast<double>(num_saturated);
  for (size_t l = 0; l < q.size(); ++l) {
    if (at_begin.state[l] == XTupleState::kSaturated) {
      saturated[l] = 1;
    } else {
      mu += q[l];
    }
  }
  const double k = static_cast<double>(k_max);
  const size_t n = db.num_tuples();
  std::vector<GridPoint> grid;
  size_t live = live_at_begin;
  for (size_t i = begin; i < n; ++i) {
    if (early_termination) {
      if (num_saturated >= k_max) break;
      // exp(-(mu-k)^2 / 2mu) < 1e-15 once (mu-k)^2 > 72 mu.
      if (mu > k && (mu - k) * (mu - k) > mu * 72.0) break;
    }
    if (db.is_tombstone(i)) continue;
    if (live % kCountRefreshGridLive == 0 && i > begin) {
      grid.push_back({i, live});
    }
    const Tuple& t = db.tuple(i);
    const int32_t l = t.xtuple;
    if (!saturated[l]) {
      const double q_new = q[l] + t.prob;
      if (q_new >= kSaturationThreshold) {
        saturated[l] = 1;
        ++num_saturated;
        mu += 1.0 - q[l];
      } else {
        mu += t.prob;
      }
      q[l] = q_new;
    }
    ++live;
  }
  return grid;
}

/// Picks the shard boundaries: `begin` plus at most (max_shards - 1)
/// evenly spaced grid cuts plus `hard_end`, so no two cuts are closer
/// than the grid's kCountRefreshGridLive live tuples. Returns empty when
/// fewer than two shards result.
std::vector<GridPoint> PlanShardCuts(size_t begin, size_t live_at_begin,
                                     size_t hard_end,
                                     const std::vector<GridPoint>& grid,
                                     size_t num_threads);

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

/// Whether a scan that stops within `depth` rank positions can be cut:
/// RunShardedLadderScan cuts only at count-refresh grid points, the first
/// kCountRefreshGridLive live tuples deep, so a shallower scan runs whole
/// on one thread whatever its exec width, and a wider exec only adds the
/// parallel path's fixed costs. Callers that know a depth bound issue
/// such scans at width 1.
inline bool ScanDepthCanShard(size_t depth) {
  return depth > kCountRefreshGridLive;
}

/// The sharded counterpart of RunLadderScan over the ACTIVE rungs `outs`
/// (shared outputs already cut back to `begin`, as the sequential
/// prologue leaves them). Plans grid-aligned cuts, pipelines
/// boundary-bookkeeping hand-off with shard dispatch on `pool`, merges
/// stops/argmaxes and appends each rung's live range, sizing it to the
/// merged stop. Returns false -- leaving outputs untouched -- when the
/// range does not justify sharding; the caller then runs the sequential
/// loop.
///
/// `make_checkpoint_fn(s, num_shards)` is called on the orchestrating
/// thread, in shard order, and must return an independently usable
/// `void(const ScanCore&, size_t pos, size_t live)` snapshot hook for
/// shard s (hooks run concurrently, one per shard).
template <typename Db, typename MakeCheckpointFn>
bool RunShardedLadderScan(const Db& db, size_t begin, size_t live_at_begin,
                          const PsrOptions& options, ThreadPool* pool,
                          const ScanCore& start_state,
                          const std::vector<PsrOutput*>& outs,
                          bool track_best,
                          MakeCheckpointFn&& make_checkpoint_fn) {
  if (pool == nullptr || pool->num_threads() < 2 || ThreadPool::InWorker() ||
      outs.empty()) {
    return false;
  }
  const size_t n = db.num_tuples();
  const size_t k_max = outs.back()->k;
  const std::vector<GridPoint> grid = CollectGridCuts(
      db, start_state, begin, live_at_begin, k_max, options.early_termination);
  const std::vector<GridPoint> cuts =
      PlanShardCuts(begin, live_at_begin, n, grid, pool->num_threads());
  if (cuts.empty()) return false;
  const size_t num_shards = cuts.size() - 1;
  const size_t rungs = outs.size();

  std::vector<ShardResult> results(num_shards);
  {
    ThreadPool::TaskGroup group(pool);
    ScanCore walk = start_state;  // prewalk bookkeeping; c valid at begin
    for (size_t s = 0; s < num_shards; ++s) {
      if (s > 0) {
        // Hand-off: advance the cheap mass bookkeeping to this cut while
        // the already dispatched shards scan their ranges. The count
        // vector is left stale; the shard's first grid refresh rebuilds
        // it bit-for-bit as the sequential scan does at this ordinal.
        ForwardMasses(db, cuts[s - 1].pos, cuts[s].pos, &walk);
      }
      ShardResult& result = results[s];
      result.begin = cuts[s].pos;
      result.end = cuts[s + 1].pos;
      result.live_at_begin = cuts[s].live;
      group.Run([&db, &options, track_best, &result, core = walk,
                 checkpoint = make_checkpoint_fn(s, num_shards),
                 &outs]() mutable {
        // The sequential loop over the shard's range from the mass
        // bookkeeping at its cut (for every shard but the first the
        // count vector is stale; the cut is a grid point, so the loop's
        // first refresh reconstitutes it), emitting into the compact
        // outputs, whose stops are relative to the shard's begin.
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
  return true;
}

}  // namespace psr_internal
}  // namespace uclean

#endif  // UCLEAN_RANK_SHARDED_SCAN_H_
