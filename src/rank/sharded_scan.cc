#include "rank/sharded_scan.h"

#include <algorithm>

namespace uclean {
namespace psr_internal {

std::vector<ShardCut> PlanShardCuts(size_t begin, size_t live_at_begin,
                                    size_t hard_end,
                                    const std::vector<ShardCut>& grid,
                                    size_t num_threads) {
  if (grid.empty()) return {};
  // 4x oversubscription: per-position cost grows along the scan (more
  // active x-tuples), so equal-width shards are unequal work; extra
  // shards + dynamic claiming keep the tail from serializing.
  size_t shards = std::min(num_threads * 4, kMaxShardsPerScan);
  shards = std::min(shards, grid.size() + 1);
  if (shards < 2) return {};

  std::vector<ShardCut> cuts;
  cuts.reserve(shards + 1);
  cuts.push_back({begin, live_at_begin});
  size_t last_index = static_cast<size_t>(-1);
  for (size_t s = 1; s < shards; ++s) {
    // Evenly spaced over the collected grid; duplicates collapse when
    // the grid is sparser than the requested shard count.
    const size_t index = s * grid.size() / shards;
    if (index == last_index) continue;
    last_index = index;
    cuts.push_back(grid[index]);
  }
  cuts.push_back({hard_end, 0});  // end sentinel; live unused
  if (cuts.size() < 3) return {};
  return cuts;
}

std::vector<ShardCut> PlanWorkCuts(const ShardCut& start,
                                   const std::vector<ShardCut>& candidates,
                                   const ShardCut& end, size_t hard_end,
                                   size_t num_threads) {
  // Work up to each candidate: the active count, linear between samples,
  // summed over positions.
  const auto segment = [](const ShardCut& a, const ShardCut& b) {
    return 0.5 * static_cast<double>(b.pos - a.pos) *
           static_cast<double>(a.active + b.active);
  };
  std::vector<double> work(candidates.size());
  double total = 0.0;
  const ShardCut* prev = &start;
  for (size_t i = 0; i < candidates.size(); ++i) {
    total += segment(*prev, candidates[i]);
    work[i] = total;
    prev = &candidates[i];
  }
  total += segment(*prev, end);
  const size_t shards =
      std::min({num_threads, kMaxShardsPerScan, candidates.size() + 1,
                static_cast<size_t>(total / kMinShardWork)});
  if (shards < 2) return {};

  std::vector<ShardCut> cuts;
  cuts.reserve(shards + 1);
  cuts.push_back(start);
  double cut_work = 0.0;
  size_t next = 0;  // first candidate not yet passed
  for (size_t s = 1; s < shards && next < candidates.size(); ++s) {
    // The candidate nearest the shard's share of the total, past the
    // previous cut.
    const double target = total * static_cast<double>(s) /
                          static_cast<double>(shards);
    size_t i = static_cast<size_t>(
        std::lower_bound(work.begin() + next, work.end(), target) -
        work.begin());
    if (i == work.size() ||
        (i > next && target - work[i - 1] < work[i] - target)) {
      --i;
    }
    if (work[i] - cut_work < kMinShardWork || total - work[i] < kMinShardWork) {
      continue;
    }
    cuts.push_back(candidates[i]);
    cut_work = work[i];
    next = i + 1;
  }
  cuts.push_back({hard_end, 0});  // end sentinel; live unused
  if (cuts.size() < 3) return {};
  return cuts;
}

}  // namespace psr_internal
}  // namespace uclean
