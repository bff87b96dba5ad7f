#include "rank/sharded_scan.h"

#include <algorithm>

namespace uclean {
namespace psr_internal {

std::vector<GridPoint> PlanShardCuts(size_t begin, size_t live_at_begin,
                                     size_t hard_end,
                                     const std::vector<GridPoint>& grid,
                                     size_t num_threads) {
  if (grid.empty()) return {};
  // 4x oversubscription: per-position cost grows along the scan (more
  // active x-tuples), so equal-width shards are unequal work; extra
  // shards + dynamic claiming keep the tail from serializing.
  size_t shards = std::min(num_threads * 4, kMaxShardsPerScan);
  shards = std::min(shards, grid.size() + 1);
  if (shards < 2) return {};

  std::vector<GridPoint> cuts;
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

}  // namespace psr_internal
}  // namespace uclean
