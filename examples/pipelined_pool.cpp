// Pipelined concurrent cleaning: N analysts share one scan, and each
// round's per-analyst plan + probe steps run side by side on a thread
// pool.
//
// The walk-through mirrors the production serving shape:
//
//   1. SessionPool -- one base database, one checkpointed ladder scan;
//      each analyst gets a copy-on-write overlay session (opening one is
//      a memcpy, not a scan).
//   2. RunPipelinedCleaning with PipelineOptions::overlap -- each round
//      is one parallel step over the sessions: every session plans and
//      draws its probes (simulated here with a per-probe field latency)
//      against its own view on the executor; then the caller commits in
//      session order and one concurrent RefreshAll refreshes the round.
//   3. The serial reference (overlap = false) runs the same code on a
//      sequential executor: same qualities, same probe logs, same random
//      streams -- only the wall clock differs. The program exits 1 if
//      any analyst's spend, probe log or quality differs.
//
// See docs/ARCHITECTURE.md (layer map, overlay/fork semantics) and
// docs/BENCHMARKS.md (bench_pipeline measures this exact overlap).

#include <chrono>
#include <cstdio>
#include <vector>

#include "clean/pipeline.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "rank/psr.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

using namespace uclean;

namespace {

/// One full campaign: fresh pool, N sessions, the round loop.
Result<PipelineReport> RunCampaign(const ProbabilisticDatabase& db,
                                   const KLadder& ladder,
                                   const CleaningProfile& profile,
                                   size_t sessions, int64_t budget,
                                   bool overlap) {
  SessionPool::Options pool_options;
  pool_options.exec.num_threads = overlap ? 4 : 1;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, pool_options);
  if (!pool.ok()) return pool.status();

  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  for (size_t s = 0; s < sessions; ++s) {
    ids.push_back(pool->OpenSession());
    rngs.emplace_back(900 + s);  // per-session seeded stream
  }

  PipelineOptions options;
  options.overlap = overlap;
  options.max_rounds = 4;
  // Pretend every probe is a 200us field operation (a source lookup);
  // this latency, not the sub-millisecond state refresh, is what the
  // parallel step overlaps across sessions.
  options.probe.latency = std::chrono::microseconds(200);
  return RunPipelinedCleaning(&*pool, ids, profile, budget, &rngs, options);
}

}  // namespace

int main() {
  SyntheticOptions db_opts;
  db_opts.num_xtuples = 1200;
  db_opts.tuples_per_xtuple = 5;
  db_opts.seed = 2026;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(db_opts);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(db->num_xtuples());
  Result<KLadder> ladder = KLadder::Of({10, 25});
  if (!profile.ok() || !ladder.ok()) return 1;

  const size_t sessions = 6;
  const int64_t budget = 80;

  Stopwatch serial_timer;
  Result<PipelineReport> serial =
      RunCampaign(*db, *ladder, *profile, sessions, budget, false);
  const double serial_ms = serial_timer.ElapsedMillis();
  Stopwatch pipelined_timer;
  Result<PipelineReport> pipelined =
      RunCampaign(*db, *ladder, *profile, sessions, budget, true);
  const double pipelined_ms = pipelined_timer.ElapsedMillis();
  if (!serial.ok() || !pipelined.ok()) {
    std::printf("campaign failed: %s / %s\n",
                serial.status().ToString().c_str(),
                pipelined.status().ToString().c_str());
    return 1;
  }

  std::printf("%zu analysts, budget %lld each, 200us/probe field "
              "latency:\n  serial pool loop: %.1f ms\n  pipelined "
              "(4 threads): %.1f ms (%.1fx)\n\n",
              sessions, static_cast<long long>(budget), serial_ms,
              pipelined_ms,
              pipelined_ms > 0.0 ? serial_ms / pipelined_ms : 0.0);

  bool identical = true;
  for (size_t s = 0; s < sessions; ++s) {
    const PipelineSessionReport& a = serial->sessions[s];
    const PipelineSessionReport& b = pipelined->sessions[s];
    std::printf("  analyst %zu: spent %lld, %zu cleans over %zu rounds, "
                "final quality k=10: %.4f, k=25: %.4f\n",
                s, static_cast<long long>(b.spent), b.successes, b.rounds,
                b.final_quality[0], b.final_quality[1]);
    if (a.spent != b.spent || !(a.log == b.log) ||
        a.final_quality != b.final_quality) {
      identical = false;
    }
  }
  std::printf("\nper-analyst state %s across serial and pipelined runs\n",
              identical ? "IDENTICAL (bitwise)" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}
