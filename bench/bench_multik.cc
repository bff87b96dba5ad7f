// Measures multi-k PSR sharing: ONE ladder CleaningSession (shared scan,
// shared checkpoints, shared delta-TP omega pass) against two per-k
// baselines, on session start-up plus 20 cleaning rounds with identical
// outcome streams:
//
//  * "rescan" -- the literal per-k rerun: every round runs the one-shot
//    ComputePsr + TP pipeline once per rung (what bench_fig5_sharing and
//    the CLI did for a ladder of queries before this engine existed);
//  * "per_k sessions" -- the strong baseline: one single-k INCREMENTAL
//    CleaningSession per rung, each owning its own database copy, engine,
//    checkpoints and TP state.
//
// All arms must land on identical per-round qualities at every rung; the
// bench asserts that to 1e-9 (in practice the trajectories agree bitwise).
//
// The per-position count-vector work (the O(T) divide-out/multiply-in of
// psr_scan_core.h) is k-independent, so the shared scan's cost is close to
// the deepest rung's alone ("k_independence" below, ~1.0-1.5); what keeps
// the speedup under |ladder|x is the Lemma-2 stop, which ends small-k
// scans early and shrinks the work the per-k arms waste. The bench
// therefore reports ladders across that spectrum -- a wide geometric
// ladder (stop points spread ~3x, modest sharing), an arithmetic ladder,
// a dense top ladder (stop points nearly equal, sharing approaches
// |ladder|x), and an 8-rung Figure-5 "curve" ladder -- on the paper's
// unit-mass synthetic default and on a sub-unit-existence variant where
// x-tuples never saturate and the count vector (the shared part)
// dominates.
//
// Output: a per-series table on stdout and a machine-readable
// BENCH_multik.json gated by tools/check_bench.py in CI. The per-k
// rerun costs O(scan_end) per rung beside its scan (each rung holds only
// its live prefix), so the shared ladder's edge over it is what the
// scan itself shares: ~1.2-1.4x on the geometric ladders up to ~2.6-2.9x
// on the curve ladders (docs/BENCHMARKS.md), and the JSON records every
// series so the floors track each regime honestly.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/session.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr size_t kRounds = 20;
constexpr size_t kCleansPerRound = 3;
constexpr uint64_t kOutcomeSeed = 20260728;
constexpr double kQualityTol = 1e-9;

/// One round's pre-drawn clean outcomes (same stream for every arm).
using Round = std::vector<std::pair<XTupleId, TupleId>>;

/// Draws the outcome schedule once, untimed, by walking a scratch ladder
/// session: each round cleans kCleansPerRound x-tuples drawn uniformly
/// over those the scan reaches, resolved by their existential
/// distribution.
Result<std::vector<Round>> DrawOutcomeSchedule(const ProbabilisticDatabase& db,
                                               const KLadder& ladder) {
  Result<CleaningSession> session =
      CleaningSession::Start(ProbabilisticDatabase(db), ladder);
  if (!session.ok()) return session.status();
  Rng rng(kOutcomeSeed);
  std::vector<Round> schedule;
  for (size_t r = 0; r < kRounds; ++r) {
    Round round;
    // Draw uniformly over the x-tuples the deepest rung's scan reaches
    // (elsewhere a clean is a provable no-op): cleans land anywhere in the
    // scanned prefix, like an agent probing what users ask about, so
    // replays exercise the whole suffix-length spectrum.
    const TpOutput& tp = session->tp(session->num_rungs() - 1);
    for (size_t c = 0; c < kCleansPerRound; ++c) {
      std::vector<double> weights(tp.xtuple_topk_mass.size(), 0.0);
      for (size_t l = 0; l < weights.size(); ++l) {
        weights[l] = tp.xtuple_topk_mass[l] > 0.0 ? 1.0 : 0.0;
      }
      for (const auto& outcome : round) weights[outcome.first] = 0.0;
      double total = 0.0;
      for (size_t l = 0; l < weights.size(); ++l) {
        const auto& members =
            session->db().xtuple_members(static_cast<XTupleId>(l));
        if (members.size() == 1 &&
            session->db().tuple(members[0]).prob >= 1.0) {
          weights[l] = 0.0;  // already certain
        }
        total += weights[l];
      }
      if (total <= 0.0) break;
      const XTupleId l = static_cast<XTupleId>(rng.Discrete(weights));
      const auto& members = session->db().xtuple_members(l);
      std::vector<double> alt_weights;
      alt_weights.reserve(members.size());
      for (int32_t idx : members) {
        alt_weights.push_back(session->db().tuple(idx).prob);
      }
      const Tuple& revealed =
          session->db().tuple(members[rng.Discrete(alt_weights)]);
      round.emplace_back(l, revealed.id);
    }
    if (round.empty()) break;
    for (const auto& [xtuple, resolved] : round) {
      UCLEAN_RETURN_IF_ERROR(session->ApplyCleanOutcome(xtuple, resolved));
    }
    UCLEAN_RETURN_IF_ERROR(session->Refresh());
    schedule.push_back(std::move(round));
  }
  return schedule;
}

struct ArmResult {
  double create_ms = 0.0;
  double rounds_ms = 0.0;
  double total_ms() const { return create_ms + rounds_ms; }
  /// quality[round][rung], for the cross-arm equivalence check.
  std::vector<std::vector<double>> quality;
};

/// Shared arm: one ladder session serves every rung.
Result<ArmResult> RunShared(const ProbabilisticDatabase& db,
                            const KLadder& ladder,
                            const std::vector<Round>& schedule) {
  ArmResult arm;
  ProbabilisticDatabase copy(db);  // copied before the stopwatch starts
  Stopwatch create;
  Result<CleaningSession> session =
      CleaningSession::Start(std::move(copy), ladder);
  if (!session.ok()) return session.status();
  arm.create_ms = create.ElapsedMillis();

  Stopwatch rounds;
  for (const Round& round : schedule) {
    for (const auto& [xtuple, resolved] : round) {
      UCLEAN_RETURN_IF_ERROR(session->ApplyCleanOutcome(xtuple, resolved));
    }
    UCLEAN_RETURN_IF_ERROR(session->Refresh());
    std::vector<double> qualities;
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      qualities.push_back(session->quality(rung));
    }
    arm.quality.push_back(std::move(qualities));
  }
  arm.rounds_ms = rounds.ElapsedMillis();
  return arm;
}

/// One-shot PSR + TP quality at `k` over the cleaned view `current`.
Result<double> RescanQuality(const DatabaseOverlay& current, size_t k) {
  Result<ScanRequest> request = ScanRequest::ForK(k);
  if (!request.ok()) return request.status();
  request->overlay = &current;
  Result<ScanResult> scan = ComputePsrLadder(current.base(), *request);
  if (!scan.ok()) return scan.status();
  Result<TpOutput> tp = ComputeTpQuality(current, scan->output());
  if (!tp.ok()) return tp.status();
  return tp->quality;
}

/// Per-k rerun arm (the literal status quo for a ladder of queries, and
/// what bench_fig5_sharing measures per k): every round re-runs the full
/// one-shot ComputePsr + TP pipeline once per rung over the current
/// cleaned view.
Result<ArmResult> RunPerKRescan(const ProbabilisticDatabase& db,
                                const KLadder& ladder,
                                const std::vector<Round>& schedule) {
  ArmResult arm;
  Stopwatch create;
  DatabaseOverlay current(&db);
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    Result<double> quality = RescanQuality(current, ladder[rung]);
    if (!quality.ok()) return quality.status();
  }
  arm.create_ms = create.ElapsedMillis();

  Stopwatch rounds;
  for (const Round& round : schedule) {
    for (const auto& [xtuple, resolved] : round) {
      Result<DatabaseOverlay::CleanOutcomeDelta> delta =
          current.ApplyCleanOutcome(xtuple, resolved);
      if (!delta.ok()) return delta.status();
    }
    std::vector<double> qualities;
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      Result<double> quality = RescanQuality(current, ladder[rung]);
      if (!quality.ok()) return quality.status();
      qualities.push_back(*quality);
    }
    arm.quality.push_back(std::move(qualities));
  }
  arm.rounds_ms = rounds.ElapsedMillis();
  return arm;
}

/// Per-k session arm (the strong baseline): one single-k INCREMENTAL
/// session per rung, each with its own database copy, engine and TP
/// state, all fed the same outcomes.
Result<ArmResult> RunPerK(const ProbabilisticDatabase& db,
                          const KLadder& ladder,
                          const std::vector<Round>& schedule) {
  ArmResult arm;
  std::vector<ProbabilisticDatabase> copies(ladder.size(), db);
  Stopwatch create;
  std::vector<CleaningSession> sessions;
  sessions.reserve(ladder.size());
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    Result<CleaningSession> session =
        CleaningSession::Start(std::move(copies[rung]), ladder[rung]);
    if (!session.ok()) return session.status();
    sessions.push_back(std::move(session).value());
  }
  arm.create_ms = create.ElapsedMillis();

  Stopwatch rounds;
  for (const Round& round : schedule) {
    std::vector<double> qualities;
    for (CleaningSession& session : sessions) {
      for (const auto& [xtuple, resolved] : round) {
        UCLEAN_RETURN_IF_ERROR(session.ApplyCleanOutcome(xtuple, resolved));
      }
      UCLEAN_RETURN_IF_ERROR(session.Refresh());
      qualities.push_back(session.quality());
    }
    arm.quality.push_back(std::move(qualities));
  }
  arm.rounds_ms = rounds.ElapsedMillis();
  return arm;
}

struct Series {
  std::string workload;
  std::string ladder_name;
  KLadder ladder;
  ArmResult rescan;
  ArmResult per_k;
  ArmResult shared;
  double kmax_create_ms = 0.0;  // one single-kmax session, the floor
  double speedup_vs_rescan = 0.0;
  double speedup_vs_sessions = 0.0;
  double k_independence = 0.0;  // shared create / single-kmax create
  double max_quality_diff = 0.0;
  size_t rounds_run = 0;
};

std::string JsonKs(const KLadder& ladder) {
  std::string out = "[";
  for (size_t j = 0; j < ladder.size(); ++j) {
    if (j > 0) out += ", ";
    out += std::to_string(ladder[j]);
  }
  return out + "]";
}

Result<Series> RunSeries(const std::string& workload,
                         const std::string& ladder_name,
                         const ProbabilisticDatabase& db,
                         const KLadder& ladder) {
  Series series;
  series.workload = workload;
  series.ladder_name = ladder_name;
  series.ladder = ladder;

  Result<std::vector<Round>> schedule = DrawOutcomeSchedule(db, ladder);
  if (!schedule.ok()) return schedule.status();
  series.rounds_run = schedule->size();

  // Median-of-3 runs per arm; qualities are deterministic across reps.
  std::vector<double> rescan_totals, per_k_totals, shared_totals;
  for (int rep = 0; rep < 3; ++rep) {
    Result<ArmResult> rescan = RunPerKRescan(db, ladder, *schedule);
    if (!rescan.ok()) return rescan.status();
    Result<ArmResult> per_k = RunPerK(db, ladder, *schedule);
    if (!per_k.ok()) return per_k.status();
    Result<ArmResult> shared = RunShared(db, ladder, *schedule);
    if (!shared.ok()) return shared.status();
    rescan_totals.push_back(rescan->total_ms());
    per_k_totals.push_back(per_k->total_ms());
    shared_totals.push_back(shared->total_ms());
    series.rescan = std::move(rescan).value();
    series.per_k = std::move(per_k).value();
    series.shared = std::move(shared).value();
  }
  std::sort(rescan_totals.begin(), rescan_totals.end());
  std::sort(per_k_totals.begin(), per_k_totals.end());
  std::sort(shared_totals.begin(), shared_totals.end());
  const double rescan_median = rescan_totals[rescan_totals.size() / 2];
  const double per_k_median = per_k_totals[per_k_totals.size() / 2];
  const double shared_median = shared_totals[shared_totals.size() / 2];
  series.speedup_vs_rescan =
      shared_median > 0.0 ? rescan_median / shared_median : 0.0;
  series.speedup_vs_sessions =
      shared_median > 0.0 ? per_k_median / shared_median : 0.0;

  std::vector<double> kmax_create;
  for (int rep = 0; rep < 3; ++rep) {
    ProbabilisticDatabase copy(db);
    Stopwatch create;
    Result<CleaningSession> single =
        CleaningSession::Start(std::move(copy), ladder.max_k());
    kmax_create.push_back(create.ElapsedMillis());
    UCLEAN_CHECK(single.ok());
  }
  std::sort(kmax_create.begin(), kmax_create.end());
  series.kmax_create_ms = kmax_create[1];
  series.k_independence = series.kmax_create_ms > 0.0
                              ? series.shared.create_ms / series.kmax_create_ms
                              : 0.0;

  // Equivalence: all arms executed identical outcome streams, so every
  // rung's quality trajectory must agree.
  for (size_t r = 0; r < series.rounds_run; ++r) {
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      const double shared_q = series.shared.quality[r][rung];
      for (const double other :
           {series.per_k.quality[r][rung], series.rescan.quality[r][rung]}) {
        const double diff = shared_q - other;
        series.max_quality_diff =
            std::max(series.max_quality_diff, diff < 0.0 ? -diff : diff);
      }
    }
  }
  return series;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  SyntheticOptions unit_opts;  // paper default: 5K x-tuples x 10 tuples
  Result<ProbabilisticDatabase> unit = GenerateSynthetic(unit_opts);
  SyntheticOptions subunit_opts;
  subunit_opts.real_mass_min = 0.55;  // entities that may be absent: no
  subunit_opts.real_mass_max = 0.90;  // saturation, head-mass stop rule
  Result<ProbabilisticDatabase> subunit = GenerateSynthetic(subunit_opts);
  if (!unit.ok() || !subunit.ok()) {
    std::printf("generation failed: %s / %s\n",
                unit.status().ToString().c_str(),
                subunit.status().ToString().c_str());
    return 1;
  }

  struct LadderSpec {
    const char* name;
    std::vector<size_t> ks;
  };
  const std::vector<LadderSpec> ladders = {
      {"geometric", {5, 10, 25, 50}},
      {"arithmetic", {20, 30, 40, 50}},
      {"dense_top", {44, 46, 48, 50}},
      {"curve", {15, 20, 25, 30, 35, 40, 45, 50}},
  };

  bench::Banner(
      "Multi-k sharing",
      "one ladder session vs per-k one-shot reruns (the literal status "
      "quo) and vs per-k incremental sessions (the strong baseline); "
      "create + " +
          std::to_string(kRounds) +
          " cleaning rounds, identical outcome streams");
  bench::Header(
      "workload,ladder,rescan_total_ms,per_k_sessions_total_ms,"
      "shared_total_ms,speedup_vs_rescan,speedup_vs_sessions,"
      "k_independence,max_quality_diff");

  std::vector<Series> all;
  bool ok = true;
  for (const auto& [workload, db] :
       {std::pair<const char*, const ProbabilisticDatabase*>{"unit", &*unit},
        {"subunit", &*subunit}}) {
    for (const LadderSpec& spec : ladders) {
      Result<KLadder> ladder = KLadder::Of(spec.ks);
      UCLEAN_CHECK(ladder.ok());
      Result<Series> series = RunSeries(workload, spec.name, *db, *ladder);
      if (!series.ok()) {
        std::printf("series failed: %s\n",
                    series.status().ToString().c_str());
        return 1;
      }
      if (series->max_quality_diff > kQualityTol) {
        std::printf("MISMATCH %s/%s: per-rung qualities diverge by %.3e\n",
                    series->workload.c_str(), series->ladder_name.c_str(),
                    series->max_quality_diff);
        ok = false;
      }
      std::printf("%s,%s,%.3f,%.3f,%.3f,%.2f,%.2f,%.2f,%.3e\n",
                  series->workload.c_str(), series->ladder_name.c_str(),
                  series->rescan.total_ms(), series->per_k.total_ms(),
                  series->shared.total_ms(), series->speedup_vs_rescan,
                  series->speedup_vs_sessions, series->k_independence,
                  series->max_quality_diff);
      all.push_back(std::move(series).value());
    }
  }

  std::FILE* json = std::fopen("BENCH_multik.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_multik.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"multik\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 1,\n",
               bench::ResolvedKernelName());
  std::fprintf(json,
               "  \"workloads\": {\"unit\": \"synthetic 5Kx10 (paper "
               "default)\", \"subunit\": \"synthetic 5Kx10, existence mass "
               "U[0.55, 0.90]\"},\n");
  std::fprintf(json,
               "  \"rounds\": %zu, \"cleans_per_round\": %zu, "
               "\"outcome_seed\": %llu,\n",
               kRounds, kCleansPerRound,
               static_cast<unsigned long long>(kOutcomeSeed));
  std::fprintf(json, "  \"series\": [\n");
  for (size_t s = 0; s < all.size(); ++s) {
    const Series& x = all[s];
    std::fprintf(json,
                 "    {\"workload\": \"%s\", \"ladder_name\": \"%s\", "
                 "\"ladder\": %s, \"rounds_run\": %zu,\n",
                 x.workload.c_str(), x.ladder_name.c_str(),
                 JsonKs(x.ladder).c_str(), x.rounds_run);
    std::fprintf(json,
                 "     \"rescan_create_ms\": %.4f, \"per_k_create_ms\": "
                 "%.4f, \"shared_create_ms\": %.4f, \"kmax_create_ms\": "
                 "%.4f,\n",
                 x.rescan.create_ms, x.per_k.create_ms, x.shared.create_ms,
                 x.kmax_create_ms);
    std::fprintf(json,
                 "     \"rescan_rounds_ms\": %.4f, \"per_k_rounds_ms\": "
                 "%.4f, \"shared_rounds_ms\": %.4f,\n",
                 x.rescan.rounds_ms, x.per_k.rounds_ms, x.shared.rounds_ms);
    std::fprintf(json,
                 "     \"rescan_total_ms\": %.4f, \"per_k_total_ms\": %.4f, "
                 "\"shared_total_ms\": %.4f,\n",
                 x.rescan.total_ms(), x.per_k.total_ms(), x.shared.total_ms());
    std::fprintf(json,
                 "     \"speedup_vs_rescan\": %.4f, \"speedup_vs_sessions\": "
                 "%.4f, \"k_independence\": %.4f, "
                 "\"max_quality_diff\": %.3e}%s\n",
                 x.speedup_vs_rescan, x.speedup_vs_sessions,
                 x.k_independence, x.max_quality_diff,
                 s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_multik.json\n");
  return ok ? 0 : 1;
}
