// uclean_cli: command-line front end for the uclean library.
//
// Subcommands (all I/O through the CSV formats of model/csv_io.h and
// clean/profile_io.h):
//
//   generate  synthesize a probabilistic database (synthetic or MOV)
//   profile   synthesize a cleaning profile (costs + sc-probabilities)
//   inspect   print a database summary
//   query     run U-kRanks / PT-k / Global-topk
//   quality   compute PWS-quality (tp | pwr | pw | mc)
//   plan      plan a cleaning campaign (dp | greedy | randp | randu)
//   clean     plan and execute a campaign, write the cleaned database
//   target    minimal budget to reach a quality target
//   snapshot  save / load / inspect a binary pool snapshot (store/)
//   serve     persistent request loop over a warm pool (serve/)
//
// query, quality --algo tp, clean, snapshot save and serve all run on one
// SessionPool, built in one place (OpenPool): a fresh Create over --db at
// the --k/--k-ladder rungs, or a zero-scan warm start from --snapshot.
// query prints one format for every source and flag set, read from the
// pool's shared PSR state; quality reads the pool's TP ladder; clean runs
// one pooled session (one-shot) or the pipelined session loop
// (--adaptive). A corrupt or truncated snapshot exits with code 3 (data
// loss), not 1.
//
// Run `uclean_cli help` or any subcommand with missing flags for usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/pipeline.h"
#include "clean/planners.h"
#include "clean/profile_io.h"
#include "clean/session_pool.h"
#include "clean/target.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "extend/monte_carlo.h"
#include "model/csv_io.h"
#include "pworld/pw_quality.h"
#include "quality/pwr.h"
#include "query/topk_queries.h"
#include "rank/kernel.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/mov.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr char kUsage[] =
    R"(uclean_cli -- probabilistic top-k queries, quality and cleaning

usage: uclean_cli <command> [--flag value ...]

commands:
  generate --type synthetic|mov --out DB.csv
           [--xtuples N] [--bars B] [--sigma S] [--pdf gaussian|uniform]
           [--mass-lo 1] [--mass-hi 1] [--seed S]
  profile  --xtuples N --out PROFILE.csv
           [--cost-min 1] [--cost-max 10]
           [--sc-pdf uniform|normal] [--sc-lo 0] [--sc-hi 1]
           [--sc-mean 0.5] [--sc-sigma 0.167] [--seed S]
  inspect  --db DB.csv [--rows 20]
  query    POOL [--semantics all|ptk|ukranks|global] [--threshold 0.1]
  quality  POOL [--algo tp]
  quality  --db DB.csv --k K --algo pwr|pw|mc [--samples 100000] [--seed S]
  plan     --db DB.csv --profile PROFILE.csv --k K --budget C
           [--planner dp|greedy|randp|randu] [--seed S]
  clean    POOL --profile PROFILE.csv --budget C --out OUT.csv
           [--planner dp|greedy|randp|randu] [--seed S] [--adaptive]
           [--sessions N] [--pipeline] [--probe-latency-us U]
           [--probe-fail-rate R] [--probe-timeout-us U] [--retry-max N]
           [--retry-backoff-us U] [--breaker-threshold N]
  target   --db DB.csv --profile PROFILE.csv --k K --target Q
           [--max-budget 100000]
  snapshot save POOL --out SNAP.bin [--sessions N]
  snapshot load --snapshot SNAP.bin
           [--threads N|auto] [--kernel scalar|avx2|auto]
  snapshot inspect --snapshot SNAP.bin
  serve    POOL [--profile PROFILE.csv] [--batch on|off]
           [--max-batch 64] [--seed S]

POOL is the session pool a command runs on, opened the same way for
every command that takes one:
           --db DB.csv (--k K | --k-ladder K1,K2,...) | --snapshot SNAP.bin
           [--threads N|auto] [--kernel scalar|avx2|auto]
--db runs one shared PSR scan + TP pass over the database; --snapshot
warm-starts from the file with zero scans and serves the file's ladder.
query prints, per k: the count of tuples with nonzero top-k probability,
then the PT-k, U-kRanks and Global-topk answers with their
probabilities -- the same lines for every source and flag set. quality
prints `k = K: Q` per k. An integer flag outside its range is an error
that names the range; a flag the command does not take is an error that
names the flag and the command.

--k-ladder serves every listed k from ONE shared PSR scan (query and
quality report per-k results; cleaning plans against the uniform ladder
aggregate). Input that is not ascending and deduped is normalized with a
printed note. --k is ignored when --k-ladder is given.

clean without --adaptive plans once, executes the plan and writes the
result (the paper's one-shot campaign, in one pooled session). With
--adaptive it re-plans each round from the refreshed state until the
budget is spent; --sessions N runs N concurrent adaptive sessions over
ONE shared scan: each session plans and probes its own copy-on-write
view with the full budget; session 0's cleaned database is written to
--out.

--threads N runs the PSR scans, replays and TP passes on N threads
(rank-range sharded over one fixed-size pool; results are identical to
--threads 1). `auto` uses the machine's hardware concurrency. With
--sessions, dirty sessions also refresh concurrently.

--kernel picks the scan compute kernel: `scalar` (portable), `avx2`
(vectorized; rejected when this machine or build lacks AVX2) or `auto`
(the default: AVX2 whenever available). Every kernel is bitwise equal
to every other, so the choice -- like --threads -- never changes a
result, only throughput.

--pipeline (with --adaptive) runs each round's per-session steps on the
--threads executor: every session plans and draws its probes against its
own view concurrently, then one concurrent RefreshAll commits the round.
Per-session results are bitwise identical to the serial pool loop.
--probe-latency-us (with --adaptive) simulates per-probe field latency
(source lookups, sensors, people) -- the regime the pipeline is built
for; it moves no random draw.

--probe-fail-rate R (with --adaptive) makes each probe attempt fail with
probability R, drawn from a dedicated seeded fault stream (at R = 0 every
run is bitwise identical to a fault-free one). Failed attempts retry up
to --retry-max times with exponential backoff from --retry-backoff-us
(simulated); --probe-timeout-us bounds each probe's total simulated time;
--breaker-threshold consecutive failed probes trip a per-source circuit
breaker the planner then routes around. Failed probes never spend budget
-- the adaptive loop reinvests it in sources that still answer.

snapshot save persists the whole serving pool (database, engine scan
state, sessions) to a versioned, checksummed binary file. snapshot load
-- and --snapshot SNAP.bin in place of --db on every POOL command --
warm-starts from that file with ZERO scans and bitwise-identical state;
the k-ladder comes from the file, so --k/--k-ladder are rejected there.
--threads/--kernel remain the LOADER's choice -- execution mode is never
persisted. snapshot inspect prints the section table and the file's
bytes per tuple after verifying every checksum. Any corrupt, truncated
or version-mismatched snapshot exits with code 3 (data loss) instead of
the generic 1.

serve turns stdin/stdout into one serving-protocol connection over a warm
session pool: one request per line (`topk K`, `quality K`, `clean X`,
`stats`), one `ok`/`error` reply line per request, EOF ends the session.
A k on the pool's ladder replays the client's maintained rung; any other
k from a client that has not cleaned joins its admission round's one
shared scan (--batch off scans each request alone, --max-batch caps the
sharing). Answers are bitwise identical either way; each reply's
`exec= batch= threads=` says what ran. clean requests need --profile.
Flag-resolution notes print before the first reply; every reply line
starts with `ok ` or `error `.
)";

/// Minimal --key value flag map.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --flag, got '" +
                                       std::string(arg) + "'");
      }
      std::string key(arg.substr(2));
      if (flags.Has(key)) {  // a repeated flag must not silently win
        return Status::InvalidArgument("flag --" + key + " given twice");
      }
      if (key == "adaptive" || key == "pipeline") {  // boolean flags
        flags.values_[key] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + key + " needs a value");
      }
      flags.values_[key] = argv[++i];
    }
    return flags;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Fails on the first flag outside `known`, naming it and `command`: a
  /// misspelled or dropped flag must stop the command before it does any
  /// work, not be silently ignored.
  Status RejectUnknown(std::string_view command,
                       const std::vector<std::string_view>& known) const {
    for (const auto& entry : values_) {
      if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
        return Status::InvalidArgument(std::string(command) +
                                       " does not take --" + entry.first);
      }
    }
    return Status::OK();
  }

  Result<std::string> GetString(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + key);
    }
    return it->second;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The one reader of integer flags: `key` must hold an integer in
  /// [lo, hi], and an absent flag yields `fallback` (an error when there
  /// is none). Callers cast the value to size_t or uint64_t, so a value
  /// outside the range must fail here rather than wrap into a huge count.
  Result<int64_t> GetInt(const std::string& key, int64_t lo, int64_t hi,
                         std::optional<int64_t> fallback = std::nullopt) const {
    if (!Has(key) && fallback.has_value()) return *fallback;
    Result<std::string> raw = GetString(key);
    if (!raw.ok()) return raw.status();
    Result<int64_t> value = ParseInt(*raw);
    if (!value.ok() || *value < lo || *value > hi) {
      return Status::InvalidArgument(
          "bad --" + key + " '" + *raw + "': expected an integer in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return value;
  }

  Result<double> GetDouble(const std::string& key) const {
    Result<std::string> raw = GetString(key);
    if (!raw.ok()) return raw.status();
    return ParseDouble(*raw);
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) return fallback;
    return GetDouble(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

#define CLI_ASSIGN_OR_RETURN(decl, expr)      \
  auto decl##_result = (expr);                \
  if (!decl##_result.ok()) {                  \
    return decl##_result.status();            \
  }                                           \
  auto decl = std::move(decl##_result).value()

// Integer flag ranges (Flags::GetInt).
constexpr int64_t kMinInt = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
/// Bound on x-tuple counts (the range of XTupleId), reused for the other
/// per-database counts: tuples per x-tuple and probe costs.
constexpr int64_t kMaxCount = std::numeric_limits<XTupleId>::max();
/// The serving protocol's bound on k: scans allocate O(k) per rung.
constexpr int64_t kMaxK = 10'000'000;
constexpr int64_t kMaxMicros = 60'000'000;
constexpr int64_t kMaxSessions = 100'000;

/// Parses "--k-ladder 5,10,25,50" (falling back to a one-rung ladder at
/// --k when absent) into a validated KLadder. Every entry must be an
/// integer in [1, kMaxK] -- empty entries (trailing or doubled commas),
/// negatives and values past the bound are rejected with a pointed message
/// instead of being wrapped or dropped. When KLadder::Of had to reorder
/// or dedup the input, the normalization is announced: every downstream
/// consumer serves the NORMALIZED ladder, and silently printing results
/// in an order the user did not ask for misattributes every per-k line.
Result<KLadder> ParseKLadder(const Flags& flags) {
  if (!flags.Has("k-ladder")) {
    CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k", 1, kMaxK));
    return KLadder::Of({static_cast<size_t>(k)});
  }
  CLI_ASSIGN_OR_RETURN(raw, flags.GetString("k-ladder"));
  std::vector<size_t> ks;
  for (const std::string& part : SplitString(raw, ',')) {
    const std::string_view stripped = StripWhitespace(part);
    if (stripped.empty()) {
      return Status::InvalidArgument(
          "bad --k-ladder '" + raw +
          "': empty entry (trailing or doubled comma?)");
    }
    Result<int64_t> k = ParseInt(stripped);
    if (!k.ok() || *k < 1 || *k > kMaxK) {
      return Status::InvalidArgument(
          "bad --k-ladder entry '" + std::string(stripped) +
          "': every k must be an integer in [1, " + std::to_string(kMaxK) +
          "]");
    }
    ks.push_back(static_cast<size_t>(*k));
  }
  Result<KLadder> ladder = KLadder::Of(ks);
  if (ladder.ok() && ladder->ks != ks) {
    std::printf("note: --k-ladder %s normalized to %s; all per-k output "
                "follows the normalized (ascending, deduped) order\n",
                raw.c_str(), ladder->ToString().c_str());
  }
  return ladder;
}

/// Parses "--threads N|auto" into resolved ExecOptions (pool built here,
/// shared by every downstream consumer of the command). Absent flag =
/// the sequential default. Every explicit value is validated -- zero,
/// negatives, non-numbers and anything past ThreadPool::kMaxThreads
/// (including int64 overflow) are rejected with a pointed message -- and
/// the RESOLVED count is announced in the --k-ladder normalization
/// style, because `auto` picks a machine-dependent value the user never
/// typed and downstream timings are meaningless without it.
Result<ExecOptions> ParseThreads(const Flags& flags) {
  ExecOptions exec;
  if (!flags.Has("threads")) return exec;
  CLI_ASSIGN_OR_RETURN(raw, flags.GetString("threads"));
  if (raw == "auto") {
    const unsigned hw = std::thread::hardware_concurrency();
    exec.num_threads = hw == 0 ? 1 : static_cast<size_t>(hw);
    // hardware_concurrency() can legitimately report more cores than
    // the pool supports; clamp instead of rejecting a value the user
    // never chose.
    exec.num_threads = std::min(exec.num_threads, ThreadPool::kMaxThreads);
  } else {
    Result<int64_t> parsed = ParseInt(raw);
    if (!parsed.ok() || *parsed <= 0 ||
        *parsed > static_cast<int64_t>(ThreadPool::kMaxThreads)) {
      return Status::InvalidArgument(
          "bad --threads '" + raw + "': expected a positive integer <= " +
          std::to_string(ThreadPool::kMaxThreads) + " or 'auto'");
    }
    exec.num_threads = static_cast<size_t>(*parsed);
  }
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  if (!resolved.ok()) return resolved.status();
  std::printf("note: --threads %s resolved to %zu thread%s%s\n", raw.c_str(),
              resolved->num_threads, resolved->num_threads == 1 ? "" : "s",
              resolved->num_threads == 1
                  ? " (sequential execution)"
                  : " (rank-range sharded scans on one shared pool)");
  return resolved;
}

/// Parses "--kernel scalar|avx2|auto" into a KernelKind, resolving the
/// concrete kernel NOW so an impossible ask (--kernel avx2 on a machine
/// or build without AVX2) fails at the flag instead of deep inside the
/// first scan, and so the machine-dependent `auto` resolution can be
/// announced in the --threads style. Every kernel is bitwise equal to
/// every other, so the flag -- like --threads -- never changes results.
Result<KernelKind> ParseKernel(const Flags& flags) {
  const std::string raw = flags.GetString("kernel", "auto");
  KernelKind kind;
  if (raw == "auto") {
    kind = KernelKind::kAuto;
  } else if (raw == "scalar") {
    kind = KernelKind::kScalar;
  } else if (raw == "avx2") {
    kind = KernelKind::kAvx2;
  } else {
    return Status::InvalidArgument("bad --kernel '" + raw +
                                   "': expected scalar, avx2 or auto");
  }
  Result<const psr_internal::ScanKernel*> kernel = SelectScanKernel(kind);
  if (!kernel.ok()) return kernel.status();
  if (flags.Has("kernel")) {
    std::printf("note: --kernel %s resolved to the %s scan kernel\n",
                raw.c_str(), (*kernel)->name);
  }
  return kind;
}

/// The --threads/--kernel pair: the executor every scan, replay and TP
/// pass runs on, with the kernel folded into exec.kernel.
Result<ExecOptions> ParseExec(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(exec, ParseThreads(flags));
  CLI_ASSIGN_OR_RETURN(kernel, ParseKernel(flags));
  exec.kernel = kernel;
  return exec;
}

/// The execution options a snapshot loader picks for itself. The k-ladder
/// is the one flag a snapshot consumer must NOT pass -- the ladder is
/// logical state and comes from the file -- so the mismatch is rejected
/// with a pointed message instead of being silently overridden.
Result<ExecOptions> ParseSnapshotExec(const Flags& flags) {
  if (flags.Has("k") || flags.Has("k-ladder")) {
    return Status::InvalidArgument(
        "--snapshot serves the snapshot's own k-ladder; drop "
        "--k/--k-ladder (use `snapshot save` to build a different ladder)");
  }
  return ParseExec(flags);
}

/// The one place the CLI builds or loads a SessionPool (POOL in the usage
/// text). --db runs the one shared scan + TP pass at the --k/--k-ladder
/// rungs; --snapshot reconstructs the saved pool, ladder included, with
/// zero scans. --threads/--kernel are the executor either way. The
/// warm-start note goes to stderr, so stdout is the same for both sources
/// and stays protocol-only under `serve`.
Result<SessionPool> OpenPool(const Flags& flags) {
  SessionPool::Options options;
  if (flags.Has("snapshot")) {
    CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
    CLI_ASSIGN_OR_RETURN(exec, ParseSnapshotExec(flags));
    options.exec = std::move(exec);
    Result<SessionPool> pool = SessionPool::OpenFromSnapshot(path, options);
    if (pool.ok()) {
      std::fprintf(stderr,
                   "warm start: pool reconstructed from %s (zero scans)\n",
                   path.c_str());
    }
    return pool;
  }
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(ladder, ParseKLadder(flags));
  CLI_ASSIGN_OR_RETURN(exec, ParseExec(flags));
  options.exec = std::move(exec);
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  return SessionPool::Create(std::move(*db), ladder, options);
}

/// "{5, 20}" for a raw meta ladder (KLadder::ToString's format, without
/// constructing a KLadder from possibly-foreign bytes).
std::string LadderToString(const std::vector<size_t>& ks) {
  std::string out = "{";
  for (size_t i = 0; i < ks.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ks[i]);
  }
  return out + "}";
}

/// Parses the fault-injection flags into a FaultOptions. Injection is
/// enabled by passing ANY of them; the fault stream is seeded off --seed
/// decorrelated from the probe Rng (same seed value in two mt19937_64
/// engines means identical raw streams, and fault draws must not echo
/// probe draws).
Result<FaultOptions> ParseFaultOptions(const Flags& flags, uint64_t seed) {
  FaultOptions fault;
  fault.enabled = flags.Has("probe-fail-rate") ||
                  flags.Has("probe-timeout-us") || flags.Has("retry-max") ||
                  flags.Has("retry-backoff-us") ||
                  flags.Has("breaker-threshold");
  if (!fault.enabled) return fault;

  CLI_ASSIGN_OR_RETURN(fail_rate, flags.GetDouble("probe-fail-rate", 0.0));
  if (!(fail_rate >= 0.0 && fail_rate <= 1.0)) {
    return Status::InvalidArgument(
        "bad --probe-fail-rate '" + flags.GetString("probe-fail-rate", "") +
        "': expected a probability in [0, 1]");
  }
  CLI_ASSIGN_OR_RETURN(timeout_us,
                       flags.GetInt("probe-timeout-us", 0, kMaxMicros, 0));
  CLI_ASSIGN_OR_RETURN(retry_max, flags.GetInt("retry-max", 1, 1000, 3));
  CLI_ASSIGN_OR_RETURN(backoff_us,
                       flags.GetInt("retry-backoff-us", 0, kMaxMicros, 100));
  CLI_ASSIGN_OR_RETURN(threshold,
                       flags.GetInt("breaker-threshold", 1, 1000000, 5));

  fault.profile.fail_rate = fail_rate;
  fault.retry.probe_deadline_us = timeout_us;
  fault.retry.max_attempts = retry_max;
  fault.retry.backoff_us = backoff_us;
  fault.breaker.threshold = threshold;
  fault.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  return fault;
}

/// One-line fault summary, printed only when injection is on.
void PrintFaultStats(const char* prefix, const FaultStats& f) {
  std::printf(
      "%sfaults: %lld faulted attempts (%lld transient, %lld timeout, "
      "%lld source-down), %lld retries, %lld failed probes, "
      "%lld breaker skips, %lld deadline skips, %lld budget unspent\n",
      prefix, static_cast<long long>(f.FaultedAttempts()),
      static_cast<long long>(f.transient),
      static_cast<long long>(f.timeouts),
      static_cast<long long>(f.source_down),
      static_cast<long long>(f.retries),
      static_cast<long long>(f.failed_probes),
      static_cast<long long>(f.breaker_skips),
      static_cast<long long>(f.deadline_skips),
      static_cast<long long>(f.budget_unspent));
}

Status RunGenerate(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(type, flags.GetString("type"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 42));
  Result<ProbabilisticDatabase> db = ProbabilisticDatabase();
  if (type == "synthetic") {
    SyntheticOptions opts;
    CLI_ASSIGN_OR_RETURN(xtuples,
                         flags.GetInt("xtuples", 1, kMaxCount, 5000));
    CLI_ASSIGN_OR_RETURN(bars, flags.GetInt("bars", 1, kMaxCount, 10));
    CLI_ASSIGN_OR_RETURN(sigma, flags.GetDouble("sigma", 100.0));
    CLI_ASSIGN_OR_RETURN(mass_lo, flags.GetDouble("mass-lo", 1.0));
    CLI_ASSIGN_OR_RETURN(mass_hi, flags.GetDouble("mass-hi", 1.0));
    opts.num_xtuples = static_cast<size_t>(xtuples);
    opts.tuples_per_xtuple = static_cast<size_t>(bars);
    opts.sigma = sigma;
    opts.real_mass_min = mass_lo;
    opts.real_mass_max = mass_hi;
    opts.seed = static_cast<uint64_t>(seed);
    const std::string pdf = flags.GetString("pdf", "gaussian");
    if (pdf == "uniform") {
      opts.pdf = UncertaintyPdf::kUniform;
    } else if (pdf != "gaussian") {
      return Status::InvalidArgument("unknown --pdf '" + pdf + "'");
    }
    db = GenerateSynthetic(opts);
  } else if (type == "mov") {
    MovOptions opts;
    CLI_ASSIGN_OR_RETURN(xtuples,
                         flags.GetInt("xtuples", 1, kMaxCount, 4999));
    opts.num_xtuples = static_cast<size_t>(xtuples);
    opts.seed = static_cast<uint64_t>(seed);
    db = GenerateMov(opts);
  } else {
    return Status::InvalidArgument("unknown --type '" + type + "'");
  }
  if (!db.ok()) return db.status();
  UCLEAN_RETURN_IF_ERROR(WriteDatabaseCsvFile(*db, out));
  std::printf("wrote %zu x-tuples / %zu tuples to %s\n", db->num_xtuples(),
              db->num_real_tuples(), out.c_str());
  return Status::OK();
}

Status RunProfile(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(xtuples, flags.GetInt("xtuples", 0, kMaxCount));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CleaningProfileOptions opts;
  CLI_ASSIGN_OR_RETURN(cost_min, flags.GetInt("cost-min", 1, kMaxCount, 1));
  CLI_ASSIGN_OR_RETURN(cost_max, flags.GetInt("cost-max", 1, kMaxCount, 10));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 99));
  opts.cost_min = cost_min;
  opts.cost_max = cost_max;
  opts.seed = static_cast<uint64_t>(seed);
  const std::string pdf = flags.GetString("sc-pdf", "uniform");
  CLI_ASSIGN_OR_RETURN(lo, flags.GetDouble("sc-lo", 0.0));
  CLI_ASSIGN_OR_RETURN(hi, flags.GetDouble("sc-hi", 1.0));
  if (pdf == "uniform") {
    opts.sc_pdf = ScPdf::Uniform(lo, hi);
  } else if (pdf == "normal") {
    CLI_ASSIGN_OR_RETURN(mean, flags.GetDouble("sc-mean", 0.5));
    CLI_ASSIGN_OR_RETURN(sigma, flags.GetDouble("sc-sigma", 0.167));
    opts.sc_pdf = ScPdf::TruncatedNormal(mean, sigma, lo, hi);
  } else {
    return Status::InvalidArgument("unknown --sc-pdf '" + pdf + "'");
  }
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(static_cast<size_t>(xtuples), opts);
  if (!profile.ok()) return profile.status();
  UCLEAN_RETURN_IF_ERROR(WriteProfileCsvFile(*profile, out));
  std::printf("wrote cleaning profile for %lld x-tuples to %s\n",
              static_cast<long long>(xtuples), out.c_str());
  return Status::OK();
}

Status RunInspect(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(rows, flags.GetInt("rows", 0, kMaxInt, 20));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  std::printf("%s", db->DebugString(static_cast<size_t>(rows)).c_str());
  double min_mass = 1.0, max_mass = 0.0;
  for (size_t l = 0; l < db->num_xtuples(); ++l) {
    const double mass = db->xtuple_real_mass(static_cast<XTupleId>(l));
    min_mass = std::min(min_mass, mass);
    max_mass = std::max(max_mass, mass);
  }
  std::printf("x-tuple real mass range: [%.4f, %.4f]; possible worlds: "
              "%.3e\n",
              min_mass, max_mass, db->NumPossibleWorlds());
  return Status::OK();
}

/// `query`: the requested answers for every rung of the pool's ladder,
/// read from the shared engine state (for a --snapshot pool, a zero-scan
/// read of what the writer scanned).
Status RunQuery(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(threshold, flags.GetDouble("threshold", 0.1));
  const std::string semantics = flags.GetString("semantics", "all");
  const bool ukranks = semantics == "all" || semantics == "ukranks";
  const bool ptk = semantics == "all" || semantics == "ptk";
  const bool global_topk = semantics == "all" || semantics == "global";
  if (!ukranks && !ptk && !global_topk) {
    return Status::InvalidArgument("unknown --semantics '" + semantics + "'");
  }
  CLI_ASSIGN_OR_RETURN(pool, OpenPool(flags));
  const ProbabilisticDatabase& db = pool.base();
  std::printf("k-ladder %s from one shared PSR scan:\n",
              pool.ladder().ToString().c_str());
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    const size_t k = pool.ladder()[rung];
    const PsrOutput& psr = pool.base_psr(rung);
    std::printf("-- k = %zu (%zu tuples with nonzero top-k probability)\n", k,
                psr.num_nonzero);
    if (ptk) {
      Result<PtkAnswer> answer = EvaluatePtk(db, psr, threshold);
      if (!answer.ok()) return answer.status();
      std::printf("PT-%zu (T = %.3f): %zu tuples\n", k, threshold,
                  answer->tuples.size());
      for (const AnswerEntry& e : answer->tuples) {
        std::printf("  tuple %lld  score %.4f  Pr[top-k] = %.4f\n",
                    static_cast<long long>(e.tuple_id),
                    db.tuple(e.rank_index).score, e.probability);
      }
    }
    if (ukranks) {
      const UkRanksAnswer answer = EvaluateUkRanks(db, psr);
      std::printf("U-kRanks:\n");
      for (size_t h = 1; h <= answer.per_rank.size(); ++h) {
        const AnswerEntry& e = answer.per_rank[h - 1];
        std::printf("  rank %zu: tuple %lld (Pr = %.4f)\n", h,
                    static_cast<long long>(e.tuple_id), e.probability);
      }
    }
    if (global_topk) {
      const GlobalTopkAnswer answer = EvaluateGlobalTopk(db, psr);
      std::printf("Global-topk:\n");
      for (const AnswerEntry& e : answer.tuples) {
        std::printf("  tuple %lld  Pr[top-k] = %.4f\n",
                    static_cast<long long>(e.tuple_id), e.probability);
      }
    }
  }
  return Status::OK();
}

/// `quality`: --algo tp reads the pool's base TP ladder (one shared scan,
/// or none for --snapshot); pwr, pw and mc recompute from --db at --k.
Status RunQuality(const Flags& flags) {
  const std::string algo = flags.GetString("algo", "tp");
  if (algo == "tp") {
    CLI_ASSIGN_OR_RETURN(pool, OpenPool(flags));
    std::printf("PWS-quality (TP, one shared scan for k-ladder %s):\n",
                pool.ladder().ToString().c_str());
    for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
      std::printf("  k = %zu: %.6f\n", pool.ladder()[rung],
                  pool.base_tp(rung).quality);
    }
    return Status::OK();
  }
  for (const char* pool_only : {"snapshot", "k-ladder", "threads", "kernel"}) {
    if (flags.Has(pool_only)) {
      return Status::InvalidArgument(
          "--" + std::string(pool_only) +
          " quality requires --algo tp (the shared-scan pool)");
    }
  }
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k", 1, kMaxK));
  const size_t kk = static_cast<size_t>(k);
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  if (algo == "pwr") {
    PwrOptions options;
    options.collect_results = false;
    Result<PwrOutput> pwr = ComputePwrQuality(*db, kk, options);
    if (!pwr.ok()) return pwr.status();
    std::printf("PWS-quality (PWR): %.6f over %llu pw-results\n",
                pwr->quality,
                static_cast<unsigned long long>(pwr->num_results));
  } else if (algo == "pw") {
    Result<PwOutput> pw = ComputePwQuality(*db, kk);
    if (!pw.ok()) return pw.status();
    std::printf("PWS-quality (PW): %.6f over %zu pw-results (%.3e worlds)\n",
                pw->quality, pw->results.size(), pw->num_worlds);
  } else if (algo == "mc") {
    MonteCarloOptions options;
    CLI_ASSIGN_OR_RETURN(samples, flags.GetInt("samples", 1, kMaxInt, 100000));
    CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 1));
    options.samples = static_cast<uint64_t>(samples);
    options.seed = static_cast<uint64_t>(seed);
    Result<MonteCarloOutput> mc = EstimateQualityMonteCarlo(*db, kk, options);
    if (!mc.ok()) return mc.status();
    std::printf("PWS-quality (MC, %lld samples): %.6f "
                "(%llu distinct results seen)\n",
                static_cast<long long>(samples), mc->quality_estimate,
                static_cast<unsigned long long>(mc->distinct_results));
  } else {
    return Status::InvalidArgument("unknown --algo '" + algo + "'");
  }
  return Status::OK();
}

Result<PlannerKind> ParsePlanner(const std::string& name) {
  if (name == "dp") return PlannerKind::kDp;
  if (name == "greedy") return PlannerKind::kGreedy;
  if (name == "randp") return PlannerKind::kRandP;
  if (name == "randu") return PlannerKind::kRandU;
  return Status::InvalidArgument("unknown --planner '" + name + "'");
}

Status RunPlan(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k", 1, kMaxK));
  CLI_ASSIGN_OR_RETURN(budget, flags.GetInt("budget", 0, kMaxInt));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 1));
  CLI_ASSIGN_OR_RETURN(planner, ParsePlanner(flags.GetString("planner", "dp")));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();

  Result<CleaningProblem> problem =
      MakeCleaningProblem(*db, static_cast<size_t>(k), *profile, budget);
  if (!problem.ok()) return problem.status();
  Rng rng(static_cast<uint64_t>(seed));
  Result<CleaningPlan> plan = RunPlanner(planner, *problem, &rng);
  if (!plan.ok()) return plan.status();

  std::printf("%s plan: expected improvement %.6f at cost %lld/%lld, "
              "%zu x-tuples\n",
              PlannerKindName(planner), plan->expected_improvement,
              static_cast<long long>(plan->total_cost),
              static_cast<long long>(budget), plan->num_selected());
  for (size_t l = 0; l < plan->probes.size(); ++l) {
    if (plan->probes[l] > 0) {
      std::printf("  x-tuple %zu: %lld probes (cost %lld each, sc %.3f, "
                  "gain %.6f)\n",
                  l, static_cast<long long>(plan->probes[l]),
                  static_cast<long long>(profile->costs[l]),
                  profile->sc_probs[l], -problem->gain[l]);
    }
  }
  return Status::OK();
}

/// The uniform ladder aggregate of per-rung qualities, the objective the
/// planners optimize (LadderRungWeight is its one definition): session
/// `id`'s current qualities, or the pool's base qualities without an id.
double AggregateQuality(const SessionPool& pool,
                        std::optional<SessionPool::SessionId> id) {
  const size_t rungs = pool.num_rungs();
  double total = 0.0;
  for (size_t j = 0; j < rungs; ++j) {
    total += LadderRungWeight({}, rungs, j) *
             (id ? pool.quality(*id, j) : pool.base_tp(j).quality);
  }
  return total;
}

/// `k = K: quality A -> B` for every rung of a ladder pool; a single-k
/// pool's aggregate line already says it.
void PrintRungQualities(const SessionPool& pool, SessionPool::SessionId id,
                        const char* indent) {
  if (pool.num_rungs() == 1) return;
  for (size_t j = 0; j < pool.num_rungs(); ++j) {
    std::printf("%sk = %zu: quality %.6f -> %.6f\n", indent, pool.ladder()[j],
                pool.base_tp(j).quality, pool.quality(id, j));
  }
}

/// One-shot `clean`: the paper's plan-once campaign in one pooled session
/// -- plan against the session's TP state (the uniform aggregate for a
/// ladder), execute the plan, refresh. Returns the session to write.
Result<SessionPool::SessionId> RunCleanOnce(SessionPool* pool,
                                            const CleaningProfile& profile,
                                            int64_t budget,
                                            PlannerKind planner,
                                            uint64_t seed) {
  const SessionPool::SessionId id = pool->OpenSession();
  Rng rng(seed);
  Result<CleaningProblem> problem =
      MakeCleaningProblem(pool->tps(id), {}, profile, budget);
  if (!problem.ok()) return problem.status();
  Result<CleaningPlan> plan = RunPlanner(planner, *problem, &rng);
  if (!plan.ok()) return plan.status();
  Result<SessionExecutionReport> executed =
      ExecutePlan(pool, id, profile, plan->probes, &rng);
  if (!executed.ok()) return executed.status();
  UCLEAN_RETURN_IF_ERROR(pool->Refresh(id));
  const double before = AggregateQuality(*pool, std::nullopt);
  std::printf("one-shot cleaning (%s): %zu successes, spent %lld "
              "(leftover %lld), quality %.6f -> %.6f (predicted %.6f)\n",
              PlannerKindName(planner), executed->successes,
              static_cast<long long>(executed->spent),
              static_cast<long long>(executed->leftover), before,
              AggregateQuality(*pool, id),
              before + plan->expected_improvement);
  PrintRungQualities(*pool, id, "  ");
  return id;
}

/// `clean --adaptive`: --sessions N concurrent adaptive sessions over the
/// pool's one shared scan, each an independent analyst running the
/// plan/execute/re-plan loop with the full budget against their own
/// copy-on-write view. The round loop lives in clean/pipeline.h: serial
/// by default; with --pipeline each round's per-session plan + draw steps
/// run concurrently on the --threads executor. Per-session results are
/// bitwise equal either way, and a lone session's equal the
/// single-analyst loop of clean/adaptive.h (pipeline_test.cc). Returns
/// session 0, the one to write; the others are what-if runs that close
/// unmaterialized.
Result<SessionPool::SessionId> RunCleanPool(SessionPool* pool,
                                            const CleaningProfile& profile,
                                            int64_t budget,
                                            size_t num_sessions,
                                            uint64_t seed,
                                            const PipelineOptions& options) {
  const double initial = AggregateQuality(*pool, std::nullopt);
  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  for (size_t s = 0; s < num_sessions; ++s) {
    ids.push_back(pool->OpenSession());
    rngs.emplace_back(seed + s);
  }
  if (options.overlap) {
    // Honest note: a 1-thread executor has no workers, so every session's
    // step runs inline and the "pipelined" loop is the serial wall clock.
    if (pool->exec().num_threads > 1) {
      std::printf("note: --pipeline runs each round's per-session plan + "
                  "draw steps on %zu threads; per-session results are "
                  "identical to the serial pool loop\n",
                  pool->exec().num_threads);
    } else {
      std::printf("note: --pipeline with 1 thread runs each round's "
                  "per-session plan + draw steps inline (no overlap); pass "
                  "--threads N|auto to run them in parallel\n");
    }
  }
  Result<PipelineReport> report =
      RunPipelinedCleaning(pool, ids, profile, budget, &rngs, options);
  if (!report.ok()) return report.status();

  std::printf("adaptive cleaning, session pool: %zu adaptive session%s over "
              "one shared scan, k-ladder %s, initial quality %.6f\n",
              num_sessions, num_sessions == 1 ? "" : "s",
              pool->ladder().ToString().c_str(), initial);
  for (size_t s = 0; s < num_sessions; ++s) {
    const PipelineSessionReport& session = report->sessions[s];
    std::printf("  session %zu: %zu rounds, spent %lld/%lld (%zu cleans), "
                "quality %.6f -> %.6f\n",
                s, session.rounds, static_cast<long long>(session.spent),
                static_cast<long long>(budget),
                pool->overlay(ids[s]).num_outcomes(), initial,
                AggregateQuality(*pool, ids[s]));
    if (options.fault.enabled) PrintFaultStats("    ", session.faults);
    PrintRungQualities(*pool, ids[s], "    ");
  }
  return ids[0];
}

Status RunClean(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(budget, flags.GetInt("budget", 0, kMaxInt));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 1));
  CLI_ASSIGN_OR_RETURN(planner,
                       ParsePlanner(flags.GetString("planner", "greedy")));
  CLI_ASSIGN_OR_RETURN(sessions,
                       flags.GetInt("sessions", 1, kMaxSessions, 1));
  CLI_ASSIGN_OR_RETURN(probe_latency_us,
                       flags.GetInt("probe-latency-us", 0, kMaxMicros, 0));
  CLI_ASSIGN_OR_RETURN(
      fault, ParseFaultOptions(flags, static_cast<uint64_t>(seed)));
  const bool adaptive = flags.Has("adaptive");
  if (!adaptive && (sessions > 1 || flags.Has("pipeline") ||
                    probe_latency_us > 0 || fault.enabled)) {
    return Status::InvalidArgument(
        "--sessions/--pipeline/--probe-latency-us and the fault flags "
        "(--probe-fail-rate/--probe-timeout-us/--retry-max/"
        "--retry-backoff-us/--breaker-threshold) require --adaptive (they "
        "drive the adaptive probe loop)");
  }
  CLI_ASSIGN_OR_RETURN(pool, OpenPool(flags));
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();

  PipelineOptions options;
  options.planner = planner;
  options.overlap = flags.Has("pipeline");
  options.probe.latency = std::chrono::microseconds(probe_latency_us);
  options.fault = fault;
  Result<SessionPool::SessionId> written =
      adaptive ? RunCleanPool(&pool, *profile, budget,
                              static_cast<size_t>(sessions),
                              static_cast<uint64_t>(seed), options)
               : RunCleanOnce(&pool, *profile, budget, planner,
                              static_cast<uint64_t>(seed));
  if (!written.ok()) return written.status();
  Result<ProbabilisticDatabase> merged = pool.CloseAndMerge(*written);
  if (!merged.ok()) return merged.status();
  UCLEAN_RETURN_IF_ERROR(WriteDatabaseCsvFile(*merged, out));
  std::printf("cleaned database written to %s\n", out.c_str());
  return Status::OK();
}

Status RunTarget(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k", 1, kMaxK));
  CLI_ASSIGN_OR_RETURN(target, flags.GetDouble("target"));
  CLI_ASSIGN_OR_RETURN(max_budget,
                       flags.GetInt("max-budget", 0, kMaxInt, 100000));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();

  Result<BudgetSearchReport> report = MinimalBudgetForTarget(
      *db, static_cast<size_t>(k), *profile, target, max_budget);
  if (!report.ok()) return report.status();
  std::printf("current quality: %.6f; target: %.6f\n",
              report->current_quality, target);
  if (report->attainable) {
    std::printf("minimal budget: %lld (expected quality %.6f, %zu x-tuples "
                "probed)\n",
                static_cast<long long>(report->minimal_budget),
                report->expected_quality, report->plan.num_selected());
  } else {
    std::printf("target not attainable within budget %lld "
                "(best expected quality %.6f)\n",
                static_cast<long long>(max_budget),
                report->expected_quality);
  }
  return Status::OK();
}

/// `snapshot save`: opens the pool, adds --sessions pristine forks, and
/// persists the whole thing.
Status RunSnapshotSave(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(sessions,
                       flags.GetInt("sessions", 0, kMaxSessions, 0));
  CLI_ASSIGN_OR_RETURN(pool, OpenPool(flags));
  for (int64_t s = 0; s < sessions; ++s) pool.OpenSession();
  UCLEAN_RETURN_IF_ERROR(store::WriteSnapshot(pool, out));
  Result<store::SnapshotInfo> info = store::InspectSnapshot(out);
  if (!info.ok()) return info.status();
  std::printf("wrote snapshot %s: %llu bytes, %zu sections, k-ladder %s, "
              "%zu open sessions\n",
              out.c_str(), static_cast<unsigned long long>(info->file_size),
              info->sections.size(), pool.ladder().ToString().c_str(),
              pool.num_open());
  return Status::OK();
}

/// `snapshot load`: full warm-start reconstruction plus a summary of
/// what came back -- the smoke test for "can this file serve".
Status RunSnapshotLoad(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  CLI_ASSIGN_OR_RETURN(exec, ParseSnapshotExec(flags));
  SessionPool::Options options;
  options.exec = exec;
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path, options);
  if (!loaded.ok()) return loaded.status();
  const SessionPool& pool = loaded->pool;
  const store::SnapshotMeta& meta = loaded->meta;
  std::printf("loaded snapshot %s with zero scans (written by %s, %s "
              "kernel, %llu threads)\n",
              path.c_str(), meta.tool.c_str(), meta.kernel.c_str(),
              static_cast<unsigned long long>(meta.threads));
  std::printf("  %zu x-tuples / %zu tuples, k-ladder %s, %zu open "
              "sessions%s\n",
              pool.base().num_xtuples(), pool.base().num_tuples(),
              pool.ladder().ToString().c_str(), pool.num_open(),
              loaded->has_campaign ? ", paused campaign attached" : "");
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    std::printf("  k = %zu: base quality %.6f\n", pool.ladder()[rung],
                pool.base_tp(rung).quality);
  }
  return Status::OK();
}

/// `snapshot inspect`: container-level report -- verifies every CRC and
/// prints the section table and the file's bytes per tuple without
/// reconstructing the pool.
Status RunSnapshotInspect(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  Result<store::SnapshotInfo> info = store::InspectSnapshot(path);
  if (!info.ok()) return info.status();
  std::printf("snapshot %s: format v%u, feature flags 0x%x, %llu bytes, "
              "all checksums verified\n",
              path.c_str(), info->format_version, info->feature_flags,
              static_cast<unsigned long long>(info->file_size));
  std::printf("  %-10s %4s %8s %10s %12s %10s\n", "section", "id", "version",
              "offset", "size", "crc");
  for (const store::SectionInfo& s : info->sections) {
    std::printf("  %-10s %4u %8u %10llu %12llu 0x%08x\n", s.name.c_str(),
                s.id, s.version, static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc);
  }
  if (info->has_meta) {
    if (info->meta.num_tuples > 0) {
      std::printf("  %.1f bytes per tuple (%llu bytes over %llu tuples)\n",
                  static_cast<double>(info->file_size) /
                      static_cast<double>(info->meta.num_tuples),
                  static_cast<unsigned long long>(info->file_size),
                  static_cast<unsigned long long>(info->meta.num_tuples));
    }
    std::printf("  meta: written by %s (%s kernel, %llu threads), %llu "
                "x-tuples / %llu tuples, k-ladder %s, %llu sessions\n",
                info->meta.tool.c_str(), info->meta.kernel.c_str(),
                static_cast<unsigned long long>(info->meta.threads),
                static_cast<unsigned long long>(info->meta.num_xtuples),
                static_cast<unsigned long long>(info->meta.num_tuples),
                LadderToString(info->meta.ladder).c_str(),
                static_cast<unsigned long long>(info->meta.num_sessions));
  }
  return Status::OK();
}

/// `serve`: the persistent serving loop. stdin/stdout become one
/// protocol connection (serve/protocol.h) on the LineServer; the serving
/// rule -- replay a ladder rung or join the round's one scan -- lives in
/// serve/frontend.h. Tests and the traffic-replay bench drive the same
/// server over socketpairs. Protocol replies go to stdout; the banner
/// goes to stderr so a piped client sees only notes and reply lines.
Status RunServe(const Flags& flags) {
  serve::FrontendOptions options;
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", kMinInt, kMaxInt, 2026));
  options.seed = static_cast<uint64_t>(seed);
  CLI_ASSIGN_OR_RETURN(max_batch, flags.GetInt("max-batch", 1, 1000000, 64));
  options.max_batch = static_cast<size_t>(max_batch);
  const std::string batch = flags.GetString("batch", "on");
  if (batch == "off") {
    options.batching = false;
  } else if (batch != "on") {
    return Status::InvalidArgument("bad --batch '" + batch +
                                   "': expected on or off");
  }
  std::optional<CleaningProfile> profile;
  if (flags.Has("profile")) {
    CLI_ASSIGN_OR_RETURN(path, flags.GetString("profile"));
    Result<CleaningProfile> read = ReadProfileCsvFile(path);
    if (!read.ok()) return read.status();
    profile = std::move(*read);
  }
  CLI_ASSIGN_OR_RETURN(pool, OpenPool(flags));
  CLI_ASSIGN_OR_RETURN(frontend, serve::Frontend::Create(
                                     std::move(pool), std::move(profile),
                                     options));
  serve::LineServer server(&frontend, serve::ServerOptions{});
  Result<size_t> conn = server.AddClient(0, 1);  // stdin -> stdout
  if (!conn.ok()) return conn.status();
  std::fprintf(stderr,
               "serve: %zu tuples, k-ladder %s, batching %s; one request "
               "per line (topk/quality/clean/stats), EOF ends the session\n",
               frontend.pool().base().num_tuples(),
               frontend.pool().ladder().ToString().c_str(),
               options.batching ? "on" : "off");
  // The flag notes above are buffered stdio on the same fd the server
  // writes raw reply lines to: flush so they precede the first reply.
  std::fflush(stdout);
  return server.Run();
}

/// A command and every flag it reads (POOL's flags when `pool`).
struct Command {
  std::string_view name;
  Status (*run)(const Flags&);
  bool pool;
  std::vector<std::string_view> flags;
};

int Main(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[1]) == "help" ||
      std::string_view(argv[1]) == "--help") {
    std::printf("%s", kUsage);
    return argc < 2 ? 1 : 0;
  }
  const std::vector<Command> commands = {
      {"generate", RunGenerate, false,
       {"type", "out", "seed", "xtuples", "bars", "sigma", "pdf", "mass-lo",
        "mass-hi"}},
      {"profile", RunProfile, false,
       {"xtuples", "out", "cost-min", "cost-max", "seed", "sc-pdf", "sc-lo",
        "sc-hi", "sc-mean", "sc-sigma"}},
      {"inspect", RunInspect, false, {"db", "rows"}},
      {"query", RunQuery, true, {"threshold", "semantics"}},
      {"quality", RunQuality, true, {"algo", "samples", "seed"}},
      {"plan", RunPlan, false,
       {"db", "profile", "k", "budget", "seed", "planner"}},
      {"clean", RunClean, true,
       {"profile", "out", "budget", "seed", "planner", "adaptive", "sessions",
        "pipeline", "probe-latency-us", "probe-fail-rate", "probe-timeout-us",
        "retry-max", "retry-backoff-us", "breaker-threshold"}},
      {"target", RunTarget, false,
       {"db", "profile", "k", "target", "max-budget"}},
      {"snapshot save", RunSnapshotSave, true, {"out", "sessions"}},
      {"snapshot load", RunSnapshotLoad, false,
       {"snapshot", "threads", "kernel"}},
      {"snapshot inspect", RunSnapshotInspect, false, {"snapshot"}},
      {"serve", RunServe, true, {"profile", "seed", "max-batch", "batch"}},
  };
  // `snapshot` takes a positional action word before its flags.
  std::string name = argv[1];
  int first = 2;
  if (name == "snapshot") {
    name += ' ';
    if (argc > 2) name += argv[2];
    first = 3;
  }
  const auto command =
      std::find_if(commands.begin(), commands.end(),
                   [&name](const Command& c) { return c.name == name; });
  Status status = Status::OK();
  if (command == commands.end()) {
    if (first == 2) {
      std::fprintf(stderr, "unknown command '%s'\n\n%s", name.c_str(),
                   kUsage);
      return 1;
    }
    status = Status::InvalidArgument(
        "unknown command '" + name +
        "' (snapshot needs an action: save, load or inspect)");
  } else if (Result<Flags> flags = Flags::Parse(argc, argv, first);
             !flags.ok()) {
    status = flags.status();
  } else {
    std::vector<std::string_view> known = command->flags;
    if (command->pool) {
      known.insert(known.end(),
                   {"db", "k", "k-ladder", "snapshot", "threads", "kernel"});
    }
    status = flags->RejectUnknown(command->name, known);
    if (status.ok()) status = command->run(*flags);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    // Data loss (corrupt/truncated/version-mismatched snapshot) gets its
    // own exit code so scripts and CI can tell "bad file" from "bad
    // flags" without scraping stderr.
    return status.code() == StatusCode::kDataLoss ? 3 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace uclean

int main(int argc, char** argv) { return uclean::Main(argc, argv); }
