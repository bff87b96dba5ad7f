// End-to-end integration test of the uclean_cli binary: drives every
// subcommand through a scratch directory and checks exit codes, output
// artifacts, and that the artifacts round-trip through the library.
//
// The binary path is injected by CMake as UCLEAN_CLI_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clean/profile_io.h"
#include "clean/session_pool.h"
#include "model/csv_io.h"
#include "serve/frontend.h"
#include "serve/protocol.h"

namespace uclean {
namespace {

#ifndef UCLEAN_CLI_PATH
#define UCLEAN_CLI_PATH ""
#endif

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = UCLEAN_CLI_PATH;
    ASSERT_FALSE(cli_.empty()) << "UCLEAN_CLI_PATH not configured";
    dir_ = ::testing::TempDir() + "/uclean_cli_test";
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
  }

  /// Runs the CLI with `args`, returns its exit code; stdout goes to
  /// `capture` when non-null.
  int Run(const std::string& args, std::string* capture = nullptr) {
    const std::string out_file = dir_ + "/stdout.txt";
    const std::string command =
        cli_ + " " + args + " > " + out_file + " 2>&1";
    const int raw = std::system(command.c_str());
    if (capture != nullptr) {
      std::ifstream in(out_file);
      capture->assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    }
    return WEXITSTATUS(raw);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// The bytes of the file at `path` (empty when it cannot be read).
  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string cli_;
  std::string dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_EQ(Run("help", &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_NE(Run("frobnicate"), 0);
  EXPECT_NE(Run(""), 0);
}

TEST_F(CliTest, FullWorkflow) {
  std::string out;

  // generate
  ASSERT_EQ(Run("generate --type synthetic --xtuples 120 --out " +
                    Path("db.csv") + " --seed 5",
                &out),
            0)
      << out;
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(Path("db.csv"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_xtuples(), 120u);

  // profile
  ASSERT_EQ(Run("profile --xtuples 120 --out " + Path("profile.csv"), &out),
            0)
      << out;
  Result<CleaningProfile> profile = ReadProfileCsvFile(Path("profile.csv"));
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->Validate(120).ok());

  // inspect
  ASSERT_EQ(Run("inspect --db " + Path("db.csv") + " --rows 3", &out), 0);
  EXPECT_NE(out.find("120 x-tuples"), std::string::npos);

  // query
  ASSERT_EQ(Run("query --db " + Path("db.csv") + " --k 5 --semantics all",
                &out),
            0);
  EXPECT_NE(out.find("PT-5"), std::string::npos);
  EXPECT_NE(out.find("U-kRanks"), std::string::npos);
  EXPECT_NE(out.find("Global-topk"), std::string::npos);

  // quality, all four algorithms (pw is feasible: guard on world count
  // would reject, so use mc/tp/pwr only at this size plus pw on a smaller
  // database below)
  for (const char* algo : {"tp", "pwr", "mc"}) {
    ASSERT_EQ(Run("quality --db " + Path("db.csv") +
                      " --k 3 --algo " + algo + " --samples 2000",
                  &out),
              0)
        << algo << ": " << out;
    EXPECT_NE(out.find("PWS-quality"), std::string::npos);
  }

  // plan
  ASSERT_EQ(Run("plan --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") + " --k 5 --budget 20",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("DP plan"), std::string::npos);

  // clean (one-shot + adaptive)
  ASSERT_EQ(Run("clean --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") +
                    " --k 5 --budget 20 --out " + Path("cleaned.csv") +
                    " --seed 3",
                &out),
            0)
      << out;
  Result<ProbabilisticDatabase> cleaned =
      ReadDatabaseCsvFile(Path("cleaned.csv"));
  ASSERT_TRUE(cleaned.ok());
  EXPECT_EQ(cleaned->num_xtuples(), 120u);

  ASSERT_EQ(Run("clean --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") +
                    " --k 5 --budget 20 --adaptive --out " +
                    Path("cleaned2.csv"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("adaptive cleaning"), std::string::npos);

  // target
  ASSERT_EQ(Run("target --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") + " --k 5 --target -1.0",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("minimal budget"), std::string::npos);

  // clean --adaptive --sessions N: pooled sessions over one shared scan.
  ASSERT_EQ(Run("clean --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") +
                    " --k 5 --budget 20 --adaptive --sessions 3 --out " +
                    Path("cleaned3.csv") + " --seed 3",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("session pool: 3 adaptive sessions"),
            std::string::npos);
  EXPECT_NE(out.find("session 2:"), std::string::npos);
  Result<ProbabilisticDatabase> pooled =
      ReadDatabaseCsvFile(Path("cleaned3.csv"));
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->num_xtuples(), 120u);

  // --pipeline runs each round's per-session plan + draw steps on the
  // executor's threads; the per-session lines and the merged database
  // must be identical to the serial pool run above (same seed,
  // bitwise-equal state).
  ASSERT_EQ(Run("clean --db " + Path("db.csv") + " --profile " +
                    Path("profile.csv") +
                    " --k 5 --budget 20 --adaptive --sessions 3 "
                    "--pipeline --threads 2 --probe-latency-us 100 --out " +
                    Path("cleaned4.csv") + " --seed 3",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--pipeline runs each round's per-session plan + "
                     "draw steps on 2 threads"),
            std::string::npos);
  EXPECT_NE(out.find("session pool: 3 adaptive sessions"),
            std::string::npos);
  Result<ProbabilisticDatabase> piped =
      ReadDatabaseCsvFile(Path("cleaned4.csv"));
  ASSERT_TRUE(piped.ok());
  ASSERT_EQ(piped->num_tuples(), pooled->num_tuples());
  for (size_t i = 0; i < piped->num_tuples(); ++i) {
    EXPECT_EQ(piped->tuple(i).id, pooled->tuple(i).id);
    EXPECT_EQ(piped->tuple(i).prob, pooled->tuple(i).prob);
  }

  // snapshot save + inspect: the sections that hold rungs are at version
  // 2, and inspect reports the file's bytes per tuple.
  ASSERT_EQ(Run("snapshot save --db " + Path("db.csv") + " --out " +
                    Path("full.snap") + " --k-ladder 5,20",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("snapshot inspect --snapshot " + Path("full.snap"), &out), 0)
      << out;
  const std::string bytes = ReadFile(Path("full.snap"));
  char per_tuple[96];
  std::snprintf(per_tuple, sizeof(per_tuple),
                "  %.1f bytes per tuple (%zu bytes over %zu tuples)\n",
                static_cast<double>(bytes.size()) /
                    static_cast<double>(db->num_tuples()),
                bytes.size(), db->num_tuples());
  EXPECT_NE(out.find(per_tuple), std::string::npos) << per_tuple << out;
  for (const char* section : {"engine", "sessions"}) {
    const size_t row = out.find(std::string("  ") + section + " ");
    ASSERT_NE(row, std::string::npos) << section << ":\n" << out;
    unsigned id = 0;
    unsigned version = 0;
    ASSERT_EQ(std::sscanf(out.c_str() + row, " %*s %u %u", &id, &version), 2)
        << out.substr(row, out.find('\n', row) - row);
    EXPECT_EQ(version, 2u) << section;
  }
}

TEST_F(CliTest, FaultFlagsValidationAndFaultedRun) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 60 --out " +
                    Path("fault_db.csv") + " --seed 9",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("profile --xtuples 60 --out " + Path("fault_profile.csv"),
                &out),
            0)
      << out;
  const std::string base = "clean --db " + Path("fault_db.csv") +
                           " --profile " + Path("fault_profile.csv") +
                           " --k 5 --budget 20 --seed 3";

  // Every fault flag requires the adaptive loop...
  EXPECT_NE(Run(base + " --probe-fail-rate 0.2 --out " + Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--adaptive"), std::string::npos) << out;
  // ...and each one validates its range.
  EXPECT_NE(Run(base + " --adaptive --probe-fail-rate 1.5 --out " +
                    Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--probe-fail-rate"), std::string::npos) << out;
  EXPECT_NE(Run(base + " --adaptive --probe-timeout-us -1 --out " +
                    Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--probe-timeout-us"), std::string::npos) << out;
  EXPECT_NE(Run(base + " --adaptive --retry-max 0 --out " + Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--retry-max"), std::string::npos) << out;
  EXPECT_NE(Run(base + " --adaptive --retry-backoff-us -7 --out " +
                    Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--retry-backoff-us"), std::string::npos) << out;
  EXPECT_NE(Run(base + " --adaptive --breaker-threshold 0 --out " +
                    Path("f.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--breaker-threshold"), std::string::npos) << out;

  // A faulted adaptive run completes, reports its fault counters, and
  // still writes the cleaned database.
  ASSERT_EQ(Run(base + " --adaptive --probe-fail-rate 0.2 --retry-max 4 "
                    "--out " + Path("faulted.csv"),
                &out),
            0)
      << out;
  EXPECT_NE(out.find("faults:"), std::string::npos) << out;
  Result<ProbabilisticDatabase> faulted =
      ReadDatabaseCsvFile(Path("faulted.csv"));
  ASSERT_TRUE(faulted.ok());
  EXPECT_EQ(faulted->num_xtuples(), 60u);

  // Rate 0 commits the exact database the fault-free run commits: the
  // injector never draws, so the probe stream is untouched.
  ASSERT_EQ(Run(base + " --adaptive --out " + Path("plain.csv"), &out), 0)
      << out;
  ASSERT_EQ(Run(base + " --adaptive --probe-fail-rate 0 --out " +
                    Path("rate0.csv"),
                &out),
            0)
      << out;
  Result<ProbabilisticDatabase> plain = ReadDatabaseCsvFile(Path("plain.csv"));
  Result<ProbabilisticDatabase> rate0 = ReadDatabaseCsvFile(Path("rate0.csv"));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rate0.ok());
  ASSERT_EQ(plain->num_tuples(), rate0->num_tuples());
  for (size_t i = 0; i < plain->num_tuples(); ++i) {
    EXPECT_EQ(plain->tuple(i).id, rate0->tuple(i).id);
    EXPECT_EQ(plain->tuple(i).prob, rate0->tuple(i).prob);
  }
}

TEST_F(CliTest, KLadderParsingAndNormalization) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 40 --out " +
                    Path("ladder_db.csv") + " --seed 6",
                &out),
            0);

  // Reordered/duplicated input is served normalized WITH a printed note
  // (the per-k output order would otherwise silently misattribute lines).
  ASSERT_EQ(Run("query --db " + Path("ladder_db.csv") +
                    " --k-ladder 10,5,10 --semantics ptk",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("normalized to {5, 10}"), std::string::npos);
  EXPECT_NE(out.find("k-ladder {5, 10}"), std::string::npos);
  // Already-normalized input gets no note.
  ASSERT_EQ(Run("quality --db " + Path("ladder_db.csv") + " --k-ladder 5,10",
                &out),
            0);
  EXPECT_EQ(out.find("normalized"), std::string::npos) << out;

  // Hardened parsing: trailing/doubled commas, negatives, zero and
  // values past int64 all fail with a clean error (no stoul wrapping).
  for (const char* bad : {"5,10,", "5,,10", ",5", "-3,5", "0,5",
                          "99999999999999999999999", "5,abc"}) {
    EXPECT_NE(Run("query --db " + Path("ladder_db.csv") + " --k-ladder " +
                      std::string(bad),
                  &out),
              0)
        << "accepted bad ladder '" << bad << "'";
    EXPECT_NE(out.find("k-ladder"), std::string::npos) << out;
  }

  // --sessions guards.
  ASSERT_EQ(
      Run("profile --xtuples 40 --out " + Path("ladder_profile.csv"), &out),
      0);
  EXPECT_NE(Run("clean --db " + Path("ladder_db.csv") + " --profile " +
                    Path("ladder_profile.csv") +
                    " --k 5 --budget 10 --sessions 0 --adaptive --out " +
                    Path("x.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--sessions"), std::string::npos) << out;
  EXPECT_NE(Run("clean --db " + Path("ladder_db.csv") + " --profile " +
                    Path("ladder_profile.csv") +
                    " --k 5 --budget 10 --sessions 2 --out " + Path("x.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--adaptive"), std::string::npos) << out;

  // --pipeline / --probe-latency-us guards: both need the adaptive
  // pooled loop, and the latency must be sane microseconds.
  EXPECT_NE(Run("clean --db " + Path("ladder_db.csv") + " --profile " +
                    Path("ladder_profile.csv") +
                    " --k 5 --budget 10 --pipeline --out " + Path("x.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--adaptive"), std::string::npos) << out;
  // The latency is simulated wall time and moves no draw: with --adaptive
  // alone it runs and writes the database the run without it writes.
  const std::string adaptive_run =
      "clean --db " + Path("ladder_db.csv") + " --profile " +
      Path("ladder_profile.csv") + " --k 5 --budget 30 --adaptive --out ";
  ASSERT_EQ(Run(adaptive_run + Path("no_latency.csv"), &out), 0) << out;
  EXPECT_EQ(out.find("spent 0/"), std::string::npos) << out;
  ASSERT_EQ(Run(adaptive_run + Path("latency.csv") + " --probe-latency-us 10",
                &out),
            0)
      << out;
  EXPECT_EQ(ReadFile(Path("latency.csv")), ReadFile(Path("no_latency.csv")));
  EXPECT_NE(Run("clean --db " + Path("ladder_db.csv") + " --profile " +
                    Path("ladder_profile.csv") +
                    " --k 5 --budget 10 --adaptive --pipeline "
                    "--probe-latency-us -5 --out " + Path("x.csv"),
                &out),
            0);
  EXPECT_NE(out.find("--probe-latency-us"), std::string::npos) << out;
}

TEST_F(CliTest, ThreadsFlagValidationAndAnnouncement) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 60 --out " +
                    Path("threads_db.csv") + " --seed 9",
                &out),
            0);

  // The resolved count is always announced (like the --k-ladder
  // normalization note): `auto` picks a machine-dependent value the
  // user never typed.
  ASSERT_EQ(Run("query --db " + Path("threads_db.csv") +
                    " --k 5 --threads 2 --semantics ptk",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--threads 2 resolved to 2 threads"), std::string::npos)
      << out;
  ASSERT_EQ(Run("quality --db " + Path("threads_db.csv") +
                    " --k 5 --threads auto",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--threads auto resolved to"), std::string::npos) << out;

  // Parallel and sequential runs print the same quality line.
  std::string seq_out;
  ASSERT_EQ(
      Run("quality --db " + Path("threads_db.csv") + " --k 5", &seq_out), 0);
  ASSERT_EQ(Run("quality --db " + Path("threads_db.csv") +
                    " --k 5 --threads 3",
                &out),
            0);
  EXPECT_NE(out.find(seq_out), std::string::npos)
      << "parallel quality output diverged:\n" << out << "\nvs\n" << seq_out;

  // Hardened parsing: zero, negatives, garbage, and values past the
  // pool's hard cap (including int64 overflow) all fail with a pointed
  // message instead of spawning nonsense thread counts.
  for (const char* bad :
       {"0", "-3", "abc", "2.5", "1000", "99999999999999999999"}) {
    EXPECT_NE(Run("query --db " + Path("threads_db.csv") + " --k 5 " +
                      "--threads " + std::string(bad),
                  &out),
              0)
        << "accepted bad --threads '" << bad << "'";
    EXPECT_NE(out.find("--threads"), std::string::npos) << out;
  }

  // Non-TP quality algorithms have no shared-scan pipeline to shard.
  EXPECT_NE(Run("quality --db " + Path("threads_db.csv") +
                    " --k 3 --algo mc --samples 1000 --threads 2",
                &out),
            0);
  EXPECT_NE(out.find("--algo tp"), std::string::npos) << out;
}

TEST_F(CliTest, KernelFlagValidationAndAnnouncement) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 60 --out " +
                    Path("kernel_db.csv") + " --seed 11",
                &out),
            0);

  // An explicit choice is announced with the concrete kernel it resolved
  // to (like --threads): `auto` picks a machine-dependent kernel the
  // user never typed.
  ASSERT_EQ(Run("query --db " + Path("kernel_db.csv") +
                    " --k 5 --kernel scalar --semantics ptk",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--kernel scalar resolved to the scalar scan kernel"),
            std::string::npos)
      << out;
  ASSERT_EQ(Run("query --db " + Path("kernel_db.csv") +
                    " --k 5 --kernel auto --semantics ptk",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--kernel auto resolved to the"), std::string::npos)
      << out;
  // Without the flag there is nothing to announce.
  ASSERT_EQ(Run("query --db " + Path("kernel_db.csv") +
                    " --k 5 --semantics ptk",
                &out),
            0);
  EXPECT_EQ(out.find("--kernel"), std::string::npos) << out;

  // Every kernel is bitwise equal to every other, so apart from the
  // resolution note the scalar and auto runs print identical rankings.
  std::string scalar_out;
  std::string auto_out;
  ASSERT_EQ(Run("query --db " + Path("kernel_db.csv") +
                    " --k 5 --kernel scalar --semantics all",
                &scalar_out),
            0);
  ASSERT_EQ(Run("query --db " + Path("kernel_db.csv") +
                    " --k 5 --kernel auto --semantics all",
                &auto_out),
            0);
  auto strip_note = [](std::string text) {
    const size_t pos = text.find("note: --kernel");
    if (pos == std::string::npos) return text;
    return text.erase(pos, text.find('\n', pos) + 1 - pos);
  };
  EXPECT_EQ(strip_note(scalar_out), strip_note(auto_out));

  // Bad values fail with a pointed message naming the accepted set.
  for (const char* bad : {"sse", "AVX2", "fast", ""}) {
    EXPECT_NE(Run("query --db " + Path("kernel_db.csv") + " --k 5 " +
                      "--kernel " + std::string(bad),
                  &out),
              0)
        << "accepted bad --kernel '" << bad << "'";
    EXPECT_NE(out.find("--kernel"), std::string::npos) << out;
  }

  // UCLEAN_DISABLE_AVX2 demotes `auto` to the scalar kernel (the CI
  // forced-scalar leg relies on this), but never breaks the run.
  ::setenv("UCLEAN_DISABLE_AVX2", "1", 1);
  const int forced = Run("query --db " + Path("kernel_db.csv") +
                             " --k 5 --kernel auto --semantics ptk",
                         &out);
  ::unsetenv("UCLEAN_DISABLE_AVX2");
  ASSERT_EQ(forced, 0) << out;
  EXPECT_NE(out.find("--kernel auto resolved to the scalar scan kernel"),
            std::string::npos)
      << out;

  // Non-TP quality algorithms never reach the scan pipeline, so an
  // explicit kernel choice there is a user error, not a silent no-op.
  EXPECT_NE(Run("quality --db " + Path("kernel_db.csv") +
                    " --k 3 --algo mc --samples 1000 --kernel scalar",
                &out),
            0);
  EXPECT_NE(out.find("--algo tp"), std::string::npos) << out;
  // With --algo tp the kernel choice flows into the shared scan.
  ASSERT_EQ(Run("quality --db " + Path("kernel_db.csv") +
                    " --k 3 --kernel scalar",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("--kernel scalar resolved to the scalar scan kernel"),
            std::string::npos)
      << out;
}

TEST_F(CliTest, PwQualityOnTinyDatabase) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 6 --bars 3 --out " +
                    Path("tiny.csv"),
                &out),
            0);
  ASSERT_EQ(Run("quality --db " + Path("tiny.csv") + " --k 2 --algo pw",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("worlds"), std::string::npos);
}

TEST_F(CliTest, MovGeneration) {
  std::string out;
  ASSERT_EQ(
      Run("generate --type mov --xtuples 200 --out " + Path("mov.csv"),
          &out),
      0);
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(Path("mov.csv"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_xtuples(), 200u);
}

TEST_F(CliTest, SnapshotWorkflow) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 80 --out " +
                    Path("snap_db.csv") + " --seed 21",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("profile --xtuples 80 --out " + Path("snap_profile.csv"),
                &out),
            0)
      << out;

  // save: one shared scan, persisted with two pristine sessions.
  ASSERT_EQ(Run("snapshot save --db " + Path("snap_db.csv") + " --out " +
                    Path("pool.snap") + " --k-ladder 3,6 --sessions 2",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote snapshot"), std::string::npos) << out;
  EXPECT_NE(out.find("k-ladder {3, 6}"), std::string::npos) << out;

  // inspect: section table + meta, every checksum verified.
  ASSERT_EQ(Run("snapshot inspect --snapshot " + Path("pool.snap"), &out), 0)
      << out;
  EXPECT_NE(out.find("format v1"), std::string::npos) << out;
  EXPECT_NE(out.find("all checksums verified"), std::string::npos) << out;
  for (const char* section : {"meta", "database", "engine", "sessions"}) {
    EXPECT_NE(out.find(section), std::string::npos)
        << "missing section row '" << section << "':\n" << out;
  }
  EXPECT_NE(out.find("k-ladder {3, 6}"), std::string::npos) << out;

  // load: full reconstruction summary.
  ASSERT_EQ(Run("snapshot load --snapshot " + Path("pool.snap"), &out), 0)
      << out;
  EXPECT_NE(out.find("zero scans"), std::string::npos) << out;
  EXPECT_NE(out.find("2 open sessions"), std::string::npos) << out;
  EXPECT_NE(out.find("k = 6: base quality"), std::string::npos) << out;

  // query/quality serve warm from the snapshot; the ladder is the
  // file's, so --k/--k-ladder there is a user error.
  ASSERT_EQ(Run("query --snapshot " + Path("pool.snap") +
                    " --semantics ptk",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("PT-3"), std::string::npos) << out;
  EXPECT_NE(out.find("PT-6"), std::string::npos) << out;
  ASSERT_EQ(Run("quality --snapshot " + Path("pool.snap"), &out), 0) << out;
  EXPECT_NE(out.find("k = 3:"), std::string::npos) << out;
  // One query format for every source: the warm answers print exactly
  // the cold ones, apart from the warm-start note.
  std::string cold_query;
  ASSERT_EQ(Run("query --db " + Path("snap_db.csv") + " --k-ladder 3,6",
                &cold_query),
            0)
      << cold_query;
  ASSERT_EQ(Run("query --snapshot " + Path("pool.snap"), &out), 0) << out;
  const size_t note = out.find("warm start: pool reconstructed");
  ASSERT_NE(note, std::string::npos) << out;
  EXPECT_EQ(out.erase(note, out.find('\n', note) + 1 - note), cold_query);
  EXPECT_NE(cold_query.find("Pr[top-k] = "), std::string::npos) << cold_query;
  EXPECT_NE(Run("query --snapshot " + Path("pool.snap") + " --k 5", &out),
            0);
  EXPECT_NE(out.find("k-ladder"), std::string::npos) << out;
  EXPECT_NE(Run("quality --snapshot " + Path("pool.snap") +
                    " --algo mc --samples 1000",
                &out),
            0);
  EXPECT_NE(out.find("--algo tp"), std::string::npos) << out;

  // The warm quality numbers must be the ones a cold run computes.
  std::string cold;
  ASSERT_EQ(Run("quality --db " + Path("snap_db.csv") + " --k-ladder 3,6",
                &cold),
            0)
      << cold;
  ASSERT_EQ(Run("quality --snapshot " + Path("pool.snap"), &out), 0) << out;
  const size_t k3 = cold.find("k = 3:");
  ASSERT_NE(k3, std::string::npos) << cold;
  EXPECT_NE(out.find(cold.substr(k3, cold.find('\n', k3) - k3)),
            std::string::npos)
      << "warm quality diverged from cold:\n" << out << "\nvs\n" << cold;

  // One-shot clean --snapshot runs, and writes what the one-shot run on
  // the database and ladder the snapshot was saved from writes.
  ASSERT_EQ(Run("clean --snapshot " + Path("pool.snap") + " --profile " +
                    Path("snap_profile.csv") + " --budget 10 --seed 4 --out " +
                    Path("snap_once.csv"),
                &out),
            0)
      << out;
  EXPECT_EQ(out.find(" 0 successes"), std::string::npos) << out;
  ASSERT_EQ(Run("clean --db " + Path("snap_db.csv") + " --k-ladder 3,6 " +
                    "--profile " + Path("snap_profile.csv") +
                    " --budget 10 --seed 4 --out " + Path("db_once.csv"),
                &out),
            0)
      << out;
  EXPECT_EQ(ReadFile(Path("snap_once.csv")), ReadFile(Path("db_once.csv")));

  // clean --snapshot: warm-started pooled adaptive campaign.
  ASSERT_EQ(Run("clean --snapshot " + Path("pool.snap") + " --profile " +
                    Path("snap_profile.csv") +
                    " --budget 10 --adaptive --sessions 2 --out " +
                    Path("snap_clean.csv") + " --seed 3",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("warm start: pool reconstructed"), std::string::npos)
      << out;
  EXPECT_NE(out.find("session pool: 2 adaptive sessions"), std::string::npos)
      << out;
  Result<ProbabilisticDatabase> cleaned =
      ReadDatabaseCsvFile(Path("snap_clean.csv"));
  ASSERT_TRUE(cleaned.ok());
  EXPECT_EQ(cleaned->num_xtuples(), 80u);
}

TEST_F(CliTest, SnapshotCorruptionExitsWithDataLossCode) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 30 --out " +
                    Path("corrupt_db.csv") + " --seed 8",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("snapshot save --db " + Path("corrupt_db.csv") + " --out " +
                    Path("good.snap") + " --k 4",
                &out),
            0)
      << out;

  std::string bytes;
  {
    std::ifstream in(Path("good.snap"), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  // A flipped bit in the middle of a payload: exit code 3, not 1 --
  // scripts must be able to tell "bad file" from "bad flags".
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  {
    std::ofstream f(Path("flipped.snap"), std::ios::binary);
    f.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_EQ(Run("snapshot inspect --snapshot " + Path("flipped.snap"), &out),
            3)
      << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_EQ(Run("snapshot load --snapshot " + Path("flipped.snap"), &out), 3)
      << out;
  EXPECT_EQ(Run("query --snapshot " + Path("flipped.snap"), &out), 3) << out;

  // Truncation is data loss too.
  {
    std::ofstream f(Path("truncated.snap"), std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_EQ(Run("snapshot inspect --snapshot " + Path("truncated.snap"),
                &out),
            3)
      << out;

  // A missing file is an I/O error (generic 1), NOT data loss: nothing
  // was lost, the path is just wrong.
  EXPECT_EQ(Run("snapshot inspect --snapshot " + Path("nope.snap"), &out), 1)
      << out;
  // Bad action word and missing flags are plain usage errors.
  EXPECT_EQ(Run("snapshot frobnicate --snapshot " + Path("good.snap"), &out),
            1)
      << out;
  EXPECT_EQ(Run("snapshot", &out), 1) << out;

  // The pristine file still loads after all of the above.
  EXPECT_EQ(Run("snapshot load --snapshot " + Path("good.snap"), &out), 0)
      << out;
}

TEST_F(CliTest, CleanReportsTheQualityOfTheDatabaseItWrites) {
  // The per-rung final qualities `clean --adaptive --k-ladder` prints for
  // session 0 are the TP qualities of the database it writes: `quality`
  // on the written CSV prints them again.
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 150 --out " +
                    Path("xc_db.csv") + " --seed 13",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("profile --xtuples 150 --out " + Path("xc_profile.csv"), &out),
            0)
      << out;
  std::string cleaned;
  ASSERT_EQ(Run("clean --db " + Path("xc_db.csv") + " --profile " +
                    Path("xc_profile.csv") +
                    " --k-ladder 5,10,20 --budget 80 --adaptive --sessions 2 "
                    "--seed 5 --out " + Path("xc_clean.csv"),
                &cleaned),
            0)
      << cleaned;
  std::string requality;
  ASSERT_EQ(Run("quality --db " + Path("xc_clean.csv") + " --k-ladder 5,10,20",
                &requality),
            0)
      << requality;
  const size_t session0 = cleaned.find("session 0:");
  ASSERT_NE(session0, std::string::npos) << cleaned;
  EXPECT_EQ(cleaned.find("spent 0/"), std::string::npos) << cleaned;
  for (const char* k : {"5", "10", "20"}) {
    // clean prints "k = K: quality A -> B" under session 0; quality
    // prints "k = K: B".
    const std::string rung = std::string("k = ") + k + ": ";
    const size_t line = cleaned.find(rung + "quality ", session0);
    ASSERT_NE(line, std::string::npos) << cleaned;
    const size_t value = cleaned.find("-> ", line) + 3;
    const std::string final_quality =
        cleaned.substr(value, cleaned.find('\n', value) - value);
    EXPECT_NE(requality.find(rung + final_quality + "\n"), std::string::npos)
        << "clean reported " << rung << final_quality << ", quality on "
        << "the written file printed:\n" << requality;
  }
}

TEST_F(CliTest, OutOfRangeIntegerFlagsExitWithTheRange) {
  // Cast to size_t or uint64_t unchecked, each negative count below would
  // hang, abort on an uncaught length_error, print every row or run a
  // negative budget. `timeout` turns a hang into a failure instead of a
  // stalled suite.
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 20 --out " +
                    Path("range_db.csv"),
                &out),
            0)
      << out;
  ASSERT_EQ(Run("profile --xtuples 20 --out " + Path("range_profile.csv"),
                &out),
            0)
      << out;
  const std::string db = " --db " + Path("range_db.csv");
  const std::string profile = " --profile " + Path("range_profile.csv");
  const std::string to = " --out " + Path("range_out.csv");
  const std::pair<std::string, std::string> cases[] = {
      {"generate --type synthetic --xtuples -1" + to, "--xtuples"},
      {"generate --type mov --xtuples -1" + to, "--xtuples"},
      {"generate --type synthetic --bars -2" + to, "--bars"},
      {"profile --xtuples -1" + to, "--xtuples"},
      {"quality" + db + " --k 3 --algo mc --samples -5", "--samples"},
      {"plan" + db + profile + " --k -3 --budget 10", "--k"},
      {"target" + db + profile + " --k -1 --target -1.0", "--k"},
      {"inspect" + db + " --rows -1", "--rows"},
      {"clean" + db + profile + " --k 3 --adaptive --budget -5" + to,
       "--budget"},
  };
  cli_ = "timeout 10 " + cli_;
  for (const auto& [args, flag] : cases) {
    EXPECT_EQ(Run(args, &out), 1) << args << "\n" << out;
    EXPECT_NE(out.find("bad " + flag + " '"), std::string::npos)
        << args << "\n" << out;
    EXPECT_NE(out.find("expected an integer in ["), std::string::npos)
        << args << "\n" << out;
  }
}

TEST_F(CliTest, FlagsACommandDoesNotTakeFailBeforeAnyWork) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 30 --out " +
                    Path("flags_db.csv"),
                &out),
            0)
      << out;
  ASSERT_EQ(Run("profile --xtuples 30 --out " + Path("flags_profile.csv"),
                &out),
            0)
      << out;
  const std::string db = " --db " + Path("flags_db.csv");
  const std::string profile = " --profile " + Path("flags_profile.csv");
  const std::string unwritten = " --out " + Path("flags_unwritten");
  ASSERT_EQ(Run("snapshot save" + db + " --k 3 --out " + Path("flags.snap"),
                &out),
            0)
      << out;
  const std::string snap = " --snapshot " + Path("flags.snap");
  // Each misspelled, dropped or repeated flag exits 1 naming the flag
  // (and the command it does not belong to), before the command reads
  // stdin or writes its --out file.
  const std::pair<std::string, std::string> cases[] = {
      {"generate --type synthetic" + unwritten + " --sed 5",
       "generate does not take --sed"},
      {"profile --xtuples 30" + unwritten + " --cost-mx 4",
       "profile does not take --cost-mx"},
      {"inspect" + db + " --row 3", "inspect does not take --row"},
      {"query" + db + " --k 3 --thresold 0.9",
       "query does not take --thresold"},
      {"quality" + db + " --k 3 --algoo tp", "quality does not take --algoo"},
      {"plan" + db + profile + " --k 3 --budget 10 --planer dp",
       "plan does not take --planer"},
      {"clean" + db + profile + " --k 3 --budget 10 --adaptiv 1" + unwritten,
       "clean does not take --adaptiv"},
      {"target" + db + profile + " --k 3 --target -1 --max-budge 9",
       "target does not take --max-budge"},
      {"snapshot save" + db + " --k 3" + unwritten + " --session 2",
       "snapshot save does not take --session"},
      {"snapshot load" + snap + " --thread 2",
       "snapshot load does not take --thread"},
      {"snapshot inspect" + snap + " --k 3",
       "snapshot inspect does not take --k"},
      {"serve" + db + " --k 3 --max-bacth 4",
       "serve does not take --max-bacth"},
      {"serve" + db + " --k 3 --plan seq", "serve does not take --plan"},
      {"serve" + db + " --k 3 --calibrate on",
       "serve does not take --calibrate"},
      {"query" + db + " --k 3 --k 5 --semantics ptk", "flag --k given twice"},
      {"clean" + db + profile + " --k 3 --adaptive --adaptive" + unwritten,
       "flag --adaptive given twice"},
  };
  for (const auto& [args, message] : cases) {
    EXPECT_EQ(Run(args + " < /dev/null", &out), 1) << args << "\n" << out;
    EXPECT_NE(out.find(message), std::string::npos) << args << "\n" << out;
  }
  EXPECT_FALSE(std::ifstream(Path("flags_unwritten")).good());
}

/// The `ok `/`error ` reply lines of a `serve` run, in order, with the
/// PlanRecord tokens dropped (the banner and notes are other lines).
std::vector<std::string> StrippedReplies(const std::string& out) {
  std::vector<std::string> replies;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("ok ", 0) != 0 && line.rfind("error code=", 0) != 0) {
      continue;
    }
    std::istringstream tokens(line);
    std::string token;
    std::string kept;
    while (tokens >> token) {
      if (token.rfind("exec=", 0) == 0 || token.rfind("batch=", 0) == 0 ||
          token.rfind("threads=", 0) == 0) {
        continue;
      }
      if (!kept.empty()) kept += ' ';
      kept += token;
    }
    replies.push_back(kept);
  }
  return replies;
}

TEST_F(CliTest, ServeAnswersEveryLineLikeAnInProcessFrontend) {
  std::string out;
  ASSERT_EQ(Run("generate --type synthetic --xtuples 60 --out " +
                    Path("serve_db.csv") + " --seed 9",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("snapshot save --db " + Path("serve_db.csv") +
                    " --k-ladder 5,10 --sessions 1 --out " +
                    Path("serve.snap"),
                &out),
            0)
      << out;
  // Warm k = 5 and 10, cold k = 7; a malformed line and a plan token
  // are InvalidArgument replies in their place.
  const std::vector<std::string> requests = {
      "topk 5", "topk 7",   "quality 10", "quality 7",
      "stats",  "topk x y", "topk 5 plan=seq", "topk 7"};
  {
    std::ofstream in(Path("serve_in.txt"));
    for (const std::string& request : requests) in << request << "\n";
  }
  const std::string stdin_file = " < " + Path("serve_in.txt");
  for (const bool from_snapshot : {false, true}) {
    const std::string source =
        from_snapshot ? " --snapshot " + Path("serve.snap")
                      : " --db " + Path("serve_db.csv") + " --k-ladder 5,10";
    ASSERT_EQ(Run("serve" + source + stdin_file, &out), 0) << out;
    const std::vector<std::string> served = StrippedReplies(out);
    ASSERT_EQ(served.size(), requests.size()) << out;
    EXPECT_EQ(served[5].rfind("error code=InvalidArgument ", 0), 0u) << out;
    EXPECT_EQ(served[6].rfind("error code=InvalidArgument ", 0), 0u) << out;

    Result<SessionPool> pool =
        from_snapshot ? SessionPool::OpenFromSnapshot(Path("serve.snap"))
                      : SessionPool::Create(
                            *ReadDatabaseCsvFile(Path("serve_db.csv")),
                            *KLadder::Of({5, 10}));
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    Result<serve::Frontend> frontend = serve::Frontend::Create(
        std::move(*pool), std::nullopt, serve::FrontendOptions());
    ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();
    const serve::Frontend::ClientId client = frontend->Connect();
    std::string expected;
    for (const std::string& line : requests) {
      Result<serve::Request> request = serve::ParseRequest(line);
      serve::Reply reply;
      if (request.ok()) {
        reply = frontend->Execute(client, *request);
      } else {
        reply.status = request.status();
      }
      expected += serve::FormatReply(reply) + "\n";
    }
    EXPECT_EQ(served, StrippedReplies(expected)) << out;
  }
}

TEST_F(CliTest, ErrorPaths) {
  std::string out;
  // Missing required flag.
  EXPECT_NE(Run("generate --type synthetic", &out), 0);
  EXPECT_NE(out.find("error"), std::string::npos);
  // Unknown type / planner / algo.
  EXPECT_NE(Run("generate --type bogus --out " + Path("x.csv")), 0);
  EXPECT_NE(Run("quality --db /nonexistent.csv --k 5"), 0);
  // Flag without value.
  EXPECT_NE(Run("inspect --db"), 0);
  // Non-flag argument.
  EXPECT_NE(Run("inspect stray"), 0);
}

}  // namespace
}  // namespace uclean
