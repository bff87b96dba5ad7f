// Tests for the retargetable scan kernels (rank/kernel.h) and their
// BITWISE contract: the scalar and AVX2 kernels must produce bit-for-bit
// identical results -- not merely close -- for every element op and for
// every scan driver built on them (one-shot ladders, engine
// checkpoints/replays, pooled-session overlays, sharded cuts at any
// thread count). The contract holds everywhere, but the count-refresh
// grid (kCountRefreshGridLive live ordinals) is where it is load-bearing:
// the workloads here cross the grid so RebuildCounts runs under both
// kernels, and the engine comparisons restart scans at every checkpoint.
// Also covers the runtime dispatch: kAuto honors UCLEAN_DISABLE_AVX2
// (the forced-scalar CI leg's switch), an explicit kAvx2 ignores it, and
// impossible asks fail fast.
//
// Every scalar-vs-AVX2 comparison is skipped (never silently passed)
// when the AVX2 kernel cannot run on this host.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/kernel.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "rank/psr_scan_core.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

using psr_internal::AlignedBuf;
using psr_internal::ScanKernel;

/// RAII setter for UCLEAN_DISABLE_AVX2 (read per call, never cached).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_.assign(old);
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

ExecOptions ExecWith(KernelKind kernel, size_t threads = 1) {
  ExecOptions exec;
  exec.kernel = kernel;
  exec.num_threads = threads;
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  UCLEAN_CHECK(resolved.ok());
  return std::move(resolved).value();
}

/// Sub-unit existence masses: nothing saturates, the count vector stays
/// wide, and deep rungs cross the refresh grid (RebuildCounts under both
/// kernels). Unit masses saturate instead and exercise the Lemma-2 path.
ProbabilisticDatabase MakeDb(bool subunit, size_t num_xtuples = 2000) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  if (subunit) {
    opts.real_mass_min = 0.2;
    opts.real_mass_max = 0.5;
  }
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Exact equality, element for element: EXPECT_EQ on doubles compares
/// bit patterns for every value the scan can produce (no NaNs).
void ExpectBitwiseEqual(const std::vector<double>& scalar,
                        const std::vector<double>& avx2,
                        const std::string& label) {
  ASSERT_EQ(scalar.size(), avx2.size()) << label;
  for (size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i], avx2[i]) << label << " at index " << i;
  }
}

void ExpectPsrBitwiseEqual(const PsrOutput& scalar, const PsrOutput& avx2,
                           const std::string& label) {
  ASSERT_EQ(scalar.k, avx2.k) << label;
  EXPECT_EQ(scalar.scan_end, avx2.scan_end) << label;
  EXPECT_EQ(scalar.num_nonzero, avx2.num_nonzero) << label;
  ExpectBitwiseEqual(scalar.topk_prob, avx2.topk_prob, label + " topk_prob");
  ExpectBitwiseEqual(scalar.best_rank_prob, avx2.best_rank_prob,
                     label + " best_rank_prob");
  for (size_t h = 0; h < scalar.k; ++h) {
    EXPECT_EQ(scalar.best_rank_index[h], avx2.best_rank_index[h])
        << label << " rank " << h + 1;
  }
  ASSERT_EQ(scalar.has_rank_probabilities, avx2.has_rank_probabilities)
      << label;
  if (scalar.has_rank_probabilities) {
    ExpectBitwiseEqual(scalar.rank_prob, avx2.rank_prob,
                       label + " rank_prob");
  }
}

/// True when this host can run the AVX2 kernel; comparisons skip (never
/// silently pass) otherwise. kAvx2 ignores UCLEAN_DISABLE_AVX2 by
/// design, so these comparisons run even on the forced-scalar CI leg.
bool Avx2Available() {
  return psr_internal::Avx2ScanKernelOrNull() != nullptr;
}

#define SKIP_WITHOUT_AVX2()                                   \
  if (!Avx2Available()) {                                     \
    GTEST_SKIP() << "AVX2 kernel unavailable on this host";   \
  }

// -------------------------------------------------------------- dispatch

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  Result<const ScanKernel*> scalar = SelectScanKernel(KernelKind::kScalar);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  EXPECT_EQ((*scalar)->kind, KernelKind::kScalar);
  EXPECT_STREQ((*scalar)->name, "scalar");
}

TEST(KernelDispatch, AutoResolvesToConcreteKernel) {
  Result<const ScanKernel*> kernel = SelectScanKernel(KernelKind::kAuto);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  EXPECT_NE((*kernel)->kind, KernelKind::kAuto);
  if (Avx2Supported() && !Avx2Disabled()) {
    EXPECT_EQ((*kernel)->kind, KernelKind::kAvx2);
  } else {
    EXPECT_EQ((*kernel)->kind, KernelKind::kScalar);
  }
}

TEST(KernelDispatch, ExplicitAvx2FailsFastWhenUnavailable) {
  Result<const ScanKernel*> avx2 = SelectScanKernel(KernelKind::kAvx2);
  if (Avx2Supported()) {
    ASSERT_TRUE(avx2.ok()) << avx2.status();
    EXPECT_EQ((*avx2)->kind, KernelKind::kAvx2);
    EXPECT_STREQ((*avx2)->name, "avx2");
  } else {
    EXPECT_FALSE(avx2.ok());
  }
}

TEST(KernelDispatch, EnvironmentSwitchForcesScalarForAutoOnly) {
  // kAuto honors the switch: on AVX2 hardware the forced-scalar leg
  // demotes the default kernel; an explicit kAvx2 still resolves so
  // equivalence tests can pit both kernels under that environment.
  ScopedEnv disable("UCLEAN_DISABLE_AVX2", "1");
  EXPECT_TRUE(Avx2Disabled());
  Result<const ScanKernel*> auto_kernel = SelectScanKernel(KernelKind::kAuto);
  ASSERT_TRUE(auto_kernel.ok()) << auto_kernel.status();
  EXPECT_EQ((*auto_kernel)->kind, KernelKind::kScalar);
  EXPECT_EQ(psr_internal::DefaultScanKernel().kind, KernelKind::kScalar);
  if (Avx2Supported()) {
    Result<const ScanKernel*> forced = SelectScanKernel(KernelKind::kAvx2);
    ASSERT_TRUE(forced.ok()) << forced.status();
    EXPECT_EQ((*forced)->kind, KernelKind::kAvx2);
  }
}

TEST(KernelDispatch, EnvironmentSwitchFalsyValuesDoNotDisable) {
  for (const char* falsy : {"", "0", "off", "OFF", "false"}) {
    ScopedEnv env("UCLEAN_DISABLE_AVX2", falsy);
    EXPECT_FALSE(Avx2Disabled()) << "value '" << falsy << "'";
  }
  for (const char* truthy : {"1", "on", "yes"}) {
    ScopedEnv env("UCLEAN_DISABLE_AVX2", truthy);
    EXPECT_TRUE(Avx2Disabled()) << "value '" << truthy << "'";
  }
}

TEST(KernelDispatch, KindNames) {
  EXPECT_STREQ(KernelKindName(KernelKind::kAuto), "auto");
  EXPECT_STREQ(KernelKindName(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(KernelKindName(KernelKind::kAvx2), "avx2");
}

TEST(KernelDispatch, ScanResultRecordsResolvedKernel) {
  const ProbabilisticDatabase db = MakeDb(/*subunit=*/false, 50);
  Result<ScanRequest> request = ScanRequest::ForK(5);
  ASSERT_TRUE(request.ok());
  request->exec.kernel = KernelKind::kScalar;
  Result<ScanResult> scalar = ComputePsrLadder(db, *request);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  EXPECT_EQ(scalar->kernel, KernelKind::kScalar);

  // Under the forced-scalar environment an auto request resolves (and
  // reports) scalar even on AVX2 hardware.
  ScopedEnv disable("UCLEAN_DISABLE_AVX2", "1");
  request->exec.kernel = KernelKind::kAuto;
  Result<ScanResult> forced = ComputePsrLadder(db, *request);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_EQ(forced->kernel, KernelKind::kScalar);
}

// ---------------------------------------------------- element-op parity

/// Random but reproducible operand buffers, including the remainder
/// lanes (sizes straddle multiples of the 4-wide AVX2 vectors).
constexpr size_t kOpSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 67};

TEST(KernelOps, FoldScaleArgmaxBitwiseEqual) {
  SKIP_WITHOUT_AVX2();
  const ScanKernel* avx2 = psr_internal::Avx2ScanKernelOrNull();
  const ScanKernel& scalar = psr_internal::ScalarScanKernel();
  Rng rng(20260808);
  for (const size_t n : kOpSizes) {
    std::vector<double> base(n + 1), src(n);
    for (double& v : base) v = rng.Uniform(0.0, 1.0);
    for (double& v : src) v = rng.Uniform(0.0, 1.0);
    const double q = rng.Uniform(0.01, 0.99);
    const std::string label = "n=" + std::to_string(n);

    if (n >= 1) {
      // fold_factor, distinct buffers then the aliased in-place form
      // RebuildCounts uses (c == base).
      std::vector<double> c_s(n + 1), c_v(n + 1);
      scalar.fold_factor(c_s.data(), base.data(), n, q);
      avx2->fold_factor(c_v.data(), base.data(), n, q);
      ExpectBitwiseEqual(c_s, c_v, "fold " + label);
      std::vector<double> alias_s(base), alias_v(base);
      scalar.fold_factor(alias_s.data(), alias_s.data(), n, q);
      avx2->fold_factor(alias_v.data(), alias_v.data(), n, q);
      ExpectBitwiseEqual(alias_s, alias_v, "fold-alias " + label);
    }

    const double e = rng.Uniform(0.0, 1.0);

    // update_argmax, including ties (strict compare: ties keep the
    // incumbent in both kernels).
    std::vector<double> best_s(n), best_v(n);
    std::vector<int32_t> idx_s(n, -1), idx_v(n, -1);
    for (size_t i = 0; i < n; ++i) {
      best_s[i] = best_v[i] = (i % 3 == 0) ? src[i] : rng.Uniform(0.0, 1.0);
    }
    scalar.update_argmax(best_s.data(), idx_s.data(), src.data(), n, 42);
    avx2->update_argmax(best_v.data(), idx_v.data(), src.data(), n, 42);
    ExpectBitwiseEqual(best_s, best_v, "argmax-prob " + label);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(idx_s[i], idx_v[i]) << "argmax-index " << label << " at " << i;
    }

    // emit_segment without trackers: dst and the returned prefix must
    // match the unfused scale + sequential-sum composition bitwise in
    // both kernels (the prefix is loop-carried, so this checks that
    // neither kernel re-associates the accumulation).
    const double p0 = rng.Uniform(0.0, 2.0);
    std::vector<double> ref(n);
    for (size_t i = 0; i < n; ++i) ref[i] = e * src[i];
    double p_ref = p0;
    for (size_t i = 0; i < n; ++i) p_ref += ref[i];
    std::vector<double> emit_s(n), emit_v(n);
    const double p_s = scalar.emit_segment(emit_s.data(), src.data(), n, e, p0,
                                           nullptr, nullptr, 7);
    const double p_v = avx2->emit_segment(emit_v.data(), src.data(), n, e, p0,
                                          nullptr, nullptr, 7);
    ExpectBitwiseEqual(emit_s, ref, "emit-dst-vs-unfused " + label);
    ExpectBitwiseEqual(emit_s, emit_v, "emit-dst " + label);
    ASSERT_EQ(p_s, p_ref) << "emit-prefix-vs-unfused " << label;
    ASSERT_EQ(p_s, p_v) << "emit-prefix " << label;

    // emit_segment with trackers folded in: the fused argmax must agree
    // with the standalone update_argmax over the same window.
    std::vector<double> eb_ref(best_s), eb_s(best_s), eb_v(best_s);
    std::vector<int32_t> ei_ref(idx_s), ei_s(idx_s), ei_v(idx_s);
    scalar.update_argmax(eb_ref.data(), ei_ref.data(), emit_s.data(), n, 99);
    const double tp_s = scalar.emit_segment(emit_s.data(), src.data(), n, e,
                                            p0, eb_s.data(), ei_s.data(), 99);
    const double tp_v = avx2->emit_segment(emit_v.data(), src.data(), n, e, p0,
                                           eb_v.data(), ei_v.data(), 99);
    ASSERT_EQ(tp_s, p_ref) << "emit-tracked-prefix " << label;
    ASSERT_EQ(tp_v, p_ref) << "emit-tracked-prefix-avx2 " << label;
    ExpectBitwiseEqual(eb_s, eb_ref, "emit-argmax-prob-vs-unfused " + label);
    ExpectBitwiseEqual(eb_s, eb_v, "emit-argmax-prob " + label);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ei_s[i], ei_ref[i]) << "emit-argmax-index " << label;
      ASSERT_EQ(ei_s[i], ei_v[i]) << "emit-argmax-index-avx2 " << label;
    }
  }
}

// ------------------------------------------------- scan-level equality

TEST(KernelScan, LadderScanBitwiseEqualAcrossKernelsAndThreads) {
  const KLadder ladder = MakeLadder({8, 256});
  PsrOptions options;
  options.store_rank_probabilities = true;
  SKIP_WITHOUT_AVX2();
  for (const bool subunit : {true, false}) {
    const ProbabilisticDatabase db = MakeDb(subunit);
    Result<std::vector<PsrOutput>> scalar =
        ScanPsrLadder(db, ladder, options, ExecWith(KernelKind::kScalar));
    ASSERT_TRUE(scalar.ok()) << scalar.status();
    if (subunit) {
      // The deep rung must cross the refresh grid, or RebuildCounts
      // never runs and the grid anchor goes untested.
      ASSERT_GT(scalar->back().scan_end,
                psr_internal::kCountRefreshGridLive);
    }
    // Sharded cuts at several thread counts: every (kernel, threads)
    // combination must be bitwise equal to the sequential scalar scan.
    for (const size_t threads : {1u, 2u, 3u}) {
      Result<std::vector<PsrOutput>> avx2 = ScanPsrLadder(
          db, ladder, options, ExecWith(KernelKind::kAvx2, threads));
      ASSERT_TRUE(avx2.ok()) << avx2.status();
      for (size_t j = 0; j < ladder.size(); ++j) {
        ExpectPsrBitwiseEqual(
            (*scalar)[j], (*avx2)[j],
            (subunit ? "subunit" : "unit") + std::string(" threads=") +
                std::to_string(threads) + " k=" + std::to_string(ladder[j]));
      }
    }
  }
}

TEST(KernelScan, EngineReplayFromEveryCheckpointBitwiseEqual) {
  SKIP_WITHOUT_AVX2();
  const ProbabilisticDatabase db = MakeDb(/*subunit=*/true, 800);
  const KLadder ladder = MakeLadder({4, 160});
  PsrOptions options;
  options.store_rank_probabilities = true;

  const auto make_engine = [&](KernelKind kernel) {
    ScanRequest request;
    request.ladder = ladder;
    request.psr = options;
    request.exec = ExecWith(kernel);
    return PsrEngine::Create(db, request);
  };
  Result<PsrEngine> scalar = make_engine(KernelKind::kScalar);
  Result<PsrEngine> avx2 = make_engine(KernelKind::kAvx2);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  ASSERT_TRUE(avx2.ok()) << avx2.status();
  // Each engine's sole session holds every checkpoint, as in a
  // CleaningSession.
  const PsrEngine::SessionState scalar_state = scalar->TakeSoleSession();
  const PsrEngine::SessionState avx2_state = avx2->TakeSoleSession();

  // Identical checkpoint placement (same live ordinals, same cadence)
  // and bitwise-identical outputs from the initial scans.
  ASSERT_EQ(scalar_state.checkpoint_positions(),
            avx2_state.checkpoint_positions());
  for (size_t j = 0; j < ladder.size(); ++j) {
    ExpectPsrBitwiseEqual(scalar_state.output(j), avx2_state.output(j),
                          "create k=" + std::to_string(ladder[j]));
  }

  // Replays restarted at EVERY checkpoint rank of an unchanged view: the
  // restored snapshot plus the replayed suffix must agree bitwise between
  // kernels, and with the uninterrupted scan of either.
  const DatabaseOverlay unchanged(&db);
  const std::vector<size_t> positions = scalar_state.checkpoint_positions();
  ASSERT_GT(positions.size(), 4u);
  for (const size_t pos : positions) {
    PsrEngine::SessionState scalar_restart = scalar_state;
    PsrEngine::SessionState avx2_restart = avx2_state;
    ASSERT_TRUE(scalar->ReplaySession(unchanged, pos, &scalar_restart).ok())
        << "restart at " << pos;
    ASSERT_TRUE(avx2->ReplaySession(unchanged, pos, &avx2_restart).ok())
        << "restart at " << pos;
    for (size_t j = 0; j < ladder.size(); ++j) {
      const std::string label = "restart at " + std::to_string(pos) +
                                " k=" + std::to_string(ladder[j]);
      ExpectPsrBitwiseEqual(scalar_restart.output(j), avx2_restart.output(j),
                            label);
      ExpectPsrBitwiseEqual(scalar_state.output(j), scalar_restart.output(j),
                            label + " vs full scan");
    }
  }
}

TEST(KernelScan, PooledSessionOverlaysBitwiseEqualUnderCleans) {
  SKIP_WITHOUT_AVX2();
  const ProbabilisticDatabase db = MakeDb(/*subunit=*/true, 1200);
  const KLadder ladder = MakeLadder({8, 192});
  constexpr size_t kSessions = 3;

  const auto make_pool = [&](KernelKind kernel) {
    SessionPool::Options options;
    options.exec = ExecWith(kernel);
    return SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
  };
  Result<SessionPool> scalar = make_pool(KernelKind::kScalar);
  Result<SessionPool> avx2 = make_pool(KernelKind::kAvx2);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  ASSERT_TRUE(avx2.ok()) << avx2.status();

  std::vector<SessionPool::SessionId> scalar_ids, avx2_ids;
  for (size_t s = 0; s < kSessions; ++s) {
    scalar_ids.push_back(scalar->OpenSession());
    avx2_ids.push_back(avx2->OpenSession());
  }

  // Identical per-session outcome streams through both pools; every
  // refresh replays each session's overlay through its pool's kernel,
  // and the maintained per-rung state must stay bitwise equal.
  Rng rng(20260808);
  for (int round = 0; round < 3; ++round) {
    for (size_t s = 0; s < kSessions; ++s) {
      const size_t scan_end =
          scalar->psr(scalar_ids[s], ladder.size() - 1).scan_end;
      const size_t rank = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scan_end - 1)));
      const DatabaseOverlay& view = scalar->overlay(scalar_ids[s]);
      if (view.is_tombstone(rank)) continue;
      const Tuple& t = view.tuple(rank);
      const TupleId resolved = rng.Bernoulli(0.3) ? TupleId{-1} : t.id;
      const bool s_ok =
          scalar->ApplyCleanOutcome(scalar_ids[s], t.xtuple, resolved).ok();
      const bool v_ok =
          avx2->ApplyCleanOutcome(avx2_ids[s], t.xtuple, resolved).ok();
      ASSERT_EQ(s_ok, v_ok);
    }
    ASSERT_TRUE(scalar->RefreshAll().ok());
    ASSERT_TRUE(avx2->RefreshAll().ok());
    for (size_t s = 0; s < kSessions; ++s) {
      for (size_t j = 0; j < ladder.size(); ++j) {
        const std::string label = "round " + std::to_string(round) +
                                  " session " + std::to_string(s) +
                                  " k=" + std::to_string(ladder[j]);
        ExpectPsrBitwiseEqual(scalar->psr(scalar_ids[s], j),
                              avx2->psr(avx2_ids[s], j), label);
        ASSERT_EQ(scalar->quality(scalar_ids[s], j),
                  avx2->quality(avx2_ids[s], j))
            << label;
      }
    }
  }
}

}  // namespace
}  // namespace uclean
