// Tests for the retargetable scan kernels (rank/kernel.h) and their
// BITWISE contract: the scalar and AVX2 kernels must produce bit-for-bit
// identical results -- not merely close -- for every element op and for
// every scan driver built on them (one-shot ladders, engine
// checkpoints/replays, pooled-session overlays, sharded cuts at any
// thread count). The contract holds everywhere, but the count-refresh
// grid (kCountRefreshGridLive live ordinals) is where it is load-bearing:
// the workloads here cross the grid so RebuildCounts runs under both
// kernels, and the engine comparisons restart scans at every checkpoint.
// The chained divide-out is held to the single-tuple path the same way:
// DivideOutChain against a literal single-tuple recurrence, and every
// chained scan driver against the single-tuple scan loop, on inputs that
// reach every rule that cuts a chain.
// Also covers the runtime dispatch: kAuto honors UCLEAN_DISABLE_AVX2
// (the forced-scalar CI leg's switch), an explicit kAvx2 ignores it, and
// impossible asks fail fast.
//
// Every scalar-vs-AVX2 comparison is skipped (never silently passed)
// when the AVX2 kernel cannot run on this host.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "workload/mov.h"
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

// -------------------------------------------------- chained divide-out

/// The single-tuple divide-out as it ran before chaining, written out
/// literally: the independent reference DivideOutChain is held to. This
/// file is compiled with -ffp-contract=off, like kernel.cc, so the
/// reference rounds every op as written. `clamps` counts the elements
/// the max(0, .) clamp zeroed.
void ReferenceDivideOut(double* excl, const double* c, size_t top, double q,
                        size_t* clamps) {
  if (q <= 0.5) {
    const double headroom = 1.0 - q;
    excl[0] = c[0] / headroom;
    for (size_t j = 1; j < top; ++j) {
      const double v = (c[j] - excl[j - 1] * q) / headroom;
      *clamps += v < 0.0;
      excl[j] = v < 0.0 ? 0.0 : v;
    }
  } else {
    excl[top - 1] = c[top] / q;
    for (size_t j = top - 1; j > 0; --j) {
      const double v = (c[j] - (1.0 - q) * excl[j]) / q;
      *clamps += v < 0.0;
      excl[j - 1] = v < 0.0 ? 0.0 : v;
    }
  }
}

TEST(KernelOps, ChainedDivideOutEqualsSingleTupleSteps) {
  using psr_internal::kMaxChain;
  Rng rng(20261017);
  size_t clamps = 0;
  size_t repeats = 0;
  for (const size_t top : {1, 2, 3, 4, 5, 9, 33, 200}) {
    for (size_t width = 1; width <= kMaxChain; ++width) {
      for (const bool forward : {true, false}) {
        for (int trial = 0; trial < 8; ++trial) {
          // A genuine count vector: the product of `top` Bernoulli
          // factors, so the divide-outs cancel as in a scan.
          std::vector<double> c(1, 1.0);
          for (size_t f = 0; f < top; ++f) {
            c.resize(f + 2);
            psr_internal::FoldFactorScalar(c.data(), c.data(), f + 1,
                                           rng.Uniform(0.001, 0.999));
          }
          // Member masses in the chain's direction; a member repeats the
          // previous member's x-tuple (dividing out its advanced mass)
          // whenever that mass is still in the direction.
          std::vector<double> q(width), q_next(width);
          for (size_t m = 0; m < width; ++m) {
            const bool repeat = m > 0 && rng.Bernoulli(0.4) &&
                                (q_next[m - 1] <= 0.5) == forward;
            repeats += repeat;
            if (repeat) {
              q[m] = q_next[m - 1];
            } else if (forward) {
              q[m] = rng.Uniform(0.001, 0.5);
            } else {
              q[m] = rng.Uniform(0.5001, 0.98);
            }
            q_next[m] = q[m] + rng.Uniform(0.0, 0.999 - q[m]);
          }

          // Reference: `width` single-tuple divide-out + fold steps.
          std::vector<std::vector<double>> ref_excl(
              width, std::vector<double>(top));
          std::vector<std::vector<double>> ref_counts(width);
          ref_counts[0] = c;
          for (size_t m = 0; m < width; ++m) {
            ReferenceDivideOut(ref_excl[m].data(), ref_counts[m].data(), top,
                               q[m], &clamps);
            if (m + 1 < width) {
              ref_counts[m + 1].resize(top + 1);
              psr_internal::FoldFactorScalar(ref_counts[m + 1].data(),
                                             ref_excl[m].data(), top,
                                             q_next[m]);
            }
          }

          std::vector<std::vector<double>> excl(width,
                                                std::vector<double>(top));
          std::vector<std::vector<double>> counts(
              width, std::vector<double>(top + 1));
          double* excl_ptr[kMaxChain] = {};
          double* counts_ptr[kMaxChain] = {};
          for (size_t m = 0; m < width; ++m) {
            excl_ptr[m] = excl[m].data();
            if (m > 0) counts_ptr[m] = counts[m].data();
          }
          psr_internal::DivideOutChain(c.data(), top, width, forward, q.data(),
                                       q_next.data(), excl_ptr, counts_ptr);
          const std::string label =
              "top=" + std::to_string(top) + " width=" +
              std::to_string(width) + (forward ? " fwd" : " bwd") +
              " trial=" + std::to_string(trial);
          for (size_t m = 0; m < width; ++m) {
            ExpectBitwiseEqual(ref_excl[m], excl[m],
                               label + " excl " + std::to_string(m));
            if (m > 0) {
              ExpectBitwiseEqual(ref_counts[m], counts[m],
                                 label + " counts " + std::to_string(m));
            }
          }
        }
      }
    }
  }
  // The inputs reached the clamp and the repeated-x-tuple case.
  EXPECT_GT(clamps, 0u);
  EXPECT_GT(repeats, 0u);
}

/// The scan loop as it ran before chaining: ScanCore::BuildExclusion ->
/// EmitLadder -> ScanCore::Advance at every live position, one tuple at
/// a time, over the whole of `db`. Every chained driver is held to it
/// bitwise. `observe(core, i, live)` runs where a scan checkpoints.
template <typename Db, typename ObserveFn>
std::vector<PsrOutput> SingleTupleScan(const Db& db, const KLadder& ladder,
                                       const PsrOptions& options,
                                       const ScanKernel& kernel,
                                       ObserveFn&& observe) {
  std::vector<PsrOutput> outputs;
  psr_internal::InitLadderOutputs(ladder, options, &outputs);
  std::vector<PsrOutput*> outs;
  for (PsrOutput& out : outputs) outs.push_back(&out);
  psr_internal::ScanCore core;
  core.Init(db.num_xtuples(), &kernel);
  const size_t n = db.num_tuples();
  // A rung holds [0, scan_end): EmitLadder grows it, its stop sizes it.
  const auto end_rung = [](size_t at, PsrOutput* out) {
    out->scan_end = at;
    out->topk_prob.resize(at);
    if (out->has_rank_probabilities) out->rank_prob.resize(at * out->k);
  };
  size_t first_active = 0;
  size_t live = 0;
  for (size_t i = 0; i < n && first_active < outs.size(); ++i) {
    const bool is_live = !db.is_tombstone(i);
    if (is_live && live % psr_internal::kCountRefreshGridLive == 0) {
      core.RebuildCounts();
    }
    if (options.early_termination) {
      while (first_active < outs.size() &&
             core.ShouldStop(outs[first_active]->k)) {
        end_rung(i, outs[first_active]);
        ++first_active;
      }
      if (first_active == outs.size()) break;
    }
    if (!is_live) continue;
    observe(core, i, live);
    const Tuple& t = db.tuple(i);
    const psr_internal::ScanCore::Exclusion ex = core.BuildExclusion(t);
    psr_internal::EmitLadder(t, i, core, ex, outs, first_active,
                             /*track_best=*/true);
    core.Advance(t, ex);
    ++live;
  }
  for (size_t j = first_active; j < outs.size(); ++j) end_rung(n, outs[j]);
  for (PsrOutput& out : outputs) {
    out.num_nonzero = 0;
    for (const double p : out.topk_prob) out.num_nonzero += p > 0.0;
  }
  return outputs;
}

/// The chains a full chained scan of a view forms, re-derived from the
/// single-tuple scan's state by restating ExclusionChain's rules, with
/// a tally of the rules that cut them: the inputs of each chain test
/// must reach every rule. Feed Observe every live position in order.
struct ChainCoverage {
  size_t forward = 0;     // chains of two or more members, by direction
  size_t backward = 0;
  size_t repeated = 0;    // chains holding one x-tuple twice
  size_t saturating = 0;  // chains cut by their last member saturating
  size_t saturating_chained = 0;  // ... that have two or more members
  size_t grid = 0;        // chains the refresh grid alone cut
  size_t tombstone = 0;   // chains with a tombstone between two members
  std::vector<size_t> inner;  // positions of every member but the first
  size_t chain_end = 0;   // positions below it belong to the last chain

  bool IsInner(size_t pos) const {
    return std::binary_search(inner.begin(), inner.end(), pos);
  }

  template <typename Db>
  void Observe(const Db& db, const psr_internal::ScanCore& core, size_t i,
               size_t live) {
    using psr_internal::XTupleState;
    if (i < chain_end) return;  // a member of the last chain
    chain_end = i + 1;
    const Tuple& first = db.tuple(i);
    if (core.state[first.xtuple] != XTupleState::kActive) return;
    std::vector<int32_t> xs = {first.xtuple};
    std::vector<double> advanced = {core.q[first.xtuple] + first.prob};
    const bool fwd = core.q[first.xtuple] <= 0.5;
    bool repeat = false;
    bool skipped_tombstone = false;
    size_t p = i;
    while (xs.size() < psr_internal::kMaxChain) {
      if (advanced.back() >= psr_internal::kSaturationThreshold) {
        ++saturating;
        saturating_chained += xs.size() >= 2;
        break;
      }
      size_t next = p + 1;
      bool skipped = false;
      while (next < db.num_tuples() && db.is_tombstone(next)) {
        ++next;
        skipped = true;
      }
      if (next >= db.num_tuples()) break;
      const Tuple& t = db.tuple(next);
      const auto seen = std::find(xs.rbegin(), xs.rend(), t.xtuple);
      double qt = 0.0;
      if (seen != xs.rend()) {
        qt = advanced[xs.rend() - seen - 1];
      } else if (core.state[t.xtuple] == XTupleState::kActive) {
        qt = core.q[t.xtuple];
      } else {
        break;
      }
      if ((qt <= 0.5) != fwd) break;
      if ((live + xs.size()) % psr_internal::kCountRefreshGridLive == 0) {
        ++grid;  // every other rule admits this member
        break;
      }
      repeat |= seen != xs.rend();
      skipped_tombstone |= skipped;
      xs.push_back(t.xtuple);
      advanced.push_back(qt + t.prob);
      inner.push_back(next);
      p = next;
    }
    chain_end = p + 1;
    if (xs.size() < 2) return;
    ++(fwd ? forward : backward);
    repeated += repeat;
    tombstone += skipped_tombstone;
  }
};

/// The kernels to hold to the single-tuple loop: scalar always, AVX2
/// where this host runs it.
std::vector<KernelKind> KernelsHere() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  if (Avx2Available()) kinds.push_back(KernelKind::kAvx2);
  return kinds;
}

const ScanKernel& KernelOf(KernelKind kind) {
  Result<const ScanKernel*> kernel = SelectScanKernel(kind);
  UCLEAN_CHECK(kernel.ok());
  return **kernel;
}

ProbabilisticDatabase MakeMovDb(size_t num_xtuples) {
  MovOptions opts;
  opts.num_xtuples = num_xtuples;
  Result<ProbabilisticDatabase> db = GenerateMov(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

TEST(ChainScan, OneShotAndShardedScansMatchTheSingleTupleLoop) {
  struct Case {
    std::string name;
    ProbabilisticDatabase db;
    KLadder ladder;
    bool early_termination;
  };
  Rng rng(20261017);
  RandomDbOptions mixed;
  mixed.num_xtuples = 400;
  mixed.max_alternatives = 6;
  std::vector<Case> cases;
  // Sub-unit mass: wide vectors, both directions, deep enough to cross
  // the refresh grid (chains cut there; shards cut there).
  cases.push_back(
      {"subunit", MakeDb(/*subunit=*/true), MakeLadder({8, 97, 250}), true});
  // Unit mass: x-tuples saturate on their last bar mid-chain and the
  // Lemma-2 stop fires. The deepest rung of each of these two ladders
  // stops at a non-first chain member, so the scan ends mid-chain.
  cases.push_back(
      {"unit", MakeDb(/*subunit=*/false), MakeLadder({5, 61, 117}), true});
  // The MOV stand-in (about two alternatives, some of unit mass) and a
  // mixed unit/sub-unit database, scanned through their null tails
  // (every null completion saturates its x-tuple).
  cases.push_back({"mov", MakeMovDb(1500), MakeLadder({10, 40}), false});
  cases.push_back(
      {"mixed", MakeRandomDatabase(&rng, mixed), MakeLadder({3, 20}), false});

  ChainCoverage total;
  size_t stops = 0;      // rung stops at a non-first chain member
  size_t scan_ends = 0;  // ... of a ladder's deepest rung: the scan ends
  for (const Case& test : cases) {
    PsrOptions options;
    options.early_termination = test.early_termination;
    ChainCoverage coverage;
    for (const KernelKind kind : KernelsHere()) {
      const bool first_kernel = kind == KernelKind::kScalar;
      const std::vector<PsrOutput> reference = SingleTupleScan(
          test.db, test.ladder, options, KernelOf(kind),
          [&](const psr_internal::ScanCore& core, size_t i, size_t live) {
            if (first_kernel) coverage.Observe(test.db, core, i, live);
          });
      for (const size_t threads : {1u, 2u, 4u}) {
        Result<std::vector<PsrOutput>> chained = ScanPsrLadder(
            test.db, test.ladder, options, ExecWith(kind, threads));
        ASSERT_TRUE(chained.ok()) << chained.status();
        for (size_t j = 0; j < test.ladder.size(); ++j) {
          ExpectPsrBitwiseEqual(
              reference[j], (*chained)[j],
              test.name + " " + KernelKindName(kind) + " threads=" +
                  std::to_string(threads) +
                  " k=" + std::to_string(test.ladder[j]));
        }
      }
      if (!first_kernel) continue;
      for (size_t j = 0; j < test.ladder.size(); ++j) {
        if (!coverage.IsInner(reference[j].scan_end)) continue;
        ++stops;
        scan_ends += j + 1 == test.ladder.size();
      }
    }
    total.forward += coverage.forward;
    total.backward += coverage.backward;
    total.repeated += coverage.repeated;
    total.saturating_chained += coverage.saturating_chained;
    total.grid += coverage.grid;
    if (!test.early_termination) {
      EXPECT_GT(coverage.saturating, 0u) << test.name;  // the null tail
    }
    if (test.name == "subunit") {
      EXPECT_GT(coverage.grid, 0u) << test.name;
    }
  }
  EXPECT_GT(total.forward, 0u);
  EXPECT_GT(total.backward, 0u);
  EXPECT_GT(total.repeated, 0u);
  EXPECT_GT(total.saturating_chained, 0u);
  EXPECT_GT(total.grid, 0u);
  EXPECT_GT(stops, 0u);
  EXPECT_GT(scan_ends, 0u);
}

TEST(ChainScan, EngineReplaysFromEveryCheckpointMatchTheSingleTupleLoop) {
  const KLadder ladder = MakeLadder({4, 50, 160});
  PsrOptions options;
  options.store_rank_probabilities = true;
  size_t inside = 0;  // checkpoints at a non-first chain member
  for (const bool subunit : {true, false}) {
    const ProbabilisticDatabase db = MakeDb(subunit, 500);
    const DatabaseOverlay unchanged(&db);
    for (const KernelKind kind : KernelsHere()) {
      ChainCoverage coverage;
      const std::vector<PsrOutput> reference = SingleTupleScan(
          db, ladder, options, KernelOf(kind),
          [&](const psr_internal::ScanCore& core, size_t i, size_t live) {
            coverage.Observe(db, core, i, live);
          });
      for (const size_t threads : {1u, 4u}) {
        ScanRequest request;
        request.ladder = ladder;
        request.psr = options;
        request.exec = ExecWith(kind, threads);
        request.checkpoint_interval = 7;  // checkpoints inside chains
        Result<PsrEngine> engine = PsrEngine::Create(db, request);
        ASSERT_TRUE(engine.ok()) << engine.status();
        const PsrEngine::SessionState state = engine->TakeSoleSession();
        const std::string label = std::string(subunit ? "subunit " : "unit ") +
                                  KernelKindName(kind) +
                                  " threads=" + std::to_string(threads);
        for (size_t j = 0; j < ladder.size(); ++j) {
          ExpectPsrBitwiseEqual(reference[j], state.output(j),
                                label + " create k=" +
                                    std::to_string(ladder[j]));
        }
        if (threads > 1) continue;  // the sharded Create is the check
        const std::vector<size_t> positions = state.checkpoint_positions();
        ASSERT_GT(positions.size(), 4u) << label;
        for (const size_t pos : positions) {
          inside += coverage.IsInner(pos);
          PsrEngine::SessionState restart = state;
          ASSERT_TRUE(engine->ReplaySession(unchanged, pos, &restart).ok());
          for (size_t j = 0; j < ladder.size(); ++j) {
            ExpectPsrBitwiseEqual(reference[j], restart.output(j),
                                  label + " replay from " +
                                      std::to_string(pos) + " k=" +
                                      std::to_string(ladder[j]));
          }
        }
      }
    }
  }
  EXPECT_GT(inside, 0u);
}

TEST(ChainScan, OverlayScansWithTombstonesMatchTheSingleTupleLoop) {
  const ProbabilisticDatabase db = MakeDb(/*subunit=*/true, 1200);
  const KLadder ladder = MakeLadder({6, 48});
  PsrOptions options;
  options.store_rank_probabilities = true;

  // Collapse every third x-tuple met in the top 1,500 ranks to one of its
  // alternatives (or to absent): their siblings become tombstones
  // between the surviving tuples, inside would-be chains.
  DatabaseOverlay view(&db);
  Rng rng(20261017);
  size_t first_changed = db.num_tuples();
  for (size_t rank = 0; rank < 1500; rank += 3) {
    if (view.is_tombstone(rank)) continue;
    const Tuple& t = view.tuple(rank);
    const TupleId resolved = rng.Bernoulli(0.2) ? TupleId{-1} : t.id;
    Result<DatabaseOverlay::CleanOutcomeDelta> delta =
        view.ApplyCleanOutcome(t.xtuple, resolved);
    if (!delta.ok()) continue;  // e.g. absent without a null alternative
    first_changed = std::min(first_changed, delta->first_changed_rank);
  }
  ASSERT_LT(first_changed, db.num_tuples());

  for (const KernelKind kind : KernelsHere()) {
    ChainCoverage coverage;
    const std::vector<PsrOutput> reference = SingleTupleScan(
        view, ladder, options, KernelOf(kind),
        [&](const psr_internal::ScanCore& core, size_t i, size_t live) {
          coverage.Observe(view, core, i, live);
        });
    EXPECT_GT(coverage.tombstone, 0u) << KernelKindName(kind);
    for (const size_t threads : {1u, 2u, 4u}) {
      const std::string label = std::string(KernelKindName(kind)) +
                                " threads=" + std::to_string(threads);
      Result<std::vector<PsrOutput>> chained =
          ScanPsrLadder(view, ladder, options, ExecWith(kind, threads));
      ASSERT_TRUE(chained.ok()) << chained.status();
      // A pooled session's replay of the same view, from the engine's
      // pristine fork.
      ScanRequest request;
      request.ladder = ladder;
      request.psr = options;
      request.exec = ExecWith(kind, threads);
      request.checkpoint_interval = 5;
      Result<PsrEngine> engine = PsrEngine::Create(db, request);
      ASSERT_TRUE(engine.ok()) << engine.status();
      PsrEngine::SessionState session = engine->ForkSession();
      ASSERT_TRUE(engine->ReplaySession(view, first_changed, &session).ok());
      for (size_t j = 0; j < ladder.size(); ++j) {
        const std::string rung = " k=" + std::to_string(ladder[j]);
        ExpectPsrBitwiseEqual(reference[j], (*chained)[j],
                              label + " scan" + rung);
        ExpectPsrBitwiseEqual(reference[j], session.output(j),
                              label + " replay" + rung);
      }
    }
  }
}

}  // namespace
}  // namespace uclean
