// Fault-tolerant probe execution: deterministic fault injection, retry
// policy with seeded exponential backoff, simulated deadlines, and
// per-source circuit breakers for the cleaning agent's probe loop.
//
// The paper's cleaning agent probes external sources (sensors, crowd
// workers, curated feeds); no real source answers every time. This module
// models the three failure shapes such sources exhibit:
//
//  * TRANSIENT: the attempt errors quickly; an immediate or backed-off
//    retry usually succeeds.
//  * TIMEOUT: the attempt hangs until the per-probe deadline and returns
//    nothing; retries may succeed but each one is expensive in time.
//  * SOURCE DOWN: the source is unreachable for good (drawn once per
//    source); every attempt fails until the campaign routes around it.
//
// DETERMINISM KEYSTONE. Faults are drawn from a DEDICATED per-session
// fault Rng stream, never from the probe Rng: the probe value stream
// (success draws + revealed outcomes) is untouched by any fault draw, so
//
//  * with an all-zero FaultProfile every code path is bitwise identical
//    to fault-free execution (zero-probability draws never consume the
//    engine -- Rng::Bernoulli short-circuits), and
//  * for any fail rate, serial, pooled and pipelined execution with equal
//    seeds commit identical clean outcomes: the injector is per-session
//    state consumed in plan order, exactly like the session's probe Rng
//    (tests/pipeline_test.cc extends the bitwise-equivalence suite to the
//    faulted regime).
//
// Deadlines run on the injector's SIMULATED clock (microseconds advanced
// by attempt latencies, timeouts and backoffs), never on the wall clock:
// a probe's fate must not depend on scheduler noise, or the pipelined and
// serial loops would commit different outcomes.
//
// Threading: a FaultInjector is per-session mutable state with the same
// contract as the session's Rng -- one plan/draw at a time touches it
// (clean/pipeline.h hands session s's injector to session s's round step
// only). The contract is enforced as a common/serial_gate.h capability
// on the mutating draw/clock/breaker surface: overlapping calls abort in
// debug builds, reentrant entry fails the Clang -Wthread-safety build.

#ifndef UCLEAN_CLEAN_FAULT_H_
#define UCLEAN_CLEAN_FAULT_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/serial_gate.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "model/tuple.h"

namespace uclean {

struct CleaningProblem;

/// What can happen to one probe attempt before its result is known.
enum class FaultKind {
  kNone = 0,        ///< the attempt completed; the probe value stream runs
  kTransient = 1,   ///< fast error; retry after backoff
  kTimeout = 2,     ///< attempt burned the per-probe deadline, no answer
  kSourceDown = 3,  ///< the source is unreachable (permanent this campaign)
};

/// Failure-shape configuration of the simulated sources.
struct FaultProfile {
  /// Per-attempt probability that the attempt faults (before the probe
  /// value stream is consulted). 0 disables transient faults and, because
  /// zero-probability draws never consume the fault engine, keeps the
  /// injector entirely passive.
  double fail_rate = 0.0;

  /// Of the faulted attempts, the fraction that are timeouts (burning the
  /// per-probe deadline) instead of fast transient errors.
  double timeout_share = 0.5;

  /// Per-source probability of being DOWN, drawn lazily once per source
  /// from the fault stream on first contact. A down source fails every
  /// attempt; only the circuit breaker stops the bleeding.
  double down_rate = 0.0;

  Status Validate() const;
};

/// Retry/backoff/deadline knobs of the probe loop.
struct RetryPolicy {
  /// Total tries per planned probe (1 = no retry). Attempts past the
  /// first are preceded by exponential backoff with seeded jitter.
  int64_t max_attempts = 3;

  /// Base backoff before retry r (doubling per retry: base << (r-1)),
  /// simulated microseconds.
  int64_t backoff_us = 100;

  /// Multiplicative jitter amplitude in [0, 1): each backoff is scaled by
  /// a factor drawn uniformly from [1 - jitter, 1 + jitter) out of the
  /// fault stream (seeded -- two runs draw identical jitter).
  double jitter = 0.1;

  /// Per-probe deadline (simulated us) across all of a probe's attempts
  /// and backoffs; a timeout fault burns exactly this much. 0 = none.
  int64_t probe_deadline_us = 0;

  /// Per-plan deadline (simulated us): once a plan execution's simulated
  /// clock passes it, remaining probes are abandoned (reported, unspent).
  /// 0 = none.
  int64_t plan_deadline_us = 0;

  Status Validate() const;
};

/// Circuit-breaker knobs, per source (x-tuple).
struct BreakerOptions {
  /// Consecutive failed probes (retries exhausted, timeouts, down) that
  /// trip the breaker open.
  int64_t threshold = 5;

  /// Simulated time an open breaker blocks its source before one
  /// half-open trial probe is admitted.
  int64_t cooldown_us = 20000;

  Status Validate() const;
};

/// Everything the loops need to stand up fault handling; `enabled = false`
/// (the default) keeps every code path fault-free and bitwise identical
/// to the pre-fault library.
struct FaultOptions {
  bool enabled = false;
  FaultProfile profile;
  RetryPolicy retry;
  BreakerOptions breaker;
  /// Seed of the dedicated fault stream. Loops over many sessions seed
  /// session s with `seed + s`, mirroring the probe Rng convention.
  uint64_t seed = 0;

  Status Validate() const;
};

/// Fault bookkeeping of one plan execution (or an aggregate of several);
/// every counter is deterministic under the determinism keystone.
struct FaultStats {
  int64_t transient = 0;      ///< attempts that failed fast
  int64_t timeouts = 0;       ///< attempts that burned the probe deadline
  int64_t source_down = 0;    ///< attempts against unreachable sources
  int64_t retries = 0;        ///< extra attempts after a faulted one
  int64_t failed_probes = 0;  ///< probes with no answer after all retries
  int64_t breaker_skips = 0;  ///< planned probes skipped: breaker open
  int64_t deadline_skips = 0; ///< planned probes abandoned: plan deadline
  /// Planned budget the failures above left unspent -- what the adaptive
  /// re-planner reinvests next round.
  int64_t budget_unspent = 0;

  /// Total faulted attempts.
  int64_t FaultedAttempts() const {
    return transient + timeouts + source_down;
  }
  /// Planned probes that never produced an answer (failed, skipped or
  /// abandoned): nonzero means the plan execution was partial and the
  /// loop should keep going even when nothing was spent.
  int64_t BlockedProbes() const {
    return failed_probes + breaker_skips + deadline_skips;
  }

  FaultStats& operator+=(const FaultStats& other);

  friend bool operator==(const FaultStats& a, const FaultStats& b) {
    return a.transient == b.transient && a.timeouts == b.timeouts &&
           a.source_down == b.source_down && a.retries == b.retries &&
           a.failed_probes == b.failed_probes &&
           a.breaker_skips == b.breaker_skips &&
           a.deadline_skips == b.deadline_skips &&
           a.budget_unspent == b.budget_unspent;
  }
};

/// The complete portable state of a FaultInjector mid-campaign, for the
/// snapshot store (store/snapshot.h): the dedicated fault stream, the
/// simulated clock and every breaker/down entry. Map entries are listed
/// sorted by source so equal injectors always save equal states (the
/// injector's own behavior never depends on map iteration order: it only
/// looks sources up and counts open entries). Restoring a SaveState
/// capture into an injector built from the SAME FaultOptions resumes the
/// exact campaign: every later draw, backoff and breaker decision is
/// bitwise the one the saved injector would have made.
struct FaultInjectorState {
  std::string rng_state;  ///< Rng::SaveState of the dedicated stream
  int64_t now_us = 0;
  bool ever_opened = false;

  struct BreakerEntry {
    XTupleId source = 0;
    uint8_t state = 0;  ///< BreakerState underlying value (0, 1, 2)
    int64_t consecutive_failures = 0;
    int64_t open_until_us = 0;
  };
  std::vector<BreakerEntry> breakers;  ///< sorted by source

  struct DownEntry {
    XTupleId source = 0;
    bool down = false;
  };
  std::vector<DownEntry> down;  ///< sorted by source
};

/// Per-source circuit-breaker state machine: kClosed admits probes and
/// counts consecutive failures; `threshold` failures trip it to kOpen,
/// which blocks the source for `cooldown_us` simulated time; the first
/// admission afterwards runs as a kHalfOpen trial -- success closes the
/// breaker, failure reopens it for another cooldown.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Deterministic, seeded fault source + per-source breaker registry +
/// simulated clock for one session's probe executions. Mutating members
/// follow the session-Rng threading contract (header note).
class FaultInjector {
 public:
  /// `options.Validate()` must hold; UCLEAN_CHECKed.
  explicit FaultInjector(const FaultOptions& options);

  /// Draws the fate of one attempt against `source` from the dedicated
  /// fault stream. All-zero profiles never consume the engine.
  FaultKind DrawAttemptFault(XTupleId source) UCLEAN_EXCLUDES(gate_);

  /// True when `source` may be probed now: breaker closed, in a half-open
  /// trial, or open with the cooldown elapsed. Pure.
  bool SourceAvailable(XTupleId source) const;

  /// Gate of the probe loop: like SourceAvailable, but an open breaker
  /// whose cooldown elapsed transitions to kHalfOpen (the trial starts).
  bool AdmitProbe(XTupleId source) UCLEAN_EXCLUDES(gate_);

  /// Reports one probe's final fate (after retries) to `source`'s
  /// breaker: completed probes close it, failures count toward the
  /// threshold and reopen half-open trials.
  void RecordProbeOutcome(XTupleId source, bool completed)
      UCLEAN_EXCLUDES(gate_);

  /// Backoff before retry `retry_index` (1-based), with seeded jitter
  /// drawn from the fault stream. Also advances the simulated clock.
  int64_t BackoffWithJitter(int64_t retry_index) UCLEAN_EXCLUDES(gate_);

  /// Simulated clock (microseconds since construction).
  int64_t now_us() const { return now_us_; }
  void AdvanceClock(int64_t us) UCLEAN_EXCLUDES(gate_) {
    ScopedSerialCall guard(gate_);
    now_us_ += us;
  }

  BreakerState breaker_state(XTupleId source) const;
  /// Sources currently blocked (breaker open, cooldown pending).
  size_t num_open_sources() const;
  /// True once ANY breaker has ever tripped open -- the fast-path guard
  /// that keeps planner masking free for fault-free campaigns.
  bool ever_opened() const { return ever_opened_; }

  const RetryPolicy& retry() const { return retry_; }
  const FaultProfile& profile() const { return profile_; }

  /// Engine state of the dedicated fault stream -- the strictest
  /// fingerprint for the determinism tests (equal engines mean two runs
  /// drew exactly the same fault randomness).
  const std::mt19937_64& engine() const { return rng_.engine(); }

  /// Captures the injector's complete mid-campaign state (header note on
  /// FaultInjectorState); pair with an injector built from the same
  /// FaultOptions to resume bitwise.
  FaultInjectorState SaveState() const;

  /// Restores a SaveState capture. Fails with DataLoss when the state is
  /// malformed (invalid rng encoding, out-of-range breaker state); the
  /// injector is then unusable until a successful restore.
  Status RestoreState(const FaultInjectorState& state)
      UCLEAN_EXCLUDES(gate_);

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int64_t consecutive_failures = 0;
    int64_t open_until_us = 0;
  };

  FaultProfile profile_;
  RetryPolicy retry_;
  BreakerOptions breaker_options_;
  mutable Rng rng_;
  int64_t now_us_ = 0;
  bool ever_opened_ = false;
  std::unordered_map<XTupleId, Breaker> breakers_;
  std::unordered_map<XTupleId, bool> down_;

  // Serialized-caller capability over the mutating draw/clock/breaker
  // surface (see the header comment). Const readers stay outside it:
  // they are only legal when nothing is mutating anyway.
  mutable SerialGate gate_;
};

/// Planner-side degradation: zeroes the gain of every source `fault`
/// currently blocks (open breaker, cooling down), so the re-planner
/// reinvests the budget around unavailable members instead of burning it
/// on probes the loop would skip anyway. No-op for a null `fault`.
void MaskUnavailableSources(const FaultInjector* fault,
                            CleaningProblem* problem);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_FAULT_H_
