// SerialGate: the library's serialized-caller contracts as an annotated
// capability, enforced at BOTH compile time and (debug) run time.
//
// Several components are documented "serialized caller": one thread may
// drive the object's mutating surface at a time, but the object carries
// no lock of its own because legitimate use never contends (SessionPool,
// CleaningSession, FaultInjector). An earlier debug-only atomic
// reentrancy guard enforced that contract dynamically; this header
// promotes the guard into a first-class capability so the Clang
// thread-safety build ALSO rejects misuse statically:
//
//  * every mutating public entry point opens a ScopedSerialCall window
//    on the object's gate (and is annotated UCLEAN_EXCLUDES(gate_), so a
//    reentrant call from inside the window fails to compile);
//  * internal helpers that must only run inside such a window are
//    annotated UCLEAN_REQUIRES(gate_) -- a future entry point that
//    forgets the guard and calls one fails the -Wthread-safety build;
//  * work fanned to pool workers under a caller-held window (e.g.
//    SessionPool::RefreshAll's per-session refresh tasks) states the fact
//    with gate.AssertHeld().
//
// At run time the gate is the PR-4 check, unchanged in strength: in debug
// builds Enter() aborts when the gate is already held -- two overlapping
// calls from anywhere, including two threads -- and compiles to nothing
// under NDEBUG (pool_test.cc's death tests drive it).
//
// Threading: the gate itself is the contract marker; Enter/Exit are safe
// to call from any thread (misuse aborts, by design).

#ifndef UCLEAN_COMMON_SERIAL_GATE_H_
#define UCLEAN_COMMON_SERIAL_GATE_H_

#ifndef NDEBUG
#include <atomic>
#endif

#include "common/check.h"
#include "common/thread_annotations.h"

namespace uclean {

/// The serialized-caller capability. Movable (and copyable) so the
/// objects carrying it keep their value semantics: a moved/copied gate
/// starts released -- moving an object mid-call is itself a contract
/// violation the source object's guard would have caught.
class UCLEAN_CAPABILITY("serialized caller") SerialGate {
 public:
  SerialGate() = default;
#ifndef NDEBUG
  SerialGate(const SerialGate&) {}
  SerialGate& operator=(const SerialGate&) { return *this; }
  SerialGate(SerialGate&&) noexcept {}
  SerialGate& operator=(SerialGate&&) noexcept { return *this; }
#endif

  /// Claims the gate for one serialized call. Debug builds abort on
  /// overlap; release builds rely on the static analysis alone.
  void Enter() UCLEAN_ACQUIRE() {
#ifndef NDEBUG
    UCLEAN_CHECK(!held_.exchange(true, std::memory_order_acquire) &&
                 "access must be serialized by the caller "
                 "(overlapping calls on a serialized-caller object)");
#endif
  }

  void Exit() UCLEAN_RELEASE() {
#ifndef NDEBUG
    held_.store(false, std::memory_order_release);
#endif
  }

  /// Declares (to the static analysis) that the current context runs
  /// inside a window some caller opened -- pool workers executing on
  /// behalf of a guarded entry point. No run-time effect.
  void AssertHeld() const UCLEAN_ASSERT_CAPABILITY(this) {}

 private:
#ifndef NDEBUG
  std::atomic<bool> held_{false};
#endif
};

/// RAII arm of the contract: one mutating public call = one scope.
class UCLEAN_SCOPED_CAPABILITY ScopedSerialCall {
 public:
  explicit ScopedSerialCall(SerialGate& gate) UCLEAN_ACQUIRE(gate)
      : gate_(gate) {
    gate_.Enter();
  }
  ~ScopedSerialCall() UCLEAN_RELEASE() { gate_.Exit(); }

  ScopedSerialCall(const ScopedSerialCall&) = delete;
  ScopedSerialCall& operator=(const ScopedSerialCall&) = delete;

 private:
  SerialGate& gate_;
};

}  // namespace uclean

#endif  // UCLEAN_COMMON_SERIAL_GATE_H_
