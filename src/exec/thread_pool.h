// Execution subsystem: a small fixed-size worker pool shared by every
// parallel path in the library (sharded PSR scans and session replays,
// per-rung TP fan-out, SessionPool::RefreshAll's concurrent session
// refreshes, the pipelined cleaning round's per-session steps).
//
// Design constraints, in order:
//  * DETERMINISM. Every parallel consumer in this codebase writes results
//    into caller-owned slots addressed by index (shard ranges, rung
//    indices, session slots), so the only scheduling guarantee the pool
//    needs to give -- and the one it does give -- is that ParallelFor
//    runs fn(i) exactly once for every i and TaskGroup::Wait returns only
//    after every Run() task finished. Which thread runs which index is
//    unspecified; results must not depend on it (all current consumers
//    satisfy this by construction, which is what keeps parallel output
//    bitwise equal to sequential output).
//  * NO SURPRISE THREADS. The pool is fixed-size, created explicitly at
//    the top of the stack (CLI --threads, SessionPool/CleaningSession
//    options, bench harnesses) and handed down as a shared_ptr inside
//    ExecOptions. A null pool -- the default everywhere -- means strictly
//    sequential execution on the caller thread; the library never spawns
//    a thread the caller did not ask for.
//  * GRACEFUL NESTING. Work submitted from inside a pool worker runs
//    inline on that worker instead of deadlocking or oversubscribing:
//    when SessionPool::RefreshAll fans sessions onto the pool, each
//    session's own sharded replay runs as one shard on the worker
//    thread.
//
// The caller thread always participates in ParallelFor and helps drain
// the queue in TaskGroup::Wait, so a pool built for N threads applies N
// threads of compute (N - 1 workers + the caller), and ParallelFor with a
// single-thread pool is exactly the inline loop.

// Threading: the pool is fully thread-safe (it IS the concurrency
// primitive). Locking here is statically checked: mu_ is an annotated
// common/mutex.h Mutex and the queue/stop/pending state is GUARDED_BY
// it, so a Clang -Wthread-safety build rejects any new code path that
// touches pool state outside the lock (the CI thread-safety leg holds
// this at -Werror; see common/thread_annotations.h).

#ifndef UCLEAN_EXEC_THREAD_POOL_H_
#define UCLEAN_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace uclean {

class ThreadPool {
 public:
  /// Hard cap on pool size; protects against misparsed thread counts
  /// turning into thousands of spawned threads.
  static constexpr size_t kMaxThreads = 256;

  /// A pool applying `num_threads` threads of compute: `num_threads - 1`
  /// workers plus the submitting caller. Requires 1 <= num_threads <=
  /// kMaxThreads (hard UCLEAN_CHECK; validate user input with
  /// ResolveExec). A 1-thread pool spawns no workers and runs everything
  /// inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// A set of tasks whose completion can be awaited together. Run() from
  /// a pool worker (nested parallelism) executes inline; Wait() lets the
  /// caller help drain the pool's queue instead of idling.
  class TaskGroup {
   public:
    /// `pool` may be null: every Run() then executes inline and Wait()
    /// is a no-op, which is the sequential path.
    explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Run(std::function<void()> fn) UCLEAN_EXCLUDES(mu_);
    void Wait() UCLEAN_EXCLUDES(mu_);

   private:
    friend class ThreadPool;
    void TaskDone() UCLEAN_EXCLUDES(mu_);

    ThreadPool* pool_ = nullptr;
    Mutex mu_;
    CondVar done_cv_;
    size_t pending_ UCLEAN_GUARDED_BY(mu_) = 0;
  };

  /// Runs fn(i) exactly once for every i in [0, n), distributing indices
  /// over the pool; blocks until all are done. The caller participates.
  /// Deterministic in the sense documented above: output placement is
  /// the callee's (indexed) responsibility, not the scheduler's.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool). Nested submissions run inline.
  static bool InWorker();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void Enqueue(Task task) UCLEAN_EXCLUDES(mu_);

  /// Pops and runs one queued task on the calling thread; false when the
  /// queue was empty.
  bool RunOneQueued() UCLEAN_EXCLUDES(mu_);

  void WorkerLoop() UCLEAN_EXCLUDES(mu_);

  const size_t num_threads_;
  Mutex mu_;
  CondVar work_cv_;
  std::deque<Task> queue_ UCLEAN_GUARDED_BY(mu_);
  bool stop_ UCLEAN_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written by the ctor only
};

/// Instruction-set preference for the PSR scan's compute kernels
/// (rank/kernel.h). Like the thread count, this selects HOW the scan
/// runs, never WHAT it computes: every kernel is held bitwise equal to
/// every other (see the equivalence notes in rank/kernel.h), so mixing
/// kernels across drivers, replays and shards is always safe.
enum class KernelKind : uint8_t {
  /// AVX2 when it is compiled in, the CPU reports it, and
  /// UCLEAN_DISABLE_AVX2 is not set in the environment; scalar otherwise.
  kAuto = 0,
  /// The portable scalar path, unconditionally.
  kScalar,
  /// Require the AVX2 path; selection fails with InvalidArgument when it
  /// is unavailable (not compiled in, or the CPU lacks it).
  kAvx2,
};

/// The parallelism knob threaded through the stack (PsrEngine,
/// ComputePsrLadder, TP, CleaningSession, SessionPool, CLI --threads).
struct ExecOptions {
  /// Threads of compute to apply; 1 (the default) is the strictly
  /// sequential path with no pool involvement at all.
  size_t num_threads = 1;

  /// The shared pool. Normally left null and filled by ResolveExec; set
  /// it explicitly to make several components share one pool (the CLI
  /// and SessionPool do).
  std::shared_ptr<ThreadPool> pool;

  /// Compute-kernel preference for every scan run under these options
  /// (CLI --kernel). Resolved once per scan by rank/kernel.h's
  /// SelectScanKernel; kAuto picks the fastest kernel the hardware
  /// supports.
  KernelKind kernel = KernelKind::kAuto;

  /// True when this options value asks for an actual parallel path.
  bool parallel() const { return pool != nullptr && pool->num_threads() > 1; }
};

/// Validates `exec` and returns it with `pool` filled in: num_threads
/// must be in [1, ThreadPool::kMaxThreads]; a pool is created when
/// num_threads > 1 and none was provided (num_threads == 1 keeps pool
/// null -- the sequential path). A pre-set pool is kept as-is and
/// num_threads is aligned to it.
Result<ExecOptions> ResolveExec(ExecOptions exec);

/// ParallelFor over `exec`'s pool, or the plain inline loop when there is
/// none (the sequential path compiles down to exactly the old code).
inline void ExecParallelFor(const ExecOptions& exec, size_t n,
                            const std::function<void(size_t)>& fn) {
  if (exec.pool != nullptr) {
    exec.pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace uclean

#endif  // UCLEAN_EXEC_THREAD_POOL_H_
