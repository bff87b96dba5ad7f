#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/check.h"

namespace uclean {

namespace {
// Set while a thread is executing inside WorkerLoop; nested submissions
// observe it and run inline instead of re-entering the queue (which
// could deadlock a fully busy pool on Wait).
thread_local bool tl_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(num_threads) {
  UCLEAN_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    // Tasks are always awaited by a TaskGroup before their captures die,
    // so an honest shutdown can only ever see an empty queue.
    UCLEAN_CHECK(queue_.empty());
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorker() { return tl_in_pool_worker; }

void ThreadPool::Enqueue(Task task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

bool ThreadPool::RunOneQueued() {
  Task task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task.fn();
  task.group->TaskDone();
  return true;
}

void ThreadPool::WorkerLoop() {
  tl_in_pool_worker = true;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task.fn();
    task.group->TaskDone();
  }
}

void ThreadPool::TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->num_threads() == 1 || InWorker()) {
    fn();  // sequential / nested path
    return;
  }
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Enqueue(Task{std::move(fn), this});
}

void ThreadPool::TaskGroup::TaskDone() {
  MutexLock lock(mu_);
  UCLEAN_DCHECK(pending_ > 0);
  if (--pending_ == 0) done_cv_.NotifyAll();
}

void ThreadPool::TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  // Help drain the pool while our tasks are outstanding. The popped task
  // may belong to another group; running it still makes global progress
  // and that group's Wait observes its own counter.
  for (;;) {
    {
      MutexLock lock(mu_);
      if (pending_ == 0) return;
    }
    if (!pool_->RunOneQueued()) {
      // The queue was empty, so our remaining tasks are in flight on
      // workers; re-check under the lock, then block until TaskDone
      // wakes us.
      MutexLock lock(mu_);
      while (pending_ != 0) done_cv_.Wait(mu_);
      return;
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1 || InWorker()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One shared claim counter gives dynamic load balance; determinism is
  // unaffected because every consumer writes into slots addressed by i.
  std::atomic<size_t> next{0};
  const auto drain = [&next, n, &fn] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i);
    }
  };
  TaskGroup group(this);
  const size_t helpers = std::min(num_threads_ - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) group.Run(drain);
  drain();  // the caller is one of the num_threads
  group.Wait();
}

Result<ExecOptions> ResolveExec(ExecOptions exec) {
  if (exec.pool != nullptr) {
    exec.num_threads = exec.pool->num_threads();
    return exec;
  }
  if (exec.num_threads == 0 || exec.num_threads > ThreadPool::kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [1, " +
        std::to_string(ThreadPool::kMaxThreads) + "], got " +
        std::to_string(exec.num_threads));
  }
  if (exec.num_threads > 1) {
    exec.pool = std::make_shared<ThreadPool>(exec.num_threads);
  }
  return exec;
}

}  // namespace uclean
