// Fixed-size thread pool with a blocking parallel_for — the execution
// substrate of the sweep engine (exec/sweep.h).
//
// Design constraints, in order:
//
//  1. *Determinism.*  parallel_for(n, body) invokes body(i) exactly once
//     for every i in [0, n), with no other arguments and no shared
//     mutable state supplied by the pool.  Callers that keep all mutable
//     state task-local (write results[i], read only immutable inputs)
//     therefore compute bit-identical results at any thread count and
//     under any schedule.
//  2. *Zero overhead at one thread.*  A pool of size 1 spawns no worker
//     threads at all; parallel_for degenerates to an inline loop (plus
//     two uncontended atomics per item).  Serial baselines and the
//     single-core CI hosts run the exact same code path as parallel
//     sweeps.
//  3. *Caller participation.*  The calling thread works on the job
//     alongside the workers instead of blocking, so a pool of size T
//     applies T threads with T-1 spawned workers.
//
// Work distribution is dynamic (one atomic fetch_add per item), which
// load-balances the wildly uneven task costs of protocol sweeps (a
// Berkeley chain is orders of magnitude cheaper than a Write-Once chain
// at the same parameters).  Exceptions thrown by body() are captured and
// the first one is rethrown from parallel_for after the job drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drsm::exec {

class ThreadPool {
 public:
  /// Largest pool a constructor accepts.
  static constexpr std::size_t kMaxThreads = 1024;

  /// `threads` counts the calling thread: a pool of size T spawns T-1
  /// workers.  0 means default_threads().  Throws drsm::Error, before
  /// spawning anything, when the size exceeds kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads applied to a parallel_for (spawned workers + the caller).
  std::size_t threads() const { return threads_; }

  /// The pool size used when the constructor gets 0: the DRSM_THREADS
  /// environment variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (at least 1).  The constructor
  /// holds a DRSM_THREADS value to kMaxThreads like any other size.
  static std::size_t default_threads();

  /// Invokes body(i) exactly once for every i in [0, n) and returns when
  /// all invocations finished.  Rethrows the first exception thrown by
  /// any invocation (after the job drains).  Must not be called
  /// re-entrantly from inside a body.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for that collects fn(i) into a vector indexed by i.
  /// R must be default-constructible.
  template <typename R>
  std::vector<R> parallel_map(std::size_t n,
                              const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// One parallel_for call: items are claimed with next.fetch_add and
  /// retired with done.fetch_add; the last retirement signals the cv.
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable finished;
    std::exception_ptr error;  // first failure, guarded by mu

    /// Claims and runs items until none are left.
    void work();
  };

  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;                // guards jobs_ / stop_
  std::condition_variable cv_;   // signals job arrival / shutdown
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

}  // namespace drsm::exec
