#include "exec/thread_pool.h"

#include <cstdlib>

#include "support/error.h"
#include "support/text.h"

namespace drsm::exec {

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("DRSM_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0)
      return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {
  DRSM_CHECK(threads_ <= kMaxThreads,
             strfmt("thread pool of %zu threads exceeds the limit of %zu",
                    threads_, kMaxThreads));
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Job::work() {
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      (*body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu);  // pairs with the waiter
      finished.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stop_) return;
        continue;
      }
      job = jobs_.front();
      // Stop advertising a fully claimed job; stragglers may still be
      // executing their items, which the owner waits out on job->done.
      if (job->next.load(std::memory_order_relaxed) >= job->n) {
        jobs_.pop_front();
        continue;
      }
    }
    job->work();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  auto job = std::make_shared<Job>();
  job->n = n;
  job->body = &body;
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(job);
    }
    cv_.notify_all();
  }
  job->work();  // the caller participates
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->finished.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->n;
    });
  }
  if (!workers_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->get() == job.get()) {
        jobs_.erase(it);
        break;
      }
    }
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace drsm::exec
