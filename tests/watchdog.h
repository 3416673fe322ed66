// Watchdog for tests whose failure mode is a hang.
//
// A lost wakeup parks a thread forever, and a hung test shows nothing
// until an outer timeout kills it.  A Watchdog armed at the start of such
// a test ends the process with a failure message if the test has not
// finished (destroyed the watchdog) within its bound; ctest then reports
// the test failed, with the message, instead of timing out.
#ifndef DRSM_TESTS_WATCHDOG_H_
#define DRSM_TESTS_WATCHDOG_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace drsm::testing {

class Watchdog {
 public:
  Watchdog(std::chrono::seconds bound, const char* what)
      : thread_([this, bound, what] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, bound, [this] { return done_; })) return;
          std::fprintf(stderr, "watchdog: %s did not finish within %llds\n",
                       what, static_cast<long long>(bound.count()));
          std::fflush(stderr);
          std::_Exit(1);
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace drsm::testing

#endif  // DRSM_TESTS_WATCHDOG_H_
