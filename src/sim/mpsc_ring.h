// Lock-free bounded MPSC channel: the one concurrency primitive behind the
// real-thread code in the repo (the sharded runtime's request/grant rings
// and the OnlineController's sample ring).
//
// Layout: a power-of-two array of slots, a tail word the producers claim
// from and a head cursor the single consumer owns, on cache lines of their
// own so producers and the consumer never false-share.
//
// The tail word packs the next free position (pos << 2) with two flags:
// kParked (the consumer sleeps on this word) and kClosed (every later
// claim fails).  The handshake:
//
//  * a producer claims n slots with one CAS of the tail from pos to pos+n
//    once pos + n - head <= capacity, where head is the consumer's cursor
//    (acquire: the consumer has finished reading those slots' previous
//    lap).  The CAS writes pos+n with both flags clear, so the producer
//    whose claim clears kParked knows the consumer sleeps, and wakes it
//    after publishing.  A closed tail fails the claim;
//  * the producer writes the values and publishes each slot by storing
//    its position + 1 into the slot's sequence (release), back to front,
//    so a consumer that sees the first slot of a claim sees all of it;
//  * the consumer reads a slot once its sequence equals head + 1
//    (acquire) and stores the new head once per pop_batch (release).  It
//    never writes a slot: the sequence is a publish marker, and the
//    marker a slot carries from its previous lap (head + 1 - capacity)
//    never equals the one it waits for;
//  * a consumer that finds the ring empty parks with one CAS of the tail
//    from exactly head << 2 to head << 2 | kParked, then waits on the tail
//    word (a futex on Linux).
//
// Why a wakeup cannot be lost: the consumer's park CAS and every claim are
// read-modify-writes of the one tail word, so they fall in its total
// modification order, and each reads the value the one before it wrote.
// If a claim comes first, the tail is no longer head << 2, the park CAS
// fails and the consumer does not sleep.  If the park comes first, the
// next claim reads kParked, clears it and is the one claim that wakes the
// consumer, which it does after publishing; the wait returns because the
// tail word no longer holds the value the consumer slept on.  poke() and
// close() are read-modify-writes of the same word and wake the consumer
// when they find kParked.  A caller that parks on a stop flag of its own
// stores the flag before poke(): either poke() finds the bit, or the park
// CAS reads poke()'s write (release/acquire) and park() sees the flag on
// its re-check.  Slot publishes and the head store are plain release
// stores; nothing needs a seq_cst store, a fence or a Dekker pair, and
// ThreadSanitizer models every step.
//
// Per-producer FIFO follows from slot claiming: a producer's second push
// claims a strictly later slot than its first, and the consumer drains in
// slot order.  (This is what preserves each session's per-object program
// order through a shard's request ring.)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace drsm::sim {

namespace detail {

/// True when the process may run on more than one CPU
/// (sched_getaffinity, read once per process).  With one CPU, a spinning
/// consumer only delays the producer it waits for.
inline bool may_run_on_several_cpus() {
  static const bool several = [] {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      return CPU_COUNT(&set) > 1;
#endif
    return std::thread::hardware_concurrency() != 1;
  }();
  return several;
}

/// Tells the CPU this is a spin-wait loop.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace detail

template <class T>
class MpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 4).
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 4;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(0, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Producer: attempts to enqueue.  Returns false when the ring is full
  /// or closed.  Wakes the consumer if it was parked.
  bool try_push(const T& value) { return try_push_batch(&value, 1); }

  /// Producer: enqueues `n` values with one claim, or none of them when
  /// fewer than `n` slots are free or the ring is closed.  The values
  /// reach the consumer in order and contiguously; at most one wake.
  bool try_push_batch(const T* values, std::size_t n) {
    if (n == 0) return true;
    std::uint64_t word = tail_.load(std::memory_order_relaxed);
    std::uint64_t pos;
    for (;;) {
      if ((word & kClosed) != 0) return false;
      pos = word >> kFlagBits;
      // Not pos + n - head: a stale `word` may lie behind the head.
      if (pos + n > head_.load(std::memory_order_acquire) + capacity_) {
        full_stalls_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (tail_.compare_exchange_weak(word, (pos + n) << kFlagBits,
                                      std::memory_order_relaxed))
        break;
      // CAS failure reloaded the word; retry with the new claim point.
    }
    for (std::size_t i = 0; i < n; ++i)
      slots_[(pos + i) & mask_].value = values[i];
    for (std::size_t i = n; i-- > 0;)
      slots_[(pos + i) & mask_].seq.store(pos + i + 1,
                                          std::memory_order_release);
    if ((word & kParked) != 0) tail_.notify_one();
    return true;
  }

  /// Consumer only: drains up to `max` values into `out`.  Returns the
  /// count; frees the slots with one head store.
  std::size_t pop_batch(T* out, std::size_t max) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max) {
      const Slot& slot = slots_[head & mask_];
      if (slot.seq.load(std::memory_order_acquire) != head + 1)
        break;  // not yet published
      out[n++] = slot.value;
      ++head;
    }
    if (n != 0) head_.store(head, std::memory_order_release);
    return n;
  }

  /// Consumer only: true when the next slot holds a published value.
  bool can_pop() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return slots_[head & mask_].seq.load(std::memory_order_acquire) ==
           head + 1;
  }

  /// Consumer only: polls for the next value before the caller parks:
  /// kSpinBeforePark of CPU-pause polling where the process may run on
  /// several CPUs, kIdleYields yields where it may not.  True when a
  /// value was published meanwhile.
  bool spin_for_data() const {
    if (!detail::may_run_on_several_cpus()) {
      for (int i = 0; i < kIdleYields; ++i) {
        std::this_thread::yield();
        if (can_pop()) return true;
      }
      return false;
    }
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    do {
      for (int i = 0; i < 8; ++i) {
        if (can_pop()) return true;
        detail::cpu_pause();
      }
    } while (std::chrono::steady_clock::now() < deadline);
    return can_pop();
  }

  /// Consumer only: sleeps on the tail word until a producer claims a
  /// slot, poke() or close().  Returns at once when a claim is already
  /// outstanding (yielding first if it is still unpublished), the ring is
  /// closed, or `*stop` reads true once the parked bit is set.  True when
  /// it slept.  Callers re-check their own conditions after it returns.
  bool park(const std::atomic<bool>* stop = nullptr) {
    const std::uint64_t idle = head_.load(std::memory_order_relaxed)
                               << kFlagBits;
    std::uint64_t word = idle;
    if (!tail_.compare_exchange_strong(word, idle | kParked,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      // A producer claimed since the last pop, or the ring is closed.  A
      // claim whose slots are not published yet sits between claim and
      // publish, its producer perhaps preempted: hand that producer the
      // CPU rather than poll again at once.
      if (!can_pop()) std::this_thread::yield();
      return false;
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      tail_.fetch_and(~kParked, std::memory_order_relaxed);
      return false;
    }
    tail_.wait(idle | kParked, std::memory_order_acquire);
    return true;
  }

  /// Wakes a parked consumer so it re-checks its stop flag: clears the
  /// parked bit.  Store the flag before calling.
  void poke() {
    if ((tail_.fetch_and(~kParked, std::memory_order_release) & kParked) != 0)
      tail_.notify_one();
  }

  /// Fails every later claim and wakes a parked consumer.  Claims made
  /// before it still publish; the consumer drains them until drained().
  void close() {
    if ((tail_.fetch_or(kClosed, std::memory_order_release) & kParked) != 0)
      tail_.notify_one();
  }

  /// Any thread: close() has run.
  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosed) != 0;
  }

  /// Consumer only: closed, and every claim made before the close popped.
  bool drained() const {
    const std::uint64_t word = tail_.load(std::memory_order_acquire);
    return (word & kClosed) != 0 &&
           word >> kFlagBits == head_.load(std::memory_order_relaxed);
  }

  /// Times a producer found the ring full (backpressure events).
  std::uint64_t full_stalls() const {
    return full_stalls_.load(std::memory_order_relaxed);
  }

 private:
  /// How long a consumer polls before it parks: about one park/wake round
  /// trip (a futex ping-pong between two threads on a 4-vCPU x86 VM:
  /// 3.3-3.6 us at the median, 4 us at p90), so a spin never costs much
  /// more than the park and wake it may save.
  static constexpr std::chrono::nanoseconds kSpinBeforePark{4000};
  /// On one CPU a spin only delays the producer it waits for, so the
  /// consumer yields this many times instead, each yield handing that
  /// producer the CPU.  Pinned to one CPU of the same VM, sessions that
  /// yield ran runtime_read_hot 4-7% faster than sessions that park at
  /// once, and 1 and 4 yields tied.
  static constexpr int kIdleYields = 4;

  static constexpr std::uint64_t kParked = 1;
  static constexpr std::uint64_t kClosed = 2;
  static constexpr int kFlagBits = 2;

  struct Slot {
    std::atomic<std::uint64_t> seq;  // position + 1 once published
    T value;
  };

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producers: pos, flags
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-written
  alignas(64) std::atomic<std::uint64_t> full_stalls_{0};
};

/// Mutex+deque reference queue with the same push/pop surface, for the
/// channel differential tests and bench_runtime's channel phase.
template <class T>
class MutexQueue {
 public:
  explicit MutexQueue(std::size_t capacity) : capacity_(capacity) {}

  bool try_push(const T& value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.size() >= capacity_) return false;
      items_.push_back(value);
    }
    cv_.notify_one();
    return true;
  }

  std::size_t pop_batch(T* out, std::size_t max) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    while (n < max && !items_.empty()) {
      out[n++] = items_.front();
      items_.pop_front();
    }
    return n;
  }

 private:
  std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
};

}  // namespace drsm::sim
