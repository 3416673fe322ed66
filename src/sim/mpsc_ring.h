// Lock-free bounded MPSC channel: the one concurrency primitive behind the
// real-thread code in the repo (the sharded runtime's request/grant rings
// and the OnlineController's sample ring).
//
// Layout and algorithm are the bounded sequence-number ring (Vyukov's
// design) specialized to a single consumer:
//
//  * each slot carries a sequence number; a producer claims slot `pos` by
//    CASing the tail from pos to pos+1 once slot.seq == pos, writes the
//    value, then publishes with slot.seq = pos+1 (seq_cst, for the
//    consumer's gate: see EventGate);
//  * the single consumer owns the head cursor, frees each slot it pops
//    with slot.seq = pos+capacity (release) and stores the new head once
//    per batch (seq_cst, for the producers' gate);
//  * head and tail live on separate cache lines so producers and the
//    consumer never false-share.
//
// Per-producer FIFO follows from slot claiming: a producer's second push
// claims a strictly later slot than its first, and the consumer drains in
// slot order.  (This is what preserves each session's per-object program
// order through a shard's request ring.)
//
// Blocking is layered on top with an eventcount (EventGate): consumers
// park on empty, producers park on full, and both sides re-check their
// condition between announcing themselves and sleeping, so wakeups are
// never lost.  std::atomic::wait/notify backs the actual sleep (a futex
// on Linux) — no mutex or condition variable anywhere.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace drsm::sim {

/// Eventcount: a lost-wakeup-free park/unpark gate.
///
/// Waiter protocol:
///   ticket = gate.prepare_wait();
///   if (condition_now_true) gate.cancel_wait(); else gate.wait(ticket);
/// Waker protocol, after making the condition true:
///   gate.notify();        // cheap when nobody is parked
///
/// The handshake is a Dekker pair of seq_cst operations, so it needs no
/// standalone fence and ThreadSanitizer models it: the waiter increments
/// waiters_ and then re-checks its condition; the waker makes the
/// condition true and then loads waiters_.  The store that makes the
/// condition true and the waiter's load that re-checks it must be seq_cst
/// as well.  All four then fall in one total order: either the waker's
/// load sees the announced waiter (and bumps the sequence, which wait()
/// re-checks before sleeping), or the waiter's re-check sees the waker's
/// store.  notify() writes nothing when nobody is parked, so several
/// wakers of one gate do not pull its cache line back and forth.  poke()
/// bumps unconditionally — the shutdown path uses it to dislodge any
/// sleeper without having to win the waiters_ race.  Each gate has a
/// cache line of its own, so a ring's two gates and the cursors beside
/// them never false-share.
class alignas(64) EventGate {
 public:
  std::uint32_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return seq_.load(std::memory_order_acquire);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  void wait(std::uint32_t ticket) {
    seq_.wait(ticket, std::memory_order_acquire);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  void notify() {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    seq_.fetch_add(1, std::memory_order_release);
    seq_.notify_all();
  }

  void poke() {
    seq_.fetch_add(1, std::memory_order_release);
    seq_.notify_all();
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

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
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Producer: attempts to enqueue.  Returns false when the ring is full.
  /// Wakes a parked consumer unless `silent` (batch producers wake once at
  /// the end of the batch via wake_consumer()).
  bool try_push(const T& value, bool silent = false) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = value;
          slot.seq.store(pos + 1, std::memory_order_seq_cst);
          if (!silent) not_empty_.notify();
          return true;
        }
        // CAS failure reloaded pos; retry with the new claim point.
      } else if (dif < 0) {
        full_stalls_.fetch_add(1, std::memory_order_relaxed);
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Producer: enqueue, parking on the space gate while the ring is full.
  /// Only safe where the consumer is guaranteed to keep draining (it must
  /// not itself block pushing into a ring this producer drains — see the
  /// capacity notes at each call site).
  void push(const T& value) {
    while (!try_push(value)) {
      const std::uint32_t ticket = not_full_.prepare_wait();
      if (has_space_hint()) {
        not_full_.cancel_wait();
        continue;
      }
      not_full_.wait(ticket);
    }
  }

  /// Consumer only: drains up to `max` values into `out`.  Returns the
  /// count; wakes producers parked on a full ring when slots were freed.
  std::size_t pop_batch(T* out, std::size_t max) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max) {
      Slot& slot = slots_[head & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq != head + 1) break;  // not yet published
      out[n++] = slot.value;
      slot.seq.store(head + capacity_, std::memory_order_release);
      ++head;
    }
    if (n != 0) {
      head_.store(head, std::memory_order_seq_cst);
      not_full_.notify();
    }
    return n;
  }

  /// Consumer only: true when the next slot holds a published value.
  bool can_pop() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const Slot& slot = slots_[head & mask_];
    return slot.seq.load(std::memory_order_seq_cst) == head + 1;
  }

  /// Consumer parking (see EventGate for the protocol).  The caller
  /// re-checks its own wake conditions (data, stop flags) after wait().
  std::uint32_t prepare_wait() { return not_empty_.prepare_wait(); }
  void cancel_wait() { not_empty_.cancel_wait(); }
  void wait(std::uint32_t ticket) { not_empty_.wait(ticket); }

  /// Wakes a parked consumer (batched producers, shutdown paths).
  void wake_consumer() { not_empty_.notify(); }
  /// Unconditional consumer wake for shutdown: dislodges a sleeper even if
  /// it is between prepare_wait() and wait().
  void poke() { not_empty_.poke(); }

  /// Times a producer found the ring full (backpressure events).
  std::uint64_t full_stalls() const {
    return full_stalls_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq;
    T value;
  };

  /// Space as of the consumer's last batch: the head is loaded first, so
  /// the tail read after it is never behind it.
  bool has_space_hint() const {
    const std::uint64_t head = head_.load(std::memory_order_seq_cst);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    return tail - head < capacity_;
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producers
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-written
  EventGate not_empty_;  // consumer parks here
  EventGate not_full_;   // producers park here
  std::atomic<std::uint64_t> full_stalls_{0};
};

/// Mutex+deque reference queue with the same surface, for the channel
/// differential tests and bench_runtime's channel phase.
template <class T>
class MutexQueue {
 public:
  explicit MutexQueue(std::size_t capacity) : capacity_(capacity) {}

  bool try_push(const T& value, bool silent = false) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.size() >= capacity_) return false;
      items_.push_back(value);
    }
    if (!silent) cv_.notify_one();
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
