// MpscRing: FIFO/capacity semantics single-threaded, a differential check
// against the mutex+deque reference queue, batch claims and closing, and
// multi-producer stress with per-producer FIFO verification — the property
// the sharded runtime's per-object ordering rests on — plus a park/wake
// storm that hangs (and trips its watchdog) if the parking handshake can
// lose a wakeup.  Runs under TSan via the `concurrency` ctest label.
#include "sim/mpsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/rng.h"
#include "watchdog.h"

namespace drsm::sim {
namespace {

TEST(MpscRingTest, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(MpscRing<int>(4096).capacity(), 4096u);
}

TEST(MpscRingTest, FifoSingleThreaded) {
  MpscRing<int> ring(16);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(ring.try_push(i));
  int out[16];
  ASSERT_EQ(ring.pop_batch(out, 16), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], i);
  EXPECT_FALSE(ring.can_pop());
}

TEST(MpscRingTest, FullRingRejectsAndCountsStalls) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.full_stalls(), 2u);

  int out[4];
  ASSERT_EQ(ring.pop_batch(out, 1), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_TRUE(ring.try_push(4));  // freed slot is reusable
  ASSERT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out[3], 4);
}

TEST(MpscRingTest, WrapsManyTimes) {
  MpscRing<std::uint64_t> ring(8);
  std::uint64_t next_expected = 0;
  std::uint64_t pushed = 0;
  std::uint64_t out[8];
  for (int round = 0; round < 1000; ++round) {
    while (ring.try_push(pushed)) ++pushed;
    const std::size_t n = ring.pop_batch(out, 8);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_expected++);
  }
  EXPECT_EQ(next_expected, pushed);
}

// The reference queue and the ring must agree on every accept/reject and
// on every popped value for any interleaving of pushes and batched pops.
TEST(MpscRingTest, DifferentialAgainstMutexQueue) {
  MpscRing<std::uint64_t> ring(8);
  MutexQueue<std::uint64_t> reference(ring.capacity());
  Rng rng(0xd1ffu);
  std::uint64_t next_value = 0;
  std::uint64_t ring_out[8];
  std::uint64_t ref_out[8];
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform() < 0.55) {
      const std::uint64_t v = next_value++;
      EXPECT_EQ(ring.try_push(v), reference.try_push(v));
    } else {
      const std::size_t max = 1 + rng.uniform_index(8);
      const std::size_t n = ring.pop_batch(ring_out, max);
      ASSERT_EQ(n, reference.pop_batch(ref_out, max));
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ring_out[i], ref_out[i]);
    }
  }
}

// A batch claim is all or nothing, keeps its order and wraps the ring.
TEST(MpscRingTest, BatchPushClaimsAllOrNothing) {
  MpscRing<int> ring(8);
  const int first[] = {0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(ring.try_push_batch(first, 6));
  const int second[] = {6, 7, 8};
  EXPECT_FALSE(ring.try_push_batch(second, 3));  // 2 slots free
  EXPECT_EQ(ring.full_stalls(), 1u);
  int out[8];
  ASSERT_EQ(ring.pop_batch(out, 4), 4u);
  ASSERT_TRUE(ring.try_push_batch(second, 3));  // wraps past the end
  ASSERT_EQ(ring.pop_batch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], 4 + i);
  EXPECT_TRUE(ring.try_push_batch(second, 0));
  EXPECT_FALSE(ring.can_pop());
}

// close() fails every later claim but not the ones before it, which the
// consumer still drains; drained() turns true only after the last pop.
TEST(MpscRingTest, CloseRejectsLaterClaimsAndKeepsEarlierOnes) {
  MpscRing<int> ring(8);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.closed());
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.try_push(3));
  const int more[] = {4, 5};
  EXPECT_FALSE(ring.try_push_batch(more, 2));
  EXPECT_EQ(ring.full_stalls(), 0u);  // closed is not full
  EXPECT_FALSE(ring.drained());
  EXPECT_FALSE(ring.park());  // never sleeps on a closed ring
  int out[8];
  ASSERT_EQ(ring.pop_batch(out, 8), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_TRUE(ring.drained());
}

// Multi-producer stress through a deliberately small ring: producers retry
// a full ring, the consumer parks on the tail word whenever it finds the
// ring empty — the wakeup path and the full/empty transitions get
// hammered.  Per-producer FIFO and exactly-once delivery are asserted.
TEST(MpscRingTest, MultiProducerStressPreservesPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscRing<std::uint64_t> ring(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        while (!ring.try_push(p << 32 | i)) std::this_thread::yield();
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::uint64_t out[64];
  while (received < kProducers * kPerProducer) {
    const std::size_t n = ring.pop_batch(out, 64);
    if (n == 0) {
      ring.park();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = out[i] >> 32;
      const std::uint64_t seq = out[i] & 0xffffffffu;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
      ++next_seq[p];
    }
    received += n;
  }
  for (auto& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p)
    EXPECT_EQ(next_seq[p], kPerProducer);
  EXPECT_FALSE(ring.can_pop());
}

// poke() must dislodge a consumer parked on an empty ring even though no
// data arrives — the shutdown path of every loop built on the ring.
TEST(MpscRingTest, PokeWakesParkedConsumer) {
  MpscRing<int> ring(8);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    ring.park();
    woke.store(true);
  });
  while (!woke.load()) {
    ring.poke();
    std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(woke.load());
}

// Park/wake storm: 4 producers push short bursts, with sleeps between
// them, into a capacity-8 ring, so the consumer finds the ring empty and
// parks between most bursts while bursts also meet a full ring.  A lost
// wakeup leaves the consumer parked while the producers retry a full ring
// (or wait for it to drain) forever; the watchdog then fails the run
// instead of letting it hang.  The run ends the way the runtime's loops
// end: a stop flag, then poke() while the consumer is parked.
TEST(MpscRingTest, ParkWakeStormLosesNoWakeup) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kBursts = 1000;
  constexpr std::uint64_t kBurst = 6;
  constexpr std::uint64_t kTotal = kProducers * kBursts * kBurst;
  testing::Watchdog watchdog(std::chrono::seconds(60),
                             "MpscRingTest.ParkWakeStormLosesNoWakeup");
  MpscRing<std::uint64_t> ring(8);
  std::atomic<bool> stop{false};
  std::atomic<bool> fifo_ok{true};
  std::atomic<std::uint64_t> received{0};
  std::uint64_t parks = 0;

  std::thread consumer([&] {
    std::vector<std::uint64_t> next_seq(kProducers, 0);
    std::uint64_t out[8];
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = ring.pop_batch(out, 8);
      if (n == 0) {
        if (ring.park(&stop)) ++parks;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t p = out[i] >> 32;
        if (p >= kProducers || (out[i] & 0xffffffffu) != next_seq[p]++)
          fifo_ok.store(false, std::memory_order_relaxed);
      }
      received.fetch_add(n, std::memory_order_release);
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      std::uint64_t seq = 0;
      for (std::uint64_t b = 0; b < kBursts; ++b) {
        for (std::uint64_t i = 0; i < kBurst; ++i, ++seq)
          while (!ring.try_push(p << 32 | seq)) std::this_thread::yield();
        std::this_thread::sleep_for(
            std::chrono::microseconds(10 + (b * 7 + p * 13) % 50));
      }
    });
  }
  for (auto& t : producers) t.join();
  while (received.load(std::memory_order_acquire) < kTotal &&
         fifo_ok.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Give the consumer time to find the ring empty and park, so the
  // shutdown goes through poke()'s wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  ring.poke();
  consumer.join();

  EXPECT_TRUE(fifo_ok.load()) << "a producer's values were lost, "
                                 "duplicated or reordered";
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_GT(parks, 0u);
  EXPECT_FALSE(ring.can_pop());
}

}  // namespace
}  // namespace drsm::sim
