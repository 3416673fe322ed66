// OnlineController: the self-tuning loop for the concurrent runtime.
//
// AdaptiveSharedMemory closes the selection loop inline — every operation
// runs on the caller's thread, so the epoch-boundary reclassification can
// simply run there too.  Under dsm::ConcurrentSharedMemory that is no
// longer true: operations complete on shard threads and client threads
// must never stall behind an analytic solve.  The controller therefore
// runs the loop *beside* the runtime:
//
//   client threads ──record()──▶ MpscRing ──▶ controller thread drains
//   into its own obs::AccessStats ──▶ every decide_every records, prices
//   the hot set with the warm-started analytic solver ──▶
//   ConcurrentSharedMemory::migrate(object, winner)
//
// record() is one lock-free ring push (drops are counted, not blocked on:
// telemetry is sampling, losing a record under burst cannot corrupt
// anything).  Decisions go through the one hysteresis gate the inline loop
// uses too (AdaptiveSelector::choose, fed by analytic::spec_from_counts),
// plus a per-object cooldown in decision passes, since a live migration
// has a real cost (drain + seed) that re-pricing does not see.
//
// The controller tracks each object's protocol itself: it is the only
// migration issuer, and the shard applies migrations in ring order, so
// its view converges without reading shard-owned state (no cross-thread
// peeking at the runtimes).  Use start()/stop() for the background
// thread, or poll() to run drain+decide synchronously in deterministic
// tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "adaptive/selector.h"
#include "dsm/concurrent.h"
#include "obs/access_stats.h"
#include "obs/metrics.h"
#include "sim/mpsc_ring.h"

namespace drsm::adaptive {

class OnlineController {
 public:
  struct Options {
    /// Records drained between decision passes.
    std::size_t decide_every = 1024;
    /// Hot objects (by EWMA rate) priced per pass.
    std::size_t hot_k = 8;
    /// Lifetime accesses an object needs before it is ever priced.
    std::size_t min_observations = 64;
    /// Relative acc improvement a challenger needs over the incumbent.
    double hysteresis = 0.05;
    /// Decision passes an object sits out after migrating (0 = none: it
    /// is priced again on the very next pass).
    std::size_t cooldown_passes = 4;
    /// Recent-mix span in records (telemetry window is half: last closed
    /// plus current window).
    std::size_t window = 1024;
    std::size_t ring_capacity = 8192;
    std::vector<protocols::ProtocolKind> candidates;  // empty = all eight
    /// Post-stop metrics publication target (adaptive.* names).
    obs::MetricsRegistry* metrics = nullptr;
  };

  OnlineController(dsm::ConcurrentSharedMemory& memory,
                   const Options& options);
  ~OnlineController();

  OnlineController(const OnlineController&) = delete;
  OnlineController& operator=(const OnlineController&) = delete;

  /// One completed application operation (any thread; typically called
  /// from a session's grant handler).  Never blocks: a full ring drops
  /// the record and counts it.  The controller thread parks on the ring
  /// when idle; the push whose claim finds it parked wakes it.
  void record(NodeId node, ObjectId object, fsm::OpKind op) {
    if (!ring_.try_push(Record{node, object, op}))
      dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Background mode: a dedicated thread drains and decides until stop().
  void start();
  /// Drains the ring, runs any due decision passes, publishes metrics.
  /// Idempotent; the destructor calls it.  Stop the controller before the
  /// runtime: ConcurrentSharedMemory::migrate throws once that has stopped.
  void stop();

  /// Synchronous mode for deterministic tests: drains everything
  /// currently in the ring and runs a decision pass per decide_every
  /// records drained.  Must not race start()/stop().
  void poll();

  /// The controller's view of an object's protocol (exact once the shard
  /// has applied every issued migration, e.g. after memory.stop()).
  protocols::ProtocolKind object_protocol(ObjectId object) const {
    return current_[object];
  }

  const obs::AccessStats& telemetry() const { return stats_; }
  std::uint64_t records() const { return records_; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t migrations() const { return migrations_; }
  double reclassify_ms() const { return reclassify_ms_; }

 private:
  struct Record {
    NodeId node = 0;
    ObjectId object = 0;
    fsm::OpKind op = fsm::OpKind::kRead;
  };

  std::size_t drain();
  void decide();
  void run();

  dsm::ConcurrentSharedMemory& memory_;
  Options options_;
  AdaptiveSelector selector_;
  sim::MpscRing<Record> ring_;
  obs::AccessStats stats_;
  std::vector<protocols::ProtocolKind> current_;   // controller's view
  std::vector<std::uint64_t> cooldown_until_;      // last pass it sits out
  std::uint64_t records_ = 0;
  std::uint64_t since_decide_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t migrations_ = 0;
  double reclassify_ms_ = 0.0;
  std::atomic<std::uint64_t> dropped_{0};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
};

}  // namespace drsm::adaptive
