// ConcurrentSharedMemory: the DSM under real client concurrency.
//
// Where dsm::SharedMemory executes one operation at a time on the calling
// thread, this runtime partitions the M shared objects across S sequencer
// shards (sim::SequencerShard), each running a batched event loop on its
// own thread, and lets real client threads issue read/write/eject/sync
// operations through lock-free MPSC rings — multiple operations in flight
// per client, bounded by a per-session window.
//
// Concurrency structure:
//   * one Session per DSM client node; a session is confined to the one
//     thread that uses it (its grant ring's consumer);
//   * submit: session -> shard request ring (lock-free, bounded; a full
//     ring is backpressure — the session pumps its grants and retries);
//   * complete: shard -> session grant ring, one claim per session per
//     drained batch, which wakes the session only if it had parked;
//   * idle: a session waiting for grants and a shard waiting for requests
//     both poll for about one park/wake round trip, then park on their
//     ring's tail word (see sim/mpsc_ring.h);
//   * ordering: a session's operations on one object complete in issue
//     order (ring FIFO per producer + in-order shard processing); an
//     operation on an object is atomic (the shard runs it to protocol
//     quiescence before the next), so per-object histories are sequential
//     and the coherence oracle referees live runs in kSequential mode.
//
// sync(object) is the barrier the paper's extension defines, and here it
// is also the session-level fence: when the sync grant arrives, every
// earlier operation this session issued on that object has been sequenced
// (they sit earlier in the same ring).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantile.h"
#include "protocols/protocol.h"
#include "sim/shard.h"

namespace drsm::dsm {

class ConcurrentSharedMemory {
 public:
  struct Options {
    protocols::ProtocolKind protocol =
        protocols::ProtocolKind::kWriteThrough;
    /// N: DSM client nodes; one session per client, node N is the
    /// (per-shard) sequencer.
    std::size_t num_clients = 4;
    std::size_t num_objects = 64;
    std::size_t num_shards = 4;
    fsm::CostModel costs;

    // -- batching / backpressure knobs (see docs/PERFORMANCE.md) ----------
    /// Per-shard request-ring capacity.  Small rings bound queueing delay
    /// and convert overload into producer backpressure.
    std::size_t ring_capacity = 4096;
    /// K: max requests a shard drains per wakeup.
    std::size_t max_batch = 256;
    /// W: per-session operation window (grant rings are sized to hold it).
    std::size_t max_inflight = 1024;
    /// Latency is sampled every k-th operation per session (1 = all).
    std::size_t latency_sample_every = 8;

    /// Live coherence referee: per-shard taps (empty, or one per shard —
    /// e.g. check::ShardedOracle::tap(s)).  Each tap is confined to its
    /// shard's thread.
    std::vector<sim::CoherenceTap*> shard_taps;
    /// Post-stop metrics publication target (runtime.* names).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ConcurrentSharedMemory(const Options& options);
  ~ConcurrentSharedMemory();

  ConcurrentSharedMemory(const ConcurrentSharedMemory&) = delete;
  ConcurrentSharedMemory& operator=(const ConcurrentSharedMemory&) = delete;

  /// One client's issue/completion endpoint.  Confined to one thread.
  class Session {
   public:
    /// Asynchronous issues; each returns the session-local ticket that
    /// will come back on the grant.  Blocks only when the window is full
    /// (pumping grants while it waits).  Each throws drsm::Error when
    /// stop() has closed the target shard's request ring, since no shard
    /// would grant the ticket; a rejected issue takes no ticket, so
    /// issued() and in_flight() do not count it (in_flight() still drops
    /// by any grants pumped while the window was full).
    std::uint64_t read(ObjectId object);
    std::uint64_t write(ObjectId object, std::uint64_t value);
    /// write() with a runtime-stamped globally unique value — what the
    /// oracle needs to referee; benches use it to skip value bookkeeping.
    std::uint64_t write_unique(ObjectId object);
    std::uint64_t eject(ObjectId object);
    std::uint64_t sync(ObjectId object);

    /// Drains ready grants; returns how many window slots they freed,
    /// executed or not.  Never blocks.
    std::size_t pump();
    /// Blocks until every outstanding operation of this session has
    /// completed, then re-raises any shard failure.
    void drain();

    /// Convenience: read issued + drained; returns the value (also passed
    /// to the grant handler like every other grant).
    std::uint64_t read_sync(ObjectId object);

    /// Observer for completed operations, called from pump() on this
    /// session's thread.  Empty = completions are only counted.  Grants
    /// of operations a failed shard did not execute (ShardGrant::failed)
    /// free their window slot without reaching the handler; drain()
    /// raises the failure.
    using GrantHandler = std::function<void(const sim::ShardGrant&)>;
    void set_grant_handler(GrantHandler handler) {
      handler_ = std::move(handler);
    }

    std::size_t in_flight() const { return in_flight_; }
    std::uint64_t issued() const { return issued_; }
    /// Operations executed and granted: an operation a failed shard did
    /// not execute frees its slot but is not counted here.
    std::uint64_t completed() const { return completed_; }
    Cost cost() const { return cost_; }
    /// Backpressure events: full request ring (submit) / full window.
    std::uint64_t submit_stalls() const { return submit_stalls_; }
    std::uint64_t window_stalls() const { return window_stalls_; }
    const obs::Quantile& latency_ns() const { return latency_ns_; }

   private:
    friend class ConcurrentSharedMemory;
    Session(ConcurrentSharedMemory& owner, NodeId node,
            std::size_t grant_capacity, std::size_t latency_sample_every);

    std::uint64_t submit(fsm::OpKind op, ObjectId object,
                         std::uint64_t value);
    void park();

    ConcurrentSharedMemory& owner_;
    NodeId node_;
    sim::GrantRing grants_;
    std::size_t latency_sample_every_;
    Session::GrantHandler handler_;
    std::size_t in_flight_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t write_seq_ = 0;
    Cost cost_ = 0.0;
    std::uint64_t submit_stalls_ = 0;
    std::uint64_t window_stalls_ = 0;
    std::uint64_t last_read_value_ = 0;
    obs::Quantile latency_ns_{0.005};
    std::vector<sim::ShardGrant> pump_buf_;
  };

  Session& session(NodeId client);

  /// Live-migrates `object` to `to`: enqueues a migration request on the
  /// owning shard's ring from any thread (typically an
  /// adaptive::OnlineController).  The shard executes it in ring order —
  /// operations already queued ahead of it complete under the old
  /// protocol, later ones under the new — and the object's serialized
  /// history stays contiguous across the switch
  /// (sim::SequentialRuntime::migrate re-seeds the latest write), so an
  /// attached coherence oracle referees straight through the migration.
  /// Spins (yielding) while the ring is full; holds no grants, so the
  /// shard can always drain toward it.  Throws drsm::Error when stop()
  /// has closed the owning shard's ring.
  void migrate(ObjectId object, protocols::ProtocolKind to);

  /// The protocol `object` currently runs.  Only stable after stop() or
  /// while no migration of this object is in flight.
  protocols::ProtocolKind object_protocol(ObjectId object) const;

  /// Stops the shard event loops and publishes runtime.* metrics.
  /// Idempotent; the destructor calls it.  It may race sessions that are
  /// still issuing: each shard closes its request ring and executes and
  /// grants every request claimed before the close, so drain() returns;
  /// every later issue throws drsm::Error instead of handing out a ticket
  /// no shard would grant.  stats(), and so the metrics publication when
  /// Options::metrics is set, reads the sessions' own counters: call them
  /// once the sessions are done.
  void stop();

  /// True once a step on any shard threw; error() is then that
  /// exception's text (safe to read from any thread once failed()).
  bool failed() const;
  std::string error() const;

  // -- aggregate statistics (stable after stop()) ---------------------------
  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t migrations = 0;  // live protocol switches executed
    Cost cost = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t batches = 0;
    std::uint64_t max_batch = 0;
    std::uint64_t shard_parks = 0;
    std::uint64_t idle_yields = 0;
    std::uint64_t ring_full_stalls = 0;
    std::uint64_t submit_stalls = 0;
    std::uint64_t window_stalls = 0;
    double wall_ms = 0.0;
    obs::Quantile latency_ns{0.005};
    std::vector<std::uint64_t> shard_ops;

    double acc() const {
      return ops == 0 ? 0.0 : cost / static_cast<double>(ops);
    }
    double ops_per_sec() const {
      return wall_ms <= 0.0 ? 0.0 : static_cast<double>(ops) /
                                        (wall_ms / 1000.0);
    }
  };
  Stats stats() const;

  const Options& options() const { return options_; }

  /// Latest write sequence number of `object` (post-stop diagnostics).
  std::uint64_t object_version(ObjectId object) const;

 private:
  friend class Session;

  Options options_;
  std::vector<std::unique_ptr<sim::SequencerShard>> shards_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::chrono::steady_clock::time_point start_;
  double wall_ms_ = 0.0;
  std::atomic<bool> stopped_{false};
};

}  // namespace drsm::dsm
