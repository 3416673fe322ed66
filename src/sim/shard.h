// Sharded sequencers: the true-concurrency execution substrate behind
// dsm::ConcurrentSharedMemory.
//
// Objects are partitioned across S shards by ObjectId (shard_of); each
// shard owns one SequentialRuntime per object it hosts and runs a batched
// event loop on a dedicated thread:
//
//   client threads ──MpscRing<ShardRequest>──▶ shard loop ──▶ per-object
//   SequentialRuntime::execute (atomic, run-to-quiescence) ──▶
//   MpscRing<ShardGrant> back to the issuing session.
//
// Each wakeup drains up to max_batch requests and executes them back to
// back (amortizing the park/unpark and dispatch overhead), staging each
// grant in an outbox per reply ring; it then publishes each outbox with
// one claim on that session's grant ring (MpscRing::try_push_batch),
// which wakes the session at most once, and only if it was parked.  An
// idle loop polls for about one park/wake round trip, then parks on the
// request ring's tail word (see mpsc_ring.h).  stop() closes the request
// ring: later claims fail, and the loop exits once it has executed every
// claim made before the close.
//
// Per-object operation order inside a shard is the request-ring order,
// which preserves each producer's program order (see mpsc_ring.h) — this
// is what lets the coherence oracle referee a live run in its strict
// kSequential mode, per object, without any cross-shard synchronization.
//
// A coherence tap attached to a shard observes all of the shard's objects
// through one sim::CoherenceTap; the shard relabels the per-runtime
// object id 0 to the global ObjectId before forwarding.  The tap is
// touched only by the shard's own thread (thread safety by confinement).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "protocols/protocol.h"
#include "sim/config.h"
#include "sim/mpsc_ring.h"
#include "sim/sequential.h"

namespace drsm::sim {

/// Which shard hosts `object` under S shards.  Modulo keeps consecutive
/// (Zipf-hot) objects on distinct shards.
inline std::size_t shard_of(ObjectId object, std::size_t num_shards) {
  return static_cast<std::size_t>(object) % num_shards;
}

struct ShardGrant {
  ObjectId object = 0;
  fsm::OpKind op = fsm::OpKind::kRead;
  /// The shard had failed and did not execute the operation: the grant
  /// only returns the request's window slot, and value, version and cost
  /// are 0.  Session::pump retires it without calling the grant handler.
  bool failed = false;
  std::uint64_t value = 0;    // read: value returned; write: value stored
  std::uint64_t version = 0;  // read: version returned; write: latest seq
  Cost cost = 0.0;            // communication cost of the operation
  std::uint64_t ticket = 0;   // session-local issue ticket
  std::uint64_t issue_ns = 0; // session's issue timestamp (latency)
};

// The failure flag sits in the padding after `op`: the grant ring's slot
// stays six words.
static_assert(sizeof(ShardGrant) == 48);

using GrantRing = MpscRing<ShardGrant>;

struct ShardRequest {
  /// kOp is an application operation; kMigrate switches the object's
  /// runtime to `migrate_to` (SequentialRuntime::migrate) in ring order —
  /// requests ahead of it run under the old protocol, requests behind it
  /// under the new one, and the per-object history stays sequential across
  /// the switch.  Migrations carry no reply: `reply` stays null and no
  /// grant is published.
  enum class Kind : std::uint8_t { kOp, kMigrate };
  Kind kind = Kind::kOp;
  fsm::OpKind op = fsm::OpKind::kRead;
  NodeId node = 0;            // issuing DSM node (protocol client id)
  ObjectId object = 0;        // global object id
  std::uint64_t value = 0;    // write payload
  std::uint64_t ticket = 0;
  std::uint64_t issue_ns = 0;
  protocols::ProtocolKind migrate_to =
      protocols::ProtocolKind::kWriteThrough;  // kMigrate only
  GrantRing* reply = nullptr;  // session grant ring (never full: the
                               // session window bounds occupancy)
};

/// One sequencer shard: request ring + dedicated batched event loop.
class SequencerShard {
 public:
  struct Options {
    protocols::ProtocolKind protocol =
        protocols::ProtocolKind::kWriteThrough;
    SystemConfig config;               // num_objects ignored (per-object
                                       // runtimes host one object each)
    std::vector<ObjectId> objects;     // global ids this shard owns
    std::size_t ring_capacity = 4096;  // request ring (backpressure knob)
    std::size_t max_batch = 256;       // K: requests drained per wakeup
    CoherenceTap* tap = nullptr;       // live referee (optional)
  };

  explicit SequencerShard(const Options& options);
  ~SequencerShard();

  SequencerShard(const SequencerShard&) = delete;
  SequencerShard& operator=(const SequencerShard&) = delete;

  /// Starts the loop; a shard runs once (stop() closes its ring for good).
  void start();
  /// Closes the request ring, lets the loop execute every request claimed
  /// before the close, then joins.  Idempotent.
  void stop();

  /// Producer side (any thread): false when the ring is full or closed.
  /// On a full ring the caller pumps its grant ring and retries (never
  /// parks holding work, so the shard can always drain toward it); on a
  /// closed one (closed()) the request will never run.
  bool try_submit(const ShardRequest& request) {
    return ring_.try_push(request);
  }
  /// stop() has closed the request ring: every later submit fails.
  bool closed() const { return ring_.closed(); }

  /// Any exception thrown by a step of the loop (a protocol invariant, a
  /// tap, an allocation) stops the shard's execution and is reported here.
  /// error() is the exception's text; it is complete and stable once
  /// failed() is true, and only then may another thread read it.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }

  // -- post-join statistics (stable after stop()) ---------------------------
  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t migrations = 0;    // protocol switches executed
    Cost cost = 0.0;                 // includes migration seed-write costs
    std::uint64_t messages = 0;
    std::uint64_t batches = 0;       // non-empty wakeup drains
    std::uint64_t max_batch = 0;     // largest single drain
    std::uint64_t parks = 0;         // times the loop futex-slept on empty
    std::uint64_t idle_yields = 0;   // idle spins that found work (no park)
    std::uint64_t ring_full_stalls = 0;  // producer backpressure events
  };
  const Stats& stats() const { return stats_; }

  /// Latest write sequence number of a hosted object (diagnostics/tests).
  std::uint64_t object_version(ObjectId object) const;
  const char* state_name(ObjectId object, NodeId node) const;
  /// The protocol a hosted object currently runs (post-join diagnostics:
  /// reflects executed migrations, not ones still queued in the ring).
  protocols::ProtocolKind object_protocol(ObjectId object) const;

 private:
  class Relabel;

  /// Grants of the current batch bound for one reply ring.
  struct Outbox {
    GrantRing* ring = nullptr;
    std::vector<ShardGrant> grants;
  };

  void run();
  void handle(const ShardRequest& request);
  void stage(GrantRing* ring, const ShardGrant& grant);
  void publish_grants();
  void fail(const std::exception& e);
  std::size_t local_index(ObjectId object) const;

  Options options_;
  std::vector<std::unique_ptr<SequentialRuntime>> runtimes_;  // by local idx
  std::vector<std::unique_ptr<Relabel>> taps_;                // parallel
  std::vector<ObjectId> local_of_;  // global object -> local idx (dense)

  MpscRing<ShardRequest> ring_;
  std::vector<Outbox> outboxes_;  // one per reply ring seen (shard thread)
  std::thread thread_;
  std::atomic<bool> failed_{false};
  std::string error_;
  Stats stats_;
};

}  // namespace drsm::sim
