#include "sim/shard.h"

#include <algorithm>

#include "support/error.h"

namespace drsm::sim {

/// Forwards tap events with the per-runtime object id 0 replaced by the
/// hosted object's global id.  One per hosted object, all pointing at the
/// shard's single tap; touched only by the shard thread.
class SequencerShard::Relabel final : public CoherenceTap {
 public:
  Relabel(CoherenceTap* target, ObjectId object)
      : target_(target), object_(object) {}

  void on_write_issue(double time, NodeId node, ObjectId /*object*/,
                      std::uint64_t value) override {
    target_->on_write_issue(time, node, object_, value);
  }
  void on_commit(double time, NodeId node, ObjectId /*object*/,
                 std::uint64_t version, std::uint64_t value) override {
    target_->on_commit(time, node, object_, version, value);
  }
  void on_read(double time, NodeId node, ObjectId /*object*/,
               std::uint64_t value, std::uint64_t version) override {
    target_->on_read(time, node, object_, value, version);
  }

 private:
  CoherenceTap* target_;
  ObjectId object_;
};

namespace {

std::vector<NodeId> full_roster(std::size_t num_clients) {
  std::vector<NodeId> roster(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i)
    roster[i] = static_cast<NodeId>(i);
  return roster;
}

}  // namespace

SequencerShard::SequencerShard(const Options& options)
    : options_(options), ring_(options.ring_capacity) {
  DRSM_CHECK(!options_.objects.empty(), "shard must own at least one object");
  SystemConfig config = options_.config;
  config.num_objects = 1;  // each runtime hosts one object
  ObjectId max_object = 0;
  for (ObjectId object : options_.objects)
    max_object = std::max(max_object, object);
  local_of_.assign(max_object + 1, kNoNode);
  runtimes_.reserve(options_.objects.size());
  taps_.reserve(options_.objects.size());
  for (std::size_t i = 0; i < options_.objects.size(); ++i) {
    const ObjectId object = options_.objects[i];
    DRSM_CHECK(local_of_[object] == kNoNode, "object assigned twice");
    local_of_[object] = static_cast<ObjectId>(i);
    runtimes_.push_back(std::make_unique<SequentialRuntime>(
        options_.protocol, config, full_roster(config.num_clients)));
    if (options_.tap != nullptr) {
      taps_.push_back(std::make_unique<Relabel>(options_.tap, object));
      runtimes_.back()->set_coherence_tap(taps_.back().get());
    }
  }
}

SequencerShard::~SequencerShard() { stop(); }

std::size_t SequencerShard::local_index(ObjectId object) const {
  DRSM_CHECK(object < local_of_.size() && local_of_[object] != kNoNode,
             "object not hosted by this shard");
  return local_of_[object];
}

void SequencerShard::start() {
  DRSM_CHECK(!thread_.joinable(), "shard already started");
  DRSM_CHECK(!ring_.closed(), "a stopped shard does not restart");
  thread_ = std::thread([this] { run(); });
}

void SequencerShard::stop() {
  ring_.close();
  if (!thread_.joinable()) return;
  thread_.join();
  stats_.ring_full_stalls = ring_.full_stalls();
}

void SequencerShard::fail(const std::exception& e) {
  // Both callers skip work once failed_ is set, so this runs at most once.
  // The text is written before the release store: a thread that observes
  // failed() reads the whole of it.
  error_ = e.what();
  failed_.store(true, std::memory_order_release);
}

void SequencerShard::handle(const ShardRequest& request) {
  if (request.kind == ShardRequest::Kind::kMigrate) {
    SequentialRuntime& runtime = *runtimes_[local_index(request.object)];
    if (failed_.load(std::memory_order_relaxed) ||
        runtime.protocol() == request.migrate_to)
      return;
    try {
      const OpResult seed = runtime.migrate(request.migrate_to);
      ++stats_.migrations;
      stats_.cost += seed.cost;
      stats_.messages += seed.messages;
    } catch (const std::exception& e) {
      fail(e);
    }
    return;
  }
  ShardGrant grant;
  grant.object = request.object;
  grant.op = request.op;
  grant.ticket = request.ticket;
  grant.issue_ns = request.issue_ns;
  SequentialRuntime& runtime = *runtimes_[local_index(request.object)];
  // Keep granting after a failure, marked failed, so sessions blocked on
  // their windows unwind instead of hanging; they re-raise from
  // failed()/error() on drain.
  grant.failed = failed_.load(std::memory_order_relaxed);
  if (!grant.failed) {
    try {
      const OpResult result =
          runtime.execute(request.node, request.op, request.value);
      grant.cost = result.cost;
      grant.value = request.op == fsm::OpKind::kRead ? result.read_value
                                                     : request.value;
      grant.version = request.op == fsm::OpKind::kRead
                          ? result.read_version
                          : runtime.latest_version();
      stats_.cost += result.cost;
      stats_.messages += result.messages;
    } catch (const std::exception& e) {
      fail(e);
      grant.failed = true;
    }
  }
  ++stats_.ops;
  stage(request.reply, grant);
}

void SequencerShard::stage(GrantRing* ring, const ShardGrant& grant) {
  for (Outbox& outbox : outboxes_) {
    if (outbox.ring == ring) {
      outbox.grants.push_back(grant);
      return;
    }
  }
  outboxes_.push_back({ring, {grant}});
}

void SequencerShard::publish_grants() {
  for (Outbox& outbox : outboxes_) {
    if (outbox.grants.empty()) continue;
    // The session window bounds grant-ring occupancy, so this only spins
    // if a session consumed grants without decrementing its window (a
    // bug).  One claim per session per batch; it wakes the session if it
    // had parked.
    while (!outbox.ring->try_push_batch(outbox.grants.data(),
                                        outbox.grants.size()))
      std::this_thread::yield();
    outbox.grants.clear();
  }
}

void SequencerShard::run() {
  std::vector<ShardRequest> batch(options_.max_batch);
  for (;;) {
    const std::size_t n = ring_.pop_batch(batch.data(), options_.max_batch);
    if (n == 0) {
      if (ring_.drained()) break;  // closed, every earlier claim executed
      if (ring_.spin_for_data())
        ++stats_.idle_yields;
      else if (ring_.park())
        ++stats_.parks;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) handle(batch[i]);
    publish_grants();
    ++stats_.batches;
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, n);
  }
}

std::uint64_t SequencerShard::object_version(ObjectId object) const {
  return runtimes_[local_index(object)]->latest_version();
}

const char* SequencerShard::state_name(ObjectId object, NodeId node) const {
  return runtimes_[local_index(object)]->state_name(node);
}

protocols::ProtocolKind SequencerShard::object_protocol(
    ObjectId object) const {
  return runtimes_[local_index(object)]->protocol();
}

}  // namespace drsm::sim
