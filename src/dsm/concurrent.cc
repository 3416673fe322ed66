#include "dsm/concurrent.h"

#include <chrono>
#include <string>
#include <thread>

#include "support/error.h"

namespace drsm::dsm {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void throw_stopped(const char* what) {
  throw Error(std::string(what) + " after the concurrent runtime stopped");
}

}  // namespace

// ---------------------------------------------------------------------------
// Session

ConcurrentSharedMemory::Session::Session(ConcurrentSharedMemory& owner,
                                         NodeId node,
                                         std::size_t grant_capacity,
                                         std::size_t latency_sample_every)
    : owner_(owner),
      node_(node),
      grants_(grant_capacity),
      latency_sample_every_(latency_sample_every == 0
                                ? 1
                                : latency_sample_every) {
  pump_buf_.resize(256);
}

std::uint64_t ConcurrentSharedMemory::Session::read(ObjectId object) {
  return submit(fsm::OpKind::kRead, object, 0);
}

std::uint64_t ConcurrentSharedMemory::Session::write(ObjectId object,
                                                     std::uint64_t value) {
  return submit(fsm::OpKind::kWrite, object, value);
}

std::uint64_t ConcurrentSharedMemory::Session::write_unique(ObjectId object) {
  // Globally unique: no two sessions share a node id, no session reuses a
  // sequence number.  High bits carry the node so the oracle can attribute
  // a misdelivered value to its writer.
  const std::uint64_t value =
      (static_cast<std::uint64_t>(node_) + 1) << 44 | ++write_seq_;
  return submit(fsm::OpKind::kWrite, object, value);
}

std::uint64_t ConcurrentSharedMemory::Session::eject(ObjectId object) {
  return submit(fsm::OpKind::kEject, object, 0);
}

std::uint64_t ConcurrentSharedMemory::Session::sync(ObjectId object) {
  return submit(fsm::OpKind::kSync, object, 0);
}

std::uint64_t ConcurrentSharedMemory::Session::read_sync(ObjectId object) {
  submit(fsm::OpKind::kRead, object, 0);
  drain();
  return last_read_value_;
}

std::uint64_t ConcurrentSharedMemory::Session::submit(fsm::OpKind op,
                                                      ObjectId object,
                                                      std::uint64_t value) {
  DRSM_CHECK(object < owner_.options_.num_objects, "object id out of range");
  DRSM_CHECK(protocols::supports(owner_.options_.protocol, op),
             "operation not supported by this protocol");
  // Window backpressure: pump completions; park only when none are ready.
  while (in_flight_ >= owner_.options_.max_inflight) {
    if (pump() == 0) {
      ++window_stalls_;
      park();
    }
  }
  sim::ShardRequest request;
  request.op = op;
  request.node = node_;
  request.object = object;
  request.value = value;
  request.ticket = issued_ + 1;
  request.issue_ns =
      request.ticket % latency_sample_every_ == 0 ? now_ns() : 0;
  request.reply = &grants_;
  sim::SequencerShard& shard =
      *owner_.shards_[sim::shard_of(object, owner_.shards_.size())];
  // Ring backpressure: keep draining our own grants so the shard always
  // has somewhere to publish completions; never park holding a request.
  // A closed ring never grants again: the ticket would hang drain().
  while (!shard.try_submit(request)) {
    if (shard.closed()) [[unlikely]] throw_stopped("submit");
    ++submit_stalls_;
    if (pump() == 0) std::this_thread::yield();
  }
  issued_ = request.ticket;
  ++in_flight_;
  return request.ticket;
}

std::size_t ConcurrentSharedMemory::Session::pump() {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = grants_.pop_batch(pump_buf_.data(),
                                            pump_buf_.size());
    if (n == 0) break;
    const std::uint64_t end_ns =
        latency_sample_every_ > 0 ? now_ns() : 0;
    std::size_t unexecuted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::ShardGrant& grant = pump_buf_[i];
      if (grant.failed) {  // drain() raises the shard's error
        ++unexecuted;
        continue;
      }
      cost_ += grant.cost;
      if (grant.op == fsm::OpKind::kRead) last_read_value_ = grant.value;
      if (grant.issue_ns != 0 && end_ns > grant.issue_ns)
        latency_ns_.record(static_cast<double>(end_ns - grant.issue_ns));
      if (handler_) handler_(grant);
    }
    completed_ += n - unexecuted;
    in_flight_ -= n;
    total += n;
  }
  return total;
}

void ConcurrentSharedMemory::Session::park() {
  if (!grants_.spin_for_data()) grants_.park();
}

void ConcurrentSharedMemory::Session::drain() {
  while (in_flight_ > 0) {
    if (pump() == 0) park();
  }
  if (owner_.failed())
    throw Error("concurrent runtime failed: " + owner_.error());
}

// ---------------------------------------------------------------------------
// ConcurrentSharedMemory

ConcurrentSharedMemory::ConcurrentSharedMemory(const Options& options)
    : options_(options) {
  DRSM_CHECK(options_.num_shards >= 1, "need at least one shard");
  DRSM_CHECK(options_.num_clients >= 1, "need at least one client");
  DRSM_CHECK(options_.num_objects >= options_.num_shards,
             "need at least one object per shard");
  DRSM_CHECK(options_.shard_taps.empty() ||
                 options_.shard_taps.size() == options_.num_shards,
             "shard_taps must be empty or one per shard");
  DRSM_CHECK(options_.max_inflight >= 1, "window must admit one operation");

  std::vector<std::vector<ObjectId>> owned(options_.num_shards);
  for (std::size_t o = 0; o < options_.num_objects; ++o) {
    owned[sim::shard_of(static_cast<ObjectId>(o), options_.num_shards)]
        .push_back(static_cast<ObjectId>(o));
  }
  sim::SystemConfig config;
  config.num_clients = options_.num_clients;
  config.costs = options_.costs;
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    sim::SequencerShard::Options shard_options;
    shard_options.protocol = options_.protocol;
    shard_options.config = config;
    shard_options.objects = std::move(owned[s]);
    shard_options.ring_capacity = options_.ring_capacity;
    shard_options.max_batch = options_.max_batch;
    shard_options.tap =
        options_.shard_taps.empty() ? nullptr : options_.shard_taps[s];
    shards_.push_back(std::make_unique<sim::SequencerShard>(shard_options));
  }
  sessions_.reserve(options_.num_clients);
  for (std::size_t c = 0; c < options_.num_clients; ++c) {
    sessions_.push_back(std::unique_ptr<Session>(
        new Session(*this, static_cast<NodeId>(c), options_.max_inflight,
                    options_.latency_sample_every)));
  }
  for (auto& shard : shards_) shard->start();
  start_ = std::chrono::steady_clock::now();
}

ConcurrentSharedMemory::~ConcurrentSharedMemory() { stop(); }

ConcurrentSharedMemory::Session& ConcurrentSharedMemory::session(
    NodeId client) {
  DRSM_CHECK(client < sessions_.size(), "client id out of range");
  return *sessions_[client];
}

void ConcurrentSharedMemory::migrate(ObjectId object,
                                     protocols::ProtocolKind to) {
  DRSM_CHECK(object < options_.num_objects, "object id out of range");
  sim::ShardRequest request;
  request.kind = sim::ShardRequest::Kind::kMigrate;
  request.object = object;
  request.migrate_to = to;
  sim::SequencerShard& shard =
      *shards_[sim::shard_of(object, shards_.size())];
  while (!shard.try_submit(request)) {
    if (shard.closed()) throw_stopped("migrate");
    std::this_thread::yield();
  }
}

protocols::ProtocolKind ConcurrentSharedMemory::object_protocol(
    ObjectId object) const {
  DRSM_CHECK(object < options_.num_objects, "object id out of range");
  return shards_[sim::shard_of(object, shards_.size())]->object_protocol(
      object);
}

void ConcurrentSharedMemory::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  wall_ms_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  for (auto& shard : shards_) shard->stop();
  if (options_.metrics == nullptr) return;

  const Stats s = stats();
  obs::MetricsRegistry& m = *options_.metrics;
  m.counter("runtime.runs").inc();
  m.counter("runtime.ops").inc(s.ops);
  m.counter("runtime.migrations").inc(s.migrations);
  m.counter("runtime.messages").inc(s.messages);
  m.counter("runtime.batches").inc(s.batches);
  m.counter("runtime.shard_parks").inc(s.shard_parks);
  m.counter("runtime.idle_yields").inc(s.idle_yields);
  m.counter("runtime.ring_full_stalls").inc(s.ring_full_stalls);
  m.counter("runtime.submit_stalls").inc(s.submit_stalls);
  m.counter("runtime.window_stalls").inc(s.window_stalls);
  m.gauge("runtime.cost").add(s.cost);
  m.gauge("runtime.acc").set(s.acc());
  m.gauge("runtime.wall_ms").set(s.wall_ms);
  m.gauge("runtime.ops_per_sec").set(s.ops_per_sec());
  m.gauge("runtime.shards").set(static_cast<double>(shards_.size()));
  m.gauge("runtime.sessions").set(static_cast<double>(sessions_.size()));
  m.gauge("runtime.max_batch").set(static_cast<double>(s.max_batch));
  m.quantile("runtime.latency_ns").merge(s.latency_ns);
  for (std::size_t i = 0; i < s.shard_ops.size(); ++i)
    m.counter("runtime.shard_ops." + std::to_string(i)).inc(s.shard_ops[i]);
}

bool ConcurrentSharedMemory::failed() const {
  for (const auto& shard : shards_)
    if (shard->failed()) return true;
  return false;
}

std::string ConcurrentSharedMemory::error() const {
  for (const auto& shard : shards_)
    if (shard->failed()) return shard->error();
  return {};
}

ConcurrentSharedMemory::Stats ConcurrentSharedMemory::stats() const {
  Stats s;
  s.wall_ms = wall_ms_;
  for (const auto& shard : shards_) {
    const sim::SequencerShard::Stats& ss = shard->stats();
    s.ops += ss.ops;
    s.migrations += ss.migrations;
    s.cost += ss.cost;
    s.messages += ss.messages;
    s.batches += ss.batches;
    s.max_batch = std::max(s.max_batch, ss.max_batch);
    s.shard_parks += ss.parks;
    s.idle_yields += ss.idle_yields;
    s.ring_full_stalls += ss.ring_full_stalls;
    s.shard_ops.push_back(ss.ops);
  }
  for (const auto& session : sessions_) {
    s.submit_stalls += session->submit_stalls();
    s.window_stalls += session->window_stalls();
    s.latency_ns.merge(session->latency_ns());
  }
  return s;
}

std::uint64_t ConcurrentSharedMemory::object_version(ObjectId object) const {
  return shards_[sim::shard_of(object, shards_.size())]->object_version(
      object);
}

}  // namespace drsm::dsm
