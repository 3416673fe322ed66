#include "sim/threaded.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>

#include "sim/mpsc_ring.h"
#include "support/error.h"
#include "support/text.h"

namespace drsm::sim {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

namespace {

struct Shared;

/// Everything owned by one node.  The machine state and the local tallies
/// are touched only by the node's own thread; the inbox is the only
/// cross-thread surface.
// With one operation in flight per node, inbox occupancy is bounded by a
// few messages per peer; this capacity leaves orders of magnitude of slack
// (overflow is a failed run, not a wait — see send()).
constexpr std::size_t kInboxCapacity = 1 << 13;

struct Node {
  // Cross-thread: the inbox (lock-free MPSC; this node's thread is the
  // single consumer, every peer a producer).
  MpscRing<Message> inbox{kInboxCapacity};

  // Thread-local to the owning node thread.
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> machines;  // per object
  std::vector<std::uint64_t> last_seen_version;                 // per object
  bool op_in_flight = false;
  bool op_completed_flag = false;
  bool driver_done = false;

  // Local tallies, merged after join.
  Cost warmup_cost = 0.0;
  Cost measured_cost = 0.0;
  std::size_t messages = 0;
};

struct Shared {
  protocols::ProtocolKind kind;
  SystemConfig config;
  ThreadedOptions options;
  WorkloadDriver* driver = nullptr;
  std::mutex driver_mu;

  std::vector<std::unique_ptr<Node>> nodes;

  std::atomic<std::size_t> issued{0};
  std::atomic<std::size_t> exhausted_nodes{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> active_ops{0};
  std::atomic<std::size_t> pending_msgs{0};
  std::atomic<std::uint64_t> version_counter{0};
  std::atomic<std::uint64_t> value_counter{0};

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::string error;

  void fail(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (error.empty()) error = what;
    }
    failed.store(true);
  }
};

/// MachineContext bound to one node thread.
class ThreadedCtx final : public fsm::MachineContext {
 public:
  ThreadedCtx(Shared& shared, NodeId self)
      : shared_(shared), self_(self), node_(*shared.nodes[self]) {}

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override {
    return shared_.config.num_clients;
  }
  const fsm::CostModel& costs() const override {
    return shared_.config.costs;
  }

  void send(NodeId dest, Message msg) override {
    DRSM_CHECK(dest < num_nodes(), "send: destination out of range");
    msg.sender = self_;
    if (dest != self_) {
      const Cost cost = costs().message_cost(msg.token.params);
      // Attribute to the warm-up or measurement phase by the (approximate)
      // global completion count at send time — the same smearing the
      // paper's warm-up cut applies.
      if (shared_.completed.load(std::memory_order_relaxed) <
          shared_.options.warmup_ops) {
        node_.warmup_cost += cost;
      } else {
        node_.measured_cost += cost;
      }
      ++node_.messages;
    }
    Node& target = *shared_.nodes[dest];
    shared_.pending_msgs.fetch_add(1, std::memory_order_acq_rel);
    if (!target.inbox.try_push(msg)) {
      // The closed loop bounds occupancy far below capacity, so a full
      // inbox means the receiver stopped draining (it failed or wedged).
      // Yield-retry briefly, then declare the run failed rather than hang.
      bool pushed = false;
      for (int spin = 0; spin < 1'000'000 && !pushed; ++spin) {
        if (shared_.failed.load(std::memory_order_relaxed)) break;
        std::this_thread::yield();
        pushed = target.inbox.try_push(msg);
      }
      if (!pushed) {
        shared_.pending_msgs.fetch_sub(1, std::memory_order_acq_rel);
        shared_.fail(strfmt("inbox overflow: node %u -> node %u", self_,
                            dest));
      }
    }
  }

  void send_except(std::initializer_list<NodeId> excluded,
                   Message msg) override {
    for (NodeId node = 0; node < num_nodes(); ++node) {
      bool skip = false;
      for (NodeId ex : excluded) skip = skip || ex == node;
      if (!skip) send(node, msg);
    }
  }

  void return_read(std::uint64_t /*value*/, std::uint64_t version) override {
    if (shared_.options.check_coherence && version > 0) {
      std::uint64_t& last = node_.last_seen_version[current_object_];
      if (version < last) {
        shared_.fail(strfmt(
            "coherence: node %u saw version regress on object %u", self_,
            current_object_));
      }
      last = std::max(last, version);
    }
    complete();
  }

  void complete_write(std::uint64_t /*version*/) override { complete(); }
  void complete_op() override { complete(); }

  void disable_local_queue() override {}
  void enable_local_queue() override {}

  std::uint64_t next_version() override {
    return shared_.version_counter.fetch_add(1, std::memory_order_acq_rel) +
           1;
  }

  ObjectId current_object_ = 0;

 private:
  void complete() {
    node_.op_completed_flag = true;
    if (node_.op_in_flight) {
      node_.op_in_flight = false;
      shared_.completed.fetch_add(1, std::memory_order_acq_rel);
      shared_.active_ops.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  Shared& shared_;
  NodeId self_;
  Node& node_;
};

void process(Shared& shared, ThreadedCtx& ctx, Node& node,
             const Message& msg) {
  ctx.current_object_ = msg.token.object;
  try {
    node.machines[msg.token.object]->on_message(ctx, msg);
  } catch (const Error& e) {
    shared.fail(e.what());
  }
}

/// Issues one application operation if the budget allows.  Returns true if
/// an operation was started.
bool try_issue(Shared& shared, ThreadedCtx& ctx, Node& node, NodeId id) {
  if (node.op_in_flight) return false;
  if (shared.issued.load(std::memory_order_relaxed) >=
      shared.options.total_ops)
    return false;

  std::optional<WorkloadDriver::Op> op;
  {
    std::lock_guard<std::mutex> lock(shared.driver_mu);
    if (shared.issued.load(std::memory_order_relaxed) >=
        shared.options.total_ops)
      return false;
    op = shared.driver->next_op(id);
    if (!op.has_value()) {
      // Our drivers are permanent-nullopt once exhausted; count the node
      // out so quiescence detection works when the driver runs dry before
      // the ops budget (e.g. trace replay).
      if (!node.driver_done) {
        node.driver_done = true;
        shared.exhausted_nodes.fetch_add(1, std::memory_order_acq_rel);
      }
      return false;
    }
    shared.issued.fetch_add(1, std::memory_order_acq_rel);
  }

  Message request;
  switch (op->kind) {
    case OpKind::kRead: request.token.type = MsgType::kReadReq; break;
    case OpKind::kWrite: request.token.type = MsgType::kWriteReq; break;
    case OpKind::kEject: request.token.type = MsgType::kEject; break;
    case OpKind::kSync: request.token.type = MsgType::kSyncReq; break;
  }
  request.token.initiator = id;
  request.token.object = op->object;
  request.token.queue = id == static_cast<NodeId>(shared.config.num_clients)
                            ? QueueKind::kDistributed
                            : QueueKind::kLocal;
  request.token.params = op->kind == OpKind::kWrite
                             ? ParamPresence::kWriteParams
                             : ParamPresence::kReadParams;
  request.value =
      shared.value_counter.fetch_add(1, std::memory_order_acq_rel) + 1;
  request.sender = id;

  node.op_in_flight = true;
  node.op_completed_flag = false;
  shared.active_ops.fetch_add(1, std::memory_order_acq_rel);
  process(shared, ctx, node, request);
  return true;
}

void node_main(std::stop_token stop, Shared& shared, NodeId id) {
  Node& node = *shared.nodes[id];
  ThreadedCtx ctx(shared, id);
  std::vector<Message> batch(256);
  while (!stop.stop_requested() && !shared.failed.load()) {
    // Drain the inbox in batches.
    bool processed = false;
    for (;;) {
      const std::size_t n = node.inbox.pop_batch(batch.data(), batch.size());
      if (n == 0) break;
      processed = true;
      for (std::size_t i = 0; i < n; ++i) {
        process(shared, ctx, node, batch[i]);
        shared.pending_msgs.fetch_sub(1, std::memory_order_acq_rel);
      }
    }

    // Closed loop: issue while operations complete synchronously.
    bool issued_any = false;
    while (try_issue(shared, ctx, node, id)) {
      issued_any = true;
      if (node.op_in_flight) break;  // blocked on a remote response
    }

    if (!processed && !issued_any) {
      // Park on the inbox gate; a send() to us (or the final poke) wakes
      // us.  The eventcount handshake closes the lost-wakeup window.
      const std::uint32_t ticket = node.inbox.prepare_wait();
      if (node.inbox.can_pop() || stop.stop_requested() ||
          shared.failed.load()) {
        node.inbox.cancel_wait();
        continue;
      }
      node.inbox.wait(ticket);
    }
  }
}

}  // namespace

ThreadedStats run_threaded(protocols::ProtocolKind kind,
                           const SystemConfig& config,
                           const ThreadedOptions& options,
                           WorkloadDriver& driver) {
  DRSM_CHECK(config.num_clients >= 1, "need at least one client");
  DRSM_CHECK(config.num_objects >= 1, "need at least one object");

  const auto wall_start = std::chrono::steady_clock::now();

  Shared shared;
  shared.kind = kind;
  shared.config = config;
  shared.options = options;
  shared.driver = &driver;

  const std::size_t node_count = config.num_clients + 1;
  shared.nodes.reserve(node_count);
  for (NodeId id = 0; id < node_count; ++id) {
    auto node = std::make_unique<Node>();
    node->machines.reserve(config.num_objects);
    for (ObjectId obj = 0; obj < config.num_objects; ++obj)
      node->machines.push_back(
          protocols::make_machine(kind, id, config.num_clients));
    node->last_seen_version.assign(config.num_objects, 0);
    shared.nodes.push_back(std::move(node));
  }

  {
    std::vector<std::jthread> threads;
    threads.reserve(node_count);
    for (NodeId id = 0; id < node_count; ++id)
      threads.emplace_back(
          [&shared, id](std::stop_token st) { node_main(st, shared, id); });

    // Quiescence: the budget is exhausted, no operation is in flight, and
    // no message is undelivered.  (Sends increment pending_msgs before the
    // push and operations increment active_ops before processing, so a
    // zero reading cannot race with hidden work.)
    for (;;) {
      if (shared.failed.load()) break;
      const bool budget_done =
          shared.issued.load() >= options.total_ops ||
          shared.exhausted_nodes.load() == node_count;
      if (budget_done && shared.active_ops.load() == 0 &&
          shared.pending_msgs.load() == 0)
        break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& thread : threads) thread.request_stop();
    for (NodeId id = 0; id < node_count; ++id)
      shared.nodes[id]->inbox.poke();
  }  // jthreads join here

  if (shared.failed.load()) {
    std::lock_guard<std::mutex> lock(shared.error_mu);
    throw Error("threaded runtime: " + shared.error);
  }

  ThreadedStats stats;
  for (const auto& node : shared.nodes) {
    stats.measured_cost += node->measured_cost;
    stats.total_cost += node->warmup_cost + node->measured_cost;
    stats.messages += node->messages;
  }
  stats.total_ops = shared.completed.load();
  stats.measured_ops =
      stats.total_ops > options.warmup_ops
          ? stats.total_ops - options.warmup_ops
          : 0;

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    m.counter("threaded.runs").inc();
    m.counter("threaded.ops").inc(stats.total_ops);
    m.counter("threaded.messages").inc(stats.messages);
    std::uint64_t inbox_stalls = 0;
    for (const auto& node : shared.nodes)
      inbox_stalls += node->inbox.full_stalls();
    m.counter("threaded.inbox_stalls").inc(inbox_stalls);
    m.gauge("threaded.acc").set(stats.acc());
    m.gauge("threaded.measured_cost").add(stats.measured_cost);
    m.gauge("threaded.wall_ms")
        .set(std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - wall_start)
                 .count());
    // Per-node message spread: where the protocol-processor load sits —
    // the fixed-sequencer protocols pile onto node N.
    for (NodeId id = 0; id < node_count; ++id)
      m.counter("threaded.node_messages." + std::to_string(id))
          .inc(shared.nodes[id]->messages);
  }
  return stats;
}

}  // namespace drsm::sim
