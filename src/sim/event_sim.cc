#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <map>

#include "support/error.h"
#include "support/text.h"

namespace drsm::sim {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

namespace {

/// The legacy MessageObserver as a sink: forwards each kMsgSend event to
/// the callback (rebuilding the fsm::Message the old signature carried)
/// and passes everything through to the next sink in the chain.
class ObserverSink final : public obs::EventSink {
 public:
  explicit ObserverSink(MessageObserver fn) : fn_(std::move(fn)) {}

  obs::EventSink* next = nullptr;

  void on_event(const obs::TraceEvent& event) override {
    if (event.kind == obs::EventKind::kMsgSend) {
      Message msg;
      msg.token = event.token;
      msg.value = event.value;
      msg.version = event.version;
      msg.hops = event.hops;
      msg.sender = event.node;
      fn_(static_cast<SimTime>(event.time), event.node, event.peer, msg);
    }
    if (next != nullptr) next->on_event(event);
  }

 private:
  MessageObserver fn_;
};

}  // namespace

struct EventSimulator::Impl {
  // -- static configuration ------------------------------------------------
  protocols::ProtocolKind kind;
  SystemConfig config;
  SimOptions options;

  // -- observability -------------------------------------------------------
  // `sink` is the head of the active sink chain (observer adapter first,
  // then the external sink); null when tracing is disabled, so every
  // event site costs exactly one branch in that case.  The sink pointers
  // live with the statistics, after the hot simulation state.

  void rewire_sinks() {
    if (observer_sink != nullptr) {
      observer_sink->next = external_sink;
      sink = observer_sink.get();
    } else {
      sink = external_sink;
    }
  }

  // Emission helpers are cold and out-of-line so the functions on the
  // critical path stay small enough to inline when tracing is detached.
  [[gnu::cold, gnu::noinline]] void emit_message_event(
      obs::EventKind kind_, NodeId node, NodeId peer, const Message& msg,
      std::uint64_t id, Cost cost) const {
    obs::TraceEvent event;
    event.time = static_cast<double>(now);
    event.kind = kind_;
    event.node = node;
    event.peer = peer;
    event.object = msg.token.object;
    event.msg_id = id;
    event.token = msg.token;
    event.value = msg.value;
    event.version = msg.version;
    event.hops = msg.hops;
    event.cost = cost;
    event.span = msg.span;
    sink->on_event(event);
  }

  // -- simulation state ----------------------------------------------------
  Rng rng;
  SimTime now = 0;
  // Pending events: POD records from the slab arena, popped in
  // (time, schedule order) — see sim/event_queue.h.
  EventQueue events;

  // Cached dimensions of the flat matrices below.
  std::uint32_t num_nodes = 1;
  std::uint32_t num_objects = 1;
  NodeId seq_node = 0;  // the sequencer, node num_clients

  // machines[node * num_objects + object]: one flat matrix instead of a
  // vector-of-vectors, so the hot lookup is one multiply, not two
  // dependent loads.
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> machines;
  // Per-node queues and processing state.
  std::vector<RingQueue<Message>> local_queue;
  std::vector<RingQueue<Message>> dist_queue;
  std::vector<std::uint8_t> local_disabled;  // [node * num_objects + object]
  std::vector<std::uint8_t> busy;            // vector<bool> proxies are slower
  // FIFO channels: latest scheduled delivery per (src, dst), flat
  // [src * num_nodes + dst].
  std::vector<SimTime> channel_front;

  // Outstanding application op per node.
  struct Outstanding {
    bool active = false;
    ObjectId object = 0;
    OpKind kind = OpKind::kRead;
    SimTime issued = 0;
    std::uint64_t span = 0;  // causal span id assigned at issue
  };
  std::vector<Outstanding> outstanding;
  bool stopped_issuing = false;

  // Coherence checking: last version observed by each node per object,
  // flat [node * num_objects + object].
  std::vector<std::uint64_t> last_seen_version;

  std::uint64_t version_counter = 0;
  std::uint64_t write_value_counter = 0;

  // -- statistics ----------------------------------------------------------
  Cost total_cost = 0.0;
  std::size_t total_messages = 0;
  std::size_t completed_ops = 0;
  Cost cost_at_warmup = 0.0;
  std::size_t reads_measured = 0;
  std::size_t writes_measured = 0;
  double latency_sum = 0.0;
  SimTime latency_max = 0;
  double read_latency_sum = 0.0;
  double write_latency_sum = 0.0;
  // Dense message mix, one slot per MsgType; converted to the SimStats
  // map at run end (only types that occurred, as before).
  std::array<std::size_t, fsm::kNumMsgTypes> message_mix{};
  std::vector<Cost> cost_by_initiator;
  std::vector<Cost> cost_by_object;
  std::vector<std::size_t> handled_by_node;

  obs::EventSink* sink = nullptr;
  obs::EventSink* external_sink = nullptr;
  std::unique_ptr<ObserverSink> observer_sink;
  CoherenceTap* tap = nullptr;
  // In-flight message counts per (src, dst), flat [src * num_nodes + dst];
  // sized only when options.max_channel_depth bounds the channels.
  std::vector<std::uint32_t> channel_depth;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Quantile* seq_depth = nullptr;  // resolved at run start
  obs::Quantile latency_q;      // post-warmup, always collected
  std::uint64_t msg_seq = 0;    // pairs sends with receives
  std::uint64_t span_seq = 0;   // causal span ids, one per application op
  // Span of the message currently being handled; messages sent while
  // handling inherit it, so causality propagates through grant /
  // invalidation / recall / NACK chains automatically.
  std::uint64_t current_span_ = 0;

  WorkloadDriver* driver = nullptr;

  // -- MachineContext ------------------------------------------------------
  class Ctx final : public fsm::MachineContext {
   public:
    Ctx(Impl& impl, NodeId self) : impl_(impl), self_(self) {}

    NodeId self() const override { return self_; }
    std::size_t num_clients() const override {
      return impl_.config.num_clients;
    }
    const fsm::CostModel& costs() const override {
      return impl_.config.costs;
    }

    void send(NodeId dest, Message msg) override {
      impl_.send_message(self_, dest, msg);
    }

    void send_except(std::initializer_list<NodeId> excluded,
                     Message msg) override {
      DRSM_CHECK(std::find(excluded.begin(), excluded.end(), self_) !=
                     excluded.end(),
                 "send_except: sender must exclude itself");
      for (NodeId node = 0; node < num_nodes(); ++node) {
        if (std::find(excluded.begin(), excluded.end(), node) !=
            excluded.end())
          continue;
        impl_.send_message(self_, node, msg);
      }
    }

    void return_read(std::uint64_t value, std::uint64_t version) override {
      impl_.on_read_return(self_, value, version);
    }
    void complete_write(std::uint64_t version) override {
      impl_.on_op_complete(self_, version);
    }
    void complete_op() override { impl_.on_op_complete(self_, 0); }

    void disable_local_queue() override {
      impl_.local_disabled[self_ * impl_.num_objects + impl_.current_object_] =
          1;
      if (impl_.sink != nullptr) [[unlikely]]
        impl_.emit_queue_event(obs::EventKind::kQueueDisable, self_);
    }
    void enable_local_queue() override {
      impl_.local_disabled[self_ * impl_.num_objects + impl_.current_object_] =
          0;
      if (impl_.sink != nullptr) [[unlikely]]
        impl_.emit_queue_event(obs::EventKind::kQueueEnable, self_);
      impl_.try_process(self_);
    }

    std::uint64_t next_version() override {
      return ++impl_.version_counter;
    }

    void commit_write(std::uint64_t version, std::uint64_t value) override {
      if (impl_.tap != nullptr) [[unlikely]]
        impl_.tap->on_commit(static_cast<double>(impl_.now), self_,
                             impl_.current_object_, version, value);
    }

   private:
    Impl& impl_;
    NodeId self_;
  };

  ObjectId current_object_ = 0;  // object of the message being handled

  // -- mechanics -----------------------------------------------------------
  Impl(protocols::ProtocolKind k, const SystemConfig& cfg,
       const SimOptions& opts)
      : kind(k), config(cfg), options(opts), rng(opts.seed),
        events(opts.scheduler) {
    num_nodes = static_cast<std::uint32_t>(config.num_clients + 1);
    num_objects = static_cast<std::uint32_t>(config.num_objects);
    seq_node = static_cast<NodeId>(config.num_clients);
    const std::size_t nodes = num_nodes;
    machines.reserve(nodes * config.num_objects);
    for (NodeId node = 0; node < nodes; ++node)
      for (ObjectId obj = 0; obj < config.num_objects; ++obj)
        machines.push_back(
            protocols::make_machine(kind, node, config.num_clients));
    local_queue.resize(nodes);
    dist_queue.resize(nodes);
    local_disabled.assign(nodes * config.num_objects, 0);
    busy.assign(nodes, 0);
    channel_front.assign(nodes * nodes, 0);
    if (options.max_channel_depth > 0)
      channel_depth.assign(nodes * nodes, 0);
    outstanding.resize(nodes);
    cost_by_initiator.assign(nodes, 0.0);
    cost_by_object.assign(config.num_objects, 0.0);
    handled_by_node.assign(nodes, 0);
    last_seen_version.assign(nodes * config.num_objects, 0);
    if (options.latency.max_latency > options.latency.min_latency) {
      latency_range =
          options.latency.max_latency - options.latency.min_latency + 1;
      latency_threshold = (~latency_range + 1) % latency_range;
    }
  }

  // Typed scheduling: every former closure is one POD record.  Payloads
  // are copied at schedule time, matching the old by-value captures.
  void schedule_deliver(SimTime delay, NodeId dst, const Message& msg,
                        std::uint64_t msg_id) {
    SimEvent& event = events.schedule(now + delay);
    event.type = SimEventType::kDeliver;
    event.node = dst;
    event.msg = msg;
    event.msg_id = msg_id;
  }

  void schedule_process(NodeId node, const Message& msg) {
    SimEvent& event = events.schedule(now + options.latency.processing_time);
    event.type = SimEventType::kProcess;
    event.node = node;
    event.msg = msg;
  }

  void schedule_start_op(SimTime think_time, NodeId node,
                         const WorkloadDriver::Op& op) {
    SimEvent& event = events.schedule(now + think_time);
    event.type = SimEventType::kStartOp;
    event.node = node;
    event.object = op.object;
    event.op = op.kind;
  }

  // Channel latency draw, one per inter-node send.  The range and the
  // Lemire rejection threshold are constants of the run, precomputed at
  // construction: this is Rng::uniform_index unrolled with the two
  // per-call 64-bit divisions for the threshold hoisted out (the result
  // sequence is bit-identical — same raw draws, same rejections, same
  // modulus).
  std::uint64_t latency_range = 0;      // 0 = constant latency
  std::uint64_t latency_threshold = 0;  // (2^64 - range) mod range

  SimTime draw_latency() {
    if (latency_range == 0) return options.latency.min_latency;
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= latency_threshold)
        return options.latency.min_latency + r % latency_range;
    }
  }

  [[gnu::cold, gnu::noinline]] void emit_op_event(obs::EventKind kind_,
                                                  fsm::OpKind op, NodeId node,
                                                  ObjectId object, double cost,
                                                  std::uint64_t span) const {
    obs::TraceEvent event;
    event.time = static_cast<double>(now);
    event.kind = kind_;
    event.op = op;
    event.node = node;
    event.object = object;
    event.cost = cost;
    event.span = span;
    sink->on_event(event);
  }

  [[gnu::cold, gnu::noinline]] void record_sequencer_depth(NodeId dst) {
    seq_depth->record(static_cast<double>(dist_queue[dst].size() + 1));
  }

  [[gnu::cold, gnu::noinline]] void emit_queue_event(obs::EventKind kind_,
                                                     NodeId node) {
    obs::TraceEvent event;
    event.time = static_cast<double>(now);
    event.kind = kind_;
    event.node = node;
    event.object = current_object_;
    event.span = current_span_;
    sink->on_event(event);
  }

  void send_message(NodeId src, NodeId dst, Message msg) {
    msg.sender = src;
    // Inherit the span of the message being handled: protocol machines
    // never set spans themselves, so the runtime stamps causality here
    // (before the local-action early return — self-sends continue the
    // same causal chain when they are eventually handled).
    msg.span = current_span_;
    if (src == dst) {
      // Local action: free, delivered instantly at the next event; not an
      // inter-node message, so never traced or queue-depth sampled.
      schedule_deliver(0, dst, msg, /*msg_id=*/0);
      return;
    }
    const Cost cost = config.costs.message_cost(msg.token.params);
    total_cost += cost;
    ++total_messages;
    ++message_mix[static_cast<std::size_t>(msg.token.type)];
    if (msg.token.initiator < cost_by_initiator.size())
      cost_by_initiator[msg.token.initiator] += cost;
    if (msg.token.object < cost_by_object.size())
      cost_by_object[msg.token.object] += cost;
    if (!channel_depth.empty()) {
      DRSM_CHECK(++channel_depth[src * num_nodes + dst] <=
                     options.max_channel_depth,
                 strfmt("channel %u->%u exceeded its depth bound", src, dst));
    }
    // FIFO channel: never deliver before the previously sent message.
    SimTime arrival = now + draw_latency();
    arrival = std::max(arrival, channel_front[src * num_nodes + dst]);
    channel_front[src * num_nodes + dst] = arrival;
    if (sink == nullptr) [[likely]] {
      // Tracing detached: deliveries carry no message id and skip the
      // per-delivery trace emission (queue-depth sampling, when a metrics
      // registry is attached, happens in route() and needs no id).
      schedule_deliver(arrival - now, dst, msg, /*msg_id=*/0);
      return;
    }
    const std::uint64_t id = ++msg_seq;
    emit_message_event(obs::EventKind::kMsgSend, src, dst, msg, id, cost);
    schedule_deliver(arrival - now, dst, msg, id);
  }

  /// Delivery tail shared by the traced and untraced paths.  When
  /// kRefilePending is set the caller guarantees `msg` lives inside the
  /// record handed out by the queue's last pop_next(): the idle-node fast
  /// path then re-files that record as the kProcess event in place (same
  /// (time, seq) stamp schedule() would assign, payload already there)
  /// instead of allocating and copying a fresh one.
  template <bool kRefilePending>
  void route_impl(NodeId dst, const Message& msg) {
    if (seq_depth != nullptr) [[unlikely]] {
      // Sequencer queue-depth sampling, one sample per inter-node delivery
      // to the sequencer (self-sends are local actions, never sampled),
      // taken before the enqueue below.
      if (dst == seq_node && msg.sender != dst) record_sequencer_depth(dst);
    }
    if (!channel_depth.empty() && msg.sender != dst)
      --channel_depth[msg.sender * num_nodes + dst];
    RingQueue<Message>& queue = dist_queue[dst];
    if (!busy[dst] && queue.empty()) {
      // The delivery is the only runnable work at dst: start processing
      // directly, skipping the enqueue/dequeue round trip.
      busy[dst] = 1;
      if constexpr (kRefilePending) {
        SimEvent& event =
            events.refile_pending(now + options.latency.processing_time);
        event.type = SimEventType::kProcess;
        // event.node and event.msg already hold dst and the payload —
        // the re-filed record is the delivery record itself.
      } else {
        schedule_process(dst, msg);
      }
      return;
    }
    queue.push_back(msg);
    try_process(dst);
  }

  void route(NodeId dst, const Message& msg) {
    route_impl<false>(dst, msg);
  }

  [[gnu::cold, gnu::noinline]] void deliver_traced(NodeId dst,
                                                   const Message& msg,
                                                   std::uint64_t msg_id) {
    if (sink != nullptr)
      emit_message_event(obs::EventKind::kMsgRecv, dst, msg.sender, msg,
                         msg_id, config.costs.message_cost(msg.token.params));
    route(dst, msg);
  }

  void try_process(NodeId node) {
    if (busy[node]) return;
    RingQueue<Message>& dq = dist_queue[node];
    if (!dq.empty()) {
      busy[node] = 1;
      schedule_process(node, dq.front());
      dq.pop_front();
      return;
    }
    RingQueue<Message>& lq = local_queue[node];
    if (!lq.empty() &&
        !local_disabled[node * num_objects + lq.front().token.object]) {
      busy[node] = 1;
      schedule_process(node, lq.front());
      lq.pop_front();
    }
  }

  void handle(NodeId node, const Message& msg) {
    ++handled_by_node[node];
    current_object_ = msg.token.object;
    current_span_ = msg.span;
    DRSM_CHECK(current_object_ < config.num_objects, "bad object id");
    Ctx ctx(*this, node);
    if (sink == nullptr) {
      machines[node * num_objects + current_object_]->on_message(ctx, msg);
      return;
    }
    handle_traced(ctx, node, msg);
  }

  [[gnu::cold, gnu::noinline]] void handle_traced(Ctx& ctx, NodeId node,
                                                  const Message& msg) {
    fsm::ProtocolMachine& machine =
        *machines[node * num_objects + current_object_];
    const char* before = machine.state_name();
    const ObjectId object = current_object_;
    machine.on_message(ctx, msg);
    const char* after = machine.state_name();
    if (before != after && std::strcmp(before, after) != 0) {
      obs::TraceEvent event;
      event.time = static_cast<double>(now);
      event.kind = obs::EventKind::kStateTransition;
      event.node = node;
      event.object = object;
      event.span = msg.span;
      event.detail = before;
      event.detail2 = after;
      sink->on_event(event);
    }
  }

  // -- application processes -----------------------------------------------
  void issue_next(NodeId node) {
    if (stopped_issuing) return;
    const auto op = driver->next_op(node);
    if (!op.has_value()) return;
    schedule_start_op(op->think_time, node, *op);
  }

  void start_op(NodeId node, const WorkloadDriver::Op& op) {
    DRSM_CHECK(!outstanding[node].active, "node already has an op in flight");
    const std::uint64_t span = ++span_seq;
    outstanding[node] = {true, op.object, op.kind, now, span};
    if (sink != nullptr) [[unlikely]]
      emit_op_event(obs::EventKind::kOpIssue, op.kind, node, op.object, 0.0,
                    span);

    Message request;
    request.span = span;
    switch (op.kind) {
      case OpKind::kRead: request.token.type = MsgType::kReadReq; break;
      case OpKind::kWrite: request.token.type = MsgType::kWriteReq; break;
      case OpKind::kEject: request.token.type = MsgType::kEject; break;
      case OpKind::kSync: request.token.type = MsgType::kSyncReq; break;
    }
    request.token.initiator = node;
    request.token.object = op.object;
    request.token.params = op.kind == OpKind::kWrite
                               ? ParamPresence::kWriteParams
                               : ParamPresence::kReadParams;
    request.value = ++write_value_counter;
    request.sender = node;
    if (tap != nullptr && op.kind == OpKind::kWrite) [[unlikely]]
      tap->on_write_issue(static_cast<double>(now), node, op.object,
                          request.value);

    // Client application requests enter the local queue; the sequencer's
    // enter its distributed queue (Section 2).  When the node is idle and
    // the request would be the next message dequeued anyway, it goes
    // straight to processing — identical to push-then-try_process, which
    // pops this very message in that situation, minus the queue round
    // trip.
    if (node == seq_node) {
      request.token.queue = QueueKind::kDistributed;
      RingQueue<Message>& dq = dist_queue[node];
      if (!busy[node] && dq.empty()) {
        busy[node] = 1;
        schedule_process(node, request);
        return;
      }
      dq.push_back(request);
    } else {
      request.token.queue = QueueKind::kLocal;
      RingQueue<Message>& lq = local_queue[node];
      if (!busy[node] && dist_queue[node].empty() && lq.empty() &&
          !local_disabled[node * num_objects + request.token.object]) {
        busy[node] = 1;
        schedule_process(node, request);
        return;
      }
      lq.push_back(request);
    }
    try_process(node);
  }

  void on_read_return(NodeId node, std::uint64_t value,
                      std::uint64_t version) {
    if (tap != nullptr) [[unlikely]]
      tap->on_read(static_cast<double>(now), node, current_object_, value,
                   version);
    if (options.check_coherence) {
      std::uint64_t& seen = last_seen_version[node * num_objects +
                                              current_object_];
      DRSM_CHECK(version >= seen || version == 0,
                 strfmt("coherence: node %u saw version regress on object %u",
                        node, current_object_));
      if (version > 0) seen = version;
    }
    on_op_complete(node, version);
  }

  void on_op_complete(NodeId node, std::uint64_t /*version*/) {
    DRSM_CHECK(outstanding[node].active, "completion without an op");
    const OpKind kind = outstanding[node].kind;
    const SimTime latency = now - outstanding[node].issued;
    outstanding[node].active = false;
    if (sink != nullptr) [[unlikely]]
      emit_op_event(obs::EventKind::kOpComplete, kind, node,
                    outstanding[node].object,
                    static_cast<double>(latency),
                    outstanding[node].span);

    ++completed_ops;
    if (completed_ops == options.warmup_ops) cost_at_warmup = total_cost;
    if (completed_ops > options.warmup_ops) {
      latency_q.record(static_cast<double>(latency));
      latency_sum += static_cast<double>(latency);
      latency_max = std::max(latency_max, latency);
      if (kind == OpKind::kRead) {
        ++reads_measured;
        read_latency_sum += static_cast<double>(latency);
      }
      if (kind == OpKind::kWrite) {
        ++writes_measured;
        write_latency_sum += static_cast<double>(latency);
      }
    }
    if (completed_ops >= options.max_ops) {
      stopped_issuing = true;
      return;
    }
    issue_next(node);
  }

  // -- dense event dispatch ------------------------------------------------
  // One flat handler per SimEventType, indexed directly by the type tag.
  // The table replaces the per-event switch in the hot loop: the indirect
  // call is unconditionally predicted-taken and each handler body stays
  // small enough to inline its own fast paths.
  static void dispatch_deliver(Impl& self, SimEvent& ev) {
    if (ev.msg_id != 0) [[unlikely]]
      self.deliver_traced(ev.node, ev.msg, ev.msg_id);
    else
      self.route_impl<true>(ev.node, ev.msg);
  }

  static void dispatch_process(Impl& self, SimEvent& ev) {
    const NodeId node = ev.node;
    self.handle(node, ev.msg);
    self.busy[node] = 0;
    self.try_process(node);
  }

  static void dispatch_start_op(Impl& self, SimEvent& ev) {
    if (!self.stopped_issuing)
      self.start_op(ev.node, {ev.object, ev.op, /*think_time=*/0});
  }

  static constexpr std::array<void (*)(Impl&, SimEvent&), 3> kDispatch = {
      &Impl::dispatch_deliver, &Impl::dispatch_process,
      &Impl::dispatch_start_op};

  SimStats run(WorkloadDriver& wl) {
    driver = &wl;
    seq_depth = metrics != nullptr
                    ? &metrics->quantile("sim.seq_queue_depth")
                    : nullptr;
    const std::size_t nodes = config.num_clients + 1;
    for (NodeId node = 0; node < nodes; ++node) issue_next(node);

    // Run until the event queue drains: once max_ops operations have
    // completed no new operations are issued, but the tails of in-flight
    // traces (e.g. invalidations behind a fire-and-forget write) still
    // execute and are charged, so measured costs cover whole traces.
    const auto wall_start = std::chrono::steady_clock::now();
    if (options.dispatch == DispatchKind::kDenseTable) {
      // Production loop: zero-copy batched-tick pops (the queue hands out
      // whole one-tick FIFOs without re-touching the wheel) driven
      // through a flat function-pointer table indexed by the event type.
      // The popped record stays valid for the whole handler call — the
      // arena recycles it on the next pop — so the Message payload is
      // never copied out of the queue.
      while (SimEvent* ev = events.pop_next()) {
        DRSM_CHECK(ev->time >= now, "time went backwards");
        now = ev->time;
        kDispatch[static_cast<std::size_t>(ev->type)](*this, *ev);
      }
    } else {
      // Reference loop: per-event copy-out switch, kept as the
      // differential baseline for tests/sim_determinism_test.cc.
      SimEvent ev;
      while (events.pop(ev)) {
        DRSM_CHECK(ev.time >= now, "time went backwards");
        now = ev.time;
        switch (ev.type) {
          case SimEventType::kDeliver:
            if (ev.msg_id != 0) [[unlikely]]
              deliver_traced(ev.node, ev.msg, ev.msg_id);
            else
              route(ev.node, ev.msg);
            break;
          case SimEventType::kProcess:
            handle(ev.node, ev.msg);
            busy[ev.node] = 0;
            try_process(ev.node);
            break;
          case SimEventType::kStartOp:
            if (!stopped_issuing)
              start_op(ev.node, {ev.object, ev.op, /*think_time=*/0});
            break;
        }
      }
    }
    // Wall-clock throughput of the event loop.  Only ever published as a
    // gauge: simulated results stay bit-identical regardless of how fast
    // the host ran.
    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();

    SimStats stats;
    const std::size_t warm =
        std::min(options.warmup_ops, completed_ops);
    stats.warmup_ops = warm;
    stats.warmup_cost = warm < options.warmup_ops ? total_cost
                                                  : cost_at_warmup;
    stats.measured_ops = completed_ops - warm;
    stats.measured_cost = total_cost - stats.warmup_cost;
    stats.reads = reads_measured;
    stats.writes = writes_measured;
    stats.messages = total_messages;
    stats.end_time = now;
    // Latency aggregates are only recorded post-warmup; with zero
    // measured operations they must read as empty, whatever leaked in.
    if (stats.measured_ops > 0) {
      stats.latency_sum = latency_sum;
      stats.latency_max = latency_max;
      stats.read_latency_sum = read_latency_sum;
      stats.write_latency_sum = write_latency_sum;
    }
    for (std::size_t type = 0; type < message_mix.size(); ++type)
      if (message_mix[type] > 0)
        stats.message_mix[static_cast<MsgType>(type)] = message_mix[type];
    stats.cost_by_initiator = cost_by_initiator;
    stats.cost_by_object = cost_by_object;
    stats.handled_by_node = handled_by_node;
    stats.latency_quantiles = latency_q;
    if (metrics != nullptr) publish_metrics(stats);
    return stats;
  }

  double wall_seconds_ = 0.0;  // event-loop wall time of the last run

  /// Bytes held by the per-node ring buffers (their high-water capacity).
  std::size_t queue_bytes() const {
    std::size_t bytes = 0;
    for (const auto& q : local_queue) bytes += q.capacity_bytes();
    for (const auto& q : dist_queue) bytes += q.capacity_bytes();
    return bytes;
  }

  void publish_metrics(const SimStats& stats) {
    metrics->counter("sim.runs").inc();
    metrics->counter("sim.messages").inc(stats.messages);
    metrics->counter("sim.ops").inc(completed_ops);
    metrics->counter("sim.reads").inc(stats.reads);
    metrics->counter("sim.writes").inc(stats.writes);
    metrics->counter("sim.events").inc(events.scheduled());
    metrics->counter("sim.alloc_bytes")
        .inc(events.arena_bytes() + queue_bytes());
    metrics->gauge("sim.peak_pending_events")
        .set(static_cast<double>(events.peak_pending()));
    for (std::size_t type = 0; type < message_mix.size(); ++type)
      if (message_mix[type] > 0)
        metrics
            ->counter(std::string("sim.msg.") +
                      fsm::to_string(static_cast<MsgType>(type)))
            .inc(message_mix[type]);
    metrics->gauge("sim.acc").set(stats.acc());
    metrics->gauge("sim.measured_cost").add(stats.measured_cost);
    metrics->gauge("sim.end_time").set(static_cast<double>(stats.end_time));
    metrics->gauge("sim.mean_latency").set(stats.mean_latency());
    metrics->gauge("sim.wall_seconds").set(wall_seconds_);
    if (wall_seconds_ > 0.0)
      metrics->gauge("sim.events_per_sec")
          .set(static_cast<double>(events.scheduled()) / wall_seconds_);
    if (options.latency.processing_time > 0)
      metrics->gauge("sim.seq_utilization_total")
          .set(stats.utilization(static_cast<NodeId>(config.num_clients),
                                 options.latency.processing_time));
    metrics->quantile("sim.latency").merge(latency_q);
  }
};

EventSimulator::EventSimulator(protocols::ProtocolKind kind,
                               const SystemConfig& config,
                               const SimOptions& options)
    : impl_(std::make_unique<Impl>(kind, config, options)) {}

EventSimulator::~EventSimulator() = default;

void EventSimulator::set_observer(MessageObserver observer) {
  if (observer) {
    impl_->observer_sink = std::make_unique<ObserverSink>(std::move(observer));
  } else {
    impl_->observer_sink.reset();
  }
  impl_->rewire_sinks();
}

void EventSimulator::set_sink(obs::EventSink* sink) {
  impl_->external_sink = sink;
  impl_->rewire_sinks();
}

void EventSimulator::set_metrics(obs::MetricsRegistry* metrics) {
  impl_->metrics = metrics;
}

void EventSimulator::set_coherence_tap(CoherenceTap* tap) {
  impl_->tap = tap;
}

SimStats EventSimulator::run(WorkloadDriver& driver) {
  return impl_->run(driver);
}

const char* EventSimulator::state_name(NodeId node, ObjectId object) const {
  DRSM_CHECK(node < impl_->num_nodes, "node out of range");
  DRSM_CHECK(object < impl_->num_objects, "object out of range");
  return impl_->machines[node * impl_->num_objects + object]->state_name();
}

}  // namespace drsm::sim
