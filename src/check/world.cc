#include "check/world.h"

#include <algorithm>
#include <cstring>

#include "protocols/detail.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/text.h"

namespace drsm::check {
namespace {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

namespace pdetail = protocols::detail;

/// True when `value` is a write that `node` issued.
bool issued_by(const World& w, std::uint64_t value, NodeId node) {
  return value >= 1 && value <= w.issued.size() && w.issued[value - 1] == node;
}

/// MachineContext over a World: sends queue into the channels, completions
/// update the pending bookkeeping, and every oracle-relevant callback is
/// checked on the spot.
class Ctx final : public fsm::MachineContext {
 public:
  Ctx(World& w, NodeId self, std::size_t capacity, StepOutcome& out)
      : w_(w), self_(self), capacity_(capacity), out_(out) {}

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override { return w_.num_nodes() - 1; }
  const fsm::CostModel& costs() const override {
    static const fsm::CostModel kCosts;
    return kCosts;
  }

  void send(NodeId dest, Message msg) override {
    if (dest >= w_.num_nodes()) {
      out_.violate("defined-transition",
                   strfmt("node %u sent to out-of-range node %u", self_,
                          dest));
      return;
    }
    msg.sender = self_;
    const std::size_t index = self_ * w_.num_nodes() + dest;
    auto& channel = w_.channels[index];
    if (channel.size() >= capacity_) {
      out_.truncated = true;
      return;
    }
    channel.push_back(msg);
    w_.pushed.push_back(index);
  }

  void send_except(std::initializer_list<NodeId> excluded,
                   Message msg) override {
    for (NodeId node = 0; node < w_.num_nodes(); ++node) {
      bool skip = false;
      for (NodeId ex : excluded) skip = skip || ex == node;
      if (!skip) send(node, msg);
    }
  }

  void return_read(std::uint64_t value, std::uint64_t version) override {
    out_.read_returned = true;
    out_.read_value = value;
    out_.read_version = version;
    if (self_ < num_clients()) {
      if (w_.pending[self_] ==
          static_cast<std::uint8_t>(OpKind::kRead) + 1) {
        w_.pending[self_] = 0;
      } else {
        out_.violate("defined-transition",
                     strfmt("node %u returned read data with no read "
                            "pending",
                            self_));
      }
    }
    check_read(value, version);
  }

  void complete_write(std::uint64_t version) override {
    (void)version;
    complete(OpKind::kWrite);
  }

  void complete_op() override {
    if (self_ < num_clients() && w_.pending[self_] != 0)
      w_.pending[self_] = 0;
  }

  void disable_local_queue() override { w_.disabled[self_] = 1; }
  void enable_local_queue() override { w_.disabled[self_] = 0; }

  std::uint64_t next_version() override {
    w_.commit_log.push_back(0);  // the new version starts unbound
    return ++w_.version_counter;
  }

  void commit_write(std::uint64_t version, std::uint64_t value) override {
    if (version == 0 || version > w_.version_counter) {
      out_.violate("serialization",
                   strfmt("node %u committed version %llu outside the "
                          "drawn sequence (counter %llu)",
                          self_, static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(
                              w_.version_counter)));
      return;
    }
    if (value == 0 || value > w_.issued.size()) {
      out_.violate("serialization",
                   strfmt("version %llu committed value %llu that no "
                          "client issued",
                          static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(value)));
      return;
    }
    std::uint64_t& bound = w_.commit_log[version - 1];
    if (bound != 0 && bound != value) {
      out_.violate("serialization",
                   strfmt("version %llu rebound: value %llu then %llu",
                          static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(bound),
                          static_cast<unsigned long long>(value)));
      return;
    }
    bound = value;
    if (version > w_.latest_version) {
      w_.latest_version = version;
      w_.latest_value = value;
    }
  }

 private:
  void complete(OpKind op) {
    if (self_ >= num_clients()) return;
    if (w_.pending[self_] == static_cast<std::uint8_t>(op) + 1)
      w_.pending[self_] = 0;
    else
      out_.violate("defined-transition",
                   strfmt("node %u completed a %s with no such operation "
                          "pending",
                          self_, fsm::to_string(op)));
  }

  /// The kConcurrent oracle rules (see check/oracle.h): a read may be
  /// stale mid-flight, but must return a serialized (version, value) pair
  /// — or the node's own issued write — and per-node versions never go
  /// backwards.
  void check_read(std::uint64_t value, std::uint64_t version) {
    const bool own_write = issued_by(w_, value, self_);
    if (version == 0) {
      if (value != 0 && !own_write)
        out_.violate("read-oracle",
                     strfmt("node %u read unserialized value %llu", self_,
                            static_cast<unsigned long long>(value)));
    } else {
      const std::uint64_t bound = version <= w_.commit_log.size()
                                      ? w_.commit_log[version - 1]
                                      : 0;
      if (bound == 0) {
        if (!own_write)
          out_.violate("read-oracle",
                       strfmt("node %u read never-serialized version %llu",
                              self_,
                              static_cast<unsigned long long>(version)));
      } else if (bound != value && !own_write) {
        out_.violate("read-oracle",
                     strfmt("node %u read (value %llu, version %llu) but "
                            "that version serialized value %llu",
                            self_, static_cast<unsigned long long>(value),
                            static_cast<unsigned long long>(version),
                            static_cast<unsigned long long>(bound)));
      }
    }
    std::uint64_t& last = w_.last_read_version[self_];
    if (version < last && !own_write)
      out_.violate("read-oracle",
                   strfmt("node %u read version %llu after version %llu",
                          self_, static_cast<unsigned long long>(version),
                          static_cast<unsigned long long>(last)));
    if (version > last) last = version;
  }

  World& w_;
  NodeId self_;
  std::size_t capacity_;
  StepOutcome& out_;
};

Message make_request(NodeId client, OpKind op, std::uint64_t value) {
  Message request;
  switch (op) {
    case OpKind::kRead: request.token.type = MsgType::kReadReq; break;
    case OpKind::kWrite: request.token.type = MsgType::kWriteReq; break;
    case OpKind::kEject: request.token.type = MsgType::kEject; break;
    case OpKind::kSync: request.token.type = MsgType::kSyncReq; break;
  }
  request.token.initiator = client;
  request.token.object = 0;
  request.token.queue = QueueKind::kLocal;
  request.token.params = op == OpKind::kWrite ? ParamPresence::kWriteParams
                                              : ParamPresence::kReadParams;
  request.value = value;
  request.sender = client;
  return request;
}

void run_machine(World& w, NodeId node, const Message& msg,
                 std::size_t capacity, StepOutcome& out) {
  w.stepped = node;
  w.pushed.clear();
  Ctx ctx(w, node, capacity, out);
  try {
    w.machines[node]->on_message(ctx, msg);
  } catch (const drsm::Error& error) {
    // A DRSM_CHECK firing inside a machine is the protocol saying "no
    // transition defined for this (state, token) pair".
    out.violate("defined-transition", error.what());
  }
}

/// MachineContext for the POR purity dry run: any callback at all marks
/// the delivery impure.  next_version reports what the real run would
/// draw but still disqualifies (it advances global state).
class PurityCtx final : public fsm::MachineContext {
 public:
  PurityCtx(NodeId self, std::size_t num_clients,
            std::uint64_t version_counter)
      : self_(self), num_clients_(num_clients), counter_(version_counter) {}

  bool impure() const { return impure_; }

  NodeId self() const override { return self_; }
  std::size_t num_clients() const override { return num_clients_; }
  const fsm::CostModel& costs() const override {
    static const fsm::CostModel kCosts;
    return kCosts;
  }
  void send(NodeId, Message) override { impure_ = true; }
  void send_except(std::initializer_list<NodeId>, Message) override {
    impure_ = true;
  }
  void return_read(std::uint64_t, std::uint64_t) override { impure_ = true; }
  void complete_write(std::uint64_t) override { impure_ = true; }
  void complete_op() override { impure_ = true; }
  void disable_local_queue() override { impure_ = true; }
  void enable_local_queue() override { impure_ = true; }
  std::uint64_t next_version() override {
    impure_ = true;
    return counter_ + 1;
  }
  void commit_write(std::uint64_t, std::uint64_t) override {
    impure_ = true;
  }

 private:
  NodeId self_;
  std::size_t num_clients_;
  std::uint64_t counter_;
  bool impure_ = false;
};

}  // namespace

World World::clone() const {
  World w;
  static_cast<Ledger&>(w) = *this;
  w.machines.reserve(machines.size());
  for (const auto& m : machines) w.machines.push_back(m->clone());
  w.channels = channels;
  return w;
}

World make_initial_world(const CheckConfig& cfg) {
  const std::size_t nodes = cfg.num_clients + 1;
  World init;
  init.machines.reserve(nodes);
  for (NodeId node = 0; node < nodes; ++node)
    init.machines.push_back(
        cfg.machine_factory
            ? cfg.machine_factory(node)
            : protocols::make_machine(cfg.protocol, node, cfg.num_clients));
  init.channels.resize(nodes * nodes);
  init.reads_left.assign(cfg.num_clients,
                         static_cast<std::uint8_t>(cfg.reads_per_client));
  init.writes_left.assign(cfg.num_clients,
                          static_cast<std::uint8_t>(cfg.writes_per_client));
  init.pending.assign(cfg.num_clients, 0);
  init.disabled.assign(nodes, 0);
  init.last_read_version.assign(nodes, 0);
  return init;
}

void apply_issue(World& w, NodeId client, OpKind op, std::size_t capacity,
                 StepOutcome& out, Message& request_out) {
  std::uint64_t value = 0;
  if (op == OpKind::kWrite) {
    value = ++w.issue_counter;
    w.issued.push_back(client);
    --w.writes_left[client];
  } else {
    --w.reads_left[client];
  }
  w.pending[client] = static_cast<std::uint8_t>(op) + 1;
  request_out = make_request(client, op, value);
  w.popped_channel = World::kNoChannel;
  run_machine(w, client, request_out, capacity, out);
}

void apply_deliver(World& w, NodeId src, NodeId dst, std::size_t capacity,
                   StepOutcome& out, Message& msg_out) {
  const std::size_t index = src * w.num_nodes() + dst;
  auto& channel = w.channels[index];
  msg_out = channel.front();
  channel.pop_front();
  w.popped_channel = index;
  w.popped = msg_out;
  run_machine(w, dst, msg_out, capacity, out);
}

void undo_step(World& w, const std::uint8_t* snapshot, const Ledger& ledger) {
  DRSM_CHECK(w.stepped < w.num_nodes(), "undo_step: no step to undo");
  // Pushes went to channel backs, after any pop from a front, so popping
  // them newest first and then restoring the head rebuilds every channel.
  for (auto it = w.pushed.rbegin(); it != w.pushed.rend(); ++it)
    w.channels[*it].pop_back();
  w.pushed.clear();
  if (w.popped_channel != World::kNoChannel) {
    w.channels[w.popped_channel].push_front(w.popped);
    w.popped_channel = World::kNoChannel;
  }
  const std::uint8_t* p = snapshot + w.state_offsets[w.stepped];
  const std::uint8_t* end = snapshot + w.state_offsets[w.stepped + 1];
  const bool restored = w.machines[w.stepped]->decode_state(p, end);
  DRSM_CHECK(restored && p == end,
             "undo_step: the machine cannot restore its state");
  w.stepped = kNoNode;
  static_cast<Ledger&>(w) = ledger;
}

void encode_key(const World& w, std::vector<std::uint8_t>& key,
                const NodeId* map) {
  const std::size_t nodes = w.num_nodes();
  const std::size_t clients = nodes - 1;
  // Extend to a full-node map (home is a fixed point) and invert it, so
  // every section below can be emitted in *new*-id order.
  NodeId full[256];
  NodeId inv[256];
  for (std::size_t n = 0; n < nodes; ++n)
    full[n] = pdetail::map_node(static_cast<NodeId>(n), map, clients);
  for (std::size_t n = 0; n < nodes; ++n) inv[full[n]] = static_cast<NodeId>(n);

  key.clear();
  for (std::size_t j = 0; j < nodes; ++j)
    w.machines[inv[j]]->encode_full(key, map, clients);
  // The channel and bookkeeping sections have sizes known up front, so
  // they are written through one span sized once.
  std::size_t tail = nodes * nodes + 3 * clients + nodes;
  for (const auto& channel : w.channels) tail += 4 * channel.size();
  const std::size_t head = key.size();
  key.resize(head + tail);
  std::uint8_t* out = key.data() + head;
  for (std::size_t new_src = 0; new_src < nodes; ++new_src) {
    for (std::size_t new_dst = 0; new_dst < nodes; ++new_dst) {
      const auto& channel = w.channels[inv[new_src] * nodes + inv[new_dst]];
      *out++ = static_cast<std::uint8_t>(channel.size());
      for (const Message& msg : channel) {
        // sender is implied by the channel (Ctx::send stamps sender =
        // source node), and values/versions/hops never select a
        // transition.
        *out++ = static_cast<std::uint8_t>(msg.token.type);
        *out++ = static_cast<std::uint8_t>(
            pdetail::map_node(msg.token.initiator, map, clients));
        *out++ = static_cast<std::uint8_t>(msg.token.object);
        *out++ = static_cast<std::uint8_t>(msg.token.params);
      }
    }
  }
  for (std::size_t c = 0; c < clients; ++c) {
    const NodeId old = inv[c];
    *out++ = w.pending[old];
    *out++ = w.reads_left[old];
    *out++ = w.writes_left[old];
  }
  for (std::size_t n = 0; n < nodes; ++n) *out++ = w.disabled[inv[n]];
}

std::vector<NodeId> identity_labeling(std::size_t num_clients) {
  std::vector<NodeId> identity(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c)
    identity[c] = static_cast<NodeId>(c);
  return identity;
}

namespace {

/// What a client relabeling cannot change about `client`: its machine's
/// state name, its issue bookkeeping and the token types queued between
/// it and the home node, none of which names a client.
std::uint64_t client_signature(const World& w, NodeId client) {
  const char* name = w.machines[client]->state_name();
  std::uint64_t h = hash_bytes(name, std::strlen(name));
  const std::uint8_t bookkeeping[4] = {
      w.pending[client], w.reads_left[client], w.writes_left[client],
      w.disabled[client]};
  h = hash_bytes(bookkeeping, sizeof bookkeeping, h);
  const std::size_t nodes = w.num_nodes();
  const std::size_t home = nodes - 1;
  for (const std::size_t channel :
       {client * nodes + home, home * nodes + client}) {
    h = hash_combine(h, w.channels[channel].size());
    for (const Message& msg : w.channels[channel])
      h = hash_combine(h, static_cast<std::uint64_t>(msg.token.type));
  }
  return h;
}

}  // namespace

CanonicalHash canonical_hash(const World& w,
                             std::vector<std::uint8_t>& scratch) {
  const std::size_t clients = w.num_clients();
  DRSM_CHECK(clients < 256, "canonical_hash: too many clients");
  // order[j] is the client placed at new id j.  The sort is an insertion
  // sort (stable, no allocation, and N is small): it starts every run of
  // equal signatures in ascending id order, so the identity is the first
  // arrangement whenever it is one at all.
  std::uint64_t sig[256];
  NodeId order[256];
  for (NodeId c = 0; c < clients; ++c) {
    sig[c] = client_signature(w, c);
    NodeId j = c;
    for (; j > 0 && sig[order[j - 1]] > sig[c]; --j) order[j] = order[j - 1];
    order[j] = c;
  }
  bool identity_sorted = true;
  for (NodeId j = 0; j < clients; ++j)
    identity_sorted = identity_sorted && order[j] == j;

  CanonicalHash result;
  std::uint64_t first_hash = 0;
  NodeId map[256];
  for (;;) {
    for (NodeId j = 0; j < clients; ++j) map[order[j]] = j;
    encode_key(w, scratch, map);
    const std::uint64_t h = hash_bytes(scratch.data(), scratch.size());
    if (result.relabelings++ == 0) {
      first_hash = h;
      result.hash = h;
    } else if (h < result.hash) {
      result.hash = h;
    }
    // Next arrangement: an odometer whose digits are the runs of equal
    // signatures.  next_permutation steps one run and, once the run has
    // been through all its orders, returns it to ascending and carries.
    bool stepped = false;
    for (std::size_t begin = 0; begin < clients && !stepped;) {
      std::size_t end = begin + 1;
      while (end < clients && sig[order[end]] == sig[order[begin]]) ++end;
      stepped = std::next_permutation(order + begin, order + end);
      begin = end;
    }
    if (!stepped) break;
  }
  // Unless the identity is itself sorted, the winner is another labeling
  // of the state: a permutation that maps a state to itself preserves
  // every client's signature, so it cannot sort an unsorted labeling.
  result.nontrivial = !identity_sorted || result.hash != first_hash;
  return result;
}

void serialize_world(const World& w, std::vector<std::uint8_t>& out) {
  out.clear();
  const std::size_t nodes = w.num_nodes();
  const std::size_t clients = nodes - 1;
  for (const auto& machine : w.machines) machine->encode_state(out);
  for (const auto& channel : w.channels) {
    out.push_back(static_cast<std::uint8_t>(channel.size()));
    for (const Message& msg : channel) pdetail::encode_message(out, msg);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    out.push_back(w.pending[c]);
    out.push_back(w.reads_left[c]);
    out.push_back(w.writes_left[c]);
  }
  for (std::size_t n = 0; n < nodes; ++n) out.push_back(w.disabled[n]);
  for (std::size_t n = 0; n < nodes; ++n)
    pdetail::put_u64(out, w.last_read_version[n]);
  pdetail::put_u64(out, w.version_counter);
  pdetail::put_u64(out, w.issue_counter);
  pdetail::put_u64(out, w.latest_version);
  pdetail::put_u64(out, w.latest_value);
  // The bound (version, value) pairs, then the (value, writer) pairs, each
  // in ascending order.
  const auto bound = static_cast<std::uint32_t>(
      w.commit_log.size() -
      std::count(w.commit_log.begin(), w.commit_log.end(), 0));
  pdetail::put_u32(out, bound);
  for (std::size_t i = 0; i < w.commit_log.size(); ++i) {
    if (w.commit_log[i] == 0) continue;
    pdetail::put_u64(out, i + 1);
    pdetail::put_u64(out, w.commit_log[i]);
  }
  pdetail::put_u32(out, static_cast<std::uint32_t>(w.issued.size()));
  for (std::size_t i = 0; i < w.issued.size(); ++i) {
    pdetail::put_u64(out, i + 1);
    pdetail::put_u32(out, w.issued[i]);
  }
}

bool deserialize_world(const CheckConfig& cfg, const std::uint8_t* p,
                       const std::uint8_t* end, World& out) {
  if (out.num_nodes() != cfg.num_clients + 1) out = make_initial_world(cfg);
  const std::size_t nodes = out.num_nodes();
  const std::size_t clients = nodes - 1;
  const std::uint8_t* const begin = p;
  out.state_offsets.resize(nodes + 1);
  for (std::size_t n = 0; n < nodes; ++n) {
    out.state_offsets[n] = static_cast<std::size_t>(p - begin);
    if (!out.machines[n]->decode_state(p, end)) return false;
  }
  out.state_offsets[nodes] = static_cast<std::size_t>(p - begin);
  out.stepped = kNoNode;
  out.pushed.clear();
  out.popped_channel = World::kNoChannel;
  for (auto& channel : out.channels) {
    channel.clear();
    const std::size_t count = pdetail::take_u8(p, end);
    for (std::size_t i = 0; i < count; ++i)
      channel.push_back(pdetail::decode_message(p, end));
  }
  for (std::size_t c = 0; c < clients; ++c) {
    out.pending[c] = pdetail::take_u8(p, end);
    out.reads_left[c] = pdetail::take_u8(p, end);
    out.writes_left[c] = pdetail::take_u8(p, end);
  }
  for (std::size_t n = 0; n < nodes; ++n)
    out.disabled[n] = pdetail::take_u8(p, end);
  for (std::size_t n = 0; n < nodes; ++n)
    out.last_read_version[n] = pdetail::take_u64(p, end);
  out.version_counter = pdetail::take_u64(p, end);
  out.issue_counter = pdetail::take_u64(p, end);
  out.latest_version = pdetail::take_u64(p, end);
  out.latest_value = pdetail::take_u64(p, end);
  out.commit_log.assign(out.version_counter, 0);
  const std::size_t commits = pdetail::take_u32(p, end);
  for (std::size_t i = 0; i < commits; ++i) {
    const std::uint64_t ver = pdetail::take_u64(p, end);
    DRSM_CHECK(ver >= 1 && ver <= out.version_counter,
               "deserialize_world: commit outside the drawn versions");
    out.commit_log[ver - 1] = pdetail::take_u64(p, end);
  }
  out.issued.clear();
  const std::size_t issues = pdetail::take_u32(p, end);
  for (std::size_t i = 0; i < issues; ++i) {
    DRSM_CHECK(pdetail::take_u64(p, end) == i + 1,
               "deserialize_world: issued values are not dense");
    out.issued.push_back(pdetail::take_u32(p, end));
  }
  DRSM_CHECK(p == end, "deserialize_world: trailing bytes");
  return true;
}

bool channels_empty(const World& w) {
  for (const auto& channel : w.channels)
    if (!channel.empty()) return false;
  return true;
}

bool any_pending(const World& w) {
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c)
    if (w.pending[c] != 0) return true;
  return false;
}

bool fully_spent(const World& w) {
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c)
    if (w.reads_left[c] != 0 || w.writes_left[c] != 0) return false;
  return true;
}

const char* check_state(const World& w, const CheckConfig& cfg,
                        std::string& detail) {
  if (cfg.check_exclusivity) {
    NodeId first_owner = kNoNode;
    for (NodeId node = 0; node < w.num_nodes(); ++node) {
      const auto cls = protocols::classify_state(
          cfg.protocol, w.machines[node]->state_name());
      if (cls != protocols::CopyClass::kExclusive) continue;
      if (first_owner == kNoNode) {
        first_owner = node;
      } else {
        detail = strfmt("nodes %u (%s) and %u (%s) both hold exclusive "
                        "copies",
                        first_owner,
                        w.machines[first_owner]->state_name(), node,
                        w.machines[node]->state_name());
        return "exclusivity";
      }
    }
  }
  if (!channels_empty(w)) return nullptr;
  for (std::size_t c = 0; c + 1 < w.num_nodes(); ++c) {
    if (w.pending[c] != 0) {
      detail = strfmt("client %zu has a pending %s but no message is in "
                      "flight anywhere",
                      c,
                      fsm::to_string(static_cast<fsm::OpKind>(
                          w.pending[c] - 1)));
      return "deadlock";
    }
  }
  for (std::size_t n = 0; n < w.num_nodes(); ++n) {
    if (w.disabled[n] != 0) {
      detail = strfmt("node %zu left its local queue disabled at "
                      "quiescence",
                      n);
      return "stuck-disable";
    }
  }
  if (fully_spent(w)) {
    for (std::size_t i = 0; i < w.commit_log.size(); ++i) {
      if (w.commit_log[i] == 0) {
        detail = strfmt("terminal state: drawn version %zu was never bound "
                        "to a value",
                        i + 1);
        return "serialization";
      }
    }
    // commit_write binds only issued values, so each is an index here.
    std::vector<bool> committed(w.issued.size(), false);
    for (const std::uint64_t value : w.commit_log) committed[value - 1] = true;
    for (std::size_t i = 0; i < w.issued.size(); ++i) {
      if (!committed[i]) {
        detail = strfmt("terminal state: client %u's write (value %zu) "
                        "was never serialized",
                        w.issued[i], i + 1);
        return "serialization";
      }
    }
  }
  return nullptr;
}

const char* probe_read(const World& quiescent, NodeId client,
                       const CheckConfig& cfg, std::string& detail) {
  World w = quiescent.clone();
  return probe_read_in_place(w, client, cfg, detail);
}

const char* probe_read_in_place(World& w, NodeId client,
                                const CheckConfig& cfg, std::string& detail) {
  const std::size_t capacity = cfg.channel_capacity;
  // The quiescent state's latest write, before the probe's steps run.
  const std::uint64_t latest_value = w.latest_value;
  const std::uint64_t latest_version = w.latest_version;
  StepOutcome out;
  Message request;
  ++w.reads_left[client];  // apply_issue debits one read
  apply_issue(w, client, OpKind::kRead, capacity, out, request);
  std::size_t steps = 0;
  while (out.invariant == nullptr) {
    bool delivered = false;
    for (std::size_t src = 0; src < w.num_nodes() && !delivered; ++src) {
      for (std::size_t dst = 0; dst < w.num_nodes() && !delivered; ++dst) {
        if (w.channels[src * w.num_nodes() + dst].empty()) continue;
        Message msg;
        apply_deliver(w, static_cast<NodeId>(src), static_cast<NodeId>(dst),
                      capacity, out, msg);
        delivered = true;
      }
    }
    if (!delivered) break;
    if (++steps > 10000) {
      detail = strfmt("read probe at client %u did not converge within "
                      "10000 deliveries",
                      client);
      return "read-probe";
    }
  }
  if (out.invariant != nullptr) {
    detail = strfmt("read probe at client %u: %s", client,
                    out.detail.c_str());
    return out.invariant;
  }
  if (!out.read_returned) {
    detail = strfmt("read probe at client %u never returned data", client);
    return "read-probe";
  }
  // A read issues no write, so w.issued is still the quiescent state's.
  if (protocols::convergence_level(cfg.protocol) ==
          protocols::ConvergenceLevel::kWriterMayLag &&
      std::find(w.issued.begin(), w.issued.end(), client) != w.issued.end())
    return nullptr;  // lagging writer: consistency was checked per delivery
  const bool own_write = issued_by(w, out.read_value, client);
  if (out.read_value != latest_value) {
    detail = strfmt("read probe at client %u returned value %llu, latest "
                    "serialized write is %llu (version %llu)",
                    client,
                    static_cast<unsigned long long>(out.read_value),
                    static_cast<unsigned long long>(latest_value),
                    static_cast<unsigned long long>(latest_version));
    return "read-probe";
  }
  if (out.read_version != latest_version && !own_write) {
    detail = strfmt("read probe at client %u returned version %llu, "
                    "latest is %llu",
                    client,
                    static_cast<unsigned long long>(out.read_version),
                    static_cast<unsigned long long>(latest_version));
    return "read-probe";
  }
  return nullptr;
}

bool pure_absorption(World& w, NodeId src, NodeId dst,
                     std::vector<std::uint8_t>& scratch) {
  const auto& channel = w.channels[src * w.num_nodes() + dst];
  DRSM_CHECK(!channel.empty(), "pure_absorption on an empty channel");
  const Message& msg = channel.front();
  // Only no-op-prone message kinds are worth the dry run: a redundant
  // invalidation (copy already invalid, or the owner invalidating itself)
  // or a stale/duplicate update.  Everything else always reacts.
  if (msg.token.type != MsgType::kInval &&
      msg.token.type != MsgType::kUpdate)
    return false;
  fsm::ProtocolMachine& machine = *w.machines[dst];
  scratch.clear();
  machine.encode_state(scratch);
  const std::size_t before = scratch.size();
  PurityCtx ctx(dst, w.num_clients(), w.version_counter);
  bool pure = true;
  try {
    machine.on_message(ctx, msg);
  } catch (const drsm::Error&) {
    pure = false;  // defined-transition violation: the real run must see it
  }
  pure = pure && !ctx.impure();
  if (pure) {
    machine.encode_state(scratch);
    pure = std::equal(scratch.begin(), scratch.begin() + before,
                      scratch.begin() + before, scratch.end());
  }
  // Undo the dry run: decode_state overwrites every field it touched.
  const std::uint8_t* p = scratch.data();
  const bool restored = machine.decode_state(p, p + before);
  DRSM_CHECK(restored && p == scratch.data() + before,
             "pure_absorption: the machine cannot restore its state");
  return pure;
}

}  // namespace drsm::check
