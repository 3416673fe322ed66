#include "dsm/migration.h"

#include <utility>

#include "protocols/detail.h"
#include "support/error.h"

namespace drsm::dsm {
namespace {

using fsm::Message;
using fsm::MsgType;
using fsm::OpKind;
using fsm::ParamPresence;
using fsm::QueueKind;

namespace pdetail = protocols::detail;

/// Control tokens ride the reserved object id 1; the migrated data object
/// is 0.  The types are reused from the existing MsgType set (the dense
/// per-type arrays must not grow), disambiguated by object id + direction:
///   DRAIN        kRecallInval  home -> clients
///   DRAIN-ACK    kFlushClean   client -> home
///   FENCE-START  kSyncReq      home -> clients (and home -> home)
///   FENCE-TOKEN  kSyncReq      client -> peer clients
///   FENCE-DONE   kSyncAck      client -> home
///   SWITCH       kOwnerXfer    home -> clients
///   SWITCH-ACK   kAck          client -> home
///   RELEASE      kSyncAck      home -> clients
/// None of them is kInval/kUpdate, so the POR dry run never touches the
/// control plane.
constexpr ObjectId kCtrlObject = 1;

enum class Phase : std::uint8_t {
  kOld,        // both: pre-migration, inner machine is the old protocol
  kDraining,   // home: awaiting DRAIN-ACKs; client: finishing local op
  kDrained,    // client only: acked, queue held, old inner still live
  kFencing,    // home only: awaiting FENCE-DONEs + self-token
  kFlushing,   // home only: synthetic read in flight through the old inner
  kSwitching,  // home only: new inner live, awaiting SWITCH-ACKs
  kSeeding,    // home only: synthetic re-commit through the new inner
  kSwitched,   // client only: new inner live, awaiting RELEASE
  kDone,       // both: handoff complete, inner machine is the new protocol
};

enum class Synthetic : std::uint8_t { kNone, kFlushRead, kSeedWrite };

Message ctrl(MsgType type, NodeId initiator) {
  Message msg;
  msg.token.type = type;
  msg.token.initiator = initiator;
  msg.token.object = kCtrlObject;
  msg.token.queue = QueueKind::kDistributed;
  msg.token.params = ParamPresence::kNone;
  return msg;
}

Message synthetic_request(OpKind op, NodeId node, std::uint64_t value) {
  Message msg;
  msg.token.type =
      op == OpKind::kRead ? MsgType::kReadReq : MsgType::kWriteReq;
  msg.token.initiator = node;
  msg.token.object = 0;
  msg.token.queue = QueueKind::kLocal;
  msg.token.params = op == OpKind::kWrite ? ParamPresence::kWriteParams
                                          : ParamPresence::kReadParams;
  msg.value = value;
  msg.sender = node;
  return msg;
}

class MigrationMachine final : public fsm::ProtocolMachine {
 public:
  MigrationMachine(const MigrationWorldOptions& opts, NodeId node)
      : opts_(opts),
        node_(node),
        is_home_(node == static_cast<NodeId>(opts.num_clients)),
        inner_(protocols::make_machine(opts.from, node, opts.num_clients)) {}

  void on_message(fsm::MachineContext& ctx, const Message& msg) override {
    if (msg.token.object == kCtrlObject) {
      if (is_home_)
        home_control(ctx, msg);
      else
        client_control(ctx, msg);
    } else {
      deliver_to_inner(ctx, msg);
      if (is_home_ && phase_ == Phase::kOld) {
        if (deliveries_ < opts_.trigger) ++deliveries_;
        if (deliveries_ >= opts_.trigger) begin_drain(ctx);
      }
    }
    post_dispatch(ctx);
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    auto copy = std::make_unique<MigrationMachine>(opts_, node_);
    copy->phase_ = phase_;
    copy->epoch_ = epoch_;
    copy->inner_ = inner_->clone();
    copy->op_pending_ = op_pending_;
    copy->inner_disabled_ = inner_disabled_;
    copy->out_disabled_ = out_disabled_;
    copy->hold_ = hold_;
    copy->deliveries_ = deliveries_;
    copy->drain_acks_ = drain_acks_;
    copy->fence_dones_ = fence_dones_;
    copy->switch_acks_ = switch_acks_;
    copy->tokens_seen_ = tokens_seen_;
    copy->fence_start_seen_ = fence_start_seen_;
    copy->self_token_seen_ = self_token_seen_;
    copy->synthetic_ = synthetic_;
    copy->snoop_value_ = snoop_value_;
    copy->snoop_version_ = snoop_version_;
    return copy;
  }

  /// The behaviour key under the identity labeling (make_migration_machine
  /// admits at most 8 clients).
  void encode(std::vector<std::uint8_t>& out) const override {
    NodeId identity[8];
    for (NodeId c = 0; c < opts_.num_clients; ++c) identity[c] = c;
    encode_full(out, identity, opts_.num_clients);
  }

  /// Behaviour key.  The ack/token bitsets are emitted as *counts*: which
  /// clients have acked is fully determined by the rest of the global
  /// state (a client wrapper's phase says whether it acked, the channels
  /// show acks in flight), so the count is behaviourally sufficient — and
  /// being permutation-invariant it lets symmetry merge states the bitset
  /// would keep apart.  The exact bitsets live in encode_state.  The snoop
  /// pair is data and stays out, except the one bit that selects the
  /// seed-vs-skip branch.
  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t num_clients) const override {
    encode_wrapper(out);  // counts are already permutation-invariant
    inner_->encode_full(out, map, num_clients);
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(phase_));
    out.push_back(epoch_);
    out.push_back(pack_flags());
    out.push_back(static_cast<std::uint8_t>(synthetic_));
    out.push_back(deliveries_);
    pdetail::put_u32(out, drain_acks_);
    pdetail::put_u32(out, fence_dones_);
    pdetail::put_u32(out, switch_acks_);
    pdetail::put_u32(out, tokens_seen_);
    pdetail::put_u64(out, snoop_value_);
    pdetail::put_u64(out, snoop_version_);
    inner_->encode_state(out);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    const protocols::ProtocolKind live = epoch_protocol();
    phase_ = static_cast<Phase>(pdetail::take_u8(p, end));
    epoch_ = pdetail::take_u8(p, end);
    const std::uint8_t flags = pdetail::take_u8(p, end);
    op_pending_ = (flags & 1u) != 0;
    inner_disabled_ = (flags & 2u) != 0;
    out_disabled_ = (flags & 4u) != 0;
    hold_ = (flags & 8u) != 0;
    fence_start_seen_ = (flags & 16u) != 0;
    self_token_seen_ = (flags & 32u) != 0;
    synthetic_ = static_cast<Synthetic>(pdetail::take_u8(p, end));
    deliveries_ = pdetail::take_u8(p, end);
    drain_acks_ = pdetail::take_u32(p, end);
    fence_dones_ = pdetail::take_u32(p, end);
    switch_acks_ = pdetail::take_u32(p, end);
    tokens_seen_ = pdetail::take_u32(p, end);
    snoop_value_ = pdetail::take_u64(p, end);
    snoop_version_ = pdetail::take_u64(p, end);
    flush_captured_ = false;
    seed_done_ = false;
    // The inner machine is reused when the decoded epoch runs the same
    // protocol: its own decode_state overwrites every field.
    if (epoch_protocol() != live)
      inner_ = protocols::make_machine(epoch_protocol(), node_,
                                       opts_.num_clients);
    return inner_->decode_state(p, end);
  }

  bool quiescent() const override {
    return (phase_ == Phase::kOld || phase_ == Phase::kDone) &&
           !op_pending_ && synthetic_ == Synthetic::kNone &&
           inner_->quiescent();
  }

  const char* state_name() const override {
    switch (phase_) {
      case Phase::kOld:
      case Phase::kDone:
        return inner_->state_name();
      case Phase::kDraining: return "MIG-DRAINING";
      case Phase::kDrained: return "MIG-DRAINED";
      case Phase::kFencing: return "MIG-FENCING";
      case Phase::kFlushing: return "MIG-FLUSHING";
      case Phase::kSwitching: return "MIG-SWITCHING";
      case Phase::kSeeding: return "MIG-SEEDING";
      case Phase::kSwitched: return "MIG-SWITCHED";
    }
    DRSM_CHECK(false, "unreachable");
    return "";
  }

 private:
  /// Context handed to the inner machine: protocol traffic passes through
  /// untouched; completions clear the wrapper's op bookkeeping (and
  /// capture the synthetic flush/seed results at the home); queue toggles
  /// are reconciled with the migration hold.  The wrapper never swaps
  /// inner_ while inner code is on the stack — captures only set flags
  /// here, and post_dispatch acts on them after on_message returns.
  class InnerCtx final : public fsm::MachineContext {
   public:
    InnerCtx(MigrationMachine& m, fsm::MachineContext& out)
        : m_(m), out_(out) {}

    NodeId self() const override { return out_.self(); }
    std::size_t num_clients() const override { return out_.num_clients(); }
    const fsm::CostModel& costs() const override { return out_.costs(); }
    void send(NodeId dest, Message msg) override {
      out_.send(dest, std::move(msg));
    }
    void send_except(std::initializer_list<NodeId> excluded,
                     Message msg) override {
      out_.send_except(excluded, std::move(msg));
    }
    void return_read(std::uint64_t value, std::uint64_t version) override {
      if (m_.is_home_ && m_.synthetic_ == Synthetic::kFlushRead) {
        m_.snoop_value_ = value;
        m_.snoop_version_ = version;
        m_.synthetic_ = Synthetic::kNone;
        m_.flush_captured_ = true;
      }
      // Forward even for the synthetic read: at the home the world/oracle
      // side only validates the (value, version) pair against the commit
      // log — a free serialized-read check on the flush itself.
      out_.return_read(value, version);
      if (!m_.is_home_) m_.op_pending_ = false;
    }
    void complete_write(std::uint64_t version) override {
      if (m_.is_home_ && m_.synthetic_ == Synthetic::kSeedWrite) {
        m_.synthetic_ = Synthetic::kNone;
        m_.seed_done_ = true;
      }
      out_.complete_write(version);
      if (!m_.is_home_) m_.op_pending_ = false;
    }
    void complete_op() override {
      out_.complete_op();
      if (!m_.is_home_) m_.op_pending_ = false;
    }
    void disable_local_queue() override {
      m_.inner_disabled_ = true;
      m_.sync_disable(out_);
    }
    void enable_local_queue() override {
      m_.inner_disabled_ = false;
      m_.sync_disable(out_);
    }
    std::uint64_t next_version() override { return out_.next_version(); }
    void commit_write(std::uint64_t version, std::uint64_t value) override {
      out_.commit_write(version, value);
    }

   private:
    MigrationMachine& m_;
    fsm::MachineContext& out_;
  };
  friend class InnerCtx;

  /// The protocol the inner machine runs in the current epoch.
  protocols::ProtocolKind epoch_protocol() const {
    return epoch_ != 0 ? opts_.to : opts_.from;
  }

  std::uint32_t bit(NodeId node) const { return 1u << node; }
  std::uint32_t all_clients() const {
    return (1u << opts_.num_clients) - 1u;
  }

  /// The world's disabled flag is a single bit, so the wrapper owns it
  /// exclusively and reconciles the two reasons to hold the queue (the
  /// inner protocol's own disable, the migration hold) into one idempotent
  /// toggle stream.
  void sync_disable(fsm::MachineContext& out) {
    const bool want = inner_disabled_ || hold_;
    if (want == out_disabled_) return;
    out_disabled_ = want;
    if (want)
      out.disable_local_queue();
    else
      out.enable_local_queue();
  }

  void deliver_to_inner(fsm::MachineContext& ctx, const Message& msg) {
    if (!is_home_ && msg.token.queue == QueueKind::kLocal) {
      DRSM_CHECK(!hold_,
                 "migration: local request delivered while the queue is "
                 "held");
      op_pending_ = true;
    }
    InnerCtx ictx(*this, ctx);
    inner_->on_message(ictx, msg);
  }

  /// Deferred phase advances: anything that must not run while the inner
  /// machine is on the stack (swaps, synthetic injections) is triggered
  /// here, after the dispatch that set the flag returned.
  void post_dispatch(fsm::MachineContext& ctx) {
    if (is_home_) {
      if (flush_captured_) {
        flush_captured_ = false;
        do_switch(ctx);
      }
      if (seed_done_) {
        seed_done_ = false;
        finish(ctx);
      }
    } else if (phase_ == Phase::kDraining && !op_pending_) {
      phase_ = Phase::kDrained;
      ctx.send(ctx.home(), ctrl(MsgType::kFlushClean, node_));
    }
  }

  // -- home side ----------------------------------------------------------

  void begin_drain(fsm::MachineContext& ctx) {
    phase_ = Phase::kDraining;
    for (NodeId c = 0; c < static_cast<NodeId>(opts_.num_clients); ++c)
      ctx.send(c, ctrl(MsgType::kRecallInval, node_));
  }

  void begin_fence(fsm::MachineContext& ctx) {
    phase_ = Phase::kFencing;
    if (opts_.fault == MigrationWorldOptions::Fault::kSkipFence) {
      begin_flush(ctx);
      return;
    }
    for (NodeId c = 0; c < static_cast<NodeId>(opts_.num_clients); ++c)
      ctx.send(c, ctrl(MsgType::kSyncReq, node_));
    ctx.send(node_, ctrl(MsgType::kSyncReq, node_));  // flush home->home
  }

  void begin_flush(fsm::MachineContext& ctx) {
    phase_ = Phase::kFlushing;
    synthetic_ = Synthetic::kFlushRead;
    InnerCtx ictx(*this, ctx);
    inner_->on_message(ictx, synthetic_request(OpKind::kRead, node_, 0));
    // A local hit captures synchronously (flush_captured_), handled by
    // post_dispatch; a recall/forward chain captures on a later delivery.
  }

  void do_switch(fsm::MachineContext& ctx) {
    phase_ = Phase::kSwitching;
    epoch_ = 1;
    inner_ = protocols::make_machine(opts_.to, node_, opts_.num_clients);
    inner_disabled_ = false;  // the flush read completed, so the old inner
    sync_disable(ctx);        // re-enabled; fresh machines start enabled
    for (NodeId c = 0; c < static_cast<NodeId>(opts_.num_clients); ++c)
      ctx.send(c, ctrl(MsgType::kOwnerXfer, node_));
  }

  void begin_seed(fsm::MachineContext& ctx) {
    if (snoop_version_ == 0 ||
        opts_.fault == MigrationWorldOptions::Fault::kNoSeed) {
      finish(ctx);  // nothing was ever written (or the injected bug)
      return;
    }
    phase_ = Phase::kSeeding;
    synthetic_ = Synthetic::kSeedWrite;
    InnerCtx ictx(*this, ctx);
    inner_->on_message(
        ictx, synthetic_request(OpKind::kWrite, node_, snoop_value_));
    // seed_done_ fires synchronously for local-apply home machines, or on
    // the delivery that completes the write; post_dispatch finishes.
  }

  void finish(fsm::MachineContext& ctx) {
    phase_ = Phase::kDone;
    for (NodeId c = 0; c < static_cast<NodeId>(opts_.num_clients); ++c)
      ctx.send(c, ctrl(MsgType::kSyncAck, node_));
  }

  void home_control(fsm::MachineContext& ctx, const Message& msg) {
    const NodeId from = msg.token.initiator;
    switch (msg.token.type) {
      case MsgType::kFlushClean:  // DRAIN-ACK
        DRSM_CHECK(phase_ == Phase::kDraining &&
                       from < opts_.num_clients &&
                       (drain_acks_ & bit(from)) == 0,
                   "migration: unexpected DRAIN-ACK");
        drain_acks_ |= bit(from);
        if (drain_acks_ == all_clients()) begin_fence(ctx);
        break;
      case MsgType::kSyncReq:  // the home's own fence token
        DRSM_CHECK(phase_ == Phase::kFencing && from == node_ &&
                       !self_token_seen_,
                   "migration: unexpected fence self-token");
        self_token_seen_ = true;
        maybe_flush(ctx);
        break;
      case MsgType::kSyncAck:  // FENCE-DONE
        DRSM_CHECK(phase_ == Phase::kFencing &&
                       from < opts_.num_clients &&
                       (fence_dones_ & bit(from)) == 0,
                   "migration: unexpected FENCE-DONE");
        fence_dones_ |= bit(from);
        maybe_flush(ctx);
        break;
      case MsgType::kAck:  // SWITCH-ACK
        DRSM_CHECK(phase_ == Phase::kSwitching &&
                       from < opts_.num_clients &&
                       (switch_acks_ & bit(from)) == 0,
                   "migration: unexpected SWITCH-ACK");
        switch_acks_ |= bit(from);
        if (switch_acks_ == all_clients()) begin_seed(ctx);
        break;
      default:
        DRSM_CHECK(false, "migration: unknown control message at home");
    }
  }

  void maybe_flush(fsm::MachineContext& ctx) {
    if (self_token_seen_ && fence_dones_ == all_clients()) begin_flush(ctx);
  }

  // -- client side --------------------------------------------------------

  void client_control(fsm::MachineContext& ctx, const Message& msg) {
    const NodeId from = msg.token.initiator;
    switch (msg.token.type) {
      case MsgType::kRecallInval:  // DRAIN
        DRSM_CHECK(phase_ == Phase::kOld && from == ctx.home(),
                   "migration: unexpected DRAIN");
        phase_ = Phase::kDraining;
        hold_ = true;
        sync_disable(ctx);
        break;  // post_dispatch acks once the local op (if any) completes
      case MsgType::kSyncReq:
        if (from == ctx.home()) {  // FENCE-START
          DRSM_CHECK(phase_ == Phase::kDrained && !fence_start_seen_,
                     "migration: unexpected FENCE-START");
          fence_start_seen_ = true;
          for (NodeId c = 0; c < static_cast<NodeId>(opts_.num_clients);
               ++c)
            if (c != node_) ctx.send(c, ctrl(MsgType::kSyncReq, node_));
          maybe_fence_done(ctx);
        } else {  // FENCE-TOKEN from a peer
          DRSM_CHECK(phase_ == Phase::kDrained &&
                         from < opts_.num_clients &&
                         (tokens_seen_ & bit(from)) == 0,
                     "migration: unexpected FENCE-TOKEN");
          tokens_seen_ |= bit(from);
          maybe_fence_done(ctx);
        }
        break;
      case MsgType::kOwnerXfer:  // SWITCH
        DRSM_CHECK(phase_ == Phase::kDrained && from == ctx.home(),
                   "migration: unexpected SWITCH");
        phase_ = Phase::kSwitched;
        epoch_ = 1;
        inner_ = protocols::make_machine(opts_.to, node_, opts_.num_clients);
        inner_disabled_ = false;
        sync_disable(ctx);  // hold_ still set: the queue stays disabled
        ctx.send(ctx.home(), ctrl(MsgType::kAck, node_));
        break;
      case MsgType::kSyncAck:  // RELEASE
        DRSM_CHECK(phase_ == Phase::kSwitched && from == ctx.home(),
                   "migration: unexpected RELEASE");
        phase_ = Phase::kDone;
        hold_ = false;
        sync_disable(ctx);
        break;
      default:
        DRSM_CHECK(false, "migration: unknown control message at client");
    }
  }

  void maybe_fence_done(fsm::MachineContext& ctx) {
    const std::uint32_t peers = all_clients() & ~bit(node_);
    if (fence_start_seen_ && (tokens_seen_ & peers) == peers)
      ctx.send(ctx.home(), ctrl(MsgType::kSyncAck, node_));
    // Fires exactly once: FENCE-START and each token arrive once
    // (asserted above), and the condition is monotone.
  }

  // -- encodings ----------------------------------------------------------

  std::uint8_t pack_flags() const {
    return static_cast<std::uint8_t>(
        (op_pending_ ? 1u : 0u) | (inner_disabled_ ? 2u : 0u) |
        (out_disabled_ ? 4u : 0u) | (hold_ ? 8u : 0u) |
        (fence_start_seen_ ? 16u : 0u) | (self_token_seen_ ? 32u : 0u));
  }

  void encode_wrapper(std::vector<std::uint8_t>& out) const {
    out.push_back(static_cast<std::uint8_t>(phase_));
    out.push_back(epoch_);
    out.push_back(pack_flags());
    out.push_back(static_cast<std::uint8_t>(synthetic_));
    out.push_back(deliveries_);
    out.push_back(static_cast<std::uint8_t>(popcount(drain_acks_)));
    out.push_back(static_cast<std::uint8_t>(popcount(fence_dones_)));
    out.push_back(static_cast<std::uint8_t>(popcount(switch_acks_)));
    out.push_back(static_cast<std::uint8_t>(popcount(tokens_seen_)));
    out.push_back(snoop_version_ > 0 ? 1 : 0);  // selects seed vs skip
  }

  static int popcount(std::uint32_t v) {
    int n = 0;
    for (; v != 0; v &= v - 1) ++n;
    return n;
  }

  const MigrationWorldOptions opts_;
  const NodeId node_;
  const bool is_home_;

  Phase phase_ = Phase::kOld;
  std::uint8_t epoch_ = 0;  // 0 = opts_.from, 1 = opts_.to
  std::unique_ptr<fsm::ProtocolMachine> inner_;
  bool op_pending_ = false;      // client: a local app op is in flight
  bool inner_disabled_ = false;  // the inner machine's own queue disable
  bool out_disabled_ = false;    // mirror of the runtime's disabled flag
  bool hold_ = false;            // client: queue held by the migration
  std::uint8_t deliveries_ = 0;  // home: data deliveries, frozen at trigger
  std::uint32_t drain_acks_ = 0;    // home: DRAIN-ACK bitset
  std::uint32_t fence_dones_ = 0;   // home: FENCE-DONE bitset
  std::uint32_t switch_acks_ = 0;   // home: SWITCH-ACK bitset
  std::uint32_t tokens_seen_ = 0;   // client: peer FENCE-TOKEN bitset
  bool fence_start_seen_ = false;   // client
  bool self_token_seen_ = false;    // home
  Synthetic synthetic_ = Synthetic::kNone;
  bool flush_captured_ = false;  // transient within one on_message
  bool seed_done_ = false;       // transient within one on_message
  std::uint64_t snoop_value_ = 0;    // flushed authoritative data
  std::uint64_t snoop_version_ = 0;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_migration_machine(
    const MigrationWorldOptions& options, NodeId node) {
  DRSM_CHECK(options.num_clients >= 1 && options.num_clients <= 8,
             "migration: 1..8 clients (ack bitsets and checker budgets)");
  DRSM_CHECK(options.trigger >= 1 && options.trigger <= 255,
             "migration: trigger must be 1..255");
  DRSM_CHECK(node <= options.num_clients,
             "migration: node out of range");
  return std::make_unique<MigrationMachine>(options, node);
}

check::CheckConfig migration_check_config(
    const MigrationWorldOptions& options) {
  check::CheckConfig cfg;
  cfg.num_clients = options.num_clients;
  cfg.machine_factory = [options](NodeId node) {
    return make_migration_machine(options, node);
  };
  cfg.check_exclusivity = false;  // state names mix two protocols + MIG-*
  using PK = protocols::ProtocolKind;
  cfg.protocol = (options.from == PK::kDragon || options.to == PK::kDragon)
                     ? PK::kDragon
                     : options.from;
  return cfg;
}

}  // namespace drsm::dsm
