// Distributed Synapse protocol, Appendix A Figs. 7-8.
//
// Client copy states: INVALID (start), VALID, DIRTY; the sequencer's copy is
// VALID or INVALID (INVALID whenever some client holds a DIRTY copy).
//
// Synapse has no cache-to-cache transfer: when a request hits a DIRTY copy
// held elsewhere, the sequencer first recalls it (the dirty client flushes
// and invalidates itself), then NACKs the requester, which retries.  This
// retry round is what makes Synapse strictly more expensive than Illinois
// on dirty misses (Section 5.1).
//
// Writes always acquire a fresh exclusive copy (there is no invalidate-only
// transaction), so a client write that is not already DIRTY costs
//   S+N+1   (W-PER + N-1 W-INV + W-GNT(ui))           with no dirty owner,
//   2S+N+5  (adds RECALL + FLUSH(ui) + NACK + retry)   with a dirty owner.
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

enum class SynState : std::uint8_t { kInvalid, kValid, kDirty };

class SynapseClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (state_ != SynState::kInvalid) {
          ctx.return_read(value_, version_);
        } else {
          ctx.disable_local_queue();
          pending_ = PendingOp::kRead;
          send_request(ctx, msg.token.object);
        }
        break;
      case MsgType::kWriteReq:
        if (state_ == SynState::kDirty) {
          value_ = msg.value;
          version_ = ctx.next_version();
          ctx.commit_write(version_, value_);
          ctx.complete_write(version_);
        } else {
          ctx.disable_local_queue();
          pending_ = PendingOp::kWrite;
          pending_value_ = msg.value;
          send_request(ctx, msg.token.object);
        }
        break;
      case MsgType::kNack:
        // The sequencer recalled a dirty copy on our behalf; retry.
        DRSM_CHECK(pending_ != PendingOp::kNone, "SYN: stray NACK");
        send_request(ctx, msg.token.object);
        break;
      case MsgType::kReadGnt:
        value_ = msg.value;
        version_ = msg.version;
        state_ = SynState::kValid;
        pending_ = PendingOp::kNone;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kWriteGnt:
        value_ = pending_value_;
        version_ = ctx.next_version();
        state_ = SynState::kDirty;
        pending_ = PendingOp::kNone;
        ctx.commit_write(version_, value_);
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        state_ = SynState::kInvalid;
        break;
      case MsgType::kRecallInval:
        DRSM_CHECK(state_ == SynState::kDirty, "SYN: recall of a clean copy");
        ctx.send(ctx.home(),
                 make_msg(MsgType::kFlushData, msg.token.initiator, msg.token.object,
                          ParamPresence::kUserInfo, value_, version_));
        state_ = SynState::kInvalid;
        break;
      default:
        DRSM_CHECK(false, "SYN client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<SynapseClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId*,
                   std::size_t) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    out.push_back(static_cast<std::uint8_t>(pending_));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<SynState>(detail::take_u8(p, end));
    pending_ = PendingOp::kNone;
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    out.push_back(static_cast<std::uint8_t>(pending_));
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<SynState>(detail::take_u8(p, end));
    pending_ = static_cast<PendingOp>(detail::take_u8(p, end));
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    return true;
  }

  bool quiescent() const override { return pending_ == PendingOp::kNone; }

  const char* state_name() const override {
    switch (state_) {
      case SynState::kInvalid: return "INVALID";
      case SynState::kValid: return "VALID";
      case SynState::kDirty: return "DIRTY";
    }
    return "?";
  }

 private:
  enum class PendingOp : std::uint8_t { kNone, kRead, kWrite };

  void send_request(MachineContext& ctx, ObjectId object) {
    const MsgType type = pending_ == PendingOp::kRead ? MsgType::kReadPer
                                                      : MsgType::kWritePer;
    ctx.send(ctx.home(),
             make_msg(type, ctx.self(), object, ParamPresence::kNone));
  }

  SynState state_ = SynState::kInvalid;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  PendingOp pending_ = PendingOp::kNone;
};

class SynapseSequencer final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    if (recalling_ && msg.token.type != MsgType::kFlushData) {
      deferred_.push_back(msg);
      return;
    }
    switch (msg.token.type) {
      case MsgType::kReadReq:  // own application
        if (owner_ == kNoNode) {
          ctx.return_read(value_, version_);
        } else {
          begin_recall(ctx, msg, /*nack_requester=*/false);
          local_op_ = LocalOp::kRead;
        }
        break;
      case MsgType::kWriteReq:  // own application
        if (owner_ == kNoNode) {
          apply_local_write(ctx, msg.value, msg.token.object);
        } else {
          begin_recall(ctx, msg, /*nack_requester=*/false);
          local_op_ = LocalOp::kWrite;
          pending_value_ = msg.value;
        }
        break;
      case MsgType::kReadPer:
        if (owner_ == kNoNode) {
          ctx.send(msg.token.initiator,
                   make_msg(MsgType::kReadGnt, msg.token.initiator,
                            msg.token.object, ParamPresence::kUserInfo,
                            value_, version_));
        } else {
          begin_recall(ctx, msg, /*nack_requester=*/true);
        }
        break;
      case MsgType::kWritePer:
        if (owner_ == kNoNode) {
          ctx.send_except({msg.token.initiator, ctx.home()},
                          make_msg(MsgType::kInval, msg.token.initiator,
                                   msg.token.object, ParamPresence::kNone));
          ctx.send(msg.token.initiator,
                   make_msg(MsgType::kWriteGnt, msg.token.initiator,
                            msg.token.object, ParamPresence::kUserInfo,
                            value_, version_));
          owner_ = msg.token.initiator;
        } else {
          begin_recall(ctx, msg, /*nack_requester=*/true);
        }
        break;
      case MsgType::kFlushData: {
        value_ = msg.value;
        version_ = msg.version;
        owner_ = kNoNode;
        recalling_ = false;
        const Message cause = recall_cause_;
        if (nack_requester_) {
          ctx.send(cause.token.initiator,
                   make_msg(MsgType::kNack, cause.token.initiator,
                            cause.token.object, ParamPresence::kNone));
        } else if (local_op_ == LocalOp::kRead) {
          ctx.return_read(value_, version_);
          local_op_ = LocalOp::kNone;
        } else if (local_op_ == LocalOp::kWrite) {
          apply_local_write(ctx, pending_value_, cause.token.object);
          local_op_ = LocalOp::kNone;
        }
        std::vector<Message> backlog;
        backlog.swap(deferred_);
        for (const Message& queued : backlog) on_message(ctx, queued);
        break;
      }
      default:
        DRSM_CHECK(false, "SYN sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<SynapseSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    DRSM_CHECK(quiescent(), "SYN sequencer encoded mid-recall");
    out.push_back(owner_ == kNoNode ? 0 : 1);
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<std::uint8_t>(
          (owner_ == kNoNode ? 0u : owner_) >> shift));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    const bool has_owner = detail::take_u8(p, end) != 0;
    const NodeId owner = detail::take_u32(p, end);
    owner_ = has_owner ? owner : kNoNode;
    recalling_ = false;
    nack_requester_ = false;
    local_op_ = LocalOp::kNone;
    deferred_.clear();
    return true;
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t n) const override {
    out.push_back(owner_ == kNoNode ? 0 : 1);
    detail::put_u32(out,
                    owner_ == kNoNode ? 0u : detail::map_node(owner_, map, n));
    out.push_back(recalling_ ? 1 : 0);
    out.push_back(nack_requester_ ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(local_op_));
    if (recalling_) detail::encode_token(out, recall_cause_, map, n);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_token(out, msg, map, n);
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
    detail::put_u32(out, owner_);
    out.push_back(recalling_ ? 1 : 0);
    out.push_back(nack_requester_ ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(local_op_));
    detail::encode_message(out, recall_cause_);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_message(out, msg);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    owner_ = detail::take_u32(p, end);
    recalling_ = detail::take_u8(p, end) != 0;
    nack_requester_ = detail::take_u8(p, end) != 0;
    local_op_ = static_cast<LocalOp>(detail::take_u8(p, end));
    recall_cause_ = detail::decode_message(p, end);
    deferred_.clear();
    const std::size_t count = detail::take_u8(p, end);
    for (std::size_t i = 0; i < count; ++i)
      deferred_.push_back(detail::decode_message(p, end));
    return true;
  }

  bool quiescent() const override { return !recalling_ && deferred_.empty(); }

  const char* state_name() const override {
    return owner_ == kNoNode ? "VALID" : "INVALID";
  }

 private:
  enum class LocalOp : std::uint8_t { kNone, kRead, kWrite };

  void apply_local_write(MachineContext& ctx, std::uint64_t value,
                         ObjectId object) {
    value_ = value;
    version_ = ctx.next_version();
    ctx.commit_write(version_, value_);
    ctx.send_except({ctx.home()}, make_msg(MsgType::kInval, ctx.self(),
                                           object, ParamPresence::kNone));
    ctx.complete_write(version_);
  }

  void begin_recall(MachineContext& ctx, const Message& cause,
                    bool nack_requester) {
    recalling_ = true;
    recall_cause_ = cause;
    nack_requester_ = nack_requester;
    ctx.send(owner_, make_msg(MsgType::kRecallInval, cause.token.initiator,
                              cause.token.object, ParamPresence::kNone));
  }

  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  NodeId owner_ = kNoNode;
  bool recalling_ = false;
  bool nack_requester_ = false;
  LocalOp local_op_ = LocalOp::kNone;
  Message recall_cause_;
  std::vector<Message> deferred_;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_synapse(NodeId node,
                                                   std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<SynapseSequencer>();
  return std::make_unique<SynapseClient>();
}

}  // namespace drsm::protocols
