// Distributed Write-Once protocol (Goodman), Appendix A Fig. 10.
//
// Client copy states: INVALID (start), VALID, RESERVED, DIRTY.  A client's
// first write to a VALID copy is written through to the sequencer (copy ->
// RESERVED, sequencer still valid); the second write is executed locally
// (RESERVED -> DIRTY) and from then on the sequencer's copy is stale —
// "the write operation of the kth client changes the state of the
// sequencer's copy from VALID to INVALID only if the kth client's copy is
// in RESERVED or INVALID state" (the write-miss case also hands the client
// an exclusive DIRTY copy).
//
// Because the RESERVED -> DIRTY transition is silent, the sequencer tracks
// the *potential* owner and recalls the copy whenever another node needs
// the data; the owner answers with FLUSH-D (it was dirty, cost S+1) or
// FLUSH-C (still clean, cost 1).
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

enum class WoState : std::uint8_t { kInvalid, kValid, kReserved, kDirty };

class WoClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (state_ != WoState::kInvalid) {
          ctx.return_read(value_, version_);
        } else {
          ctx.disable_local_queue();
          ctx.send(ctx.home(), make_msg(MsgType::kReadPer, ctx.self(),
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        break;
      case MsgType::kReadGnt:
        value_ = msg.value;
        version_ = msg.version;
        state_ = WoState::kValid;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kWriteReq:
        switch (state_) {
          case WoState::kDirty:
            value_ = msg.value;
            version_ = ctx.next_version();
            ctx.commit_write(version_, value_);
            ctx.complete_write(version_);
            break;
          case WoState::kReserved:
            // Second write: local, the sequencer's copy silently goes stale.
            value_ = msg.value;
            version_ = ctx.next_version();
            state_ = WoState::kDirty;
            ctx.commit_write(version_, value_);
            ctx.complete_write(version_);
            break;
          case WoState::kValid:
            // First write: write through; the RESERVED state is entered only
            // when the sequencer acknowledges (a bare W-GNT token), which
            // closes the race between the write-through and an in-flight
            // invalidation — a silent RESERVED->DIRTY transition must never
            // happen on a copy whose exclusivity was revoked.
            ctx.disable_local_queue();
            pending_value_ = msg.value;
            ctx.send(ctx.home(),
                     make_msg(MsgType::kWritePer, ctx.self(),
                              msg.token.object, ParamPresence::kWriteParams,
                              msg.value));
            break;
          case WoState::kInvalid:
            // Write miss: fetch an exclusive copy.
            ctx.disable_local_queue();
            pending_value_ = msg.value;
            ctx.send(ctx.home(), make_msg(MsgType::kWritePer, ctx.self(),
                                          msg.token.object,
                                          ParamPresence::kNone));
            break;
        }
        break;
      case MsgType::kWriteGnt:
        if (msg.token.params == ParamPresence::kUserInfo) {
          // Write-miss grant: exclusive data copy, apply locally -> DIRTY.
          value_ = pending_value_;
          version_ = ctx.next_version();
          state_ = WoState::kDirty;
          ctx.commit_write(version_, value_);
        } else {
          // Write-through acknowledgement: the sequencer applied and
          // sequenced our parameters -> RESERVED (exclusive, clean).
          value_ = pending_value_;
          version_ = msg.version;
          state_ = WoState::kReserved;
        }
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        state_ = WoState::kInvalid;
        break;
      case MsgType::kRecallShared:
      case MsgType::kRecallInval: {
        const bool keep = msg.token.type == MsgType::kRecallShared;
        if (state_ == WoState::kDirty) {
          ctx.send(ctx.home(),
                   make_msg(MsgType::kFlushData, msg.token.initiator,
                            msg.token.object, ParamPresence::kUserInfo,
                            value_, version_));
        } else {
          ctx.send(ctx.home(), make_msg(MsgType::kFlushClean, msg.token.initiator,
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        state_ = keep ? WoState::kValid : WoState::kInvalid;
        break;
      }
      default:
        DRSM_CHECK(false, "WO client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WoClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<WoState>(detail::take_u8(p, end));
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<WoState>(detail::take_u8(p, end));
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    return true;
  }

  const char* state_name() const override {
    switch (state_) {
      case WoState::kInvalid: return "INVALID";
      case WoState::kValid: return "VALID";
      case WoState::kReserved: return "RESERVED";
      case WoState::kDirty: return "DIRTY";
    }
    return "?";
  }

 private:
  WoState state_ = WoState::kInvalid;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
};

class WoSequencer final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    // While a recall is outstanding, new requests wait.
    if (pending_ != Pending::kNone &&
        msg.token.type != MsgType::kFlushData &&
        msg.token.type != MsgType::kFlushClean) {
      deferred_.push_back(msg);
      return;
    }
    switch (msg.token.type) {
      case MsgType::kReadReq:  // own application
        if (owner_ == kNoNode) {
          ctx.return_read(value_, version_);
        } else {
          begin_recall(ctx, Pending::kLocalRead, msg,
                       MsgType::kRecallShared);
        }
        break;
      case MsgType::kWriteReq:  // own application
        if (owner_ == kNoNode) {
          apply_and_invalidate_all(ctx, msg.value, msg.token.object);
          ctx.complete_write(version_);
        } else {
          pending_value_ = msg.value;
          begin_recall(ctx, Pending::kLocalWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kReadPer:
        if (owner_ == kNoNode) {
          grant_read(ctx, msg.token.initiator, msg.token.object);
        } else {
          DRSM_CHECK(owner_ != msg.token.initiator,
                     "WO: owner cannot read-miss");
          begin_recall(ctx, Pending::kServeRead, msg, MsgType::kRecallShared);
        }
        break;
      case MsgType::kWritePer:
        if (msg.token.params == ParamPresence::kWriteParams) {
          // Write-through from a (possibly stale-)VALID copy.  If a race
          // let another node acquire exclusivity in flight, recall it first;
          // the write-through still wins because it is sequenced later.
          if (owner_ == kNoNode) {
            apply_write_through(ctx, msg);
          } else {
            begin_recall(ctx, Pending::kServeWriteThrough, msg,
                         MsgType::kRecallInval);
          }
        } else if (owner_ == kNoNode) {
          grant_write(ctx, msg.token.initiator, msg.token.object);
        } else {
          begin_recall(ctx, Pending::kServeWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kFlushData:
        value_ = msg.value;
        version_ = msg.version;
        finish_recall(ctx);
        break;
      case MsgType::kFlushClean:
        finish_recall(ctx);
        break;
      default:
        DRSM_CHECK(false, "WO sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WoSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    DRSM_CHECK(quiescent(), "WO sequencer encoded mid-recall");
    out.push_back(owner_ == kNoNode ? 0 : 1);
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<std::uint8_t>(
          (owner_ == kNoNode ? 0u : owner_) >> shift));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    const bool has_owner = detail::take_u8(p, end) != 0;
    const NodeId owner = detail::take_u32(p, end);
    owner_ = has_owner ? owner : kNoNode;
    pending_ = Pending::kNone;
    deferred_.clear();
    return true;
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t n) const override {
    out.push_back(owner_ == kNoNode ? 0 : 1);
    detail::put_u32(out,
                    owner_ == kNoNode ? 0u : detail::map_node(owner_, map, n));
    out.push_back(static_cast<std::uint8_t>(pending_));
    if (pending_ != Pending::kNone)
      detail::encode_token(out, pending_msg_, map, n);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_token(out, msg, map, n);
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
    detail::put_u32(out, owner_);
    out.push_back(static_cast<std::uint8_t>(pending_));
    detail::encode_message(out, pending_msg_);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_message(out, msg);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    owner_ = detail::take_u32(p, end);
    pending_ = static_cast<Pending>(detail::take_u8(p, end));
    pending_msg_ = detail::decode_message(p, end);
    deferred_.clear();
    const std::size_t count = detail::take_u8(p, end);
    for (std::size_t i = 0; i < count; ++i)
      deferred_.push_back(detail::decode_message(p, end));
    return true;
  }

  bool quiescent() const override {
    return pending_ == Pending::kNone && deferred_.empty();
  }

  const char* state_name() const override {
    return owner_ == kNoNode ? "VALID" : "INVALID";
  }

 private:
  enum class Pending : std::uint8_t {
    kNone,
    kServeRead,
    kServeWrite,
    kServeWriteThrough,
    kLocalRead,
    kLocalWrite,
  };

  void apply_write_through(MachineContext& ctx, const Message& msg) {
    value_ = msg.value;
    version_ = ctx.next_version();
    ctx.commit_write(version_, value_);
    ctx.send_except({msg.token.initiator, ctx.home()},
                    make_msg(MsgType::kInval, msg.token.initiator,
                             msg.token.object, ParamPresence::kNone));
    ctx.send(msg.token.initiator,
             make_msg(MsgType::kWriteGnt, msg.token.initiator,
                      msg.token.object, ParamPresence::kNone, 0, version_));
    owner_ = msg.token.initiator;
  }

  void grant_read(MachineContext& ctx, NodeId requester, ObjectId object) {
    ctx.send(requester, make_msg(MsgType::kReadGnt, requester, object,
                                 ParamPresence::kUserInfo, value_, version_));
  }

  void grant_write(MachineContext& ctx, NodeId requester, ObjectId object) {
    ctx.send_except({requester, ctx.home()},
                    make_msg(MsgType::kInval, requester, object,
                             ParamPresence::kNone));
    ctx.send(requester, make_msg(MsgType::kWriteGnt, requester, object,
                                 ParamPresence::kUserInfo, value_, version_));
    owner_ = requester;
  }

  void apply_and_invalidate_all(MachineContext& ctx, std::uint64_t value,
                                ObjectId object) {
    value_ = value;
    version_ = ctx.next_version();
    ctx.commit_write(version_, value_);
    ctx.send_except({ctx.home()}, make_msg(MsgType::kInval, ctx.self(),
                                           object, ParamPresence::kNone));
    owner_ = kNoNode;
  }

  void begin_recall(MachineContext& ctx, Pending pending, const Message& msg,
                    MsgType recall) {
    pending_ = pending;
    pending_msg_ = msg;
    ctx.send(owner_, make_msg(recall, msg.token.initiator, msg.token.object,
                              ParamPresence::kNone));
  }

  void finish_recall(MachineContext& ctx) {
    const Pending pending = pending_;
    const Message msg = pending_msg_;
    pending_ = Pending::kNone;
    owner_ = kNoNode;
    switch (pending) {
      case Pending::kServeRead:
        grant_read(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kServeWrite:
        grant_write(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kServeWriteThrough:
        apply_write_through(ctx, msg);
        break;
      case Pending::kLocalRead:
        ctx.return_read(value_, version_);
        break;
      case Pending::kLocalWrite:
        apply_and_invalidate_all(ctx, pending_value_, msg.token.object);
        ctx.complete_write(version_);
        break;
      case Pending::kNone:
        DRSM_CHECK(false, "WO: flush without recall");
    }
    std::vector<Message> backlog;
    backlog.swap(deferred_);
    for (const Message& queued : backlog) on_message(ctx, queued);
  }

  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  NodeId owner_ = kNoNode;
  Pending pending_ = Pending::kNone;
  Message pending_msg_;
  std::vector<Message> deferred_;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_write_once(
    NodeId node, std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<WoSequencer>();
  return std::make_unique<WoClient>();
}

}  // namespace drsm::protocols
