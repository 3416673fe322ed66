// Distributed Illinois protocol.
//
// Same client state diagram as Synapse (INVALID, VALID, DIRTY) but the
// sequencer "updates all the time the address of the client which has the
// only valid copy" (Appendix A): on a miss that hits a DIRTY copy held
// elsewhere it recalls the copy and serves the requester directly — no NACK
// and no retry round, which is why Illinois is strictly cheaper than
// Synapse.  Additionally, a write to a copy that is still VALID needs no
// data transfer: the sequencer invalidates the other sharers and answers
// with a bare W-GNT token (cost N+1).
//
// The sequencer keeps a per-client valid bit (set on grant, cleared on
// invalidation).  It is authoritative because the sequencer itself
// serializes all grants and invalidations, and it lets a write request be
// answered with or without data depending on whether the requester's copy
// survived the races in flight.
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

enum class IllState : std::uint8_t { kInvalid, kValid, kDirty };

class IllinoisClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (state_ != IllState::kInvalid) {
          ctx.return_read(value_, version_);
        } else {
          ctx.disable_local_queue();
          ctx.send(ctx.home(), make_msg(MsgType::kReadPer, ctx.self(),
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        break;
      case MsgType::kWriteReq:
        if (state_ == IllState::kDirty) {
          value_ = msg.value;
          version_ = ctx.next_version();
          ctx.commit_write(version_, value_);
          ctx.complete_write(version_);
        } else {
          ctx.disable_local_queue();
          pending_value_ = msg.value;
          ctx.send(ctx.home(), make_msg(MsgType::kWritePer, ctx.self(),
                                        msg.token.object,
                                        ParamPresence::kNone));
        }
        break;
      case MsgType::kReadGnt:
        value_ = msg.value;
        version_ = msg.version;
        state_ = IllState::kValid;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kWriteGnt:
        // With user info: full exclusive fetch.  Bare token: our VALID copy
        // is still current, upgrade in place.
        if (msg.token.params == ParamPresence::kUserInfo) {
          value_ = msg.value;
          version_ = msg.version;
        }
        value_ = pending_value_;
        version_ = ctx.next_version();
        state_ = IllState::kDirty;
        ctx.commit_write(version_, value_);
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        state_ = IllState::kInvalid;
        break;
      case MsgType::kRecallShared:
        DRSM_CHECK(state_ == IllState::kDirty, "ILL: recall of a clean copy");
        ctx.send(ctx.home(),
                 make_msg(MsgType::kFlushData, msg.token.initiator, msg.token.object,
                          ParamPresence::kUserInfo, value_, version_));
        state_ = IllState::kValid;
        break;
      case MsgType::kRecallInval:
        DRSM_CHECK(state_ == IllState::kDirty, "ILL: recall of a clean copy");
        ctx.send(ctx.home(),
                 make_msg(MsgType::kFlushData, msg.token.initiator, msg.token.object,
                          ParamPresence::kUserInfo, value_, version_));
        state_ = IllState::kInvalid;
        break;
      default:
        DRSM_CHECK(false, "ILL client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<IllinoisClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<IllState>(detail::take_u8(p, end));
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<IllState>(detail::take_u8(p, end));
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    return true;
  }

  const char* state_name() const override {
    switch (state_) {
      case IllState::kInvalid: return "INVALID";
      case IllState::kValid: return "VALID";
      case IllState::kDirty: return "DIRTY";
    }
    return "?";
  }

 private:
  IllState state_ = IllState::kInvalid;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
};

class IllinoisSequencer final : public ProtocolMachine {
 public:
  explicit IllinoisSequencer(std::size_t num_clients)
      : valid_(num_clients, false) {}

  void on_message(MachineContext& ctx, const Message& msg) override {
    if (pending_ != Pending::kNone && msg.token.type != MsgType::kFlushData) {
      deferred_.push_back(msg);
      return;
    }
    switch (msg.token.type) {
      case MsgType::kReadReq:  // own application
        if (owner_ == kNoNode) {
          ctx.return_read(value_, version_);
        } else {
          begin_recall(ctx, Pending::kLocalRead, msg, MsgType::kRecallShared);
        }
        break;
      case MsgType::kWriteReq:  // own application
        if (owner_ == kNoNode) {
          apply_local_write(ctx, msg.value, msg.token.object);
        } else {
          pending_value_ = msg.value;
          begin_recall(ctx, Pending::kLocalWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kReadPer:
        if (owner_ == kNoNode) {
          grant_read(ctx, msg.token.initiator, msg.token.object);
        } else {
          begin_recall(ctx, Pending::kServeRead, msg, MsgType::kRecallShared);
        }
        break;
      case MsgType::kWritePer:
        if (owner_ == kNoNode) {
          grant_write(ctx, msg.token.initiator, msg.token.object);
        } else {
          begin_recall(ctx, Pending::kServeWrite, msg, MsgType::kRecallInval);
        }
        break;
      case MsgType::kFlushData: {
        value_ = msg.value;
        version_ = msg.version;
        // RecallShared leaves the old owner with a VALID copy.
        if (recall_kept_copy_) valid_[owner_] = true;
        owner_ = kNoNode;
        finish_recall(ctx);
        break;
      }
      default:
        DRSM_CHECK(false, "ILL sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<IllinoisSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    DRSM_CHECK(quiescent(), "ILL sequencer encoded mid-recall");
    out.push_back(owner_ == kNoNode ? 0 : 1);
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<std::uint8_t>(
          (owner_ == kNoNode ? 0u : owner_) >> shift));
    // Valid bitset, packed.
    std::uint8_t acc = 0;
    int bits = 0;
    for (std::size_t i = 0; i < valid_.size(); ++i) {
      acc = static_cast<std::uint8_t>(acc | ((valid_[i] ? 1 : 0) << bits));
      if (++bits == 8) {
        out.push_back(acc);
        acc = 0;
        bits = 0;
      }
    }
    if (bits != 0) out.push_back(acc);
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    const bool has_owner = detail::take_u8(p, end) != 0;
    const NodeId owner = detail::take_u32(p, end);
    owner_ = has_owner ? owner : kNoNode;
    for (std::size_t i = 0; i < valid_.size(); i += 8) {
      const std::uint8_t acc = detail::take_u8(p, end);
      for (std::size_t bit = 0; bit < 8 && i + bit < valid_.size(); ++bit)
        valid_[i + bit] = ((acc >> bit) & 1) != 0;
    }
    pending_ = Pending::kNone;
    recall_kept_copy_ = false;
    deferred_.clear();
    return true;
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t n) const override {
    out.push_back(owner_ == kNoNode ? 0 : 1);
    detail::put_u32(out,
                    owner_ == kNoNode ? 0u : detail::map_node(owner_, map, n));
    // The per-client valid bitset indexes clients by id, so the bits
    // themselves move under the relabeling: new bit map[i] = old bit i,
    // packed eight to a byte as encode() packs them.
    const std::size_t base = out.size();
    out.resize(base + (valid_.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < valid_.size(); ++i) {
      if (!valid_[i]) continue;
      const NodeId j = detail::map_node(static_cast<NodeId>(i), map, n);
      out[base + j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
    }
    out.push_back(static_cast<std::uint8_t>(pending_));
    out.push_back(recall_kept_copy_ ? 1 : 0);
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
    out.push_back(static_cast<std::uint8_t>(valid_.size()));
    for (std::size_t i = 0; i < valid_.size(); ++i)
      out.push_back(valid_[i] ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(pending_));
    out.push_back(recall_kept_copy_ ? 1 : 0);
    detail::encode_message(out, pending_msg_);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_message(out, msg);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    owner_ = detail::take_u32(p, end);
    valid_.assign(detail::take_u8(p, end), false);
    for (std::size_t i = 0; i < valid_.size(); ++i)
      valid_[i] = detail::take_u8(p, end) != 0;
    pending_ = static_cast<Pending>(detail::take_u8(p, end));
    recall_kept_copy_ = detail::take_u8(p, end) != 0;
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
    kLocalRead,
    kLocalWrite,
  };

  void grant_read(MachineContext& ctx, NodeId requester, ObjectId object) {
    ctx.send(requester, make_msg(MsgType::kReadGnt, requester, object,
                                 ParamPresence::kUserInfo, value_, version_));
    valid_[requester] = true;
  }

  void grant_write(MachineContext& ctx, NodeId requester, ObjectId object) {
    const bool requester_valid = valid_[requester];
    for (std::size_t i = 0; i < valid_.size(); ++i) valid_[i] = false;
    ctx.send_except({requester, ctx.home()},
                    make_msg(MsgType::kInval, requester, object,
                             ParamPresence::kNone));
    // A still-valid copy upgrades with a bare token; otherwise ship data.
    ctx.send(requester,
             make_msg(MsgType::kWriteGnt, requester, object,
                      requester_valid ? ParamPresence::kNone
                                      : ParamPresence::kUserInfo,
                      value_, version_));
    owner_ = requester;
  }

  void apply_local_write(MachineContext& ctx, std::uint64_t value,
                         ObjectId object) {
    value_ = value;
    version_ = ctx.next_version();
    ctx.commit_write(version_, value_);
    for (std::size_t i = 0; i < valid_.size(); ++i) valid_[i] = false;
    ctx.send_except({ctx.home()}, make_msg(MsgType::kInval, ctx.self(),
                                           object, ParamPresence::kNone));
    ctx.complete_write(version_);
  }

  void begin_recall(MachineContext& ctx, Pending pending, const Message& msg,
                    MsgType recall) {
    pending_ = pending;
    pending_msg_ = msg;
    recall_kept_copy_ = recall == MsgType::kRecallShared;
    ctx.send(owner_, make_msg(recall, msg.token.initiator, msg.token.object,
                              ParamPresence::kNone));
  }

  void finish_recall(MachineContext& ctx) {
    const Pending pending = pending_;
    const Message msg = pending_msg_;
    pending_ = Pending::kNone;
    switch (pending) {
      case Pending::kServeRead:
        grant_read(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kServeWrite:
        grant_write(ctx, msg.token.initiator, msg.token.object);
        break;
      case Pending::kLocalRead:
        ctx.return_read(value_, version_);
        break;
      case Pending::kLocalWrite:
        apply_local_write(ctx, pending_value_, msg.token.object);
        break;
      case Pending::kNone:
        DRSM_CHECK(false, "ILL: flush without recall");
    }
    std::vector<Message> backlog;
    backlog.swap(deferred_);
    for (const Message& queued : backlog) on_message(ctx, queued);
  }

  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  NodeId owner_ = kNoNode;
  std::vector<bool> valid_;
  Pending pending_ = Pending::kNone;
  bool recall_kept_copy_ = false;
  Message pending_msg_;
  std::vector<Message> deferred_;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_illinois(NodeId node,
                                                    std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<IllinoisSequencer>(num_clients);
  return std::make_unique<IllinoisClient>();
}

}  // namespace drsm::protocols
