// Distributed Berkeley protocol, Appendix A Fig. 12.
//
// Ownership — and with it the sequencer role — migrates: "the role of the
// sequencer can be taken by different nodes during protocol execution", and
// in the steady state "an activity center becomes the sequencer", which is
// why Berkeley beats the fixed-sequencer invalidate protocols under read
// disturbance (Section 5.1).
//
// Every node runs the same machine.  Owner states: DIRTY (exclusive) and
// SHARED-DIRTY; non-owner states: VALID and INVALID.  The home node starts
// as the owner in DIRTY.  Each node tracks its belief of the current owner;
// the belief is refreshed by every invalidation broadcast (whose sender is
// by construction the current owner), so after any write the whole system
// agrees on the owner.  Requests that reach a stale owner are forwarded.
//
// Costs: read miss S+2 (R-PER + R-GNT(ui)); owner write in SHARED-DIRTY
// N (invalidate broadcast); write migration N+2 from a VALID copy
// (W-PER + bare OWN-XFER + broadcast) or S+N+2 from INVALID (the transfer
// carries the data).  Reads and writes at a DIRTY owner are free — hence
// acc = 0 for the ideal workload.
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

enum class BerState : std::uint8_t { kInvalid, kValid, kSharedDirty, kDirty };

class BerkeleyNode final : public ProtocolMachine {
 public:
  BerkeleyNode(NodeId self, std::size_t num_clients) {
    const NodeId home = static_cast<NodeId>(num_clients);
    owner_ = home;
    state_ = self == home ? BerState::kDirty : BerState::kInvalid;
  }

  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (state_ != BerState::kInvalid) {
          ctx.return_read(value_, version_);
        } else {
          ctx.disable_local_queue();
          pending_ = PendingOp::kRead;
          ctx.send(owner_, make_msg(MsgType::kReadPer, ctx.self(),
                                    msg.token.object, ParamPresence::kNone));
        }
        break;
      case MsgType::kWriteReq:
        switch (state_) {
          case BerState::kDirty:
            value_ = msg.value;
            version_ = ctx.next_version();
            ctx.commit_write(version_, value_);
            ctx.complete_write(version_);
            break;
          case BerState::kSharedDirty:
            value_ = msg.value;
            version_ = ctx.next_version();
            ctx.commit_write(version_, value_);
            ctx.send_except({ctx.self()},
                            make_msg(MsgType::kInval, ctx.self(),
                                     msg.token.object, ParamPresence::kNone));
            state_ = BerState::kDirty;
            ctx.complete_write(version_);
            break;
          case BerState::kValid:
          case BerState::kInvalid:
            ctx.disable_local_queue();
            pending_ = PendingOp::kWrite;
            pending_value_ = msg.value;
            // kReadParams marks "ship the data with the ownership".
            ctx.send(owner_,
                     make_msg(MsgType::kWritePer, ctx.self(),
                              msg.token.object,
                              state_ == BerState::kInvalid
                                  ? ParamPresence::kReadParams
                                  : ParamPresence::kNone));
            break;
        }
        break;
      case MsgType::kReadPer:
        if (is_owner()) {
          ctx.send(msg.token.initiator,
                   make_msg(MsgType::kReadGnt, msg.token.initiator,
                            msg.token.object, ParamPresence::kUserInfo,
                            value_, version_));
          state_ = BerState::kSharedDirty;
        } else {
          forward(ctx, msg);
        }
        break;
      case MsgType::kWritePer:
        if (is_owner()) {
          // Hand over ownership; ship data if the requester misses or if our
          // exclusive copy means its VALID claim went stale in flight.
          const bool ship_data =
              msg.token.params == ParamPresence::kReadParams ||
              state_ == BerState::kDirty;
          state_ = BerState::kInvalid;
          owner_ = msg.token.initiator;
          ctx.send(msg.token.initiator,
                   make_msg(MsgType::kOwnerXfer, msg.token.initiator,
                            msg.token.object,
                            ship_data ? ParamPresence::kUserInfo
                                      : ParamPresence::kNone,
                            value_, version_));
        } else {
          forward(ctx, msg);
        }
        break;
      case MsgType::kOwnerXfer:
        DRSM_CHECK(pending_ == PendingOp::kWrite, "BER: stray OWN-XFER");
        if (msg.token.params == ParamPresence::kUserInfo) {
          value_ = msg.value;
          version_ = msg.version;
        }
        owner_ = ctx.self();
        value_ = pending_value_;
        version_ = ctx.next_version();
        state_ = BerState::kDirty;
        pending_ = PendingOp::kNone;
        ctx.commit_write(version_, value_);
        ctx.send_except({ctx.self()},
                        make_msg(MsgType::kInval, ctx.self(),
                                 msg.token.object, ParamPresence::kNone));
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kReadGnt:
        pending_ = PendingOp::kNone;
        if (inval_raced_) {
          // An invalidation broadcast crossed this grant in flight: the
          // grantor lost ownership after granting, so the data is already
          // stale.  Return it to the waiting application (the read
          // serializes before the invalidating write) but do not retain
          // the copy, and keep the owner belief the invalidation carried
          // — it is the newer information.
          inval_raced_ = false;
          ctx.return_read(msg.value, msg.version);
          ctx.enable_local_queue();
          break;
        }
        value_ = msg.value;
        version_ = msg.version;
        state_ = BerState::kValid;
        owner_ = msg.sender;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        // Invalidation broadcasts always originate at the (new) owner.
        if (!is_owner()) {
          state_ = BerState::kInvalid;
          owner_ = msg.sender;
          if (pending_ == PendingOp::kRead) inval_raced_ = true;
        }
        break;
      default:
        DRSM_CHECK(false, "BER node: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<BerkeleyNode>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<std::uint8_t>(owner_ >> shift));
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<BerState>(detail::take_u8(p, end));
    owner_ = detail::take_u32(p, end);
    pending_ = PendingOp::kNone;
    inval_raced_ = false;
    return true;
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t n) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    detail::put_u32(out, detail::map_node(owner_, map, n));
    out.push_back(static_cast<std::uint8_t>(pending_));
    out.push_back(inval_raced_ ? 1 : 0);
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(static_cast<std::uint8_t>(state_));
    detail::put_u32(out, owner_);
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
    out.push_back(static_cast<std::uint8_t>(pending_));
    out.push_back(inval_raced_ ? 1 : 0);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    state_ = static_cast<BerState>(detail::take_u8(p, end));
    owner_ = detail::take_u32(p, end);
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    pending_ = static_cast<PendingOp>(detail::take_u8(p, end));
    inval_raced_ = detail::take_u8(p, end) != 0;
    return true;
  }

  bool quiescent() const override { return pending_ == PendingOp::kNone; }

  const char* state_name() const override {
    switch (state_) {
      case BerState::kInvalid: return "INVALID";
      case BerState::kValid: return "VALID";
      case BerState::kSharedDirty: return "SHARED-DIRTY";
      case BerState::kDirty: return "DIRTY";
    }
    return "?";
  }

 private:
  enum class PendingOp : std::uint8_t { kNone, kRead, kWrite };

  bool is_owner() const {
    return state_ == BerState::kDirty || state_ == BerState::kSharedDirty;
  }

  void forward(MachineContext& ctx, const Message& msg) {
    DRSM_CHECK(msg.hops < 64, "BER: forwarding loop");
    Message fwd = msg;
    ++fwd.hops;
    ctx.send(owner_, fwd);
  }

  BerState state_ = BerState::kInvalid;
  NodeId owner_ = kNoNode;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  PendingOp pending_ = PendingOp::kNone;
  bool inval_raced_ = false;  // an inval arrived while a read was pending
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_berkeley(NodeId node,
                                                    std::size_t num_clients) {
  return std::make_unique<BerkeleyNode>(node, num_clients);
}

}  // namespace drsm::protocols
