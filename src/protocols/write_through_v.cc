// Distributed Write-Through-V protocol.
//
// The "V" variant keeps the writer's copy VALID: the client's write updates
// both the sequencer's master copy and its own copy (Appendix A, Fig. 9).
// To apply its local update in the globally sequenced order, the write runs
// in two phases:
//   1. the client sends a bare W-PER token and blocks (cost 1);
//   2. the sequencer reserves the next sequence slot and answers with a
//      W-GNT token (cost 1);
//   3. the client transfers the write parameters (cost P+1) and applies the
//      write locally; the sequencer applies them and invalidates the other
//      N-1 clients (cost N-1).
// Total client-write cost: P+N+2 — which yields the ideal-workload cost
// acc = p(P+N+2) and the WT/WTV crossover line
// p = S/(S+2) - a*sigma*S/(S+2) quoted in Section 5.1.
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

class WtvClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        if (valid_) {
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
        valid_ = true;
        ctx.return_read(value_, version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kWriteReq:
        // Phase 1: ask for a write slot.
        ctx.disable_local_queue();
        pending_value_ = msg.value;
        ctx.send(ctx.home(), make_msg(MsgType::kWritePer, ctx.self(),
                                      msg.token.object,
                                      ParamPresence::kNone));
        break;
      case MsgType::kWriteGnt:
        // Phase 2: the grant carries the reserved sequence number; transfer
        // the parameters and apply locally.
        value_ = pending_value_;
        version_ = msg.version;
        valid_ = true;
        ctx.commit_write(version_, value_);
        ctx.send(ctx.home(),
                 make_msg(MsgType::kWriteData, ctx.self(), msg.token.object,
                          ParamPresence::kWriteParams, pending_value_,
                          msg.version));
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kInval:
        valid_ = false;
        break;
      case MsgType::kEject:
        valid_ = false;
        ctx.complete_op();
        break;
      case MsgType::kSyncReq:
        ctx.disable_local_queue();
        ctx.send(ctx.home(), make_msg(MsgType::kSyncReq, ctx.self(),
                                      msg.token.object,
                                      ParamPresence::kNone));
        break;
      case MsgType::kSyncAck:
        ctx.complete_op();
        ctx.enable_local_queue();
        break;
      default:
        DRSM_CHECK(false, "WTV client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WtvClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(valid_ ? 1 : 0);
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    valid_ = detail::take_u8(p, end) != 0;
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(valid_ ? 1 : 0);
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    valid_ = detail::take_u8(p, end) != 0;
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    return true;
  }

  const char* state_name() const override {
    return valid_ ? "VALID" : "INVALID";
  }

 private:
  bool valid_ = false;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
};

class WtvSequencer final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    // While a write grant is outstanding the sequencer defers all other
    // distributed requests; this keeps the grant's reserved sequence slot
    // adjacent to the parameter transfer.
    if (granting_ && msg.token.type != MsgType::kWriteData) {
      deferred_.push_back(msg);
      return;
    }
    switch (msg.token.type) {
      case MsgType::kReadReq:
        ctx.return_read(value_, version_);
        break;
      case MsgType::kWriteReq:
        value_ = msg.value;
        version_ = ctx.next_version();
        ctx.commit_write(version_, value_);
        ctx.send_except({ctx.home()},
                        make_msg(MsgType::kInval, ctx.self(),
                                 msg.token.object, ParamPresence::kNone));
        ctx.complete_write(version_);
        break;
      case MsgType::kReadPer:
        ctx.send(msg.token.initiator,
                 make_msg(MsgType::kReadGnt, msg.token.initiator,
                          msg.token.object, ParamPresence::kUserInfo, value_,
                          version_));
        break;
      case MsgType::kWritePer:
        granting_ = true;
        ctx.send(msg.token.initiator,
                 make_msg(MsgType::kWriteGnt, msg.token.initiator,
                          msg.token.object, ParamPresence::kNone, 0,
                          ctx.next_version()));
        break;
      case MsgType::kWriteData: {
        value_ = msg.value;
        version_ = msg.version;
        granting_ = false;
        ctx.commit_write(version_, value_);
        ctx.send_except({msg.token.initiator, ctx.home()},
                        make_msg(MsgType::kInval, msg.token.initiator,
                                 msg.token.object, ParamPresence::kNone));
        // Drain requests that arrived during the grant window.
        std::vector<Message> backlog;
        backlog.swap(deferred_);
        for (const Message& pending : backlog) on_message(ctx, pending);
        break;
      }
      case MsgType::kSyncReq:
        ctx.send(msg.token.initiator,
                 make_msg(MsgType::kSyncAck, msg.token.initiator,
                          msg.token.object, ParamPresence::kNone));
        break;
      default:
        DRSM_CHECK(false, "WTV sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WtvSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    DRSM_CHECK(quiescent(), "WTV sequencer encoded while granting");
    out.push_back(1);
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    detail::take_u8(p, end);
    granting_ = false;
    deferred_.clear();
    return true;
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                   std::size_t n) const override {
    out.push_back(1);
    out.push_back(granting_ ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_token(out, msg, map, n);
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    out.push_back(granting_ ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(deferred_.size()));
    for (const Message& msg : deferred_) detail::encode_message(out, msg);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    granting_ = detail::take_u8(p, end) != 0;
    deferred_.clear();
    const std::size_t count = detail::take_u8(p, end);
    for (std::size_t i = 0; i < count; ++i)
      deferred_.push_back(detail::decode_message(p, end));
    return true;
  }

  bool quiescent() const override { return !granting_ && deferred_.empty(); }

  const char* state_name() const override { return "VALID"; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  bool granting_ = false;
  std::vector<Message> deferred_;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_write_through_v(
    NodeId node, std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<WtvSequencer>();
  return std::make_unique<WtvClient>();
}

}  // namespace drsm::protocols
