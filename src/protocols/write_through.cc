// Distributed Write-Through protocol (the paper's worked example,
// Sections 2-4).
//
// Client copy states: INVALID (start), VALID.  The sequencer's copy is
// always VALID and is the master: every write is forwarded to it, which
// applies the write parameters and invalidates every other copy.  The
// writer's own copy is NOT updated (write-through without local allocate),
// which is what makes trace tr2 (read after own write) cost S+2.
//
// Trace communication costs reproduced here (Section 4.1):
//   tr1 client read,  VALID copy ............. 0
//   tr2 client read,  INVALID copy ........... S+2   (R-PER + R-GNT(ui))
//   tr3 client write, VALID copy ............. P+N   (W-PER(w) + N-1 W-INV)
//   tr4 client write, INVALID copy ........... P+N
//   tr5 sequencer read ........................ 0
//   tr6 sequencer write ....................... N     (N W-INV)
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

class WtClient final : public ProtocolMachine {
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
        // Fire-and-forget: the sequencer serializes and applies the write.
        ctx.send(ctx.home(),
                 make_msg(MsgType::kWritePer, ctx.self(), msg.token.object,
                          ParamPresence::kWriteParams, msg.value));
        valid_ = false;
        ctx.complete_write(0);
        break;
      case MsgType::kInval:
        valid_ = false;
        break;
      case MsgType::kEject:
        valid_ = false;
        ctx.complete_op();
        break;
      case MsgType::kSyncReq:
        // Barrier: a round trip through the sequencer flushes the channel.
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
        DRSM_CHECK(false, "WT client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WtClient>(*this);
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
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    valid_ = detail::take_u8(p, end) != 0;
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    return true;
  }

  const char* state_name() const override {
    return valid_ ? "VALID" : "INVALID";
  }

 private:
  bool valid_ = false;
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
};

class WtSequencer final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
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
        value_ = msg.value;
        version_ = ctx.next_version();
        ctx.commit_write(version_, value_);
        ctx.send_except({msg.token.initiator, ctx.home()},
                        make_msg(MsgType::kInval, msg.token.initiator,
                                 msg.token.object, ParamPresence::kNone));
        break;
      case MsgType::kSyncReq:
        ctx.send(msg.token.initiator,
                 make_msg(MsgType::kSyncAck, msg.token.initiator,
                          msg.token.object, ParamPresence::kNone));
        break;
      default:
        DRSM_CHECK(false, "WT sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<WtSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(1);  // always VALID
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    detail::take_u8(p, end);
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    return true;
  }

  const char* state_name() const override { return "VALID"; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_write_through(
    NodeId node, std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<WtSequencer>();
  return std::make_unique<WtClient>();
}

}  // namespace drsm::protocols
