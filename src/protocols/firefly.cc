// Distributed Firefly protocol.
//
// Write-update like Dragon, but the client's write blocks until the
// sequencer confirms it has been sequenced: "the client always passes the
// write operation parameters to the sequencer; the sequencer broadcasts the
// write operation parameters to all clients" (Appendix A).  The completion
// token back to the writer costs one extra unit, matching the paper's
// ideal-workload cost acc = p*(N*(P+1) + 1).
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

class FireflyClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        ctx.return_read(value_, version_);
        break;
      case MsgType::kWriteReq:
        ctx.disable_local_queue();
        pending_value_ = msg.value;
        pending_ = true;
        ctx.send(ctx.home(),
                 make_msg(MsgType::kUpdate, ctx.self(), msg.token.object,
                          ParamPresence::kWriteParams, msg.value));
        break;
      case MsgType::kAck:
        value_ = pending_value_;
        version_ = msg.version;
        pending_ = false;
        ctx.commit_write(version_, value_);
        ctx.complete_write(version_);
        ctx.enable_local_queue();
        break;
      case MsgType::kUpdate:
        if (msg.version >= version_) {
          value_ = msg.value;
          version_ = msg.version;
        }
        break;
      default:
        DRSM_CHECK(false, "FF client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<FireflyClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);  // single state SHARED
  }

  void encode_full(std::vector<std::uint8_t>& out, const NodeId*,
                   std::size_t) const override {
    out.push_back(0);
    out.push_back(pending_ ? 1 : 0);
  }

  bool decode(const std::uint8_t*& p, const std::uint8_t* end) override {
    detail::take_u8(p, end);
    pending_ = false;
    return true;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    out.push_back(pending_ ? 1 : 0);
    detail::put_u64(out, value_);
    detail::put_u64(out, version_);
    detail::put_u64(out, pending_value_);
  }

  bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) override {
    pending_ = detail::take_u8(p, end) != 0;
    value_ = detail::take_u64(p, end);
    version_ = detail::take_u64(p, end);
    pending_value_ = detail::take_u64(p, end);
    return true;
  }

  bool quiescent() const override { return !pending_; }

  const char* state_name() const override { return "SHARED"; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t pending_value_ = 0;
  bool pending_ = false;
};

class FireflySequencer final : public ProtocolMachine {
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
                        make_msg(MsgType::kUpdate, ctx.self(),
                                 msg.token.object,
                                 ParamPresence::kWriteParams, value_,
                                 version_));
        ctx.complete_write(version_);
        break;
      case MsgType::kUpdate:
        value_ = msg.value;
        version_ = ctx.next_version();
        ctx.commit_write(version_, value_);
        ctx.send_except({msg.token.initiator, ctx.home()},
                        make_msg(MsgType::kUpdate, msg.token.initiator,
                                 msg.token.object,
                                 ParamPresence::kWriteParams, value_,
                                 version_));
        ctx.send(msg.token.initiator,
                 make_msg(MsgType::kAck, msg.token.initiator,
                          msg.token.object, ParamPresence::kNone, 0,
                          version_));
        break;
      default:
        DRSM_CHECK(false, "FF sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<FireflySequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);  // single state VALID
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

std::unique_ptr<fsm::ProtocolMachine> make_firefly(NodeId node,
                                                   std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<FireflySequencer>();
  return std::make_unique<FireflyClient>();
}

}  // namespace drsm::protocols
