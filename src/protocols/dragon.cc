// Distributed Dragon protocol, Appendix A Fig. 11.
//
// Write-update: every copy is always readable, and a write broadcasts the
// write parameters to every other node.  The client's copy has the single
// state SHARED-CLEAN, the sequencer's SHARED-DIRTY.  A client write sends
// the parameters to the sequencer (P+1), which re-broadcasts them to the
// other N-1 clients ((N-1)(P+1)): total N(P+1) per write, matching the
// paper's ideal-workload cost acc = p*N*(P+1).  Reads never communicate.
#include "protocols/detail.h"

#include "support/error.h"

namespace drsm::protocols {
namespace {

using namespace drsm::fsm;
using detail::make_msg;

class DragonClient final : public ProtocolMachine {
 public:
  void on_message(MachineContext& ctx, const Message& msg) override {
    switch (msg.token.type) {
      case MsgType::kReadReq:
        ctx.return_read(value_, version_);
        break;
      case MsgType::kWriteReq:
        // Apply optimistically; the sequencer serializes and re-broadcasts.
        value_ = msg.value;
        ctx.send(ctx.home(),
                 make_msg(MsgType::kUpdate, ctx.self(), msg.token.object,
                          ParamPresence::kWriteParams, msg.value));
        ctx.complete_write(0);
        break;
      case MsgType::kUpdate:
        if (msg.version >= version_) {
          value_ = msg.value;
          version_ = msg.version;
        }
        break;
      default:
        DRSM_CHECK(false, "DRG client: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<DragonClient>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);  // single state SHARED-CLEAN
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

  const char* state_name() const override { return "SHARED-CLEAN"; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
};

class DragonSequencer final : public ProtocolMachine {
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
        // A client's write: sequence it and propagate to everyone else.
        value_ = msg.value;
        version_ = ctx.next_version();
        ctx.commit_write(version_, value_);
        ctx.send_except({msg.token.initiator, ctx.home()},
                        make_msg(MsgType::kUpdate, msg.token.initiator,
                                 msg.token.object,
                                 ParamPresence::kWriteParams, value_,
                                 version_));
        break;
      default:
        DRSM_CHECK(false, "DRG sequencer: unexpected message " +
                              msg.debug_string());
    }
  }

  std::unique_ptr<ProtocolMachine> clone() const override {
    return std::make_unique<DragonSequencer>(*this);
  }

  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);  // single state SHARED-DIRTY
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

  const char* state_name() const override { return "SHARED-DIRTY"; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace

std::unique_ptr<fsm::ProtocolMachine> make_dragon(NodeId node,
                                                  std::size_t num_clients) {
  if (node == static_cast<NodeId>(num_clients))
    return std::make_unique<DragonSequencer>();
  return std::make_unique<DragonClient>();
}

}  // namespace drsm::protocols
