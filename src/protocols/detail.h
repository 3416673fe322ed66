// Internal helpers shared by the protocol machine implementations.
#pragma once

#include <memory>

#include "fsm/mealy.h"
#include "support/error.h"

namespace drsm::protocols {

/// Per-protocol factory functions (defined in the respective .cc files).
std::unique_ptr<fsm::ProtocolMachine> make_write_through(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_write_through_v(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_write_once(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_synapse(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_illinois(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_berkeley(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_dragon(
    NodeId node, std::size_t num_clients);
std::unique_ptr<fsm::ProtocolMachine> make_firefly(
    NodeId node, std::size_t num_clients);

namespace detail {

/// Bounds-checked reads for ProtocolMachine::decode implementations —
/// the exact inverses of the byte/word writes the encode() overrides use.
inline std::uint8_t take_u8(const std::uint8_t*& p, const std::uint8_t* end) {
  DRSM_CHECK(p < end, "decode: truncated state key");
  return *p++;
}

inline std::uint32_t take_u32(const std::uint8_t*& p,
                              const std::uint8_t* end) {
  DRSM_CHECK(end - p >= 4, "decode: truncated state key");
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8)
    v |= static_cast<std::uint32_t>(*p++) << shift;
  return v;
}

/// Appends `v` little-endian, growing `out` once rather than per byte:
/// every snapshot, state key and message encoding goes through these.
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.insert(out.end(), bytes, bytes + 4);
}

inline std::uint64_t take_u64(const std::uint8_t*& p,
                              const std::uint8_t* end) {
  DRSM_CHECK(end - p >= 8, "decode: truncated state key");
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(*p++) << shift;
  return v;
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.insert(out.end(), bytes, bytes + 8);
}

/// Applies a client relabeling to one NodeId: clients map through `map`,
/// the home node and kNoNode are fixed points (see
/// fsm::ProtocolMachine::encode_full).
inline NodeId map_node(NodeId id, const NodeId* map,
                       std::size_t num_clients) {
  return id < num_clients ? map[id] : id;
}

/// Appends the protocol-relevant part of a buffered message for
/// ProtocolMachine::encode_full overrides: the token's type, its initiator
/// relabeled through `map`, its object and parameter-presence mark.
/// Values/versions/hops are excluded by the same argument that lets
/// encode() omit them — they never select a transition.
inline void encode_token(std::vector<std::uint8_t>& out,
                         const fsm::Message& msg, const NodeId* map,
                         std::size_t num_clients) {
  out.push_back(static_cast<std::uint8_t>(msg.token.type));
  put_u32(out, map_node(msg.token.initiator, map, num_clients));
  put_u32(out, msg.token.object);
  out.push_back(static_cast<std::uint8_t>(msg.token.params));
}

/// Exact-snapshot codec for a buffered fsm::Message — every field,
/// including the payload and routing metadata encode_token omits.  Used
/// by the encode_state/decode_state overrides so the model checker can
/// re-materialize machines (deferred queues included) from bytes.
inline void encode_message(std::vector<std::uint8_t>& out,
                           const fsm::Message& msg) {
  out.push_back(static_cast<std::uint8_t>(msg.token.type));
  put_u32(out, msg.token.initiator);
  put_u32(out, msg.token.object);
  out.push_back(static_cast<std::uint8_t>(msg.token.queue));
  out.push_back(static_cast<std::uint8_t>(msg.token.params));
  put_u64(out, msg.value);
  put_u64(out, msg.version);
  put_u32(out, msg.hops);
  put_u32(out, msg.sender);
  put_u64(out, msg.span);
}

inline fsm::Message decode_message(const std::uint8_t*& p,
                                   const std::uint8_t* end) {
  fsm::Message msg;
  msg.token.type = static_cast<fsm::MsgType>(take_u8(p, end));
  msg.token.initiator = take_u32(p, end);
  msg.token.object = take_u32(p, end);
  msg.token.queue = static_cast<fsm::QueueKind>(take_u8(p, end));
  msg.token.params = static_cast<fsm::ParamPresence>(take_u8(p, end));
  msg.value = take_u64(p, end);
  msg.version = take_u64(p, end);
  msg.hops = take_u32(p, end);
  msg.sender = take_u32(p, end);
  msg.span = take_u64(p, end);
  return msg;
}

inline fsm::Message make_msg(fsm::MsgType type, NodeId initiator,
                             ObjectId object, fsm::ParamPresence params,
                             std::uint64_t value = 0,
                             std::uint64_t version = 0) {
  fsm::Message msg;
  msg.token.type = type;
  msg.token.initiator = initiator;
  msg.token.object = object;
  msg.token.queue = fsm::QueueKind::kDistributed;
  msg.token.params = params;
  msg.value = value;
  msg.version = version;
  return msg;
}

}  // namespace detail
}  // namespace drsm::protocols
