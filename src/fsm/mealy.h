// The Mealy-machine protocol-process interface (Section 3 of the paper).
//
// A protocol process controls one copy of one shared object at one node.
// It consumes messages (application requests from the local queue, protocol
// messages from the distributed queue) and reacts by sending messages,
// returning data to the application, and enabling/disabling its local
// queue.  The *runtime* (either the sequential AtomicExecutor used by the
// analytic engine, or the discrete-event simulator) owns delivery, cost
// accounting and queue mechanics; machines only express protocol logic.
#pragma once

#include <cstdint>
#include <memory>
#include <initializer_list>
#include <vector>

#include "fsm/token.h"
#include "support/types.h"

namespace drsm::fsm {

/// Runtime services available to a protocol process while it handles one
/// message.  All sends are charged to the current operation's trace.
///
/// Threading contract: a machine and the context it is handed are confined
/// to one thread at a time.  Every runtime in the repo honors this by
/// construction — the sequential/event runtimes are single-threaded, and
/// the sharded concurrent runtime confines each object's machine set to
/// its shard's event-loop thread — so the machine itself never needs
/// internal synchronization.
class MachineContext {
 public:
  virtual ~MachineContext() = default;

  /// This node's index.  Clients are 0..N-1; the home/sequencer node is N
  /// (the paper's node N+1).
  virtual NodeId self() const = 0;

  /// N: the number of client nodes.
  virtual std::size_t num_clients() const = 0;

  /// The distinguished node whose protocol process is the initial sequencer.
  NodeId home() const { return static_cast<NodeId>(num_clients()); }

  /// N+1 in the paper's terms.
  std::size_t num_nodes() const { return num_clients() + 1; }

  virtual const CostModel& costs() const = 0;

  /// Sends one message to `dest`'s distributed queue.  Inter-node sends are
  /// charged message_cost(token.params); a send to self is free (local
  /// action).
  virtual void send(NodeId dest, Message msg) = 0;

  /// The paper's push(except(list), ...): send to every node whose index is
  /// not in `excluded`.  The caller includes itself in the list.  Takes an
  /// initializer_list — the exclusion sets are tiny brace-lists at every
  /// call site, and a braced std::vector argument would heap-allocate on
  /// each broadcast of the simulator's hot path.
  virtual void send_except(std::initializer_list<NodeId> excluded,
                           Message msg) = 0;

  /// Returns read data to the local application process (the paper's
  /// return(parameters_r, user_information) routine).
  virtual void return_read(std::uint64_t value, std::uint64_t version) = 0;

  /// Signals that the local application's pending write has finished (for
  /// fire-and-forget writes version may be 0 = not yet sequenced).
  virtual void complete_write(std::uint64_t version) = 0;

  /// Completion of an eject/sync extension operation.
  virtual void complete_op() = 0;

  /// Disable/enable the local queue (paper Section 2: a distributed
  /// operation awaiting a sequencer response blocks further local requests).
  virtual void disable_local_queue() = 0;
  virtual void enable_local_queue() = 0;

  /// Draws the next global write sequence number.  Must only be called at
  /// the point that serializes writes for this object (the sequencer or the
  /// current owner), so that version order equals the sequenced write order.
  virtual std::uint64_t next_version() = 0;

  /// Reports that a write's value has been bound to its sequence number —
  /// the serialization point of the write.  Machines call this wherever
  /// they apply a (value, version) pair that defines the sequenced content
  /// of the object; duplicate reports of the same pair are fine (e.g. both
  /// the writer and the sequencer may report a two-phase write).  The
  /// default is a no-op; the coherence oracle and model checker override
  /// it to build the serialized write log they validate reads against.
  virtual void commit_write(std::uint64_t version, std::uint64_t value) {
    (void)version;
    (void)value;
  }
};

/// A protocol process.  Implementations are deterministic: the same message
/// in the same state always produces the same actions (Mealy semantics).
class ProtocolMachine {
 public:
  virtual ~ProtocolMachine() = default;

  /// Handles one dequeued message.
  virtual void on_message(MachineContext& ctx, const Message& msg) = 0;

  virtual std::unique_ptr<ProtocolMachine> clone() const = 0;

  /// Appends this machine's protocol-relevant state (copy state plus any
  /// auxiliary fields that influence future behaviour, e.g. the believed
  /// owner).  Data values/versions are deliberately excluded: the analytic
  /// engine keys its Markov states on this encoding.
  virtual void encode(std::vector<std::uint8_t>& out) const = 0;

  /// Inverse of encode(): restores the protocol-relevant state from the
  /// bytes at `p` (bounded by `end`), advancing `p` past what it consumed.
  /// Keys are produced only at quiescence, so implementations also clear
  /// any transient fields (pending operations, deferred queues).  Data
  /// values/versions are not part of the encoding and stay stale — by the
  /// same argument that lets encode() omit them, they cannot influence
  /// future traces.  Returns false when the machine does not support
  /// restoration (the default); the machine state is then unspecified and
  /// the caller must discard the runtime.  The analytic enumerator uses
  /// this to re-materialize Markov states from their keys instead of
  /// deep-copying whole runtimes per transition.
  virtual bool decode(const std::uint8_t*& p, const std::uint8_t* end) {
    (void)p;
    (void)end;
    return false;
  }

  /// Total-state behaviour key under a client relabeling: like encode(),
  /// but defined in *every* state, including mid-flight (non-quiescent)
  /// ones, and covering the transient fields encode() may omit (pending
  /// operations, deferred queues, recall bookkeeping).  The model checker
  /// keys its explored global states on this, so two machines with equal
  /// encodings must behave identically on every future input.  Data
  /// values/versions stay excluded by the same argument as in encode().
  ///
  /// Every NodeId embedded in the machine state (believed owners,
  /// per-node bitsets, buffered-token initiators) is written relabeled
  /// through `map`, which has `num_clients` entries sending client id i
  /// to map[i]; the home node (id == num_clients) and kNoNode are fixed
  /// points.  Under the identity map this is the machine's plain key.  Two
  /// machines whose encodings agree under the same map must behave
  /// identically when the whole system (peers, channels, in-flight
  /// messages) is relabeled the same way — this is what lets the checker's
  /// symmetry reduction collapse permutation-equivalent global states to
  /// one canonical representative.  Defaults to encode(), correct for
  /// machines with no transient state and no NodeId in their key.
  virtual void encode_full(std::vector<std::uint8_t>& out, const NodeId* map,
                           std::size_t num_clients) const {
    (void)map;
    (void)num_clients;
    encode(out);
  }

  /// Exact-snapshot codec, the pair the reduced checker's frontier uses
  /// to re-materialize a machine from bytes instead of holding live
  /// clones.  Unlike encode_full(), which deliberately omits data (values,
  /// versions, buffered message payloads) because data never selects a
  /// transition, encode_state() must capture *every* field:
  /// decode_state() followed by any message sequence must be
  /// indistinguishable from the original.  Defaults to encode() /
  /// unsupported, as for the hand-built test fragments and
  /// fsm::TableMachine; every real protocol overrides both.
  ///
  /// Implementing decode_state opts a machine into the reduced engine
  /// (symmetry and partial-order reduction); machines without it are
  /// checked by the full-expansion reference engine.  Such a machine's
  /// encode_full must relabel every NodeId it emits:
  /// check_reduction_test's PermutationInvarianceTest (every protocol)
  /// and MigrationPermutationInvarianceTest (every migration pair) hold
  /// the shipped machines to this.
  virtual void encode_state(std::vector<std::uint8_t>& out) const {
    encode(out);
  }

  /// Inverse of encode_state().  Returns false when unsupported (the
  /// default); check_protocol then runs the full-expansion engine.
  ///
  /// Decoded machines are reused: the checker decodes every successor
  /// into machines that last held some other state, and its partial-order
  /// dry run restores a machine by decoding its own earlier bytes.  So
  /// decode_state must overwrite every field that the machine's behaviour
  /// or its encode_state reads — clear deferred queues, reset transient
  /// flags — never assume the defaults of a fresh machine
  /// (check_reduction_test's ReusedDecodeTest holds every protocol and
  /// migration wrapper to this).
  virtual bool decode_state(const std::uint8_t*& p, const std::uint8_t* end) {
    (void)p;
    (void)end;
    return false;
  }

  /// True when the machine holds no in-flight transient state (no pending
  /// retries or buffered requests).  The analytic engine snapshots states
  /// only at quiescence and asserts this.
  virtual bool quiescent() const { return true; }

  /// Human-readable copy state, for traces and tests.
  virtual const char* state_name() const = 0;
};

}  // namespace drsm::fsm
