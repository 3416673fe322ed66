// The model checker's global-state representation and the operations the
// search loop composes: step application and undo, invariant checks,
// quiescent read probes, symmetry canonicalization and the exact-snapshot
// codec the reduced engine stores its frontier in.  Split out of
// model_checker.cc so the search strategy (serial reference vs reduced
// parallel BFS) and the state semantics evolve independently, and so the
// reduction machinery is testable on its own
// (tests/check_reduction_test.cc).
//
// Reduction correctness in one paragraph each:
//
// *Symmetry.*  Client nodes run identical machine code and differ only in
// their id, and every invariant is invariant under client relabeling, so
// two global states that differ by a client permutation are bisimilar.
// canonical_hash() keys a state by a minimum over relabelings of the hash
// of its behaviour encoding (machines via fsm::ProtocolMachine::
// encode_full under the relabeling, channels re-indexed, the per-client
// issue bookkeeping permuted), taken not over all N! client
// permutations but over those that sort the clients by a signature
// naming no client: the machine's state name, the issue bookkeeping, and
// the token types queued between the client and the home node.
// Renumbering the clients carries each signature along with its client,
// so every state of an orbit (the states related by a client
// permutation) has the same sorted labelings and the same key, and two
// states with the same key share a relabeled encoding (barring a 64-bit
// hash collision) and hence an orbit: the key splits the visited set
// into the same classes as the all-permutation minimum.  Clients rarely
// tie on a signature, so a state costs about one relabeled encoding
// instead of N!.  The representative that is explored is always a
// genuinely reachable state (the first one seen), so counterexample
// traces need no back-translation.
//
// *Partial order.*  pure_absorption() detects deliveries that change
// nothing at all: the receiving machine's exact state bytes are unchanged
// and no context callback fires (no sends, no completions, no version
// draws, no queue toggles).  Such a delivery commutes with every other
// enabled transition — it only pops one message no other transition can
// observe — so expanding it *alone* (a singleton ample set) preserves
// every invariant verdict; the full argument lives in docs/TESTING.md.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "check/model_checker.h"
#include "fsm/mealy.h"

namespace drsm::check {

/// Everything in a World besides its machines and channels.  The fields
/// up to `disabled` are the issue bookkeeping, which is behaviour-relevant
/// and enters the dedup key; the rest is the path-local write history the
/// serialization checks run against (values and versions never select a
/// transition, by the same argument that keeps them out of
/// ProtocolMachine::encode).  Versions and values are both drawn densely
/// from 1, so the history is two flat vectors.
struct Ledger {
  std::vector<std::uint8_t> reads_left;   // per client
  std::vector<std::uint8_t> writes_left;  // per client
  std::vector<std::uint8_t> pending;      // per client: 0 or op + 1
  std::vector<std::uint8_t> disabled;     // per node: local queue off

  std::uint64_t version_counter = 0;
  std::uint64_t issue_counter = 0;
  // commit_log[version - 1] = the value bound to that version, 0 while
  // unbound: one slot per drawn version.  Issued values start at 1, so 0
  // is never a bound value.
  std::vector<std::uint64_t> commit_log;
  std::vector<NodeId> issued;  // issued[value - 1] = writer, one per write
  std::uint64_t latest_version = 0;
  std::uint64_t latest_value = 0;
  std::vector<std::uint64_t> last_read_version;  // per node
};

/// The complete global state of one explored interleaving: the machines,
/// the channels and the Ledger.  A step (apply_issue, apply_deliver) runs
/// exactly one machine, and every other change it makes is a channel
/// push, the popped head of a delivery, or a Ledger field, so the World
/// also logs the first two for undo_step.
struct World : Ledger {
  std::vector<std::unique_ptr<fsm::ProtocolMachine>> machines;  // node 0..N
  std::vector<std::deque<fsm::Message>> channels;  // src * (N+1) + dst

  /// Undo log of the last step: the node whose machine ran, the channels
  /// it pushed to in push order, and the channel a delivery popped
  /// (kNoChannel for an issue) with the popped head.
  static constexpr std::size_t kNoChannel = ~std::size_t{0};
  NodeId stepped = kNoNode;
  std::vector<std::size_t> pushed;
  std::size_t popped_channel = kNoChannel;
  fsm::Message popped;

  /// Where each machine's encode_state bytes begin in the snapshot this
  /// World was last decoded from (deserialize_world), plus the end of the
  /// last machine's: machine n spans [state_offsets[n],
  /// state_offsets[n + 1]).
  std::vector<std::size_t> state_offsets;

  std::size_t num_nodes() const { return machines.size(); }
  std::size_t num_clients() const { return machines.size() - 1; }

  World clone() const;
};

/// What happened while applying one step to a World.
struct StepOutcome {
  const char* invariant = nullptr;  // first violated invariant, if any
  std::string detail;
  bool truncated = false;  // a send exceeded channel_capacity
  bool read_returned = false;
  std::uint64_t read_value = 0;
  std::uint64_t read_version = 0;

  void violate(const char* inv, std::string text) {
    if (invariant == nullptr) {
      invariant = inv;
      detail = std::move(text);
    }
  }
};

/// The initial state under `cfg`: machines from the factory (or
/// protocols::make_machine), empty channels, full budgets.
World make_initial_world(const CheckConfig& cfg);

/// Client `client` issues `op` (drawing a fresh value for writes) and the
/// issue request runs through its machine.  `request_out` receives the
/// request message for the trace.
void apply_issue(World& w, NodeId client, fsm::OpKind op,
                 std::size_t capacity, StepOutcome& out,
                 fsm::Message& request_out);

/// Delivers the head of channel src->dst to dst's machine.
void apply_deliver(World& w, NodeId src, NodeId dst, std::size_t capacity,
                   StepOutcome& out, fsm::Message& msg_out);

/// Takes back the last apply_issue / apply_deliver on `w`, which was
/// decoded from `snapshot` (deserialize_world) with `ledger` as its
/// decoded Ledger and has since changed only through steps each followed
/// by undo_step: the step's pushes are popped, a delivered head goes back
/// on its channel, the machine that ran is re-decoded from its byte range
/// in `snapshot`, and `ledger` is assigned back.  `w` then serializes to
/// `snapshot` again.  A quiescent read probe runs many steps, so a World
/// it ran on needs deserialize_world instead.
void undo_step(World& w, const std::uint8_t* snapshot, const Ledger& ledger);

// ---------------------------------------------------------------------------
// Dedup keys and symmetry canonicalization.
// ---------------------------------------------------------------------------

/// Replaces `key` with the behaviour key of `w` (the encode_full-based
/// encoding the checker dedups on) under the client relabeling `map`
/// (num_clients entries, old id -> new id): machines are emitted in new-id
/// order, channels re-indexed, message initiators mapped, per-client
/// bookkeeping permuted.  Under identity_labeling() it is the state's own
/// key, defined for every machine.
void encode_key(const World& w, std::vector<std::uint8_t>& key,
                const NodeId* map);

/// The identity client labeling 0..num_clients-1, for encode_key callers
/// that key a state as it is.
std::vector<NodeId> identity_labeling(std::size_t num_clients);

struct CanonicalHash {
  std::uint64_t hash = 0;  // min over the signature-sorted labelings
  bool nontrivial = false;  // a non-identity labeling produced the key
  std::size_t relabelings = 0;  // relabeled encodings hashed
};

/// The canonical (permutation-invariant) 64-bit key of `w`: the minimum,
/// over every client relabeling that sorts the clients by their
/// signatures (every order within each run of equal signatures), of the
/// hash of the relabeled behaviour key.  Allocates nothing beyond
/// `scratch`, which is reused between calls.
CanonicalHash canonical_hash(const World& w,
                             std::vector<std::uint8_t>& scratch);

// ---------------------------------------------------------------------------
// Exact snapshot codec (the reduced engine's frontier format).
// ---------------------------------------------------------------------------

/// Serializes *everything* — machines via encode_state, channels with full
/// message payloads, budgets, and the write-history the serialization
/// checks need — so deserialize_world reproduces an indistinguishable
/// World.
void serialize_world(const World& w, std::vector<std::uint8_t>& out);

/// Rebuilds a World from serialize_world bytes.  An empty `out` gets
/// fresh machines under `cfg`; a World already built under the same `cfg`
/// is decoded in place — its machines through decode_state, its channels
/// and vectors cleared without giving back their storage — so a search
/// can keep one scratch World per task instead of cloning per successor.
/// Records each machine's byte range in `out.state_offsets` for
/// undo_step.  Returns false when some machine does not support
/// decode_state (check_protocol then runs the full-expansion engine,
/// which clones).
bool deserialize_world(const CheckConfig& cfg, const std::uint8_t* p,
                       const std::uint8_t* end, World& out);

// ---------------------------------------------------------------------------
// Invariants, probes, and the POR purity test.
// ---------------------------------------------------------------------------

bool channels_empty(const World& w);
bool any_pending(const World& w);
bool fully_spent(const World& w);

/// State invariants: exclusivity, deadlock, stuck-disable, and (at full
/// termination) serialization completeness.  Returns the violated
/// invariant name or nullptr.
const char* check_state(const World& w, const CheckConfig& cfg,
                        std::string& detail);

/// Quiescent read-agreement probe: on a clone of a quiescent state, issue
/// one read at `client` and deterministically drain every channel.  The
/// read must complete and return the latest serialized write.  Returns
/// the violated invariant name or nullptr.
const char* probe_read(const World& quiescent, NodeId client,
                       const CheckConfig& cfg, std::string& detail);

/// probe_read run on `quiescent` itself instead of a clone: the probe's
/// read and drain are left applied, and its many steps are beyond
/// undo_step, so the caller must rebuild the World (deserialize_world)
/// before using it again.
const char* probe_read_in_place(World& quiescent, NodeId client,
                                const CheckConfig& cfg, std::string& detail);

/// True iff delivering the head of channel src->dst is a *pure
/// absorption*: a dry run of dst's own machine fires no context callback
/// and leaves the machine's exact state bytes unchanged.  The dry run
/// restores the machine from its encode_state bytes afterwards, so `w`
/// is unchanged on return; it therefore needs machines that implement
/// decode_state.  `scratch` holds those bytes and is reused between
/// calls.  Such a delivery is invisible to every invariant and commutes
/// with every other enabled transition, so the search may expand it
/// alone.
bool pure_absorption(World& w, NodeId src, NodeId dst,
                     std::vector<std::uint8_t>& scratch);

}  // namespace drsm::check
