// Explicit-state model checker for the eight replication protocols.
//
// The checked model is the paper's system at full asynchrony: one protocol
// machine per node (N clients plus the sequencer), connected by bounded
// FIFO channels, one channel per directed node pair.  Clients issue a
// bounded budget of application operations (closed loop: one outstanding
// operation per client); between steps the only nondeterminism is *which*
// enabled action fires next — a client issuing an operation, or the head
// of one channel being delivered.  BFS over that nondeterminism enumerates
// every reachable global state for small configurations, deduplicating on
// the machines' total-state encodings (fsm::ProtocolMachine::encode_full)
// plus channel contents and per-client issue bookkeeping.
//
// Two engines run that search (see CheckConfig::expansion).  The reduced
// engine, the default, runs every world whose machines implement the
// exact snapshot codec (fsm::ProtocolMachine::encode_state/decode_state):
// all eight protocols and the dsm migration wrappers.  Worlds of other
// machines — hand-built fragments, fsm::TableMachine — are checked by the
// full-expansion reference engine whatever the mode.
//
// Checked on every reachable state:
//  * defined-transition — no machine ever rejects a delivered message
//    (a DRSM_CHECK firing inside on_message is the protocol's "no
//    transition for this (state, token) pair");
//  * exclusivity — at most one copy per object is in a state that permits
//    local writes (protocols::classify_state == kExclusive);
//  * deadlock — a client with a pending operation and *no* message in any
//    channel can never complete (the protocols have no timers);
//  * stuck-disable — at quiescence (no pending operation, empty channels)
//    every local queue must be enabled again: each disable_local_queue is
//    matched by an enable before the operation completes;
//  * serialization — versions are drawn only at the serialization point,
//    each version binds to exactly one value, reads return serialized
//    values (the CoherenceOracle rules, kConcurrent mode);
//  * read-probe — at every quiescent state, a fresh read issued at each
//    client (on a clone of the state) must complete and return the latest
//    serialized write: a missed invalidation or lost update surfaces here.
//
// Because the search is breadth-first, the first violation found has a
// minimal-length trace from the initial state; export_counterexample
// renders it through the obs trace recorder as one kCheckStep event per
// step plus a final kViolation event.
//
// Scaling (see check/world.h for the correctness arguments):
//  * symmetry reduction — states are deduplicated on a canonical key
//    invariant under client permutation, shrinking the space by up to
//    N!;
//  * partial-order reduction — a delivery that provably changes nothing
//    (a "pure absorption": redundant invalidation, stale update) is
//    expanded alone instead of interleaved with every other action;
//  * parallel frontier — each BFS depth is expanded by an
//    exec::ThreadPool whose workers only read the visited set of
//    canonical keys (check/state_store.h); a serial merge at the depth
//    barrier claims their successors in frontier order, so
//    counterexamples stay minimal and every thread count reports the
//    same result (see CheckConfig::threads);
//  * snapshot frontier — queued states are exact byte snapshots
//    (serialize_world), not live machine graphs, cutting memory per
//    state by an order of magnitude.  Each task packs the snapshots it
//    finds at a depth into one reused arena, which the next depth reads.
//    A frontier state is decoded once; each successor is built in place
//    and then undone (undo_step).
// CheckConfig::Expansion::kFullExpansion turns the reductions off; the
// reduction-soundness tests assert both modes reach identical verdicts.
// Reduced mode dedups on 64-bit canonical hashes (not full keys): with
// n reachable states the chance of any collision is about n^2/2^64 —
// under 10^-7 even at the 1M-state cap — and kFullExpansion remains the
// exact cross-check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fsm/mealy.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "protocols/protocol.h"

namespace drsm::obs {
class MetricsRegistry;
}  // namespace drsm::obs

namespace drsm::check {

struct CheckConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kWriteThrough;

  /// Machines come from protocols::make_machine(protocol, ...) unless this
  /// factory is set (used to put hand-built machines — e.g. deliberately
  /// broken ones, or the formal transition tables of fsm/table.h — through
  /// the same exploration).
  using MachineFactory =
      std::function<std::unique_ptr<fsm::ProtocolMachine>(NodeId)>;
  MachineFactory machine_factory;

  /// N: clients 0..N-1 issue operations; node N is the sequencer.
  std::size_t num_clients = 2;

  /// Per-client operation budgets.  The issue choices (which client, read
  /// or write) are part of the explored nondeterminism.
  std::size_t reads_per_client = 1;
  std::size_t writes_per_client = 1;

  /// Bound on in-flight messages per directed channel.  A successor that
  /// would exceed it is cut (counted in CheckResult::truncated), keeping
  /// the state space finite even for hypothetical flooding machines; the
  /// real protocols stay far below any reasonable bound.
  std::size_t channel_capacity = 8;

  /// Exploration cap; hitting it marks the result truncated
  /// (CheckResult::hit_state_cap) with exactly max_states states.  The
  /// reduced engine finishes expanding the frontier entry whose
  /// successors reached the cap, so its transitions include the rest of
  /// that entry.  The default admits the largest acceptance
  /// configuration — Berkeley at N=4 is exhaustive at ~4.04M canonical
  /// states — and costs nothing up front: the visited set grows with
  /// demand (check/state_store.h), so small runs never allocate for the
  /// cap.
  std::size_t max_states = 8'000'000;

  /// Classify state names via protocols::classify_state (disable for
  /// machine_factory machines with non-protocol state names).
  bool check_exclusivity = true;

  /// Run the quiescent read-agreement probe (requires machines that
  /// complete reads; disable for hand-built fragments).
  bool probe_quiescent_reads = true;

  /// kReduced applies the reductions enabled below; kFullExpansion is the
  /// reference mode — every enabled action expanded at every state, full
  /// state keys, no reductions — that the soundness tests compare
  /// against.  kReduced needs machines that round-trip the snapshot codec
  /// (fsm::ProtocolMachine::decode_state); a world whose machines do not
  /// runs in kFullExpansion instead.  Asserting reduced == full for a
  /// factory world is the caller's responsibility (tests/migration_test.cc
  /// does it for the migration wrappers).
  enum class Expansion : std::uint8_t { kReduced, kFullExpansion };
  Expansion expansion = Expansion::kReduced;

  /// Dedup on canonical (client-permutation-invariant) keys.  Applies in
  /// the reduced engine at two or more clients;
  /// CheckResult::symmetry_applied reports whether it actually ran.
  bool symmetry_reduction = true;

  /// Expand provably-inert deliveries (pure absorptions) alone instead
  /// of interleaving them with every other enabled action.  Applies in
  /// the reduced engine; see CheckResult::por_applied.
  /// Note: counterexamples remain minimal within the reduced graph but
  /// can be longer than kFullExpansion's.
  bool partial_order_reduction = true;

  /// Worker threads for frontier expansion: 0 picks
  /// exec::ThreadPool::default_threads() (DRSM_THREADS or hardware
  /// concurrency).  The thread count changes only the speed: states
  /// are claimed in the serial in-order merge, so every thread count
  /// keeps the same member of each symmetry orbit and reports the same
  /// counts, state names, verdict and counterexample.  CheckResult's
  /// decodes and restores are the exception: at more than one thread
  /// they also count work on duplicates that different workers found.
  std::size_t threads = 0;

  /// When set, check_protocol publishes check.* counters and gauges here
  /// (states, transitions, symmetry_hits, relabelings, por_pruned,
  /// decodes, restores, states_per_sec, wall_ms, expand_ms, merge_ms,
  /// max_depth).  Not
  /// written to concurrently: workers aggregate locally and publish once
  /// at the end.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One edge of the explored transition system.
struct CheckStep {
  enum class Kind : std::uint8_t {
    kIssue,    // client `node` issues `op` (value for writes)
    kDeliver,  // head of channel src->node delivered
  };
  Kind kind = Kind::kIssue;
  NodeId node = 0;          // acting node (issuer / receiver)
  NodeId src = kNoNode;     // deliver: channel source
  fsm::OpKind op = fsm::OpKind::kRead;  // issue
  fsm::Message msg;         // deliver: the message; issue: the request
};

struct Violation {
  const char* invariant = "";  // static name: "deadlock", "exclusivity", ...
  std::string detail;          // human-readable specifics
};

struct CheckResult {
  std::size_t states = 0;       // distinct reachable states visited
  std::size_t transitions = 0;  // explored edges (including into dedups)
  std::size_t probes = 0;       // quiescent read probes run
  std::size_t truncated = 0;    // successors cut by channel_capacity
  bool hit_state_cap = false;   // max_states reached: result is partial
  std::size_t max_depth = 0;    // BFS depth of the deepest visited state

  /// Reduction accounting.  symmetry_hits counts dedups of a successor
  /// whose own labeling is not the one that produced its canonical key:
  /// a state full expansion would have explored as distinct from the
  /// representative.  It depends on which labeling the key picks inside
  /// an orbit, so it moves whenever the key's encoding or hash changes,
  /// though states and transitions do not.  relabelings counts the
  /// relabeled encodings canonical_hash hashed (check/world.h): about one
  /// per canonicalized state, N! if every client tied on its signature,
  /// 0 without symmetry reduction.  por_pruned counts sibling actions
  /// skipped because a pure absorption was expanded alone.
  std::size_t symmetry_hits = 0;
  std::size_t relabelings = 0;
  std::size_t por_pruned = 0;

  /// How the reduced engine got back to a parent between its successors.
  /// decodes counts full snapshot decodes while expanding: one per
  /// expanded state, one more after each quiescent successor's read
  /// probes, and one per probe after a successor's first.  restores
  /// counts steps taken back by undo_step instead (check/world.h).  Both
  /// are 0 under kFullExpansion, which clones.  At more than one thread
  /// they also count the work on a duplicate that two workers each found
  /// new at the same depth, before the merge dropped one of them.
  std::size_t decodes = 0;
  std::size_t restores = 0;
  bool symmetry_applied = false;  // reduction actually ran (reduced
  bool por_applied = false;       // engine, option on)
  std::size_t threads_used = 1;

  double wall_seconds = 0.0;  // exploration wall time

  /// The reduced engine's wall time split by BFS layer, summed over
  /// depths: expand_seconds spans each depth's parallel expansion
  /// (decode, step, invariants, canonicalization, visited-set lookups,
  /// probes, snapshot), merge_seconds its serial in-order merge, which
  /// claims the new states.  Zero under kFullExpansion.
  double expand_seconds = 0.0;
  double merge_seconds = 0.0;
  double states_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(states) / wall_seconds
                              : 0.0;
  }

  /// Every ProtocolMachine::state_name() observed, sorted and unique —
  /// the coverage tests assert this equals protocols::copy_state_names.
  std::vector<std::string> visited_state_names;

  /// Empty on success.  Exploration stops at the first violation, so at
  /// most one entry today; kept a vector for future collect-all modes.
  std::vector<Violation> violations;

  /// Minimal trace from the initial state to the violating one (empty when
  /// ok).  The last step is the one that produced the violation.
  std::vector<CheckStep> counterexample;

  bool ok() const { return violations.empty(); }
};

/// Exhaustively explores the protocol under `config`.
CheckResult check_protocol(const CheckConfig& config);

/// Renders result.counterexample into `out` as kCheckStep events (time =
/// step index) followed by one kViolation event.  Any sink works: a
/// TraceRecorder for write_jsonl export, a FlightRecorder for post-mortem
/// capture.  No-op when the result is ok.
void export_counterexample(const CheckResult& result, obs::EventSink& out);

/// Renders the counterexample into `recorder` (appending to whatever the
/// ring already holds) and dumps it as a JSONL post-mortem to `path`.
/// Returns the dump text (empty when the result is ok and nothing was
/// written).
std::string dump_counterexample(const CheckResult& result,
                                obs::FlightRecorder& recorder,
                                const std::string& path);

}  // namespace drsm::check
