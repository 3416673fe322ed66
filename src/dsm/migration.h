// Live protocol migration: the drain/handoff state machine that moves one
// object from an old replication protocol to a new one while the system
// keeps running, plus the model-checker harness that verifies it.
//
// The migration wrapper (make_migration_machine) is a first-class
// fsm::ProtocolMachine that runs at every node.  It encloses a live
// "inner" machine of the old protocol and drives a six-phase handoff,
// coordinated by control tokens that ride the existing message types on a
// reserved control object id (the data object is 0, control is 1):
//
//             home (sequencer)                      clients
//   kOld       counts data deliveries; at the      forward everything to
//              trigger broadcasts DRAIN            the old inner machine
//   kDraining  collects DRAIN-ACKs                 finish the in-flight
//                                                  local op, disable the
//                                                  local queue, DRAIN-ACK
//   kFencing   broadcasts FENCE-START (+ a         on FENCE-START send a
//              self-token for the home->home       FENCE-TOKEN to every
//              channel); waits for every           peer; after tokens from
//              FENCE-DONE                          all peers, FENCE-DONE
//   kFlushing  issues a synthetic local read
//              through the OLD inner machine —
//              the old protocol's own recall
//              machinery pulls the authoritative
//              (value, version) to the home
//   kSwitching swaps in the NEW home machine and   on SWITCH swap in a
//              broadcasts SWITCH; waits for        fresh NEW machine and
//              every SWITCH-ACK                    SWITCH-ACK (queue still
//                                                  held)
//   kSeeding   re-commits the flushed value with
//              a fresh version through the NEW
//              machine, then broadcasts RELEASE    on RELEASE re-enable
//                                                  the local queue
//
// Soundness hinges on two FIFO-channel facts, both machine-verified by the
// checker rather than trusted (docs/TESTING.md has the full argument):
//  1. every pre-drain message is delivered to an OLD machine — the fence
//     flushes client->client and client->home channels, and on each
//     home->client channel SWITCH follows everything the old home machine
//     ever sent;
//  2. the flush read runs *after* the fence, so every straggling write
//     (e.g. a fire-and-forget W-PER still in flight at drain time) is
//     sequenced by the old home machine before the snapshot is taken —
//     seeding can never resurrect a stale value.
// A message from the wrong epoch reaching a machine surfaces as a
// defined-transition violation; a lost or duplicated write surfaces in the
// serialization invariants and quiescent read probes; a stuck drain
// surfaces as deadlock or stuck-disable.  make_migration_machine's fault
// knobs re-introduce the two classic bugs (no fence, no seed) so the tests
// can demonstrate the checker actually catches them.
#pragma once

#include <cstdint>
#include <memory>

#include "check/model_checker.h"
#include "fsm/mealy.h"
#include "protocols/protocol.h"

namespace drsm::dsm {

/// One migration scenario: every node starts under `from`; after the home
/// node has delivered `trigger` data-plane messages it drives the handoff
/// to `to`.
struct MigrationWorldOptions {
  protocols::ProtocolKind from = protocols::ProtocolKind::kWriteThrough;
  protocols::ProtocolKind to = protocols::ProtocolKind::kBerkeley;
  std::size_t num_clients = 2;

  /// Data messages the home delivers before it starts draining (>= 1).
  /// Higher triggers start the handoff deeper into the workload.
  std::size_t trigger = 1;

  /// Deliberate bugs, for tests that prove the checker bites:
  ///  * kSkipFence — switch right after the drain acks, without flushing
  ///    the channels: a straggling old-protocol message can reach a
  ///    new-protocol machine, or a late write can be sequenced after the
  ///    snapshot was taken.
  ///  * kNoSeed — never re-commit the flushed value under the new
  ///    protocol: the pre-migration history is lost and post-migration
  ///    reads return unserialized initial state.
  enum class Fault : std::uint8_t { kNone, kSkipFence, kNoSeed };
  Fault fault = Fault::kNone;
};

/// The migration wrapper machine for `node` (clients 0..N-1, home N).
/// Implements the model checker's codec (a relabeling encode_full and
/// the exact encode_state/decode_state pair), so check_protocol runs the
/// migration world on the reduced engine with symmetry + POR.
std::unique_ptr<fsm::ProtocolMachine> make_migration_machine(
    const MigrationWorldOptions& options, NodeId node);

/// A CheckConfig exploring the migration world exhaustively: wrapper
/// machines via the factory, exclusivity off (state names mix two
/// protocols plus the MIG-* phases).  The convergence exemption is
/// Dragon's whenever either endpoint is Dragon, since both epochs' reads
/// run under one probe policy.  Budgets and engine knobs keep their
/// CheckConfig defaults; callers adjust as needed.
check::CheckConfig migration_check_config(const MigrationWorldOptions& options);

}  // namespace drsm::dsm
