// Exact steady-state analysis of a (protocol, workload) pair — the paper's
// methodology (Section 4.3) automated.
//
// The paper derives, by hand, the steady-state probability pi_h of each
// trace tr_h of a coherence protocol under a parameterized workload and
// forms acc = sum_h pi_h * cc_h.  ProtocolChain performs the same
// derivation mechanically and exactly:
//
//  * the interacting Mealy machines are executed atomically per operation
//    (SequentialRuntime), which is precisely the "repeated independent
//    trials" regime of the analysis;
//  * the protocol-relevant global state (all copy states + ownership) is
//    finite; breadth-first exploration over the workload's sample space
//    enumerates every reachable state and the exact trace cost of every
//    (state, event) pair;
//  * the stationary distribution of the induced Markov chain gives the
//    trace probabilities, and acc follows.
//
// For the Write-Through protocol the result matches the paper's closed
// forms (eqns 3-5) to machine precision; for the other seven protocols it
// plays the role of the (unreadable) Table 6 expressions.
//
// The chain is built once per (protocol, system, sample-space *structure*)
// and can be re-solved for any probability assignment — grid sweeps for the
// figure benchmarks reuse one chain per surface, one solve per cell.  Every
// query validates its probability vector first (check_probabilities).
//
// Enumeration avoids the original per-transition deep copy of the whole
// runtime: states are re-materialized from their byte keys into a single
// scratch runtime (ProtocolMachine::decode, which every protocol machine
// implements).  Re-solves are
// warm-started from the last stationary vector computed for the same
// positive-probability event mask, which cuts power iterations on the
// smooth parameter sweeps of the figure benchmarks.  Solving is
// thread-safe (telemetry and the warm-start cache are mutex-guarded).
// Chains small enough for the LU path (linalg::StationaryOptions::
// direct_limit) ignore the seed, so their results do not depend on solve
// order; on the power path warm starts move the iteration counts, and the
// result within the solver's tolerance.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "analytic/interner.h"
#include "linalg/stationary.h"
#include "protocols/protocol.h"
#include "sim/sequential.h"
#include "workload/spec.h"

namespace drsm::analytic {

class ProtocolChain {
 public:
  /// Enumerates the reachable protocol state space under the sample space
  /// of `spec` (all listed events, regardless of their probability).
  ProtocolChain(protocols::ProtocolKind kind, const sim::SystemConfig& config,
                const workload::WorkloadSpec& spec);

  /// Steady-state average communication cost per operation for the given
  /// event probabilities (aligned with spec.events; must sum to 1).  When
  /// `stats` is set it receives this call's own solve statistics, which
  /// telemetry().last only holds until another thread's solve replaces
  /// them.
  double average_cost(const std::vector<double>& probabilities,
                      linalg::SolveStats* stats = nullptr) const;

  /// Convenience overload using the probabilities stored in the spec.
  double average_cost() const;

  /// Steady-state variance of the per-operation cost (second central
  /// moment over states and events).  Together with acc this sizes the
  /// confidence intervals a simulation of given length can achieve.
  double cost_variance(const std::vector<double>& probabilities) const;

  /// Expected steady-state cost contributed by each event of the sample
  /// space (sums to average_cost).
  std::vector<double> event_cost_shares(
      const std::vector<double>& probabilities) const;

  /// Steady-state probability of being in each enumerated state (states
  /// unreachable under the given probabilities get 0).
  linalg::Vector stationary(const std::vector<double>& probabilities) const;

  /// Transient analysis: expected cost of each of the first `ops`
  /// operations starting cold (all client copies INVALID) — the cost
  /// profile the paper's simulation discards by "neglecting the first 500
  /// operations".  Element k is the expected cost of operation k+1; the
  /// sequence converges to average_cost().
  std::vector<double> transient_costs(
      const std::vector<double>& probabilities, std::size_t ops) const;

  /// Number of operations until the expected per-operation cost stays
  /// within `tolerance` (relative) of the steady-state acc — an analytic
  /// warm-up length.  Returns `max_ops` if not reached.
  std::size_t warmup_length(const std::vector<double>& probabilities,
                            double tolerance = 0.01,
                            std::size_t max_ops = 100000) const;

  std::size_t num_states() const { return transitions_.size(); }
  std::size_t num_events() const { return events_.size(); }

  /// Stationary-solver telemetry, accumulated over every solve this chain
  /// performed (average_cost, cost_variance, stationary, ...).  AccSolver
  /// publishes this into its metrics registry.
  struct SolveTelemetry {
    std::size_t solves = 0;
    std::size_t power_iterations = 0;  // cumulative across solves
    std::size_t warm_starts = 0;       // power solves seeded from the cache
    linalg::SolveStats last;           // most recent solve
  };
  SolveTelemetry telemetry() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return telemetry_;
  }

  /// Deterministic transition: cost and successor of event `e` in state
  /// `s` (exposed for tests).
  struct Transition {
    std::uint32_t next = 0;
    Cost cost = 0.0;
  };
  const Transition& transition(std::size_t state, std::size_t event) const;

  /// The protocol-relevant encoding of state `s` (concatenated machine
  /// encodings in roster order, clients ascending then the sequencer) —
  /// lets callers classify states, e.g. by the activity center's copy
  /// state, to extract the paper's per-trace probabilities.
  const std::vector<std::uint8_t>& state_key(std::size_t state) const;

 private:
  struct SolveResult {
    std::vector<std::uint32_t> reachable;  // chain-state indices
    linalg::Vector pi;                     // aligned with `reachable`
    linalg::SolveStats stats;              // this solve's statistics
  };
  /// Throws drsm::Error unless `probabilities` matches the sample space,
  /// has no entry below -1e-12 and sums to 1 within 1e-9.
  void check_probabilities(const std::vector<double>& probabilities) const;
  SolveResult solve(const std::vector<double>& probabilities) const;

  std::vector<workload::EventSpec> events_;
  std::vector<std::vector<Transition>> transitions_;  // [state][event]
  StateInterner states_;                              // key <-> dense index
  mutable std::mutex mutex_;  // guards telemetry_ and warm_pi_
  mutable SolveTelemetry telemetry_;
  /// Last stationary vector per positive-probability event mask, used to
  /// warm-start the next power iteration with the same mask (reachable-set
  /// ordering is a pure function of the mask, so the vectors align).
  mutable std::map<std::vector<std::uint8_t>, linalg::Vector> warm_pi_;
};

}  // namespace drsm::analytic
