#include "analytic/chain.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "linalg/sparse.h"
#include "support/error.h"

namespace drsm::analytic {

using sim::SequentialRuntime;

ProtocolChain::ProtocolChain(protocols::ProtocolKind kind,
                             const sim::SystemConfig& config,
                             const workload::WorkloadSpec& spec)
    : events_(spec.events) {
  DRSM_CHECK(!events_.empty(), "chain needs a non-empty sample space");
  // Both clients and the sequencer (node N) may issue operations; the
  // sequencer's traces are the paper's tr5/tr6.
  for (const auto& e : events_)
    DRSM_CHECK(e.node <= config.num_clients,
               "chain event node out of range");

  std::vector<NodeId> roster;
  for (NodeId node : spec.roster())
    if (node < config.num_clients) roster.push_back(node);
  SequentialRuntime initial(kind, config, std::move(roster));

  std::vector<std::uint8_t> key;
  initial.encode_state(key);
  states_.intern(key);

  // One scratch runtime, re-materialized from each state key, stands in
  // for a deep runtime copy per transition: every protocol machine
  // implements decode().
  SequentialRuntime scratch(initial);
  std::deque<std::uint32_t> frontier{0};
  std::uint64_t value_counter = 0;
  while (!frontier.empty()) {
    const std::uint32_t s = frontier.front();
    frontier.pop_front();
    if (transitions_.size() <= s) transitions_.resize(s + 1);
    transitions_[s].resize(events_.size());
    for (std::size_t e = 0; e < events_.size(); ++e) {
      DRSM_CHECK(scratch.restore_state(states_.key(s)),
                 "chain: state key failed to restore");
      const sim::OpResult result = scratch.execute(
          events_[e].node, events_[e].op, ++value_counter);
      scratch.encode_state(key);
      const auto [index, inserted] = states_.intern(key);
      if (inserted) frontier.push_back(index);
      transitions_[s][e] = Transition{index, result.cost};
    }
  }
  transitions_.resize(states_.size());
  for (auto& row : transitions_)
    if (row.size() != events_.size()) row.resize(events_.size());
}

const std::vector<std::uint8_t>& ProtocolChain::state_key(
    std::size_t state) const {
  DRSM_CHECK(state < states_.size(), "state out of range");
  return states_.key(static_cast<std::uint32_t>(state));
}

const ProtocolChain::Transition& ProtocolChain::transition(
    std::size_t state, std::size_t event) const {
  DRSM_CHECK(state < transitions_.size(), "state out of range");
  DRSM_CHECK(event < events_.size(), "event out of range");
  return transitions_[state][event];
}

void ProtocolChain::check_probabilities(
    const std::vector<double>& probs) const {
  DRSM_CHECK(probs.size() == events_.size(),
             "probability vector does not match the sample space");
  double sum = 0.0;
  for (double p : probs) {
    DRSM_CHECK(p >= -1e-12, "negative event probability");
    sum += p;
  }
  DRSM_CHECK(std::fabs(sum - 1.0) < 1e-9, "probabilities must sum to 1");
}

ProtocolChain::SolveResult ProtocolChain::solve(
    const std::vector<double>& probs) const {
  check_probabilities(probs);

  // Restrict to states reachable through positive-probability events; the
  // full enumeration may contain states only reachable via events that are
  // switched off in this assignment.
  std::vector<std::uint32_t> reach;
  std::vector<std::uint32_t> local(transitions_.size(), UINT32_MAX);
  std::deque<std::uint32_t> frontier;
  reach.push_back(0);
  local[0] = 0;
  frontier.push_back(0);
  while (!frontier.empty()) {
    const std::uint32_t s = frontier.front();
    frontier.pop_front();
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (probs[e] <= 0.0) continue;
      const std::uint32_t t = transitions_[s][e].next;
      if (local[t] == UINT32_MAX) {
        local[t] = static_cast<std::uint32_t>(reach.size());
        reach.push_back(t);
        frontier.push_back(t);
      }
    }
  }

  const std::size_t n = reach.size();
  std::vector<linalg::Triplet> trip;
  trip.reserve(n * events_.size());
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t s = reach[r];
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (probs[e] <= 0.0) continue;
      trip.push_back({r, local[transitions_[s][e].next], probs[e]});
    }
  }
  linalg::CsrMatrix p_matrix(n, n, std::move(trip));
  linalg::check_stochastic(p_matrix);

  SolveResult out;
  out.reachable = std::move(reach);
  linalg::StationaryOptions solver_options;
  linalg::SolveStats& solve_stats = out.stats;
  solver_options.stats = &solve_stats;

  // Warm-start the power iteration from the last stationary vector solved
  // for the same positive-probability mask (the reachable set and its
  // ordering depend only on the mask, so the vectors align).  The direct
  // solver ignores the seed.
  std::vector<std::uint8_t> mask(events_.size());
  for (std::size_t e = 0; e < events_.size(); ++e)
    mask[e] = probs[e] > 0.0 ? 1 : 0;
  linalg::Vector warm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = warm_pi_.find(mask);
    if (it != warm_pi_.end() && it->second.size() == n) warm = it->second;
  }
  if (!warm.empty()) solver_options.initial = &warm;

  out.pi = linalg::stationary_distribution(p_matrix, solver_options);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    warm_pi_[mask] = out.pi;
    ++telemetry_.solves;
    telemetry_.power_iterations += solve_stats.iterations;
    if (solve_stats.warm_started) ++telemetry_.warm_starts;
    telemetry_.last = solve_stats;
  }
  return out;
}

double ProtocolChain::average_cost(const std::vector<double>& probs,
                                   linalg::SolveStats* stats) const {
  const SolveResult sol = solve(probs);
  if (stats != nullptr) *stats = sol.stats;
  double acc = 0.0;
  for (std::size_t r = 0; r < sol.reachable.size(); ++r) {
    const std::uint32_t s = sol.reachable[r];
    double expected = 0.0;
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (probs[e] <= 0.0) continue;
      expected += probs[e] * transitions_[s][e].cost;
    }
    acc += sol.pi[r] * expected;
  }
  return acc;
}

double ProtocolChain::average_cost() const {
  std::vector<double> probs;
  probs.reserve(events_.size());
  for (const auto& e : events_) probs.push_back(e.probability);
  return average_cost(probs);
}

double ProtocolChain::cost_variance(
    const std::vector<double>& probs) const {
  const SolveResult sol = solve(probs);
  double mean = 0.0, second = 0.0;
  for (std::size_t r = 0; r < sol.reachable.size(); ++r) {
    const std::uint32_t s = sol.reachable[r];
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (probs[e] <= 0.0) continue;
      const double w = sol.pi[r] * probs[e];
      const double c = transitions_[s][e].cost;
      mean += w * c;
      second += w * c * c;
    }
  }
  return std::max(0.0, second - mean * mean);
}

std::vector<double> ProtocolChain::event_cost_shares(
    const std::vector<double>& probs) const {
  const SolveResult sol = solve(probs);
  std::vector<double> shares(events_.size(), 0.0);
  for (std::size_t r = 0; r < sol.reachable.size(); ++r) {
    const std::uint32_t s = sol.reachable[r];
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (probs[e] <= 0.0) continue;
      shares[e] += sol.pi[r] * probs[e] * transitions_[s][e].cost;
    }
  }
  return shares;
}

std::vector<double> ProtocolChain::transient_costs(
    const std::vector<double>& probs, std::size_t ops) const {
  check_probabilities(probs);
  // Expected cost of one operation from each state.
  std::vector<double> step_cost(transitions_.size(), 0.0);
  for (std::size_t s = 0; s < transitions_.size(); ++s)
    for (std::size_t e = 0; e < events_.size(); ++e)
      if (probs[e] > 0.0) step_cost[s] += probs[e] * transitions_[s][e].cost;

  std::vector<double> distribution(transitions_.size(), 0.0);
  distribution[0] = 1.0;  // the cold initial state
  std::vector<double> out;
  out.reserve(ops);
  for (std::size_t k = 0; k < ops; ++k) {
    double expected = 0.0;
    for (std::size_t s = 0; s < transitions_.size(); ++s)
      if (distribution[s] > 0.0) expected += distribution[s] * step_cost[s];
    out.push_back(expected);
    // distribution <- distribution * P.
    std::vector<double> next(transitions_.size(), 0.0);
    for (std::size_t s = 0; s < transitions_.size(); ++s) {
      if (distribution[s] <= 0.0) continue;
      for (std::size_t e = 0; e < events_.size(); ++e)
        if (probs[e] > 0.0)
          next[transitions_[s][e].next] += distribution[s] * probs[e];
    }
    distribution = std::move(next);
  }
  return out;
}

std::size_t ProtocolChain::warmup_length(const std::vector<double>& probs,
                                         double tolerance,
                                         std::size_t max_ops) const {
  const double steady = average_cost(probs);
  const double band = std::max(tolerance * std::fabs(steady), 1e-12);

  std::vector<double> step_cost(transitions_.size(), 0.0);
  for (std::size_t s = 0; s < transitions_.size(); ++s)
    for (std::size_t e = 0; e < events_.size(); ++e)
      if (probs[e] > 0.0) step_cost[s] += probs[e] * transitions_[s][e].cost;

  std::vector<double> distribution(transitions_.size(), 0.0);
  distribution[0] = 1.0;
  for (std::size_t k = 0; k < max_ops; ++k) {
    double expected = 0.0;
    for (std::size_t s = 0; s < transitions_.size(); ++s)
      if (distribution[s] > 0.0) expected += distribution[s] * step_cost[s];
    if (std::fabs(expected - steady) <= band) return k;
    std::vector<double> next(transitions_.size(), 0.0);
    for (std::size_t s = 0; s < transitions_.size(); ++s) {
      if (distribution[s] <= 0.0) continue;
      for (std::size_t e = 0; e < events_.size(); ++e)
        if (probs[e] > 0.0)
          next[transitions_[s][e].next] += distribution[s] * probs[e];
    }
    distribution = std::move(next);
  }
  return max_ops;
}

linalg::Vector ProtocolChain::stationary(
    const std::vector<double>& probs) const {
  const SolveResult sol = solve(probs);
  linalg::Vector pi(transitions_.size(), 0.0);
  for (std::size_t r = 0; r < sol.reachable.size(); ++r)
    pi[sol.reachable[r]] = sol.pi[r];
  return pi;
}

}  // namespace drsm::analytic
