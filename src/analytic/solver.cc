#include "analytic/solver.h"

#include <chrono>

#include "support/error.h"
#include "support/hash.h"

namespace drsm::analytic {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::uint64_t AccSolver::chain_hash(protocols::ProtocolKind kind,
                                    const workload::WorkloadSpec& spec) {
  std::uint64_t h = hash_mix(static_cast<std::uint64_t>(kind) + 1);
  for (const auto& e : spec.events) {
    h = hash_combine(h, static_cast<std::uint64_t>(e.node));
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<int>(e.op)));
  }
  return h;
}

bool AccSolver::matches(const Entry& entry, protocols::ProtocolKind kind,
                        const workload::WorkloadSpec& spec) {
  if (entry.kind != kind || entry.signature.size() != spec.events.size())
    return false;
  for (std::size_t i = 0; i < entry.signature.size(); ++i) {
    if (entry.signature[i].first != spec.events[i].node ||
        entry.signature[i].second != static_cast<int>(spec.events[i].op))
      return false;
  }
  return true;
}

const ProtocolChain& AccSolver::chain(protocols::ProtocolKind kind,
                                      const workload::WorkloadSpec& spec) {
  const std::uint64_t hash = chain_hash(kind, spec);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const Entry& entry : entries_)
    if (entry.hash == hash && matches(entry, kind, spec))
      return *entry.chain;

  const auto start = std::chrono::steady_clock::now();
  Entry entry;
  entry.hash = hash;
  entry.kind = kind;
  entry.signature.reserve(spec.events.size());
  for (const auto& e : spec.events)
    entry.signature.emplace_back(e.node, static_cast<int>(e.op));
  entry.chain = std::make_unique<ProtocolChain>(kind, config_, spec);
  entries_.push_back(std::move(entry));
  const ProtocolChain& built = *entries_.back().chain;

  {
    std::lock_guard<std::mutex> metrics_lock(metrics_mutex_);
    if (metrics_ != nullptr) {
      metrics_->counter("analytic.chains_built").inc();
      metrics_->counter("analytic.chain_states").inc(built.num_states());
      metrics_->quantile("analytic.chain_build_ms").record(ms_since(start));
    }
  }
  return built;
}

double AccSolver::acc(protocols::ProtocolKind kind,
                      const workload::WorkloadSpec& spec) {
  const ProtocolChain& c = chain(kind, spec);
  const auto start = std::chrono::steady_clock::now();
  // This call's own statistics: the chain's telemetry().last may already
  // hold another thread's solve.
  linalg::SolveStats stats;
  const double result = c.average_cost(spec.probabilities(), &stats);
  {
    std::lock_guard<std::mutex> metrics_lock(metrics_mutex_);
    if (metrics_ != nullptr) {
      metrics_->counter("analytic.solves").inc();
      metrics_->counter("analytic.power_iterations").inc(stats.iterations);
      if (stats.warm_started) metrics_->counter("analytic.warm_starts").inc();
      metrics_->gauge("analytic.last_residual").set(stats.residual);
      metrics_->gauge("analytic.last_solve_states")
          .set(static_cast<double>(stats.states));
      metrics_->quantile("analytic.solve_ms").record(ms_since(start));
    }
  }
  return result;
}

AccSolver::Choice AccSolver::best_protocol(
    const workload::WorkloadSpec& spec,
    std::vector<protocols::ProtocolKind> candidates) {
  if (candidates.empty())
    candidates.assign(protocols::kAllProtocols.begin(),
                      protocols::kAllProtocols.end());
  Choice best{candidates.front(), acc(candidates.front(), spec)};
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double candidate_acc = acc(candidates[i], spec);
    if (candidate_acc < best.acc) best = {candidates[i], candidate_acc};
  }
  return best;
}

}  // namespace drsm::analytic
