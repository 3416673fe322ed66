#include "analytic/solver.h"

#include <chrono>
#include <map>

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
  Shard& shard = shards_[hash & (kNumShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (const Entry& entry : shard.entries)
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
  shard.entries.push_back(std::move(entry));
  const ProtocolChain& built = *shard.entries.back().chain;

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
  const double result = c.average_cost(spec.probabilities());
  {
    std::lock_guard<std::mutex> metrics_lock(metrics_mutex_);
    if (metrics_ != nullptr) {
      const ProtocolChain::SolveTelemetry telemetry = c.telemetry();
      metrics_->counter("analytic.solves").inc();
      metrics_->counter("analytic.power_iterations")
          .inc(telemetry.last.iterations);
      if (telemetry.last.warm_started)
        metrics_->counter("analytic.warm_starts").inc();
      metrics_->gauge("analytic.last_residual").set(telemetry.last.residual);
      metrics_->gauge("analytic.last_solve_states")
          .set(static_cast<double>(telemetry.last.states));
      metrics_->quantile("analytic.solve_ms").record(ms_since(start));
    }
  }
  return result;
}

std::vector<double> AccSolver::acc_batch(
    protocols::ProtocolKind kind,
    const std::vector<workload::WorkloadSpec>& specs) {
  std::vector<double> out(specs.size(), 0.0);
  // Group cells by chain-cache key; each group shares one chain and one
  // batched solve.  std::map keeps group order deterministic.
  std::map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < specs.size(); ++i)
    groups[chain_hash(kind, specs[i])].push_back(i);

  const auto start = std::chrono::steady_clock::now();
  std::size_t total_groups = 0;
  std::size_t total_direct = 0;
  std::size_t total_power_iterations = 0;
  for (const auto& [hash, cells] : groups) {
    const ProtocolChain& c = chain(kind, specs[cells.front()]);
    std::vector<std::vector<double>> probs;
    probs.reserve(cells.size());
    for (std::size_t cell : cells)
      probs.push_back(specs[cell].probabilities());
    ProtocolChain::BatchTelemetry tel;
    const std::vector<double> acc = c.average_cost_batch(probs, &tel);
    for (std::size_t i = 0; i < cells.size(); ++i) out[cells[i]] = acc[i];
    total_groups += tel.groups;
    total_direct += tel.direct_lanes;
    total_power_iterations += tel.power_iterations;
  }
  {
    std::lock_guard<std::mutex> metrics_lock(metrics_mutex_);
    if (metrics_ != nullptr) {
      metrics_->counter("analytic.batch_solves").inc();
      metrics_->counter("analytic.batch_lanes").inc(specs.size());
      metrics_->counter("analytic.batch_groups").inc(total_groups);
      metrics_->counter("analytic.batch_direct_lanes").inc(total_direct);
      metrics_->counter("analytic.batch_power_iterations")
          .inc(total_power_iterations);
      metrics_->quantile("analytic.batch_solve_ms").record(ms_since(start));
    }
  }
  return out;
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
