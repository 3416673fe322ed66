// High-level entry point for analytic predictions: caches ProtocolChains
// per (protocol, sample-space structure) so parameter sweeps re-solve the
// same chain with new probabilities instead of re-enumerating state spaces.
// A grid is priced by calling acc() once per cell.
//
// The cache is one mutex-guarded list of entries, each tagged with a 64-bit
// hash of the (protocol, event-structure) pair: a lookup streams the hash
// straight off the spec's events — no per-call key materialization — and
// touches the stored signature only on a hash match (collision
// verification).  Threads sharing one solver serialize on the cache lookup
// (and on a chain build) but solve concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "analytic/chain.h"
#include "obs/metrics.h"

namespace drsm::analytic {

class AccSolver {
 public:
  explicit AccSolver(const sim::SystemConfig& config) : config_(config) {}

  /// Attaches a metrics registry: chain enumeration (count, states, build
  /// time) and every stationary solve (count, power iterations, residual,
  /// solve time) publish into it.  Pass nullptr to detach.  Metric names
  /// are listed in docs/OBSERVABILITY.md.  Publication is mutex-guarded,
  /// so a shared registry stays consistent under concurrent acc() calls.
  void set_metrics(obs::MetricsRegistry* metrics) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_ = metrics;
  }

  /// Exact steady-state average communication cost per operation.
  /// Thread-safe; concurrent calls share cached chains.
  double acc(protocols::ProtocolKind kind, const workload::WorkloadSpec& spec);

  /// The cached chain for this (protocol, sample-space structure).  The
  /// reference stays valid for the solver's lifetime.
  const ProtocolChain& chain(protocols::ProtocolKind kind,
                             const workload::WorkloadSpec& spec);

  /// The protocol with minimum predicted acc for this workload among
  /// `candidates` (all eight when empty; the first wins ties), with that
  /// acc — the paper's "classifier for the development of adaptive data
  /// replication coherence protocols".  Candidates are priced in order.
  struct Choice {
    protocols::ProtocolKind protocol = protocols::ProtocolKind::kWriteThrough;
    double acc = 0.0;
  };
  Choice best_protocol(const workload::WorkloadSpec& spec,
                       std::vector<protocols::ProtocolKind> candidates = {});

  const sim::SystemConfig& config() const { return config_; }

 private:
  /// One cached chain.  `signature` holds the exact (node, op) structure
  /// for verification when two structures collide on `hash`.
  struct Entry {
    std::uint64_t hash = 0;
    protocols::ProtocolKind kind = protocols::ProtocolKind::kWriteThrough;
    std::vector<std::pair<NodeId, int>> signature;
    std::unique_ptr<ProtocolChain> chain;
  };
  static std::uint64_t chain_hash(protocols::ProtocolKind kind,
                                  const workload::WorkloadSpec& spec);
  static bool matches(const Entry& entry, protocols::ProtocolKind kind,
                      const workload::WorkloadSpec& spec);

  sim::SystemConfig config_;
  std::mutex cache_mutex_;  // guards entries_
  std::vector<Entry> entries_;
  std::mutex metrics_mutex_;  // guards metrics_ and all publication into it
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace drsm::analytic
