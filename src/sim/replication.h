// Replication harness: R independent simulation replications of one
// configuration, fanned across exec::SweepRunner and merged in fixed
// order.
//
// The paper's Table 7 compares the analytic acc against a *simulated*
// acc; a single finite run of the stochastic simulator carries sampling
// error, so the honest comparison uses several independent replications
// and a confidence interval around their mean.  This header provides
// exactly that:
//
//  * each replication r runs with seed task_seed(base_seed, r) — a pure
//    function of the options, never of thread schedule — and its own
//    WorkloadDriver built by a caller-supplied factory;
//  * replications execute in parallel on a SweepRunner (results land in
//    per-replication slots, so thread count cannot affect them);
//  * SimStats are merged replication-by-replication in index order —
//    counters and cost sums add, latency_max maxes, latency sketches
//    merge through obs::Quantile::merge — yielding the same totals and
//    the same sketch as a serial loop, bit for bit;
//  * the per-replication acc and mean-latency samples feed a normal-
//    approximation confidence interval (z interval; R is small but the
//    per-replication means are already averages over thousands of
//    operations).
//
// Determinism contract (enforced by tests/replication_test.cc): for
// fixed (options, base_seed, replications), run_replications returns
// bit-identical ReplicatedStats for every thread count, including 1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/sweep.h"
#include "obs/metrics.h"
#include "protocols/protocol.h"
#include "sim/config.h"
#include "sim/event_sim.h"

namespace drsm::sim {

/// Builds the workload driver for one replication.  `seed` is the
/// replication's derived seed (also installed as SimOptions::seed);
/// `rep` its index.  Factories typically derive driver-private seeds,
/// e.g. `seed ^ 0xBEEF`, so the driver and simulator streams differ.
using DriverFactory = std::function<std::unique_ptr<WorkloadDriver>(
    std::uint64_t seed, std::size_t rep)>;

/// Normal-approximation confidence interval over per-replication means.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  // z * s / sqrt(R); 0 when R < 2
  double stddev = 0.0;      // sample standard deviation of the means

  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
};

struct ReplicationOptions {
  std::size_t replications = 8;
  /// Base of the per-replication seed derivation
  /// (exec::task_seed(base_seed, rep)).
  std::uint64_t base_seed = 0x5EEDBA5EULL;
  /// Confidence level of the reported intervals; one of 0.90, 0.95,
  /// 0.99 (nearest is used).
  double confidence = 0.95;
  /// Threads for the internally constructed runner; ignored when
  /// `runner` is set.  0 = ThreadPool default.
  std::size_t threads = 0;
  /// Optional externally owned runner to fan replications across (its
  /// base_seed is ignored; seeds always derive from this struct's).
  exec::SweepRunner* runner = nullptr;
  /// When non-null: each replication's simulator metrics are merged in
  /// replication order into this registry, plus replication.* summary
  /// gauges (see docs/OBSERVABILITY.md).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Merged results of R replications plus the per-replication spread.
struct ReplicatedStats {
  /// All replications merged: counts/costs/latency sums added in
  /// replication order, latency_max maxed, latency sketches merged,
  /// end_time summed (total simulated time across replications).
  /// merged.acc() is the pooled (operation-weighted) mean.
  SimStats merged;

  std::size_t replications = 0;
  std::vector<double> acc_samples;  // per-replication acc, in rep order
  ConfidenceInterval acc;           // over acc_samples (unweighted)
  ConfidenceInterval mean_latency;  // over per-replication mean latency
};

/// z quantile for the two-sided confidence level (0.90/0.95/0.99;
/// nearest of the three).
double z_for_confidence(double confidence);

/// Adds `from` into `into` (the merge order is the caller's
/// responsibility; run_replications applies it in replication order).
void merge_stats(SimStats& into, const SimStats& from);

/// Runs `options.replications` independent replications of
/// (kind, config, sim) and merges them.  sim.seed is overwritten per
/// replication with task_seed(options.base_seed, rep).
ReplicatedStats run_replications(protocols::ProtocolKind kind,
                                 const SystemConfig& config,
                                 const SimOptions& sim,
                                 const DriverFactory& make_driver,
                                 const ReplicationOptions& options = {});

}  // namespace drsm::sim
