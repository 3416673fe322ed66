#include "sim/replication.h"

#include <cmath>
#include <utility>

namespace drsm::sim {
namespace {

void add_vector(std::vector<Cost>& into, const std::vector<Cost>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0.0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

void add_vector(std::vector<std::size_t>& into,
                const std::vector<std::size_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

ConfidenceInterval interval(const std::vector<double>& samples, double z) {
  ConfidenceInterval ci;
  const std::size_t n = samples.size();
  if (n == 0) return ci;
  double sum = 0.0;
  for (double s : samples) sum += s;
  ci.mean = sum / static_cast<double>(n);
  if (n < 2) return ci;
  double ss = 0.0;
  for (double s : samples) {
    const double d = s - ci.mean;
    ss += d * d;
  }
  ci.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  ci.half_width = z * ci.stddev / std::sqrt(static_cast<double>(n));
  return ci;
}

}  // namespace

double z_for_confidence(double confidence) {
  // Nearest of the supported two-sided levels.
  if (confidence < 0.925) return 1.6449;  // 90 %
  if (confidence < 0.97) return 1.9600;   // 95 %
  return 2.5758;                          // 99 %
}

void merge_stats(SimStats& into, const SimStats& from) {
  into.measured_cost += from.measured_cost;
  into.measured_ops += from.measured_ops;
  into.warmup_cost += from.warmup_cost;
  into.warmup_ops += from.warmup_ops;
  into.reads += from.reads;
  into.writes += from.writes;
  into.messages += from.messages;
  into.end_time += from.end_time;
  into.latency_sum += from.latency_sum;
  into.latency_max = std::max(into.latency_max, from.latency_max);
  into.read_latency_sum += from.read_latency_sum;
  into.write_latency_sum += from.write_latency_sum;
  into.latency_quantiles.merge(from.latency_quantiles);
  for (const auto& [type, count] : from.message_mix)
    into.message_mix[type] += count;
  add_vector(into.cost_by_initiator, from.cost_by_initiator);
  add_vector(into.cost_by_object, from.cost_by_object);
  add_vector(into.handled_by_node, from.handled_by_node);
}

ReplicatedStats run_replications(protocols::ProtocolKind kind,
                                 const SystemConfig& config,
                                 const SimOptions& sim,
                                 const DriverFactory& make_driver,
                                 const ReplicationOptions& options) {
  const std::size_t reps = options.replications;

  // Per-replication result slots, filled in parallel, merged in order.
  struct Rep {
    SimStats stats;
    std::unique_ptr<obs::MetricsRegistry> metrics;
  };
  std::vector<Rep> slots(reps);

  auto run_one = [&](std::size_t r) {
    SimOptions o = sim;
    o.seed = exec::task_seed(options.base_seed, r);
    Rep& slot = slots[r];
    if (options.metrics != nullptr)
      slot.metrics = std::make_unique<obs::MetricsRegistry>();
    EventSimulator simulator(kind, config, o);
    if (slot.metrics) simulator.set_metrics(slot.metrics.get());
    auto driver = make_driver(o.seed, r);
    slot.stats = simulator.run(*driver);
  };

  if (options.runner != nullptr) {
    // The task seed above is a pure function of (options.base_seed, r);
    // the runner's own SweepTask seed is deliberately unused so an
    // externally configured runner cannot perturb results.
    options.runner->for_each(reps,
                             [&](const exec::SweepTask& t) { run_one(t.index); });
  } else {
    exec::SweepRunner runner(
        {.threads = options.threads, .base_seed = options.base_seed});
    runner.for_each(reps,
                    [&](const exec::SweepTask& t) { run_one(t.index); });
  }

  ReplicatedStats out;
  out.replications = reps;
  const double z = z_for_confidence(options.confidence);
  std::vector<double> latency_samples;
  latency_samples.reserve(reps);
  out.acc_samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    merge_stats(out.merged, slots[r].stats);
    out.acc_samples.push_back(slots[r].stats.acc());
    latency_samples.push_back(slots[r].stats.mean_latency());
    if (options.metrics != nullptr && slots[r].metrics)
      options.metrics->merge(*slots[r].metrics);
  }
  out.acc = interval(out.acc_samples, z);
  out.mean_latency = interval(latency_samples, z);

  if (options.metrics != nullptr) {
    options.metrics->counter("replication.runs").inc(reps);
    options.metrics->gauge("replication.acc_mean").set(out.acc.mean);
    options.metrics->gauge("replication.acc_ci_half_width")
        .set(out.acc.half_width);
    options.metrics->gauge("replication.latency_ci_half_width")
        .set(out.mean_latency.half_width);
  }
  return out;
}

}  // namespace drsm::sim
