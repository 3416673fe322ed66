// Extension bench — the sequencer as a queueing bottleneck.
//
// The paper's metric counts messages; it is blind to *where* they are
// processed.  With a per-message processing time, the fixed-sequencer
// protocols funnel every coherence action through node N, whose
// utilization — and with it operation latency — explodes as load rises.
// Berkeley migrates the sequencer role with ownership and sidesteps the
// funnel.  This bench sweeps the offered load (shrinking think times) and
// reports sequencer utilization and mean operation latency.
//
// Each (think time x protocol) point runs R independent replications
// through sim::run_replications — seeds derived from (point seed,
// replication index), replications fanned across the thread pool, stats
// merged in replication order — so every acc/latency figure carries a
// 95 % confidence interval and is bit-identical at any thread count.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "sim/event_sim.h"
#include "sim/replication.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kN = 16;
constexpr NodeId kHome = kN;
constexpr std::size_t kReplications = 6;

sim::ReplicatedStats run(ProtocolKind kind, double mean_think_time,
                         const workload::WorkloadSpec& spec,
                         std::uint64_t base_seed,
                         obs::MetricsRegistry* metrics) {
  sim::SystemConfig config;
  config.num_clients = kN;
  config.costs.s = 100.0;
  config.costs.p = 30.0;

  sim::SimOptions options;
  options.max_ops = 20000;
  options.warmup_ops = 1000;
  options.latency.min_latency = 2;
  options.latency.max_latency = 2;
  options.latency.processing_time = 4;  // the sequencer is a real server

  sim::ReplicationOptions reps;
  reps.replications = kReplications;
  reps.base_seed = base_seed;
  reps.metrics = metrics;
  return sim::run_replications(
      kind, config, options,
      [&](std::uint64_t seed, std::size_t /*rep*/) {
        return std::make_unique<workload::ConcurrentDriver>(
            spec, seed ^ 0xBEEF, 1, mean_think_time);
      },
      reps);
}

}  // namespace

void sweep(bench::Report& report, obs::MetricsRegistry& registry,
           const char* title, const char* tag,
           const workload::WorkloadSpec& spec) {
  std::printf("%s\n", title);
  const std::vector<double> thinks = {1024.0, 64.0, 16.0};
  const std::vector<ProtocolKind> kinds = {ProtocolKind::kWriteThrough,
                                           ProtocolKind::kBerkeley};

  std::vector<std::vector<std::string>> rows;
  std::size_t point = 0;
  for (double think : thinks) {
    for (ProtocolKind kind : kinds) {
      // Per-point metrics registry, merged into the cumulative one in
      // point order: the snapshot is independent of scheduling.
      obs::MetricsRegistry point_metrics;
      const sim::ReplicatedStats stats =
          run(kind, think, spec, /*base_seed=*/31 + 1000 * point++,
              &point_metrics);
      registry.merge(point_metrics);

      const sim::SimStats& merged = stats.merged;
      double peak = 0.0;
      for (NodeId node = 0; node <= kN; ++node)
        peak = std::max(peak, merged.utilization(node, 4));

      auto& result = report.add_result();
      result["workload"] = tag;
      result["mean_think"] = think;
      result["protocol"] = bench::short_name(kind);
      result["replications"] = static_cast<double>(stats.replications);
      result["acc_mean"] = stats.acc.mean;
      result["acc_ci_half_width"] = stats.acc.half_width;
      result["mean_latency"] = stats.mean_latency.mean;
      result["latency_ci_half_width"] = stats.mean_latency.half_width;
      result["sequencer_utilization"] = merged.utilization(kHome, 4);
      result["peak_utilization"] = peak;
      result["sim"] = bench::sim_stats_json(merged);

      rows.push_back(
          {strfmt("%.0f", think), bench::short_name(kind),
           strfmt("%.2f±%.2f", stats.acc.mean, stats.acc.half_width),
           strfmt("%.1f±%.1f", stats.mean_latency.mean,
                  stats.mean_latency.half_width),
           strfmt("%.0f%%", 100.0 * merged.utilization(kHome, 4)),
           strfmt("%.0f%%", 100.0 * peak)});
    }
  }
  std::printf(
      "%s\n",
      render_table({"mean think", "protocol", "acc (95% CI)",
                    "mean latency (95% CI)", "sequencer util",
                    "peak node util"},
                   rows)
          .c_str());
}

int main() {
  std::printf(
      "Sequencer queueing: N=%zu clients, S=100, P=30, processing time = 4 "
      "per message, %zu replications per point\n\n",
      kN, kReplications);
  bench::Report report("queueing");
  obs::MetricsRegistry registry;
  report.phase("read_disturbance");
  sweep(report, registry,
        "read disturbance (p=0.2, sigma=0.05, a=15) — Berkeley's home turf:",
        "read_disturbance", workload::read_disturbance(0.2, 0.05, kN - 1));
  report.phase("write_disturbance");
  sweep(report, registry,
        "write disturbance (p=0.2, xi=0.05, a=15) — ownership ping-pong:",
        "write_disturbance", workload::write_disturbance(0.2, 0.05, kN - 1));
  // Cumulative registry snapshot across all runs: message mix, latency
  // and sequencer queue-depth sketches, and event-engine counters
  // (sim.events / sim.alloc_bytes / sim.events_per_sec).
  report.root()["sim_metrics"] = registry.to_json();
  report.write();
  std::printf(
      "Observations the paper's cost metric cannot show: (1) acc is flat\n"
      "in offered load, but utilization and queueing latency are not;\n"
      "(2) the fixed sequencer is the hotspot for WT, while Berkeley\n"
      "moves the hotspot to the current owner — decentralization shifts\n"
      "the serialization point rather than removing it; (3) under write\n"
      "disturbance Berkeley pays twice: its migrations block the writer\n"
      "(high latency) while WT's fire-and-forget writes hide theirs.\n");
  return 0;
}
