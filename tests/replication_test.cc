// Tests for the replication harness: SimStats merging, seed derivation,
// thread-count invariance (the determinism contract of
// sim::run_replications), and confidence-interval arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "exec/sweep.h"
#include "obs/metrics.h"
#include "sim/replication.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using protocols::ProtocolKind;
using sim::ReplicatedStats;
using sim::ReplicationOptions;
using sim::SimOptions;
using sim::SimStats;
using sim::SystemConfig;

// ---------------------------------------------------------------------------
// merge_stats
// ---------------------------------------------------------------------------

TEST(MergeStats, SumsCountsMaxesMaximaAndMergesLatencySketches) {
  SimStats a;
  a.measured_cost = 10.0;
  a.measured_ops = 4;
  a.reads = 3;
  a.writes = 1;
  a.messages = 7;
  a.end_time = 100;
  a.latency_sum = 20.0;
  a.latency_max = 9;
  a.latency_quantiles.record(3.0);
  a.message_mix[fsm::MsgType::kInval] = 2;
  a.cost_by_object = {1.0, 2.0};

  SimStats b;
  b.measured_cost = 5.0;
  b.measured_ops = 2;
  b.reads = 1;
  b.writes = 1;
  b.messages = 3;
  b.end_time = 50;
  b.latency_sum = 8.0;
  b.latency_max = 15;
  b.latency_quantiles.record(7.0);
  b.message_mix[fsm::MsgType::kInval] = 1;
  b.message_mix[fsm::MsgType::kUpdate] = 4;
  b.cost_by_object = {0.5, 0.5, 2.0};  // longer vector: merge must resize

  sim::merge_stats(a, b);
  EXPECT_DOUBLE_EQ(a.measured_cost, 15.0);
  EXPECT_EQ(a.measured_ops, 6u);
  EXPECT_EQ(a.reads, 4u);
  EXPECT_EQ(a.writes, 2u);
  EXPECT_EQ(a.messages, 10u);
  EXPECT_EQ(a.end_time, 150u);
  EXPECT_DOUBLE_EQ(a.latency_sum, 28.0);
  EXPECT_EQ(a.latency_max, 15u);
  EXPECT_EQ(a.latency_quantiles.count(), 2u);
  EXPECT_DOUBLE_EQ(a.latency_quantiles.sum(), 10.0);
  EXPECT_EQ(a.message_mix[fsm::MsgType::kInval], 3u);
  EXPECT_EQ(a.message_mix[fsm::MsgType::kUpdate], 4u);
  ASSERT_EQ(a.cost_by_object.size(), 3u);
  EXPECT_DOUBLE_EQ(a.cost_by_object[0], 1.5);
  EXPECT_DOUBLE_EQ(a.cost_by_object[2], 2.0);
  EXPECT_DOUBLE_EQ(a.acc(), 15.0 / 6.0);  // pooled mean
}

// ---------------------------------------------------------------------------
// Confidence intervals
// ---------------------------------------------------------------------------

TEST(ConfidenceInterval, ZQuantileMatchesRequestedLevel) {
  EXPECT_DOUBLE_EQ(sim::z_for_confidence(0.90), 1.6449);
  EXPECT_DOUBLE_EQ(sim::z_for_confidence(0.95), 1.9600);
  EXPECT_DOUBLE_EQ(sim::z_for_confidence(0.99), 2.5758);
}

// ---------------------------------------------------------------------------
// run_replications
// ---------------------------------------------------------------------------

ReplicatedStats run(std::size_t reps, std::size_t threads,
                    obs::MetricsRegistry* metrics = nullptr,
                    std::uint64_t base_seed = 0xABCDEF) {
  SystemConfig config;
  config.num_clients = 3;
  config.num_objects = 2;

  SimOptions sim;
  sim.max_ops = 1500;
  sim.warmup_ops = 200;
  sim.latency.min_latency = 1;
  sim.latency.max_latency = 4;
  sim.latency.processing_time = 1;

  ReplicationOptions options;
  options.replications = reps;
  options.base_seed = base_seed;
  options.threads = threads;
  options.metrics = metrics;

  const auto spec = workload::read_disturbance(0.3, 0.2, 2);
  return sim::run_replications(
      ProtocolKind::kBerkeley, config, sim,
      [&](std::uint64_t seed, std::size_t /*rep*/) {
        return std::make_unique<workload::ConcurrentDriver>(
            spec, seed ^ 0xBEEF, config.num_objects);
      },
      options);
}

TEST(RunReplications, MergedTotalsEqualSerialLoopAndAreThreadInvariant) {
  const ReplicatedStats serial = run(6, /*threads=*/1);
  const ReplicatedStats parallel = run(6, /*threads=*/4);

  // Bit-identical regardless of thread count.
  EXPECT_EQ(serial.merged.measured_cost, parallel.merged.measured_cost);
  EXPECT_EQ(serial.merged.measured_ops, parallel.merged.measured_ops);
  EXPECT_EQ(serial.merged.messages, parallel.merged.messages);
  EXPECT_EQ(serial.merged.end_time, parallel.merged.end_time);
  EXPECT_EQ(serial.merged.latency_sum, parallel.merged.latency_sum);
  EXPECT_EQ(serial.merged.latency_max, parallel.merged.latency_max);
  EXPECT_EQ(serial.merged.latency_quantiles.to_json().dump(),
            parallel.merged.latency_quantiles.to_json().dump());
  ASSERT_EQ(serial.acc_samples, parallel.acc_samples);
  EXPECT_EQ(serial.acc.mean, parallel.acc.mean);
  EXPECT_EQ(serial.acc.half_width, parallel.acc.half_width);

  // Replications are genuinely independent runs: distinct seeds, distinct
  // trajectories.
  ASSERT_EQ(serial.acc_samples.size(), 6u);
  EXPECT_NE(serial.acc_samples[0], serial.acc_samples[1]);

  // The interval is centered on the sample mean and brackets it.
  EXPECT_GT(serial.acc.half_width, 0.0);
  EXPECT_LT(serial.acc.lo(), serial.acc.mean);
  EXPECT_GT(serial.acc.hi(), serial.acc.mean);
  // Pooled (merged) acc and unweighted mean of per-rep accs agree closely
  // (equal ops per rep up to in-flight stragglers).
  EXPECT_NEAR(serial.merged.acc(), serial.acc.mean,
              0.01 * serial.acc.mean);
}

TEST(RunReplications, SeedsDeriveFromBaseSeedOnly) {
  const ReplicatedStats a = run(4, 1, nullptr, /*base_seed=*/123);
  const ReplicatedStats b = run(4, 2, nullptr, /*base_seed=*/123);
  const ReplicatedStats c = run(4, 1, nullptr, /*base_seed=*/124);
  EXPECT_EQ(a.acc_samples, b.acc_samples);
  EXPECT_NE(a.acc_samples, c.acc_samples);
}

TEST(RunReplications, SingleReplicationHasDegenerateInterval) {
  const ReplicatedStats one = run(1, 1);
  EXPECT_EQ(one.replications, 1u);
  ASSERT_EQ(one.acc_samples.size(), 1u);
  EXPECT_DOUBLE_EQ(one.acc.mean, one.acc_samples[0]);
  EXPECT_EQ(one.acc.half_width, 0.0);
  EXPECT_EQ(one.acc.stddev, 0.0);
}

TEST(RunReplications, PublishesMergedMetricsInReplicationOrder) {
  obs::MetricsRegistry metrics;
  const ReplicatedStats stats = run(3, 2, &metrics);

  const obs::Counter* runs = metrics.find_counter("replication.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value(), 3u);

  // Per-replication simulator counters merged across all replications.
  const obs::Counter* messages = metrics.find_counter("sim.messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_EQ(messages->value(), stats.merged.messages);

  const obs::Gauge* mean = metrics.find_gauge("replication.acc_mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_DOUBLE_EQ(mean->value(), stats.acc.mean);

  // The registry's latency sketch covers the same operations as the
  // merged SimStats sketch.
  const obs::Quantile* latency = metrics.find_quantile("sim.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), stats.merged.latency_quantiles.count());

  // Sketches merge in replication order, so the thread count cannot
  // change a single quantile.
  obs::MetricsRegistry serial;
  obs::MetricsRegistry parallel;
  run(3, 1, &serial);
  run(3, 4, &parallel);
  ASSERT_NE(serial.to_json().find("quantiles"), nullptr);
  EXPECT_EQ(serial.to_json().find("quantiles")->dump(),
            parallel.to_json().find("quantiles")->dump());
}

TEST(RunReplications, ExternalRunnerGivesSameResultsAsInternal) {
  exec::SweepRunner runner({.threads = 3, .base_seed = 999});  // ignored base
  SystemConfig config;
  config.num_clients = 3;
  config.num_objects = 2;
  SimOptions sim;
  sim.max_ops = 800;
  sim.warmup_ops = 100;
  ReplicationOptions internal;
  internal.replications = 4;
  internal.base_seed = 0xABCDEF;
  internal.threads = 1;
  ReplicationOptions external = internal;
  external.runner = &runner;

  const auto spec = workload::read_disturbance(0.25, 0.1, 2);
  auto factory = [&](std::uint64_t seed, std::size_t /*rep*/) {
    return std::make_unique<workload::ConcurrentDriver>(spec, seed ^ 0xBEEF,
                                                        config.num_objects);
  };
  const ReplicatedStats a = sim::run_replications(
      ProtocolKind::kWriteOnce, config, sim, factory, internal);
  const ReplicatedStats b = sim::run_replications(
      ProtocolKind::kWriteOnce, config, sim, factory, external);
  EXPECT_EQ(a.acc_samples, b.acc_samples);
  EXPECT_EQ(a.merged.measured_cost, b.merged.measured_cost);
  EXPECT_EQ(a.merged.end_time, b.merged.end_time);
}

}  // namespace
}  // namespace drsm
