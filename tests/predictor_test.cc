// Tests for trace-driven prediction and the per-object placement advisor,
// plus sequencer-issued operations in the analytic model (traces tr5/tr6).
#include <gtest/gtest.h>

#include "analytic/predictor.h"
#include "dsm/dsm.h"
#include "support/error.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using fsm::OpKind;
using protocols::ProtocolKind;

sim::SystemConfig make_config(std::size_t n, double s = 100.0,
                              double p = 30.0) {
  sim::SystemConfig config;
  config.num_clients = n;
  config.costs.s = s;
  config.costs.p = p;
  return config;
}

// ---------------------------------------------------------------------------
// Sequencer events in the analytic model.
// ---------------------------------------------------------------------------

TEST(SequencerEvents, WriteThroughTr5Tr6Costs) {
  // A workload where only the sequencer operates: reads are tr5 (free),
  // writes are tr6 (N invalidations), so acc = p * N.
  const std::size_t n = 7;
  analytic::AccSolver solver(make_config(n));
  for (double p : {0.0, 0.3, 1.0}) {
    workload::WorkloadSpec spec;
    spec.name = "sequencer-only";
    spec.events = {{static_cast<NodeId>(n), OpKind::kWrite, p},
                   {static_cast<NodeId>(n), OpKind::kRead, 1.0 - p}};
    EXPECT_NEAR(solver.acc(ProtocolKind::kWriteThrough, spec),
                p * static_cast<double>(n), 1e-9)
        << "p=" << p;
  }
}

TEST(SequencerEvents, MixedClientAndSequencerWorkload) {
  // One client and the sequencer alternate writes: every client read
  // misses after a sequencer write and vice versa.
  const std::size_t n = 4;
  analytic::AccSolver solver(make_config(n));
  workload::WorkloadSpec spec;
  spec.name = "client-plus-sequencer";
  spec.events = {{0, OpKind::kWrite, 0.2},
                 {0, OpKind::kRead, 0.4},
                 {static_cast<NodeId>(n), OpKind::kWrite, 0.1},
                 {static_cast<NodeId>(n), OpKind::kRead, 0.3}};
  const double acc = solver.acc(ProtocolKind::kWriteThrough, spec);
  EXPECT_GT(acc, 0.0);
  // Upper bound: every write at full trace cost plus every client read
  // missing.
  EXPECT_LT(acc, 0.2 * (30 + 4) + 0.1 * 4 + 0.4 * 102 + 1e-9);
}

// ---------------------------------------------------------------------------
// Trace-driven prediction.
// ---------------------------------------------------------------------------

TEST(Predictor, SpecFromTraceRecoversGeneratingFrequencies) {
  const auto truth = workload::read_disturbance(0.3, 0.1, 2);
  workload::GlobalSequenceGenerator gen(truth, 5);
  const auto trace = gen.record(60000, 3);
  const auto spec = analytic::spec_from_trace(trace);
  // Compare event probabilities by (node, op).
  for (const auto& expected : truth.events) {
    double found = 0.0;
    for (const auto& e : spec.events)
      if (e.node == expected.node && e.op == expected.op)
        found = e.probability;
    EXPECT_NEAR(found, expected.probability, 0.01)
        << "node " << expected.node;
  }
}

TEST(Predictor, TraceAndLiveCountsGiveTheSameSpec) {
  // One path from counts to the model: the same operations, recorded as
  // a trace or observed live through AccessStats (one window spanning the
  // whole stream), yield identical sample spaces.  Client 1 only reads and
  // client 2 only writes, so neither may gain a zero-probability event.
  workload::WorkloadSpec truth;
  truth.name = "one-sided-clients";
  truth.events = {{0, OpKind::kRead, 0.4},
                  {0, OpKind::kWrite, 0.2},
                  {1, OpKind::kRead, 0.3},
                  {2, OpKind::kWrite, 0.1}};
  workload::GlobalSequenceGenerator gen(truth, 31);
  const auto trace = gen.record(5000, 3);

  obs::AccessStatsOptions options;
  options.window_ops = 2 * trace.entries.size();
  obs::AccessStats stats(options);
  for (const auto& e : trace.entries) stats.on_access(e.node, e.object, e.op);

  const auto from_trace = analytic::spec_from_trace(trace);
  const auto from_counts =
      analytic::spec_from_counts(stats.node_mix(0), trace.num_clients);
  ASSERT_TRUE(from_counts.has_value());
  ASSERT_EQ(from_trace.events.size(), truth.events.size());
  ASSERT_EQ(from_counts->events.size(), from_trace.events.size());
  for (std::size_t i = 0; i < from_trace.events.size(); ++i) {
    EXPECT_EQ(from_counts->events[i].node, from_trace.events[i].node) << i;
    EXPECT_EQ(from_counts->events[i].op, from_trace.events[i].op) << i;
    EXPECT_EQ(from_counts->events[i].probability,
              from_trace.events[i].probability)
        << i;
  }
}

TEST(Predictor, PredictionMatchesTrueWorkloadAcc) {
  const auto config = make_config(3);
  const auto truth = workload::read_disturbance(0.25, 0.15, 2);
  workload::GlobalSequenceGenerator gen(truth, 9, /*num_objects=*/4);
  const auto trace = gen.record(80000, 3);

  analytic::AccSolver solver(config);
  for (ProtocolKind kind :
       {ProtocolKind::kWriteOnce, ProtocolKind::kBerkeley}) {
    const double true_acc = solver.acc(kind, truth);
    const auto prediction =
        analytic::predict_from_trace(kind, config, trace);
    EXPECT_NEAR(prediction.acc, true_acc, 0.03 * true_acc)
        << protocols::to_string(kind);
    // Uniform object access: shares ~ 1/4 each.
    for (double share : prediction.object_share)
      EXPECT_NEAR(share, 0.25, 0.02);
  }
}

TEST(Predictor, PredictionMatchesReplayMeasurement) {
  // Replay the trace through the DSM and compare measured average cost
  // against the trace-driven prediction.
  const auto config = make_config(3);
  const auto truth = workload::read_disturbance(0.3, 0.2, 2);
  workload::GlobalSequenceGenerator gen(truth, 21, /*num_objects=*/2);
  const auto trace = gen.record(30000, 3);

  const auto prediction = analytic::predict_from_trace(
      ProtocolKind::kWriteThroughV, config, trace);

  dsm::SharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThroughV;
  options.num_clients = 3;
  options.num_objects = 2;
  options.costs = config.costs;
  dsm::SharedMemory memory(options);
  std::uint64_t value = 0;
  // Warm up with a prefix, then measure.
  std::size_t i = 0;
  for (; i < 2000; ++i) {
    const auto& e = trace.entries[i];
    if (e.op == OpKind::kWrite)
      memory.write(e.node, e.object, ++value);
    else
      memory.read(e.node, e.object);
  }
  memory.reset_counters();
  for (; i < trace.entries.size(); ++i) {
    const auto& e = trace.entries[i];
    if (e.op == OpKind::kWrite)
      memory.write(e.node, e.object, ++value);
    else
      memory.read(e.node, e.object);
  }
  EXPECT_NEAR(memory.average_cost(), prediction.acc,
              0.05 * prediction.acc);
}

// ---------------------------------------------------------------------------
// Per-object protocols and the placement advisor.
// ---------------------------------------------------------------------------

workload::OperationTrace heterogeneous_trace(std::size_t ops) {
  // Object 0: single hot writer (client 0) -> ownership protocols free.
  // Object 1: one writer + broad readers with big objects -> update wins.
  workload::OperationTrace trace;
  trace.num_clients = 4;
  trace.num_objects = 2;
  Rng rng(77);
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.bernoulli(0.5)) {
      trace.entries.push_back(
          {0, 0, rng.bernoulli(0.7) ? OpKind::kWrite : OpKind::kRead});
    } else {
      if (rng.bernoulli(0.1)) {
        trace.entries.push_back({0, 1, OpKind::kWrite});
      } else {
        trace.entries.push_back(
            {static_cast<NodeId>(1 + rng.uniform_index(3)), 1,
             OpKind::kRead});
      }
    }
  }
  return trace;
}

TEST(Placement, PerObjectChoiceBeatsEveryUniformChoice) {
  const auto config = make_config(4, /*s=*/5000.0, /*p=*/10.0);
  const auto trace = heterogeneous_trace(20000);
  const auto rec = analytic::recommend_placement(config, trace);
  ASSERT_EQ(rec.object_protocol.size(), 2u);
  // Object 0 (private writes) wants an ownership protocol; object 1
  // (read-shared, huge S) wants an update protocol.
  EXPECT_TRUE(rec.object_protocol[0] == ProtocolKind::kWriteOnce ||
              rec.object_protocol[0] == ProtocolKind::kSynapse ||
              rec.object_protocol[0] == ProtocolKind::kIllinois ||
              rec.object_protocol[0] == ProtocolKind::kBerkeley)
      << protocols::to_string(rec.object_protocol[0]);
  EXPECT_TRUE(rec.object_protocol[1] == ProtocolKind::kDragon ||
              rec.object_protocol[1] == ProtocolKind::kFirefly)
      << protocols::to_string(rec.object_protocol[1]);
  EXPECT_LT(rec.acc, rec.uniform_best_acc - 1e-9);
}

TEST(Placement, PerObjectVectorsFollowTheTouchedObjects) {
  // Objects 0 and 2 of 3 are read or written; object 1 never is, so it
  // gets no entry and entry i describes objects[i].
  workload::OperationTrace trace;
  trace.num_clients = 2;
  trace.num_objects = 3;
  trace.entries = {{0, 0, OpKind::kRead},  {1, 0, OpKind::kWrite},
                   {0, 2, OpKind::kWrite}, {1, 2, OpKind::kRead},
                   {1, 2, OpKind::kRead}};
  workload::OperationTrace object2_only = trace;
  object2_only.entries.erase(object2_only.entries.begin(),
                             object2_only.entries.begin() + 2);
  const auto config = make_config(2);
  const std::vector<ObjectId> touched = {0, 2};

  const auto prediction =
      analytic::predict_from_trace(ProtocolKind::kIllinois, config, trace);
  EXPECT_EQ(prediction.objects, touched);
  ASSERT_EQ(prediction.object_share.size(), 2u);
  ASSERT_EQ(prediction.object_acc.size(), 2u);
  EXPECT_DOUBLE_EQ(prediction.object_share[0], 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(prediction.object_share[1], 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(
      prediction.object_acc[1],
      analytic::predict_from_trace(ProtocolKind::kIllinois, config,
                                   object2_only)
          .acc);
  EXPECT_NEAR(prediction.acc,
              prediction.object_share[0] * prediction.object_acc[0] +
                  prediction.object_share[1] * prediction.object_acc[1],
              1e-12);

  const auto rec = analytic::recommend_placement(config, trace);
  EXPECT_EQ(rec.objects, touched);
  ASSERT_EQ(rec.object_protocol.size(), 2u);
  ASSERT_EQ(rec.object_acc.size(), 2u);
  EXPECT_NEAR(rec.acc,
              prediction.object_share[0] * rec.object_acc[0] +
                  prediction.object_share[1] * rec.object_acc[1],
              1e-12);
}

TEST(Placement, RejectsMoreClientsThanItPrices) {
  workload::OperationTrace trace;
  trace.num_clients = analytic::kMaxTraceClients + 1;
  trace.entries = {{0, 0, OpKind::kRead}, {1, 0, OpKind::kWrite}};
  EXPECT_THROW(analytic::spec_from_trace(trace), Error);
  const auto config = make_config(trace.num_clients);
  EXPECT_THROW(
      analytic::predict_from_trace(ProtocolKind::kIllinois, config, trace),
      Error);
  EXPECT_THROW(analytic::recommend_placement(config, trace), Error);
  trace.num_clients = 2;
  EXPECT_THROW(analytic::recommend_placement(config, trace), Error);
}

TEST(Placement, SharedMemoryHonorsPerObjectProtocols) {
  dsm::SharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 3;
  options.num_objects = 3;
  dsm::SharedMemory memory(options);
  memory.write(0, 0, 10);
  memory.write(0, 1, 11);

  memory.switch_protocol(1, ProtocolKind::kDragon);
  EXPECT_EQ(memory.object_protocol(0), ProtocolKind::kWriteThrough);
  EXPECT_EQ(memory.object_protocol(1), ProtocolKind::kDragon);
  // Values survive the per-object switch; behaviour follows the protocol.
  EXPECT_EQ(memory.read(2, 1), 11u);
  memory.write(1, 1, 12);
  // Dragon: update broadcast, every replica stays readable for free.
  memory.reset_counters();
  EXPECT_EQ(memory.read(2, 1), 12u);
  EXPECT_DOUBLE_EQ(memory.last_op_cost(), 0.0);
  // Object 0 still runs Write-Through: the read after a write misses.
  memory.write(1, 0, 13);
  EXPECT_EQ(memory.read(1, 0), 13u);
  EXPECT_DOUBLE_EQ(memory.last_op_cost(),
                   memory.options().costs.s + 2.0);
}

TEST(Placement, AppliedRecommendationMatchesPredictedCost) {
  const auto config = make_config(4, 5000.0, 10.0);
  const auto trace = heterogeneous_trace(30000);
  const auto rec = analytic::recommend_placement(config, trace);

  dsm::SharedMemory::Options options;
  options.protocol = rec.object_protocol[0];
  options.num_clients = 4;
  options.num_objects = 2;
  options.costs = config.costs;
  dsm::SharedMemory memory(options);
  for (ObjectId j = 0; j < 2; ++j)
    memory.switch_protocol(j, rec.object_protocol[j]);

  std::uint64_t value = 0;
  std::size_t i = 0;
  for (; i < 3000; ++i) {  // warmup
    const auto& e = trace.entries[i];
    if (e.op == OpKind::kWrite)
      memory.write(e.node, e.object, ++value);
    else
      memory.read(e.node, e.object);
  }
  memory.reset_counters();
  for (; i < trace.entries.size(); ++i) {
    const auto& e = trace.entries[i];
    if (e.op == OpKind::kWrite)
      memory.write(e.node, e.object, ++value);
    else
      memory.read(e.node, e.object);
  }
  EXPECT_NEAR(memory.average_cost(), rec.acc, 0.06 * rec.acc + 1e-9);
}

}  // namespace
}  // namespace drsm
