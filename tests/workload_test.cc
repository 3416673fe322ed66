// Unit tests for workload characterization: the three deviations'
// sample spaces, generators, trace recording/replay, and parameter
// estimation from traces (analytic::spec_from_trace).
#include <gtest/gtest.h>

#include "analytic/predictor.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace drsm::workload {
namespace {

using fsm::OpKind;

TEST(Spec, IdealWorkloadShape) {
  const WorkloadSpec spec = ideal_workload(0.3);
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.roster(), std::vector<NodeId>{0});
  EXPECT_DOUBLE_EQ(spec.events[0].probability, 0.3);
  EXPECT_DOUBLE_EQ(spec.events[1].probability, 0.7);
}

TEST(Spec, ReadDisturbanceShape) {
  const WorkloadSpec spec = read_disturbance(0.2, 0.1, 3);
  ASSERT_EQ(spec.events.size(), 5u);
  EXPECT_EQ(spec.roster(), (std::vector<NodeId>{0, 1, 2, 3}));
  // Activity-center read probability is 1 - p - a*sigma.
  EXPECT_NEAR(spec.events[1].probability, 1.0 - 0.2 - 3 * 0.1, 1e-12);
  for (std::size_t k = 2; k < 5; ++k) {
    EXPECT_EQ(spec.events[k].op, OpKind::kRead);
    EXPECT_DOUBLE_EQ(spec.events[k].probability, 0.1);
  }
}

TEST(Spec, WriteDisturbanceShape) {
  const WorkloadSpec spec = write_disturbance(0.1, 0.05, 2);
  ASSERT_EQ(spec.events.size(), 4u);
  EXPECT_EQ(spec.events[2].op, OpKind::kWrite);
  EXPECT_EQ(spec.events[3].op, OpKind::kWrite);
}

TEST(Spec, MultipleActivityCentersShape) {
  const WorkloadSpec spec = multiple_activity_centers(0.4, 4);
  ASSERT_EQ(spec.events.size(), 8u);
  double write_total = 0.0;
  for (const EventSpec& e : spec.events)
    if (e.op == OpKind::kWrite) write_total += e.probability;
  EXPECT_NEAR(write_total, 0.4, 1e-12);
}

TEST(Spec, RejectsOverfullProbabilities) {
  EXPECT_THROW(read_disturbance(0.8, 0.2, 2), Error);
  EXPECT_THROW(write_disturbance(0.5, 0.3, 2), Error);
  EXPECT_THROW(ideal_workload(1.5), Error);
  EXPECT_THROW(multiple_activity_centers(0.5, 0), Error);
}

TEST(Generator, FrequenciesMatchSampleSpace) {
  const WorkloadSpec spec = read_disturbance(0.25, 0.1, 2);
  GlobalSequenceGenerator gen(spec, 99);
  std::size_t ac_writes = 0, disturber_reads = 0, total = 100000;
  for (std::size_t i = 0; i < total; ++i) {
    const TraceEntry e = gen.next();
    if (e.node == 0 && e.op == OpKind::kWrite) ++ac_writes;
    if (e.node >= 1 && e.op == OpKind::kRead) ++disturber_reads;
  }
  EXPECT_NEAR(ac_writes / double(total), 0.25, 0.01);
  EXPECT_NEAR(disturber_reads / double(total), 0.2, 0.01);
}

TEST(Generator, SpreadsAccessesOverObjects) {
  GlobalSequenceGenerator gen(ideal_workload(0.5), 3, /*num_objects=*/4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[gen.next().object];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Generator, ZipfSkewConcentratesAccesses) {
  const auto weights = zipf_weights(8, 1.2);
  ASSERT_EQ(weights.size(), 8u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_GT(weights[0], weights[7]);

  GlobalSequenceGenerator gen(ideal_workload(0.5), 9, 8, weights);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 40000; ++i) ++counts[gen.next().object];
  // Hot object dominates; the popularity ranking is monotone.
  EXPECT_GT(counts[0], 3 * counts[7]);
  EXPECT_GT(counts[0], counts[3]);
  // Expected share of object 0: w0 / sum(w).
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  EXPECT_NEAR(counts[0] / 40000.0, 1.0 / total_weight, 0.02);
}

TEST(Generator, ZipfZeroExponentIsUniform) {
  const auto weights = zipf_weights(4, 0.0);
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0);
  EXPECT_THROW(zipf_weights(0, 1.0), Error);
  EXPECT_THROW(GlobalSequenceGenerator(ideal_workload(0.5), 1, 4,
                                       {1.0, 2.0}),
               Error);  // weight/object mismatch
}

TEST(Trace, RecordAndEstimateParameters) {
  const WorkloadSpec spec = read_disturbance(0.3, 0.05, 2);
  GlobalSequenceGenerator gen(spec, 123);
  const OperationTrace trace = gen.record(50000, /*num_clients=*/3);
  ASSERT_EQ(trace.entries.size(), 50000u);
  // The estimate is the trace's empirical sample space, in node order
  // with each node's read before its write.
  const WorkloadSpec est = analytic::spec_from_trace(trace);
  double write_probability = 0.0;
  for (const EventSpec& e : est.events)
    if (e.op == OpKind::kWrite) write_probability += e.probability;
  EXPECT_NEAR(write_probability, 0.3, 0.02);
  ASSERT_EQ(est.events.size(), 4u);  // node 0 read/write, nodes 1-2 read
  EXPECT_EQ(est.events[2].node, 1u);
  EXPECT_NEAR(est.events[2].probability, 0.05, 0.01);
  EXPECT_EQ(est.events[1].op, OpKind::kWrite);
  EXPECT_NEAR(est.events[1].probability, 0.3, 0.02);
}

TEST(Trace, ReplayPreservesPerNodeProgramOrder) {
  OperationTrace trace;
  trace.num_clients = 2;
  trace.entries = {{0, 0, OpKind::kWrite},
                   {1, 0, OpKind::kRead},
                   {0, 0, OpKind::kRead}};
  TraceReplayDriver driver(trace);
  auto op1 = driver.next_op(0);
  ASSERT_TRUE(op1.has_value());
  EXPECT_EQ(op1->kind, OpKind::kWrite);
  auto op2 = driver.next_op(0);
  ASSERT_TRUE(op2.has_value());
  EXPECT_EQ(op2->kind, OpKind::kRead);
  EXPECT_FALSE(driver.next_op(0).has_value());
  EXPECT_TRUE(driver.next_op(1).has_value());
  EXPECT_FALSE(driver.next_op(5).has_value());
}

TEST(ConcurrentDriver, RatesFollowNodeShares) {
  const WorkloadSpec spec = read_disturbance(0.5, 0.125, 2);
  ConcurrentDriver driver(spec, 7, 1, /*mean_think_time=*/16.0);
  // Node 0 holds share 0.75, nodes 1-2 hold 0.125 each; expected think
  // times are inversely proportional.
  double t0 = 0.0, t1 = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    t0 += static_cast<double>(driver.next_op(0)->think_time);
    t1 += static_cast<double>(driver.next_op(1)->think_time);
  }
  // Ceil-rounding biases small means up slightly; compare loosely.
  EXPECT_NEAR(t0 / reps, 16.0 / 0.75, 2.0);
  EXPECT_NEAR(t1 / reps, 16.0 / 0.125, 6.0);
  EXPECT_FALSE(driver.next_op(3).has_value());  // silent node
}

TEST(ConcurrentDriver, OpMixConditionalOnNode) {
  const WorkloadSpec spec = write_disturbance(0.2, 0.1, 1);
  ConcurrentDriver driver(spec, 11);
  int writes = 0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i)
    if (driver.next_op(0)->kind == OpKind::kWrite) ++writes;
  // Node 0: P(write | node 0) = 0.2 / (0.2 + 0.7).
  EXPECT_NEAR(writes / double(reps), 0.2 / 0.9, 0.02);
  // Node 1 only writes.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(driver.next_op(1)->kind, OpKind::kWrite);
}

}  // namespace
}  // namespace drsm::workload
