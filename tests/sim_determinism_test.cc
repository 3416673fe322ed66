// Determinism guarantees of the event-engine overhaul:
//
//  * golden trajectories — the time wheel reproduces, message for
//    message, the exact trajectories the pre-overhaul std::function /
//    std::priority_queue engine produced (constants baked from a run of
//    that engine);
//  * scheduler equivalence — full simulations under kTimeWheel and the
//    order-isomorphic kBinaryHeap reference match event for event on all
//    eight protocols;
//  * FIFO channels — per (src, dst) pair, messages are delivered in send
//    order even under random latency;
//  * empty measurement windows — latency statistics degrade to zeros, not
//    garbage, when no operation completes after warmup.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "protocols/protocol.h"
#include "sim/event_sim.h"
#include "test_util.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using protocols::ProtocolKind;
using sim::EventSimulator;
using sim::SimOptions;
using sim::SimStats;
using sim::SystemConfig;

// The fixed scenario the goldens were captured under (N = 3 clients +
// sequencer, 4 objects, random latency 1..5, processing time 2).
SystemConfig golden_config() {
  SystemConfig config;
  config.num_clients = 3;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  config.num_objects = 4;
  return config;
}

SimOptions golden_options() {
  SimOptions options;
  options.max_ops = 6000;
  options.warmup_ops = 500;
  options.seed = 2026;
  options.latency.min_latency = 1;
  options.latency.max_latency = 5;
  options.latency.processing_time = 2;
  return options;
}

using testing::Trajectory;

// Runs the golden scenario and folds every observed message into an
// FNV-1a hash over (time, src, dst, five-tuple, payload).
std::pair<Trajectory, SimStats> run_golden(
    ProtocolKind kind, sim::SchedulerKind scheduler,
    sim::DispatchKind dispatch = sim::DispatchKind::kDenseTable) {
  SimOptions options = golden_options();
  options.scheduler = scheduler;
  options.dispatch = dispatch;
  EventSimulator simulator(kind, golden_config(), options);
  Trajectory traj;
  simulator.set_observer([&](SimTime time, NodeId src, NodeId dst,
                             const fsm::Message& msg) {
    traj.mix_message(static_cast<std::uint64_t>(time), src, dst, msg);
  });
  workload::ConcurrentDriver driver(workload::read_disturbance(0.3, 0.2, 2),
                                    options.seed ^ 0xBEEF,
                                    golden_config().num_objects);
  SimStats stats = simulator.run(driver);
  return {traj, std::move(stats)};
}

struct Golden {
  ProtocolKind kind;
  std::uint64_t hash;
  std::uint64_t events;
  double measured_cost;
  std::size_t measured_ops;
  std::uint64_t messages;
  double latency_sum;
  std::uint64_t end_time;
};

// Captured from the pre-overhaul engine (std::priority_queue of
// heap-allocated closures) at the commit introducing the time wheel.
// These constants are the bit-identity contract: they change only when a
// protocol machine is intentionally fixed, in which case the entry is
// regenerated and the fix noted next to it.
const Golden kGoldens[] = {
    {ProtocolKind::kWriteThrough, 0x5dea33ffed82effaULL, 10087u, 274913.0,
     5500u, 10087u, 32817.0, 397566u},
    {ProtocolKind::kWriteThroughV, 0x768ae5102a8bda17ULL, 11759u, 192405.0,
     5500u, 11759u, 40796.0, 402624u},
    {ProtocolKind::kWriteOnce, 0x480a06bf1c4644a8ULL, 8992u, 208782.0, 5501u,
     8992u, 42875.0, 400231u},
    {ProtocolKind::kSynapse, 0x5e81a75c5007a66eULL, 12228u, 383670.0, 5500u,
     12228u, 58036.0, 405974u},
    {ProtocolKind::kIllinois, 0x981aca4a7977cde3ULL, 8992u, 233012.0, 5501u,
     8992u, 42875.0, 400231u},
    // Berkeley regenerated after the grant/invalidation race fix (the
    // inval_raced_ handling in berkeley.cc): a crossing W-INV no longer
    // lets a stale R-GNT resurrect a VALID copy, which changes raced
    // schedules.  Both schedulers agree on the new trajectory.
    {ProtocolKind::kBerkeley, 0xcf8b0f26562f9b07ULL, 5891u, 135879.0, 5501u,
     5891u, 24217.0, 392498u},
    {ProtocolKind::kDragon, 0x6de89b935407c69dULL, 5409u, 153326.0, 5500u,
     5409u, 11011.0, 389572u},
    {ProtocolKind::kFirefly, 0x23fb60dc12697463ULL, 7168u, 154254.0, 5500u,
     7168u, 27429.0, 399979u},
};

class GoldenTrajectoryTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrajectoryTest, TimeWheelReproducesPreOverhaulEngine) {
  const Golden& golden = GetParam();
  const auto [traj, stats] =
      run_golden(golden.kind, sim::SchedulerKind::kTimeWheel);
  EXPECT_EQ(traj.hash, golden.hash);
  EXPECT_EQ(traj.events, golden.events);
  EXPECT_EQ(stats.measured_cost, golden.measured_cost);  // exact, not NEAR
  EXPECT_EQ(stats.measured_ops, golden.measured_ops);
  EXPECT_EQ(stats.messages, golden.messages);
  EXPECT_EQ(stats.latency_sum, golden.latency_sum);
  EXPECT_EQ(stats.end_time, golden.end_time);
}

TEST_P(GoldenTrajectoryTest, BinaryHeapReferenceMatchesGoldens) {
  const Golden& golden = GetParam();
  const auto [traj, stats] =
      run_golden(golden.kind, sim::SchedulerKind::kBinaryHeap);
  EXPECT_EQ(traj.hash, golden.hash);
  EXPECT_EQ(traj.events, golden.events);
  EXPECT_EQ(stats.end_time, golden.end_time);
}

// The dense dispatch table (the production event loop) and the classic
// switch reference must both reproduce the golden trajectories — the
// dispatch restructuring is a pure control-flow change, so any divergence
// in hash, cost, or end time is a bug, not noise.
TEST_P(GoldenTrajectoryTest, DenseDispatchMatchesClassicSwitchGoldens) {
  const Golden& golden = GetParam();
  const auto [dense_traj, dense_stats] = run_golden(
      golden.kind, sim::SchedulerKind::kTimeWheel,
      sim::DispatchKind::kDenseTable);
  const auto [classic_traj, classic_stats] = run_golden(
      golden.kind, sim::SchedulerKind::kTimeWheel,
      sim::DispatchKind::kClassicSwitch);
  EXPECT_EQ(dense_traj.hash, golden.hash);
  EXPECT_EQ(classic_traj.hash, golden.hash);
  EXPECT_EQ(dense_traj.events, classic_traj.events);
  EXPECT_EQ(dense_stats.measured_cost, classic_stats.measured_cost);
  EXPECT_EQ(dense_stats.measured_ops, classic_stats.measured_ops);
  EXPECT_EQ(dense_stats.messages, classic_stats.messages);
  EXPECT_EQ(dense_stats.latency_sum, classic_stats.latency_sum);
  EXPECT_EQ(dense_stats.end_time, classic_stats.end_time);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, GoldenTrajectoryTest,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param.kind);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Scheduler equivalence on a different configuration (more nodes, longer
// latency spread) than the goldens, so the equivalence is not an artifact
// of one scenario.
// ---------------------------------------------------------------------------

class SchedulerEquivalenceTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SchedulerEquivalenceTest, WheelAndHeapProduceIdenticalTrajectories) {
  SystemConfig config;
  config.num_clients = 5;
  config.num_objects = 3;

  auto run = [&](sim::SchedulerKind scheduler) {
    SimOptions options;
    options.max_ops = 3000;
    options.warmup_ops = 300;
    options.seed = 77;
    options.latency.min_latency = 1;
    options.latency.max_latency = 9;
    options.latency.processing_time = 1;
    options.scheduler = scheduler;
    EventSimulator simulator(GetParam(), config, options);
    std::vector<std::tuple<SimTime, NodeId, NodeId, fsm::MsgType>> log;
    simulator.set_observer([&](SimTime time, NodeId src, NodeId dst,
                               const fsm::Message& msg) {
      log.emplace_back(time, src, dst, msg.token.type);
    });
    workload::ConcurrentDriver driver(
        workload::write_disturbance(0.25, 0.1, 2), 78, config.num_objects);
    const SimStats stats = simulator.run(driver);
    return std::make_pair(std::move(log), stats.end_time);
  };

  const auto wheel = run(sim::SchedulerKind::kTimeWheel);
  const auto heap = run(sim::SchedulerKind::kBinaryHeap);
  ASSERT_EQ(wheel.first.size(), heap.first.size());
  for (std::size_t i = 0; i < wheel.first.size(); ++i)
    ASSERT_EQ(wheel.first[i], heap.first[i]) << "event " << i;
  EXPECT_EQ(wheel.second, heap.second);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SchedulerEquivalenceTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// FIFO channels: for every (src, dst) pair, kMsgRecv order equals kMsgSend
// order even when per-message latency is random — the simulator models
// order-preserving channels, and the ring-buffer rework must not break
// that.
// ---------------------------------------------------------------------------

class FifoChannelSink final : public obs::EventSink {
 public:
  void on_event(const obs::TraceEvent& event) override {
    if (event.kind == obs::EventKind::kMsgSend) {
      sent_[{event.node, event.peer}].push_back(event.msg_id);
    } else if (event.kind == obs::EventKind::kMsgRecv) {
      received_[{event.peer, event.node}].push_back(event.msg_id);
    }
  }

  void verify() const {
    ASSERT_FALSE(sent_.empty());
    for (const auto& [channel, ids] : received_) {
      const auto it = sent_.find(channel);
      ASSERT_NE(it, sent_.end());
      // Every delivery happened, in exactly the send order.
      ASSERT_EQ(ids, it->second)
          << "channel " << channel.first << "->" << channel.second;
    }
  }

 private:
  std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>> sent_;
  std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>> received_;
};

TEST(SimDeterminism, ChannelsAreFifoUnderRandomLatency) {
  for (ProtocolKind kind : {ProtocolKind::kWriteThrough,
                            ProtocolKind::kBerkeley, ProtocolKind::kDragon}) {
    SystemConfig config;
    config.num_clients = 4;
    config.num_objects = 2;
    SimOptions options;
    options.max_ops = 2000;
    options.warmup_ops = 100;
    options.seed = 91;
    options.latency.min_latency = 1;
    options.latency.max_latency = 12;  // wide spread: reordering pressure
    options.latency.processing_time = 1;
    EventSimulator simulator(kind, config, options);
    FifoChannelSink sink;
    simulator.set_sink(&sink);
    workload::ConcurrentDriver driver(
        workload::read_disturbance(0.35, 0.15, 2), 92, config.num_objects);
    simulator.run(driver);
    sink.verify();
  }
}

// ---------------------------------------------------------------------------
// Empty measurement window: a run whose operations all complete inside
// warmup must report zeroed latency statistics (not stale or garbage
// values) — mean 0, max 0, empty latency sketch, percentile 0.
// ---------------------------------------------------------------------------

TEST(SimDeterminism, EmptyMeasurementWindowYieldsZeroLatencyStats) {
  SystemConfig config;
  config.num_clients = 2;
  SimOptions options;
  options.max_ops = 50;
  options.warmup_ops = 50;  // everything is warmup
  options.seed = 5;
  EventSimulator simulator(ProtocolKind::kWriteThrough, config, options);
  workload::ConcurrentDriver driver(workload::ideal_workload(0.3), 6);
  const sim::SimStats stats = simulator.run(driver);

  EXPECT_EQ(stats.measured_ops, 0u);
  EXPECT_GT(stats.warmup_ops, 0u);
  EXPECT_EQ(stats.mean_latency(), 0.0);
  EXPECT_EQ(stats.mean_read_latency(), 0.0);
  EXPECT_EQ(stats.mean_write_latency(), 0.0);
  EXPECT_EQ(stats.latency_max, 0u);
  EXPECT_EQ(stats.latency_sum, 0.0);
  EXPECT_EQ(stats.latency_quantiles.count(), 0u);
  EXPECT_EQ(stats.latency_quantiles.query(0.99), 0.0);
  EXPECT_EQ(stats.acc(), 0.0);
}

}  // namespace
}  // namespace drsm
