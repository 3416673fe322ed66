// Tests for the per-object access telemetry (obs/access_stats.h): hot-set
// extraction, activity-center drift detection on a scripted phase change,
// the per-node recent mix, metric publication, and the telemetry-driven
// observe-path classification (analytic::spec_from_counts of the recent
// mix, priced by AccSolver::best_protocol).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "adaptive/selector.h"
#include "analytic/predictor.h"
#include "obs/access_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drsm {
namespace {

using obs::AccessStats;
using obs::AccessStatsOptions;

AccessStatsOptions small_windows() {
  AccessStatsOptions options;
  options.window_ops = 64;
  return options;
}

// Scripted phase: `ops` accesses to `object`, 7 of 8 from `center` (every
// fourth one a write), the rest reads from `disturber`.
void run_phase(AccessStats& stats, ObjectId object, NodeId center,
               NodeId disturber, std::size_t ops) {
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId node = i % 8 == 7 ? disturber : center;
    const fsm::OpKind op =
        node == center && i % 4 == 0 ? fsm::OpKind::kWrite
                                     : fsm::OpKind::kRead;
    stats.on_access(node, object, op);
  }
}

TEST(TelemetryTest, CountsAndWindows) {
  AccessStats stats(small_windows());
  run_phase(stats, 3, 0, 1, 256);
  EXPECT_EQ(stats.accesses(), 256u);
  EXPECT_EQ(stats.reads() + stats.writes(), 256u);
  EXPECT_EQ(stats.windows(), 256u / 64u);
  EXPECT_EQ(stats.num_objects(), 4u);  // grown on demand up to id 3
  const auto& object = stats.object(3);
  EXPECT_EQ(object.reads + object.writes, 256u);
  EXPECT_GT(object.writes, 0u);
  EXPECT_GT(object.rate, 0.0);
}

TEST(TelemetryTest, ActivityCenterAndDriftOnPhaseChange) {
  AccessStats stats(small_windows());
  run_phase(stats, 3, /*center=*/0, /*disturber=*/1, 256);
  EXPECT_EQ(stats.activity_center(3), NodeId{0});
  EXPECT_GT(stats.object(3).center_share, 0.5);

  const std::size_t drifts_before = stats.drift_events().size();
  run_phase(stats, 3, /*center=*/2, /*disturber=*/1, 256);
  EXPECT_EQ(stats.activity_center(3), NodeId{2});

  // Exactly one 0 -> 2 move for the object must be in the drift log.
  std::size_t moves = 0;
  for (const auto& d : stats.drift_events()) {
    if (d.object == 3 && d.from == NodeId{0} && d.to == NodeId{2}) ++moves;
  }
  EXPECT_EQ(moves, 1u);
  EXPECT_GT(stats.drift_events().size(), drifts_before);
}

TEST(TelemetryTest, HotSetOrdersByRate) {
  AccessStats stats(small_windows());
  // Object 5 hot, object 1 lukewarm, object 7 touched once long ago.
  stats.on_access(2, 7, fsm::OpKind::kRead);
  for (std::size_t i = 0; i < 512; ++i) {
    stats.on_access(0, 5, fsm::OpKind::kRead);
    if (i % 4 == 0) stats.on_access(1, 1, fsm::OpKind::kRead);
  }
  const auto hot = stats.hot_set(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].object, ObjectId{5});
  EXPECT_EQ(hot[1].object, ObjectId{1});
  EXPECT_GT(hot[0].rate, hot[1].rate);
  EXPECT_GE(stats.hot_set(8).size(), 2u);
}

TEST(TelemetryTest, NodeMixTracksTheRecentWindow) {
  AccessStats stats(small_windows());
  run_phase(stats, 2, /*center=*/1, /*disturber=*/0, 128);
  const auto mix = stats.node_mix(2);
  ASSERT_GE(mix.size(), 2u);
  EXPECT_GT(mix[1].reads, mix[0].reads);  // center dominates
  EXPECT_GT(mix[1].writes, 0u);
  EXPECT_EQ(mix[0].writes, 0u);  // disturber only reads
}

TEST(TelemetryTest, WriterLocalitySeparatesSingleWriterObjects) {
  AccessStats stats(small_windows());
  // Object 0: node 1 is the only writer.  Object 4: writes alternate.
  for (std::size_t i = 0; i < 128; ++i) {
    stats.on_access(1, 0, fsm::OpKind::kWrite);
    stats.on_access(i % 2, 4, fsm::OpKind::kWrite);
  }
  EXPECT_EQ(stats.object(0).top_writer, NodeId{1});
  EXPECT_EQ(stats.object(0).writer_locality, 1.0);
  EXPECT_NEAR(stats.object(4).writer_locality, 0.5, 0.1);
}

TEST(TelemetryTest, ConsumesOpIssueEventsAndForwards) {
  AccessStats stats(small_windows());
  obs::TraceRecorder downstream(16);
  stats.set_next(&downstream);

  obs::TraceEvent event;
  event.kind = obs::EventKind::kOpIssue;
  event.node = 2;
  event.object = 6;
  event.op = fsm::OpKind::kWrite;
  stats.on_event(event);
  event.op = fsm::OpKind::kRead;
  stats.on_event(event);
  event.kind = obs::EventKind::kMsgSend;  // not an access
  stats.on_event(event);

  EXPECT_EQ(stats.accesses(), 2u);
  EXPECT_EQ(stats.writes(), 1u);
  EXPECT_EQ(stats.object(6).writes, 1u);
  EXPECT_EQ(downstream.total(), 3u);  // everything forwarded, access or not
}

TEST(TelemetryTest, PublishEmitsTheTelemetryMetrics) {
  AccessStats stats(small_windows());
  run_phase(stats, 3, 0, 1, 256);
  obs::MetricsRegistry metrics;
  stats.publish(metrics);

  const obs::Counter* accesses = metrics.find_counter("telemetry.accesses");
  ASSERT_NE(accesses, nullptr);
  EXPECT_EQ(accesses->value(), 256u);
  ASSERT_NE(metrics.find_counter("telemetry.windows"), nullptr);
  const obs::Gauge* hot = metrics.find_gauge("telemetry.hot_object");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->value(), 3.0);
}

TEST(TelemetryTest, ToJsonDescribesTheHotSet) {
  AccessStats stats(small_windows());
  run_phase(stats, 3, 0, 1, 256);
  const obs::JsonValue json = stats.to_json(4);
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.find("accesses")->as_number(), 256.0);
  const obs::JsonValue* hot_set = json.find("hot_set");
  ASSERT_NE(hot_set, nullptr);
  ASSERT_TRUE(hot_set->is_array());
  ASSERT_GE(hot_set->size(), 1u);
  EXPECT_EQ(hot_set->at(0).find("object")->as_number(), 3.0);
}

TEST(TelemetryTest, SpecFromTelemetryMatchesTheObservedMix) {
  AccessStats stats(small_windows());
  run_phase(stats, 0, /*center=*/1, /*disturber=*/0, 128);
  const auto spec =
      analytic::spec_from_counts(stats.node_mix(0), /*num_nodes=*/3);
  ASSERT_TRUE(spec.has_value());
  double total = 0.0;
  double center_share = 0.0;
  for (const auto& event : spec->events) {
    total += event.probability;
    if (event.node == 1) center_share += event.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(center_share, 0.5);
}

TEST(TelemetryTest, SpecFromTelemetryRejectsUntouchedObjects) {
  AccessStats stats(small_windows());
  stats.on_access(0, 0, fsm::OpKind::kRead);
  EXPECT_FALSE(analytic::spec_from_counts(stats.node_mix(5), 3).has_value());
  // Rows at or past num_nodes (here the sequencer, node 3) do not count.
  stats.on_access(3, 1, fsm::OpKind::kWrite);
  EXPECT_FALSE(analytic::spec_from_counts(stats.node_mix(1), 3).has_value());
  EXPECT_TRUE(analytic::spec_from_counts(stats.node_mix(1), 4).has_value());
}

TEST(TelemetryTest, ClassifyObjectPrefersInvalidationForWriteHeavy) {
  sim::SystemConfig config;
  config.num_clients = 3;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  config.num_objects = 2;
  analytic::AccSolver solver(config);

  AccessStats stats(small_windows());
  // Object 0: node 0 writes exclusively.  Object 1: all nodes read.
  for (std::size_t i = 0; i < 256; ++i) {
    stats.on_access(0, 0, fsm::OpKind::kWrite);
    stats.on_access(i % 3, 1, fsm::OpKind::kRead);
  }
  const auto best_for = [&](ObjectId object) {
    return solver.best_protocol(
        analytic::spec_from_counts(stats.node_mix(object), config.num_clients)
            .value());
  };
  const auto writer = best_for(0);
  const auto readers = best_for(1);
  EXPECT_GE(writer.acc, 0.0);
  // An all-read workload costs nothing under any replication protocol.
  EXPECT_NEAR(readers.acc, 0.0, 1e-9);
}

TEST(TelemetryTest, AdaptiveMemoryExposesLiveTelemetry) {
  adaptive::AdaptiveSharedMemory::Options options;
  options.memory.protocol = protocols::ProtocolKind::kWriteThrough;
  options.memory.num_clients = 2;
  options.memory.num_objects = 2;
  adaptive::AdaptiveSharedMemory memory(options);
  memory.write(0, 1, 42);
  EXPECT_EQ(memory.read(1, 1), 42u);
  EXPECT_EQ(memory.telemetry().accesses(), 2u);
  EXPECT_EQ(memory.telemetry().object(1).writes, 1u);
  EXPECT_EQ(memory.telemetry().object(1).reads, 1u);
}

}  // namespace
}  // namespace drsm
