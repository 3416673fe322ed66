// Experiment E10 (observability) — live telemetry on a phase-changing
// workload.
//
// Two questions, two phases:
//
//  * phase_change: drive an AdaptiveSharedMemory through an abrupt
//    activity-center move (client 0 dominates every object, then client 1
//    takes over).  The built-in AccessStats telemetry must see it: the
//    drift log records one center move per object, the hot set tracks the
//    EWMA access rates, and the analytic classifier
//    (AccSolver::best_protocol over analytic::spec_from_counts of the
//    live per-node mix) produces a protocol recommendation per object
//    from nothing but that mix.
//
//  * sim_stream: attach the same telemetry as an EventSink to a full
//    EventSimulator run (it consumes the kOpIssue stream), proving the
//    sensor needs no cooperation from the workload code, and record the
//    simulator's wall-clock event throughput (sim.events_per_sec).
//
// Report: BENCH_telemetry.json.
#include <cstdio>

#include "adaptive/selector.h"
#include "analytic/predictor.h"
#include "bench_util.h"
#include "obs/access_stats.h"
#include "support/error.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kClients = 3;
constexpr std::size_t kObjects = 8;
constexpr std::size_t kPhaseOps = 4096;

/// A sample space dominated by `center` (reads 0.55 + writes 0.35), with a
/// light read disturbance from the next client over.
workload::WorkloadSpec centered_workload(NodeId center) {
  workload::WorkloadSpec spec;
  spec.name = strfmt("center%u", center);
  const NodeId disturber = (center + 1) % kClients;
  spec.events.push_back({center, fsm::OpKind::kRead, 0.55});
  spec.events.push_back({center, fsm::OpKind::kWrite, 0.35});
  spec.events.push_back({disturber, fsm::OpKind::kRead, 0.10});
  spec.validate();
  return spec;
}

}  // namespace

int main() {
  std::printf("Live telemetry on a phase-changing workload\n"
              "(N=%zu clients, M=%zu objects; 2 phases x %zu ops)\n\n",
              kClients, kObjects, kPhaseOps);
  bench::Report report("telemetry");

  // -- phase_change: activity-center drift through the dsm facade --------
  report.phase("phase_change");
  adaptive::AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = kClients;
  options.memory.num_objects = kObjects;
  options.memory.costs.s = 100.0;
  options.memory.costs.p = 30.0;
  adaptive::AdaptiveSharedMemory memory(options);

  std::uint64_t value = 0;
  std::uint64_t seed = 7;
  for (NodeId center : {NodeId{0}, NodeId{1}}) {
    workload::GlobalSequenceGenerator gen(centered_workload(center), ++seed,
                                          kObjects);
    for (std::size_t i = 0; i < kPhaseOps; ++i) {
      const auto op = gen.next();
      if (op.op == fsm::OpKind::kWrite)
        memory.write(op.node, op.object, ++value);
      else
        memory.read(op.node, op.object);
    }
  }

  const obs::AccessStats& telemetry = memory.telemetry();
  analytic::AccSolver solver({kClients, options.memory.costs, 1});

  std::vector<std::vector<std::string>> rows;
  auto& objects = report.root()["objects"];
  objects = obs::JsonValue::array();
  for (ObjectId j = 0; j < kObjects; ++j) {
    const auto& stats = telemetry.object(j);
    const auto spec =
        analytic::spec_from_counts(telemetry.node_mix(j), kClients);
    DRSM_CHECK(spec.has_value(), "no recent client accesses to the object");
    const auto decision = solver.best_protocol(*spec);
    auto& row = objects.push_back(obs::JsonValue::object());
    row["object"] = static_cast<std::size_t>(j);
    row["reads"] = static_cast<double>(stats.reads);
    row["writes"] = static_cast<double>(stats.writes);
    row["rate"] = stats.rate;
    row["center"] = stats.center == kNoNode
                        ? obs::JsonValue()
                        : obs::JsonValue(static_cast<std::size_t>(stats.center));
    row["center_share"] = stats.center_share;
    row["writer_locality"] = stats.writer_locality;
    row["classified_protocol"] = bench::short_name(decision.protocol);
    row["predicted_acc"] = decision.acc;
    rows.push_back(
        {strfmt("%u", j), strfmt("%llu", (unsigned long long)stats.reads),
         strfmt("%llu", (unsigned long long)stats.writes),
         strfmt("%.1f", stats.rate),
         stats.center == kNoNode ? std::string("-")
                                 : strfmt("%u", stats.center),
         strfmt("%.2f", stats.center_share),
         strfmt("%.2f", stats.writer_locality),
         bench::short_name(decision.protocol)});
  }
  std::printf("%s\n",
              render_table({"object", "reads", "writes", "rate", "center",
                            "share", "w-local", "classified"},
                           rows)
                  .c_str());

  const auto& drifts = telemetry.drift_events();
  std::printf("windows closed: %llu, drift events: %zu, protocol "
              "switches: %zu\n\n",
              (unsigned long long)telemetry.windows(), drifts.size(),
              memory.switches());
  report.root()["telemetry"] = telemetry.to_json(kObjects);
  report.root()["switches"] = memory.switches();

  obs::MetricsRegistry telemetry_metrics;
  telemetry.publish(telemetry_metrics);
  report.root()["telemetry_metrics"] = telemetry_metrics.to_json();

  // -- sim_stream: the same sensor on the event simulator's stream ------
  report.phase("sim_stream");
  obs::AccessStats stream_stats;
  obs::MetricsRegistry sim_metrics;
  sim::SimOptions sim_options;
  sim_options.warmup_ops = 500;
  sim_options.max_ops = 500 + 1500;
  sim_options.seed = 23;
  sim::SystemConfig config{kClients, {100.0, 30.0}, kObjects};
  sim::EventSimulator simulator(ProtocolKind::kWriteOnce, config,
                                sim_options);
  simulator.set_sink(&stream_stats);
  simulator.set_metrics(&sim_metrics);
  workload::ConcurrentDriver driver(workload::read_disturbance(0.3, 0.2, 2),
                                    sim_options.seed ^ 0xBEEF, kObjects);
  const sim::SimStats sim_stats = simulator.run(driver);

  auto& stream = report.root()["sim_stream"];
  stream["accesses_seen"] = static_cast<double>(stream_stats.accesses());
  stream["objects_seen"] = stream_stats.num_objects();
  stream["hot_set"] = stream_stats.to_json(4)["hot_set"];
  const obs::Gauge* eps = sim_metrics.find_gauge("sim.events_per_sec");
  stream["events_per_sec"] = eps == nullptr ? 0.0 : eps->value();
  stream["sim"] = bench::sim_stats_json(sim_stats);
  report.root()["sim_metrics"] = sim_metrics.to_json();
  std::printf("sim_stream: %llu accesses over %zu objects, %.0f events/s\n",
              (unsigned long long)stream_stats.accesses(),
              stream_stats.num_objects(),
              eps == nullptr ? 0.0 : eps->value());

  report.write();
  return 0;
}
