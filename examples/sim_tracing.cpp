// sim_tracing — records a full discrete-event simulation run with the
// observability layer and exports it:
//   * drsm_sim.trace.json   Chrome trace-event format; open it in Perfetto
//                           (ui.perfetto.dev) or chrome://tracing to see
//                           one track per node with operation spans and a
//                           "network" track with every message as an async
//                           arrow from send to receive;
//   * drsm_sim.trace.jsonl  the same events, one JSON object per line,
//                           for ad-hoc scripting;
// and prints the metrics-registry snapshot that the simulator published
// (message mix, counters, and GK quantile sketches of the operation
// latency and the sequencer's queue depth).
//
// Usage: sim_tracing [protocol] [ops]   (default: write-once, 400 ops)
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/protocol.h"
#include "sim/event_sim.h"
#include "workload/generator.h"

using namespace drsm;

int main(int argc, char** argv) {
  protocols::ProtocolKind kind = protocols::ProtocolKind::kWriteOnce;
  std::size_t ops = 400;
  if (argc > 1) {
    try {
      kind = protocols::protocol_from_string(argv[1]);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (argc > 2) ops = static_cast<std::size_t>(std::strtoul(argv[2], nullptr, 10));

  sim::SystemConfig config;
  config.num_clients = 4;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  config.num_objects = 2;

  sim::SimOptions options;
  options.max_ops = ops;
  options.warmup_ops = ops / 4;
  options.seed = 7;
  options.latency.min_latency = 1;
  options.latency.max_latency = 4;
  options.latency.processing_time = 2;

  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  sim::EventSimulator simulator(kind, config, options);
  simulator.set_sink(&recorder);
  simulator.set_metrics(&metrics);

  const auto spec = workload::read_disturbance(0.3, 0.1, 3);
  workload::ConcurrentDriver driver(spec, 11, config.num_objects);
  const sim::SimStats stats = simulator.run(driver);

  std::printf(
      "%s: %zu ops simulated, acc %.2f, %zu inter-node messages, "
      "mean latency %.1f\n",
      protocols::to_string(kind), stats.measured_ops + stats.warmup_ops,
      stats.acc(), stats.messages, stats.mean_latency());
  std::printf("trace: %llu events recorded (%llu dropped by the ring)\n",
              static_cast<unsigned long long>(recorder.total()),
              static_cast<unsigned long long>(recorder.dropped()));

  recorder.write_chrome_trace("drsm_sim.trace.json", 10.0);
  recorder.write_jsonl("drsm_sim.trace.jsonl");
  std::printf(
      "wrote drsm_sim.trace.json (load in ui.perfetto.dev) and "
      "drsm_sim.trace.jsonl\n\n");

  std::printf("metrics snapshot:\n%s",
              metrics.to_json().dump(2).c_str());
  return 0;
}
