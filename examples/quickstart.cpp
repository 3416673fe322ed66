// Quickstart: the three things drsm does.
//
//  1. Run a program against a replicated shared memory under a chosen
//     coherence protocol, with every message accounted (dsm::SharedMemory).
//  2. Predict the steady-state average communication cost per operation
//     (acc) of any (protocol, workload) pair analytically — the paper's
//     contribution, automated (analytic::AccSolver).
//  3. Validate the prediction against a discrete-event simulation of the
//     full message-passing system (sim::EventSimulator).
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "analytic/solver.h"
#include "dsm/dsm.h"
#include "sim/event_sim.h"
#include "workload/generator.h"

using namespace drsm;

int main() {
  // --- 1. A replicated shared memory -------------------------------------
  // Three client nodes plus a sequencer, four shared objects, Berkeley
  // coherence.  S (object transfer cost) = 100, P (write parameters) = 30.
  dsm::SharedMemory::Options options;
  options.protocol = protocols::ProtocolKind::kBerkeley;
  options.num_clients = 3;
  options.num_objects = 4;
  options.costs.s = 100.0;
  options.costs.p = 30.0;
  dsm::SharedMemory memory(options);

  memory.write(/*node=*/0, /*object=*/2, 42);   // node 0 publishes
  const std::uint64_t seen = memory.read(1, 2); // node 1 observes it
  std::printf("node 1 read object 2 -> %llu (cost of that read: %.0f)\n",
              static_cast<unsigned long long>(seen), memory.last_op_cost());
  memory.read(1, 2);  // now locally replicated: free
  std::printf("second read cost: %.0f (replica hit)\n",
              memory.last_op_cost());

  // --- 2. Analytic prediction --------------------------------------------
  // A read-disturbance workload: client 0 is the activity center (writes
  // with probability p = 0.3), clients 1..2 read with sigma = 0.1 each.
  sim::SystemConfig config;
  config.num_clients = options.num_clients;
  config.costs = options.costs;
  const auto workload_spec = workload::read_disturbance(0.3, 0.1, 2);

  analytic::AccSolver solver(config);
  std::printf("\npredicted steady-state cost per operation (acc):\n");
  for (auto kind : protocols::kAllProtocols)
    std::printf("  %-16s %8.2f\n", protocols::to_string(kind),
                solver.acc(kind, workload_spec));
  const auto best = solver.best_protocol(workload_spec);
  std::printf("cheapest protocol for this workload: %s\n",
              protocols::to_string(best.protocol));

  // --- 3. Validate by simulation -----------------------------------------
  sim::SimOptions sim_options;
  sim_options.max_ops = 20000;
  sim_options.warmup_ops = 500;
  sim::EventSimulator simulator(best.protocol, config, sim_options);
  workload::ConcurrentDriver driver(workload_spec, /*seed=*/1);
  const sim::SimStats stats = simulator.run(driver);
  std::printf(
      "\nsimulated %-16s acc = %.2f (predicted %.2f) over %zu ops\n",
      protocols::to_string(best.protocol), stats.acc(), best.acc,
      stats.measured_ops);
  return 0;
}
