// Extension bench — workload-aware data placement: per-object protocol
// selection from a recorded trace vs the best single protocol.
//
// The paper analyses each shared object independently, which means the
// protocol choice can be made per object; this bench quantifies how much
// that buys on a workload whose objects have opposing sharing patterns.
#include <cstdio>

#include "analytic/predictor.h"
#include "bench_util.h"
#include "dsm/dsm.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using fsm::OpKind;
using protocols::ProtocolKind;

constexpr std::size_t kClients = 4;
constexpr std::size_t kObjects = 6;
constexpr std::size_t kOps = 60000;

/// Six objects spanning the paper's workload archetypes.
workload::OperationTrace make_trace() {
  workload::OperationTrace trace;
  trace.num_clients = kClients;
  trace.num_objects = kObjects;
  Rng rng(2718);
  for (std::size_t i = 0; i < kOps; ++i) {
    const ObjectId object =
        static_cast<ObjectId>(rng.uniform_index(kObjects));
    workload::TraceEntry entry;
    entry.object = object;
    switch (object % 3) {
      case 0:  // private read-write at one client (ideal workload)
        entry.node = static_cast<NodeId>(object % kClients);
        entry.op = rng.bernoulli(0.5) ? OpKind::kWrite : OpKind::kRead;
        break;
      case 1:  // producer/consumers: rare writes, broad reads
        if (rng.bernoulli(0.06)) {
          entry.node = 0;
          entry.op = OpKind::kWrite;
        } else {
          entry.node = static_cast<NodeId>(rng.uniform_index(kClients));
          entry.op = OpKind::kRead;
        }
        break;
      default:  // write-contended: several writers, some reads
        entry.node = static_cast<NodeId>(rng.uniform_index(kClients));
        entry.op = rng.bernoulli(0.55) ? OpKind::kWrite : OpKind::kRead;
        break;
    }
    trace.entries.push_back(entry);
  }
  return trace;
}

double replay(dsm::SharedMemory& memory,
              const workload::OperationTrace& trace) {
  std::uint64_t value = 0;
  std::size_t i = 0;
  for (; i < 4000; ++i) {
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
  return memory.average_cost();
}

}  // namespace

int main() {
  std::printf(
      "Data placement: %zu objects with mixed sharing archetypes, "
      "%zu clients, S=800, P=15\n\n",
      kObjects, kClients);

  sim::SystemConfig config;
  config.num_clients = kClients;
  config.costs.s = 800.0;
  config.costs.p = 15.0;
  const auto trace = make_trace();
  const auto rec = analytic::recommend_placement(config, trace);

  std::printf("per-object recommendation:\n");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < rec.objects.size(); ++i) {
    const ObjectId j = rec.objects[i];
    rows.push_back({strfmt("%u", j),
                    j % 3 == 0 ? "private" : (j % 3 == 1 ? "producer/"
                                                           "consumers"
                                                         : "contended"),
                    protocols::to_string(rec.object_protocol[i]),
                    strfmt("%.1f", rec.object_acc[i])});
  }
  std::printf("%s\n",
              render_table({"object", "archetype", "protocol",
                            "predicted acc"},
                           rows)
                  .c_str());

  // Measure: best uniform protocol vs the recommended placement.
  dsm::SharedMemory::Options options;
  options.num_clients = kClients;
  options.num_objects = kObjects;
  options.costs = config.costs;

  options.protocol = rec.uniform_best;
  dsm::SharedMemory uniform(options);
  const double uniform_measured = replay(uniform, trace);

  dsm::SharedMemory placed(options);
  for (std::size_t i = 0; i < rec.objects.size(); ++i)
    placed.switch_protocol(rec.objects[i], rec.object_protocol[i]);
  const double placed_measured = replay(placed, trace);

  std::printf(
      "best uniform protocol: %s — predicted acc %.1f, measured %.1f\n",
      protocols::to_string(rec.uniform_best), rec.uniform_best_acc,
      uniform_measured);
  std::printf(
      "per-object placement:      predicted acc %.1f, measured %.1f "
      "(%.0f%% of uniform)\n",
      rec.acc, placed_measured,
      100.0 * placed_measured / uniform_measured);
  return 0;
}
