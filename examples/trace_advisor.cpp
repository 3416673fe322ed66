// trace_advisor — end-to-end workload analysis from a recorded trace:
// estimate the workload's sample space from event frequencies
// (analytic::spec_from_trace), predict acc for all eight protocols with
// the exact model, and recommend a per-object protocol placement.  A trace
// the model cannot price (no read/write records, or more declared clients
// than analytic::kMaxTraceClients) exits 1 with the library's message,
// like a trace that fails to load.  Objects the trace never reads or
// writes get no placement row.
//
// Usage:
//   trace_advisor <trace-file>     analyse a saved trace (see
//                                  workload/trace_io.h for the format)
//   trace_advisor --demo           record a synthetic demo trace to
//                                  /tmp/drsm_demo.trace and analyse it
#include <cstdio>
#include <string>

#include "analytic/predictor.h"
#include "support/text.h"
#include "workload/trace_io.h"

using namespace drsm;

namespace {

workload::OperationTrace demo_trace(const std::string& path) {
  // Two phases over three objects, recorded through the generators.
  workload::OperationTrace trace;
  trace.num_clients = 4;
  trace.num_objects = 3;
  workload::GlobalSequenceGenerator shared(
      workload::read_disturbance(0.08, 0.25, 3), 3, 1);
  workload::GlobalSequenceGenerator priv(workload::ideal_workload(0.6), 4,
                                         1);
  workload::GlobalSequenceGenerator contended(
      workload::write_disturbance(0.3, 0.15, 2), 5, 1);
  Rng rng(6);
  for (int i = 0; i < 30000; ++i) {
    const ObjectId object = static_cast<ObjectId>(rng.uniform_index(3));
    workload::TraceEntry entry =
        object == 0 ? shared.next()
                    : (object == 1 ? priv.next() : contended.next());
    entry.object = object;
    trace.entries.push_back(entry);
  }
  workload::save_trace_file(path, trace);
  std::printf("recorded demo trace -> %s\n\n", path.c_str());
  return trace;
}

void analyse(const workload::OperationTrace& trace) {
  std::printf("trace: %zu operations, %zu clients, %zu objects\n\n",
              trace.entries.size(), trace.num_clients, trace.num_objects);

  // Estimated sample space (Section 4.2: relative frequencies of events).
  const auto spec = analytic::spec_from_trace(trace);
  double write_probability = 0.0;
  for (const auto& event : spec.events)
    if (event.op == fsm::OpKind::kWrite)
      write_probability += event.probability;
  std::printf("estimated overall write probability p-hat = %.3f\n",
              write_probability);
  for (const auto& event : spec.events)
    std::printf("  node %u %-5s %.3f\n", event.node, fsm::to_string(event.op),
                event.probability);

  sim::SystemConfig config;
  config.num_clients = trace.num_clients;
  config.costs.s = 200.0;
  config.costs.p = 30.0;
  std::printf("\ncost model: S=%.0f, P=%.0f (edit the source to match your "
              "system)\n\n",
              config.costs.s, config.costs.p);

  std::printf("predicted acc per protocol (whole trace):\n");
  std::vector<std::vector<std::string>> rows;
  for (auto kind : protocols::kAllProtocols) {
    const auto prediction =
        analytic::predict_from_trace(kind, config, trace);
    rows.push_back(
        {protocols::to_string(kind), strfmt("%.2f", prediction.acc)});
  }
  std::printf("%s\n", render_table({"protocol", "acc"}, rows).c_str());

  const auto rec = analytic::recommend_placement(config, trace);
  std::printf("per-object placement:\n");
  std::vector<std::vector<std::string>> placement;
  for (std::size_t i = 0; i < rec.objects.size(); ++i)
    placement.push_back(
        {strfmt("%u", rec.objects[i]),
         protocols::to_string(rec.object_protocol[i])});
  std::printf("%s", render_table({"object", "protocol"}, placement).c_str());
  std::printf(
      "\nexpected acc: per-object placement %.2f vs best uniform (%s) "
      "%.2f\n",
      rec.acc, protocols::to_string(rec.uniform_best),
      rec.uniform_best_acc);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    analyse(argc > 1 && std::string(argv[1]) != "--demo"
                ? workload::load_trace_file(argv[1])
                : demo_trace("/tmp/drsm_demo.trace"));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
