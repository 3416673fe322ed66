// Synthetic workload generators and trace record/replay.
//
// Two generation modes mirror the two runtimes:
//  * GlobalSequenceGenerator samples one (node, op) event at a time from the
//    workload's sample space — exactly the "sequence of repeated independent
//    trials" the analysis assumes.  It drives SequentialRuntime.
//  * ConcurrentDriver feeds the discrete-event simulator: each issuing node
//    draws its own operations (conditional on the node) with exponential
//    think times whose rates are proportional to the node's share of the
//    sample space, approximating the global mix while letting operations
//    overlap — the paper's Ada-simulator setup.
//
// OperationTrace records generated operations and can be replayed through
// either runtime; this is the substitution for the paper's "real
// distributed computation" workloads.  Estimating the workload back from a
// trace's relative event frequencies (Section 4.2) is
// analytic::spec_from_trace (analytic/predictor.h).
#pragma once

#include <optional>
#include <vector>

#include "sim/event_sim.h"
#include "support/rng.h"
#include "workload/spec.h"

namespace drsm::workload {

/// One recorded application operation.
struct TraceEntry {
  NodeId node = 0;
  ObjectId object = 0;
  fsm::OpKind op = fsm::OpKind::kRead;
};

/// A recorded operation stream plus the system shape it was captured on.
struct OperationTrace {
  std::size_t num_clients = 0;
  std::size_t num_objects = 1;
  std::vector<TraceEntry> entries;
};

/// Zipf(s) popularity weights over m objects: weight_j = 1/(j+1)^s.  With
/// s = 0 this is uniform; larger s concentrates accesses on few objects
/// (the paper assumes uniform access across its M objects; skew is the
/// natural extension for memory-pool studies).
std::vector<double> zipf_weights(std::size_t m, double s);

/// Samples global (node, op) events from a WorkloadSpec.
class GlobalSequenceGenerator {
 public:
  GlobalSequenceGenerator(const WorkloadSpec& spec, std::uint64_t seed,
                          std::size_t num_objects = 1,
                          std::vector<double> object_weights = {});

  TraceEntry next();

  /// Convenience: record `count` operations into a trace.
  OperationTrace record(std::size_t count, std::size_t num_clients);

 private:
  ObjectId sample_object();

  WorkloadSpec spec_;
  CategoricalSampler sampler_;
  Rng rng_;
  std::size_t num_objects_;
  std::optional<CategoricalSampler> object_sampler_;  // empty = uniform
};

/// Closed-loop driver for the discrete-event simulator.
class ConcurrentDriver final : public sim::WorkloadDriver {
 public:
  /// `mean_think_time` is the average think time of a hypothetical node
  /// with event probability 1; a node holding share q of the sample space
  /// thinks for mean_think_time / q on average, so issue rates match the
  /// workload mix.
  ConcurrentDriver(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t num_objects = 1,
                   double mean_think_time = 64.0,
                   std::vector<double> object_weights = {});

  std::optional<Op> next_op(NodeId node) override;

 private:
  struct NodeMix {
    bool issues = false;
    double write_fraction = 0.0;  // P(write | node)
    double rate = 0.0;            // ops per unit time
  };
  std::vector<NodeMix> mix_;
  Rng rng_;
  std::size_t num_objects_;
  double mean_think_time_;
  std::optional<CategoricalSampler> object_sampler_;  // empty = uniform
  // Rng::uniform_index(num_objects_) with its per-call rejection
  // threshold hoisted to construction (one object draw per operation;
  // the draw sequence is bit-identical to the library call).
  std::uint64_t object_threshold_ = 0;  // (2^64 - num_objects_) mod it
};

/// Replays a recorded trace through the discrete-event simulator,
/// preserving each node's program order.
class TraceReplayDriver final : public sim::WorkloadDriver {
 public:
  explicit TraceReplayDriver(const OperationTrace& trace,
                             SimTime think_time = 1);

  std::optional<Op> next_op(NodeId node) override;

 private:
  // Per-node queues of that node's operations, in trace order.
  std::vector<std::vector<TraceEntry>> per_node_;
  std::vector<std::size_t> cursor_;
  SimTime think_time_;
};

}  // namespace drsm::workload
