// Application-facing distributed shared memory (Section 2's programming
// model): M fully replicated shared objects accessed by read/write (plus
// the eject/sync extensions) from any of N client nodes or the sequencer.
//
// Operations are executed with the sequential (one-operation-at-a-time)
// semantics of the analytic model and every message is accounted, so a
// program written against this API can be compared directly with the
// analytic predictions.  The coherence protocol is chosen per SharedMemory
// instance and can be switched at run time (the hook the paper's
// self-tuning proposal needs).
#pragma once

#include <cstdint>
#include <vector>

#include "protocols/protocol.h"
#include "sim/sequential.h"

namespace drsm::dsm {

class SharedMemory {
 public:
  struct Options {
    protocols::ProtocolKind protocol = protocols::ProtocolKind::kWriteThrough;
    std::size_t num_clients = 3;
    std::size_t num_objects = 1;
    fsm::CostModel costs;
  };

  explicit SharedMemory(const Options& options);

  /// Reads shared object `object` from `node` and returns its value.
  std::uint64_t read(NodeId node, ObjectId object);

  /// Writes `value` to shared object `object` from `node`.
  void write(NodeId node, ObjectId object, std::uint64_t value);

  /// Extension: drops `node`'s replica of `object` (next access misses).
  /// Only supported by protocols with an INVALID client state (see
  /// protocols::supports).
  void eject(NodeId node, ObjectId object);

  /// Extension: synchronization barrier through the sequencer for `node`;
  /// when it returns, all of `node`'s prior operations on `object` have
  /// been sequenced.
  void sync(NodeId node, ObjectId object);

  /// Switches the coherence protocol for every object (see below).
  void switch_protocol(protocols::ProtocolKind protocol);

  /// Per-object protocol selection: objects are independent (each has its
  /// own protocol processes), so different objects may run different
  /// protocols — the substrate for workload-aware data placement.  The
  /// switch is sim::SequentialRuntime::migrate at quiescence: values and
  /// the version sequence carry over, and the seed write that warms the
  /// new replicas is not charged to the communication-cost counters.
  void switch_protocol(ObjectId object, protocols::ProtocolKind protocol);
  protocols::ProtocolKind object_protocol(ObjectId object) const;

  // -- accounting -----------------------------------------------------------
  Cost total_cost() const { return total_cost_; }
  std::size_t total_ops() const { return total_ops_; }
  double average_cost() const;
  Cost last_op_cost() const { return last_op_cost_; }
  void reset_counters();

  /// Per-object accumulated cost (for locality diagnostics).
  Cost object_cost(ObjectId object) const;

  protocols::ProtocolKind protocol() const { return options_.protocol; }
  const Options& options() const { return options_; }

  /// Copy-state of (node, object), e.g. "VALID" (diagnostics and tests).
  const char* state_name(NodeId node, ObjectId object) const;

 private:
  void check_ids(NodeId node, ObjectId object) const;
  Cost charge(ObjectId object, const sim::OpResult& result);

  Options options_;
  std::vector<sim::SequentialRuntime> objects_;  // one runtime per object
  std::vector<Cost> object_cost_;
  Cost total_cost_ = 0.0;
  Cost last_op_cost_ = 0.0;
  std::size_t total_ops_ = 0;
};

}  // namespace drsm::dsm
