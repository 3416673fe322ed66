#include "dsm/dsm.h"

#include "support/error.h"

namespace drsm::dsm {

namespace {

std::vector<NodeId> full_roster(std::size_t num_clients) {
  std::vector<NodeId> roster(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i)
    roster[i] = static_cast<NodeId>(i);
  return roster;
}

sim::SystemConfig to_sim_config(const SharedMemory::Options& options) {
  sim::SystemConfig config;
  config.num_clients = options.num_clients;
  config.costs = options.costs;
  config.num_objects = 1;  // each runtime hosts one object
  return config;
}

}  // namespace

SharedMemory::SharedMemory(const Options& options) : options_(options) {
  DRSM_CHECK(options_.num_clients >= 1, "need at least one client");
  DRSM_CHECK(options_.num_objects >= 1, "need at least one object");
  objects_.reserve(options_.num_objects);
  for (std::size_t j = 0; j < options_.num_objects; ++j)
    objects_.emplace_back(options_.protocol, to_sim_config(options_),
                          full_roster(options_.num_clients));
  object_cost_.assign(options_.num_objects, 0.0);
}

void SharedMemory::check_ids(NodeId node, ObjectId object) const {
  DRSM_CHECK(node <= options_.num_clients, "node index out of range");
  DRSM_CHECK(object < options_.num_objects, "object index out of range");
}

Cost SharedMemory::charge(ObjectId object, const sim::OpResult& result) {
  object_cost_[object] += result.cost;
  total_cost_ += result.cost;
  last_op_cost_ = result.cost;
  ++total_ops_;
  return result.cost;
}

std::uint64_t SharedMemory::read(NodeId node, ObjectId object) {
  check_ids(node, object);
  const sim::OpResult result =
      objects_[object].execute(node, fsm::OpKind::kRead);
  charge(object, result);
  return result.read_value;
}

void SharedMemory::write(NodeId node, ObjectId object, std::uint64_t value) {
  check_ids(node, object);
  charge(object, objects_[object].execute(node, fsm::OpKind::kWrite, value));
}

void SharedMemory::eject(NodeId node, ObjectId object) {
  check_ids(node, object);
  DRSM_CHECK(node < options_.num_clients,
             "eject is a client operation (the sequencer keeps the master)");
  charge(object, objects_[object].execute(node, fsm::OpKind::kEject));
}

void SharedMemory::sync(NodeId node, ObjectId object) {
  check_ids(node, object);
  DRSM_CHECK(node < options_.num_clients,
             "sync is a client operation (the sequencer is the order)");
  charge(object, objects_[object].execute(node, fsm::OpKind::kSync));
}

void SharedMemory::switch_protocol(protocols::ProtocolKind protocol) {
  options_.protocol = protocol;
  for (std::size_t j = 0; j < options_.num_objects; ++j)
    switch_protocol(static_cast<ObjectId>(j), protocol);
}

void SharedMemory::switch_protocol(ObjectId object,
                                   protocols::ProtocolKind protocol) {
  DRSM_CHECK(object < options_.num_objects, "object index out of range");
  objects_[object].migrate(protocol);  // the seed cost is not charged
}

protocols::ProtocolKind SharedMemory::object_protocol(
    ObjectId object) const {
  DRSM_CHECK(object < options_.num_objects, "object index out of range");
  return objects_[object].protocol();
}

double SharedMemory::average_cost() const {
  return total_ops_ == 0
             ? 0.0
             : total_cost_ / static_cast<double>(total_ops_);
}

void SharedMemory::reset_counters() {
  total_cost_ = 0.0;
  last_op_cost_ = 0.0;
  total_ops_ = 0;
  object_cost_.assign(options_.num_objects, 0.0);
}

Cost SharedMemory::object_cost(ObjectId object) const {
  DRSM_CHECK(object < options_.num_objects, "object index out of range");
  return object_cost_[object];
}

const char* SharedMemory::state_name(NodeId node, ObjectId object) const {
  check_ids(node, object);
  return objects_[object].state_name(node);
}

}  // namespace drsm::dsm
