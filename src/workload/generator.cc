#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace drsm::workload {

using fsm::OpKind;

std::vector<double> zipf_weights(std::size_t m, double s) {
  DRSM_CHECK(m >= 1, "zipf_weights: need at least one object");
  DRSM_CHECK(s >= 0.0, "zipf_weights: exponent must be non-negative");
  std::vector<double> weights(m);
  for (std::size_t j = 0; j < m; ++j)
    weights[j] = 1.0 / std::pow(static_cast<double>(j + 1), s);
  return weights;
}

GlobalSequenceGenerator::GlobalSequenceGenerator(
    const WorkloadSpec& spec, std::uint64_t seed, std::size_t num_objects,
    std::vector<double> object_weights)
    : spec_(spec),
      sampler_(spec.probabilities()),
      rng_(seed),
      num_objects_(num_objects) {
  spec_.validate();
  DRSM_CHECK(num_objects_ >= 1, "need at least one object");
  if (!object_weights.empty()) {
    DRSM_CHECK(object_weights.size() == num_objects_,
               "object weights must match the object count");
    object_sampler_.emplace(object_weights);
  }
}

ObjectId GlobalSequenceGenerator::sample_object() {
  if (object_sampler_.has_value())
    return static_cast<ObjectId>(object_sampler_->sample(rng_));
  return num_objects_ == 1
             ? 0
             : static_cast<ObjectId>(rng_.uniform_index(num_objects_));
}

TraceEntry GlobalSequenceGenerator::next() {
  const EventSpec& event = spec_.events[sampler_.sample(rng_)];
  TraceEntry entry;
  entry.node = event.node;
  entry.op = event.op;
  entry.object = sample_object();
  return entry;
}

OperationTrace GlobalSequenceGenerator::record(std::size_t count,
                                               std::size_t num_clients) {
  OperationTrace trace;
  trace.num_clients = num_clients;
  trace.num_objects = num_objects_;
  trace.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) trace.entries.push_back(next());
  return trace;
}

ConcurrentDriver::ConcurrentDriver(const WorkloadSpec& spec,
                                   std::uint64_t seed,
                                   std::size_t num_objects,
                                   double mean_think_time,
                                   std::vector<double> object_weights)
    : rng_(seed),
      num_objects_(num_objects),
      mean_think_time_(mean_think_time) {
  spec.validate();
  DRSM_CHECK(mean_think_time_ > 0.0, "mean think time must be positive");
  if (!object_weights.empty()) {
    DRSM_CHECK(object_weights.size() == num_objects_,
               "object weights must match the object count");
    object_sampler_.emplace(object_weights);
  }
  NodeId max_node = 0;
  for (const EventSpec& e : spec.events) max_node = std::max(max_node, e.node);
  mix_.resize(max_node + 1);
  std::vector<double> write_prob(max_node + 1, 0.0);
  std::vector<double> total_prob(max_node + 1, 0.0);
  for (const EventSpec& e : spec.events) {
    total_prob[e.node] += e.probability;
    if (e.op == OpKind::kWrite) write_prob[e.node] += e.probability;
  }
  for (NodeId n = 0; n <= max_node; ++n) {
    if (total_prob[n] <= 0.0) continue;
    mix_[n].issues = true;
    mix_[n].write_fraction = write_prob[n] / total_prob[n];
    mix_[n].rate = total_prob[n] / mean_think_time_;
  }
  if (!object_sampler_.has_value() && num_objects_ > 1)
    object_threshold_ = (~std::uint64_t{num_objects_} + 1) % num_objects_;
}

std::optional<sim::WorkloadDriver::Op> ConcurrentDriver::next_op(NodeId node) {
  if (node >= mix_.size() || !mix_[node].issues) return std::nullopt;
  Op op;
  op.kind = rng_.bernoulli(mix_[node].write_fraction) ? OpKind::kWrite
                                                      : OpKind::kRead;
  if (object_sampler_.has_value()) {
    op.object = static_cast<ObjectId>(object_sampler_->sample(rng_));
  } else if (num_objects_ == 1) {
    op.object = 0;
  } else {
    // Rng::uniform_index(num_objects_) with the precomputed threshold.
    for (;;) {
      const std::uint64_t r = rng_();
      if (r >= object_threshold_) {
        op.object = static_cast<ObjectId>(r % num_objects_);
        break;
      }
    }
  }
  const double think = rng_.exponential(mix_[node].rate);
  op.think_time = static_cast<SimTime>(std::llround(std::ceil(think)));
  return op;
}

TraceReplayDriver::TraceReplayDriver(const OperationTrace& trace,
                                     SimTime think_time)
    : per_node_(trace.num_clients + 1),
      cursor_(trace.num_clients + 1, 0),
      think_time_(think_time) {
  for (const TraceEntry& e : trace.entries) {
    DRSM_CHECK(e.node <= trace.num_clients, "trace node out of range");
    per_node_[e.node].push_back(e);
  }
}

std::optional<sim::WorkloadDriver::Op> TraceReplayDriver::next_op(
    NodeId node) {
  if (node >= per_node_.size()) return std::nullopt;
  std::size_t& cur = cursor_[node];
  if (cur >= per_node_[node].size()) return std::nullopt;
  const TraceEntry& e = per_node_[node][cur++];
  Op op;
  op.object = e.object;
  op.kind = e.op;
  op.think_time = think_time_;
  return op;
}

}  // namespace drsm::workload
