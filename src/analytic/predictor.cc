#include "analytic/predictor.h"

#include <algorithm>

#include "support/error.h"

namespace drsm::analytic {

using fsm::OpKind;

namespace {

using NodeCounts = std::vector<obs::AccessStats::NodeMix>;

std::uint64_t accesses(const NodeCounts& rows, std::size_t num_nodes) {
  std::uint64_t total = 0;
  for (std::size_t node = 0; node < std::min(rows.size(), num_nodes); ++node)
    total += rows[node].reads + rows[node].writes;
  return total;
}

bool is_access(const workload::TraceEntry& entry) {
  return entry.op == OpKind::kRead || entry.op == OpKind::kWrite;
}

/// Counts a read/write entry into rows grown to the largest node seen.
void count(NodeCounts& rows, const workload::TraceEntry& entry) {
  if (entry.node >= rows.size()) rows.resize(std::size_t{entry.node} + 1);
  auto& row = rows[entry.node];
  ++(entry.op == OpKind::kRead ? row.reads : row.writes);
}

/// A trace's read/write counts per object, and each object's share of them.
struct ObjectMix {
  std::vector<NodeCounts> rows;  // [object][node]
  std::vector<double> share;     // [object]
};

ObjectMix object_mix(const workload::OperationTrace& trace) {
  DRSM_CHECK(trace.num_objects >= 1, "trace has no objects");
  ObjectMix mix;
  mix.rows.resize(trace.num_objects);
  std::uint64_t total = 0;
  for (const auto& entry : trace.entries) {
    if (!is_access(entry)) continue;
    DRSM_CHECK(entry.object < trace.num_objects,
               "trace entry object out of range");
    count(mix.rows[entry.object], entry);
    ++total;
  }
  DRSM_CHECK(total > 0, "trace has no read/write entries");
  for (const NodeCounts& rows : mix.rows)
    mix.share.push_back(static_cast<double>(accesses(rows, rows.size())) /
                        static_cast<double>(total));
  return mix;
}

}  // namespace

std::optional<workload::WorkloadSpec> spec_from_counts(
    const NodeCounts& rows, std::size_t num_nodes) {
  const std::uint64_t total = accesses(rows, num_nodes);
  if (total == 0) return std::nullopt;
  const auto probability = [total](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(total);
  };
  workload::WorkloadSpec spec;
  spec.name = "empirical";
  for (std::size_t n = 0; n < std::min(rows.size(), num_nodes); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (rows[n].reads > 0)
      spec.events.push_back({node, OpKind::kRead, probability(rows[n].reads)});
    if (rows[n].writes > 0)
      spec.events.push_back(
          {node, OpKind::kWrite, probability(rows[n].writes)});
  }
  spec.validate();
  return spec;
}

workload::WorkloadSpec spec_from_trace(
    const workload::OperationTrace& trace) {
  NodeCounts rows;
  for (const auto& entry : trace.entries)
    if (is_access(entry)) count(rows, entry);
  std::optional<workload::WorkloadSpec> spec =
      spec_from_counts(rows, rows.size());
  DRSM_CHECK(spec.has_value(),
             "spec_from_trace: trace has no read/write entries");
  return std::move(*spec);
}

TracePrediction predict_from_trace(protocols::ProtocolKind kind,
                                   const sim::SystemConfig& config,
                                   const workload::OperationTrace& trace) {
  const ObjectMix mix = object_mix(trace);
  AccSolver solver(config);
  TracePrediction prediction;
  prediction.object_share = mix.share;
  prediction.object_acc.resize(trace.num_objects, 0.0);
  for (ObjectId j = 0; j < trace.num_objects; ++j) {
    const auto spec = spec_from_counts(mix.rows[j], mix.rows[j].size());
    if (!spec) continue;
    prediction.object_acc[j] = solver.acc(kind, *spec);
    prediction.acc += mix.share[j] * prediction.object_acc[j];
  }
  return prediction;
}

PlacementRecommendation recommend_placement(
    const sim::SystemConfig& config, const workload::OperationTrace& trace,
    std::vector<protocols::ProtocolKind> candidates) {
  if (candidates.empty())
    candidates.assign(protocols::kAllProtocols.begin(),
                      protocols::kAllProtocols.end());
  PlacementRecommendation out;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const double acc = predict_from_trace(candidates[c], config, trace).acc;
    if (c == 0 || acc < out.uniform_best_acc) {
      out.uniform_best = candidates[c];
      out.uniform_best_acc = acc;
    }
  }

  const ObjectMix mix = object_mix(trace);
  AccSolver solver(config);
  out.object_protocol.assign(trace.num_objects, candidates.front());
  out.object_acc.assign(trace.num_objects, 0.0);
  for (ObjectId j = 0; j < trace.num_objects; ++j) {
    const auto spec = spec_from_counts(mix.rows[j], mix.rows[j].size());
    if (!spec) continue;
    const AccSolver::Choice best = solver.best_protocol(*spec, candidates);
    out.object_protocol[j] = best.protocol;
    out.object_acc[j] = best.acc;
    out.acc += mix.share[j] * best.acc;
  }
  return out;
}

}  // namespace drsm::analytic
