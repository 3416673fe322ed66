#include "analytic/predictor.h"

#include <algorithm>

#include "support/error.h"
#include "support/text.h"

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

/// A trace or system is within kMaxTraceClients clients.
void check_clients(std::size_t clients) {
  DRSM_CHECK(clients <= kMaxTraceClients,
             strfmt("trace predictor: %zu clients, more than the %zu it "
                    "prices",
                    clients, kMaxTraceClients));
}

/// Counts a read/write entry into rows grown to the largest node seen.
void count(NodeCounts& rows, const workload::TraceEntry& entry) {
  if (entry.node >= rows.size()) rows.resize(std::size_t{entry.node} + 1);
  auto& row = rows[entry.node];
  ++(entry.op == OpKind::kRead ? row.reads : row.writes);
}

/// A trace's empirical sample space per object it reads or writes, and
/// each object's share of the read/write records.  Sized by the records,
/// not the declared counts, which a trace file may set to anything: the
/// records are sorted by object and counted one object at a time into
/// one row buffer.
struct ObjectMix {
  std::vector<ObjectId> objects;              // ascending
  std::vector<workload::WorkloadSpec> specs;  // [i], for objects[i]
  std::vector<double> share;                  // [i]
};

ObjectMix object_mix(const workload::OperationTrace& trace) {
  DRSM_CHECK(trace.num_objects >= 1, "trace has no objects");
  check_clients(trace.num_clients);
  std::vector<workload::TraceEntry> records;
  for (const auto& entry : trace.entries) {
    if (!is_access(entry)) continue;
    DRSM_CHECK(entry.object < trace.num_objects,
               "trace entry object out of range");
    records.push_back(entry);
  }
  DRSM_CHECK(!records.empty(), "trace has no read/write entries");
  std::sort(records.begin(), records.end(),
            [](const workload::TraceEntry& a, const workload::TraceEntry& b) {
              return a.object < b.object;
            });
  ObjectMix mix;
  NodeCounts rows;
  for (auto first = records.begin(); first != records.end();) {
    const ObjectId object = first->object;
    const auto last =
        std::find_if(first, records.end(), [object](const auto& entry) {
          return entry.object != object;
        });
    for (auto it = first; it != last; ++it) count(rows, *it);
    mix.objects.push_back(object);
    mix.specs.push_back(*spec_from_counts(rows, rows.size()));
    mix.share.push_back(static_cast<double>(last - first) /
                        static_cast<double>(records.size()));
    for (auto it = first; it != last; ++it) rows[it->node] = {};
    first = last;
  }
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
  check_clients(trace.num_clients);
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
  check_clients(config.num_clients);
  const ObjectMix mix = object_mix(trace);
  AccSolver solver(config);
  TracePrediction prediction;
  prediction.objects = mix.objects;
  prediction.object_share = mix.share;
  prediction.object_acc.resize(mix.objects.size(), 0.0);
  for (std::size_t i = 0; i < mix.objects.size(); ++i) {
    prediction.object_acc[i] = solver.acc(kind, mix.specs[i]);
    prediction.acc += mix.share[i] * prediction.object_acc[i];
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
  out.objects = mix.objects;
  for (std::size_t i = 0; i < mix.objects.size(); ++i) {
    const AccSolver::Choice best =
        solver.best_protocol(mix.specs[i], candidates);
    out.object_protocol.push_back(best.protocol);
    out.object_acc.push_back(best.acc);
    out.acc += mix.share[i] * best.acc;
  }
  return out;
}

}  // namespace drsm::analytic
