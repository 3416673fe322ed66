// Trace-driven prediction: the paper notes the workload parameters "may
// be obtained by estimating the relative frequencies of events in some
// real distributed computation" (Section 4.2).  spec_from_counts is the
// one conversion from counted (node, op) events to an empirical sample
// space: recorded traces and the live obs::AccessStats mix both go
// through it.  From a recorded trace this module estimates a per-object
// sample space, solves the exact model for each object, and composes the
// overall expected cost per operation.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analytic/solver.h"
#include "obs/access_stats.h"
#include "workload/generator.h"

namespace drsm::analytic {

/// The largest client count spec_from_trace, predict_from_trace and
/// recommend_placement accept, in the trace and in `config`; beyond it
/// they throw drsm::Error.  The exact model prices the declared clients,
/// idle ones included (each receives the broadcasts), and keeps
/// per-client state at the home node, so its work grows about
/// quadratically with the count: trace_advisor prices a 3-record trace
/// under all eight protocols in hundredths of a second at 4,096 declared
/// clients, under half a second at 65,536 and in about two minutes at
/// 2^20.
inline constexpr std::size_t kMaxTraceClients = 65536;

/// The empirical sample space of per-node (reads, writes) counts — rows
/// indexed by node, as obs::AccessStats::node_mix returns them — over the
/// rows `node < num_nodes`: one event per positive count with probability
/// count / total, in node order, each node's read before its write.
/// nullopt when those rows hold no reads or writes.
std::optional<workload::WorkloadSpec> spec_from_counts(
    const std::vector<obs::AccessStats::NodeMix>& rows,
    std::size_t num_nodes);

/// Empirical global sample space (node, op frequencies aggregated over all
/// objects) of a trace, sequencer events included.  Requires at least one
/// read/write entry.
workload::WorkloadSpec spec_from_trace(
    const workload::OperationTrace& trace);

/// Per-object prediction composed into an overall acc.  The per-object
/// vectors cover the objects the trace reads or writes, in ascending id
/// order (`objects`), not every declared object: a trace file may declare
/// any count.  When the trace touches objects 0..M-1, entry j is object
/// j.
struct TracePrediction {
  double acc = 0.0;                  // expected cost per operation
  std::vector<ObjectId> objects;     // touched objects, ascending
  std::vector<double> object_share;  // fraction of operations per object
  std::vector<double> object_acc;    // predicted acc per object
};

/// Predicts the steady-state cost of running `trace` under `kind`:
/// each object's operation stream is an independent sample space (the
/// paper analyses objects independently), so
///   acc = sum_j share_j * acc_j.
/// Objects never touched contribute nothing and get no entry.
TracePrediction predict_from_trace(protocols::ProtocolKind kind,
                                   const sim::SystemConfig& config,
                                   const workload::OperationTrace& trace);

/// Data-placement advice: the acc-minimizing protocol *per object* (the
/// objects are independent, so per-object choice composes), compared with
/// the best single protocol for the whole trace.  Per-object vectors
/// cover the touched objects, as in TracePrediction.
struct PlacementRecommendation {
  std::vector<ObjectId> objects;  // touched objects, ascending
  std::vector<protocols::ProtocolKind> object_protocol;  // per object
  std::vector<double> object_acc;  // predicted acc of that choice
  double acc = 0.0;               // expected acc under per-object choice
  protocols::ProtocolKind uniform_best =
      protocols::ProtocolKind::kWriteThrough;
  double uniform_best_acc = 0.0;  // expected acc of the best single choice
};

PlacementRecommendation recommend_placement(
    const sim::SystemConfig& config, const workload::OperationTrace& trace,
    std::vector<protocols::ProtocolKind> candidates = {});

}  // namespace drsm::analytic
