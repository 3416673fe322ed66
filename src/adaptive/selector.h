// Self-tuning protocol selection — the extension the paper's conclusion
// proposes: "the model can be applied to implement a classifier for the
// development of adaptive data replication coherence protocols with
// self-tuning capability based on run-time information".
//
// obs::AccessStats turns the observed operations into a recent per-node
// mix (the paper notes the five parameters "may be obtained by estimating
// the relative frequencies of events in some real distributed
// computation"); AdaptiveSelector converts that mix into an empirical
// sample space, classifies it with the analytic model, and owns the one
// hysteresis gate every adaptive loop decides with.  AdaptiveSharedMemory
// closes the loop inline by switching a live SharedMemory at epoch
// boundaries; OnlineController (online.h) runs the same gate beside the
// concurrent runtime.
#pragma once

#include <optional>
#include <vector>

#include "analytic/solver.h"
#include "dsm/dsm.h"
#include "obs/access_stats.h"
#include "workload/spec.h"

namespace drsm::adaptive {

/// Classifier: picks the acc-minimizing protocol for a workload.
class AdaptiveSelector {
 public:
  AdaptiveSelector(const sim::SystemConfig& config,
                   std::vector<protocols::ProtocolKind> candidates = {});

  struct Classification {
    protocols::ProtocolKind protocol;
    double predicted_acc = 0.0;
  };
  Classification classify(const workload::WorkloadSpec& spec);

  /// The hysteresis gate: classifies `spec`, then re-prices `incumbent` on
  /// the same spec, and returns the challenger only when its predicted acc
  /// beats the incumbent's by the relative `hysteresis` band (0 still
  /// demands a strict improvement) — otherwise the incumbent, so
  /// near-breakeven workloads do not flap.
  protocols::ProtocolKind choose(protocols::ProtocolKind incumbent,
                                 const workload::WorkloadSpec& spec,
                                 double hysteresis);

  /// A recent per-node read/write mix (obs::AccessStats::node_mix rows) as
  /// an empirical sample space over the client rows `node < num_clients`;
  /// nullopt when those rows hold no accesses.
  static std::optional<workload::WorkloadSpec> spec_from_node_mix(
      const std::vector<obs::AccessStats::NodeMix>& mix,
      std::size_t num_clients);

  /// Builds an empirical per-object sample space from live telemetry: the
  /// recent (last closed + current window) per-node read/write mix of
  /// `object`, restricted to client nodes.  Requires at least one client
  /// access to the object in that window span.
  static workload::WorkloadSpec spec_from_telemetry(
      const obs::AccessStats& stats, ObjectId object,
      std::size_t num_clients);

  /// Telemetry options whose recent mix spans about `window` accesses:
  /// node_mix sums the last closed window plus the current partial one, so
  /// each window is half the span.
  static obs::AccessStatsOptions recent_mix_options(std::size_t window);

  /// Classifies `object` straight from telemetry — the observe-path hook:
  /// feed an AccessStats from the runtime's event stream, ask which
  /// protocol the analytic model predicts cheapest for what the object is
  /// *currently* experiencing.
  Classification classify_object(const obs::AccessStats& stats,
                                 ObjectId object);

 private:
  analytic::AccSolver solver_;
  std::vector<protocols::ProtocolKind> candidates_;
  std::size_t num_clients_;
};

/// A SharedMemory that re-selects its protocol every `epoch_ops`
/// operations — either one protocol for the whole memory, or (per_object
/// mode) one per shared object, since the paper's analysis treats objects
/// independently.  Decisions are driven by the live obs::AccessStats
/// telemetry (the windowed per-node mix each object is *currently*
/// experiencing): the same sensor that reports hot sets and
/// activity-center drift feeds the classifier, and AdaptiveSelector::choose
/// keeps the selection stable under the configured hysteresis band.
class AdaptiveSharedMemory {
 public:
  struct Options {
    dsm::SharedMemory::Options memory;
    std::size_t epoch_ops = 512;       // re-classify this often
    std::size_t min_observations = 64; // do not switch before this many ops
    /// Recent-mix span, in accesses: the telemetry window is sized so
    /// that "last closed + current window" covers about this many.
    std::size_t window = 1024;
    std::vector<protocols::ProtocolKind> candidates;  // empty = all eight
    /// Estimate and select per object instead of globally.
    bool per_object = false;
    /// Relative acc improvement a challenger must show over the incumbent
    /// before a switch happens (0 still demands a strict improvement).
    double hysteresis = 0.05;
  };

  explicit AdaptiveSharedMemory(const Options& options);

  std::uint64_t read(NodeId node, ObjectId object);
  void write(NodeId node, ObjectId object, std::uint64_t value);

  dsm::SharedMemory& memory() { return memory_; }

  /// Live access telemetry over everything this memory has served:
  /// hot set, activity centers, drift log (see obs/access_stats.h).
  const obs::AccessStats& telemetry() const { return telemetry_; }

  protocols::ProtocolKind current_protocol() const {
    return memory_.protocol();
  }
  protocols::ProtocolKind object_protocol(ObjectId object) const {
    return memory_.object_protocol(object);
  }
  std::size_t switches() const { return switches_; }
  std::size_t epochs() const { return epochs_; }
  /// Wall time spent inside epoch-boundary reclassification (the price of
  /// self-tuning; benches report it as adaptive.reclassify_ms).
  double reclassify_ms() const { return reclassify_ms_; }

 private:
  void observe(NodeId node, ObjectId object, fsm::OpKind op);
  void maybe_reclassify();

  Options options_;
  dsm::SharedMemory memory_;
  obs::AccessStats telemetry_;
  AdaptiveSelector selector_;
  std::size_t ops_in_epoch_ = 0;
  std::size_t switches_ = 0;
  std::size_t epochs_ = 0;
  double reclassify_ms_ = 0.0;
};

}  // namespace drsm::adaptive
