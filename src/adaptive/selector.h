// Self-tuning protocol selection — the extension the paper's conclusion
// proposes: "the model can be applied to implement a classifier for the
// development of adaptive data replication coherence protocols with
// self-tuning capability based on run-time information".
//
// obs::AccessStats turns the observed operations into a recent per-node
// mix (the paper notes the five parameters "may be obtained by estimating
// the relative frequencies of events in some real distributed
// computation"); analytic::spec_from_counts turns that mix into an
// empirical sample space and analytic::AccSolver::best_protocol is the
// classifier.  AdaptiveSelector owns the one hysteresis gate every
// adaptive loop decides with.  AdaptiveSharedMemory closes the loop inline
// by switching a live SharedMemory at epoch boundaries; OnlineController
// (online.h) runs the same gate beside the concurrent runtime.
#pragma once

#include <vector>

#include "analytic/solver.h"
#include "dsm/dsm.h"
#include "obs/access_stats.h"
#include "workload/spec.h"

namespace drsm::adaptive {

/// The hysteresis gate over the analytic classifier.
class AdaptiveSelector {
 public:
  AdaptiveSelector(const sim::SystemConfig& config,
                   std::vector<protocols::ProtocolKind> candidates = {});

  /// Classifies `spec` (AccSolver::best_protocol over the candidates), then
  /// re-prices `incumbent` on the same spec, and returns the winner only
  /// when its predicted acc beats the incumbent's by the relative
  /// `hysteresis` band (0 still demands a strict improvement) — otherwise
  /// the incumbent, so near-breakeven workloads do not flap.
  protocols::ProtocolKind choose(protocols::ProtocolKind incumbent,
                                 const workload::WorkloadSpec& spec,
                                 double hysteresis);

  /// Telemetry options whose recent mix spans about `window` accesses:
  /// node_mix sums the last closed window plus the current partial one, so
  /// each window is half the span.
  static obs::AccessStatsOptions recent_mix_options(std::size_t window);

 private:
  analytic::AccSolver solver_;
  std::vector<protocols::ProtocolKind> candidates_;
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
