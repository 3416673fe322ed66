#include "adaptive/selector.h"

#include <algorithm>
#include <chrono>

#include "analytic/predictor.h"

namespace drsm::adaptive {

using fsm::OpKind;
using protocols::ProtocolKind;

AdaptiveSelector::AdaptiveSelector(
    const sim::SystemConfig& config,
    std::vector<ProtocolKind> candidates)
    : solver_(config), candidates_(std::move(candidates)) {
  if (candidates_.empty())
    candidates_.assign(protocols::kAllProtocols.begin(),
                       protocols::kAllProtocols.end());
}

ProtocolKind AdaptiveSelector::choose(ProtocolKind incumbent,
                                      const workload::WorkloadSpec& spec,
                                      double hysteresis) {
  const analytic::AccSolver::Choice best =
      solver_.best_protocol(spec, candidates_);
  if (best.protocol == incumbent) return incumbent;
  const double incumbent_acc = solver_.acc(incumbent, spec);
  return best.acc < (1.0 - hysteresis) * incumbent_acc ? best.protocol
                                                       : incumbent;
}

obs::AccessStatsOptions AdaptiveSelector::recent_mix_options(
    std::size_t window) {
  obs::AccessStatsOptions options;
  options.window_ops = std::max<std::size_t>(1, window / 2);
  return options;
}

AdaptiveSharedMemory::AdaptiveSharedMemory(const Options& options)
    : options_(options),
      memory_(options.memory),
      telemetry_(AdaptiveSelector::recent_mix_options(options.window)),
      selector_(
          sim::SystemConfig{options.memory.num_clients, options.memory.costs,
                            1},
          options.candidates) {}

std::uint64_t AdaptiveSharedMemory::read(NodeId node, ObjectId object) {
  const std::uint64_t value = memory_.read(node, object);
  observe(node, object, OpKind::kRead);
  return value;
}

void AdaptiveSharedMemory::write(NodeId node, ObjectId object,
                                 std::uint64_t value) {
  memory_.write(node, object, value);
  observe(node, object, OpKind::kWrite);
}

void AdaptiveSharedMemory::observe(NodeId node, ObjectId object,
                                   OpKind op) {
  telemetry_.on_access(node, object, op);
  if (node >= options_.memory.num_clients) return;
  maybe_reclassify();
}

void AdaptiveSharedMemory::maybe_reclassify() {
  if (++ops_in_epoch_ < options_.epoch_ops) return;
  ops_in_epoch_ = 0;
  ++epochs_;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t clients = options_.memory.num_clients;
  if (!options_.per_object) {
    if (telemetry_.accesses() < options_.min_observations) return;
    // The memory-wide recent mix: every object's window, client rows only.
    std::vector<obs::AccessStats::NodeMix> mix(clients);
    for (std::size_t j = 0; j < telemetry_.num_objects(); ++j) {
      const auto object_mix =
          telemetry_.node_mix(static_cast<ObjectId>(j));
      for (std::size_t n = 0; n < object_mix.size() && n < clients; ++n) {
        mix[n].reads += object_mix[n].reads;
        mix[n].writes += object_mix[n].writes;
      }
    }
    const auto spec = analytic::spec_from_counts(mix, clients);
    const ProtocolKind current = memory_.protocol();
    const ProtocolKind next =
        spec ? selector_.choose(current, *spec, options_.hysteresis)
             : current;
    if (next != current) {
      memory_.switch_protocol(next);
      ++switches_;
    }
  } else {
    const std::size_t objects =
        std::min(telemetry_.num_objects(), options_.memory.num_objects);
    for (std::size_t j = 0; j < objects; ++j) {
      const ObjectId object = static_cast<ObjectId>(j);
      const auto& stats = telemetry_.object(object);
      if (stats.reads + stats.writes < options_.min_observations) continue;
      const auto spec =
          analytic::spec_from_counts(telemetry_.node_mix(object), clients);
      if (!spec) continue;
      const ProtocolKind current = memory_.object_protocol(object);
      const ProtocolKind next =
          selector_.choose(current, *spec, options_.hysteresis);
      if (next != current) {
        memory_.switch_protocol(object, next);
        ++switches_;
      }
    }
  }
  reclassify_ms_ += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

}  // namespace drsm::adaptive
