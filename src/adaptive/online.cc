#include "adaptive/online.h"

#include <chrono>

#include "analytic/predictor.h"
#include "support/error.h"

namespace drsm::adaptive {

using protocols::ProtocolKind;

OnlineController::OnlineController(dsm::ConcurrentSharedMemory& memory,
                                   const Options& options)
    : memory_(memory),
      options_(options),
      selector_(sim::SystemConfig{memory.options().num_clients,
                                  memory.options().costs, 1},
                options.candidates),
      ring_(options.ring_capacity),
      stats_(AdaptiveSelector::recent_mix_options(options.window)),
      current_(memory.options().num_objects, memory.options().protocol),
      cooldown_until_(memory.options().num_objects, 0) {
  DRSM_CHECK(options_.decide_every >= 1, "decide_every must be positive");
  DRSM_CHECK(options_.hot_k >= 1, "hot_k must be positive");
}

OnlineController::~OnlineController() { stop(); }

std::size_t OnlineController::drain() {
  Record batch[256];
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = ring_.pop_batch(batch, std::size(batch));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i)
      stats_.on_access(batch[i].node, batch[i].object, batch[i].op);
    records_ += n;
    since_decide_ += n;
    total += n;
  }
  return total;
}

void OnlineController::decide() {
  ++passes_;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t clients = memory_.options().num_clients;
  for (const auto& hot : stats_.hot_set(options_.hot_k)) {
    const ObjectId object = hot.object;
    if (object >= current_.size()) continue;
    if (cooldown_until_[object] >= passes_) continue;
    const auto& lifetime = stats_.object(object);
    if (lifetime.reads + lifetime.writes < options_.min_observations)
      continue;
    const auto spec =
        analytic::spec_from_counts(stats_.node_mix(object), clients);
    if (!spec) continue;
    const ProtocolKind next =
        selector_.choose(current_[object], *spec, options_.hysteresis);
    if (next == current_[object]) continue;
    memory_.migrate(object, next);
    current_[object] = next;
    cooldown_until_[object] = passes_ + options_.cooldown_passes;
    ++migrations_;
  }
  reclassify_ms_ += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
}

void OnlineController::run() {
  for (;;) {
    const std::size_t n = drain();
    while (since_decide_ >= options_.decide_every) {
      since_decide_ -= options_.decide_every;
      decide();
    }
    if (n != 0) continue;
    if (stop_.load(std::memory_order_acquire)) break;
    ring_.park(&stop_);  // record() and stop()'s poke() wake it
  }
}

void OnlineController::start() {
  DRSM_CHECK(!thread_.joinable(), "controller already started");
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void OnlineController::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    ring_.poke();
    thread_.join();
  }
  drain();  // anything recorded after the loop exited
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *options_.metrics;
  m.counter("adaptive.records").inc(records_);
  m.counter("adaptive.dropped").inc(dropped());
  m.counter("adaptive.passes").inc(passes_);
  m.counter("adaptive.migrations").inc(migrations_);
  m.gauge("adaptive.reclassify_ms").set(reclassify_ms_);
}

void OnlineController::poll() {
  DRSM_CHECK(!thread_.joinable(), "poll() races the controller thread");
  drain();
  while (since_decide_ >= options_.decide_every) {
    since_decide_ -= options_.decide_every;
    decide();
  }
}

}  // namespace drsm::adaptive
