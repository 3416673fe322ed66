// Metrics registry: named counters, gauges and quantile sketches that
// every runtime layer publishes into.
//
// The registry is the machine-readable counterpart of the tables the
// benches print: EventSimulator publishes message/operation counters and
// its latency and sequencer queue-depth sketches, ConcurrentSharedMemory
// its runtime totals and latency sketch, AccSolver its chain sizes,
// stationary-solver iteration counts and wall-clock sketches.  Every
// distribution is an obs::Quantile (GK sketch), so a reported percentile
// is always a value that occurred.  A registry snapshot serializes to
// JSON (obs::JsonValue), which is what BENCH_*.json embeds.
//
// Instruments hand out stable references: registry.counter("x") returns
// the same Counter& for the lifetime of the registry, so hot paths resolve
// the name once and then pay a single increment per event.  The registry
// is not thread-safe; concurrent runtimes aggregate locally and publish at
// the end of the run (see ConcurrentSharedMemory::stop).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/quantile.h"

namespace drsm::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (utilizations, ratios, wall times).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Name -> instrument registry.  Lookup creates on first use.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Quantile& quantile(std::string_view name);

  /// nullptr when `name` is absent or a different instrument kind.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Quantile* find_quantile(std::string_view name) const;

  std::size_t size() const { return entries_.size(); }

  /// Folds another registry into this one: counters add, gauges take the
  /// other's (later) value, quantiles merge through Quantile::merge.  This
  /// is how parallel sweep tasks aggregate: each task publishes into a
  /// private registry, and the runner merges them in task-index order so
  /// the combined registry is independent of execution schedule.
  void merge(const MetricsRegistry& other);

  /// Snapshot of every instrument, grouped by kind, names sorted.
  JsonValue to_json() const;

 private:
  struct Entry {
    std::string name;
    // Exactly one is set; unique_ptr keeps references stable across
    // registry growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Quantile> quantile;
  };
  Entry* find(std::string_view name);
  const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;
};

}  // namespace drsm::obs
