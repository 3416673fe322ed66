#include "obs/metrics.h"

#include <algorithm>

#include "support/error.h"

namespace drsm::obs {

MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name) {
  for (Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (Entry* e = find(name)) {
    DRSM_CHECK(e->counter != nullptr,
               "metric '" + std::string(name) + "' is not a counter");
    return *e->counter;
  }
  entries_.push_back(
      {std::string(name), std::make_unique<Counter>(), nullptr, nullptr});
  return *entries_.back().counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (Entry* e = find(name)) {
    DRSM_CHECK(e->gauge != nullptr,
               "metric '" + std::string(name) + "' is not a gauge");
    return *e->gauge;
  }
  entries_.push_back(
      {std::string(name), nullptr, std::make_unique<Gauge>(), nullptr});
  return *entries_.back().gauge;
}

Quantile& MetricsRegistry::quantile(std::string_view name) {
  if (Entry* e = find(name)) {
    DRSM_CHECK(e->quantile != nullptr,
               "metric '" + std::string(name) + "' is not a quantile");
    return *e->quantile;
  }
  entries_.push_back(
      {std::string(name), nullptr, nullptr, std::make_unique<Quantile>()});
  return *entries_.back().quantile;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->gauge.get() : nullptr;
}

const Quantile* MetricsRegistry::find_quantile(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->quantile.get() : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  DRSM_CHECK(this != &other, "metrics merge: cannot merge into self");
  for (const Entry& e : other.entries_) {
    if (e.counter)
      counter(e.name).inc(e.counter->value());
    else if (e.gauge)
      gauge(e.name).set(e.gauge->value());
    else if (e.quantile)
      quantile(e.name).merge(*e.quantile);
  }
}

JsonValue MetricsRegistry::to_json() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });

  // Built as locals and moved in at the end: operator[] insertion can
  // reallocate the parent's storage, so references into it must not be
  // held across further insertions.
  JsonValue counters = JsonValue::object();
  JsonValue gauges = JsonValue::object();
  JsonValue quantiles = JsonValue::object();
  for (const Entry* e : sorted) {
    if (e->counter)
      counters[e->name] = static_cast<double>(e->counter->value());
    else if (e->gauge)
      gauges[e->name] = e->gauge->value();
    else if (e->quantile)
      quantiles[e->name] = e->quantile->to_json();
  }
  JsonValue v = JsonValue::object();
  v["counters"] = std::move(counters);
  v["gauges"] = std::move(gauges);
  v["quantiles"] = std::move(quantiles);
  return v;
}

}  // namespace drsm::obs
