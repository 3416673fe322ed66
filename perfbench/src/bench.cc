#include "bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/rng.h"

namespace perfbench {

std::int64_t host_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t field = 0;
  stat >> cpu;
  for (int i = 1; i <= 8 && stat >> field; ++i)
    if (i == 8) return field;  // user nice system idle iowait irq softirq steal
  return -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void run_passes(const RunOptions& options, const PassLoop& loop,
                Result& result) {
  constexpr std::size_t kMaxPasses = 1024;
  constexpr std::size_t kSetupReps = 4;  // per pass
  std::vector<std::vector<std::uint32_t>> orders(kMaxPasses);
  Digest digest;
  for (std::size_t k = 0; k < kMaxPasses; ++k) {
    std::vector<std::uint32_t>& order = orders[k];
    for (std::size_t i = 0; i < loop.items; ++i)
      order.push_back(static_cast<std::uint32_t>(i));
    drsm::Rng rng(derive_seed(options.seed, loop.stream, k));
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniform_index(i + 1)]);
    for (std::uint32_t i : order) digest.add(i);
  }
  result.input_digest = digest.hex();

  std::vector<std::vector<double>> item_us(loop.items);  // by item
  std::vector<double> setup_s, pass_rate, all_us;
  const std::uint64_t start = now_ns();
  while (pass_rate.size() < kMaxPasses &&
         (pass_rate.empty() || seconds_since(start) < options.seconds)) {
    const std::size_t k = pass_rate.size();
    for (std::size_t rep = 0; rep < kSetupReps; ++rep)
      setup_s.push_back(loop.set_up());
    const std::uint64_t pass_t0 = now_ns();
    for (std::uint32_t item : orders[k]) {
      ++result.attempted;
      const double us = loop.run_item(k, item);
      if (us < 0.0) continue;
      item_us[item].push_back(us);
      all_us.push_back(us);
    }
    pass_rate.push_back(static_cast<double>(loop.items) /
                        seconds_since(pass_t0));
  }

  std::vector<double> typical_us;
  double total_us = 0.0;
  for (std::vector<double>& times : item_us) {
    if (times.empty()) continue;  // failed every time; already counted
    typical_us.push_back(quantile(times, kRepeatQuantile));
    total_us += typical_us.back();
  }
  if (typical_us.empty()) return;
  result.metric("ops_per_s",
                1e6 * static_cast<double>(typical_us.size()) / total_us,
                "1/s");
  result.metric("op_latency_p50_us", quantile(typical_us, 0.5), "us");
  result.metric("op_latency_p90_us", quantile(typical_us, 0.9), "us");
  result.metric("setup_s", median(setup_s), "s");
  // The plain statistics over every pass and call, for comparison.
  result.diagnostics["wall_ops_per_s_median_pass"] = median(pass_rate);
  result.diagnostics["all_calls_latency_p50_us"] = quantile(all_us, 0.5);
  result.diagnostics["all_calls_latency_p90_us"] = quantile(all_us, 0.9);
  result.diagnostics["all_calls_latency_p99_us"] = quantile(all_us, 0.99);
  result.diagnostics["latency_samples"] = static_cast<double>(all_us.size());
  result.diagnostics["passes"] = static_cast<double>(pass_rate.size());
}

double host_probe_ms() {
  constexpr std::size_t kTable = std::size_t{1} << 16;  // 256 KiB
  constexpr int kSteps = 1 << 21;
  std::vector<std::uint32_t> table(kTable);
  double best_ms = 0.0;
  std::uint64_t state = 1, sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kSteps; ++i) {
      const std::uint64_t h = drsm::splitmix64(state);
      table[h % kTable] += static_cast<std::uint32_t>(h >> 32);
      sink += table[(h >> 20) % kTable];
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  static volatile std::uint64_t keep;  // so the loop is not optimized away
  keep = sink;
  return best_ms;
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  drsm::splitmix64(state);
  state += index * 0x9E3779B97F4A7C15ULL;
  return drsm::splitmix64(state);
}

Tracer::Tracer(std::size_t capacity) : spans_(capacity) {}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::claim() {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNone;
  }
  return static_cast<std::uint32_t>(slot + 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint64_t op,
                           std::uint32_t parent) {
  const std::uint32_t id = claim();
  if (id != kNone) spans_[id - 1] = Span{name, parent, op, now_ns(), 0};
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (id != kNone) spans_[id - 1].end_ns = now_ns();
}

void Tracer::leaf(std::uint32_t name, std::uint64_t op, std::uint32_t parent,
                  std::uint64_t start_ns, std::uint64_t end_ns) {
  const std::uint32_t id = claim();
  if (id != kNone) spans_[id - 1] = Span{name, parent, op, start_ns, end_ns};
}

std::size_t Tracer::recorded() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,name,start_ns,end_ns,parent,op\n";
  const std::size_t n = recorded();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << i + 1 << ',' << names_[s.name] << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.parent << ',' << s.op << '\n';
  }
}

std::map<std::string, std::vector<std::string>> read_goldens(
    const std::string& path) {
  std::map<std::string, std::vector<std::string>> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    std::vector<std::string> values;
    for (std::string v; fields >> v;) values.push_back(v);
    goldens[key] = std::move(values);
  }
  return goldens;
}

}  // namespace perfbench
