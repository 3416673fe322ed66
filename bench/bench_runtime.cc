// Experiment E11 (concurrent runtime) — throughput of the sharded
// concurrent DSM (dsm::ConcurrentSharedMemory) under real client threads,
// and the channel and sequential baselines it is measured against.
//
// Phases:
//
//  * channel:       the MPSC ring against the mutex+deque reference queue
//                   with the same surface (sim::MutexQueue), 3 producers;
//  * baseline:      strictly sequential dsm::SharedMemory, for context;
//  * shard_sweep:   Zipf(0.99)-skewed read-mostly sessions against
//                   S = 1, 2, 4 shards; median-of-3 ops/sec per point.
//                   Whether throughput rose with every added shard is
//                   recorded as monotone_shard_scaling; it does not fail
//                   the bench;
//  * thread_sweep:  session count 1..8 at the best shard count;
//  * closed_loop:   a tiny window (W=8) for the latency-oriented regime,
//                   with GK-sketch per-op latency percentiles;
//  * protocol_sweep: all eight protocols at the sweet spot;
//  * oracle:        the same workload with check::ShardedOracle attached
//                   to every shard — the bench fails (nonzero exit) on any
//                   coherence violation, and only on that.
//
// Throughput numbers are wall-clock and thus machine-dependent; the
// regression gate (tools/drsm_bench_diff) only pins the accuracy fields of
// other reports and the wall-time ratio, so nothing here is bit-compared.
// Report: BENCH_runtime.json.  DRSM_BENCH_SMOKE=1 shrinks every phase
// (CI smoke); DRSM_BENCH_RUNTIME_OPS overrides the per-session op count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "check/sharded_oracle.h"
#include "dsm/concurrent.h"
#include "dsm/dsm.h"
#include "sim/mpsc_ring.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr double kZipfSkew = 0.99;
constexpr std::size_t kObjects = 256;
constexpr double kReadRatio = 0.9;

// The capacity-constrained regime the shard sweep measures: windows much
// larger than one shard's request ring, so with few shards the sessions
// live in backpressure (pump/yield/park churn) and every added shard both
// adds aggregate ring capacity (S x ring) and spreads the Zipf-hot head
// objects (modulo placement puts consecutive ids on distinct shards).
// Env-overridable for regime exploration: DRSM_BENCH_RUNTIME_RING/BATCH.
std::size_t g_ring_capacity = 64;
std::size_t g_max_batch = 64;
constexpr std::size_t kWindow = 4096;

struct SweepPoint {
  double ops_per_sec = 0.0;
  dsm::ConcurrentSharedMemory::Stats stats;
};

double elapsed_sec(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One open-loop (window-limited) session: Zipf-skewed object choice,
/// read-mostly mix, unique write values.
void session_main(dsm::ConcurrentSharedMemory& mem, NodeId node,
                  const CategoricalSampler& zipf, std::size_t ops,
                  std::uint64_t seed) {
  auto& session = mem.session(node);
  Rng rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const ObjectId object = static_cast<ObjectId>(zipf.sample(rng));
    if (rng.uniform() < kReadRatio)
      session.read(object);
    else
      session.write_unique(object);
  }
  session.drain();
}

SweepPoint run_concurrent(ProtocolKind kind, std::size_t sessions,
                          std::size_t shards, std::size_t ops_per_session,
                          std::size_t window, std::uint64_t seed,
                          check::ShardedOracle* oracle = nullptr) {
  dsm::ConcurrentSharedMemory::Options options;
  options.protocol = kind;
  options.num_clients = sessions;
  options.num_objects = kObjects;
  options.num_shards = shards;
  options.ring_capacity = g_ring_capacity;
  options.max_batch = g_max_batch;
  options.max_inflight = window;
  if (oracle != nullptr)
    for (std::size_t s = 0; s < shards; ++s)
      options.shard_taps.push_back(oracle->tap(s));

  const CategoricalSampler zipf(workload::zipf_weights(kObjects, kZipfSkew));
  dsm::ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (std::size_t c = 0; c < sessions; ++c)
      threads.emplace_back(session_main, std::ref(mem),
                           static_cast<NodeId>(c), std::cref(zipf),
                           ops_per_session, seed + c);
    for (auto& t : threads) t.join();
  }
  mem.stop();

  SweepPoint point;
  point.stats = mem.stats();
  point.ops_per_sec = point.stats.ops_per_sec();
  return point;
}

/// Median ops/sec over `reps` runs (each rep re-creates the runtime), with
/// the stats of the median rep.
SweepPoint median_point(ProtocolKind kind, std::size_t sessions,
                        std::size_t shards, std::size_t ops_per_session,
                        std::size_t window, int reps) {
  std::vector<SweepPoint> points;
  for (int rep = 0; rep < reps; ++rep)
    points.push_back(run_concurrent(kind, sessions, shards, ops_per_session,
                                    window, 0x5eed + 97 * rep));
  std::sort(points.begin(), points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.ops_per_sec < b.ops_per_sec;
            });
  return points[points.size() / 2];
}

obs::JsonValue point_json(const SweepPoint& point) {
  obs::JsonValue row;
  row["ops_per_sec"] = point.ops_per_sec;
  row["wall_ms"] = point.stats.wall_ms;
  row["ops"] = static_cast<double>(point.stats.ops);
  row["cost_per_op"] = point.stats.acc();
  row["messages"] = static_cast<double>(point.stats.messages);
  row["batches"] = static_cast<double>(point.stats.batches);
  row["max_batch"] = static_cast<double>(point.stats.max_batch);
  row["shard_parks"] = static_cast<double>(point.stats.shard_parks);
  row["ring_full_stalls"] =
      static_cast<double>(point.stats.ring_full_stalls);
  row["submit_stalls"] = static_cast<double>(point.stats.submit_stalls);
  row["window_stalls"] = static_cast<double>(point.stats.window_stalls);
  return row;
}

void merge_point(obs::JsonValue& row, const SweepPoint& point) {
  const obs::JsonValue fields = point_json(point);
  for (std::size_t i = 0; i < fields.size(); ++i)
    row[fields.key(i)] = fields.at(i);
}

// -- channel micro: ring vs the mutex+deque reference queue ----------------

template <class Queue>
double channel_items_per_sec(std::size_t producers,
                             std::size_t per_producer) {
  Queue queue(1 << 10);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&queue, per_producer] {
      for (std::size_t i = 0; i < per_producer; ++i)
        while (!queue.try_push(i)) std::this_thread::yield();
    });
  }
  std::uint64_t received = 0;
  std::uint64_t out[256];
  const std::uint64_t expected = producers * per_producer;
  while (received < expected) {
    const std::size_t n = queue.pop_batch(out, 256);
    if (n == 0) std::this_thread::yield();
    received += n;
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(expected) / elapsed_sec(start);
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DRSM_BENCH_SMOKE") != nullptr;
  std::size_t ops_per_session = smoke ? 8000 : 150000;
  if (const char* env = std::getenv("DRSM_BENCH_RUNTIME_OPS"))
    ops_per_session = static_cast<std::size_t>(std::atoll(env));
  const int reps = smoke ? 1 : 3;
  const ProtocolKind kind = ProtocolKind::kIllinois;
  if (const char* env = std::getenv("DRSM_BENCH_RUNTIME_RING"))
    g_ring_capacity = static_cast<std::size_t>(std::atoll(env));
  if (const char* env = std::getenv("DRSM_BENCH_RUNTIME_BATCH"))
    g_max_batch = static_cast<std::size_t>(std::atoll(env));

  std::printf(
      "Concurrent sharded DSM runtime (M=%zu objects, Zipf %.2f, "
      "%.0f%% reads, ring=%zu, batch=%zu, window=%zu, "
      "%zu ops/session x %d reps)\n\n",
      kObjects, kZipfSkew, kReadRatio * 100.0, g_ring_capacity, g_max_batch,
      kWindow, ops_per_session, reps);
  bench::Report report("runtime");

  // -- channel: lock-free ring vs the mutex+deque reference queue --------
  report.phase("channel");
  const std::size_t channel_items = smoke ? 40000 : 400000;
  const double mutex_rate =
      channel_items_per_sec<sim::MutexQueue<std::uint64_t>>(
          3, channel_items / 3);
  const double ring_rate =
      channel_items_per_sec<sim::MpscRing<std::uint64_t>>(
          3, channel_items / 3);
  std::printf("channel (3 producers): mutex+deque %.2fM items/s -> "
              "mpsc ring %.2fM items/s (%.2fx)\n\n",
              mutex_rate / 1e6, ring_rate / 1e6, ring_rate / mutex_rate);
  {
    auto& row = report.add_result();
    row["phase"] = "channel";
    row["mutex_items_per_sec"] = mutex_rate;
    row["ring_items_per_sec"] = ring_rate;
    row["ring_speedup"] = ring_rate / mutex_rate;
  }

  // -- baseline: the sequential facade ------------------------------------
  report.phase("baseline");
  {
    dsm::SharedMemory::Options options;
    options.protocol = kind;
    options.num_clients = 4;
    options.num_objects = kObjects;
    dsm::SharedMemory mem(options);
    const CategoricalSampler zipf(
        workload::zipf_weights(kObjects, kZipfSkew));
    Rng rng(0xba5e);
    const std::size_t ops = smoke ? 20000 : 200000;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const ObjectId object = static_cast<ObjectId>(zipf.sample(rng));
      const NodeId node = static_cast<NodeId>(i % 4);
      if (rng.uniform() < kReadRatio)
        mem.read(node, object);
      else
        mem.write(node, object, i);
    }
    const double seq_rate = static_cast<double>(ops) / elapsed_sec(start);
    std::printf("baseline: sequential facade %.2fM ops/s\n\n",
                seq_rate / 1e6);
    auto& row = report.add_result();
    row["phase"] = "baseline";
    row["sequential_ops_per_sec"] = seq_rate;
  }

  // -- shard sweep: the tentpole numbers ---------------------------------
  report.phase("shard_sweep");
  const std::size_t sweep_sessions = 8;
  std::printf("shard sweep (T=%zu sessions, W=%zu):\n", sweep_sessions,
              kWindow);
  std::printf("  %6s %14s %10s %12s %14s %12s\n", "shards", "ops/sec",
              "wall ms", "cost/op", "ring stalls", "parks");
  double peak_ops_per_sec = 0.0;
  std::size_t best_shards = 1;
  bool monotone = true;
  double previous = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const SweepPoint point = median_point(kind, sweep_sessions, shards,
                                          ops_per_session, kWindow, reps);
    std::printf("  %6zu %14.0f %10.1f %12.3f %14llu %12llu\n", shards,
                point.ops_per_sec, point.stats.wall_ms, point.stats.acc(),
                static_cast<unsigned long long>(
                    point.stats.ring_full_stalls),
                static_cast<unsigned long long>(point.stats.shard_parks));
    if (point.ops_per_sec < previous) monotone = false;
    previous = point.ops_per_sec;
    if (point.ops_per_sec > peak_ops_per_sec) {
      peak_ops_per_sec = point.ops_per_sec;
      best_shards = shards;
    }
    auto& row = report.add_result();
    row["phase"] = "shard_sweep";
    row["shards"] = static_cast<double>(shards);
    row["sessions"] = static_cast<double>(sweep_sessions);
    merge_point(row, point);
  }
  std::printf("  -> peak %.2fM ops/s @ %zu shards, scaling %s\n\n",
              peak_ops_per_sec / 1e6, best_shards,
              monotone ? "monotone" : "NOT monotone");

  // -- thread sweep at the best shard count ------------------------------
  report.phase("thread_sweep");
  std::printf("session sweep (S=%zu shards):\n", best_shards);
  std::printf("  %8s %14s %10s\n", "sessions", "ops/sec", "wall ms");
  for (const std::size_t sessions : {1u, 2u, 4u, 8u}) {
    const SweepPoint point = median_point(kind, sessions, best_shards,
                                          ops_per_session, kWindow, reps);
    std::printf("  %8zu %14.0f %10.1f\n", sessions, point.ops_per_sec,
                point.stats.wall_ms);
    auto& row = report.add_result();
    row["phase"] = "thread_sweep";
    row["sessions"] = static_cast<double>(sessions);
    row["shards"] = static_cast<double>(best_shards);
    merge_point(row, point);
  }
  std::printf("\n");

  // -- closed loop: small window, per-op latency -------------------------
  report.phase("closed_loop");
  {
    const SweepPoint point =
        median_point(kind, sweep_sessions, best_shards,
                     std::max<std::size_t>(ops_per_session / 4, 1), 8, reps);
    std::printf("closed loop (W=8): %.2fM ops/s, latency p50 %.0fns "
                "p99 %.0fns (n=%llu sampled)\n\n",
                point.ops_per_sec / 1e6, point.stats.latency_ns.query(0.5),
                point.stats.latency_ns.query(0.99),
                static_cast<unsigned long long>(
                    point.stats.latency_ns.count()));
    auto& row = report.add_result();
    row["phase"] = "closed_loop";
    row["window"] = 8.0;
    merge_point(row, point);
    row["latency_ns"] = point.stats.latency_ns.to_json();
  }

  // -- protocol sweep ----------------------------------------------------
  report.phase("protocol_sweep");
  std::printf("protocol sweep (T=%zu, S=%zu):\n", sweep_sessions,
              best_shards);
  std::printf("  %6s %14s %12s\n", "proto", "ops/sec", "cost/op");
  for (const ProtocolKind protocol : protocols::kAllProtocols) {
    const SweepPoint point = run_concurrent(
        protocol, sweep_sessions, best_shards,
        std::max<std::size_t>(ops_per_session / 4, 1), kWindow, 0x9807);
    std::printf("  %6s %14.0f %12.3f\n", bench::short_name(protocol),
                point.ops_per_sec, point.stats.acc());
    auto& row = report.add_result();
    row["phase"] = "protocol_sweep";
    row["protocol"] = bench::short_name(protocol);
    merge_point(row, point);
  }
  std::printf("\n");

  // -- oracle-refereed run ------------------------------------------------
  report.phase("oracle");
  bool oracle_ok = true;
  {
    check::ShardedOracle oracle(best_shards);
    const SweepPoint point = run_concurrent(
        kind, sweep_sessions, best_shards,
        std::max<std::size_t>(ops_per_session / 4, 1), kWindow, 0x0c1e,
        &oracle);
    oracle.finish();
    oracle_ok = oracle.ok();
    std::printf("oracle-refereed run: %.2fM ops/s with live referee, "
                "%zu commits / %zu reads checked -> %s\n\n",
                point.ops_per_sec / 1e6, oracle.commits(), oracle.reads(),
                oracle_ok ? "clean" : "VIOLATIONS");
    for (const std::string& violation : oracle.violations())
      std::printf("  violation: %s\n", violation.c_str());
    auto& row = report.add_result();
    row["phase"] = "oracle";
    row["oracle_ok"] = oracle_ok;
    row["oracle_commits"] = static_cast<double>(oracle.commits());
    row["oracle_reads"] = static_cast<double>(oracle.reads());
    merge_point(row, point);
  }

  report.root()["peak_ops_per_sec"] = peak_ops_per_sec;
  report.root()["peak_shards"] = static_cast<double>(best_shards);
  report.root()["monotone_shard_scaling"] = monotone;
  report.root()["oracle_ok"] = oracle_ok;
  report.write();

  if (!oracle_ok) {
    std::fprintf(stderr, "bench_runtime: coherence violations detected\n");
    return 1;
  }
  return 0;
}
