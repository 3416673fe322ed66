// runtime_read_hot: dsm::ConcurrentSharedMemory (Illinois, 1 shard, 256
// objects) with two client sessions driven by one closed-loop load
// generator thread; objects drawn Zipf(0.99), 95% reads.
//
// One producer thread means each shard's request ring sees the same
// request order in every run, so the protocol work — acc and message
// counts — is a pure function of the seed even though shard batching and
// parking depend on timing.  The cost is that multi-producer contention
// on the ring is not exercised.
//
// A run repeats rounds until its time is up.  A round builds a fresh
// runtime, warms it (each session reads every object once; timed as
// set-up), issues the seed's op sequence, drains both sessions, stops the
// runtime and checks every grant.  After the timed rounds one untimed
// replay runs with check::ShardedOracle on every shard.
//
// Host contention slows this runtime far more than its share of the
// time: a shard or session whose vCPU is stolen stalls the others, and a
// steal storm slows whole 50-ms rounds several-fold.  So the timings come
// from windows of kWindowOps consecutive ops of the op phase (the first
// window of a round, which starts with empty session windows, is left
// out), short enough that some fall between the host's interruptions, and
// each is the lower decile (kRepeatQuantile) over every window of the run:
//  * ops_per_s: kWindowOps / a window's wall time, first issue to first
//    issue of the next window (in a closed loop ops issue as fast as they
//    complete);
//  * op latency p50 and p90: a window's quantile over its sampled ops;
//  * setup_s: the median over the rounds of a round's set-up time.
// The plain figures — the median round's ops / op-phase time and the
// latency quantiles pooled over every round — stay in the run record.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "check/sharded_oracle.h"
#include "dsm/concurrent.h"
#include "dsm/dsm.h"
#include "support/error.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using drsm::ObjectId;
using drsm::dsm::ConcurrentSharedMemory;

struct Shape {
  std::size_t shards = 1;
  std::size_t objects = 256;
  double zipf_skew = 0.0;
  double write_fraction = 0.0;
};

constexpr std::size_t kSessions = 2;
constexpr std::size_t kWindow = 64;  // per-session in-flight ops
constexpr std::size_t kRoundOps = 200000;
// Every k-th op of the sequence carries a latency sample.
constexpr std::size_t kLatencyEvery = 8;
// A round keeps its latency samples as this many evenly spaced order
// statistics (each stands for 1% of the round's samples), so pooling
// every round costs little memory per round.
constexpr std::size_t kLatencyPoints = 100;
// Ops per timing window (about 2 ms on the 4-vCPU VM); a multiple of
// kLatencyEvery, so each window has kWindowOps / kLatencyEvery samples.
constexpr std::size_t kWindowOps = 8192;
constexpr auto kProtocol = drsm::protocols::ProtocolKind::kIllinois;

constexpr Shape kReadHot = {1, 256, 0.99, 0.05};

struct Op {
  ObjectId object = 0;
  std::uint32_t local = 0;  // index among its session's ops
  std::uint8_t session = 0;
  bool write = false;
};

std::vector<Op> generate(const Shape& shape, std::uint64_t seed) {
  drsm::Rng rng(derive_seed(seed, 1, 0));
  const drsm::CategoricalSampler zipf(
      drsm::workload::zipf_weights(shape.objects, shape.zipf_skew));
  std::vector<Op> ops(kRoundOps);
  std::uint32_t per_session[kSessions] = {};
  for (Op& op : ops) {
    op.session = static_cast<std::uint8_t>(rng.next() & 1);
    op.object = static_cast<ObjectId>(zipf.sample(rng));
    op.write = rng.uniform() < shape.write_fraction;
    op.local = per_session[op.session]++;
  }
  return ops;
}

/// Everything one session's grant handler records, indexed by the op's
/// position among the session's ops.
struct SessionLog {
  std::uint64_t base = 0;  // tickets the session issued during warm-up
  std::vector<std::uint32_t> global;  // position -> index in the sequence
  std::vector<std::uint64_t> value, version, issue_ns;
  std::vector<std::uint8_t> granted;
  std::uint64_t stray = 0;  // grants whose ticket matches no timed op
  std::vector<double>* latency_us = nullptr;  // by sequence index / k
  Tracer* tracer = nullptr;
  std::uint32_t span_name = 0;
  std::uint32_t round_span = 0;
  std::uint64_t op_base = 0;

  void reset() {
    std::fill(granted.begin(), granted.end(), 0);
    std::fill(issue_ns.begin(), issue_ns.end(), 0);
    stray = 0;
  }

  void on_grant(const drsm::sim::ShardGrant& grant) {
    const std::uint64_t k = grant.ticket - base - 1;
    if (grant.ticket <= base || k >= granted.size()) {
      ++stray;
      return;
    }
    value[k] = grant.value;
    version[k] = grant.version;
    granted[k] = 1;
    if (issue_ns[k] != 0) {
      const std::uint64_t end = now_ns();
      (*latency_us)[global[k] / kLatencyEvery] =
          static_cast<double>(end - issue_ns[k]) * 1e-3;
      if (tracer != nullptr)
        tracer->leaf(span_name, op_base + global[k], round_span, issue_ns[k],
                     end);
    }
  }
};

struct Round {
  double setup_s = 0.0;
  double ops_s = 0.0;  // first issue to last drain
  // Per full window after the first: wall time and latency quantiles.
  std::vector<double> window_s, window_p50_us, window_p90_us;
  std::vector<float> latency_us;  // kLatencyPoints order statistics
  std::size_t latency_samples = 0;
  double submit_p50_ns = 0.0, submit_p90_ns = 0.0;
  ConcurrentSharedMemory::Stats stats;
  std::uint64_t failed_ops = 0;
  std::string error;
};

class Harness {
 public:
  Harness(const Shape& shape, const std::vector<Op>& ops, Tracer* tracer)
      : shape_(shape),
        ops_(ops),
        tracer_(tracer),
        latency_us_(ops.size() / kLatencyEvery + 1),
        bad_(ops.size()) {
    for (const Op& op : ops) logs_[op.session].global.push_back(0);
    for (std::size_t i = 0; i < ops.size(); ++i)
      logs_[ops[i].session].global[ops[i].local] =
          static_cast<std::uint32_t>(i);
    for (SessionLog& log : logs_) {
      const std::size_t n = log.global.size();
      log.value.assign(n, 0);
      log.version.assign(n, 0);
      log.issue_ns.assign(n, 0);
      log.granted.assign(n, 0);
      log.latency_us = &latency_us_;
      log.tracer = tracer;
    }
    if (tracer != nullptr) {
      submit_ns_.reserve(ops.size() / kLatencyEvery + 16);
      names_.round = tracer->intern("runtime.round");
      names_.setup = tracer->intern("dsm.setup");
      names_.submit = tracer->intern("dsm.submit");
      names_.drain = tracer->intern("dsm.drain");
      names_.op = tracer->intern("runtime.op");
      for (SessionLog& log : logs_) log.span_name = names_.op;
    }
  }

  /// One round; `oracle` (untimed replay only) referees every shard.
  Round run(std::uint64_t round_id, drsm::check::ShardedOracle* oracle) {
    Round round;
    std::fill(latency_us_.begin(), latency_us_.end(), -1.0);
    submit_ns_.clear();
    for (SessionLog& log : logs_) log.reset();
    const std::uint64_t op_base = round_id * ops_.size();
    ScopedSpan round_span(tracer_, names_.round, round_id, Tracer::kNone);

    ConcurrentSharedMemory::Options options;
    options.protocol = kProtocol;
    options.num_clients = kSessions;
    options.num_objects = shape_.objects;
    options.num_shards = shape_.shards;
    options.max_inflight = kWindow;
    if (oracle != nullptr)
      for (std::size_t s = 0; s < shape_.shards; ++s)
        options.shard_taps.push_back(oracle->tap(s));

    try {
      std::unique_ptr<ConcurrentSharedMemory> mem;
      {
        ScopedSpan span(tracer_, names_.setup, round_id, round_span.id());
        const std::uint64_t t0 = now_ns();
        mem = std::make_unique<ConcurrentSharedMemory>(options);
        for (std::size_t s = 0; s < kSessions; ++s)
          for (std::size_t o = 0; o < shape_.objects; ++o)
            mem->session(static_cast<drsm::NodeId>(s))
                .read(static_cast<ObjectId>(o));
        for (std::size_t s = 0; s < kSessions; ++s)
          mem->session(static_cast<drsm::NodeId>(s)).drain();
        round.setup_s = seconds_since(t0);
      }
      ConcurrentSharedMemory::Session* sessions[kSessions];
      for (std::size_t s = 0; s < kSessions; ++s) {
        sessions[s] = &mem->session(static_cast<drsm::NodeId>(s));
        SessionLog& log = logs_[s];
        log.base = sessions[s]->issued();
        log.round_span = round_span.id();
        log.op_base = op_base;
        sessions[s]->set_grant_handler(
            [&log](const drsm::sim::ShardGrant& g) { log.on_grant(g); });
      }

      const std::uint64_t t0 = now_ns();
      if (tracer_ != nullptr)
        issue_traced(sessions, op_base, round_span.id());
      else
        issue(sessions);
      {
        ScopedSpan span(tracer_, names_.drain, round_id, round_span.id());
        for (auto* session : sessions) session->drain();
      }
      round.ops_s = seconds_since(t0);
      mem->stop();
      round.stats = mem->stats();
      // Its latency sketch would make peak RSS grow with the round count.
      round.stats.latency_ns = drsm::obs::Quantile();
      round.failed_ops = check(sessions);
    } catch (const std::exception& e) {
      round.error = e.what();
      round.failed_ops = ops_.size();
      return round;
    }
    summarize(round);
    return round;
  }

 private:
  void issue(ConcurrentSharedMemory::Session* const* sessions) {
    window_start_ns_.clear();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (i % kWindowOps == 0) window_start_ns_.push_back(now_ns());
      if (i % kLatencyEvery == 0)
        logs_[op.session].issue_ns[op.local] = now_ns();
      if (op.write)
        sessions[op.session]->write_unique(op.object);
      else
        sessions[op.session]->read(op.object);
    }
  }

  /// The untraced loop plus, on the sampled ops, the time spent inside
  /// the submit call and a span for it.
  void issue_traced(ConcurrentSharedMemory::Session* const* sessions,
                    std::uint64_t op_base, std::uint32_t parent) {
    window_start_ns_.clear();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (i % kWindowOps == 0) window_start_ns_.push_back(now_ns());
      const bool sampled = i % kLatencyEvery == 0;
      const std::uint64_t t0 = sampled ? now_ns() : 0;
      if (sampled) logs_[op.session].issue_ns[op.local] = t0;
      if (op.write)
        sessions[op.session]->write_unique(op.object);
      else
        sessions[op.session]->read(op.object);
      if (!sampled) continue;
      const std::uint64_t t1 = now_ns();
      submit_ns_.push_back(static_cast<double>(t1 - t0));
      tracer_->leaf(names_.submit, op_base + i, parent, t0, t1);
    }
  }

  /// Window timings, latency order statistics and submit-time quantiles
  /// of a finished round.
  void summarize(Round& round) {
    constexpr std::size_t kPerWindow = kWindowOps / kLatencyEvery;
    std::vector<double> window;
    for (std::size_t w = 1; w + 1 < window_start_ns_.size(); ++w) {
      round.window_s.push_back(
          static_cast<double>(window_start_ns_[w + 1] - window_start_ns_[w]) *
          1e-9);
      window.clear();
      for (std::size_t k = w * kPerWindow; k < (w + 1) * kPerWindow; ++k)
        if (latency_us_[k] >= 0.0) window.push_back(latency_us_[k]);
      round.window_p50_us.push_back(quantile(window, 0.5));
      round.window_p90_us.push_back(quantile(window, 0.9));
    }
    std::vector<double> all;
    for (double us : latency_us_)
      if (us >= 0.0) all.push_back(us);
    std::sort(all.begin(), all.end());
    round.latency_samples = all.size();
    for (std::size_t i = 0; i < kLatencyPoints && !all.empty(); ++i)
      round.latency_us.push_back(static_cast<float>(
          all[(2 * i + 1) * all.size() / (2 * kLatencyPoints)]));
    round.submit_p50_ns = quantile(submit_ns_, 0.5);
    round.submit_p90_ns = quantile(submit_ns_, 0.9);
  }

  /// Post-stop checks; returns the number of ops that failed one.
  std::uint64_t check(ConcurrentSharedMemory::Session* const* sessions) {
    std::fill(bad_.begin(), bad_.end(), 0);
    std::uint64_t extra = 0;
    std::vector<std::pair<ObjectId, std::uint64_t>> writes;
    std::vector<std::uint64_t> last_version(shape_.objects);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const SessionLog& log = logs_[s];
      extra += log.stray;
      if (sessions[s]->completed() != sessions[s]->issued()) ++extra;
      std::fill(last_version.begin(), last_version.end(), 0);
      for (std::size_t k = 0; k < log.global.size(); ++k) {
        const std::uint32_t i = log.global[k];
        const Op& op = ops_[i];
        if (!log.granted[k]) {
          bad_[i] = 1;
          continue;
        }
        // Per session and object, granted versions never decrease.
        if (log.version[k] < last_version[op.object]) bad_[i] = 1;
        last_version[op.object] = log.version[k];
        if (op.write) writes.emplace_back(op.object, log.value[k]);
      }
    }
    // A read returns 0 or a value some write_unique stored to that object.
    std::sort(writes.begin(), writes.end());
    for (std::size_t s = 0; s < kSessions; ++s) {
      const SessionLog& log = logs_[s];
      for (std::size_t k = 0; k < log.global.size(); ++k) {
        const std::uint32_t i = log.global[k];
        const Op& op = ops_[i];
        if (op.write || !log.granted[k] || log.value[k] == 0) continue;
        if (!std::binary_search(writes.begin(), writes.end(),
                                std::make_pair(op.object, log.value[k])))
          bad_[i] = 1;
      }
    }
    return extra + static_cast<std::uint64_t>(
                       std::count(bad_.begin(), bad_.end(), 1));
  }

  struct Names {
    std::uint32_t round = 0, setup = 0, submit = 0, drain = 0, op = 0;
  };

  Shape shape_;
  const std::vector<Op>& ops_;
  Tracer* tracer_;
  Names names_;
  SessionLog logs_[kSessions];
  std::vector<double> latency_us_;  // -1 = no sample
  std::vector<std::uint64_t> window_start_ns_;  // issue time of each window
  std::vector<double> submit_ns_;  // traced runs: time inside the call
  std::vector<std::uint8_t> bad_;
};

/// protocols layer alone: the same op sequence through the sequential
/// dsm::SharedMemory facade on one thread; returns ns per op.
double sequential_execute_ns(const Shape& shape, const std::vector<Op>& ops) {
  drsm::dsm::SharedMemory::Options options;
  options.protocol = kProtocol;
  options.num_clients = kSessions;
  options.num_objects = shape.objects;
  drsm::dsm::SharedMemory mem(options);
  for (std::size_t s = 0; s < kSessions; ++s)
    for (std::size_t o = 0; o < shape.objects; ++o)
      mem.read(static_cast<drsm::NodeId>(s), static_cast<ObjectId>(o));
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.write)
      mem.write(op.session, op.object, i + 1);
    else
      mem.read(op.session, op.object);
  }
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(ops.size());
}

}  // namespace

void run_runtime(const RunOptions& options, Tracer* tracer, Result& result) {
  const Shape shape = kReadHot;
  const std::vector<Op> ops = generate(shape, options.seed);
  Digest digest;
  for (const Op& op : ops) {
    digest.add(op.object);
    digest.add(op.session);
    digest.add(op.write);
  }
  result.input_digest = digest.hex();
  result.threads["load_generator"] = 1;
  result.threads["shards"] = static_cast<double>(shape.shards);
  result.threads["total"] = 1.0 + static_cast<double>(shape.shards);

  Harness harness(shape, ops, tracer);
  std::vector<Round> rounds;
  const std::uint64_t start = now_ns();
  while (rounds.empty() || seconds_since(start) < options.seconds)
    rounds.push_back(harness.run(rounds.size(), nullptr));

  // Untimed replay refereed by the coherence oracle.
  drsm::check::ShardedOracle oracle(shape.shards);
  Round replay = harness.run(rounds.size(), &oracle);
  if (replay.error.empty()) {
    oracle.finish();
    for (const std::string& v : oracle.violations())
      result.fail(1, "oracle: " + v);
  }

  const Round& first = rounds.front();
  auto tally = [&](const Round& r, const char* what) {
    result.attempted += ops.size();
    if (!r.error.empty()) {
      result.fail(r.failed_ops, std::string(what) + ": " + r.error);
      return;
    }
    if (r.failed_ops > 0)
      result.fail(r.failed_ops, std::string(what) + ": ops failed a check");
    // Exact per seed: a single producer fixes every shard's request order.
    if (r.stats.cost != first.stats.cost ||
        r.stats.messages != first.stats.messages)
      result.fail(1, std::string(what) + ": acc/messages differ from round 0");
  };
  for (const Round& r : rounds) tally(r, "round");
  tally(replay, "oracle replay");

  std::vector<double> setup, ops_s, window_s, p50, p90, sub50, sub90;
  std::vector<float> latency;  // pooled over every round
  std::uint64_t ops_total = 0, batches = 0, parks = 0, yields = 0,
                ring_full = 0, submit_stalls = 0, window_stalls = 0;
  std::size_t latency_samples = 0;
  for (const Round& r : rounds) {
    if (!r.error.empty()) continue;
    setup.push_back(r.setup_s);
    ops_s.push_back(r.ops_s);
    window_s.insert(window_s.end(), r.window_s.begin(), r.window_s.end());
    p50.insert(p50.end(), r.window_p50_us.begin(), r.window_p50_us.end());
    p90.insert(p90.end(), r.window_p90_us.begin(), r.window_p90_us.end());
    latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    sub50.push_back(r.submit_p50_ns);
    sub90.push_back(r.submit_p90_ns);
    latency_samples += r.latency_samples;
    ops_total += r.stats.ops;
    batches += r.stats.batches;
    parks += r.stats.shard_parks;
    yields += r.stats.idle_yields;
    ring_full += r.stats.ring_full_stalls;
    submit_stalls += r.stats.submit_stalls;
    window_stalls += r.stats.window_stalls;
  }
  if (window_s.empty()) return;  // every round failed; already counted

  const double round_ops = static_cast<double>(ops.size());
  const double ops_per_s =
      static_cast<double>(kWindowOps) / quantile(window_s, kRepeatQuantile);
  result.metric("ops_per_s", ops_per_s, "1/s");
  result.metric("op_latency_p50_us", quantile(p50, kRepeatQuantile), "us");
  result.metric("op_latency_p90_us", quantile(p90, kRepeatQuantile), "us");
  result.metric("setup_s", median(setup), "s");
  // The plain statistics over every round, for comparison.
  result.diagnostics["wall_ops_per_s_median_round"] = round_ops / median(ops_s);
  result.diagnostics["windows"] = static_cast<double>(window_s.size());
  result.diagnostics["all_rounds_latency_p50_us"] = quantile(latency, 0.5);
  result.diagnostics["all_rounds_latency_p90_us"] = quantile(latency, 0.9);
  result.diagnostics["all_rounds_latency_p99_us"] = quantile(latency, 0.99);
  result.diagnostics["latency_samples"] = static_cast<double>(latency_samples);
  result.diagnostics["rounds"] = static_cast<double>(rounds.size());
  result.diagnostics["ops_per_round"] = round_ops;
  result.diagnostics["acc"] = first.stats.acc();
  result.diagnostics["oracle_commits"] = static_cast<double>(oracle.commits());
  result.diagnostics["oracle_reads"] = static_cast<double>(oracle.reads());
  result.exact["acc"] = first.stats.acc();
  result.exact["messages"] = static_cast<double>(first.stats.messages);
  result.exact["runtime_ops"] = static_cast<double>(first.stats.ops);

  if (tracer == nullptr) return;
  const auto per_kop = [&](std::uint64_t n) {
    return 1000.0 * static_cast<double>(n) / static_cast<double>(ops_total);
  };
  std::vector<double> execute;
  for (int rep = 0; rep < 3; ++rep)
    execute.push_back(sequential_execute_ns(shape, ops));
  const double execute_ns = median(execute);
  result.metric("dsm.submit_ns_p50", median(sub50), "ns");
  result.metric("dsm.submit_ns_p90", median(sub90), "ns");
  // Each shard serves 1/shards of the ops over the whole op phase, so a
  // shard's time per op is shards / ops_per_s; what execute does not
  // account for is transport.
  result.metric("dsm.transport_ns_per_op",
                1e9 * static_cast<double>(shape.shards) / ops_per_s -
                    execute_ns,
                "ns");
  result.metric("dsm.window_stalls_per_kop", per_kop(window_stalls), "1/kop");
  result.metric("dsm.submit_stalls_per_kop", per_kop(submit_stalls), "1/kop");
  result.metric("sim.shard_batch_mean",
                static_cast<double>(ops_total) / static_cast<double>(batches),
                "ops/batch");
  result.metric("sim.shard_parks_per_kop", per_kop(parks), "1/kop");
  result.metric("sim.shard_idle_yields_per_kop", per_kop(yields), "1/kop");
  result.metric("sim.ring_full_stalls_per_kop", per_kop(ring_full), "1/kop");
  result.metric("protocols.execute_ns_mean", execute_ns, "ns");
  result.metric("protocols.messages_per_op",
                static_cast<double>(first.stats.messages) /
                    static_cast<double>(first.stats.ops),
                "msg/op");
  result.metric("protocols.acc", first.stats.acc(), "cost/op");
}

}  // namespace perfbench
