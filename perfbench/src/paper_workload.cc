// paper_validate: the paper's Table-7 check, analysis against simulation,
// on its system (N=3, a=2, S=100, P=30, M=20) for all eight protocols over
// the 12 valid (p, sigma) read-disturbance cells each.
//
// One op is one cell: an AccSolver::acc call plus one
// sim::run_replications call (8 replications of 500 warm-up + 1,500
// measured ops, ConcurrentDriver, 2 threads), made the way bench_table7
// makes it.  The 96-cell grid repeats in passes (run_passes); each pass
// visits the cells in a seed-shuffled order, and every cell keeps its
// seed-derived replication seed in every pass, so each pass does identical
// work and must reproduce pass 0's statistics.  Set-up is the cold chain
// enumeration of a fresh AccSolver for the eight protocols.
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "analytic/closed_form.h"
#include "analytic/solver.h"
#include "bench.h"
#include "exec/sweep.h"
#include "obs/metrics.h"
#include "sim/event_sim.h"
#include "sim/replication.h"
#include "stats/summary.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using drsm::protocols::ProtocolKind;

constexpr std::size_t kN = 3;
constexpr std::size_t kA = 2;
constexpr double kScost = 100.0;
constexpr double kPcost = 30.0;
constexpr std::size_t kM = 20;
constexpr std::size_t kReplications = 8;
constexpr std::size_t kReplicationThreads = 2;
constexpr std::size_t kWarmupOps = 500;
constexpr std::size_t kMeasuredOps = 1500;
constexpr double kMaxDiscrepancyPercent = 8.0;  // the paper's bound
constexpr double kClosedFormTolerance = 1e-9;
// A traced run times every k-th next_op call (the timer costs about as
// much as the call).
constexpr std::uint64_t kNextOpSampleEvery = 16;

drsm::sim::SystemConfig make_config() {
  drsm::sim::SystemConfig config;
  config.num_clients = kN;
  config.costs.s = kScost;
  config.costs.p = kPcost;
  config.num_objects = kM;
  return config;
}

drsm::sim::SimOptions sim_options() {
  drsm::sim::SimOptions options;
  options.warmup_ops = kWarmupOps;
  options.max_ops = kWarmupOps + kMeasuredOps;
  return options;  // check_coherence stays on (the default)
}

struct Cell {
  ProtocolKind kind = ProtocolKind::kWriteThrough;
  double p = 0.0;
  double sigma = 0.0;
  drsm::workload::WorkloadSpec spec;
  std::string key;
};

std::vector<Cell> make_grid() {
  const double axis[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  std::vector<Cell> cells;
  for (ProtocolKind kind : drsm::protocols::kAllProtocols)
    for (double p : axis)
      for (double sigma : axis) {
        if (p + static_cast<double>(kA) * sigma > 1.0 + 1e-12) continue;
        char key[96];
        std::snprintf(key, sizeof key, "%s/p%.1f/s%.1f",
                      drsm::protocols::to_string(kind), p, sigma);
        cells.push_back({kind, p, sigma,
                         drsm::workload::read_disturbance(p, sigma, kA), key});
      }
  return cells;
}

/// The paper's stated closed forms (and those derived for WTV, Berkeley,
/// Dragon and Firefly); nullopt where the chain engine is the reference.
std::optional<double> closed_form(const Cell& cell) {
  namespace cf = drsm::analytic::closed_form;
  switch (cell.kind) {
    case ProtocolKind::kWriteThrough:
      return cf::wt_read_disturbance(cell.p, cell.sigma, kA, kN, kScost,
                                     kPcost);
    case ProtocolKind::kWriteThroughV:
      return cf::wtv_read_disturbance(cell.p, cell.sigma, kA, kN, kScost,
                                      kPcost);
    case ProtocolKind::kBerkeley:
      return cf::berkeley_read_disturbance(cell.p, cell.sigma, kA, kN,
                                           kScost, kPcost);
    case ProtocolKind::kDragon:
      return cf::dragon_acc(cell.p, kN, kPcost);
    case ProtocolKind::kFirefly:
      return cf::firefly_acc(cell.p, kN, kPcost);
    default:
      return std::nullopt;
  }
}

std::string stats_digest(const drsm::sim::SimStats& s) {
  Digest d;
  d.add(s.measured_cost);
  d.add(s.measured_ops);
  d.add(s.warmup_cost);
  d.add(s.warmup_ops);
  d.add(s.reads);
  d.add(s.writes);
  d.add(s.messages);
  d.add(s.end_time);
  d.add(s.latency_sum);
  d.add(s.latency_max);
  d.add(s.read_latency_sum);
  d.add(s.write_latency_sum);
  for (const auto& [type, count] : s.message_mix) {
    d.add(type);
    d.add(count);
  }
  for (double c : s.cost_by_initiator) d.add(c);
  for (double c : s.cost_by_object) d.add(c);
  for (std::size_t n : s.handled_by_node) d.add(n);
  d.add(s.latency_quantiles.count());
  for (double q : {0.5, 0.9, 0.99}) d.add(s.latency_quantiles.query(q));
  return d.hex();
}

/// Replication and next_op timings of a traced run, shared by the worker
/// threads of run_replications.
struct Probe {
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> next_op_ns{0};
  std::atomic<std::uint64_t> next_op_calls{0};  // timed calls
  std::mutex mutex;
  std::vector<double> run_ms;  // guarded by mutex
};

/// ConcurrentDriver behind a timing wrapper.  A replication's span runs
/// from the factory call until run_replications destroys the driver,
/// right after EventSimulator::run returns.
class TimedDriver final : public drsm::sim::WorkloadDriver {
 public:
  TimedDriver(const drsm::workload::WorkloadSpec& spec, std::uint64_t seed,
              Probe& probe, Tracer& tracer, std::uint32_t name,
              std::uint64_t op, std::uint32_t parent)
      : start_ns_(now_ns()),
        inner_(spec, seed ^ 0xBEEF, kM),
        probe_(probe),
        tracer_(tracer),
        name_(name),
        op_(op),
        parent_(parent) {}

  ~TimedDriver() override {
    const std::uint64_t end = now_ns();
    probe_.busy_ns += end - start_ns_;
    probe_.next_op_ns += next_op_ns_;
    probe_.next_op_calls += next_op_calls_;
    {
      std::lock_guard<std::mutex> lock(probe_.mutex);
      probe_.run_ms.push_back(static_cast<double>(end - start_ns_) * 1e-6);
    }
    tracer_.leaf(name_, op_, parent_, start_ns_, end);
  }

  std::optional<Op> next_op(drsm::NodeId node) override {
    if (++calls_ % kNextOpSampleEvery != 0) return inner_.next_op(node);
    const std::uint64_t t0 = now_ns();
    std::optional<Op> op = inner_.next_op(node);
    next_op_ns_ += now_ns() - t0;
    ++next_op_calls_;
    return op;
  }

 private:
  std::uint64_t start_ns_;
  drsm::workload::ConcurrentDriver inner_;
  Probe& probe_;
  Tracer& tracer_;
  std::uint32_t name_;
  std::uint64_t op_;
  std::uint32_t parent_;
  std::uint64_t calls_ = 0;
  std::uint64_t next_op_ns_ = 0;
  std::uint64_t next_op_calls_ = 0;
};

/// Exact simulator work of pass 0: each replication re-run with its own
/// metrics registry (untimed), so the counts never perturb timed passes.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double peak_pending = 0.0;
  std::uint64_t replications = 0;
};

SimCounts count_pass(const std::vector<Cell>& cells, std::uint64_t seed) {
  SimCounts counts;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const std::uint64_t base_seed = derive_seed(seed, 3, c);
    for (std::size_t r = 0; r < kReplications; ++r) {
      drsm::sim::SimOptions options = sim_options();
      options.seed = drsm::exec::task_seed(base_seed, r);
      drsm::obs::MetricsRegistry registry;
      drsm::sim::EventSimulator simulator(cell.kind, make_config(), options);
      simulator.set_metrics(&registry);
      drsm::workload::ConcurrentDriver driver(cell.spec, options.seed ^ 0xBEEF,
                                              kM);
      const drsm::sim::SimStats stats = simulator.run(driver);
      counts.events += registry.find_counter("sim.events")->value();
      counts.peak_pending =
          std::max(counts.peak_pending,
                   registry.find_gauge("sim.peak_pending_events")->value());
      counts.messages += stats.messages;
      ++counts.replications;
    }
  }
  return counts;
}

/// Power iterations a cold solver spends answering the grid once (exact;
/// the timed solver's count would depend on how many passes warmed it).
std::size_t power_iterations(const std::vector<Cell>& cells,
                             const drsm::sim::SystemConfig& config) {
  drsm::analytic::AccSolver solver(config);
  std::set<const drsm::analytic::ProtocolChain*> chains;
  for (const Cell& cell : cells) {
    solver.acc(cell.kind, cell.spec);
    chains.insert(&solver.chain(cell.kind, cell.spec));
  }
  std::size_t iterations = 0;
  for (const auto* chain : chains)
    iterations += chain->telemetry().power_iterations;
  return iterations;
}

}  // namespace

void run_paper_validate(const RunOptions& options, Tracer* tracer,
                        Result& result) {
  const std::vector<Cell> cells = make_grid();
  result.threads["main"] = 1;
  result.threads["replication"] = static_cast<double>(kReplicationThreads);
  result.threads["total"] = static_cast<double>(kReplicationThreads);

  const auto goldens =
      read_goldens(options.goldens_dir + "/paper_validate.txt");
  const bool check_goldens = options.seed == kGoldenSeed;
  if (check_goldens && goldens.empty())
    result.fail(1, "paper_validate goldens missing");

  Tracer* const t = tracer;
  std::uint32_t n_setup = 0, n_build = 0, n_cell = 0, n_acc = 0, n_reps = 0,
                n_rep = 0;
  if (t != nullptr) {
    n_setup = t->intern("analytic.setup");
    n_build = t->intern("analytic.chain_build");
    n_cell = t->intern("paper.cell");
    n_acc = t->intern("analytic.acc");
    n_reps = t->intern("sim.run_replications");
    n_rep = t->intern("sim.replication");
  }

  // -- set-up: cold chain enumeration ---------------------------------------
  const drsm::sim::SystemConfig config = make_config();
  const drsm::workload::WorkloadSpec chain_spec =
      drsm::workload::read_disturbance(0.2, 0.2, kA);
  std::uint64_t setups = 0;
  const auto build_solver = [&] {
    const std::uint64_t rep = setups++;
    ScopedSpan span(t, n_setup, rep, Tracer::kNone);
    auto solver = std::make_unique<drsm::analytic::AccSolver>(config);
    for (ProtocolKind kind : drsm::protocols::kAllProtocols) {
      ScopedSpan build(t, n_build, rep, span.id());
      solver->chain(kind, chain_spec);
    }
    return solver;
  };
  const std::unique_ptr<drsm::analytic::AccSolver> solver = build_solver();

  // -- timed passes ---------------------------------------------------------
  Probe probe;
  std::vector<double> solve_us;
  std::vector<double> build_ms;
  std::uint64_t reps_wall_ns = 0;
  double pooled_cost = 0.0, pooled_ops = 0.0;
  std::vector<std::string> digests(cells.size());
  PassLoop loop;
  loop.items = cells.size();
  loop.stream = 2;
  loop.set_up = [&] {
    const std::uint64_t t0 = now_ns();
    const auto fresh = build_solver();
    build_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    return build_ms.back() * 1e-3;
  };
  loop.run_item = [&](std::size_t k, std::size_t c) -> double {
    const Cell& cell = cells[c];
    const std::uint64_t op_id = k * cells.size() + c;
    ScopedSpan cell_span(t, n_cell, op_id, Tracer::kNone);
    drsm::sim::ReplicationOptions reps;
    reps.replications = kReplications;
    reps.base_seed = derive_seed(options.seed, 3, c);
    reps.threads = kReplicationThreads;
    drsm::sim::DriverFactory factory = [&cell](std::uint64_t seed,
                                               std::size_t) {
      return std::make_unique<drsm::workload::ConcurrentDriver>(
          cell.spec, seed ^ 0xBEEF, kM);
    };
    try {
      const std::uint64_t t0 = now_ns();
      double analytic = 0.0;
      drsm::sim::ReplicatedStats stats;
      if (t == nullptr) {
        analytic = solver->acc(cell.kind, cell.spec);
        stats = drsm::sim::run_replications(cell.kind, config, sim_options(),
                                            factory, reps);
      } else {
        {
          ScopedSpan span(t, n_acc, op_id, cell_span.id());
          const std::uint64_t s0 = now_ns();
          analytic = solver->acc(cell.kind, cell.spec);
          solve_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
        }
        ScopedSpan span(t, n_reps, op_id, cell_span.id());
        factory = [&, op_id, parent = span.id()](std::uint64_t seed,
                                                 std::size_t) {
          return std::make_unique<TimedDriver>(cell.spec, seed, probe, *t,
                                               n_rep, op_id, parent);
        };
        const std::uint64_t r0 = now_ns();
        stats = drsm::sim::run_replications(cell.kind, config, sim_options(),
                                            factory, reps);
        reps_wall_ns += now_ns() - r0;
      }
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;

      bool ok = true;
      std::string why;
      if (const auto expected = closed_form(cell);
          expected && std::fabs(analytic - *expected) >
                          kClosedFormTolerance *
                              std::max(1.0, std::fabs(*expected))) {
        ok = false;
        why = "analytic acc differs from the closed form";
      }
      if (analytic > 1e-9 &&
          std::fabs(drsm::stats::relative_discrepancy_percent(
              analytic, stats.acc.mean)) > kMaxDiscrepancyPercent) {
        ok = false;
        why = "replicated mean outside the paper's 8% of analytic";
      }
      if (k > 0 && stats_digest(stats.merged) != digests[c]) {
        ok = false;
        why = "simulated statistics differ from pass 0";
      }
      if (k == 0) {
        digests[c] = stats_digest(stats.merged);
        pooled_cost += stats.merged.measured_cost;
        pooled_ops += static_cast<double>(stats.merged.measured_ops);
        if (check_goldens && !goldens.empty()) {
          const auto it = goldens.find(cell.key);
          if (it == goldens.end() || it->second.empty() ||
              it->second[0] != digests[c]) {
            ok = false;
            why = "simulated statistics differ from the golden";
          }
        }
      }
      if (!ok) result.fail(1, cell.key + ": " + why);
      return us;
    } catch (const std::exception& e) {
      result.fail(1, cell.key + ": " + e.what());
      return -1.0;
    }
  };
  run_passes(options, loop, result);

  Digest pass0_digest;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    pass0_digest.bytes(digests[c].data(), digests[c].size());
    result.goldens += cells[c].key + " " + digests[c] + "\n";
  }
  result.diagnostics["acc"] = pooled_cost / pooled_ops;
  result.exact["acc"] = pooled_cost / pooled_ops;
  result.exact["pass0_digest"] =
      static_cast<double>(pass0_digest.value() >> 12);  // exact in a double

  if (t == nullptr) return;
  std::size_t chain_states = 0;
  for (ProtocolKind kind : drsm::protocols::kAllProtocols)
    chain_states += solver->chain(kind, chain_spec).num_states();
  const SimCounts counts = count_pass(cells, options.seed);
  const double busy_s = static_cast<double>(probe.busy_ns.load()) * 1e-9;
  const double reps_run = static_cast<double>(probe.run_ms.size());
  const double mean_run_s = busy_s / reps_run;
  result.metric("sim.run_ms_p50", median(probe.run_ms), "ms");
  result.metric("sim.events_per_s",
                static_cast<double>(counts.events) /
                    static_cast<double>(counts.replications) / mean_run_s,
                "1/s");
  result.metric("sim.sim_ops_per_s",
                static_cast<double>(kWarmupOps + kMeasuredOps) / mean_run_s,
                "1/s");
  result.metric("sim.events", static_cast<double>(counts.events), "count");
  result.metric("sim.messages", static_cast<double>(counts.messages), "count");
  result.metric("sim.peak_pending_events", counts.peak_pending, "count");
  result.metric("workload.next_op_ns_mean",
                static_cast<double>(probe.next_op_ns.load()) /
                    static_cast<double>(probe.next_op_calls.load()),
                "ns");
  result.metric("exec.busy_ratio",
                busy_s / (static_cast<double>(kReplicationThreads) *
                          static_cast<double>(reps_wall_ns) * 1e-9),
                "ratio");
  result.metric("analytic.chain_build_ms", median(build_ms), "ms");
  result.metric("analytic.chain_states", static_cast<double>(chain_states),
                "count");
  result.metric("analytic.solve_us_p50", quantile(solve_us, 0.5), "us");
  result.metric("analytic.power_iterations",
                static_cast<double>(power_iterations(cells, config)),
                "count");
  result.metric("protocols.acc", pooled_cost / pooled_ops, "cost/op");
}

}  // namespace perfbench
