// Experiment E2 — the paper's Table 7: "a comparison of analytical and
// simulation results for Write-Once and Write-Through-V protocol",
// N=3, a=2, P=30, S=100, M=20 shared objects.
//
// The paper's Ada simulator generated operations per node "in concordance
// to specified stochastic steady-state workload parameters", neglected the
// first 500 operations and measured ~1500 steady-state operations per
// parameter pair, observing a maximum discrepancy below +-8 %.  Two
// phases per protocol:
//
//  * paper-sized run — one simulation per (p, sigma) cell with the
//    original fixed seed, fanned across the sweep engine exactly as
//    before (bit-identical at any thread count);
//  * replicated run — every cell repeated R=8 times through
//    sim::run_replications with independent seeds, reported as mean
//    acc +- 95 % confidence interval.  The replicated pass runs twice,
//    serial then parallel, and the report records both wall times plus a
//    bit-identity check between them — the determinism contract of the
//    replication harness, measured rather than assumed.
#include <cmath>
#include <cstdio>
#include <memory>

#include "analytic/solver.h"
#include "bench_util.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "sim/event_sim.h"
#include "sim/replication.h"
#include "stats/summary.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

constexpr std::size_t kN = 3;
constexpr std::size_t kA = 2;
constexpr double kPcost = 30.0;
constexpr double kScost = 100.0;
constexpr std::size_t kM = 20;
constexpr std::size_t kReplications = 8;

sim::SystemConfig make_config() {
  sim::SystemConfig config;
  config.num_clients = kN;
  config.costs.s = kScost;
  config.costs.p = kPcost;
  config.num_objects = kM;
  return config;
}

const std::vector<double>& grid() {
  static const std::vector<double> g = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  return g;
}

std::uint64_t cell_seed(double p, double sigma) {
  return static_cast<std::uint64_t>(1000 * p + 10 * sigma + 17);
}

sim::SimStats simulate(ProtocolKind kind, const workload::WorkloadSpec& spec,
                       std::size_t warmup_ops, std::size_t measured_ops,
                       std::uint64_t seed) {
  sim::SimOptions options;
  options.warmup_ops = warmup_ops;
  options.max_ops = warmup_ops + measured_ops;
  options.seed = seed;
  sim::EventSimulator simulator(kind, make_config(), options);
  workload::ConcurrentDriver driver(spec, seed ^ 0xBEEF, kM);
  return simulator.run(driver);
}

struct CellResult {
  bool valid = false;
  double analytic_acc = 0.0;
  sim::SimStats sim_stats;
};

// The analytic acc of every grid cell, row-major over (p, sigma); cells
// with p + a*sigma > 1 are invalid and hold 0.
std::vector<double> analytic_grid(analytic::AccSolver& solver,
                                  ProtocolKind kind) {
  std::vector<double> acc;
  for (double p : grid()) {
    for (double sigma : grid()) {
      const bool valid = p + static_cast<double>(kA) * sigma <= 1.0 + 1e-12;
      acc.push_back(valid ? solver.acc(kind, workload::read_disturbance(
                                                 p, sigma, kA))
                          : 0.0);
    }
  }
  return acc;
}

// Phase 1: the paper's setup verbatim — one fixed-seed run per cell.
// `analytic_acc` holds the analytic answers, row-major over the grid
// (invalid cells 0) — see analytic_grid().
void run_table(bench::Report& report, exec::SweepRunner& runner,
               const std::vector<double>& analytic_acc, ProtocolKind kind,
               std::size_t warmup_ops, std::size_t measured_ops,
               const char* label) {
  std::printf(
      "%s protocol — %s (%zu warmup + %zu measured operations)\n",
      protocols::to_string(kind), label, warmup_ops, measured_ops);

  std::vector<std::pair<double, double>> cells;  // (p, sigma), row-major
  for (double p : grid())
    for (double sigma : grid()) cells.push_back({p, sigma});

  const auto results = runner.run<CellResult>(
      cells.size(), [&](const exec::SweepTask& task) {
        const auto [p, sigma] = cells[task.index];
        CellResult out;
        if (p + static_cast<double>(kA) * sigma > 1.0 + 1e-12) return out;
        out.valid = true;
        const auto spec = workload::read_disturbance(p, sigma, kA);
        out.analytic_acc = analytic_acc[task.index];
        out.sim_stats = simulate(kind, spec, warmup_ops, measured_ops,
                                 cell_seed(p, sigma));
        return out;
      });

  std::vector<std::string> header = {"p \\ sigma"};
  for (double sigma : grid()) header.push_back(strfmt("%.1f", sigma));
  std::vector<std::vector<std::string>> rows;
  double max_abs_disc = 0.0;

  for (std::size_t r = 0; r < grid().size(); ++r) {
    std::vector<std::string> row = {strfmt("%.1f", grid()[r])};
    for (std::size_t c = 0; c < grid().size(); ++c) {
      const CellResult& cell = results[r * grid().size() + c];
      if (!cell.valid) {
        row.push_back("-");
        continue;
      }
      const double analytic_acc = cell.analytic_acc;
      const double sim_acc = cell.sim_stats.acc();

      auto& result = report.add_result();
      result["protocol"] = bench::short_name(kind);
      result["run"] = label;
      result["p"] = grid()[r];
      result["sigma"] = grid()[c];
      result["acc_analytic"] = analytic_acc;
      result["sim"] = bench::sim_stats_json(cell.sim_stats);

      if (analytic_acc <= 1e-9) {
        // Zero-cost steady state; any simulated residue is transient cost
        // that leaked past the warmup cut, not a model discrepancy.
        row.push_back(strfmt("0.0/%.1f (n/a)", sim_acc));
        continue;
      }
      const double disc =
          stats::relative_discrepancy_percent(analytic_acc, sim_acc);
      result["discrepancy_percent"] = disc;
      max_abs_disc = std::max(max_abs_disc, std::fabs(disc));
      row.push_back(strfmt("%.1f/%.1f (%+.1f%%)", analytic_acc, sim_acc,
                           disc));
    }
    rows.push_back(std::move(row));
  }
  std::printf("%s", render_table(header, rows).c_str());
  std::printf("cells: analytic/simulated (discrepancy %%)\n");
  std::printf("max |discrepancy| over non-trivial cells: %.1f %% "
              "(paper reports < 8 %%)\n\n",
              max_abs_disc);
}

// Phase 2: the same grid through the replication harness.
struct ReplicatedCell {
  bool valid = false;
  double p = 0.0;
  double sigma = 0.0;
  double analytic_acc = 0.0;
  sim::ReplicatedStats stats;
};

std::vector<ReplicatedCell> run_replicated(
    const std::vector<double>& analytic_acc, ProtocolKind kind,
    std::size_t threads, obs::MetricsRegistry* metrics) {
  std::vector<ReplicatedCell> cells;
  for (double p : grid()) {
    for (double sigma : grid()) {
      ReplicatedCell cell;
      cell.p = p;
      cell.sigma = sigma;
      if (p + static_cast<double>(kA) * sigma > 1.0 + 1e-12) {
        cells.push_back(std::move(cell));
        continue;
      }
      cell.valid = true;
      const auto spec = workload::read_disturbance(p, sigma, kA);
      cell.analytic_acc = analytic_acc[cells.size()];

      sim::SimOptions options;
      options.warmup_ops = 500;
      options.max_ops = 500 + 1500;

      sim::ReplicationOptions reps;
      reps.replications = kReplications;
      reps.base_seed = cell_seed(p, sigma);
      reps.threads = threads;
      reps.metrics = metrics;
      cell.stats = sim::run_replications(
          kind, make_config(), options,
          [&](std::uint64_t seed, std::size_t /*rep*/) {
            return std::make_unique<workload::ConcurrentDriver>(
                spec, seed ^ 0xBEEF, kM);
          },
          reps);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

void print_replicated(ProtocolKind kind,
                      const std::vector<ReplicatedCell>& cells) {
  std::printf("%s protocol — replicated run (%zu x (500 warmup + 1500 "
              "measured), mean +- 95%% CI)\n",
              protocols::to_string(kind), kReplications);
  std::vector<std::string> header = {"p \\ sigma"};
  for (double sigma : grid()) header.push_back(strfmt("%.1f", sigma));
  std::vector<std::vector<std::string>> rows;
  double max_abs_disc = 0.0;
  for (std::size_t r = 0; r < grid().size(); ++r) {
    std::vector<std::string> row = {strfmt("%.1f", grid()[r])};
    for (std::size_t c = 0; c < grid().size(); ++c) {
      const ReplicatedCell& cell = cells[r * grid().size() + c];
      if (!cell.valid) {
        row.push_back("-");
        continue;
      }
      if (cell.analytic_acc <= 1e-9) {
        row.push_back(strfmt("0.0/%.1f (n/a)", cell.stats.acc.mean));
        continue;
      }
      const double disc = stats::relative_discrepancy_percent(
          cell.analytic_acc, cell.stats.acc.mean);
      max_abs_disc = std::max(max_abs_disc, std::fabs(disc));
      row.push_back(strfmt("%.1f/%.1f±%.1f (%+.1f%%)", cell.analytic_acc,
                           cell.stats.acc.mean, cell.stats.acc.half_width,
                           disc));
    }
    rows.push_back(std::move(row));
  }
  std::printf("%s", render_table(header, rows).c_str());
  std::printf("cells: analytic/simulated mean±CI (discrepancy of mean %%)\n");
  std::printf("max |discrepancy| of replicated means: %.1f %%\n\n",
              max_abs_disc);
}

// Phase 3: latency profile — all eight protocols under one representative
// workload with a non-degenerate timing model (message latency uniform in
// [1,3], one unit of per-message processing), so operation response times
// are nonzero and the sketch percentiles are meaningful.  The default
// Table-7 timing (latency 1, processing 0) completes every local
// operation in zero simulated time, which is why the latency percentile
// rows used to read all-zero for the fire-and-forget protocols.
void run_latency_profile(bench::Report& report) {
  constexpr double kP = 0.4;
  constexpr double kSigma = 0.2;
  const auto spec = workload::read_disturbance(kP, kSigma, kA);
  std::printf("latency profile — all protocols, p=%.1f sigma=%.1f, "
              "latency U[1,3], processing 1\n",
              kP, kSigma);
  std::vector<std::vector<std::string>> rows;
  for (ProtocolKind kind : protocols::kAllProtocols) {
    sim::SimOptions options;
    options.warmup_ops = 500;
    options.max_ops = 500 + 1500;
    options.seed = cell_seed(kP, kSigma);
    options.latency.min_latency = 1;
    options.latency.max_latency = 3;
    options.latency.processing_time = 1;
    sim::EventSimulator simulator(kind, make_config(), options);
    workload::ConcurrentDriver driver(spec, options.seed ^ 0xBEEF, kM);
    const sim::SimStats stats = simulator.run(driver);

    auto& result = report.add_result();
    result["protocol"] = bench::short_name(kind);
    result["run"] = "latency_profile";
    result["p"] = kP;
    result["sigma"] = kSigma;
    result["sim"] = bench::sim_stats_json(stats);

    rows.push_back({std::string(protocols::to_string(kind)),
                    strfmt("%.2f", stats.mean_latency()),
                    strfmt("%.0f", stats.latency_quantiles.query(0.50)),
                    strfmt("%.0f", stats.latency_quantiles.query(0.90)),
                    strfmt("%.0f", stats.latency_quantiles.query(0.99)),
                    strfmt("%llu", static_cast<unsigned long long>(
                                       stats.latency_max))});
  }
  std::printf("%s\n", render_table(
                          {"protocol", "mean", "p50", "p90", "p99", "max"},
                          rows)
                          .c_str());
}

}  // namespace

int main() {
  std::printf(
      "Table 7: analytical vs simulation, N=%zu, a=%zu, P=%.0f, S=%.0f, "
      "M=%zu\n\n",
      kN, kA, kPcost, kScost, kM);
  bench::Report report("table7");
  obs::MetricsRegistry exec_metrics;
  obs::MetricsRegistry sim_metrics;
  exec::SweepRunner runner({.metrics = &exec_metrics});
  // Both protocols' analytic grids answered up front by one solver, one
  // acc() call per valid cell.
  analytic::AccSolver analytic_solver({kN, {kScost, kPcost}, 1});
  analytic_solver.set_metrics(&exec_metrics);
  const std::vector<ProtocolKind> kinds = {ProtocolKind::kWriteOnce,
                                           ProtocolKind::kWriteThroughV};
  std::vector<std::vector<double>> analytic_acc;
  for (ProtocolKind kind : kinds)
    analytic_acc.push_back(analytic_grid(analytic_solver, kind));

  double serial_ms_total = 0.0;
  double parallel_ms_total = 0.0;
  bool identical = true;

  for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
    const ProtocolKind kind = kinds[ki];
    const std::vector<double>& acc_grid = analytic_acc[ki];
    report.phase(std::string(bench::short_name(kind)) + "_paper_run");
    run_table(report, runner, acc_grid, kind, 500, 1500,
              "paper-sized run");

    // Serial reference pass (threads = 1): timing baseline and the
    // bit-identity reference for the parallel pass.
    auto& serial_phase = report.phase(
        std::string(bench::short_name(kind)) + "_replicated_serial");
    const auto t0 = std::chrono::steady_clock::now();
    const auto serial =
        run_replicated(acc_grid, kind, /*threads=*/1, nullptr);
    const double serial_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    serial_phase["note"] = "timing/identity reference; results not emitted";
    serial_ms_total += serial_ms;

    // Parallel pass (default thread count): the emitted results.
    report.phase(std::string(bench::short_name(kind)) + "_replicated");
    const auto t1 = std::chrono::steady_clock::now();
    const auto cells =
        run_replicated(acc_grid, kind, /*threads=*/0, &sim_metrics);
    const double parallel_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t1)
            .count();
    parallel_ms_total += parallel_ms;

    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].valid) continue;
      identical = identical &&
                  cells[i].stats.acc_samples == serial[i].stats.acc_samples &&
                  cells[i].stats.merged.measured_cost ==
                      serial[i].stats.merged.measured_cost &&
                  cells[i].stats.merged.end_time ==
                      serial[i].stats.merged.end_time;
      auto& result = report.add_result();
      result["protocol"] = bench::short_name(kind);
      result["run"] = "replicated";
      result["p"] = cells[i].p;
      result["sigma"] = cells[i].sigma;
      result["acc_analytic"] = cells[i].analytic_acc;
      result["replications"] =
          static_cast<double>(cells[i].stats.replications);
      result["acc_mean"] = cells[i].stats.acc.mean;
      result["acc_ci_half_width"] = cells[i].stats.acc.half_width;
      result["mean_latency"] = cells[i].stats.mean_latency.mean;
      result["latency_ci_half_width"] =
          cells[i].stats.mean_latency.half_width;
      if (cells[i].analytic_acc > 1e-9)
        result["discrepancy_percent"] = stats::relative_discrepancy_percent(
            cells[i].analytic_acc, cells[i].stats.acc.mean);
      result["sim"] = bench::sim_stats_json(cells[i].stats.merged);
    }
    print_replicated(kind, cells);
  }

  report.phase("latency_profile");
  run_latency_profile(report);

  // The determinism contract, measured: the parallel pass must reproduce
  // the serial pass bit for bit, whatever the speedup this host allows.
  auto& par = report.root()["parallelism"];
  par["threads"] = static_cast<double>(exec::ThreadPool::default_threads());
  par["serial_wall_ms"] = serial_ms_total;
  par["parallel_wall_ms"] = parallel_ms_total;
  par["speedup"] = serial_ms_total / parallel_ms_total;
  par["identical"] = identical;
  std::printf("replicated phases: serial %.0f ms, parallel %.0f ms "
              "(%zu threads) — speedup %.2fx, bit-identical: %s\n",
              serial_ms_total, parallel_ms_total,
              exec::ThreadPool::default_threads(),
              serial_ms_total / parallel_ms_total,
              identical ? "yes" : "NO");

  report.root()["exec_metrics"] = exec_metrics.to_json();
  report.root()["sim_metrics"] = sim_metrics.to_json();
  report.write();
  return !identical;
}
