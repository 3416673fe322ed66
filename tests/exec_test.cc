// The sweep engine's determinism contract: parallel_for covers every
// index exactly once, per-task seeds are a pure function of (base, index),
// and a sweep produces bit-identical results at any thread count — for
// both the analytic solver (with its warm-start and chain caches) and the
// discrete-event simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "analytic/solver.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "sim/event_sim.h"
#include "support/error.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using protocols::ProtocolKind;

// ---------------------------------------------------------------------------
// ThreadPool basics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelMapCollectsInIndexOrder) {
  exec::ThreadPool pool(4);
  const auto out = pool.parallel_map<std::size_t>(
      257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, EmptyJobReturnsImmediately) {
  exec::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RethrowsFirstBodyException) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a failed job and stays usable.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, DefaultThreadsHonoursEnvOverride) {
  ::setenv("DRSM_THREADS", "3", 1);
  EXPECT_EQ(exec::ThreadPool::default_threads(), 3u);
  ::unsetenv("DRSM_THREADS");
  EXPECT_GE(exec::ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, RejectsSizesAboveTheLimitBeforeSpawning) {
  // Without the limit, both sizes abort in vector::reserve with
  // std::length_error, which is not a drsm::Error.
  EXPECT_THROW(exec::ThreadPool(std::numeric_limits<std::size_t>::max()),
               Error);
  EXPECT_THROW(exec::ThreadPool(std::size_t{1} << 62), Error);
  ::setenv("DRSM_THREADS", "4611686018427387904", 1);
  EXPECT_THROW(exec::ThreadPool(0), Error);
  ::unsetenv("DRSM_THREADS");
}

// ---------------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------------

TEST(TaskSeed, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(exec::task_seed(42, 7), exec::task_seed(42, 7));
  EXPECT_NE(exec::task_seed(42, 7), exec::task_seed(42, 8));
  EXPECT_NE(exec::task_seed(42, 7), exec::task_seed(43, 7));
  // Adjacent indices must land far apart; collisions over a modest range
  // would correlate the streams of neighbouring sweep points.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 10000; ++i)
    seen.insert(exec::task_seed(0x5EEDBA5EULL, i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SweepRunner, TaskSeedIndependentOfThreadCount) {
  exec::SweepRunner serial({.threads = 1});
  exec::SweepRunner wide({.threads = 8});
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(serial.seed(i), wide.seed(i));
}

// ---------------------------------------------------------------------------
// Determinism under parallelism — the contract the benches rely on.
// ---------------------------------------------------------------------------

TEST(SweepRunner, AnalyticSweepBitIdenticalAcrossThreadCounts) {
  const auto spec = workload::read_disturbance(0.3, 0.05, 2);
  const std::vector<std::size_t> sizes = {3, 5, 8};
  auto sweep = [&](std::size_t threads) {
    exec::SweepRunner runner({.threads = threads});
    return runner.run<std::vector<double>>(
        sizes.size(), [&](const exec::SweepTask& task) {
          analytic::AccSolver solver({sizes[task.index], {100.0, 30.0}, 1});
          std::vector<double> accs;
          for (ProtocolKind kind : protocols::kAllProtocols)
            accs.push_back(solver.acc(kind, spec));
          return accs;
        });
  };
  const auto one = sweep(1);
  const auto two = sweep(2);
  const auto eight = sweep(8);
  ASSERT_EQ(one.size(), sizes.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].size(), protocols::kAllProtocols.size());
    for (std::size_t k = 0; k < one[i].size(); ++k) {
      // Bitwise equality, not tolerance: the contract is bit-identical.
      EXPECT_EQ(one[i][k], two[i][k]) << "N=" << sizes[i] << " k=" << k;
      EXPECT_EQ(one[i][k], eight[i][k]) << "N=" << sizes[i] << " k=" << k;
    }
  }
}

// One AccSolver shared by every caller, as bench_table7 prices its grid,
// must return a fresh solver's bits for every cell whatever the order of
// the calls and however many threads make them.  The grid is Table 7's
// (N=3, a=2), all eight protocols, read and write disturbance.  The
// threaded pass runs first, so its workers also build the chains
// concurrently; the serial passes then reuse them forward and reversed.
TEST(SweepRunner, SharedSolverMatchesFreshSolversOnTable7Grid) {
  const sim::SystemConfig config{3, {100.0, 30.0}, 1};
  constexpr std::size_t kA = 2;
  const std::vector<double> grid = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  struct Cell {
    ProtocolKind kind;
    workload::WorkloadSpec spec;
    double fresh;
  };
  std::vector<Cell> cells;
  for (ProtocolKind kind : protocols::kAllProtocols) {
    for (bool read_family : {true, false}) {
      for (double p : grid) {
        for (double sigma : grid) {
          if (p + static_cast<double>(kA) * sigma > 1.0 + 1e-12) continue;
          workload::WorkloadSpec spec =
              read_family ? workload::read_disturbance(p, sigma, kA)
                          : workload::write_disturbance(p, sigma, kA);
          analytic::AccSolver fresh(config);
          const double acc = fresh.acc(kind, spec);
          cells.push_back({kind, std::move(spec), acc});
        }
      }
    }
  }
  ASSERT_EQ(cells.size(), protocols::kAllProtocols.size() * 2 * 12);

  analytic::AccSolver shared(config);
  exec::ThreadPool pool(4);
  const std::vector<double> threaded = pool.parallel_map<double>(
      cells.size(),
      [&](std::size_t i) { return shared.acc(cells[i].kind, cells[i].spec); });
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(threaded[i], cells[i].fresh) << "threaded, cell " << i;
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(shared.acc(cells[i].kind, cells[i].spec), cells[i].fresh)
        << "forward, cell " << i;
  for (std::size_t i = cells.size(); i-- > 0;)
    EXPECT_EQ(shared.acc(cells[i].kind, cells[i].spec), cells[i].fresh)
        << "reversed, cell " << i;
}

TEST(SweepRunner, SimulationSweepBitIdenticalAcrossThreadCounts) {
  const auto spec = workload::read_disturbance(0.2, 0.05, 2);
  auto sweep = [&](std::size_t threads) {
    exec::SweepRunner runner({.threads = threads, .base_seed = 99});
    return runner.run<double>(6, [&](const exec::SweepTask& task) {
      sim::SystemConfig config;
      config.num_clients = 3;
      sim::SimOptions options;
      options.max_ops = 1000;
      options.warmup_ops = 100;
      options.seed = task.seed;  // per-task deterministic stream
      sim::EventSimulator simulator(
          task.index % 2 == 0 ? ProtocolKind::kWriteThrough
                              : ProtocolKind::kBerkeley,
          config, options);
      workload::ConcurrentDriver driver(spec, task.seed ^ 0xD1CE, 1);
      return simulator.run(driver).acc();
    });
  };
  const auto one = sweep(1);
  const auto eight = sweep(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], eight[i]);
}

// ---------------------------------------------------------------------------
// Metrics publication.
// ---------------------------------------------------------------------------

// analytic.power_iterations counts each call's own solve.  Priced from 4
// workers sharing one solver, the counter must equal the shared chain's
// cumulative count; reading the chain's last solve after the call could
// publish another worker's.  Four rounds, since one round of the race
// does not always show it.
TEST(SweepRunner, SharedSolverPublishesEachCallsOwnSolve) {
  const sim::SystemConfig config{10, {100.0, 30.0}, 1};
  constexpr std::size_t kA = 8;
  std::vector<workload::WorkloadSpec> cells;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      cells.push_back(workload::read_disturbance(0.05 + 0.05 * i,
                                                 0.01 + 0.008 * j, kA));
  obs::MetricsRegistry metrics;
  analytic::AccSolver shared(config);
  shared.set_metrics(&metrics);
  exec::ThreadPool pool(4);
  constexpr std::size_t kRounds = 4;
  for (std::size_t round = 0; round < kRounds; ++round)
    pool.parallel_map<double>(cells.size(), [&](std::size_t i) {
      return shared.acc(ProtocolKind::kWriteThrough, cells[i]);
    });
  const analytic::ProtocolChain& chain =
      shared.chain(ProtocolKind::kWriteThrough, cells.front());
  ASSERT_GT(chain.num_states(), 256u);  // the power-iteration path
  const auto telemetry = chain.telemetry();
  EXPECT_EQ(telemetry.solves, kRounds * cells.size());
  EXPECT_GT(telemetry.power_iterations, 0u);
  EXPECT_EQ(metrics.counter("analytic.solves").value(),
            kRounds * cells.size());
  EXPECT_EQ(metrics.counter("analytic.power_iterations").value(),
            telemetry.power_iterations);
  EXPECT_EQ(metrics.counter("analytic.warm_starts").value(),
            telemetry.warm_starts);
}

TEST(SweepRunner, PublishesExecMetrics) {
  obs::MetricsRegistry metrics;
  exec::SweepRunner runner({.threads = 2, .metrics = &metrics});
  runner.run<int>(5, [](const exec::SweepTask& task) {
    return static_cast<int>(task.index);
  });
  runner.for_each(3, [](const exec::SweepTask&) {});
  EXPECT_EQ(metrics.counter("exec.tasks").value(), 8u);
  EXPECT_EQ(metrics.counter("exec.sweeps").value(), 2u);
  EXPECT_DOUBLE_EQ(metrics.gauge("exec.threads").value(), 2.0);
  EXPECT_EQ(runner.tasks_run(), 8u);
}

}  // namespace
}  // namespace drsm
