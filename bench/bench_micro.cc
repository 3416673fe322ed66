// Experiment E10 — microbenchmarks of the substrates (google-benchmark):
// per-operation cost of the sequential runtime and the discrete-event
// simulator, chain enumeration and re-solve, and the linear-algebra
// kernels underneath.
#include <benchmark/benchmark.h>

#include "analytic/chain.h"
#include "linalg/lu.h"
#include "linalg/stationary.h"
#include "sim/event_sim.h"
#include "sim/sequential.h"
#include "analytic/lumped.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace {

using namespace drsm;
using protocols::ProtocolKind;

sim::SystemConfig small_config() {
  sim::SystemConfig config;
  config.num_clients = 8;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  return config;
}

void BM_SequentialRuntimeOp(benchmark::State& state) {
  const auto kind = static_cast<ProtocolKind>(state.range(0));
  sim::SequentialRuntime runtime(kind, small_config(), {0, 1, 2});
  Rng rng(1);
  std::uint64_t value = 0;
  for (auto _ : state) {
    const NodeId node = static_cast<NodeId>(rng.uniform_index(3));
    if (rng.bernoulli(0.3)) {
      benchmark::DoNotOptimize(
          runtime.execute(node, fsm::OpKind::kWrite, ++value));
    } else {
      benchmark::DoNotOptimize(runtime.execute(node, fsm::OpKind::kRead));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialRuntimeOp)
    ->DenseRange(0, 7, 1)
    ->ArgName("protocol");

void BM_EventSimulatorThroughput(benchmark::State& state) {
  const auto spec = workload::read_disturbance(0.3, 0.1, 2);
  for (auto _ : state) {
    sim::SimOptions options;
    options.max_ops = 2000;
    options.warmup_ops = 0;
    options.seed = 5;
    sim::EventSimulator simulator(ProtocolKind::kWriteOnce, small_config(),
                                  options);
    workload::ConcurrentDriver driver(spec, 6);
    benchmark::DoNotOptimize(simulator.run(driver));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventSimulatorThroughput);

void BM_ChainBuild(benchmark::State& state) {
  const auto kind = static_cast<ProtocolKind>(state.range(0));
  sim::SystemConfig config;
  config.num_clients = 50;
  config.costs.s = 5000.0;
  config.costs.p = 30.0;
  const auto spec = workload::read_disturbance(0.3, 0.02, 10);
  for (auto _ : state) {
    analytic::ProtocolChain chain(kind, config, spec);
    benchmark::DoNotOptimize(chain.num_states());
  }
}
BENCHMARK(BM_ChainBuild)
    ->Arg(static_cast<int>(ProtocolKind::kWriteThrough))
    ->Arg(static_cast<int>(ProtocolKind::kSynapse))
    ->Arg(static_cast<int>(ProtocolKind::kBerkeley))
    ->ArgName("protocol");

void BM_ChainResolve(benchmark::State& state) {
  sim::SystemConfig config;
  config.num_clients = 50;
  config.costs.s = 5000.0;
  config.costs.p = 30.0;
  const auto spec = workload::read_disturbance(0.3, 0.02, 10);
  analytic::ProtocolChain chain(ProtocolKind::kSynapse, config, spec);
  Rng rng(3);
  for (auto _ : state) {
    const double p = rng.uniform(0.05, 0.7);
    const double sigma = rng.uniform(0.001, 0.02);
    const auto probs =
        workload::read_disturbance(p, sigma, 10).probabilities();
    benchmark::DoNotOptimize(chain.average_cost(probs));
  }
}
BENCHMARK(BM_ChainResolve);

void BM_LumpedSolve(benchmark::State& state) {
  const std::size_t a = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytic::lumped_read_disturbance_acc(
        protocols::ProtocolKind::kSynapse, a + 2, 1000.0, 30.0, 0.2,
        0.3 / static_cast<double>(a), a));
  }
}
BENCHMARK(BM_LumpedSolve)->Arg(10)->Arg(100)->Arg(1000)->ArgName("a");

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
  linalg::Vector b(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::solve(a, b));
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64)->Arg(256)->ArgName("n");

void BM_StationaryPowerIteration(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<linalg::Triplet> trip;
  // Sparse random walk with ~8 transitions per state.
  for (std::size_t r = 0; r < n; ++r) {
    double total = 0.0;
    std::vector<std::pair<std::size_t, double>> row;
    for (int k = 0; k < 8; ++k) {
      row.emplace_back(rng.uniform_index(n), rng.uniform() + 0.1);
      total += row.back().second;
    }
    for (auto& [c, w] : row) trip.push_back({r, c, w / total});
  }
  linalg::CsrMatrix p(n, n, std::move(trip));
  linalg::StationaryOptions options;
  options.direct_limit = 1;
  options.tolerance = 1e-10;
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::stationary_distribution(p, options));
}
BENCHMARK(BM_StationaryPowerIteration)->Arg(1024)->Arg(8192)->ArgName("n");

}  // namespace

BENCHMARK_MAIN();
