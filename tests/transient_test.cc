// Transient (warm-up) analysis tests: the expected cost profile from the
// cold all-INVALID start, which the paper's simulation methodology
// discards ("the first 500 operations are neglected").
#include <gtest/gtest.h>

#include <cmath>

#include "analytic/chain.h"
#include "analytic/closed_form.h"
#include "support/error.h"
#include "workload/spec.h"

namespace drsm {
namespace {

using analytic::ProtocolChain;
using protocols::ProtocolKind;

sim::SystemConfig make_config(std::size_t n, double s, double p) {
  sim::SystemConfig config;
  config.num_clients = n;
  config.costs.s = s;
  config.costs.p = p;
  return config;
}

TEST(Transient, FirstOperationCostFromColdStart) {
  // From the cold state every WT read misses (S+2) and every write costs
  // P+N, so E[cost of op 1] = (1-p)(S+2)... with disturbance:
  // p*(P+N) + (1-p)(S+2) since *all* reads (center or disturber) miss.
  const std::size_t n = 5, a = 2;
  const double s = 100.0, p_cost = 30.0;
  const double p = 0.3, sigma = 0.1;
  const auto spec = workload::read_disturbance(p, sigma, a);
  ProtocolChain chain(ProtocolKind::kWriteThrough,
                      make_config(n, s, p_cost), spec);
  const auto costs = chain.transient_costs(spec.probabilities(), 3);
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_NEAR(costs[0],
              p * (p_cost + n) + (1.0 - p) * (s + 2.0), 1e-9);
}

TEST(Transient, ConvergesToSteadyStateAcc) {
  const std::size_t n = 5, a = 2;
  const auto config = make_config(n, 100.0, 30.0);
  const auto spec = workload::read_disturbance(0.25, 0.1, a);
  for (ProtocolKind kind :
       {ProtocolKind::kWriteThrough, ProtocolKind::kWriteOnce,
        ProtocolKind::kBerkeley, ProtocolKind::kSynapse}) {
    ProtocolChain chain(kind, config, spec);
    const auto probs = spec.probabilities();
    const double steady = chain.average_cost(probs);
    const auto costs = chain.transient_costs(probs, 400);
    EXPECT_NEAR(costs.back(), steady, 1e-6 * std::max(steady, 1.0))
        << protocols::to_string(kind);
  }
}

TEST(Transient, OwnershipProtocolsDecayToZeroUnderIdealWorkload) {
  // Berkeley's steady-state ideal cost is 0; the transient profile must
  // start positive (cold misses + the first ownership migration) and
  // decay to zero.
  const auto config = make_config(6, 100.0, 30.0);
  const auto spec = workload::ideal_workload(0.4);
  ProtocolChain chain(ProtocolKind::kBerkeley, config, spec);
  const auto costs = chain.transient_costs(spec.probabilities(), 200);
  EXPECT_GT(costs.front(), 0.0);
  EXPECT_NEAR(costs.back(), 0.0, 1e-6);
  // Decay is (eventually) monotone for this single-writer chain.
  EXPECT_LT(costs[50], costs[0]);
}

TEST(Transient, WarmupLengthIsFiniteAndOrderedByMixing) {
  const auto config = make_config(5, 100.0, 30.0);
  const auto spec = workload::read_disturbance(0.3, 0.1, 2);
  ProtocolChain chain(ProtocolKind::kWriteThrough, config, spec);
  const auto probs = spec.probabilities();
  const std::size_t tight = chain.warmup_length(probs, 0.001);
  const std::size_t loose = chain.warmup_length(probs, 0.05);
  EXPECT_LT(tight, 100000u);
  EXPECT_LE(loose, tight);
  // Well under the paper's 500-operation cut for this small system.
  EXPECT_LT(tight, 500u);
}

TEST(Transient, PaperWarmupCutIsGenerous) {
  // For the Table 7 configuration the analytic warm-up (0.1 % band) is
  // far below the 500 operations the paper discards.
  const auto config = make_config(3, 100.0, 30.0);
  for (double p : {0.2, 0.6}) {
    const auto spec = workload::read_disturbance(p, 0.2, 2);
    for (ProtocolKind kind :
         {ProtocolKind::kWriteOnce, ProtocolKind::kWriteThroughV}) {
      ProtocolChain chain(kind, config, spec);
      EXPECT_LT(chain.warmup_length(spec.probabilities(), 0.001), 500u)
          << protocols::to_string(kind) << " p=" << p;
    }
  }
}

TEST(Transient, RejectsInvalidProbabilities) {
  // The transient queries check their probabilities as the stationary
  // ones do: a vector summing to 3 would otherwise grow the expected cost
  // geometrically, and a negative entry would be taken as it stands.
  const auto spec = workload::read_disturbance(0.3, 0.1, 2);
  ProtocolChain chain(ProtocolKind::kWriteThrough,
                      make_config(3, 100.0, 30.0), spec);
  const auto probs = spec.probabilities();
  ASSERT_GE(probs.size(), 2u);

  std::vector<double> tripled = probs;
  for (double& p : tripled) p *= 3.0;
  EXPECT_THROW(chain.transient_costs(tripled, 50), Error);
  EXPECT_THROW(chain.average_cost(tripled), Error);

  std::vector<double> negative = probs;  // still sums to 1
  negative[1] += negative[0] + 0.1;
  negative[0] = -0.1;
  EXPECT_THROW(chain.transient_costs(negative, 50), Error);
  EXPECT_THROW(chain.average_cost(negative), Error);

  EXPECT_NO_THROW(chain.transient_costs(probs, 50));
}

}  // namespace
}  // namespace drsm
