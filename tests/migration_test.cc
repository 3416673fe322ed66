// Verified live protocol migration (dsm/migration.h, ROADMAP item 2):
//
//  * exhaustive model checks of the drain/fence/flush/switch/seed/release
//    handoff — every ordered protocol pair at N=2, the acceptance pairs
//    (write-through <-> Berkeley / Dragon) at N=3 — in the reduced engine
//    (symmetry + POR over the wrapper's trusted codecs);
//  * reduction soundness for the migration worlds: the reduced verdicts,
//    state-name coverage, and (pinned) reference counts must match the
//    exact kFullExpansion exploration;
//  * fault injection: the two classic handoff bugs (no fence, no seed)
//    re-introduced via MigrationWorldOptions::Fault must be *caught*, with
//    counterexamples exported through the flight recorder;
//  * the runtime half: SequentialRuntime::migrate keeps the serialized
//    history contiguous under the live coherence oracle.
//
// The concurrent-runtime stress half (forced migrations under real client
// threads, the online controller) lives in migration_stress_test.cc so the
// TSan stage rebuilds only the thread tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "check/model_checker.h"
#include "check/oracle.h"
#include "dsm/migration.h"
#include "obs/flight_recorder.h"
#include "protocols/protocol.h"
#include "sim/sequential.h"

namespace drsm {
namespace {

using check::CheckConfig;
using check::CheckResult;
using check::CoherenceOracle;
using check::OracleMode;
using dsm::MigrationWorldOptions;
using protocols::ProtocolKind;

CheckResult run_migration_check(const MigrationWorldOptions& options,
                                bool full_expansion = false) {
  CheckConfig config = dsm::migration_check_config(options);
  if (full_expansion)
    config.expansion = CheckConfig::Expansion::kFullExpansion;
  return check::check_protocol(config);
}

std::string pair_name(ProtocolKind from, ProtocolKind to) {
  return std::string(protocols::to_string(from)) + " -> " +
         protocols::to_string(to);
}

// The four ISSUE acceptance pairs: write-through <-> Berkeley and Dragon.
const std::pair<ProtocolKind, ProtocolKind> kAcceptancePairs[] = {
    {ProtocolKind::kWriteThrough, ProtocolKind::kBerkeley},
    {ProtocolKind::kBerkeley, ProtocolKind::kWriteThrough},
    {ProtocolKind::kWriteThrough, ProtocolKind::kDragon},
    {ProtocolKind::kDragon, ProtocolKind::kWriteThrough},
};

// ---------------------------------------------------------------------------
// Exhaustive safety at N=2: every ordered pair of the eight protocols.
// ---------------------------------------------------------------------------

TEST(MigrationCheck, EveryOrderedPairSafeAtN2) {
  for (const ProtocolKind from : protocols::kAllProtocols) {
    for (const ProtocolKind to : protocols::kAllProtocols) {
      MigrationWorldOptions options;
      options.from = from;
      options.to = to;
      options.num_clients = 2;
      const CheckResult result = run_migration_check(options);
      ASSERT_TRUE(result.ok())
          << pair_name(from, to) << ": "
          << result.violations.front().invariant << " — "
          << result.violations.front().detail;
      EXPECT_FALSE(result.hit_state_cap) << pair_name(from, to);
      // The wrappers round-trip the snapshot codec, so the factory world
      // runs on the reduced engine.
      EXPECT_TRUE(result.symmetry_applied) << pair_name(from, to);
      EXPECT_TRUE(result.por_applied) << pair_name(from, to);
    }
  }
}

TEST(MigrationCheck, ReducedMatchesFullExpansionAtN2) {
  std::size_t reduced_total = 0;
  std::size_t full_total = 0;
  for (const ProtocolKind from : protocols::kAllProtocols) {
    for (const ProtocolKind to : protocols::kAllProtocols) {
      MigrationWorldOptions options;
      options.from = from;
      options.to = to;
      options.num_clients = 2;
      const CheckResult reduced = run_migration_check(options);
      const CheckResult full =
          run_migration_check(options, /*full_expansion=*/true);
      ASSERT_TRUE(full.ok()) << pair_name(from, to) << ": "
                             << full.violations.front().detail;
      ASSERT_TRUE(reduced.ok()) << pair_name(from, to) << ": "
                                << reduced.violations.front().detail;
      // Same machine-state coverage, never more states than the reference.
      EXPECT_EQ(reduced.visited_state_names, full.visited_state_names)
          << pair_name(from, to);
      EXPECT_LE(reduced.states, full.states) << pair_name(from, to);
      EXPECT_FALSE(full.symmetry_applied);
      EXPECT_FALSE(full.por_applied);
      reduced_total += reduced.states;
      full_total += full.states;
    }
  }
  // Across the sweep the reductions must actually bite.
  EXPECT_LT(reduced_total, full_total);
}

TEST(MigrationCheck, HandoffPhasesAreAllReachable) {
  // Phases visible at state boundaries.  kFlushing is observable only
  // when the source protocol's home flush-read needs a recall chain
  // (ownership protocols — the second configuration below); kSeeding
  // never is: the seed write runs through a *fresh* new-protocol inner
  // whose home always holds the authoritative copy, so it applies within
  // one atomic dispatch and post_dispatch advances past it.
  const auto visited = [](const CheckResult& result, const char* phase) {
    return std::find(result.visited_state_names.begin(),
                     result.visited_state_names.end(),
                     phase) != result.visited_state_names.end();
  };

  MigrationWorldOptions options;
  options.from = ProtocolKind::kWriteThrough;
  options.to = ProtocolKind::kBerkeley;
  options.num_clients = 2;
  const CheckResult result = run_migration_check(options);
  ASSERT_TRUE(result.ok());
  for (const char* phase : {"MIG-DRAINING", "MIG-DRAINED", "MIG-FENCING",
                            "MIG-SWITCHING", "MIG-SWITCHED"})
    EXPECT_TRUE(visited(result, phase)) << phase << " never visited";
  EXPECT_FALSE(visited(result, "MIG-FLUSHING"));  // home read hits locally

  options.from = ProtocolKind::kBerkeley;
  options.to = ProtocolKind::kWriteThrough;
  const CheckResult owner = run_migration_check(options);
  ASSERT_TRUE(owner.ok());
  EXPECT_TRUE(visited(owner, "MIG-FLUSHING"))
      << "recall-chain flush never visible";
}

TEST(MigrationCheck, DeeperTriggerStillSafeAndEquivalent) {
  // trigger=3 starts the handoff mid-workload, with protocol state and
  // application operations genuinely in flight.
  MigrationWorldOptions options;
  options.from = ProtocolKind::kDragon;
  options.to = ProtocolKind::kWriteThrough;
  options.num_clients = 2;
  options.trigger = 3;
  const CheckResult reduced = run_migration_check(options);
  const CheckResult full =
      run_migration_check(options, /*full_expansion=*/true);
  ASSERT_TRUE(full.ok()) << full.violations.front().detail;
  ASSERT_TRUE(reduced.ok()) << reduced.violations.front().detail;
  EXPECT_EQ(reduced.visited_state_names, full.visited_state_names);
  EXPECT_LE(reduced.states, full.states);
}

// ---------------------------------------------------------------------------
// The acceptance configuration: N=3, reduced == full expansion.
// ---------------------------------------------------------------------------

class MigrationN3Test
    : public ::testing::TestWithParam<std::pair<ProtocolKind, ProtocolKind>> {
};

TEST_P(MigrationN3Test, ReducedEngineProvesHandoffSafe) {
  MigrationWorldOptions options;
  options.from = GetParam().first;
  options.to = GetParam().second;
  options.num_clients = 3;
  const CheckResult result = run_migration_check(options);
  ASSERT_TRUE(result.ok()) << result.violations.front().invariant << " — "
                           << result.violations.front().detail;
  EXPECT_FALSE(result.hit_state_cap);
  EXPECT_TRUE(result.symmetry_applied);
  EXPECT_TRUE(result.por_applied);
  EXPECT_GT(result.symmetry_hits, 0u);
  EXPECT_GT(result.probes, 0u);  // quiescent read probes ran post-release
}

INSTANTIATE_TEST_SUITE_P(
    AcceptancePairs, MigrationN3Test, ::testing::ValuesIn(kAcceptancePairs),
    [](const auto& info) {
      std::string name = std::string(protocols::to_string(info.param.first)) +
                         "_to_" + protocols::to_string(info.param.second);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(MigrationCheckN3, ReducedMatchesFullExpansion) {
  // The exact reference for the three acceptance pairs that full-expand in
  // seconds; berkeley -> write-through is covered by the pinned test
  // below.
  const std::pair<ProtocolKind, ProtocolKind> pairs[] = {
      {ProtocolKind::kWriteThrough, ProtocolKind::kBerkeley},
      {ProtocolKind::kWriteThrough, ProtocolKind::kDragon},
      {ProtocolKind::kDragon, ProtocolKind::kWriteThrough},
  };
  for (const auto& [from, to] : pairs) {
    MigrationWorldOptions options;
    options.from = from;
    options.to = to;
    options.num_clients = 3;
    const CheckResult reduced = run_migration_check(options);
    const CheckResult full =
        run_migration_check(options, /*full_expansion=*/true);
    ASSERT_TRUE(full.ok()) << pair_name(from, to) << ": "
                           << full.violations.front().detail;
    ASSERT_TRUE(reduced.ok()) << pair_name(from, to) << ": "
                              << reduced.violations.front().detail;
    EXPECT_EQ(reduced.visited_state_names, full.visited_state_names)
        << pair_name(from, to);
    EXPECT_LT(reduced.states, full.states) << pair_name(from, to);
    EXPECT_EQ(reduced.max_depth, full.max_depth) << pair_name(from, to);
  }
}

TEST(MigrationCheckN3, BerkeleyToWriteThroughMatchesPinnedReference) {
  // The kFullExpansion reference for berkeley -> write-through at N=3 is
  // 4'654'997 states / 22'458'516 transitions at depth 57 (all counts are
  // schedule-independent).  The live cross-check costs minutes, so it
  // runs only with DRSM_DEEP_CHECKS=1; the reduced run is held to the
  // pinned verdict and depth unconditionally.
  MigrationWorldOptions options;
  options.from = ProtocolKind::kBerkeley;
  options.to = ProtocolKind::kWriteThrough;
  options.num_clients = 3;
  const CheckResult reduced = run_migration_check(options);
  ASSERT_TRUE(reduced.ok()) << reduced.violations.front().detail;
  EXPECT_FALSE(reduced.hit_state_cap);
  EXPECT_EQ(reduced.max_depth, 57u);
  EXPECT_LT(reduced.states, 4'654'997u);

  const char* deep = std::getenv("DRSM_DEEP_CHECKS");
  if (deep == nullptr || std::string(deep) != "1") {
    GTEST_LOG_(INFO) << "DRSM_DEEP_CHECKS!=1: pinned reference not re-run";
    return;
  }
  const CheckResult full =
      run_migration_check(options, /*full_expansion=*/true);
  ASSERT_TRUE(full.ok()) << full.violations.front().detail;
  EXPECT_EQ(full.states, 4'654'997u);
  EXPECT_EQ(full.transitions, 22'458'516u);
  EXPECT_EQ(full.max_depth, 57u);
  EXPECT_EQ(reduced.visited_state_names, full.visited_state_names);
}

// ---------------------------------------------------------------------------
// Fault injection: the checker must bite on the classic handoff bugs.
// ---------------------------------------------------------------------------

TEST(MigrationFaults, SkippedFenceIsCaught) {
  // Without the fence, the home switches machines while old-protocol
  // traffic is still in flight; a straggler reaching a new-epoch machine
  // must surface as a violation — and export a minimal counterexample via
  // the recorder.  The straggler needs a peer-to-peer message leg, so the
  // bug bites migrating *out of* an ownership protocol (a Berkeley recall
  // conversation is mid-flight between clients when the switch lands);
  // write-through sources are saved by per-channel FIFO — their only data
  // leg is client->home, the same channel that carries the drain-ack.
  MigrationWorldOptions options;
  options.from = ProtocolKind::kBerkeley;
  options.to = ProtocolKind::kDragon;
  options.num_clients = 2;
  options.fault = MigrationWorldOptions::Fault::kSkipFence;
  const CheckResult result = run_migration_check(options);
  ASSERT_FALSE(result.ok()) << "fenceless handoff was not caught";
  EXPECT_STREQ(result.violations.front().invariant, "defined-transition");
  ASSERT_FALSE(result.counterexample.empty());

  obs::FlightRecorder recorder;
  const std::string path =
      ::testing::TempDir() + "/migration_skip_fence.jsonl";
  const std::string dump =
      check::dump_counterexample(result, recorder, path);
  EXPECT_FALSE(dump.empty());
  EXPECT_NE(dump.find("violation"), std::string::npos);
}

TEST(MigrationFaults, SkippedSeedIsCaught) {
  // Without re-committing the flushed value, the pre-migration history is
  // lost: a post-release quiescent read probe sees unserialized data.
  MigrationWorldOptions options;
  options.from = ProtocolKind::kWriteThrough;
  options.to = ProtocolKind::kBerkeley;
  options.num_clients = 2;
  options.fault = MigrationWorldOptions::Fault::kNoSeed;
  const CheckResult result = run_migration_check(options);
  ASSERT_FALSE(result.ok()) << "seedless handoff was not caught";
  EXPECT_FALSE(result.counterexample.empty());
}

// ---------------------------------------------------------------------------
// Runtime half: SequentialRuntime::migrate under the live referee.
// ---------------------------------------------------------------------------

TEST(LiveMigration, ReseedPreservesSerializedHistory) {
  sim::SystemConfig config;
  config.num_clients = 2;
  sim::SequentialRuntime runtime(ProtocolKind::kWriteThrough, config,
                                 {0, 1});
  CoherenceOracle oracle(OracleMode::kSequential);
  runtime.set_coherence_tap(&oracle);

  runtime.execute(0, fsm::OpKind::kWrite, 11);
  runtime.execute(1, fsm::OpKind::kRead);
  runtime.execute(1, fsm::OpKind::kWrite, 12);
  const std::uint64_t version_before = runtime.latest_version();

  const sim::OpResult seed = runtime.migrate(ProtocolKind::kBerkeley);
  EXPECT_EQ(runtime.protocol(), ProtocolKind::kBerkeley);
  // The seed re-commits, never re-serializes: version continuity.
  EXPECT_EQ(runtime.latest_version(), version_before);
  EXPECT_EQ(runtime.latest_value(), 12u);
  EXPECT_TRUE(seed.completed);  // the seed write really ran

  // Post-switch reads see the migrated value; new writes extend the same
  // version sequence.
  EXPECT_EQ(runtime.execute(0, fsm::OpKind::kRead).read_value, 12u);
  runtime.execute(0, fsm::OpKind::kWrite, 13);
  EXPECT_EQ(runtime.latest_version(), version_before + 1);
  EXPECT_EQ(runtime.execute(1, fsm::OpKind::kRead).read_value, 13u);

  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
}

TEST(LiveMigration, MigrateBeforeAnyWriteNeedsNoSeed) {
  sim::SystemConfig config;
  config.num_clients = 2;
  sim::SequentialRuntime runtime(ProtocolKind::kWriteThrough, config,
                                 {0, 1});
  const sim::OpResult seed = runtime.migrate(ProtocolKind::kDragon);
  EXPECT_EQ(seed.messages, 0u);  // nothing serialized, nothing to seed
  EXPECT_EQ(runtime.latest_version(), 0u);
  runtime.execute(0, fsm::OpKind::kWrite, 5);
  EXPECT_EQ(runtime.execute(1, fsm::OpKind::kRead).read_value, 5u);
}

TEST(LiveMigration, ChainThroughAllEightProtocols) {
  // Walk the object through every protocol in sequence with traffic
  // between hops; the oracle referees one unbroken history.
  sim::SystemConfig config;
  config.num_clients = 3;
  sim::SequentialRuntime runtime(ProtocolKind::kWriteThrough, config,
                                 {0, 1, 2});
  CoherenceOracle oracle(OracleMode::kSequential);
  runtime.set_coherence_tap(&oracle);

  std::uint64_t value = 100;
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    runtime.migrate(kind);
    const NodeId writer = static_cast<NodeId>(value % 3);
    runtime.execute(writer, fsm::OpKind::kWrite, ++value);
    for (NodeId reader = 0; reader < 3; ++reader)
      EXPECT_EQ(runtime.execute(reader, fsm::OpKind::kRead).read_value,
                value)
          << protocols::to_string(kind);
  }
  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
}

}  // namespace
}  // namespace drsm
