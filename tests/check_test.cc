// Tests for the explicit-state model checker (src/check): exhaustive
// verification of all eight protocols and of the paper's formal
// Write-Through tables at small configurations, state-name coverage,
// determinism of the exploration, and — through deliberately broken
// machines — that each invariant actually fires and produces a minimal,
// exportable counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/model_checker.h"
#include "fsm/table.h"
#include "obs/trace.h"
#include "protocols/protocol.h"
#include "support/error.h"
#include "test_util.h"

namespace drsm {
namespace {

using check::CheckConfig;
using check::CheckResult;
using protocols::ProtocolKind;

// ---------------------------------------------------------------------------
// Exhaustive verification of the real protocols.
// ---------------------------------------------------------------------------

class ExhaustiveCheckTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ExhaustiveCheckTest, TwoClientsOneReadOneWriteIsViolationFree) {
  CheckConfig config;
  config.protocol = GetParam();
  config.num_clients = 2;
  config.reads_per_client = 1;
  config.writes_per_client = 1;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok()) << result.violations.front().invariant << ": "
                           << result.violations.front().detail;
  EXPECT_FALSE(result.hit_state_cap);
  EXPECT_GT(result.states, 1u);
  EXPECT_GT(result.transitions, result.states - 1);  // BFS tree + dedups
  EXPECT_GT(result.probes, 0u);
  EXPECT_GT(result.max_depth, 1u);
}

TEST_P(ExhaustiveCheckTest, VisitsExactlyTheDocumentedCopyStates) {
  CheckConfig config;
  config.protocol = GetParam();
  config.num_clients = 2;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok());

  // The union of client and sequencer state names, sorted unique — the
  // exploration must reach every state copy_state_names documents, and
  // must never see one it does not.
  std::vector<std::string> expected =
      protocols::copy_state_names(GetParam(), /*sequencer=*/false);
  for (auto& name :
       protocols::copy_state_names(GetParam(), /*sequencer=*/true))
    expected.push_back(std::move(name));
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(result.visited_state_names, expected);
}

TEST_P(ExhaustiveCheckTest, ExplorationIsDeterministic) {
  CheckConfig config;
  config.protocol = GetParam();
  config.num_clients = 2;
  const CheckResult a = check::check_protocol(config);
  const CheckResult b = check::check_protocol(config);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.visited_state_names, b.visited_state_names);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ExhaustiveCheckTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// N = 3 blows the full state space up by two orders of magnitude; the
// acceptance bar requires it for the fixed-sequencer write-through and the
// migrating-owner Berkeley, the two structurally extreme protocols.  The
// default (reduced) mode must both stay exhaustive — symmetry and POR
// applied, no cap — and actually earn its keep: at least a 10x shrink of
// the canonical space versus the full expansion's known counts (33,897
// states for WT, 296,634 for Berkeley).
TEST(ExhaustiveCheckLarge, WriteThroughThreeClients) {
  CheckConfig config;
  config.protocol = ProtocolKind::kWriteThrough;
  config.num_clients = 3;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok()) << result.violations.front().detail;
  EXPECT_FALSE(result.hit_state_cap);
  EXPECT_TRUE(result.symmetry_applied);
  EXPECT_TRUE(result.por_applied);
  EXPECT_GT(result.states, 1'000u);
  EXPECT_LT(result.states, 33'897u / 10);
  EXPECT_GT(result.symmetry_hits, 0u);
}

TEST(ExhaustiveCheckLarge, BerkeleyThreeClients) {
  CheckConfig config;
  config.protocol = ProtocolKind::kBerkeley;
  config.num_clients = 3;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok()) << result.violations.front().detail;
  EXPECT_FALSE(result.hit_state_cap);
  EXPECT_GT(result.states, 10'000u);
  EXPECT_LT(result.states, 296'634u / 10);
}

// Full expansion of the same configuration is the reference the reduced
// counts above are measured against.
TEST(ExhaustiveCheckLarge, WriteThroughThreeClientsFullExpansion) {
  CheckConfig config;
  config.protocol = ProtocolKind::kWriteThrough;
  config.num_clients = 3;
  config.expansion = CheckConfig::Expansion::kFullExpansion;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok()) << result.violations.front().detail;
  EXPECT_FALSE(result.symmetry_applied);
  EXPECT_FALSE(result.por_applied);
  EXPECT_EQ(result.states, 33'897u);
}

// ---------------------------------------------------------------------------
// The paper's formal tables through the checker.
// ---------------------------------------------------------------------------

// The Write-Through client and sequencer tables (the paper's Tables 1-3),
// interpreted by fsm::TableMachine, under default options.  TableMachine
// has no snapshot codec, so check_protocol explores it with the
// full-expansion engine even in the default mode; the counts equal the
// hand-written write-through machines' full expansion (326 states at N=2,
// 33,897 at N=3).
CheckResult check_write_through_tables(std::size_t clients) {
  CheckConfig config;
  config.num_clients = clients;
  config.machine_factory = [clients](NodeId node) {
    return std::make_unique<fsm::TableMachine>(
        node < clients ? &fsm::write_through_client_table()
                       : &fsm::write_through_sequencer_table());
  };
  return check::check_protocol(config);
}

void expect_exhaustive_full_expansion(const CheckResult& result) {
  ASSERT_TRUE(result.ok()) << result.violations.front().invariant << ": "
                           << result.violations.front().detail;
  EXPECT_FALSE(result.hit_state_cap);
  EXPECT_FALSE(result.symmetry_applied);
  EXPECT_FALSE(result.por_applied);
}

TEST(FormalTables, WriteThroughTablesAtTwoClients) {
  const CheckResult result = check_write_through_tables(2);
  expect_exhaustive_full_expansion(result);
  EXPECT_EQ(result.states, 326u);
  EXPECT_EQ(result.transitions, 716u);
  EXPECT_EQ(result.probes, 62u);
}

TEST(FormalTables, WriteThroughTablesAtThreeClients) {
  const CheckResult result = check_write_through_tables(3);
  expect_exhaustive_full_expansion(result);
  EXPECT_EQ(result.states, 33'897u);
  EXPECT_EQ(result.transitions, 125'469u);
  EXPECT_EQ(result.probes, 591u);
}

// ---------------------------------------------------------------------------
// Broken machines: every invariant must fire, with a minimal trace.
// ---------------------------------------------------------------------------

// Swallows every message: the first issued operation pends forever.
class BlackHoleMachine final : public fsm::ProtocolMachine {
 public:
  void on_message(fsm::MachineContext&, const fsm::Message&) override {}
  std::unique_ptr<fsm::ProtocolMachine> clone() const override {
    return std::make_unique<BlackHoleMachine>(*this);
  }
  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);
  }
  const char* state_name() const override { return "HOLE"; }
};

// Rejects writes the way the real machines reject undefined transitions.
class WriteRejectingMachine final : public fsm::ProtocolMachine {
 public:
  void on_message(fsm::MachineContext& ctx,
                  const fsm::Message& msg) override {
    DRSM_CHECK(msg.token.type != fsm::MsgType::kWriteReq,
               "no transition for W-REQ");
    ctx.return_read(0, 0);
  }
  std::unique_ptr<fsm::ProtocolMachine> clone() const override {
    return std::make_unique<WriteRejectingMachine>(*this);
  }
  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);
  }
  const char* state_name() const override { return "REJECT"; }
};

// Claims an exclusive copy state on every node simultaneously.
class AlwaysDirtyMachine final : public fsm::ProtocolMachine {
 public:
  void on_message(fsm::MachineContext&, const fsm::Message&) override {}
  std::unique_ptr<fsm::ProtocolMachine> clone() const override {
    return std::make_unique<AlwaysDirtyMachine>(*this);
  }
  void encode(std::vector<std::uint8_t>& out) const override {
    out.push_back(0);
  }
  const char* state_name() const override { return "DIRTY"; }
};

CheckConfig broken_config(CheckConfig::MachineFactory factory) {
  CheckConfig config;
  config.machine_factory = std::move(factory);
  config.num_clients = 2;
  config.check_exclusivity = false;   // non-protocol state names
  config.probe_quiescent_reads = false;
  return config;
}

TEST(BrokenMachine, SwallowedRequestIsReportedAsDeadlock) {
  CheckConfig config = broken_config(
      [](NodeId) { return std::make_unique<BlackHoleMachine>(); });
  const CheckResult result = check::check_protocol(config);
  ASSERT_FALSE(result.ok());
  EXPECT_STREQ(result.violations.front().invariant, "deadlock");
  // BFS: the minimal counterexample is the single issue step.
  ASSERT_EQ(result.counterexample.size(), 1u);
  EXPECT_EQ(result.counterexample.front().kind,
            check::CheckStep::Kind::kIssue);
}

TEST(BrokenMachine, UndefinedTransitionIsCaughtNotFatal) {
  CheckConfig config = broken_config(
      [](NodeId) { return std::make_unique<WriteRejectingMachine>(); });
  config.reads_per_client = 0;  // only writes: first issue must trip it
  const CheckResult result = check::check_protocol(config);
  ASSERT_FALSE(result.ok());
  EXPECT_STREQ(result.violations.front().invariant, "defined-transition");
  EXPECT_NE(result.violations.front().detail.find("no transition"),
            std::string::npos);
  EXPECT_EQ(result.counterexample.size(), 1u);
}

TEST(BrokenMachine, DoubleExclusiveCopyViolatesExclusivity) {
  CheckConfig config = broken_config(
      [](NodeId) { return std::make_unique<AlwaysDirtyMachine>(); });
  // DIRTY classifies as exclusive under Synapse; two clients hold it from
  // the start, so the violation is found in the initial state.
  config.protocol = ProtocolKind::kSynapse;
  config.check_exclusivity = true;
  config.reads_per_client = 0;
  config.writes_per_client = 0;
  const CheckResult result = check::check_protocol(config);
  ASSERT_FALSE(result.ok());
  EXPECT_STREQ(result.violations.front().invariant, "exclusivity");
  EXPECT_TRUE(result.counterexample.empty());  // initial state: zero steps
}

// ---------------------------------------------------------------------------
// Counterexample export.
// ---------------------------------------------------------------------------

TEST(Counterexample, ExportsStepsAndViolationAsJsonl) {
  CheckConfig config = broken_config(
      [](NodeId) { return std::make_unique<BlackHoleMachine>(); });
  const CheckResult result = check::check_protocol(config);
  ASSERT_FALSE(result.ok());

  obs::TraceRecorder recorder;
  check::export_counterexample(result, recorder);
  const std::string jsonl = recorder.to_jsonl();
  EXPECT_NE(jsonl.find("\"check_step\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"violation\""), std::string::npos);
  EXPECT_NE(jsonl.find("deadlock"), std::string::npos);
  // One line per step plus the violation line.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, result.counterexample.size() + 1);
}

TEST(Counterexample, ExportIsNoOpWhenOk) {
  CheckConfig config;
  config.protocol = ProtocolKind::kWriteThrough;
  const CheckResult result = check::check_protocol(config);
  ASSERT_TRUE(result.ok());
  obs::TraceRecorder recorder;
  check::export_counterexample(result, recorder);
  EXPECT_TRUE(recorder.to_jsonl().empty());
}

// The shared Trajectory helper pins counterexample determinism the same
// way the simulator goldens are pinned: fold every step's message into an
// FNV hash and require identical hashes across repeated checks.
TEST(Counterexample, TraceIsDeterministic) {
  const auto hash_run = [] {
    CheckConfig config = broken_config(
        [](NodeId) { return std::make_unique<WriteRejectingMachine>(); });
    config.reads_per_client = 0;
    const CheckResult result = check::check_protocol(config);
    testing::Trajectory traj;
    for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
      const check::CheckStep& step = result.counterexample[i];
      traj.mix_message(i, step.src, step.node, step.msg);
      traj.mix(static_cast<std::uint64_t>(step.kind));
    }
    return traj;
  };
  const auto a = hash_run();
  const auto b = hash_run();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.events, 0u);
}

}  // namespace
}  // namespace drsm
