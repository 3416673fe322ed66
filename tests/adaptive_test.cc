// Tests for the self-tuning extension: the analytic classifier
// (AccSolver::best_protocol) and the protocol-switching shared memory.
#include <gtest/gtest.h>

#include <algorithm>

#include "adaptive/selector.h"
#include "support/rng.h"
#include "workload/generator.h"

namespace drsm {
namespace {

using adaptive::AdaptiveSharedMemory;
using fsm::OpKind;
using protocols::ProtocolKind;

sim::SystemConfig make_config(std::size_t n, double s, double p) {
  sim::SystemConfig config;
  config.num_clients = n;
  config.costs.s = s;
  config.costs.p = p;
  return config;
}

TEST(AdaptiveSelector, PicksUpdateProtocolForReadSharedWorkload) {
  // Many readers, rare writes, small write parameters, huge objects:
  // broadcasting updates (Dragon) beats every invalidate protocol because
  // re-fetching S-sized objects dominates.
  analytic::AccSolver solver(make_config(4, 10000.0, 1.0));
  const auto spec = workload::read_disturbance(0.05, 0.3, 3);
  const auto decision = solver.best_protocol(spec);
  EXPECT_EQ(decision.protocol, ProtocolKind::kDragon)
      << protocols::to_string(decision.protocol);
}

TEST(AdaptiveSelector, PicksOwnershipProtocolForWriteHeavyWorkload) {
  // A single hot writer: the ownership protocols (Write-Once, Synapse,
  // Illinois, Berkeley) all run it for free; the classifier must pick one
  // of them, never a write-through or update protocol.
  analytic::AccSolver solver(make_config(4, 100.0, 30.0));
  const auto decision = solver.best_protocol(workload::ideal_workload(0.9));
  EXPECT_NEAR(decision.acc, 0.0, 1e-9);
  const ProtocolKind ownership[] = {
      ProtocolKind::kWriteOnce, ProtocolKind::kSynapse,
      ProtocolKind::kIllinois, ProtocolKind::kBerkeley};
  EXPECT_NE(std::find(std::begin(ownership), std::end(ownership),
                      decision.protocol),
            std::end(ownership))
      << protocols::to_string(decision.protocol);
  // With write disturbance and cheap object transfers (S < P), migrating
  // ownership to each writer beats forwarding every write's parameters:
  // Berkeley is the unique winner.
  analytic::AccSolver cheap_transfer(make_config(4, 4.0, 30.0));
  const auto contended = cheap_transfer.best_protocol(
      workload::write_disturbance(0.6, 0.1, 2));
  EXPECT_EQ(contended.protocol, ProtocolKind::kBerkeley)
      << protocols::to_string(contended.protocol);
}

TEST(AdaptiveSelector, SingleCandidateIsAlwaysChosen) {
  // The selection boundary collapses when only one protocol is eligible:
  // whatever the workload says, the candidate list wins.
  analytic::AccSolver solver(make_config(4, 100.0, 30.0));
  for (const auto& spec : {workload::ideal_workload(0.9),
                           workload::read_disturbance(0.05, 0.3, 3)})
    EXPECT_EQ(solver.best_protocol(spec, {ProtocolKind::kSynapse}).protocol,
              ProtocolKind::kSynapse)
        << spec.name;
}

TEST(AdaptiveSelector, DegenerateWorkloadExtremesClassifyCleanly) {
  // p = 0 (reads only) and p = 1 (writes only) at a single activity
  // center are free under every ownership protocol; the classifier must
  // handle both extremes without blowing up and report acc = 0.
  analytic::AccSolver solver(make_config(3, 100.0, 30.0));
  const auto reads_only = solver.best_protocol(workload::ideal_workload(0.0));
  EXPECT_NEAR(reads_only.acc, 0.0, 1e-9);
  const auto writes_only = solver.best_protocol(workload::ideal_workload(1.0));
  EXPECT_NEAR(writes_only.acc, 0.0, 1e-9);
}

TEST(AdaptiveSharedMemory, DoesNotSwitchBeforeMinObservations) {
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 3;
  options.memory.num_objects = 1;
  options.memory.costs.s = 10000.0;  // strongly favors switching away
  options.memory.costs.p = 1.0;
  options.epoch_ops = 64;            // epochs come and go...
  options.min_observations = 100000; // ...but the floor is never reached
  AdaptiveSharedMemory memory(options);
  workload::GlobalSequenceGenerator gen(
      workload::read_disturbance(0.05, 0.3, 2), 3);
  std::uint64_t value = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto op = gen.next();
    if (op.op == OpKind::kWrite)
      memory.write(op.node, 0, ++value);
    else
      memory.read(op.node, 0);
  }
  EXPECT_EQ(memory.switches(), 0u);
  EXPECT_EQ(memory.current_protocol(), ProtocolKind::kWriteThrough);
}

TEST(AdaptiveSharedMemory, SwitchesWhenThePhaseChanges) {
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 3;
  options.memory.num_objects = 2;
  options.memory.costs.s = 10000.0;
  options.memory.costs.p = 1.0;
  options.epoch_ops = 256;
  options.window = 512;
  // Restrict to one update and one invalidate/ownership protocol so the
  // expected decisions are unambiguous.
  options.candidates = {ProtocolKind::kDragon, ProtocolKind::kBerkeley};
  AdaptiveSharedMemory memory(options);

  Rng rng(5);
  std::uint64_t value = 0;
  // Phase 1: widely shared reads with occasional writes -> Dragon.
  workload::GlobalSequenceGenerator phase1(
      workload::read_disturbance(0.05, 0.3, 2), 11, 2);
  for (int i = 0; i < 2000; ++i) {
    const auto op = phase1.next();
    if (op.op == OpKind::kWrite)
      memory.write(op.node, op.object, ++value);
    else
      memory.read(op.node, op.object);
  }
  EXPECT_EQ(memory.current_protocol(), ProtocolKind::kDragon);

  // Phase 2: single hot writer -> Berkeley.
  workload::GlobalSequenceGenerator phase2(workload::ideal_workload(0.8),
                                           13, 2);
  for (int i = 0; i < 2000; ++i) {
    const auto op = phase2.next();
    if (op.op == OpKind::kWrite)
      memory.write(op.node, op.object, ++value);
    else
      memory.read(op.node, op.object);
  }
  EXPECT_EQ(memory.current_protocol(), ProtocolKind::kBerkeley);
  EXPECT_GE(memory.switches(), 2u);  // WT -> Dragon -> Berkeley
  EXPECT_GT(memory.epochs(), 0u);
}

TEST(AdaptiveSharedMemory, PerObjectModeSpecializesEachObject) {
  // Object 0: private read-write at client 0; object 1: one writer, broad
  // readers with huge objects.  Per-object adaptation should settle on an
  // ownership protocol for object 0 and an update protocol for object 1.
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 4;
  options.memory.num_objects = 2;
  options.memory.costs.s = 8000.0;
  options.memory.costs.p = 2.0;
  options.epoch_ops = 256;
  options.window = 512;
  options.min_observations = 64;
  options.per_object = true;
  AdaptiveSharedMemory memory(options);

  Rng rng(41);
  std::uint64_t value = 0;
  for (int i = 0; i < 8000; ++i) {
    if (rng.bernoulli(0.5)) {
      // Private object.
      if (rng.bernoulli(0.6))
        memory.write(0, 0, ++value);
      else
        memory.read(0, 0);
    } else {
      // Shared object: rare writes by client 0, reads everywhere.
      if (rng.bernoulli(0.08))
        memory.write(0, 1, ++value);
      else
        memory.read(static_cast<NodeId>(rng.uniform_index(4)), 1);
    }
  }
  const ProtocolKind ownership[] = {
      ProtocolKind::kWriteOnce, ProtocolKind::kSynapse,
      ProtocolKind::kIllinois, ProtocolKind::kBerkeley};
  EXPECT_NE(std::find(std::begin(ownership), std::end(ownership),
                      memory.object_protocol(0)),
            std::end(ownership))
      << protocols::to_string(memory.object_protocol(0));
  EXPECT_TRUE(memory.object_protocol(1) == ProtocolKind::kDragon ||
              memory.object_protocol(1) == ProtocolKind::kFirefly)
      << protocols::to_string(memory.object_protocol(1));
  EXPECT_NE(memory.object_protocol(0), memory.object_protocol(1));
}

TEST(AdaptiveSharedMemory, HysteresisHoldsIncumbentOnStationaryWorkload) {
  // A stationary workload with two closely-priced update candidates
  // (Dragon and Firefly differ only by the completion token): after the
  // first decisive switch, epoch-to-epoch sampling noise inside the
  // hysteresis band must never flap the protocol back and forth.
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 3;
  options.memory.num_objects = 1;
  options.memory.costs.s = 10000.0;
  options.memory.costs.p = 1.0;
  options.epoch_ops = 128;
  options.window = 256;
  options.hysteresis = 0.05;
  options.candidates = {ProtocolKind::kDragon, ProtocolKind::kFirefly};
  AdaptiveSharedMemory memory(options);

  workload::GlobalSequenceGenerator gen(
      workload::read_disturbance(0.05, 0.3, 2), 23);
  std::uint64_t value = 0;
  for (int i = 0; i < 8000; ++i) {
    const auto op = gen.next();
    if (op.op == OpKind::kWrite)
      memory.write(op.node, 0, ++value);
    else
      memory.read(op.node, 0);
  }
  EXPECT_GT(memory.epochs(), 10u);  // plenty of chances to flap
  EXPECT_LE(memory.switches(), 1u)
      << "flapped to " << protocols::to_string(memory.current_protocol());
}

TEST(AdaptiveSharedMemory, FullHysteresisPinsTheInitialProtocol) {
  // hysteresis = 1.0 demands a challenger with negative predicted acc —
  // impossible — so the memory must never leave its initial protocol no
  // matter how lopsided the workload is.
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 3;
  options.memory.num_objects = 1;
  options.memory.costs.s = 10000.0;
  options.memory.costs.p = 1.0;
  options.epoch_ops = 64;
  options.hysteresis = 1.0;
  AdaptiveSharedMemory memory(options);

  workload::GlobalSequenceGenerator gen(
      workload::read_disturbance(0.05, 0.3, 2), 29);
  std::uint64_t value = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto op = gen.next();
    if (op.op == OpKind::kWrite)
      memory.write(op.node, 0, ++value);
    else
      memory.read(op.node, 0);
  }
  EXPECT_EQ(memory.switches(), 0u);
  EXPECT_EQ(memory.current_protocol(), ProtocolKind::kWriteThrough);
  EXPECT_GT(memory.reclassify_ms(), 0.0);  // epochs did run and price
}

TEST(AdaptiveSharedMemory, ValuesSurviveSwitches) {
  AdaptiveSharedMemory::Options options;
  options.memory.protocol = ProtocolKind::kWriteThrough;
  options.memory.num_clients = 2;
  options.memory.num_objects = 1;
  options.epoch_ops = 64;
  options.candidates = {ProtocolKind::kWriteThrough,
                        ProtocolKind::kBerkeley};
  AdaptiveSharedMemory memory(options);
  std::uint64_t latest = 0;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const NodeId node = static_cast<NodeId>(rng.uniform_index(2));
    if (rng.bernoulli(0.5)) {
      memory.write(node, 0, ++latest);
    } else if (latest != 0) {
      ASSERT_EQ(memory.read(node, 0), latest) << "step " << i;
    }
  }
}

}  // namespace
}  // namespace drsm
