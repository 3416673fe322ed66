// Live migration under real concurrency, and the online self-tuning loop.
//
//  * forced migrations from client threads while traffic is in flight,
//    with check::ShardedOracle refereeing every serialized history across
//    the switches (including the ISSUE's thousand-seeded-runs bar);
//  * adaptive::OnlineController end to end: telemetry recorded from grant
//    handlers, decision passes pricing the hot set with the analytic
//    solver, migrations issued into the running DSM — deterministically
//    via poll(), and with the background thread under load (the TSan
//    stage runs this binary: ctest -L concurrency).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "adaptive/online.h"
#include "check/sharded_oracle.h"
#include "dsm/concurrent.h"
#include "protocols/protocol.h"
#include "support/rng.h"

namespace drsm {
namespace {

using check::OracleMode;
using check::ShardedOracle;
using dsm::ConcurrentSharedMemory;
using protocols::ProtocolKind;

TEST(ConcurrentMigration, StressWithForcedMigrationsStaysCoherent) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kObjects = 8;
  constexpr std::size_t kOpsPerClient = 20'000;
  constexpr std::size_t kMigrateEvery = 256;
  const ProtocolKind cycle[] = {
      ProtocolKind::kWriteThrough, ProtocolKind::kBerkeley,
      ProtocolKind::kDragon, ProtocolKind::kFirefly};

  ShardedOracle oracle(kShards, OracleMode::kSequential);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = kClients;
  options.num_objects = kObjects;
  options.num_shards = kShards;
  for (std::size_t s = 0; s < kShards; ++s)
    options.shard_taps.push_back(oracle.tap(s));
  ConcurrentSharedMemory memory(options);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& session = memory.session(static_cast<NodeId>(c));
      Rng rng(1000003 * (c + 1));
      std::size_t cycle_at = c;  // threads force different protocols
      for (std::size_t i = 1; i <= kOpsPerClient; ++i) {
        const ObjectId object =
            static_cast<ObjectId>(rng.uniform_index(kObjects));
        if (rng.bernoulli(0.4))
          session.write_unique(object);
        else
          session.read(object);
        if (i % kMigrateEvery == 0) {
          memory.migrate(object, cycle[cycle_at % std::size(cycle)]);
          ++cycle_at;
        }
      }
      session.drain();
    });
  }
  for (auto& t : clients) t.join();
  memory.stop();
  ASSERT_FALSE(memory.failed()) << memory.error();

  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
  const auto stats = memory.stats();
  EXPECT_EQ(stats.ops, kClients * kOpsPerClient);
  EXPECT_GT(stats.migrations, 0u);
}

TEST(ConcurrentMigration, ThousandSeededMigratingRunsAreClean) {
  // The ISSUE acceptance bar: >= 1000 seeded runs with forced migrations,
  // zero oracle violations.  Each run is small; both sessions are driven
  // from this thread (a session is confined to the thread that uses it,
  // and here that is the same one).
  constexpr std::size_t kRuns = 1000;
  const ProtocolKind cycle[] = {ProtocolKind::kWriteThrough,
                                ProtocolKind::kBerkeley,
                                ProtocolKind::kDragon};
  std::uint64_t total_migrations = 0;
  for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
    ShardedOracle oracle(2, OracleMode::kSequential);
    ConcurrentSharedMemory::Options options;
    options.protocol = cycle[seed % std::size(cycle)];
    options.num_clients = 2;
    options.num_objects = 4;
    options.num_shards = 2;
    options.shard_taps = {oracle.tap(0), oracle.tap(1)};
    ConcurrentSharedMemory memory(options);

    Rng rng(seed * 2654435761u + 17);
    for (std::size_t i = 1; i <= 128; ++i) {
      auto& session =
          memory.session(static_cast<NodeId>(rng.uniform_index(2)));
      const ObjectId object = static_cast<ObjectId>(rng.uniform_index(4));
      if (rng.bernoulli(0.5))
        session.write_unique(object);
      else
        session.read(object);
      if (i % 16 == 0)
        memory.migrate(object, cycle[rng.uniform_index(std::size(cycle))]);
    }
    memory.session(0).drain();
    memory.session(1).drain();
    memory.stop();
    ASSERT_FALSE(memory.failed())
        << "seed " << seed << ": " << memory.error();
    oracle.finish();
    ASSERT_TRUE(oracle.ok())
        << "seed " << seed << ": " << oracle.violations().front();
    total_migrations += memory.stats().migrations;
  }
  EXPECT_GT(total_migrations, kRuns);  // migrations actually executed
}

// ---------------------------------------------------------------------------
// OnlineController: telemetry -> pricing -> live migration.
// ---------------------------------------------------------------------------

// Wires a session's completions into the controller's telemetry ring, the
// way a real client would.
void wire(ConcurrentSharedMemory& memory, NodeId node,
          adaptive::OnlineController& controller) {
  memory.session(node).set_grant_handler(
      [&controller, node](const sim::ShardGrant& grant) {
        controller.record(node, grant.object, grant.op);
      });
}

TEST(OnlineController, PhaseChangeDrivesVerifiedMigrations) {
  // One hot object through two workload phases under the default cost
  // model (s=100, p=30):
  //   phase 1 — shared read-heavy: interleaved reads by both clients,
  //     sparse writes.  Invalidation would force a ~s refetch per reader
  //     per write; Dragon's ~p updates win.
  //   phase 2 — producer/consumer write runs: client 0 writes in long
  //     runs, client 1 reads rarely.  Updating the reader's copy on every
  //     write now loses to Berkeley's owner-local writes plus a rare ~s
  //     refetch.
  // The controller must follow the phase flip with exactly one migration
  // each — and not flap while a phase is stationary.
  ShardedOracle oracle(1, OracleMode::kSequential);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 2;
  options.num_objects = 4;
  options.num_shards = 1;
  options.shard_taps = {oracle.tap(0)};
  ConcurrentSharedMemory memory(options);

  adaptive::OnlineController::Options copts;
  copts.decide_every = 128;
  copts.hot_k = 4;
  copts.min_observations = 64;
  copts.hysteresis = 0.05;
  copts.cooldown_passes = 1;
  copts.window = 256;
  copts.candidates = {ProtocolKind::kBerkeley, ProtocolKind::kDragon};
  adaptive::OnlineController controller(memory, copts);
  wire(memory, 0, controller);
  wire(memory, 1, controller);

  auto& s0 = memory.session(0);
  auto& s1 = memory.session(1);
  // Operations run synchronously (issue + drain) so completions — and with
  // them the controller's telemetry records — interleave across nodes the
  // way the workload does, instead of batching per session.
  const auto run_phase1 = [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      if (i % 20 == 7) {
        s1.write_unique(0);
        s1.drain();
      } else if (i % 2 == 0) {
        s0.read_sync(0);
      } else {
        s1.read_sync(0);
      }
    }
  };

  run_phase1(512);
  controller.poll();
  EXPECT_EQ(controller.object_protocol(0), ProtocolKind::kDragon);
  EXPECT_EQ(controller.migrations(), 1u);

  // Stationary workload: the hysteresis band holds the incumbent.
  run_phase1(512);
  controller.poll();
  EXPECT_EQ(controller.object_protocol(0), ProtocolKind::kDragon);
  EXPECT_EQ(controller.migrations(), 1u) << "controller flapped";

  // Phase flip.
  for (std::size_t i = 0; i < 512; ++i) {
    if (i % 10 == 3) {
      s1.read_sync(0);
    } else {
      s0.write_unique(0);
      s0.drain();
    }
  }
  controller.poll();
  EXPECT_EQ(controller.object_protocol(0), ProtocolKind::kBerkeley);
  EXPECT_EQ(controller.migrations(), 2u);

  memory.stop();
  ASSERT_FALSE(memory.failed()) << memory.error();
  // The controller's view converged with the shard's ground truth.
  EXPECT_EQ(memory.object_protocol(0), controller.object_protocol(0));
  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
  EXPECT_GT(controller.records(), 0u);
  EXPECT_GE(controller.passes(), 3u);
  EXPECT_GT(controller.reclassify_ms(), 0.0);
}

TEST(OnlineController, CooldownSitsOutThePassAfterAMigration) {
  // One object whose mix flips every 128-op decision pass between a
  // shared-read phase (Dragon wins) and producer write runs (Berkeley
  // wins).  Each pass sees only the latest phase, so without a cooldown
  // the controller would chase every flip; cooldown_passes = 1 must make
  // the object sit out the pass right after each migration.
  ShardedOracle oracle(1, OracleMode::kSequential);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 2;
  options.num_objects = 1;
  options.num_shards = 1;
  options.shard_taps = {oracle.tap(0)};
  ConcurrentSharedMemory memory(options);

  adaptive::OnlineController::Options copts;
  copts.decide_every = 128;
  copts.hot_k = 1;
  copts.min_observations = 64;
  copts.hysteresis = 0.05;
  copts.cooldown_passes = 1;
  copts.window = 256;
  copts.candidates = {ProtocolKind::kBerkeley, ProtocolKind::kDragon};
  adaptive::OnlineController controller(memory, copts);
  wire(memory, 0, controller);
  wire(memory, 1, controller);

  auto& s0 = memory.session(0);
  auto& s1 = memory.session(1);
  const auto shared_reads = [&] {
    for (std::size_t i = 0; i < 128; ++i) {
      if (i % 20 == 7) {
        s1.write_unique(0);
        s1.drain();
      } else {
        (i % 2 == 0 ? s0 : s1).read_sync(0);
      }
    }
  };
  const auto write_runs = [&] {
    for (std::size_t i = 0; i < 128; ++i) {
      if (i % 10 == 3) {
        s1.read_sync(0);
      } else {
        s0.write_unique(0);
        s0.drain();
      }
    }
  };

  bool migrated_last_pass = false;
  for (std::uint64_t pass = 1; pass <= 10; ++pass) {
    const std::uint64_t migrations = controller.migrations();
    if (pass % 2 == 1)
      shared_reads();
    else
      write_runs();
    controller.poll();
    ASSERT_EQ(controller.passes(), pass);
    const bool migrated = controller.migrations() > migrations;
    EXPECT_FALSE(migrated && migrated_last_pass)
        << "pass " << pass << " migrated during its cooldown";
    migrated_last_pass = migrated;
  }
  EXPECT_GE(controller.migrations(), 2u);

  memory.stop();
  ASSERT_FALSE(memory.failed()) << memory.error();
  EXPECT_EQ(memory.object_protocol(0), controller.object_protocol(0));
  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
}

TEST(OnlineController, BackgroundThreadUnderConcurrentLoad) {
  // The controller thread races four real client threads: records stream
  // through the ring, decisions run concurrently with traffic, and every
  // migration lands in a live shard — the oracle referees throughout.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kOpsPerClient = 10'000;

  ShardedOracle oracle(2, OracleMode::kSequential);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = kClients;
  options.num_objects = 8;
  options.num_shards = 2;
  options.shard_taps = {oracle.tap(0), oracle.tap(1)};
  ConcurrentSharedMemory memory(options);

  adaptive::OnlineController::Options copts;
  copts.decide_every = 512;
  copts.min_observations = 128;
  adaptive::OnlineController controller(memory, copts);
  for (std::size_t c = 0; c < kClients; ++c)
    wire(memory, static_cast<NodeId>(c), controller);
  controller.start();

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& session = memory.session(static_cast<NodeId>(c));
      Rng rng(0xC0FFEE + c);
      for (std::size_t i = 1; i <= kOpsPerClient; ++i) {
        const ObjectId object = static_cast<ObjectId>(rng.uniform_index(8));
        // Zipf-ish hotspot that migrates between thread-dependent homes.
        const ObjectId hot = static_cast<ObjectId>((i / 2500) % 8);
        const ObjectId target = rng.bernoulli(0.6) ? hot : object;
        if (rng.bernoulli(c == 0 ? 0.7 : 0.1))
          session.write_unique(target);
        else
          session.read(target);
      }
      session.drain();
    });
  }
  for (auto& t : clients) t.join();
  controller.stop();
  memory.stop();
  ASSERT_FALSE(memory.failed()) << memory.error();

  oracle.finish();
  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
  EXPECT_GT(controller.records(), 0u);
  EXPECT_GT(controller.passes(), 0u);
  // Records either landed in telemetry or were counted as dropped.
  EXPECT_EQ(controller.records() + controller.dropped(),
            kClients * kOpsPerClient);
}

}  // namespace
}  // namespace drsm
