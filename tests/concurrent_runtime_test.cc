// dsm::ConcurrentSharedMemory under the coherence oracle's referee.
//
// Every workload here runs with real client threads against the sharded
// sequencers while check::ShardedOracle observes each shard live in its
// strict kSequential mode; a run only passes if the oracle is clean and
// the bookkeeping (issued == completed, shard op counts, versions) is
// exact.  Runs under TSan via the `concurrency` ctest label.
#include "dsm/concurrent.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "check/sharded_oracle.h"
#include "dsm/dsm.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/trajectory.h"

namespace drsm::dsm {
namespace {

using protocols::ProtocolKind;

struct RunResult {
  std::uint64_t ops = 0;
  bool oracle_ok = false;
  std::vector<std::string> violations;
};

/// One client thread's workload: seeded mixed ops, eject/sync only where
/// the protocol implements them, unique write values for the oracle.
void client_main(ConcurrentSharedMemory& mem, NodeId node,
                 std::uint64_t seed, std::size_t ops) {
  ConcurrentSharedMemory::Session& session = mem.session(node);
  Rng rng(seed);
  const ProtocolKind kind = mem.options().protocol;
  const std::size_t objects = mem.options().num_objects;
  const bool can_eject = protocols::supports(kind, fsm::OpKind::kEject);
  const bool can_sync = protocols::supports(kind, fsm::OpKind::kSync);
  for (std::size_t i = 0; i < ops; ++i) {
    const ObjectId object = static_cast<ObjectId>(rng.uniform_index(objects));
    const double dice = rng.uniform();
    if (dice < 0.55) {
      session.read(object);
    } else if (dice < 0.90 || (!can_eject && !can_sync)) {
      session.write_unique(object);
    } else if (dice < 0.95 && can_eject) {
      session.eject(object);
    } else if (can_sync) {
      session.sync(object);
    } else {
      session.read(object);
    }
  }
  session.drain();
}

RunResult run_workload(ProtocolKind kind, std::size_t clients,
                       std::size_t shards, std::size_t objects,
                       std::size_t ops_per_client, std::uint64_t seed,
                       std::size_t max_inflight = 64) {
  check::ShardedOracle oracle(shards);
  ConcurrentSharedMemory::Options options;
  options.protocol = kind;
  options.num_clients = clients;
  options.num_objects = objects;
  options.num_shards = shards;
  options.max_inflight = max_inflight;
  options.ring_capacity = 256;
  for (std::size_t s = 0; s < shards; ++s)
    options.shard_taps.push_back(oracle.tap(s));

  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), seed + c, ops_per_client);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  oracle.finish();

  RunResult result;
  result.ops = mem.stats().ops;
  result.oracle_ok = oracle.ok();
  result.violations = oracle.violations();
  EXPECT_EQ(result.ops, clients * ops_per_client);
  for (std::size_t c = 0; c < clients; ++c) {
    EXPECT_EQ(mem.session(static_cast<NodeId>(c)).in_flight(), 0u);
    EXPECT_EQ(mem.session(static_cast<NodeId>(c)).issued(),
              mem.session(static_cast<NodeId>(c)).completed());
  }
  return result;
}

class AllProtocolsConcurrent : public ::testing::TestWithParam<ProtocolKind> {
};

INSTANTIATE_TEST_SUITE_P(AllProtocols, AllProtocolsConcurrent,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST_P(AllProtocolsConcurrent, OracleRefereesMixedWorkload) {
  const RunResult r =
      run_workload(GetParam(), /*clients=*/4, /*shards=*/4, /*objects=*/16,
                   /*ops_per_client=*/4000, /*seed=*/0xc0ffee);
  EXPECT_TRUE(r.oracle_ok);
  for (const std::string& v : r.violations) ADD_FAILURE() << v;
}

TEST_P(AllProtocolsConcurrent, SingleShardMatchesManyShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const RunResult r =
        run_workload(GetParam(), /*clients=*/3, shards, /*objects=*/9,
                     /*ops_per_client=*/2000, /*seed=*/42);
    EXPECT_TRUE(r.oracle_ok) << shards << " shards";
    for (const std::string& v : r.violations) ADD_FAILURE() << v;
  }
}

// A tiny window plus a minimum-size request ring forces both backpressure
// paths (window park + submit retry) without losing or reordering ops.
TEST(ConcurrentRuntimeTest, BackpressureWithTinyWindowAndRing) {
  check::ShardedOracle oracle(2);
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteOnce;
  options.num_clients = 4;
  options.num_objects = 8;
  options.num_shards = 2;
  options.max_inflight = 2;
  options.ring_capacity = 4;
  options.max_batch = 2;
  options.shard_taps = {oracle.tap(0), oracle.tap(1)};
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 4; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), 7 + c, 3000);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  oracle.finish();
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(mem.stats().ops, 4u * 3000u);
}

// Per-session-per-object reads must observe non-decreasing versions: the
// session's requests traverse one ring in program order and the shard
// serializes per object.
TEST(ConcurrentRuntimeTest, SessionObservesMonotoneVersionsPerObject) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThroughV;
  options.num_clients = 3;
  options.num_objects = 6;
  options.num_shards = 3;
  options.max_inflight = 32;
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 3; ++c) {
      threads.emplace_back([&mem, c] {
        auto& session = mem.session(static_cast<NodeId>(c));
        std::vector<std::uint64_t> last_version(6, 0);
        session.set_grant_handler([&](const sim::ShardGrant& g) {
          if (g.op != fsm::OpKind::kRead) return;
          EXPECT_GE(g.version, last_version[g.object]);
          last_version[g.object] = g.version;
        });
        Rng rng(0xfeedu + c);
        for (int i = 0; i < 5000; ++i) {
          const ObjectId object =
              static_cast<ObjectId>(rng.uniform_index(6));
          if (rng.uniform() < 0.5)
            session.read(object);
          else
            session.write_unique(object);
        }
        session.drain();
      });
    }
    for (auto& t : threads) t.join();
  }
  mem.stop();
}

// sync() as a fence: a session that wrote, synced, and reads back with no
// other writers on that object must see its own last write.
TEST(ConcurrentRuntimeTest, SyncFencesOwnWrites) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    if (!protocols::supports(kind, fsm::OpKind::kSync)) continue;
    ConcurrentSharedMemory::Options options;
    options.protocol = kind;
    options.num_clients = 3;
    options.num_objects = 3;  // object c is owned by writer c
    options.num_shards = 3;
    ConcurrentSharedMemory mem(options);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < 3; ++c) {
        threads.emplace_back([&mem, c] {
          auto& session = mem.session(static_cast<NodeId>(c));
          const ObjectId own = static_cast<ObjectId>(c);
          std::uint64_t last_written = 0;
          std::uint64_t own_read_value = 0;
          // Cross-reads on other writers' objects complete out of order
          // with the own-object read (different shards), so the fence
          // check keys on the grant's object id.
          session.set_grant_handler([&](const sim::ShardGrant& g) {
            if (g.op == fsm::OpKind::kRead && g.object == own)
              own_read_value = g.value;
          });
          for (int round = 0; round < 200; ++round) {
            for (int burst = 0; burst < 8; ++burst) {
              last_written = 1000 * (c + 1) + round * 8 + burst;
              session.write(own, last_written);
            }
            session.sync(own);
            session.read(own);
            session.drain();
            EXPECT_EQ(own_read_value, last_written);
            session.read(static_cast<ObjectId>((c + 1) % 3));
          }
          session.drain();
        });
      }
      for (auto& t : threads) t.join();
    }
    mem.stop();
  }
}

// Eject under contention: all clients hammer a single hot object per shard
// with read/write/eject; invalidate protocols must stay coherent.
TEST(ConcurrentRuntimeTest, EjectUnderContention) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    if (!protocols::supports(kind, fsm::OpKind::kEject)) continue;
    check::ShardedOracle oracle(2);
    ConcurrentSharedMemory::Options options;
    options.protocol = kind;
    options.num_clients = 4;
    options.num_objects = 2;  // one hot object per shard
    options.num_shards = 2;
    options.max_inflight = 16;
    options.shard_taps = {oracle.tap(0), oracle.tap(1)};
    ConcurrentSharedMemory mem(options);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < 4; ++c) {
        threads.emplace_back([&mem, c] {
          auto& session = mem.session(static_cast<NodeId>(c));
          Rng rng(0xe1ec7u + c);
          for (int i = 0; i < 3000; ++i) {
            const ObjectId object =
                static_cast<ObjectId>(rng.uniform_index(2));
            const double dice = rng.uniform();
            if (dice < 0.4)
              session.read(object);
            else if (dice < 0.8)
              session.write_unique(object);
            else
              session.eject(object);
          }
          session.drain();
        });
      }
      for (auto& t : threads) t.join();
    }
    mem.stop();
    oracle.finish();
    EXPECT_TRUE(oracle.ok()) << protocols::to_string(kind);
    for (const std::string& v : oracle.violations()) ADD_FAILURE() << v;
  }
}

// With one session and one shard the grant stream is deterministic, so its
// trajectory hash is repeatable — and the per-op read values and total
// cost must match the strictly sequential dsm::SharedMemory executing the
// same program.
TEST(ConcurrentRuntimeTest, SingleSessionMatchesSequentialSharedMemory) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    std::uint64_t hashes[2];
    for (int rep = 0; rep < 2; ++rep) {
      SharedMemory::Options seq_options;
      seq_options.protocol = kind;
      seq_options.num_clients = 2;
      seq_options.num_objects = 4;
      SharedMemory reference(seq_options);

      ConcurrentSharedMemory::Options options;
      options.protocol = kind;
      options.num_clients = 2;
      options.num_objects = 4;
      options.num_shards = 1;
      ConcurrentSharedMemory mem(options);
      auto& session = mem.session(0);

      TrajectoryHash trajectory;
      std::vector<sim::ShardGrant> grants;
      session.set_grant_handler([&](const sim::ShardGrant& g) {
        grants.push_back(g);
        trajectory.mix_grant(g.object, static_cast<std::uint64_t>(g.op),
                             g.value, g.version,
                             static_cast<std::uint64_t>(g.cost * 1024.0));
      });

      Rng rng(0xdecaf);
      std::vector<std::pair<bool, std::uint64_t>> program;  // (is_read, arg)
      for (int i = 0; i < 1500; ++i) {
        const ObjectId object = static_cast<ObjectId>(rng.uniform_index(4));
        const bool is_read = rng.uniform() < 0.5;
        program.emplace_back(is_read, object);
        if (is_read)
          session.read(object);
        else
          session.write(object, 0x100000 + i);
      }
      session.drain();
      mem.stop();

      ASSERT_EQ(grants.size(), program.size());
      Cost reference_cost = 0.0;
      for (std::size_t i = 0; i < program.size(); ++i) {
        const auto [is_read, object] = program[i];
        if (is_read) {
          const std::uint64_t expected =
              reference.read(0, static_cast<ObjectId>(object));
          EXPECT_EQ(grants[i].value, expected) << "op " << i;
        } else {
          reference.write(0, static_cast<ObjectId>(object),
                          grants[i].value);
        }
        reference_cost += reference.last_op_cost();
      }
      EXPECT_DOUBLE_EQ(mem.stats().cost, reference_cost);
      hashes[rep] = trajectory.hash;
    }
    EXPECT_EQ(hashes[0], hashes[1]) << protocols::to_string(kind);
  }
}

TEST(ConcurrentRuntimeTest, PublishesRuntimeMetrics) {
  obs::MetricsRegistry metrics;
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kBerkeley;
  options.num_clients = 2;
  options.num_objects = 4;
  options.num_shards = 2;
  options.metrics = &metrics;
  ConcurrentSharedMemory mem(options);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c)
      threads.emplace_back(client_main, std::ref(mem),
                           static_cast<NodeId>(c), 5 + c, 2000);
    for (auto& t : threads) t.join();
  }
  mem.stop();
  ASSERT_NE(metrics.find_counter("runtime.ops"), nullptr);
  EXPECT_EQ(metrics.find_counter("runtime.ops")->value(), 4000u);
  ASSERT_NE(metrics.find_gauge("runtime.ops_per_sec"), nullptr);
  EXPECT_GT(metrics.find_gauge("runtime.ops_per_sec")->value(), 0.0);
  ASSERT_NE(metrics.find_gauge("runtime.shards"), nullptr);
  EXPECT_EQ(metrics.find_gauge("runtime.shards")->value(), 2.0);
  // One counter per shard; together they cover every operation.
  ASSERT_NE(metrics.find_counter("runtime.shard_ops.0"), nullptr);
  ASSERT_NE(metrics.find_counter("runtime.shard_ops.1"), nullptr);
  EXPECT_EQ(metrics.find_counter("runtime.shard_ops.2"), nullptr);
  EXPECT_EQ(metrics.find_counter("runtime.shard_ops.0")->value() +
                metrics.find_counter("runtime.shard_ops.1")->value(),
            4000u);
  const obs::Quantile* latency = metrics.find_quantile("runtime.latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), mem.stats().latency_ns.count());
}

TEST(ConcurrentRuntimeTest, StoppedRuntimeRejectsSubmitAndMigrate) {
  // No shard grants after stop(): a submit would hand out a ticket that
  // drain() waits on forever, and migrations would fill the dead ring.
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kWriteThrough;
  options.num_clients = 1;
  options.num_objects = 2;
  options.num_shards = 1;
  ConcurrentSharedMemory mem(options);
  ConcurrentSharedMemory::Session& session = mem.session(0);
  session.write(0, 7);
  EXPECT_EQ(session.read_sync(0), 7u);
  mem.stop();
  EXPECT_THROW(session.read(0), Error);
  EXPECT_THROW(session.write(1, 1), Error);
  EXPECT_THROW(session.sync(0), Error);
  EXPECT_THROW(mem.migrate(0, ProtocolKind::kWriteThroughV), Error);
  // A ticket handed out here would make drain() block forever.
  ASSERT_EQ(session.in_flight(), 0u);
  session.drain();
  EXPECT_EQ(mem.stats().ops, 2u);
  EXPECT_EQ(mem.stats().migrations, 0u);
}

TEST(ConcurrentRuntimeTest, RejectsUnsupportedOps) {
  ConcurrentSharedMemory::Options options;
  options.protocol = ProtocolKind::kDragon;  // update protocol: no eject
  options.num_clients = 1;
  options.num_objects = 1;
  options.num_shards = 1;
  ConcurrentSharedMemory mem(options);
  EXPECT_THROW(mem.session(0).eject(0), Error);
  mem.session(0).drain();
  mem.stop();
}

}  // namespace
}  // namespace drsm::dsm
