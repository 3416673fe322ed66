// Tests for the application-facing SharedMemory API.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytic/closed_form.h"
#include "dsm/dsm.h"
#include "support/rng.h"

namespace drsm {
namespace {

using dsm::SharedMemory;
using protocols::ProtocolKind;

SharedMemory::Options make_options(ProtocolKind kind,
                                   std::size_t objects = 4) {
  SharedMemory::Options options;
  options.protocol = kind;
  options.num_clients = 3;
  options.num_objects = objects;
  options.costs.s = 100.0;
  options.costs.p = 30.0;
  return options;
}

TEST(SharedMemory, ReadsSeeWrites) {
  SharedMemory memory(make_options(ProtocolKind::kWriteThrough));
  memory.write(0, 2, 42);
  EXPECT_EQ(memory.read(1, 2), 42u);
  EXPECT_EQ(memory.read(3, 2), 42u);  // the sequencer node
  memory.write(3, 2, 7);
  EXPECT_EQ(memory.read(0, 2), 7u);
}

TEST(SharedMemory, ObjectsAreIndependent) {
  SharedMemory memory(make_options(ProtocolKind::kBerkeley));
  memory.write(0, 0, 11);
  memory.write(1, 1, 22);
  EXPECT_EQ(memory.read(2, 0), 11u);
  EXPECT_EQ(memory.read(2, 1), 22u);
}

TEST(SharedMemory, CostAccountingMatchesTraceCosts) {
  SharedMemory memory(make_options(ProtocolKind::kWriteThrough, 1));
  memory.reset_counters();
  memory.write(0, 0, 1);  // P+N = 33
  EXPECT_DOUBLE_EQ(memory.last_op_cost(), 33.0);
  memory.read(0, 0);  // miss after own write: S+2
  EXPECT_DOUBLE_EQ(memory.last_op_cost(), 102.0);
  memory.read(0, 0);  // hit
  EXPECT_DOUBLE_EQ(memory.last_op_cost(), 0.0);
  EXPECT_DOUBLE_EQ(memory.total_cost(), 135.0);
  EXPECT_EQ(memory.total_ops(), 3u);
  EXPECT_NEAR(memory.average_cost(), 45.0, 1e-12);
  EXPECT_DOUBLE_EQ(memory.object_cost(0), 135.0);
}

TEST(SharedMemory, EjectAndSync) {
  SharedMemory memory(make_options(ProtocolKind::kWriteThroughV, 1));
  memory.write(0, 0, 5);
  EXPECT_STREQ(memory.state_name(0, 0), "VALID");
  memory.eject(0, 0);
  EXPECT_STREQ(memory.state_name(0, 0), "INVALID");
  EXPECT_EQ(memory.read(0, 0), 5u);
  memory.sync(1, 0);
  EXPECT_DOUBLE_EQ(memory.last_op_cost(), 2.0);
  // Extensions are rejected at nodes/protocols that lack them.
  EXPECT_THROW(memory.eject(3, 0), Error);
  memory.switch_protocol(ProtocolKind::kDragon);
  EXPECT_THROW(memory.eject(0, 0), Error);
}

TEST(SharedMemory, SwitchProtocolPreservesValues) {
  SharedMemory memory(make_options(ProtocolKind::kWriteThrough));
  memory.write(0, 1, 1001);
  memory.write(1, 3, 1003);
  memory.reset_counters();
  memory.switch_protocol(ProtocolKind::kBerkeley);
  EXPECT_EQ(memory.protocol(), ProtocolKind::kBerkeley);
  // The migration itself is free; values survive.
  EXPECT_DOUBLE_EQ(memory.total_cost(), 0.0);
  EXPECT_EQ(memory.read(2, 1), 1001u);
  EXPECT_EQ(memory.read(0, 3), 1003u);
}

TEST(SharedMemory, EveryOrderedSwitchKeepsValuesAndIsFree) {
  // All 64 (from, to) pairs, switching one object or the whole memory.
  // Clients and the home node write every object before the switch; the
  // last writer rotates across objects.
  constexpr std::size_t kObjects = 4;
  constexpr NodeId kHome = 3;
  for (ProtocolKind from : protocols::kAllProtocols) {
    for (ProtocolKind to : protocols::kAllProtocols) {
      for (const bool whole_memory : {false, true}) {
        SCOPED_TRACE(std::string(protocols::to_string(from)) + " -> " +
                     protocols::to_string(to) +
                     (whole_memory ? ", whole memory" : ", object 1"));
        SharedMemory memory(make_options(from, kObjects));
        std::uint64_t value = 0;
        std::vector<std::uint64_t> latest(kObjects);
        for (ObjectId j = 0; j < kObjects; ++j) {
          for (NodeId k = 0; k <= kHome; ++k) {
            latest[j] = ++value;
            memory.write(static_cast<NodeId>((j + k) % (kHome + 1)), j,
                         latest[j]);
          }
          memory.read(static_cast<NodeId>(j % kHome), j);
        }
        std::vector<std::string> states;
        for (ObjectId j = 0; j < kObjects; ++j)
          for (NodeId node = 0; node <= kHome; ++node)
            states.push_back(memory.state_name(node, j));

        const Cost before = memory.total_cost();
        if (whole_memory)
          memory.switch_protocol(to);
        else
          memory.switch_protocol(1, to);
        EXPECT_DOUBLE_EQ(memory.total_cost(), before);

        for (ObjectId j = 0; j < kObjects; ++j)
          EXPECT_EQ(memory.object_protocol(j),
                    whole_memory || j == 1 ? to : from)
              << "object " << j;
        if (from == to) {
          std::size_t i = 0;
          for (ObjectId j = 0; j < kObjects; ++j)
            for (NodeId node = 0; node <= kHome; ++node)
              EXPECT_EQ(memory.state_name(node, j), states[i++])
                  << "node " << node << ", object " << j;
        }
        for (ObjectId j = 0; j < kObjects; ++j)
          for (NodeId node = 0; node <= kHome; ++node)
            EXPECT_EQ(memory.read(node, j), latest[j])
                << "node " << node << ", object " << j;
      }
    }
  }
}

TEST(SharedMemory, RandomizedCrossProtocolConsistency) {
  // The same operation sequence must yield the same read values under every
  // protocol (sequential consistency of the atomic runtime).
  const auto run = [](ProtocolKind kind) {
    SharedMemory memory(make_options(kind, 3));
    Rng rng(2024);
    std::vector<std::uint64_t> reads;
    std::uint64_t value = 0;
    for (int i = 0; i < 2000; ++i) {
      const NodeId node = static_cast<NodeId>(rng.uniform_index(4));
      const ObjectId object = static_cast<ObjectId>(rng.uniform_index(3));
      if (rng.bernoulli(0.4)) {
        memory.write(node, object, ++value);
      } else {
        reads.push_back(memory.read(node, object));
      }
    }
    return reads;
  };
  const auto reference = run(ProtocolKind::kWriteThrough);
  for (ProtocolKind kind : protocols::kAllProtocols)
    EXPECT_EQ(run(kind), reference) << protocols::to_string(kind);
}

TEST(SharedMemory, RejectsOutOfRangeIndices) {
  SharedMemory memory(make_options(ProtocolKind::kWriteThrough));
  EXPECT_THROW(memory.read(9, 0), Error);
  EXPECT_THROW(memory.write(0, 9, 1), Error);
}

}  // namespace
}  // namespace drsm
