// Tests for trace persistence.
#include <gtest/gtest.h>

#include <sstream>

#include "support/rng.h"

#include "workload/trace_io.h"

namespace drsm::workload {
namespace {

using fsm::OpKind;

TEST(TraceIo, RoundTrips) {
  GlobalSequenceGenerator gen(read_disturbance(0.3, 0.1, 2), 5, 3);
  const OperationTrace original = gen.record(500, 3);

  std::stringstream buffer;
  save_trace(buffer, original);
  const OperationTrace loaded = load_trace(buffer);

  ASSERT_EQ(loaded.num_clients, original.num_clients);
  ASSERT_EQ(loaded.num_objects, original.num_objects);
  ASSERT_EQ(loaded.entries.size(), original.entries.size());
  for (std::size_t i = 0; i < loaded.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].node, original.entries[i].node);
    EXPECT_EQ(loaded.entries[i].object, original.entries[i].object);
    EXPECT_EQ(loaded.entries[i].op, original.entries[i].op);
  }
}

TEST(TraceIo, AllOpKindsSurvive) {
  OperationTrace trace;
  trace.num_clients = 2;
  trace.num_objects = 1;
  trace.entries = {{0, 0, OpKind::kRead},
                   {1, 0, OpKind::kWrite},
                   {0, 0, OpKind::kEject},
                   {1, 0, OpKind::kSync}};
  std::stringstream buffer;
  save_trace(buffer, trace);
  const OperationTrace loaded = load_trace(buffer);
  ASSERT_EQ(loaded.entries.size(), 4u);
  EXPECT_EQ(loaded.entries[2].op, OpKind::kEject);
  EXPECT_EQ(loaded.entries[3].op, OpKind::kSync);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::stringstream in(
      "drsm-trace v1\n"
      "clients 2\n"
      "objects 1\n"
      "# a comment\n"
      "\n"
      "0 0 w\n");
  const OperationTrace trace = load_trace(in);
  ASSERT_EQ(trace.entries.size(), 1u);
  EXPECT_EQ(trace.entries[0].op, OpKind::kWrite);
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::stringstream in("not-a-trace\n");
    EXPECT_THROW(load_trace(in), Error);
  }
  {
    std::stringstream in("drsm-trace v1\n0 0 w\n");  // missing preamble
    EXPECT_THROW(load_trace(in), Error);
  }
  {
    std::stringstream in(
        "drsm-trace v1\nclients 2\nobjects 1\n0 0 x\n");  // bad op code
    EXPECT_THROW(load_trace(in), Error);
  }
  {
    std::stringstream in(
        "drsm-trace v1\nclients 2\nobjects 1\n9 0 w\n");  // bad node
    EXPECT_THROW(load_trace(in), Error);
  }
  // Counts and ids are whole unsigned decimal tokens that fit NodeId /
  // ObjectId: a stream extractor would wrap "-1" to the type's maximum and
  // stop "3x" at the 3.
  for (const char* text : {
           "drsm-trace v1\nclients -1\nobjects 1\n",
           "drsm-trace v1\nclients 3x\nobjects 1\n",
           "drsm-trace v1\nclients 2\nobjects -1\n",
           "drsm-trace v1\nclients 2\nobjects 1 1\n",
           "drsm-trace v1\nclients 4294967296\nobjects 1\n",
           "drsm-trace v1\nclients 4294967295\nobjects 1\n-1 0 w\n",
           "drsm-trace v1\nclients 2\nobjects 4294967295\n0 -1 r\n",
           "drsm-trace v1\nclients 2\nobjects 1\n+1 0 w\n",
           "drsm-trace v1\nclients 2\nobjects 1\n0 0 wr\n",
           "drsm-trace v1\nclients 2\nobjects 1\n0 0 w 1\n",
       }) {
    std::stringstream in(text);
    EXPECT_THROW(load_trace(in), Error) << text;
  }
  EXPECT_THROW(load_trace_file("/nonexistent/trace.txt"), Error);
}

TEST(TraceIo, FuzzedInputNeverCrashes) {
  // Random garbage must either parse or throw drsm::Error — never crash
  // or loop.
  Rng rng(404);
  const std::string charset =
      "drsm-trace v1\nclients objects 0123456789 rwes#\t ";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    const std::size_t len = rng.uniform_index(200);
    for (std::size_t i = 0; i < len; ++i)
      payload += charset[rng.uniform_index(charset.size())];
    std::stringstream in(payload);
    try {
      const OperationTrace trace = load_trace(in);
      for (const auto& e : trace.entries) {
        EXPECT_LE(e.node, trace.num_clients);
        EXPECT_LT(e.object, trace.num_objects);
      }
    } catch (const Error&) {
      // expected for malformed inputs
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  GlobalSequenceGenerator gen(ideal_workload(0.5), 7);
  const OperationTrace original = gen.record(100, 2);
  const std::string path = "/tmp/drsm_trace_io_test.txt";
  save_trace_file(path, original);
  const OperationTrace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.entries.size(), original.entries.size());
}

}  // namespace
}  // namespace drsm::workload
