// Tests for the observability layer: JSON emission, metrics instruments,
// the trace recorder ring buffer, the Chrome-trace exporter, and the
// zero-overhead (null sink) guarantee of the instrumented runtimes.
#include <cmath>
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_sim.h"
#include "sim/sequential.h"
#include "support/error.h"
#include "workload/generator.h"

namespace drsm {
namespace {

// -- tiny JSON well-formedness validator ------------------------------------
// Independent of obs::parse_json, so emission tests do not lean on the
// parser they would share a bug with: a recursive-descent checker that
// accepts exactly the JSON grammar. Returns the position after the value,
// or npos on error.

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r'))
    ++i;
  return i;
}

std::size_t check_value(const std::string& s, std::size_t i);

std::size_t check_string(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  ++i;
  while (i < s.size() && s[i] != '"') {
    if (static_cast<unsigned char>(s[i]) < 0x20) return std::string::npos;
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) return std::string::npos;
      const char c = s[i];
      if (c == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++i;
          if (i >= s.size() || !std::isxdigit(static_cast<unsigned char>(s[i])))
            return std::string::npos;
        }
      } else if (c != '"' && c != '\\' && c != '/' && c != 'b' && c != 'f' &&
                 c != 'n' && c != 'r' && c != 't') {
        return std::string::npos;
      }
    }
    ++i;
  }
  return i < s.size() ? i + 1 : std::string::npos;
}

std::size_t check_number(const std::string& s, std::size_t i) {
  const std::size_t start = i;
  if (i < s.size() && s[i] == '-') ++i;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  }
  return i > start ? i : std::string::npos;
}

std::size_t check_value(const std::string& s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) return std::string::npos;
  const char c = s[i];
  if (c == '"') return check_string(s, i);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == close) return i + 1;
    for (;;) {
      if (c == '{') {
        i = check_string(s, skip_ws(s, i));
        if (i == std::string::npos) return std::string::npos;
        i = skip_ws(s, i);
        if (i >= s.size() || s[i] != ':') return std::string::npos;
        ++i;
      }
      i = check_value(s, i);
      if (i == std::string::npos) return std::string::npos;
      i = skip_ws(s, i);
      if (i >= s.size()) return std::string::npos;
      if (s[i] == close) return i + 1;
      if (s[i] != ',') return std::string::npos;
      ++i;
    }
  }
  if (s.compare(i, 4, "true") == 0) return i + 4;
  if (s.compare(i, 5, "false") == 0) return i + 5;
  if (s.compare(i, 4, "null") == 0) return i + 4;
  return check_number(s, i);
}

bool valid_json(const std::string& s) {
  const std::size_t end = check_value(s, 0);
  return end != std::string::npos && skip_ws(s, end) == s.size();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// -- JSON emission ----------------------------------------------------------

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumbersRoundTripAndStayShort) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(0.1), "0.1");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  // Non-finite values have no JSON form.
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  // A value needing full precision still round-trips.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(obs::json_number(v).c_str(), nullptr), v);
}

TEST(Json, ValueTreePreservesInsertionOrder) {
  obs::JsonValue v = obs::JsonValue::object();
  v["zebra"] = 1;
  v["apple"] = obs::JsonValue::array();
  v["apple"].push_back("x");
  v["apple"].push_back(true);
  const std::string text = v.dump();
  EXPECT_EQ(text, "{\"zebra\":1,\"apple\":[\"x\",true]}");
  EXPECT_TRUE(valid_json(text));
  EXPECT_TRUE(valid_json(v.dump(2)));
}

TEST(Json, MutationOfWrongKindThrows) {
  obs::JsonValue v = obs::JsonValue::array();
  EXPECT_THROW(v["key"], Error);
  obs::JsonValue o = obs::JsonValue::object();
  EXPECT_THROW(o.push_back(1), Error);
}

// -- JSON parsing -----------------------------------------------------------

TEST(JsonParse, ReportShapedValueRoundTrips) {
  // The shape drsm_bench_diff reads: a bench name, a results array of
  // rows with acc fields and strings, nested objects, bools and nulls.
  const std::string note = "tab\t \"quoted\" \u00e9 \x01";
  obs::JsonValue row = obs::JsonValue::object();
  row["configuration"] = "online";
  row["acc"] = 22.838912345678901;
  row["switches"] = 3;
  row["note"] = note;
  obs::JsonValue report = obs::JsonValue::object();
  report["bench"] = "adaptive";
  report["results"] = obs::JsonValue::array();
  report["results"].push_back(std::move(row));
  report["results"].push_back(obs::JsonValue());
  report["phases"]["online"]["wall_ms"] = 12.5;
  report["online_within_oracle_10pct"] = true;
  for (const int indent : {0, 2}) {
    const std::string text = report.dump(indent);
    EXPECT_EQ(obs::parse_json(text).dump(indent), text);
  }
  const obs::JsonValue parsed = obs::parse_json(report.dump(2));
  const obs::JsonValue& first = parsed.find("results")->at(0);
  EXPECT_EQ(first.find("acc")->as_number(), 22.838912345678901);
  EXPECT_EQ(first.find("note")->as_string(), note);
  EXPECT_TRUE(parsed.find("results")->at(1).is_null());
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_NO_THROW(
      obs::parse_json(std::string(200, '[') + std::string(200, ']')));
  try {
    obs::parse_json(std::string(100'000, '['));
    FAIL() << "100000 nested arrays parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("JSON parse error at byte 256"),
              std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW(obs::parse_json(objects), Error);
}

TEST(JsonParse, MalformedInputRaisesError) {
  const char* const malformed[] = {
      "\"unterminated",  // unterminated string
      "[\"ab\\u12",      // truncated \u escape at end of input
      "\"\\u12\"",       // \u escape cut short by the closing quote
      "tru",             // bad literals
      "[nul]",
      "{\"ok\": fals}",
      "{} x",            // trailing characters
      "[1, 2]]",
  };
  for (const char* text : malformed)
    EXPECT_THROW(obs::parse_json(text), Error) << text;
}

// -- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, LookupCreatesOnceAndKeepsReferencesStable) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("a.count");
  c.inc();
  // Force registry growth, then check the original reference still works.
  for (int i = 0; i < 50; ++i)
    registry.gauge("g" + std::to_string(i)).set(i);
  c.inc(2);
  EXPECT_EQ(registry.counter("a.count").value(), 3u);
  EXPECT_EQ(&registry.counter("a.count"), &c);
  EXPECT_EQ(registry.size(), 51u);
}

TEST(MetricsRegistry, KindMismatchThrowsAndFindReturnsNull) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.quantile("x"), Error);
  EXPECT_NE(registry.find_counter("x"), nullptr);
  EXPECT_EQ(registry.find_gauge("x"), nullptr);
  EXPECT_EQ(registry.find_quantile("x"), nullptr);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
}

TEST(MetricsRegistry, MergeAccumulatesEveryInstrumentKind) {
  obs::MetricsRegistry a;
  a.counter("ops").inc(5);
  a.gauge("depth").set(2.0);
  a.quantile("lat").record(0.5);

  obs::MetricsRegistry b;
  b.counter("ops").inc(3);
  b.counter("only_b").inc(1);
  b.gauge("depth").set(7.0);
  b.quantile("lat").record(5.0);
  b.quantile("only_b_lat").record(3.0);

  a.merge(b);
  EXPECT_EQ(a.counter("ops").value(), 8u);       // counters add
  EXPECT_EQ(a.counter("only_b").value(), 1u);    // absent names created
  EXPECT_DOUBLE_EQ(a.gauge("depth").value(), 7.0);  // gauges take other's
  EXPECT_EQ(a.quantile("lat").count(), 2u);      // quantiles merge
  EXPECT_DOUBLE_EQ(a.quantile("lat").min(), 0.5);
  EXPECT_DOUBLE_EQ(a.quantile("lat").max(), 5.0);
  EXPECT_DOUBLE_EQ(a.quantile("lat").sum(), 5.5);
  ASSERT_NE(a.find_quantile("only_b_lat"), nullptr);
  EXPECT_DOUBLE_EQ(a.find_quantile("only_b_lat")->query(0.5), 3.0);

  // Merging per-task registries in task-index order is order-sensitive
  // only for gauges, which take the last-merged value by design.
  obs::MetricsRegistry c;
  c.gauge("depth").set(1.0);
  a.merge(c);
  EXPECT_DOUBLE_EQ(a.gauge("depth").value(), 1.0);
  EXPECT_THROW(a.merge(a), Error);  // self-merge is a bug
}

TEST(MetricsRegistry, SnapshotIsValidJsonGroupedByKind) {
  obs::MetricsRegistry registry;
  registry.counter("runs").inc(7);
  registry.gauge("acc").set(3.5);
  registry.quantile("lat").record(12.0);
  const obs::JsonValue snapshot = registry.to_json();
  const std::string text = snapshot.dump(2);
  EXPECT_TRUE(valid_json(text));
  EXPECT_NE(text.find("\"runs\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"acc\": 3.5"), std::string::npos);
  // Exactly three groups, one per instrument kind.
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.key(0), "counters");
  EXPECT_EQ(snapshot.key(1), "gauges");
  EXPECT_EQ(snapshot.key(2), "quantiles");
  const obs::JsonValue* lat = snapshot.at(2).find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("p50")->as_number(), 12.0);
}

// -- TraceRecorder ring buffer ----------------------------------------------

obs::TraceEvent numbered_event(std::uint64_t i) {
  obs::TraceEvent event;
  event.time = static_cast<double>(i);
  event.msg_id = i;
  return event;
}

TEST(TraceRecorder, RingBufferDropsOldestOnWraparound) {
  obs::TraceRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    recorder.on_event(numbered_event(i));
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // Oldest-first iteration yields the last four events in order.
  for (std::size_t i = 0; i < recorder.size(); ++i)
    EXPECT_EQ(recorder.event(i).msg_id, 6u + i);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  recorder.on_event(numbered_event(42));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.event(0).msg_id, 42u);
}

TEST(TraceRecorder, ExportsAreWellFormed) {
  obs::TraceRecorder recorder;
  sim::SequentialRuntime runtime(protocols::ProtocolKind::kWriteThrough,
                                 {3, {100.0, 30.0}, 1}, {0, 1});
  runtime.set_sink(&recorder);
  runtime.execute(0, fsm::OpKind::kRead);
  runtime.execute(1, fsm::OpKind::kWrite, 5);
  ASSERT_GT(recorder.size(), 0u);

  EXPECT_TRUE(valid_json(recorder.to_chrome_trace()));
  for (const std::string& line :
       split_lines(recorder.to_jsonl()))
    EXPECT_TRUE(valid_json(line)) << line;
}

// -- runtime integration ----------------------------------------------------

sim::SimStats traced_run(obs::EventSink* sink, obs::MetricsRegistry* metrics,
                         std::size_t ops = 300) {
  sim::SystemConfig config;
  config.num_clients = 3;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  config.num_objects = 2;
  sim::SimOptions options;
  options.max_ops = ops;
  options.warmup_ops = ops / 4;
  options.seed = 99;
  options.latency.min_latency = 1;
  options.latency.max_latency = 3;
  sim::EventSimulator simulator(protocols::ProtocolKind::kWriteOnce, config,
                                options);
  if (sink != nullptr) simulator.set_sink(sink);
  if (metrics != nullptr) simulator.set_metrics(metrics);
  const auto spec = workload::read_disturbance(0.3, 0.1, 2);
  workload::ConcurrentDriver driver(spec, 5, config.num_objects);
  return simulator.run(driver);
}

TEST(SimulatorTracing, EverySimMessageAppearsAsOneSendRecvPair) {
  obs::TraceRecorder recorder(1 << 20);
  const sim::SimStats stats = traced_run(&recorder, nullptr);
  ASSERT_GT(stats.messages, 0u);

  std::size_t sends = 0, recvs = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const obs::TraceEvent& event = recorder.event(i);
    if (event.kind == obs::EventKind::kMsgSend) {
      ++sends;
      EXPECT_NE(event.msg_id, 0u);
    }
    if (event.kind == obs::EventKind::kMsgRecv) ++recvs;
  }
  EXPECT_EQ(sends, stats.messages);
  EXPECT_EQ(recvs, stats.messages);
}

TEST(SimulatorTracing, NullSinkRunIsIdenticalToTracedRun) {
  const sim::SimStats plain = traced_run(nullptr, nullptr);
  obs::TraceRecorder recorder(1 << 20);
  obs::MetricsRegistry metrics;
  const sim::SimStats traced = traced_run(&recorder, &metrics);

  // Tracing must observe, never perturb: identical simulation outcome.
  EXPECT_EQ(plain.measured_ops, traced.measured_ops);
  EXPECT_DOUBLE_EQ(plain.measured_cost, traced.measured_cost);
  EXPECT_EQ(plain.messages, traced.messages);
  EXPECT_EQ(plain.end_time, traced.end_time);
  EXPECT_EQ(plain.message_mix, traced.message_mix);

  // And the published metrics agree with the returned stats.
  ASSERT_NE(metrics.find_counter("sim.messages"), nullptr);
  EXPECT_EQ(metrics.find_counter("sim.messages")->value(), traced.messages);
  ASSERT_NE(metrics.find_gauge("sim.acc"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("sim.acc")->value(), traced.acc());
  ASSERT_NE(metrics.find_quantile("sim.latency"), nullptr);
  EXPECT_EQ(metrics.find_quantile("sim.latency")->count(),
            traced.measured_ops);

  // One queue-depth sample per inter-node delivery to the sequencer
  // (node N = 3 here): the traced run's kMsgRecv events at that node.
  std::size_t sequencer_recvs = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const obs::TraceEvent& event = recorder.event(i);
    if (event.kind == obs::EventKind::kMsgRecv && event.node == 3)
      ++sequencer_recvs;
  }
  ASSERT_GT(sequencer_recvs, 0u);
  ASSERT_NE(metrics.find_quantile("sim.seq_queue_depth"), nullptr);
  EXPECT_EQ(metrics.find_quantile("sim.seq_queue_depth")->count(),
            sequencer_recvs);
  EXPECT_GE(metrics.find_quantile("sim.seq_queue_depth")->min(), 1.0);
}

TEST(SimulatorTracing, LegacyObserverRidesTheSinkChain) {
  sim::SystemConfig config;
  config.num_clients = 2;
  config.costs.s = 100.0;
  config.costs.p = 30.0;
  sim::SimOptions options;
  options.max_ops = 50;
  options.warmup_ops = 0;
  options.seed = 1;
  sim::EventSimulator simulator(protocols::ProtocolKind::kWriteThrough,
                                config, options);
  obs::TraceRecorder recorder;
  std::size_t observed = 0;
  simulator.set_observer([&](SimTime, NodeId, NodeId, const fsm::Message&) {
    ++observed;
  });
  simulator.set_sink(&recorder);
  const auto spec = workload::read_disturbance(0.4, 0.1, 1);
  workload::ConcurrentDriver driver(spec, 3);
  const sim::SimStats stats = simulator.run(driver);
  EXPECT_EQ(observed, stats.messages);
  std::size_t recorded_sends = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i)
    recorded_sends +=
        recorder.event(i).kind == obs::EventKind::kMsgSend ? 1 : 0;
  EXPECT_EQ(recorded_sends, stats.messages);
}

TEST(SequentialTracing, PairsMessagesAndReportsTransitions) {
  obs::TraceRecorder recorder;
  sim::SequentialRuntime runtime(protocols::ProtocolKind::kWriteThrough,
                                 {3, {100.0, 30.0}, 1}, {0, 1});
  runtime.set_sink(&recorder);
  const sim::OpResult read = runtime.execute(0, fsm::OpKind::kRead);

  std::size_t sends = 0, recvs = 0, transitions = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    switch (recorder.event(i).kind) {
      case obs::EventKind::kMsgSend: ++sends; break;
      case obs::EventKind::kMsgRecv: ++recvs; break;
      case obs::EventKind::kStateTransition: ++transitions; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, read.messages);
  EXPECT_EQ(recvs, read.messages);
  // The cold read flips the reader's copy INVALID -> VALID.
  EXPECT_GE(transitions, 1u);
}

}  // namespace
}  // namespace drsm
