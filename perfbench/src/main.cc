// drsm_perfbench: runs one benchmark workload and prints its result as a
// JSON object on the last line of standard output.
//
//   drsm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --goldens <dir> [--out <dir>] [--record-goldens]
//
// Workloads: runtime_read_hot, paper_validate, check_verify.  --trace 1
// records spans around every call the benchmark makes into a drsm layer,
// reports per-layer metrics, and writes the spans to
// <out>/<workload>.spans.csv.  --record-goldens prints the
// golden records of the run (use with --seed 1) instead of the result.
// perfbench/run.py builds this program and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Result;
using perfbench::RunOptions;

constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "drsm_perfbench: %s\n", why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-goldens") {
      options.record_goldens = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      options.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      options.trace = value == "1";
    else if (flag == "--goldens")
      options.goldens_dir = value;
    else if (flag == "--out")
      options.out_dir = value;
    else
      usage(("unknown flag " + flag).c_str());
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  if (options.goldens_dir.empty()) usage("--goldens is required");
  return options;
}

drsm::obs::JsonValue to_json(const std::map<std::string, double>& values) {
  drsm::obs::JsonValue out = drsm::obs::JsonValue::object();
  for (const auto& [name, value] : values) out[name] = value;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  std::unique_ptr<perfbench::Tracer> tracer;
  if (options.trace)
    tracer = std::make_unique<perfbench::Tracer>(kSpanCapacity);

  Result result;
  const double probe_before_ms = perfbench::host_probe_ms();
  const std::int64_t steal0 = perfbench::host_steal_ticks();
  const std::string& w = options.workload;
  if (w == "runtime_read_hot")
    perfbench::run_runtime(options, tracer.get(), result);
  else if (w == "paper_validate")
    perfbench::run_paper_validate(options, tracer.get(), result);
  else if (w == "check_verify")
    perfbench::run_check_verify(options, tracer.get(), result);
  else
    usage(("unknown workload " + w).c_str());
  const std::int64_t steal =
      steal0 < 0 ? -1 : perfbench::host_steal_ticks() - steal0;
  result.diagnostics["host_probe_ms_before"] = probe_before_ms;
  result.diagnostics["host_probe_ms_after"] = perfbench::host_probe_ms();

  if (options.record_goldens) {
    std::fputs(result.goldens.c_str(), stdout);
    return result.goldens.empty() ? 1 : 0;
  }
  // Peak RSS is an end-to-end metric of untraced runs only: the span
  // buffer of a traced run would inflate it.
  if (!tracer) result.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  drsm::obs::JsonValue out = drsm::obs::JsonValue::object();
  out["workload"] = w;
  out["seed"] = static_cast<double>(options.seed);
  out["trace"] = options.trace;
  out["steal_ticks"] = static_cast<double>(steal);  // -1: not reported
  out["attempted"] = static_cast<double>(result.attempted);
  out["failed"] = static_cast<double>(result.failed);
  out["error_ratio"] =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  drsm::obs::JsonValue errors = drsm::obs::JsonValue::array();
  for (const std::string& e : result.errors) errors.push_back(e);
  out["errors"] = std::move(errors);
  drsm::obs::JsonValue metrics = drsm::obs::JsonValue::object();
  for (const auto& [name, m] : result.metrics) {
    drsm::obs::JsonValue entry = drsm::obs::JsonValue::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[name] = std::move(entry);
  }
  out["metrics"] = std::move(metrics);
  out["diagnostics"] = to_json(result.diagnostics);
  out["exact"] = to_json(result.exact);
  out["threads"] = to_json(result.threads);
  out["input_digest"] = result.input_digest;
  out["compiler"] = __VERSION__;
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  if (tracer) {
    out["spans_recorded"] = static_cast<double>(tracer->recorded());
    out["spans_dropped"] = static_cast<double>(tracer->dropped());
    if (!options.out_dir.empty())
      tracer->write_csv(options.out_dir + "/" + w + ".spans.csv");
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
