// drsm_bench_diff: regression gate over BENCH_*.json reports.
//
// Compares a freshly generated report against a committed baseline:
//
//  * accuracy — every numeric acc field (acc, acc_analytic, acc_mean,
//    discrepancy_percent, plus the model checker's states, transitions,
//    max_depth, probes, por_pruned, symmetry_hits and relabelings counts)
//    in the "results" array must match the baseline bit for bit, in order.
//    The sweeps are deterministic by contract (the checker's counts at
//    one worker thread), so any difference is a real behaviour change,
//    not noise.  --acc-tol
//    relaxes this to a relative tolerance when comparing across
//    configurations that are allowed to differ.
//  * wall time — the fresh report's total wall_ms must stay within
//    --max-wall-ratio times the baseline (default 5.0: generous, because
//    bench hosts vary wildly; the gate catches order-of-magnitude
//    regressions, not percent-level ones).  The same ratio limit applies
//    to every phase's wall_ms in the "phases" object, so a regression
//    confined to one phase can't hide inside an otherwise-fast total.
//    Ratio checks are skipped when either side's wall_ms is missing or
//    zero (and, for phases, below --min-phase-ms — sub-millisecond
//    phases are all scheduler noise).
//
// Exit codes: 0 = pass, 1 = usage / I/O / parse error, 2 = accuracy
// mismatch, 3 = wall-time regression.
//
// Usage:
//   drsm_bench_diff --baseline=OLD.json --fresh=NEW.json
//                   [--max-wall-ratio=R] [--acc-tol=T]
//                   [--min-phase-ms=MS] [--quiet]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "obs/json.h"
#include "support/error.h"
#include "support/text.h"

namespace {

using namespace drsm;

struct Args {
  std::string baseline;
  std::string fresh;
  double max_wall_ratio = 5.0;
  double acc_tol = 0.0;       // 0 = bit equality
  double min_phase_ms = 1.0;  // phases faster than this are not gated
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline=OLD.json --fresh=NEW.json "
               "[--max-wall-ratio=R] [--acc-tol=T] [--min-phase-ms=MS] "
               "[--quiet]\n",
               argv0);
  std::exit(1);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--baseline=", 0) == 0) {
      args.baseline = value("--baseline=");
    } else if (arg.rfind("--fresh=", 0) == 0) {
      args.fresh = value("--fresh=");
    } else if (arg.rfind("--max-wall-ratio=", 0) == 0) {
      args.max_wall_ratio = std::stod(value("--max-wall-ratio="));
    } else if (arg.rfind("--acc-tol=", 0) == 0) {
      args.acc_tol = std::stod(value("--acc-tol="));
    } else if (arg.rfind("--min-phase-ms=", 0) == 0) {
      args.min_phase_ms = std::stod(value("--min-phase-ms="));
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  if (args.baseline.empty() || args.fresh.empty()) usage(argv[0]);
  return args;
}

/// One accuracy sample: where it came from plus the value.
struct AccSample {
  std::string where;
  double value = 0.0;
};

bool is_acc_key(const std::string& key) {
  // After the four accuracy figures come the model checker's counts
  // (BENCH_check.json): visited states, explored transitions, BFS depth,
  // read probes, POR-pruned siblings, symmetry hits and relabeled
  // encodings.  Each is the same at every worker thread count and held
  // to the same bit-exact standard as the analytic accuracy figures;
  // symmetry_hits also moves whenever the state-key bytes or their hash
  // change, and relabelings whenever the client signatures do.
  static const char* const kKeys[] = {
      "acc",        "acc_analytic",  "acc_mean",  "discrepancy_percent",
      "states",     "transitions",   "max_depth", "probes",
      "por_pruned", "symmetry_hits", "relabelings"};
  return std::find(std::begin(kKeys), std::end(kKeys), key) !=
         std::end(kKeys);
}

/// Collects the accuracy fields of every object in the report's "results"
/// array, in document order (one level deep plus the nested "sim" block —
/// the schema all benches share).
void collect_acc(const obs::JsonValue& report,
                 std::vector<AccSample>& out) {
  const obs::JsonValue* results = report.find("results");
  if (results == nullptr || !results->is_array()) return;
  for (std::size_t i = 0; i < results->size(); ++i) {
    const obs::JsonValue& row = results->at(i);
    if (!row.is_object()) continue;
    for (std::size_t f = 0; f < row.size(); ++f) {
      const std::string& key = row.key(f);
      const obs::JsonValue& field = row.at(f);
      if (field.is_number() && is_acc_key(key)) {
        out.push_back({strfmt("results[%zu].%s", i, key.c_str()),
                       field.as_number()});
      } else if (key == "sim" && field.is_object()) {
        const obs::JsonValue* acc = field.find("acc");
        if (acc != nullptr && acc->is_number())
          out.push_back({strfmt("results[%zu].sim.acc", i),
                         acc->as_number()});
      }
    }
  }
}

double wall_ms(const obs::JsonValue& report) {
  const obs::JsonValue* wall = report.find("wall_ms");
  return wall == nullptr ? 0.0 : wall->as_number();
}

/// One phase's wall-time comparison (baseline vs fresh, same phase name).
struct PhaseWall {
  std::string name;
  double base_ms = 0.0;
  double fresh_ms = 0.0;
};

/// Pairs up per-phase wall_ms values from both reports' "phases" objects,
/// in baseline document order.  Phases missing on either side (renamed or
/// added — a schema change, not a perf regression) are skipped.
std::vector<PhaseWall> collect_phase_walls(const obs::JsonValue& baseline,
                                           const obs::JsonValue& fresh) {
  std::vector<PhaseWall> out;
  const obs::JsonValue* base_phases = baseline.find("phases");
  const obs::JsonValue* fresh_phases = fresh.find("phases");
  if (base_phases == nullptr || !base_phases->is_object() ||
      fresh_phases == nullptr || !fresh_phases->is_object()) {
    return out;
  }
  for (std::size_t i = 0; i < base_phases->size(); ++i) {
    const std::string& name = base_phases->key(i);
    const obs::JsonValue& base_phase = base_phases->at(i);
    const obs::JsonValue* fresh_phase = fresh_phases->find(name);
    if (!base_phase.is_object() || fresh_phase == nullptr ||
        !fresh_phase->is_object()) {
      continue;
    }
    const obs::JsonValue* base_wall = base_phase.find("wall_ms");
    const obs::JsonValue* fresh_wall = fresh_phase->find("wall_ms");
    if (base_wall == nullptr || !base_wall->is_number() ||
        fresh_wall == nullptr || !fresh_wall->is_number()) {
      continue;
    }
    out.push_back({name, base_wall->as_number(), fresh_wall->as_number()});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);

  obs::JsonValue baseline;
  obs::JsonValue fresh;
  try {
    baseline = obs::parse_json(obs::read_file(args.baseline));
    fresh = obs::parse_json(obs::read_file(args.fresh));
  } catch (const drsm::Error& e) {
    std::fprintf(stderr, "drsm_bench_diff: %s\n", e.what());
    return 1;
  }

  std::vector<AccSample> base_acc;
  std::vector<AccSample> fresh_acc;
  collect_acc(baseline, base_acc);
  collect_acc(fresh, fresh_acc);

  std::size_t mismatches = 0;
  if (base_acc.size() != fresh_acc.size()) {
    std::fprintf(stderr,
                 "FAIL: %zu accuracy samples in baseline, %zu in fresh "
                 "(different result sets)\n",
                 base_acc.size(), fresh_acc.size());
    ++mismatches;
  } else {
    for (std::size_t i = 0; i < base_acc.size(); ++i) {
      const double a = base_acc[i].value;
      const double b = fresh_acc[i].value;
      const bool ok =
          args.acc_tol <= 0.0
              ? a == b
              : std::fabs(a - b) <=
                    args.acc_tol * std::max(1.0, std::fabs(a));
      if (!ok) {
        if (mismatches < 10)
          std::fprintf(stderr, "FAIL: %s: baseline %.17g, fresh %.17g\n",
                       base_acc[i].where.c_str(), a, b);
        ++mismatches;
      }
    }
  }

  const double base_wall = wall_ms(baseline);
  const double fresh_wall = wall_ms(fresh);
  const double ratio =
      base_wall > 0.0 && fresh_wall > 0.0 ? fresh_wall / base_wall : 0.0;
  bool wall_regressed = ratio > args.max_wall_ratio;

  // Per-phase gate: same ratio limit, applied to every phase big enough
  // to measure on both sides.
  const std::vector<PhaseWall> phases = collect_phase_walls(baseline, fresh);
  std::size_t phase_regressions = 0;
  for (const PhaseWall& phase : phases) {
    if (phase.base_ms < args.min_phase_ms || phase.fresh_ms <= 0.0) continue;
    const double phase_ratio = phase.fresh_ms / phase.base_ms;
    if (phase_ratio > args.max_wall_ratio) {
      std::fprintf(stderr,
                   "FAIL: phase %s: baseline %.1f ms, fresh %.1f ms, "
                   "ratio %.2f > %.2f\n",
                   phase.name.c_str(), phase.base_ms, phase.fresh_ms,
                   phase_ratio, args.max_wall_ratio);
      ++phase_regressions;
      wall_regressed = true;
    }
  }

  if (!args.quiet) {
    std::printf("bench diff: %s vs %s\n", args.baseline.c_str(),
                args.fresh.c_str());
    std::printf("  accuracy: %zu samples, %zu mismatch(es)%s\n",
                base_acc.size(), mismatches,
                args.acc_tol > 0.0
                    ? strfmt(" (tol %.3g)", args.acc_tol).c_str()
                    : " (bit equality)");
    if (ratio > 0.0)
      std::printf("  wall: baseline %.0f ms, fresh %.0f ms, ratio %.2f "
                  "(limit %.2f)\n",
                  base_wall, fresh_wall, ratio, args.max_wall_ratio);
    else
      std::printf("  wall: not comparable (missing wall_ms)\n");
    std::printf("  phases: %zu compared, %zu regression(s)\n",
                phases.size(), phase_regressions);
  }

  if (mismatches > 0) {
    std::fprintf(stderr, "drsm_bench_diff: accuracy mismatch\n");
    return 2;
  }
  if (wall_regressed) {
    std::fprintf(stderr,
                 "drsm_bench_diff: wall-time regression (%.2fx > %.2fx)\n",
                 ratio, args.max_wall_ratio);
    return 3;
  }
  if (!args.quiet) std::printf("  PASS\n");
  return 0;
} catch (const drsm::Error& e) {
  std::fprintf(stderr, "drsm_bench_diff: %s\n", e.what());
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "drsm_bench_diff: %s\n", e.what());
  return 1;
}
