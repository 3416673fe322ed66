// drsm_check: standalone protocol verification driver.
//
// Runs the explicit-state model checker and the property-based coherence
// harness from the command line, printing one summary row per protocol.
// Exits nonzero on any violation; with --trace=FILE the first violation's
// minimal counterexample is written as JSONL (see docs/TESTING.md for how
// to read it).
//
// Usage:
//   drsm_check [--protocol=all|wt|wtv|wo|syn|ill|ber|drg|ff]
//              [--clients=N] [--reads=K] [--writes=K]
//              [--seeds=S] [--ops=OPS] [--no-probes] [--trace=FILE]
//              [--postmortem=FILE] [--threads=T] [--max-states=M]
//              [--full-expansion] [--no-symmetry] [--no-por]
//
// Defaults: all protocols, 2 clients, 1 read + 1 write per client, 25
// property seeds of 150 operations each, reduced exploration (symmetry +
// partial-order reduction) with --threads=0 (auto).  --full-expansion
// switches to the exact reference mode.  --postmortem dumps the first
// violation's counterexample through the flight recorder as a JSONL
// post-mortem (header line + events; see docs/OBSERVABILITY.md).
//
// Exit status: 0 all checks passed and complete, 1 violation found, 2 bad
// invocation, 3 exploration hit the state cap (the verdict is PARTIAL —
// raise --max-states or shrink the configuration).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/model_checker.h"
#include "check/property.h"
#include "dsm/migration.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "protocols/protocol.h"
#include "support/error.h"
#include "support/text.h"

namespace {

using namespace drsm;

struct Args {
  std::vector<protocols::ProtocolKind> kinds{protocols::kAllProtocols.begin(),
                                             protocols::kAllProtocols.end()};
  std::size_t clients = 2;
  std::size_t reads = 1;
  std::size_t writes = 1;
  std::size_t seeds = 25;
  std::size_t ops = 150;
  bool probes = true;
  std::size_t threads = 0;  // 0 = ThreadPool::default_threads()
  std::size_t max_states = 0;  // 0 = CheckConfig default
  bool full_expansion = false;
  bool symmetry = true;
  bool por = true;
  std::string trace_path;
  std::string postmortem_path;
  // --migration: check drain/handoff worlds instead of single protocols.
  bool migration = false;
  std::vector<std::pair<protocols::ProtocolKind, protocols::ProtocolKind>>
      pairs;  // empty = the acceptance pairs (wt<->ber, wt<->drg)
  std::size_t trigger = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--protocol=all|NAME] [--clients=N] [--reads=K] "
               "[--writes=K] [--seeds=S] [--ops=OPS] [--no-probes] "
               "[--trace=FILE] [--postmortem=FILE] [--threads=T] "
               "[--max-states=M] [--full-expansion] [--no-symmetry] "
               "[--no-por] [--migration[=FROM:TO|all]] [--trigger=T]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::string(prefix).size());
    };
    const auto number = [&](const char* prefix) {
      const auto n = parse_number<std::size_t>(value(prefix));
      if (!n) throw Error("bad number in " + arg);
      return *n;
    };
    if (arg.rfind("--protocol=", 0) == 0) {
      const std::string name = value("--protocol=");
      if (name != "all")
        args.kinds = {protocols::protocol_from_string(name)};
    } else if (arg.rfind("--clients=", 0) == 0) {
      args.clients = number("--clients=");
    } else if (arg.rfind("--reads=", 0) == 0) {
      args.reads = number("--reads=");
    } else if (arg.rfind("--writes=", 0) == 0) {
      args.writes = number("--writes=");
    } else if (arg.rfind("--seeds=", 0) == 0) {
      args.seeds = number("--seeds=");
    } else if (arg.rfind("--ops=", 0) == 0) {
      args.ops = number("--ops=");
    } else if (arg == "--no-probes") {
      args.probes = false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = number("--threads=");
    } else if (arg.rfind("--max-states=", 0) == 0) {
      args.max_states = number("--max-states=");
    } else if (arg == "--full-expansion") {
      args.full_expansion = true;
    } else if (arg == "--no-symmetry") {
      args.symmetry = false;
    } else if (arg == "--no-por") {
      args.por = false;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace_path = value("--trace=");
    } else if (arg.rfind("--postmortem=", 0) == 0) {
      args.postmortem_path = value("--postmortem=");
    } else if (arg == "--migration") {
      args.migration = true;
    } else if (arg.rfind("--migration=", 0) == 0) {
      args.migration = true;
      const std::string spec = value("--migration=");
      if (spec == "all") {
        for (const auto from : protocols::kAllProtocols)
          for (const auto to : protocols::kAllProtocols)
            args.pairs.emplace_back(from, to);
      } else {
        const auto colon = spec.find(':');
        if (colon == std::string::npos) usage(argv[0]);
        args.pairs.emplace_back(
            protocols::protocol_from_string(spec.substr(0, colon)),
            protocols::protocol_from_string(spec.substr(colon + 1)));
      }
    } else if (arg.rfind("--trigger=", 0) == 0) {
      args.trigger = number("--trigger=");
    } else {
      usage(argv[0]);
    }
  }
  return args;
}

void dump_counterexample(const check::CheckResult& result,
                         const std::string& path) {
  obs::TraceRecorder recorder;
  check::export_counterexample(result, recorder);
  recorder.write_jsonl(path);
  std::printf("  counterexample (%zu steps) written to %s\n",
              result.counterexample.size(), path.c_str());
}

/// Runs `config` under the command line's budget and engine flags and
/// prints its summary row (named `label`), its reductions line, the
/// state-cap banner and any violation.  Sets `failed` on a violation and
/// `capped` when the exploration hit its state cap.
void run_check(check::CheckConfig config, const std::string& label,
               const Args& args, bool& failed, bool& capped) {
  config.reads_per_client = args.reads;
  config.writes_per_client = args.writes;
  config.probe_quiescent_reads = args.probes;
  config.threads = args.threads;
  if (args.max_states > 0) config.max_states = args.max_states;
  if (args.full_expansion)
    config.expansion = check::CheckConfig::Expansion::kFullExpansion;
  config.symmetry_reduction = args.symmetry;
  config.partial_order_reduction = args.por;
  const check::CheckResult result = check::check_protocol(config);
  std::printf("  %-16s %8zu states %9zu transitions %6zu probes "
              "depth %3zu %8.0f st/s  %s\n",
              label.c_str(), result.states, result.transitions,
              result.probes, result.max_depth, result.states_per_sec(),
              result.ok() ? (result.hit_state_cap ? "PARTIAL" : "ok")
                          : "VIOLATION");
  if (result.symmetry_applied || result.por_applied)
    std::printf("    reductions: %zu symmetry hits, %zu relabelings, "
                "%zu POR-pruned siblings, %zu threads; %zu decodes, "
                "%zu restores; expand %.1f ms, merge %.1f ms\n",
                result.symmetry_hits, result.relabelings, result.por_pruned,
                result.threads_used, result.decodes, result.restores,
                result.expand_seconds * 1e3, result.merge_seconds * 1e3);
  if (result.hit_state_cap) {
    capped = true;
    std::printf("    *** STATE CAP HIT: exploration stopped at %zu "
                "states — the verdict above is PARTIAL, not a proof. "
                "Raise --max-states (current cap %zu) or shrink the "
                "configuration. ***\n",
                result.states, config.max_states);
  }
  if (!result.ok()) {
    failed = true;
    for (const auto& v : result.violations)
      std::printf("    %s: %s\n", v.invariant, v.detail.c_str());
    if (!args.trace_path.empty())
      dump_counterexample(result, args.trace_path);
    if (!args.postmortem_path.empty()) {
      obs::FlightRecorder recorder;
      check::dump_counterexample(result, recorder, args.postmortem_path);
      std::printf("  post-mortem written to %s\n",
                  args.postmortem_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);
  bool failed = false;
  bool capped = false;
  const char* engine = args.full_expansion ? "full expansion (reference mode)"
                                           : "reduced (symmetry + POR)";

  if (args.migration) {
    auto pairs = args.pairs;
    if (pairs.empty()) {
      using PK = protocols::ProtocolKind;
      pairs = {{PK::kWriteThrough, PK::kBerkeley},
               {PK::kBerkeley, PK::kWriteThrough},
               {PK::kWriteThrough, PK::kDragon},
               {PK::kDragon, PK::kWriteThrough}};
    }
    std::printf("migration checker: %zu clients, %zu read(s) + %zu "
                "write(s) per client, trigger %zu, %s\n",
                args.clients, args.reads, args.writes, args.trigger, engine);
    for (const auto& [from, to] : pairs) {
      dsm::MigrationWorldOptions opts;
      opts.from = from;
      opts.to = to;
      opts.num_clients = args.clients;
      opts.trigger = args.trigger;
      run_check(dsm::migration_check_config(opts),
                strfmt("%-13s-> %-13s", protocols::to_string(from),
                       protocols::to_string(to)),
                args, failed, capped);
    }
  } else {
    std::printf("model checker: %zu clients, %zu read(s) + %zu write(s) "
                "per client, probes %s, %s\n",
                args.clients, args.reads, args.writes,
                args.probes ? "on" : "off", engine);
    for (const auto kind : args.kinds) {
      check::CheckConfig config;
      config.protocol = kind;
      config.num_clients = args.clients;
      run_check(config, protocols::to_string(kind), args, failed, capped);
    }
  }

  if (!args.migration && args.seeds > 0) {
    std::printf("property harness: %zu seed(s), %zu ops each\n", args.seeds,
                args.ops);
    for (const auto kind : args.kinds) {
      std::size_t bad_seed = 0;
      std::vector<std::string> violations;
      for (std::uint64_t seed = 1; seed <= args.seeds; ++seed) {
        check::PropertyConfig config;
        config.protocol = kind;
        config.seed = seed;
        config.ops = args.ops;
        const auto sim = check::run_simulator_property(config);
        const auto seq = check::run_sequential_property(config);
        if (!sim.ok() || !seq.ok()) {
          bad_seed = seed;
          violations = sim.ok() ? seq.violations : sim.violations;
          break;
        }
      }
      if (bad_seed != 0) {
        failed = true;
        std::printf("  %-16s FAILED at seed %zu\n",
                    protocols::to_string(kind),
                    static_cast<std::size_t>(bad_seed));
        for (const auto& v : violations)
          std::printf("    %s\n", v.c_str());
      } else {
        std::printf("  %-16s ok\n", protocols::to_string(kind));
      }
    }
  }

  if (failed) return 1;
  if (capped) {
    std::printf("RESULT: PARTIAL — at least one exploration hit its state "
                "cap; nothing was proved for those configurations.\n");
    return 3;
  }
  return 0;
} catch (const drsm::Error& e) {
  std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
  return 2;
}
