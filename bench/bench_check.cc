// Experiment: model-checker scaling — how far the canonicalized +
// partial-order-reduced engine pushes exhaustive exploration past the
// full-expansion reference.
//
// Three phases:
//
//  * reduction_n2: every protocol at N=2, both engines.  Full expansion
//    is cheap here, so each row records the exact state-space reduction
//    factor and cross-checks that both modes reach the same verdict.
//
//  * reduced_n3: every protocol at N=3 (1 read + 1 write per client),
//    reduced engine only — the configuration that full expansion needs
//    ~300k states for on Berkeley.  Rows record states, states/sec,
//    symmetry hits and POR-pruned siblings.
//
//  * reference_n3: full expansion of write-through at N=3, giving one
//    exact large-configuration reduction factor (the headline ">=10x"
//    number, recorded under root["reduction"]).
//
//  * depth_n4: every protocol but Berkeley at N=4 — a depth exhaustively
//    out of reach for the full engine — to show the reduced engine closes
//    it within the default state cap.  Berkeley's 4.04M states take tens
//    of seconds (docs/PERFORMANCE.md); drsm_check runs it.
//
// tools/drsm_bench_diff gates every count of a row: states, transitions,
// max_depth, probes, por_pruned, symmetry_hits and relabelings (the
// relabeled encodings canonicalization hashed).  The checker claims
// states in its serial in-order merge, so the counts are the same at
// every worker thread count (CheckConfig::threads) and a report drifts
// only on a real exploration change; the tool_drsm_bench_diff_check
// ctest holds runs at one and at four threads to the committed
// BENCH_check.json.  expand_ms and merge_ms split each row's wall time
// by BFS layer.
//
// Report: BENCH_check.json.
#include <cstdio>

#include "bench_util.h"
#include "check/model_checker.h"
#include "support/error.h"

namespace {

using namespace drsm;
using check::CheckConfig;
using check::CheckResult;

CheckConfig base_config(protocols::ProtocolKind kind, std::size_t clients) {
  CheckConfig config;
  config.protocol = kind;
  config.num_clients = clients;
  config.reads_per_client = 1;
  config.writes_per_client = 1;
  return config;
}

/// One result row: the exploration counts that must reproduce exactly
/// ("states") plus the throughput numbers that may not (wall-clock).
void fill_row(obs::JsonValue& row, protocols::ProtocolKind kind,
              std::size_t clients, const char* mode, const CheckResult& r) {
  row["protocol"] = bench::short_name(kind);
  row["clients"] = clients;
  row["mode"] = mode;
  row["states"] = r.states;
  row["transitions"] = r.transitions;
  row["max_depth"] = r.max_depth;
  row["probes"] = r.probes;
  row["por_pruned"] = r.por_pruned;
  row["symmetry_hits"] = r.symmetry_hits;
  row["relabelings"] = r.relabelings;
  row["states_per_sec"] = r.states_per_sec();
  row["wall_ms"] = r.wall_seconds * 1e3;
  row["expand_ms"] = r.expand_seconds * 1e3;
  row["merge_ms"] = r.merge_seconds * 1e3;
  row["ok"] = r.ok();
  DRSM_CHECK(!r.hit_state_cap, "bench configuration hit the state cap");
}

void print_row(protocols::ProtocolKind kind, const CheckResult& r,
               double reduction) {
  std::printf("  %-5s %9zu states %9zu trans  depth %2zu  %8.0f st/s"
              "  sym %7zu  por %7zu",
              bench::short_name(kind), r.states, r.transitions, r.max_depth,
              r.states_per_sec(), r.symmetry_hits, r.por_pruned);
  if (reduction > 0.0) std::printf("  %5.1fx smaller", reduction);
  std::printf("%s\n", r.ok() ? "" : "  VIOLATION");
}

}  // namespace

int main() {
  std::printf("Model-checker scaling: canonicalized + POR engine vs the\n"
              "full-expansion reference (budgets: 1 read + 1 write per "
              "client)\n\n");
  bench::Report report("check");

  // -- reduction_n2: exact reduction factors, verdict cross-check -------
  report.phase("reduction_n2");
  std::printf("N=2, reduced engine (vs full expansion):\n");
  for (protocols::ProtocolKind kind : protocols::kAllProtocols) {
    CheckConfig full = base_config(kind, 2);
    full.expansion = CheckConfig::Expansion::kFullExpansion;
    const CheckResult f = check_protocol(full);
    const CheckResult r = check_protocol(base_config(kind, 2));
    DRSM_CHECK(f.ok() == r.ok(),
               "reduced and full expansion disagree on the verdict");
    auto& row = report.add_result();
    fill_row(row, kind, 2, "reduced", r);
    row["states_full"] = f.states;
    row["reduction"] =
        static_cast<double>(f.states) / static_cast<double>(r.states);
    print_row(kind, r, static_cast<double>(f.states) /
                           static_cast<double>(r.states));
  }

  // -- reduced_n3: the scaled engine on the large configuration ---------
  report.phase("reduced_n3");
  std::printf("\nN=3, reduced engine:\n");
  std::size_t wt3_reduced = 0;
  for (protocols::ProtocolKind kind : protocols::kAllProtocols) {
    const CheckResult r = check_protocol(base_config(kind, 3));
    if (kind == protocols::ProtocolKind::kWriteThrough) wt3_reduced = r.states;
    fill_row(report.add_result(), kind, 3, "reduced", r);
    print_row(kind, r, 0.0);
  }

  // -- reference_n3: one exact large reduction factor (write-through) ---
  report.phase("reference_n3");
  CheckConfig wt_full = base_config(protocols::ProtocolKind::kWriteThrough, 3);
  wt_full.expansion = CheckConfig::Expansion::kFullExpansion;
  const CheckResult wt3_full = check_protocol(wt_full);
  fill_row(report.add_result(), protocols::ProtocolKind::kWriteThrough, 3,
           "full", wt3_full);
  const double factor = static_cast<double>(wt3_full.states) /
                        static_cast<double>(wt3_reduced);
  {
    obs::JsonValue reduction = obs::JsonValue::object();
    reduction["protocol"] = "WT";
    reduction["clients"] = std::size_t{3};
    reduction["states_full"] = wt3_full.states;
    reduction["states_reduced"] = wt3_reduced;
    reduction["factor"] = factor;
    report.root()["reduction"] = std::move(reduction);
  }
  std::printf("\nN=3 write-through full expansion: %zu states -> "
              "reduction factor %.1fx\n",
              wt3_full.states, factor);

  // -- depth_n4: beyond the full engine's reach -------------------------
  report.phase("depth_n4");
  std::printf("\nN=4, reduced engine:\n");
  for (protocols::ProtocolKind kind : protocols::kAllProtocols) {
    if (kind == protocols::ProtocolKind::kBerkeley) continue;
    const CheckResult r = check_protocol(base_config(kind, 4));
    fill_row(report.add_result(), kind, 4, "reduced", r);
    print_row(kind, r, 0.0);
  }

  report.write();
  return 0;
}
