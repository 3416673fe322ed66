// Shared helpers for the experiment benches: short protocol names,
// paper-style grid/table printing, and machine-readable BENCH_*.json
// report emission (schema in docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "obs/json.h"
#include "protocols/protocol.h"
#include "sim/event_sim.h"
#include "support/text.h"  // strfmt/render_table, used by every bench

namespace drsm::bench {

/// Compact protocol tags, parallel to protocols::kAllProtocols.
inline constexpr std::array<const char*, protocols::kAllProtocols.size()>
    kShortNames = {"WT", "WT-V", "WO", "SYN", "ILL", "BER", "DRG", "FF"};

// The table above is indexed by the numeric enum value; this holds only
// while kAllProtocols enumerates the kinds in declaration order with no
// gaps.  A new protocol kind fails here until it gets a tag.
static_assert(
    [] {
      for (std::size_t i = 0; i < protocols::kAllProtocols.size(); ++i)
        if (static_cast<std::size_t>(protocols::kAllProtocols[i]) != i)
          return false;
      return true;
    }(),
    "kShortNames must parallel kAllProtocols");

inline const char* short_name(protocols::ProtocolKind kind) {
  return kShortNames[static_cast<std::size_t>(kind)];
}

/// Default numeric cell format for the paper-style tables.
std::string fmt(double v);

/// Prints one surface (rows = p values, columns = second-parameter values).
void print_surface(const std::string& title, const char* col_param_name,
                   const std::vector<double>& p_values,
                   const std::vector<double>& col_values,
                   const std::vector<std::vector<std::string>>& cells);

/// SimStats rendered as a JSON object: acc, counts, the message mix, and
/// the latency distribution summary (mean/max, and p50/p90/p99 from the
/// post-warmup GK sketch SimStats::latency_quantiles).  The standard
/// "sim" block of a bench report.
obs::JsonValue sim_stats_json(const sim::SimStats& stats);

/// Accumulates one bench's machine-readable report and writes it as
/// BENCH_<name>.json in the current working directory:
///
///   Report report("table7");
///   auto& row = report.add_result();
///   row["protocol"] = short_name(kind);
///   row["acc_analytic"] = acc;
///   row["sim"] = sim_stats_json(stats);
///   ...
///   report.write();   // also records total wall time
///
/// Everything is ordered, so successive runs diff cleanly.
class Report {
 public:
  explicit Report(std::string name);

  /// The whole document, for bench-specific top-level fields.
  obs::JsonValue& root() { return root_; }

  /// Appends an empty object to the "results" array and returns it.
  obs::JsonValue& add_result();

  /// Marks the start of a named bench phase.  The wall-clock time from
  /// this call until the next phase() (or write()) lands in the report as
  /// root["phases"][name]["wall_ms"], so per-phase timings survive into
  /// the machine-readable output.  Returns the phase's JSON object for
  /// extra phase-level fields.
  obs::JsonValue& phase(const std::string& name);

  /// Writes BENCH_<name>.json (current directory) and prints the path.
  void write();

 private:
  void close_phase();

  std::string name_;
  obs::JsonValue root_;
  std::chrono::steady_clock::time_point start_;
  std::string open_phase_;  // empty = no phase in progress
  std::chrono::steady_clock::time_point phase_start_;
};

}  // namespace drsm::bench
