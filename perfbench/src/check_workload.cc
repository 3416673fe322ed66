// check_verify: the exhaustive sweep protocol changes are re-checked with —
// check::check_protocol, reduced engine, one thread, one read and one
// write per client — over the eight protocols at N=3 and all 64 ordered
// migration pairs at N=2 (dsm::migration_check_config).
//
// One op is one check_protocol call.  The 72 configurations repeat in
// passes (run_passes), each visiting them in a seed-shuffled order; the
// state counts do not depend on the order, so every call is checked
// against recorded goldens.  One thread, because threaded state counts
// still vary.  The checker has no set-up step of its own, so setup_s is
// the time to build the 72 configurations.
//
// A call is timed by the thread's CPU time (thread_cpu_ns), not the wall
// clock: the call is single-threaded, never blocks and spends about 1% of
// its time in the kernel, so the two agree on an undisturbed host, and the
// CPU time leaves out host steal, which on the shared VM reaches a quarter
// of the time for minutes.
//
// The scheduler keeps one busy thread on one vCPU, and on a shared host
// the vCPUs run at different speeds (one check_verify run pinned to each
// vCPU of the 4-vCPU VM in turn: 52 to 87 calls/s), so an unpinned run
// would measure whichever vCPU it landed on.  Successive calls therefore
// run on the allowed CPUs in turn, so every pass samples all of them.
#include <sched.h>

#include <cstdio>

#include "bench.h"
#include "check/model_checker.h"
#include "dsm/migration.h"

namespace perfbench {
namespace {

using drsm::protocols::ProtocolKind;

struct Case {
  std::string key;
  bool migration = false;
  drsm::check::CheckConfig config;
};

drsm::check::CheckConfig protocol_config(ProtocolKind kind,
                                         std::size_t clients) {
  drsm::check::CheckConfig config;
  config.protocol = kind;
  config.num_clients = clients;
  config.reads_per_client = 1;
  config.writes_per_client = 1;
  config.threads = 1;
  return config;
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (ProtocolKind kind : drsm::protocols::kAllProtocols)
    cases.push_back({std::string("n3/") + drsm::protocols::to_string(kind),
                     false, protocol_config(kind, 3)});
  for (ProtocolKind from : drsm::protocols::kAllProtocols)
    for (ProtocolKind to : drsm::protocols::kAllProtocols) {
      drsm::dsm::MigrationWorldOptions world;
      world.from = from;
      world.to = to;
      world.num_clients = 2;
      drsm::check::CheckConfig config = drsm::dsm::migration_check_config(world);
      config.reads_per_client = 1;
      config.writes_per_client = 1;
      config.threads = 1;
      cases.push_back({std::string("mig2/") + drsm::protocols::to_string(from) +
                           ">" + drsm::protocols::to_string(to),
                       true, std::move(config)});
    }
  return cases;
}

/// Pins the calling thread to the allowed CPUs round robin, one per
/// next() call; restores the original CPU set when destroyed.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRotor() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

}  // namespace

void run_check_verify(const RunOptions& options, Tracer* tracer,
                      Result& result) {
  Tracer* const t = tracer;
  std::uint32_t n_setup = 0, n_call = 0;
  if (t != nullptr) {
    n_setup = t->intern("check.setup");
    n_call = t->intern("check.check_protocol");
  }
  result.threads["total"] = 1;
  const std::vector<Case> cases = make_cases();
  const auto goldens = read_goldens(options.goldens_dir + "/check_verify.txt");
  if (goldens.empty()) result.fail(1, "check_verify goldens missing");

  double n3_states = 0, n3_s = 0, mig_states = 0, mig_s = 0;
  double states = 0, transitions = 0, symmetry_hits = 0, por_pruned = 0;
  PassLoop loop;
  loop.items = cases.size();
  loop.stream = 4;
  std::uint64_t setups = 0;
  loop.set_up = [&] {
    ScopedSpan span(t, n_setup, setups++, Tracer::kNone);
    const std::uint64_t t0 = now_ns();
    const std::vector<Case> fresh = make_cases();
    return seconds_since(t0);
  };
  CpuRotor rotor;
  loop.run_item = [&](std::size_t k, std::size_t c) {
    rotor.next();
    const Case& item = cases[c];
    try {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t cpu0 = thread_cpu_ns();
      const drsm::check::CheckResult r =
          drsm::check::check_protocol(item.config);
      const std::uint64_t cpu1 = thread_cpu_ns();
      const std::uint64_t t1 = now_ns();
      if (t != nullptr) t->leaf(n_call, k * cases.size() + c, 0, t0, t1);

      const double cpu_s = static_cast<double>(cpu1 - cpu0) * 1e-9;
      (item.migration ? mig_states : n3_states) +=
          static_cast<double>(r.states);
      (item.migration ? mig_s : n3_s) += cpu_s;
      if (k == 0) {
        states += static_cast<double>(r.states);
        transitions += static_cast<double>(r.transitions);
        symmetry_hits += static_cast<double>(r.symmetry_hits);
        por_pruned += static_cast<double>(r.por_pruned);
        char line[160];
        std::snprintf(line, sizeof line, "%s %zu %zu\n", item.key.c_str(),
                      r.states, r.transitions);
        result.goldens += line;
      }
      const auto it = goldens.find(item.key);
      const bool match = it != goldens.end() && it->second.size() == 2 &&
                         it->second[0] == std::to_string(r.states) &&
                         it->second[1] == std::to_string(r.transitions);
      if (!r.ok())
        result.fail(1, item.key + ": " + r.violations.front().invariant);
      else if (r.hit_state_cap)
        result.fail(1, item.key + ": hit the state cap");
      else if (!match)
        result.fail(1, item.key + ": states/transitions differ from golden");
      return cpu_s * 1e6;
    } catch (const std::exception& e) {
      result.fail(1, item.key + ": " + e.what());
      return -1.0;
    }
  };
  run_passes(options, loop, result);
  result.exact["states"] = states;
  result.exact["transitions"] = transitions;

  if (t == nullptr) return;
  result.metric("check.states_per_s", n3_states / n3_s, "1/s");
  result.metric("check.migration_states_per_s", mig_states / mig_s, "1/s");
  result.metric("check.states", states, "count");
  result.metric("check.transitions", transitions, "count");
  result.metric("check.symmetry_hits", symmetry_hits, "count");
  result.metric("check.por_pruned", por_pruned, "count");
}

}  // namespace perfbench
