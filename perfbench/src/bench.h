// Shared plumbing of the drsm end-to-end benchmark: run options, the
// result every workload fills in, sample statistics, and the span
// recorder used by traced runs.
//
// A workload generates all of its inputs from the seed before it starts
// timing, measures for the requested number of seconds, checks every
// output it can, and reports:
//  * end-to-end metrics (untraced runs) — what a user of drsm sees;
//  * per-layer metrics (traced runs) — timings taken around the calls the
//    benchmark makes into each drsm module, plus exact work counts;
//  * exact counts that must repeat bit for bit for a given seed, and a
//    digest of the generated inputs (the determinism test compares both).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string goldens_dir;  // recorded goldens (read-only)
  std::string out_dir;      // where a traced run writes its spans
  bool record_goldens = false;
};

/// The seed whose paper_validate cells are pinned by recorded goldens.
inline constexpr std::uint64_t kGoldenSeed = 1;

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> diagnostics;
  std::map<std::string, double> exact;  // must repeat for a given seed
  std::map<std::string, double> threads;
  std::string input_digest;
  std::string goldens;  // --record-goldens output

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts `ops` failed operations and keeps the first few reasons.
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (errors.size() < 8) errors.push_back(why);
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread.  The kernel leaves out the time the
/// host stole from its vCPU (paravirtual steal accounting), so on a single
/// thread that makes no blocking calls it is the wall time the work would
/// take on an undisturbed host.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Sample quantile (nearest rank, q in [0, 1]); reorders `samples`.
template <class T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]);
}

template <class T>
double median(std::vector<T> samples) {
  return quantile(samples, 0.5);
}

/// Every workload repeats identical work: the runtime replays the same op
/// sequence in every round, a pass runs the same cells or configurations.
/// The shared 4-vCPU host only ever adds time to it — fixed work on one
/// vCPU varies by ±30% over a few hundred ms, the vCPUs vary independently,
/// and steal storms slow the multi-threaded runtime several-fold for minutes —
/// so each op timing reports this quantile (the lower decile) of its
/// repeats, not their median.  Set-up, timed many times per run, reports
/// the median.  A change to the code that moves every repeat moves
/// it too; host slowdowns that leave a tenth of the repeats alone do not,
/// and neither do code slowdowns confined to nine tenths of them.
inline constexpr double kRepeatQuantile = 0.1;

/// A workload whose items (cells, configurations) repeat in passes.  Each
/// pass runs every item on identical inputs, in its own order.
struct PassLoop {
  std::size_t items = 0;
  std::uint64_t stream = 0;  // derive_seed stream of the pass orders
  /// Builds a fresh copy of what the workload sets up, discards it, and
  /// returns the time that took, in seconds.
  std::function<double()> set_up;
  /// Runs and checks one item (counting its failures in the result);
  /// returns its time in us, or a negative value if it failed untimed.
  std::function<double(std::size_t pass, std::size_t item)> run_item;
};

/// Runs passes until `options.seconds` have passed (at least one, at most
/// kMaxPasses).  Pass k visits the items in an order shuffled by
/// derive_seed(options.seed, loop.stream, k); every order is drawn before
/// timing starts and digested into result.input_digest.  set_up runs
/// kSetupReps times before every pass, so the set-up samples span the
/// run.  Each item's time is the kRepeatQuantile of its times over the
/// passes; reports ops_per_s (items / the sum of those times), the latency
/// quantiles over those times, and setup_s (the median of every set-up).
void run_passes(const RunOptions& options, const PassLoop& loop,
                Result& result);

/// Time, in ms, of a fixed single-threaded integer and cache workload:
/// the fastest of 9 repeats, so a steal burst does not hide the host's
/// speed (steal is recorded on its own).  Run records carry it from before
/// and after the workload, so sets of runs made while the host was faster
/// or slower stand out.
double host_probe_ms();

/// Host CPU steal ticks of all CPUs so far (/proc/stat), or -1 when the
/// host does not report them.
std::int64_t host_steal_ticks();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// FNV-1a over raw bytes; the digests of inputs and goldens.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <class T>
  void add(const T& value) {
    bytes(&value, sizeof value);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Mixes (seed, stream, index) into an independent 64-bit seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Spans of a traced run: name, start, end, parent and op id, kept in a
/// preallocated buffer and written out when the run ends.  Slots are
/// claimed atomically, so worker threads may record concurrently; each
/// span's end is written only by the thread that opened it.  Once the
/// buffer is full further spans are counted as dropped (the per-layer
/// metrics come from the workloads' own sample vectors, never from the
/// buffer, so a full buffer does not bias them).
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0;

  explicit Tracer(std::size_t capacity);

  /// Name ids; intern every name before timing starts.
  std::uint32_t intern(const std::string& name);

  /// Opens a span and returns its id (kNone when the buffer is full).
  std::uint32_t open(std::uint32_t name, std::uint64_t op,
                     std::uint32_t parent);
  void close(std::uint32_t id);
  /// Records a finished span whose bounds the caller measured.
  void leaf(std::uint32_t name, std::uint64_t op, std::uint32_t parent,
            std::uint64_t start_ns, std::uint64_t end_ns);

  std::size_t recorded() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// CSV: id,name,start_ns,end_ns,parent,op (ids are 1-based line order).
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::uint64_t op = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  std::uint32_t claim();

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer (untraced run) makes both a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t op,
             std::uint32_t parent)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, op, parent) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Workloads.  Each fills `result`; `tracer` is non-null in traced runs.
void run_runtime(const RunOptions& options, Tracer* tracer, Result& result);
void run_paper_validate(const RunOptions& options, Tracer* tracer,
                        Result& result);
void run_check_verify(const RunOptions& options, Tracer* tracer,
                      Result& result);

/// Reads whitespace-separated golden records, one per line, keyed by the
/// first field; a missing file yields an empty map.
std::map<std::string, std::vector<std::string>> read_goldens(
    const std::string& path);

}  // namespace perfbench
