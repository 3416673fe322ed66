// Streaming quantile estimation (Greenwald–Khanna sketch) — the one
// distribution instrument of the observability layer: the metrics
// registry's quantile kind and SimStats::latency_quantiles.
//
// The sketch keeps an epsilon-approximate summary of the *observed sample
// values*: every query returns a value that actually occurred, with rank
// error at most epsilon * count.  A bucket-interpolating histogram would
// instead fabricate values for the discrete, zero-heavy latency
// distributions the simulator produces (a run whose operations all
// complete locally in 0 time units would "interpolate" a p50 of 0.5).
//
// The GK summary was chosen over P² because it is deterministic,
// mergeable (replication harness and registry merges: sketches
// concatenate and recompress), and answers any quantile from one
// structure.  Space is O((1/epsilon) * log(epsilon * n)) tuples — a few
// hundred at the default epsilon for million-sample runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.h"

namespace drsm::obs {

class Quantile {
 public:
  /// `epsilon` is the rank-error bound as a fraction of the sample count;
  /// queries are exact while the summary holds every sample (small runs).
  explicit Quantile(double epsilon = 0.005);

  void record(double value);

  /// Value of rank ceil(q * count) within epsilon * count ranks; q is
  /// clamped to [0, 1].  Returns 0 when empty.  Always a recorded value.
  double query(double q) const;

  /// Concatenates the two summaries and recompresses.  The merged rank
  /// error is bounded by the larger of the two epsilons (plus the
  /// compression slack), which the accuracy tests measure directly.
  void merge(const Quantile& other);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double epsilon() const { return epsilon_; }

  /// Summary size, for the space-bound tests.
  std::size_t tuples() const { return tuples_.size(); }

  /// {"count", "min", "max", "mean", "p50", "p90", "p99", "epsilon"}.
  JsonValue to_json() const;

 private:
  // One GK tuple: `value` covers g ranks ending at rmin(i) = sum of g up
  // to i; delta bounds rmax(i) - rmin(i).
  struct Tuple {
    double value = 0.0;
    std::uint64_t g = 0;
    std::uint64_t delta = 0;
  };

  void insert(double value);
  void compress();

  double epsilon_;
  std::uint64_t count_ = 0;
  std::uint64_t since_compress_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<Tuple> tuples_;  // ordered by value
};

}  // namespace drsm::obs
