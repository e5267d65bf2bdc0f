// Streaming statistics, histograms, and weighted empirical CDFs.
//
// These are the measurement primitives behind every table and figure in the
// paper: Table IV needs means and standard deviations over intervals, and
// Figures 1-4 are cumulative distributions weighted either by count ("percent
// of files") or by a secondary weight ("percent of bytes").

#ifndef BSDTRACE_SRC_UTIL_STATS_H_
#define BSDTRACE_SRC_UTIL_STATS_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bsdtrace {

// Single-pass mean / variance / extrema (Welford's algorithm).
class RunningStats {
 public:
  // Inline: the cache simulator calls this once per eviction.
  void Add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// An empirical distribution built from weighted samples.  Supports the two
// query directions the paper uses: "what fraction of weight lies at or below
// x" (reading a CDF curve) and "what x bounds a given fraction" (quantiles).
//
// Storage is run-length, so memory follows the distinct (value, weight)
// pairs rather than the samples: the paper's measurements are quantized
// (10 ms times, integral lengths and byte weights) and repeat heavily.
//   * New samples land in the frontier, an open-addressed hash table that
//     counts repeats of a (value, weight) in place: Add() is one probe.
//   * Once the frontier holds kFrontierKeys distinct keys it folds into a
//     sorted, unique (value, weight, count) run level.
//   * Levels are immutable and shared between copies.  Each is more than
//     twice the size of the next; a new level merges into its predecessor
//     until that holds again, so a merge costs O(log) amortized per entry
//     and the levels together hold under twice the distinct pairs.
// Merge() adopts the other CDF's levels and folds its frontier, so absorbing
// a small CDF into a large one costs O(small), and copying a folded CDF (a
// live snapshot) costs O(levels).
//
// A query first folds the frontier and merges the levels into one canonical
// (value, weight)-sorted run array.  Every query — including total_weight()
// and Mean() — then adds sample by sample in that order, a run contributing
// `count` identical additions, so results are bit-identical to sorting the
// raw samples and depend only on the multiset, never on insertion or merge
// order.  That is what lets a parallel or rolling analysis reproduce the
// serial pass bit for bit.  Since const queries fold lazily, a CDF needs
// external synchronization when one thread queries it while another adds to
// or queries the same object; copies may be used from different threads.
class WeightedCdf {
 public:
  // `count` samples of the same (value, weight).
  struct Run {
    double value = 0.0;
    double weight = 0.0;
    uint64_t count = 0;
    bool operator==(const Run&) const = default;
  };

  // Distinct keys at which the frontier folds into a level.
  static constexpr size_t kFrontierKeys = 65536;

  WeightedCdf() = default;
  WeightedCdf(const WeightedCdf&) = default;
  WeightedCdf& operator=(const WeightedCdf&) = default;
  // A moved-from CDF is empty.
  WeightedCdf(WeightedCdf&& other) noexcept { *this = std::move(other); }
  WeightedCdf& operator=(WeightedCdf&& other) noexcept;

  // Adds a sample with weight 1.
  void Add(double value) { Add(value, 1.0); }
  // Adds a sample with the given non-negative weight.
  void Add(double value, double weight) {
    assert(weight >= 0.0);
    if (weight == 0.0) {
      return;
    }
    if (!table_.empty()) {
      for (size_t i = SlotOf(value, weight);; i = (i + 1) & slot_mask_) {
        Run& slot = table_[i];
        // Free slots hold weight 0, which no sample has.
        if (slot.value == value && slot.weight == weight) {
          ++slot.count;
          ++table_samples_;
          return;
        }
        if (slot.count == 0) {
          break;
        }
      }
    }
    Insert({value, weight, 1});
  }

  // Absorbs all of other's samples (parallel reduction).
  void Merge(const WeightedCdf& other);

  // Folds the frontier into a run level now instead of at the next query or
  // Merge(), e.g. on a parallel worker before a serial merge.
  void Fold() { FoldTable(); }

  int64_t sample_count() const;
  double total_weight() const;
  bool empty() const { return sample_count() == 0; }

  // Fraction of total weight with value <= x, in [0, 1].
  double FractionAtOrBelow(double x) const;

  // Smallest sample value v such that FractionAtOrBelow(v) >= q.
  // q must be in [0, 1]; returns the max sample for q = 1.
  double Quantile(double q) const;

  double MinValue() const;
  double MaxValue() const;
  // Weighted mean of the samples.
  double Mean() const;

  // Evaluates the CDF at each of the given x positions (for plotting).
  std::vector<double> Evaluate(const std::vector<double>& xs) const;

  // The canonical run array: folds the frontier and merges the levels into
  // one.  Also the exact-comparison hook of the serial/parallel/live parity
  // checks.
  const std::vector<Run>& runs() const;

  // Entries held in memory: level runs plus distinct frontier keys.  Below
  // twice the distinct (value, weight) pairs plus kFrontierKeys.
  size_t stored_entries() const;

 private:
  // An immutable sorted run level, shared by every copy that holds it.
  struct Level {
    std::vector<Run> runs;
    uint64_t samples = 0;  // sum of the runs' counts
  };

  static constexpr size_t kInitialSlots = 256;

  // Home slot of a key: the top bits of a multiplicative hash, as many as
  // the table size needs.
  size_t SlotOf(double value, double weight) const {
    const uint64_t h = std::bit_cast<uint64_t>(value) * 0x9E3779B97F4A7C15ull ^
                       std::bit_cast<uint64_t>(weight) * 0xC2B2AE3D27D4EB4Full;
    return static_cast<size_t>(h >> slot_shift_);
  }
  // Counts `run` into table_, growing or folding the table as it fills.
  void Insert(const Run& run) const;
  // Rebuilds table_ with `slots` slots (a power of two).
  void ResizeTable(size_t slots) const;
  // Folds table_ plus the unsorted runs in `batch` into a new level.
  void FoldTable(std::vector<Run> batch = {}) const;
  // Appends a level, merging it into its predecessors while a predecessor
  // is not more than twice its size.
  void PushLevel(std::shared_ptr<const Level> level) const;
  // Replaces the last two levels with their merge (new memory: the old
  // levels may be shared).
  void MergeLastLevels() const;
  // runs(), plus cumulative_ filled if a change emptied it.
  void EnsureCumulative() const;

  mutable std::vector<std::shared_ptr<const Level>> levels_;
  // The frontier: a power-of-two hash table of runs, under three quarters
  // full, whose free slots have count 0; empty when the frontier is.
  mutable std::vector<Run> table_;
  mutable size_t table_keys_ = 0;
  mutable uint64_t table_samples_ = 0;
  mutable size_t slot_mask_ = 0;  // table_.size() - 1
  mutable int slot_shift_ = 64;   // 64 - log2(table_.size())
  // Prefix sums of weight at the end of each canonical run; empty until a
  // query needs them, and emptied whenever the levels change.
  mutable std::vector<double> cumulative_;
};

// Fixed-boundary histogram.  Bucket i covers [bounds[i-1], bounds[i]); an
// underflow bucket covers (-inf, bounds[0]) and an overflow bucket
// [bounds.back(), +inf).  Used for interval-based measurements and reporting.
class Histogram {
 public:
  // Bounds must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  // Convenience factories.
  static Histogram Linear(double lo, double hi, size_t buckets);
  static Histogram Exponential(double first_bound, double factor, size_t buckets);

  void Add(double x) { Add(x, 1.0); }
  void Add(double x, double weight);

  size_t bucket_count() const { return counts_.size(); }  // includes under/overflow
  double bucket_weight(size_t i) const { return counts_[i]; }
  double total_weight() const { return total_; }
  // Bucket label like "[4096, 8192)"; index as for bucket_weight.
  std::string BucketLabel(size_t i) const;

  // Fraction of weight at or below x (linear interpolation within buckets).
  double CumulativeFraction(double x) const;

 private:
  std::vector<double> bounds_;
  std::vector<double> counts_;  // size bounds_.size() + 1
  double total_ = 0.0;
};

// Formats a byte count with binary units, e.g. "384 KB", "4.0 MB".
std::string FormatBytes(double bytes);

// Formats a fraction as a percentage with the given precision, e.g. "57.6%".
std::string FormatPercent(double fraction, int decimals = 1);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_UTIL_STATS_H_
