#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace bsdtrace {

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

using Run = WeightedCdf::Run;

bool KeyLess(const Run& a, const Run& b) {
  return a.value < b.value || (a.value == b.value && a.weight < b.weight);
}

// Merges two canonical run arrays; equal (value, weight) keys add counts.
std::vector<Run> MergeRuns(const std::vector<Run>& a, const std::vector<Run>& b) {
  std::vector<Run> out;
  out.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (KeyLess(a[i], b[j])) {
      out.push_back(a[i++]);
    } else if (KeyLess(b[j], a[i])) {
      out.push_back(b[j++]);
    } else {
      out.push_back({a[i].value, a[i].weight, a[i].count + b[j].count});
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return out;
}

// Sorts unsorted runs into canonical order, coalescing equal keys.  Ties on
// value are broken by weight, the order every query walks.
void Canonicalize(std::vector<Run>* runs) {
  std::sort(runs->begin(), runs->end(), KeyLess);
  size_t out = 0;
  for (const Run& run : *runs) {
    if (out > 0 && !KeyLess((*runs)[out - 1], run)) {
      (*runs)[out - 1].count += run.count;
    } else {
      (*runs)[out++] = run;
    }
  }
  runs->resize(out);
}

// acc + x added n times, one rounded addition at a time.  When x and acc
// are integers and every partial sum stays below 2^53, each addition is
// exact, so one multiply-add yields the same bits as the loop.
double AddRepeated(double acc, double x, uint64_t n) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const double total = x * static_cast<double>(n);
  if (x == std::trunc(x) && acc == std::trunc(acc) && std::fabs(total) < kExactLimit &&
      std::fabs(acc) < kExactLimit && std::fabs(acc + total) < kExactLimit) {
    return acc + total;
  }
  for (uint64_t k = 0; k < n; ++k) {
    acc += x;
  }
  return acc;
}

}  // namespace

WeightedCdf& WeightedCdf::operator=(WeightedCdf&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  levels_ = std::move(other.levels_);
  table_ = std::move(other.table_);
  table_keys_ = std::exchange(other.table_keys_, 0);
  table_samples_ = std::exchange(other.table_samples_, 0);
  slot_mask_ = std::exchange(other.slot_mask_, 0);
  slot_shift_ = std::exchange(other.slot_shift_, 64);
  cumulative_ = std::move(other.cumulative_);
  other.levels_.clear();
  other.table_.clear();
  other.cumulative_.clear();
  return *this;
}

int64_t WeightedCdf::sample_count() const {
  uint64_t samples = table_samples_;
  for (const auto& level : levels_) {
    samples += level->samples;
  }
  return static_cast<int64_t>(samples);
}

size_t WeightedCdf::stored_entries() const {
  size_t entries = table_keys_;
  for (const auto& level : levels_) {
    entries += level->runs.size();
  }
  return entries;
}

void WeightedCdf::ResizeTable(size_t slots) const {
  std::vector<Run> old(slots);
  old.swap(table_);
  slot_mask_ = slots - 1;
  slot_shift_ = std::countl_zero(slots) + 1;
  for (const Run& run : old) {
    if (run.count > 0) {
      size_t i = SlotOf(run.value, run.weight);
      while (table_[i].count > 0) {
        i = (i + 1) & slot_mask_;
      }
      table_[i] = run;
    }
  }
}

void WeightedCdf::Insert(const Run& run) const {
  if (table_.empty()) {
    ResizeTable(kInitialSlots);
  }
  table_samples_ += run.count;
  size_t i = SlotOf(run.value, run.weight);
  for (; table_[i].count > 0; i = (i + 1) & slot_mask_) {
    if (table_[i].value == run.value && table_[i].weight == run.weight) {
      table_[i].count += run.count;
      return;
    }
  }
  table_[i] = run;
  if (++table_keys_ >= kFrontierKeys) {
    FoldTable();
  } else if (table_keys_ * 4 >= table_.size() * 3) {
    ResizeTable(table_.size() * 2);
  }
}

void WeightedCdf::FoldTable(std::vector<Run> batch) const {
  for (const Run& slot : table_) {
    if (slot.count > 0) {
      batch.push_back(slot);
    }
  }
  table_ = {};
  table_keys_ = 0;
  table_samples_ = 0;
  if (batch.empty()) {
    return;
  }
  Canonicalize(&batch);
  auto level = std::make_shared<Level>();
  for (const Run& run : batch) {
    level->samples += run.count;
  }
  level->runs = std::move(batch);
  PushLevel(std::move(level));
}

void WeightedCdf::MergeLastLevels() const {
  const Level& a = *levels_[levels_.size() - 2];
  const Level& b = *levels_.back();
  auto merged = std::make_shared<Level>();
  merged->runs = MergeRuns(a.runs, b.runs);
  merged->samples = a.samples + b.samples;
  levels_.pop_back();
  levels_.back() = std::move(merged);
}

void WeightedCdf::PushLevel(std::shared_ptr<const Level> level) const {
  levels_.push_back(std::move(level));
  while (levels_.size() >= 2 &&
         levels_[levels_.size() - 2]->runs.size() <= 2 * levels_.back()->runs.size()) {
    MergeLastLevels();
  }
  cumulative_.clear();
}

void WeightedCdf::Merge(const WeightedCdf& other) {
  if (other.empty()) {
    return;
  }
  for (const auto& level : other.levels_) {
    PushLevel(level);  // shared, not copied
  }
  std::vector<Run> batch;
  batch.reserve(other.table_keys_);
  for (const Run& slot : other.table_) {
    if (slot.count > 0) {
      batch.push_back(slot);
    }
  }
  // Folds this CDF's frontier too, leaving the merged CDF all levels.
  FoldTable(std::move(batch));
}

const std::vector<Run>& WeightedCdf::runs() const {
  static const std::vector<Run> kNoRuns;
  if (table_keys_ > 0) {
    FoldTable();
  }
  while (levels_.size() > 1) {
    MergeLastLevels();
  }
  return levels_.empty() ? kNoRuns : levels_.front()->runs;
}

void WeightedCdf::EnsureCumulative() const {
  const std::vector<Run>& canonical = runs();
  if (!cumulative_.empty()) {
    return;
  }
  cumulative_.reserve(canonical.size());
  double running = 0.0;
  for (const Run& run : canonical) {
    running = AddRepeated(running, run.weight, run.count);
    cumulative_.push_back(running);
  }
}

double WeightedCdf::total_weight() const {
  if (empty()) {
    return 0.0;
  }
  EnsureCumulative();
  return cumulative_.back();
}

double WeightedCdf::FractionAtOrBelow(double x) const {
  if (empty()) {
    return 0.0;
  }
  EnsureCumulative();
  const double total = cumulative_.back();
  if (total <= 0.0) {
    return 0.0;
  }
  // Last run with value <= x.
  const std::vector<Run>& canonical = runs();
  auto it = std::upper_bound(canonical.begin(), canonical.end(), x,
                             [](double v, const Run& r) { return v < r.value; });
  if (it == canonical.begin()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(it - canonical.begin()) - 1;
  return cumulative_[idx] / total;
}

double WeightedCdf::Quantile(double q) const {
  assert(!empty());
  assert(q >= 0.0 && q <= 1.0);
  EnsureCumulative();
  const std::vector<Run>& canonical = runs();
  // Prefix sums only grow within a run, so the first sample reaching the
  // target lies in the first run whose end reaches it.
  const double target = q * cumulative_.back();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) {
    return canonical.back().value;
  }
  return canonical[static_cast<size_t>(it - cumulative_.begin())].value;
}

double WeightedCdf::MinValue() const {
  assert(!empty());
  return runs().front().value;
}

double WeightedCdf::MaxValue() const {
  assert(!empty());
  return runs().back().value;
}

double WeightedCdf::Mean() const {
  if (empty()) {
    return 0.0;
  }
  EnsureCumulative();
  const double total = cumulative_.back();
  if (total <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  for (const Run& run : runs()) {
    acc = AddRepeated(acc, run.value * run.weight, run.count);
  }
  return acc / total;
}

std::vector<double> WeightedCdf::Evaluate(const std::vector<double>& xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    out.push_back(FractionAtOrBelow(x));
  }
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i] > bounds_[i - 1]);
  }
  counts_.assign(bounds_.size() + 1, 0.0);
}

Histogram Histogram::Linear(double lo, double hi, size_t buckets) {
  assert(buckets >= 1 && hi > lo);
  std::vector<double> bounds;
  bounds.reserve(buckets + 1);
  for (size_t i = 0; i <= buckets; ++i) {
    bounds.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(buckets));
  }
  return Histogram(std::move(bounds));
}

Histogram Histogram::Exponential(double first_bound, double factor, size_t buckets) {
  assert(buckets >= 1 && first_bound > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(buckets + 1);
  double b = first_bound;
  for (size_t i = 0; i <= buckets; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::Add(double x, double weight) {
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  counts_[idx] += weight;
  total_ += weight;
}

std::string Histogram::BucketLabel(size_t i) const {
  char buf[64];
  if (i == 0) {
    std::snprintf(buf, sizeof(buf), "(-inf, %g)", bounds_.front());
  } else if (i == counts_.size() - 1) {
    std::snprintf(buf, sizeof(buf), "[%g, +inf)", bounds_.back());
  } else {
    std::snprintf(buf, sizeof(buf), "[%g, %g)", bounds_[i - 1], bounds_[i]);
  }
  return buf;
}

double Histogram::CumulativeFraction(double x) const {
  if (total_ <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  // Underflow bucket is entirely below bounds_[0].
  if (x < bounds_.front()) {
    // Cannot interpolate an unbounded bucket; report zero below the range.
    return 0.0;
  }
  acc += counts_[0];
  for (size_t i = 1; i < counts_.size(); ++i) {
    const double lo = bounds_[i - 1];
    const double hi = (i < bounds_.size()) ? bounds_[i] : lo;
    if (i == counts_.size() - 1) {
      // Overflow bucket: include fully only if x is at/above its start.
      if (x >= lo) {
        acc += counts_[i];
      }
      break;
    }
    if (x >= hi) {
      acc += counts_[i];
    } else {
      acc += counts_[i] * (x - lo) / (hi - lo);
      break;
    }
  }
  return acc / total_;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  double v = bytes;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace bsdtrace
