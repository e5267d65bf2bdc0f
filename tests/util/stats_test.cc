#include "src/util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace bsdtrace {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.sum(), 42.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i * 0.1;
    all.Add(x);
    (i < 37 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // no-op
  EXPECT_EQ(a.count(), 2);
  b.Merge(a);  // copies
  EXPECT_EQ(b.count(), 2);
  EXPECT_EQ(b.mean(), 2.0);
}

TEST(WeightedCdf, EmptyBehaviour) {
  WeightedCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.FractionAtOrBelow(10.0), 0.0);
  EXPECT_EQ(cdf.total_weight(), 0.0);
}

TEST(WeightedCdf, UnweightedFractions) {
  WeightedCdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    cdf.Add(v);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(100.0), 1.0);
}

TEST(WeightedCdf, WeightsShiftTheCurve) {
  WeightedCdf cdf;
  cdf.Add(1.0, 1.0);
  cdf.Add(10.0, 9.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.1);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(10.0), 1.0);
}

TEST(WeightedCdf, ZeroWeightIgnored) {
  WeightedCdf cdf;
  cdf.Add(5.0, 0.0);
  EXPECT_TRUE(cdf.empty());
}

TEST(WeightedCdf, Quantiles) {
  WeightedCdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_EQ(cdf.Quantile(0.5), 50.0);
  EXPECT_EQ(cdf.Quantile(0.9), 90.0);
  EXPECT_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_EQ(cdf.Quantile(0.0), 1.0);
}

TEST(WeightedCdf, MinMaxMean) {
  WeightedCdf cdf;
  cdf.Add(2.0, 1.0);
  cdf.Add(4.0, 3.0);
  EXPECT_EQ(cdf.MinValue(), 2.0);
  EXPECT_EQ(cdf.MaxValue(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 3.5);
}

TEST(WeightedCdf, DuplicateValuesAccumulate) {
  WeightedCdf cdf;
  cdf.Add(5.0, 2.0);
  cdf.Add(5.0, 2.0);
  cdf.Add(6.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 0.8);
}

TEST(WeightedCdf, InterleavedAddAndQuery) {
  WeightedCdf cdf;
  cdf.Add(1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 1.0);
  cdf.Add(3.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.5);
}

TEST(WeightedCdf, EvaluateMatchesPointQueries) {
  WeightedCdf cdf;
  for (double v : {1.0, 5.0, 9.0}) {
    cdf.Add(v);
  }
  const auto ys = cdf.Evaluate({0.0, 1.0, 5.0, 9.0});
  ASSERT_EQ(ys.size(), 4u);
  EXPECT_EQ(ys[0], 0.0);
  EXPECT_NEAR(ys[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(ys[2], 2.0 / 3, 1e-12);
  EXPECT_EQ(ys[3], 1.0);
}

// --- Reference twin ----------------------------------------------------------
//
// The raw-sample CDF that WeightedCdf's run-length storage replaced: every
// sample kept, sorted by (value, weight), prefix sums and the mean added one
// sample at a time.  Every WeightedCdf query must match it bit for bit.
class ReferenceCdf {
 public:
  void Add(double value, double weight) {
    if (weight > 0.0) {
      samples_.emplace_back(value, weight);
      sorted_ = false;
    }
  }
  void Merge(const ReferenceCdf& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }

  int64_t sample_count() const { return static_cast<int64_t>(samples_.size()); }
  double total_weight() { return samples_.empty() ? 0.0 : Sorted().back(); }
  double FractionAtOrBelow(double x) {
    if (samples_.empty() || Sorted().back() <= 0.0) {
      return 0.0;
    }
    size_t n = 0;
    while (n < samples_.size() && samples_[n].first <= x) {
      ++n;
    }
    return n == 0 ? 0.0 : cumulative_[n - 1] / cumulative_.back();
  }
  double Quantile(double q) {
    const double target = q * Sorted().back();
    for (size_t i = 0; i < samples_.size(); ++i) {
      if (cumulative_[i] >= target) {
        return samples_[i].first;
      }
    }
    return samples_.back().first;
  }
  double MinValue() {
    Sorted();
    return samples_.front().first;
  }
  double MaxValue() {
    Sorted();
    return samples_.back().first;
  }
  double Mean() {
    if (samples_.empty() || Sorted().back() <= 0.0) {
      return 0.0;
    }
    double acc = 0.0;
    for (const auto& [v, w] : samples_) {
      acc += v * w;
    }
    return acc / cumulative_.back();
  }
  // Distinct (value, weight) pairs.
  size_t distinct() {
    Sorted();
    size_t n = 0;
    for (size_t i = 0; i < samples_.size(); ++i) {
      n += (i == 0 || samples_[i] != samples_[i - 1]) ? 1 : 0;
    }
    return n;
  }
  const std::vector<std::pair<double, double>>& samples() {
    Sorted();
    return samples_;
  }

 private:
  const std::vector<double>& Sorted() {
    if (sorted_) {
      return cumulative_;
    }
    sorted_ = true;
    std::sort(samples_.begin(), samples_.end());
    cumulative_.clear();
    double running = 0.0;
    for (const auto& [v, w] : samples_) {
      running += w;
      cumulative_.push_back(running);
    }
    return cumulative_;
  }

  std::vector<std::pair<double, double>> samples_;
  std::vector<double> cumulative_;
  bool sorted_ = false;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Compares every query of `cdf` with the reference by bit pattern, at the
// reference's own sample values, between and around them, and on a grid of
// quantiles.
void ExpectSameAsReference(const WeightedCdf& cdf, ReferenceCdf& ref, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(cdf.sample_count(), ref.sample_count());
  ASSERT_EQ(cdf.empty(), ref.sample_count() == 0);
  EXPECT_EQ(Bits(cdf.total_weight()), Bits(ref.total_weight()));
  EXPECT_EQ(Bits(cdf.Mean()), Bits(ref.Mean()));
  if (ref.sample_count() == 0) {
    EXPECT_EQ(Bits(cdf.FractionAtOrBelow(1.0)), Bits(0.0));
    return;
  }
  EXPECT_EQ(Bits(cdf.MinValue()), Bits(ref.MinValue()));
  EXPECT_EQ(Bits(cdf.MaxValue()), Bits(ref.MaxValue()));
  for (int i = 0; i <= 64; ++i) {
    const double q = i / 64.0;
    EXPECT_EQ(Bits(cdf.Quantile(q)), Bits(ref.Quantile(q))) << "q=" << q;
  }
  std::vector<double> xs = {ref.MinValue() - 1.0, ref.MaxValue() + 1.0};
  const auto& samples = ref.samples();
  for (size_t i = 0; i < samples.size(); i += 1 + samples.size() / 50) {
    xs.push_back(samples[i].first);
    xs.push_back(samples[i].first + 0.005);
  }
  for (double x : xs) {
    EXPECT_EQ(Bits(cdf.FractionAtOrBelow(x)), Bits(ref.FractionAtOrBelow(x))) << "x=" << x;
  }
  // A query above folded everything: the runs are canonical and unique.
  const std::vector<WeightedCdf::Run>& runs = cdf.runs();
  EXPECT_EQ(runs.size(), ref.distinct());
  for (size_t i = 1; i < runs.size(); ++i) {
    ASSERT_TRUE(runs[i - 1].value < runs[i].value ||
                (runs[i - 1].value == runs[i].value && runs[i - 1].weight < runs[i].weight));
  }
}

// Heavy-duplicate samples: values from a small quantized pool (integral, 10 ms
// steps, and a few odd fractions), weights integral, fractional or zero.
std::pair<double, double> DrawSample(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> pick(0, 99);
  double value = 0.0;
  switch (pick(rng) % 3) {
    case 0:
      value = static_cast<double>(pick(rng) * 512);
      break;
    case 1:
      value = pick(rng) * 0.01;
      break;
    default:
      value = pick(rng) / 7.0;
      break;
  }
  double weight = 1.0;
  const int w = pick(rng);
  if (w < 10) {
    weight = 0.0;
  } else if (w < 40) {
    weight = static_cast<double>(1 + pick(rng) % 5) * 4096.0;
  } else if (w < 55) {
    weight = 0.1 * (1 + pick(rng) % 3);
  } else if (w < 60) {
    weight = value;  // like Fig. 1b: a run weighted by its own length
  }
  return {value, weight};
}

TEST(WeightedCdfReference, RandomAddMergeSplitsMatchRawSamples) {
  std::mt19937_64 rng(1985);
  for (int round = 0; round < 40; ++round) {
    // Split one stream over several CDFs, merge them in a random order, and
    // keep a reference per CDF and for the whole.
    const int parts = 1 + static_cast<int>(rng() % 5);
    std::vector<WeightedCdf> cdfs(parts);
    std::vector<ReferenceCdf> refs(parts);
    ReferenceCdf whole;
    const int samples = static_cast<int>(rng() % 4000);
    for (int i = 0; i < samples; ++i) {
      const auto [value, weight] = DrawSample(rng);
      const size_t k = rng() % parts;
      cdfs[k].Add(value, weight);
      refs[k].Add(value, weight);
      whole.Add(value, weight);
      if (i % 997 == 0) {
        // A query mid-stream folds the frontier; later adds must still match.
        ExpectSameAsReference(cdfs[k], refs[k], "mid-stream part");
      }
    }
    for (int k = 0; k < parts; ++k) {
      ExpectSameAsReference(cdfs[k], refs[k], "part " + std::to_string(k));
    }
    std::vector<int> order(parts);
    for (int k = 0; k < parts; ++k) {
      order[k] = k;
    }
    std::shuffle(order.begin(), order.end(), rng);
    WeightedCdf merged;
    for (int k : order) {
      merged.Merge(cdfs[k]);
    }
    ExpectSameAsReference(merged, whole, "merged round " + std::to_string(round));
  }
}

// Merging unfolded CDFs (frontier only) and folded ones (levels only) in
// either order, and a CDF merged with a copy of itself.
TEST(WeightedCdfReference, MergeOfFoldedAndUnfoldedParts) {
  std::mt19937_64 rng(7);
  WeightedCdf a, b;
  ReferenceCdf ra, rb;
  for (int i = 0; i < 3000; ++i) {
    const auto [value, weight] = DrawSample(rng);
    (i % 2 == 0 ? a : b).Add(value, weight);
    (i % 2 == 0 ? ra : rb).Add(value, weight);
  }
  ExpectSameAsReference(a, ra, "folded a");  // a folds, b stays a frontier
  WeightedCdf ab = a;
  ab.Merge(b);
  WeightedCdf ba = b;
  ba.Merge(a);
  ReferenceCdf rab = ra;
  rab.Merge(rb);
  ExpectSameAsReference(ab, rab, "folded + frontier");
  ExpectSameAsReference(ba, rab, "frontier + folded");
  WeightedCdf twice = ab;
  twice.Merge(WeightedCdf(ab));
  ReferenceCdf rtwice = rab;
  rtwice.Merge(rab);
  ExpectSameAsReference(twice, rtwice, "self copy");
}

// Copies taken mid-stream share the folded levels with the original; adding
// to one afterwards must not show through to the other.
TEST(WeightedCdfReference, MidStreamCopiesStayIndependent) {
  std::mt19937_64 rng(42);
  WeightedCdf cdf;
  ReferenceCdf ref;
  std::vector<std::pair<WeightedCdf, ReferenceCdf>> copies;
  for (int i = 0; i < 20000; ++i) {
    const auto [value, weight] = DrawSample(rng);
    cdf.Add(value, weight);
    ref.Add(value, weight);
    if (i % 4000 == 1999) {
      WeightedCdf piece;
      piece.Add(value, 1.0);
      cdf.Merge(piece);  // folds the frontier into a new level
      ref.Add(value, 1.0);
      copies.emplace_back(cdf, ref);
    }
  }
  ExpectSameAsReference(cdf, ref, "original");
  for (size_t i = 0; i < copies.size(); ++i) {
    ExpectSameAsReference(copies[i].first, copies[i].second, "copy " + std::to_string(i));
    // Diverge the copy; the original must not move.
    copies[i].first.Add(12345.0, 3.0);
    copies[i].second.Add(12345.0, 3.0);
    ExpectSameAsReference(copies[i].first, copies[i].second, "diverged copy");
  }
  ExpectSameAsReference(cdf, ref, "original after copies diverged");
}

// Enough distinct keys to fold the frontier on its own several times, and
// integral weights whose running sum passes 2^53, where repeated addition
// starts to round.
TEST(WeightedCdfReference, LargeFrontiersAndInexactSums) {
  std::mt19937_64 rng(99);
  WeightedCdf cdf;
  ReferenceCdf ref;
  const size_t distinct = 3 * WeightedCdf::kFrontierKeys;
  for (size_t i = 0; i < distinct; ++i) {
    const double value = static_cast<double>(rng() % (2 * distinct));
    cdf.Add(value, 1.0);
    ref.Add(value, 1.0);
  }
  for (int i = 0; i < 5000; ++i) {
    const double weight = std::ldexp(1.0, 41) + static_cast<double>(i % 3);
    cdf.Add(7.0, weight);
    ref.Add(7.0, weight);
  }
  ExpectSameAsReference(cdf, ref, "large");
}

TEST(WeightedCdf, MovedFromIsEmpty) {
  WeightedCdf a;
  a.Add(1.0);
  a.Add(2.0, 3.0);
  WeightedCdf b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.sample_count(), 0);
  EXPECT_EQ(a.stored_entries(), 0u);
  EXPECT_EQ(b.sample_count(), 2);
  a.Add(5.0);
  EXPECT_EQ(a.MaxValue(), 5.0);
}

// Memory follows the distinct (value, weight) pairs, not the samples.
TEST(WeightedCdf, StoredEntriesFollowDistinctKeys) {
  WeightedCdf cdf;
  for (int i = 0; i < 200000; ++i) {
    cdf.Add(static_cast<double>(i % 100) * 0.01, static_cast<double>(1 + i % 3));
  }
  EXPECT_EQ(cdf.sample_count(), 200000);
  EXPECT_EQ(cdf.stored_entries(), 300u);
  EXPECT_EQ(cdf.runs().size(), 300u);
}

TEST(Histogram, LinearBuckets) {
  Histogram h = Histogram::Linear(0, 10, 5);
  h.Add(-1);   // underflow
  h.Add(0.5);  // [0,2)
  h.Add(9.9);  // [8,10)
  h.Add(10);   // overflow (>= last bound)
  EXPECT_EQ(h.total_weight(), 4.0);
  EXPECT_EQ(h.bucket_weight(0), 1.0);
  EXPECT_EQ(h.bucket_weight(1), 1.0);
  EXPECT_EQ(h.bucket_weight(5), 1.0);
  EXPECT_EQ(h.bucket_weight(6), 1.0);
}

TEST(Histogram, ExponentialBuckets) {
  Histogram h = Histogram::Exponential(1, 2, 4);  // bounds 1,2,4,8,16
  h.Add(3);
  h.Add(3);
  h.Add(20);
  EXPECT_EQ(h.bucket_weight(2), 2.0);  // [2,4)
  EXPECT_EQ(h.bucket_weight(5), 1.0);  // overflow
}

TEST(Histogram, WeightedAdds) {
  Histogram h = Histogram::Linear(0, 4, 2);
  h.Add(1.0, 5.0);
  EXPECT_EQ(h.total_weight(), 5.0);
  EXPECT_EQ(h.bucket_weight(1), 5.0);
}

TEST(Histogram, CumulativeFractionInterpolates) {
  Histogram h = Histogram::Linear(0, 10, 10);
  for (int i = 0; i < 10; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_NEAR(h.CumulativeFraction(5.0), 0.5, 0.05);
  EXPECT_EQ(h.CumulativeFraction(-1.0), 0.0);
  EXPECT_NEAR(h.CumulativeFraction(10.0), 1.0, 1e-12);
}

TEST(Histogram, BucketLabels) {
  Histogram h = Histogram::Linear(0, 10, 2);
  EXPECT_EQ(h.BucketLabel(0), "(-inf, 0)");
  EXPECT_EQ(h.BucketLabel(1), "[0, 5)");
  EXPECT_EQ(h.BucketLabel(2), "[5, 10)");
  EXPECT_EQ(h.BucketLabel(3), "[10, +inf)");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4096), "4.0 KB");
  EXPECT_EQ(FormatBytes(400 * 1024), "400.0 KB");
  EXPECT_EQ(FormatBytes(16.0 * 1024 * 1024), "16.0 MB");
  EXPECT_EQ(FormatBytes(2.0 * 1024 * 1024 * 1024), "2.0 GB");
}

TEST(FormatPercent, Decimals) {
  EXPECT_EQ(FormatPercent(0.576), "57.6%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

}  // namespace
}  // namespace bsdtrace
