// End-to-end tests: generate a synthetic trace, push it through every
// analysis and the cache simulator, and assert the paper's qualitative
// findings hold.  These are the repository's "does the reproduction
// reproduce?" checks, run on a short trace so the suite stays fast; the
// bench binaries run the full-scale versions.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/cache/sweep.h"
#include "src/trace/trace_io.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.duration = Duration::Hours(6);
    options.seed = 1985;
    result_ = new GenerationResult(GenerateTrace(ProfileA5(), options));
    analysis_ = new TraceAnalysis(AnalyzeForTest(result_->trace));
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete result_;
    analysis_ = nullptr;
    result_ = nullptr;
  }

  const Trace& trace() { return result_->trace; }
  const TraceAnalysis& analysis() { return *analysis_; }

  static GenerationResult* result_;
  static TraceAnalysis* analysis_;
};

GenerationResult* EndToEndTest::result_ = nullptr;
TraceAnalysis* EndToEndTest::analysis_ = nullptr;

TEST_F(EndToEndTest, TraceValidates) {
  const ValidationResult v = ValidateTrace(trace());
  EXPECT_TRUE(v.ok()) << v.Summary();
}

TEST_F(EndToEndTest, TraceSurvivesBinaryRoundTrip) {
  const std::string path = TempPath("end_to_end.trc");
  ASSERT_TRUE(SaveTrace(path, trace()).ok());
  auto loaded = LoadTrace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), trace());
}

TEST_F(EndToEndTest, MostAccessesAreSequential) {
  // Paper Table V: >90% of read-only and write-only accesses sequential.
  EXPECT_GT(analysis().sequentiality.Mode(AccessMode::kReadOnly).SequentialFraction(), 0.85);
  EXPECT_GT(analysis().sequentiality.Mode(AccessMode::kWriteOnly).SequentialFraction(), 0.90);
}

TEST_F(EndToEndTest, MostAccessesAreWholeFile) {
  // Paper: about two thirds of accesses are whole-file transfers.
  const ModeSequentiality total = analysis().sequentiality.Total();
  const double frac =
      static_cast<double>(total.whole_file) / static_cast<double>(total.accesses);
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.95);
}

TEST_F(EndToEndTest, MostFilesAccessedAreShort) {
  // Paper Fig. 2a: ~80% of accesses are to files under 10 KB.
  EXPECT_GT(analysis().file_sizes.by_accesses.FractionAtOrBelow(10 * 1024), 0.6);
}

TEST_F(EndToEndTest, LongFilesCarryTheBytes) {
  // Paper Fig. 2b: files under 10 KB carry well under half the bytes.
  EXPECT_LT(analysis().file_sizes.by_bytes.FractionAtOrBelow(10 * 1024), 0.6);
}

TEST_F(EndToEndTest, MostOpensAreShort) {
  // Paper Fig. 3: ~75% under 0.5 s, ~90% under 10 s.
  EXPECT_GT(analysis().open_times.seconds.FractionAtOrBelow(0.5), 0.6);
  EXPECT_GT(analysis().open_times.seconds.FractionAtOrBelow(10.0), 0.85);
  // But a real tail exists.
  EXPECT_LT(analysis().open_times.seconds.FractionAtOrBelow(10.0), 0.999);
}

TEST_F(EndToEndTest, DaemonLifetimeSpikeAt180s) {
  // Paper Fig. 4: a pronounced concentration of lifetimes at ~3 minutes.
  EXPECT_GT(analysis().lifetimes.FileFractionIn(175, 185), 0.15);
}

TEST_F(EndToEndTest, MostNewFilesDieYoung) {
  // Paper: ~80% of new files dead within ~3 minutes of creation.
  EXPECT_GT(analysis().lifetimes.by_files.FractionAtOrBelow(200.0), 0.6);
}

TEST_F(EndToEndTest, NewBytesDieYoungToo) {
  // Paper Table I: 20-30% of new bytes dead within 30 s, ~50% within 5 min.
  const double at30 = analysis().lifetimes.by_bytes.FractionAtOrBelow(30.0);
  const double at300 = analysis().lifetimes.by_bytes.FractionAtOrBelow(300.0);
  EXPECT_GT(at30, 0.10);
  EXPECT_GT(at300, 0.35);
  EXPECT_GT(at300, at30);
}

TEST_F(EndToEndTest, PerUserThroughputIsLow) {
  // Paper Table IV: a few hundred bytes/second per active user.
  const double tpu = analysis().activity.ten_minute.throughput_per_user.mean();
  EXPECT_GT(tpu, 30.0);
  EXPECT_LT(tpu, 3000.0);
}

TEST_F(EndToEndTest, BurstinessAcrossIntervalLengths) {
  // Paper: 10-second intervals show fewer concurrent users with higher
  // per-user rates than 10-minute intervals.
  const ActivityStats& a = analysis().activity;
  EXPECT_LT(a.ten_second.active_users.mean(), a.ten_minute.active_users.mean());
  EXPECT_GT(a.ten_second.throughput_per_user.mean(),
            a.ten_minute.throughput_per_user.mean());
}

TEST_F(EndToEndTest, UnixCacheHalvesTraffic) {
  // Paper: the 400 KB / 30 s-flush UNIX configuration cuts disk accesses
  // roughly in half.
  CacheConfig unix_cache;
  unix_cache.size_bytes = 400 << 10;
  unix_cache.policy = WritePolicy::kFlushBack;
  unix_cache.flush_interval = Duration::Seconds(30);
  const CacheMetrics m = SimulateCache(trace(), unix_cache);
  EXPECT_LT(m.MissRatio(), 0.75);
  EXPECT_GT(m.MissRatio(), 0.25);
}

TEST_F(EndToEndTest, BigDelayedWriteCacheEliminatesMostTraffic) {
  CacheConfig big;
  big.size_bytes = 16u << 20;
  big.policy = WritePolicy::kDelayedWrite;
  const CacheMetrics m = SimulateCache(trace(), big);
  EXPECT_LT(m.MissRatio(), 0.25);
}

TEST_F(EndToEndTest, PolicyOrderingOnRealisticTrace) {
  std::vector<CacheConfig> configs;
  for (int p = 0; p < 4; ++p) {
    CacheConfig c;
    c.size_bytes = 4u << 20;
    switch (p) {
      case 0:
        c.policy = WritePolicy::kWriteThrough;
        break;
      case 1:
        c.policy = WritePolicy::kFlushBack;
        c.flush_interval = Duration::Seconds(30);
        break;
      case 2:
        c.policy = WritePolicy::kFlushBack;
        c.flush_interval = Duration::Minutes(5);
        break;
      default:
        c.policy = WritePolicy::kDelayedWrite;
    }
    configs.push_back(c);
  }
  const auto points = RunCacheSweep(ReplayLog::Build(trace()), configs);
  EXPECT_GT(points[0].metrics.MissRatio(), points[1].metrics.MissRatio());
  EXPECT_GT(points[1].metrics.MissRatio(), points[2].metrics.MissRatio());
  EXPECT_GT(points[2].metrics.MissRatio(), points[3].metrics.MissRatio());
}

TEST_F(EndToEndTest, ManyNewBlocksDieInLargeDelayedWriteCache) {
  // Paper §6.2: with large caches most newly-written blocks never reach disk.
  CacheConfig big;
  big.size_bytes = 16u << 20;
  big.policy = WritePolicy::kDelayedWrite;
  const CacheMetrics m = SimulateCache(trace(), big);
  const double discarded = static_cast<double>(m.dirty_discarded) /
                           static_cast<double>(m.dirty_discarded + m.disk_writes);
  EXPECT_GT(discarded, 0.5);
}

TEST_F(EndToEndTest, PageinHelpsLargeCachesHurtsSmall) {
  // Paper Fig. 7 crossover.
  CacheConfig small;
  small.size_bytes = 390 << 10;
  small.policy = WritePolicy::kDelayedWrite;
  CacheConfig small_page = small;
  small_page.simulate_execve_pagein = true;
  CacheConfig big = small;
  big.size_bytes = 16u << 20;
  CacheConfig big_page = big;
  big_page.simulate_execve_pagein = true;

  const double small_off = SimulateCache(trace(), small).MissRatio();
  const double small_on = SimulateCache(trace(), small_page).MissRatio();
  const double big_off = SimulateCache(trace(), big).MissRatio();
  const double big_on = SimulateCache(trace(), big_page).MissRatio();
  EXPECT_GT(small_on, small_off);  // paging hurts the small cache
  EXPECT_LT(big_on, big_off);      // and helps the big one
}

TEST_F(EndToEndTest, EventMixRoughlyMatchesTableIII) {
  const OverallStats& o = analysis().overall;
  // Opens (incl. creates) are the most common event after closes; seeks are
  // a substantial minority; truncates are rare.
  EXPECT_GT(o.Fraction(EventType::kOpen) + o.Fraction(EventType::kCreate), 0.25);
  EXPECT_GT(o.Fraction(EventType::kSeek), 0.04);
  EXPECT_LT(o.Fraction(EventType::kTruncate), 0.01);
  EXPECT_GT(o.Fraction(EventType::kExecve), 0.02);
  EXPECT_LT(o.Fraction(EventType::kExecve), 0.15);
}

TEST_F(EndToEndTest, InterEventIntervalsBoundTransferTimes) {
  // Paper §3.1: 75% of same-open event gaps under .5 s, 90% under 10 s.
  const WeightedCdf& cdf = analysis().overall.inter_event_interval_seconds;
  EXPECT_GT(cdf.FractionAtOrBelow(0.5), 0.6);
  EXPECT_GT(cdf.FractionAtOrBelow(10.0), 0.85);
}

}  // namespace
}  // namespace bsdtrace
