#include "src/cache/sweep.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/util/rng.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

Trace SmallTrace() {
  TraceBuilder b;
  double t = 1;
  for (OpenId oid = 1; oid <= 100; ++oid) {
    b.WholeRead(t, t + 0.1, oid, 1 + oid % 10, 8192);
    t += 1;
  }
  return b.Build();
}

TEST(RunCacheSweep, AllPointsComputed) {
  const auto points = RunCacheSweep(ReplayLog::Build(SmallTrace()), Fig5Configs());
  EXPECT_EQ(points.size(), 24u);  // 6 sizes x 4 policies
  for (const SweepPoint& p : points) {
    EXPECT_GT(p.metrics.logical_accesses, 0u);
  }
}

TEST(RunCacheSweep, SingleThreadMatchesParallel) {
  const ReplayLog log = ReplayLog::Build(SmallTrace());
  const auto seq = RunCacheSweep(log, Fig5Configs(), 1);
  const auto par = RunCacheSweep(log, Fig5Configs(), 8);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].metrics.DiskIos(), par[i].metrics.DiskIos()) << i;
    EXPECT_EQ(seq[i].metrics.logical_accesses, par[i].metrics.logical_accesses) << i;
  }
}

TEST(Fig5Configs, CoversPaperAxes) {
  const auto configs = Fig5Configs();
  std::set<uint64_t> sizes;
  std::set<int> policies;
  for (const CacheConfig& c : configs) {
    sizes.insert(c.size_bytes);
    policies.insert(static_cast<int>(c.policy) * 1000 +
                    (c.policy == WritePolicy::kFlushBack
                         ? static_cast<int>(c.flush_interval.seconds())
                         : 0));
    EXPECT_EQ(c.block_size, 4096u);
  }
  EXPECT_EQ(sizes.size(), 6u);
  EXPECT_EQ(policies.size(), 4u);
  EXPECT_EQ(*sizes.begin(), 390u << 10);  // the "UNIX" point
  EXPECT_EQ(*sizes.rbegin(), 16u << 20);
}

TEST(Fig6Configs, CoversPaperAxes) {
  const auto configs = Fig6Configs();
  EXPECT_EQ(configs.size(), 24u);  // 6 block sizes x 4 cache sizes
  for (const CacheConfig& c : configs) {
    EXPECT_EQ(c.policy, WritePolicy::kDelayedWrite);
  }
}

TEST(Fig7Configs, PairsPageinOnOff) {
  const auto configs = Fig7Configs();
  EXPECT_EQ(configs.size(), 12u);
  size_t with = 0;
  for (const CacheConfig& c : configs) {
    with += c.simulate_execve_pagein ? 1 : 0;
  }
  EXPECT_EQ(with, 6u);
}

TEST(RunCacheSweep, EmptyConfigList) {
  EXPECT_TRUE(RunCacheSweep(ReplayLog::Build(SmallTrace()), {}).empty());
}

// --- Planned sweep (Mattson + fused replay) --------------------------------

// Bit-level CacheMetrics equality, floating-point residency stats included:
// the planned engines must perform the identical Add() sequence.
void ExpectIdentical(const CacheMetrics& a, const CacheMetrics& b, const std::string& label) {
  EXPECT_EQ(a.logical_accesses, b.logical_accesses) << label;
  EXPECT_EQ(a.read_accesses, b.read_accesses) << label;
  EXPECT_EQ(a.write_accesses, b.write_accesses) << label;
  EXPECT_EQ(a.metadata_accesses, b.metadata_accesses) << label;
  EXPECT_EQ(a.disk_reads, b.disk_reads) << label;
  EXPECT_EQ(a.disk_writes, b.disk_writes) << label;
  EXPECT_EQ(a.dirty_discarded, b.dirty_discarded) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.residency_over_20min, b.residency_over_20min) << label;
  EXPECT_EQ(a.residency_samples, b.residency_samples) << label;
  EXPECT_EQ(a.residency_seconds.count(), b.residency_seconds.count()) << label;
  EXPECT_EQ(a.residency_seconds.sum(), b.residency_seconds.sum()) << label;
  EXPECT_EQ(a.residency_seconds.variance(), b.residency_seconds.variance()) << label;
  EXPECT_EQ(a.residency_seconds.min(), b.residency_seconds.min()) << label;
  EXPECT_EQ(a.residency_seconds.max(), b.residency_seconds.max()) << label;
}

// Invalidation- and write-heavy builder trace (unlinks, truncates, whole-file
// overwrites, partial writes, reads) — the hard case for both fast paths.
Trace MixedTrace(uint64_t seed, int ops = 800) {
  Rng rng(seed);
  TraceBuilder b;
  double t = 1;
  OpenId oid = 1;
  for (int i = 0; i < ops; ++i) {
    const FileId file = static_cast<FileId>(rng.UniformInt(1, 25));
    const int kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      b.Unlink(t, file);
    } else if (kind == 1) {
      b.Truncate(t, file, static_cast<uint64_t>(rng.UniformInt(0, 30000)));
    } else if (kind <= 3) {
      b.WholeWrite(t, t + 0.1, oid++, file, static_cast<uint64_t>(rng.UniformInt(1, 50000)));
    } else if (kind == 4) {
      const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, 60000));
      const uint64_t len = static_cast<uint64_t>(rng.UniformInt(1, 16000));
      b.Open(t, oid, file, offset + len, AccessMode::kWriteOnly, 1, offset);
      b.Close(t + 0.1, oid, file, offset + len, offset + len);
      ++oid;
    } else if (kind == 5) {
      b.Execve(t, file, static_cast<uint64_t>(rng.UniformInt(0, 20000)));
    } else {
      b.WholeRead(t, t + 0.1, oid++, file, static_cast<uint64_t>(rng.UniformInt(1, 60000)));
    }
    t += 20;  // spread across flush epochs
  }
  return b.Build();
}

std::vector<CacheConfig> AllFigureConfigs() {
  std::vector<CacheConfig> configs = Fig5Configs();
  for (const CacheConfig& c : Fig6Configs()) {
    configs.push_back(c);
  }
  for (const CacheConfig& c : Fig7Configs()) {
    configs.push_back(c);
  }
  return configs;
}

// Every planned point against its own replay, and every sample of every
// Mattson curve — each (block size, page-in) family at every sampled size,
// not only the sizes some config names — against the disk_reads of a
// delayed-write replay of that family and size.
void ExpectPlannedMatchesReplayed(const Trace& trace, const std::vector<CacheConfig>& configs,
                                  unsigned threads) {
  const ReplayLog log = ReplayLog::Build(trace);
  const std::vector<SweepPoint> replayed = RunCacheSweep(log, configs, threads);
  const PlannedSweep planned = RunPlannedSweep(log, configs, {}, threads);
  EXPECT_TRUE(planned.parity);
  ASSERT_EQ(planned.points.size(), replayed.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    ExpectIdentical(planned.points[i].metrics, replayed[i].metrics,
                    configs[i].ToString() + " threads=" + std::to_string(threads));
  }

  std::vector<CacheConfig> samples;
  for (const SweepCurve& curve : planned.curves) {
    ASSERT_EQ(curve.fetch_misses.size(), curve.size_bytes.size());
    for (const uint64_t size : curve.size_bytes) {
      CacheConfig c;
      c.size_bytes = size;
      c.block_size = curve.block_size;
      c.policy = WritePolicy::kDelayedWrite;
      c.simulate_execve_pagein = curve.simulate_execve_pagein;
      samples.push_back(c);
    }
  }
  const std::vector<SweepPoint> sample_replays = RunCacheSweep(log, samples, threads);
  size_t k = 0;
  for (const SweepCurve& curve : planned.curves) {
    for (size_t i = 0; i < curve.size_bytes.size(); ++i, ++k) {
      EXPECT_EQ(curve.fetch_misses[i], sample_replays[k].metrics.disk_reads)
          << "curve sample " << samples[k].ToString() << " threads=" << threads;
    }
  }
}

TEST(PlannedSweep, MattsonFusedSweepBitIdenticalToReplayedSweep) {
  const Trace trace = MixedTrace(191);
  for (const unsigned threads : {1u, 8u}) {
    ExpectPlannedMatchesReplayed(trace, AllFigureConfigs(), threads);
  }
}

TEST(PlannedSweep, FusedSimulatorMatchesPerConfigSimulators) {
  const Trace trace = MixedTrace(733);
  const ReplayLog log = ReplayLog::Build(trace);
  CacheConfig base;
  base.size_bytes = 2 << 20;
  base.block_size = 4096;
  const std::vector<FusedCacheSimulator::PolicyLane> lanes = {
      {WritePolicy::kWriteThrough, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Minutes(5)},
      {WritePolicy::kDelayedWrite, Duration::Seconds(30)},
  };
  FusedCacheSimulator fused(base, lanes);
  fused.SetExtentFeeds(log.transfer_extents().data(), log.execve_extents().data());
  fused.ReserveFiles(log.distinct_files());
  log.ReplayDataEventsInto(fused);
  fused.Finish();
  for (size_t i = 0; i < lanes.size(); ++i) {
    CacheConfig c = base;
    c.policy = lanes[i].policy;
    c.flush_interval = lanes[i].flush_interval;
    ExpectIdentical(fused.LaneMetrics(i), SimulateCache(log, c),
                    "lane " + std::to_string(i) + " " + c.ToString());
  }
}

TEST(PlannedSweep, MetadataConfigsFallBackToPerConfigReplay) {
  const Trace trace = MixedTrace(47, 300);
  std::vector<CacheConfig> configs = Fig5Configs();
  CacheConfig meta;
  meta.size_bytes = 1 << 20;
  meta.simulate_metadata = true;
  configs.push_back(meta);
  const ReplayLog log = ReplayLog::Build(trace);
  const PlannedSweep planned = RunPlannedSweep(log, configs);
  EXPECT_EQ(planned.replay_fallbacks, 1u);
  EXPECT_EQ(planned.fused_replays, 6u);   // one per Fig. 5 cache size
  EXPECT_EQ(planned.stack_passes, 1u);    // one (4 KB, no page-in) family
  EXPECT_TRUE(planned.parity);
  ExpectIdentical(planned.points.back().metrics, SimulateCache(log, meta), "metadata fallback");
}

TEST(PlannedSweep, Fig6AndFig7WorkCounts) {
  // Deterministic plan shapes: Fig. 6's 24 configs are 6 block-size
  // families of one delayed-write size each, Fig. 7's 12 two page-in
  // families.  A planning regression shows here on any machine.
  const ReplayLog log = ReplayLog::Build(MixedTrace(83, 300));
  const PlannedSweep fig6 = RunPlannedSweep(log, Fig6Configs());
  EXPECT_EQ(fig6.stack_passes, 6u);
  EXPECT_EQ(fig6.fused_replays, 24u);
  EXPECT_EQ(fig6.replay_fallbacks, 0u);
  EXPECT_TRUE(fig6.parity);
  const PlannedSweep fig7 = RunPlannedSweep(log, Fig7Configs());
  EXPECT_EQ(fig7.stack_passes, 2u);
  EXPECT_EQ(fig7.fused_replays, 12u);
  EXPECT_EQ(fig7.replay_fallbacks, 0u);
  EXPECT_TRUE(fig7.parity);
}

TEST(PlannedSweep, EachStackPassIsBoundedAtItsFamilysLargestSize) {
  const ReplayLog log = ReplayLog::Build(MixedTrace(61, 300));
  std::vector<CacheConfig> fig5_with_32mb = Fig5Configs();
  fig5_with_32mb.push_back(fig5_with_32mb.back());
  fig5_with_32mb.back().size_bytes = 32 << 20;
  struct Case {
    std::vector<CacheConfig> configs;
    std::vector<uint64_t> curve_sizes;  // empty = SweepCurveSizes()
  };
  const std::vector<Case> cases = {
      {Fig5Configs(), {}},
      {Fig6Configs(), {}},
      {Fig7Configs(), {}},
      {fig5_with_32mb, {256 << 10}},  // a member above every curve size
      {Fig5Configs(), {64 << 20}},    // a curve size above every member
  };
  for (size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    const PlannedSweep planned = RunPlannedSweep(log, c.configs, c.curve_sizes);
    EXPECT_TRUE(planned.parity) << "case " << k;
    ASSERT_FALSE(planned.curves.empty());
    for (const SweepCurve& curve : planned.curves) {
      const std::vector<uint64_t> sizes =
          c.curve_sizes.empty() ? SweepCurveSizes() : c.curve_sizes;
      uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
      for (const CacheConfig& config : c.configs) {
        if (config.block_size == curve.block_size &&
            config.simulate_execve_pagein == curve.simulate_execve_pagein) {
          largest = std::max(largest, config.size_bytes);
        }
      }
      EXPECT_EQ(curve.profile.max_capacity(), largest / curve.block_size)
          << "case " << k << " block " << curve.block_size << " pagein "
          << curve.simulate_execve_pagein;
    }
  }
}

TEST(PlannedSweep, CurvesCoverRequestedAndConfigSizes) {
  const Trace trace = MixedTrace(59, 300);
  const PlannedSweep planned = RunPlannedSweep(ReplayLog::Build(trace), Fig5Configs());
  ASSERT_EQ(planned.curves.size(), 1u);
  const SweepCurve& curve = planned.curves.front();
  EXPECT_EQ(curve.block_size, 4096u);
  // The requested dense axis plus every Fig. 5 size, deduplicated and sorted.
  const std::vector<uint64_t> dense = SweepCurveSizes();
  std::set<uint64_t> expected(dense.begin(), dense.end());
  for (const CacheConfig& c : Fig5Configs()) {
    expected.insert(c.size_bytes);
  }
  EXPECT_EQ(std::vector<uint64_t>(expected.begin(), expected.end()), curve.size_bytes);
  ASSERT_EQ(curve.fetch_misses.size(), curve.size_bytes.size());
  // Fetch misses fall (weakly) as the cache grows.
  for (size_t i = 1; i < curve.fetch_misses.size(); ++i) {
    EXPECT_LE(curve.fetch_misses[i], curve.fetch_misses[i - 1]) << i;
  }
}

TEST(PlannedSweep, EmptyConfigList) {
  EXPECT_TRUE(RunPlannedSweep(ReplayLog::Build(SmallTrace()), {}).points.empty());
}

// The parity gates compare residency extremes too: the sample sets below
// agree in count, sum and variance (their running means stay exact) and
// differ only in max, then only in min.
TEST(CacheMetricsBitIdentical, ResidencyExtremesCount) {
  auto with_residency = [](std::initializer_list<double> samples) {
    CacheMetrics m;
    for (const double s : samples) {
      m.residency_seconds.Add(s);
    }
    return m;
  };
  const CacheMetrics base = with_residency({0, 6, 3, 3});
  const CacheMetrics lower_max = with_residency({5, 5, 2, 0});
  const CacheMetrics higher_min = with_residency({1, 1, 4, 6});
  for (const CacheMetrics* other : {&lower_max, &higher_min}) {
    ASSERT_EQ(base.residency_seconds.count(), other->residency_seconds.count());
    ASSERT_EQ(base.residency_seconds.sum(), other->residency_seconds.sum());
    ASSERT_EQ(base.residency_seconds.variance(), other->residency_seconds.variance());
    EXPECT_FALSE(CacheMetricsBitIdentical(base, *other));
  }
  EXPECT_NE(base.residency_seconds.max(), lower_max.residency_seconds.max());
  EXPECT_EQ(base.residency_seconds.min(), lower_max.residency_seconds.min());
  EXPECT_NE(base.residency_seconds.min(), higher_min.residency_seconds.min());
  EXPECT_EQ(base.residency_seconds.max(), higher_min.residency_seconds.max());
  EXPECT_TRUE(CacheMetricsBitIdentical(base, with_residency({0, 6, 3, 3})));
}

// Property tests on generated workloads (ISSUE 6 satellite): the planned
// engine must match the replayed sweep on the paper's machine profiles and a
// mixed fleet, serial and threaded.
class PlannedSweepProfiles : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannedSweepProfiles, MatchesReplayedSweepOnGeneratedTrace) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(12);
  options.seed = 8806;
  const Trace trace = GenerateTrace(ProfileByName(GetParam()), options).trace;
  for (const unsigned threads : {1u, 4u}) {
    ExpectPlannedMatchesReplayed(trace, AllFigureConfigs(), threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, PlannedSweepProfiles, ::testing::Values("A5", "E3", "C4"));

// The standard A5 trace at two hours, every Fig. 5-7 config: the curve
// families at the length the report's CI run uses.
TEST(PlannedSweep, TwoHourA5EveryFigureMatchesReplayedSweep) {
  const GenerationResult a5 = GenerateStandardTrace("A5", Duration::Hours(2), 19851201);
  ASSERT_GT(a5.trace.size(), 0u);
  for (const unsigned threads : {1u, 4u}) {
    ExpectPlannedMatchesReplayed(a5.trace, AllFigureConfigs(), threads);
  }
}

TEST(PlannedSweep, MatchesReplayedSweepOnFleetTrace) {
  auto fleet = ParseFleetSpec("2xA5+1xE3");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Minutes(8);
  options.base.seed = 2207;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto result = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  for (const unsigned threads : {1u, 4u}) {
    ExpectPlannedMatchesReplayed(result.value().trace, Fig5Configs(), threads);
  }
}

}  // namespace
}  // namespace bsdtrace
