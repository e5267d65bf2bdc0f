// Parity between the two-phase sweep engine and the direct path: replaying a
// ReplayLog through the simulator must give bit-identical CacheMetrics to
// running AccessReconstructor straight into it, for every Fig. 5/6/7
// configuration and both billing policies.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/sweep.h"
#include "src/trace/replay_log.h"
#include "src/trace/trace_io.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Exact (bit-level) equality of every metric, including the floating-point
// residency statistics: both paths must perform the identical Add() sequence.
void ExpectIdentical(const CacheMetrics& a, const CacheMetrics& b,
                     const std::string& label) {
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
  EXPECT_EQ(a.residency_seconds.mean(), b.residency_seconds.mean()) << label;
  EXPECT_EQ(a.residency_seconds.variance(), b.residency_seconds.variance()) << label;
  EXPECT_EQ(a.residency_seconds.min(), b.residency_seconds.min()) << label;
  EXPECT_EQ(a.residency_seconds.max(), b.residency_seconds.max()) << label;
}

void CheckAllConfigs(const Trace& trace) {
  std::vector<CacheConfig> configs = Fig5Configs();
  for (const CacheConfig& c : Fig6Configs()) {
    configs.push_back(c);
  }
  for (const CacheConfig& c : Fig7Configs()) {
    configs.push_back(c);
  }
  for (BillingPolicy billing : {BillingPolicy::kAtNextEvent, BillingPolicy::kAtPreviousEvent}) {
    const ReplayLog log = ReplayLog::Build(trace, billing);
    for (const CacheConfig& c : configs) {
      const CacheMetrics direct = SimulateCache(trace, c, billing);
      const CacheMetrics replayed = SimulateCache(log, c);
      ExpectIdentical(direct, replayed,
                      c.ToString() + (billing == BillingPolicy::kAtNextEvent
                                          ? " / billed-at-next"
                                          : " / billed-at-previous"));
    }
  }
}

TEST(ReplayParity, GeneratedA5Trace) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(20);
  options.seed = 8551;
  CheckAllConfigs(GenerateTrace(ProfileA5(), options).trace);
}

// A six-hour A5 working day, seed 19851201, reaches what the 20-minute case
// cannot: residencies over 20 minutes and timestamps past 2^32 us.  The
// Fig. 5 sweep replayed from one shared log matches a full reconstruction
// per config.
TEST(ReplayParity, SixHourA5Fig5Sweep) {
  GeneratorOptions options;
  options.duration = Duration::Hours(6);
  options.seed = 19851201;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  const ReplayLog log = ReplayLog::Build(trace);
  for (const CacheConfig& c : Fig5Configs()) {
    EXPECT_TRUE(CacheMetricsBitIdentical(SimulateCache(trace, c), SimulateCache(log, c)))
        << c.ToString();
  }
}

// Hand-built trace exercising the invalidation and page-in paths: seeks,
// truncates, unlinks, execve, read-write opens, and an orphan close.  A
// page-in of a never-read program, a 1 MB read that evicts it from the
// small caches, then a partial write into it: the write's miss fetches only
// under page-in (the engines must pick the matching extent feed).  A
// zero-size execve owns no feed slot.
Trace EdgeCaseTrace() {
  TraceBuilder b;
  b.WholeWrite(1.0, 2.0, 1, 10, 64 << 10);
  b.Open(3.0, 2, 10, 64 << 10, AccessMode::kReadWrite);
  b.Seek(4.0, 2, 10, 4096, 32 << 10);
  b.Seek(5.0, 2, 10, 48 << 10, 0);
  b.Close(6.0, 2, 10, 80 << 10, 80 << 10);  // extends the file: write runs
  b.Truncate(7.0, 10, 8 << 10);
  b.WholeRead(8.0, 9.0, 3, 11, 24 << 10);
  b.Execve(10.0, 11, 24 << 10);
  b.Unlink(11.0, 10);
  b.Close(12.0, 99, 50, 100, 100);  // orphan close (never opened)
  b.WholeWrite(13.0, 14.0, 4, 12, 4 << 10);
  b.Execve(15.0, 13, 16 << 10);
  b.WholeRead(15.5, 15.6, 7, 14, 1 << 20);
  b.Open(16.0, 6, 13, 16 << 10, AccessMode::kWriteOnly);
  b.Close(17.0, 6, 13, 100, 16 << 10);
  b.Execve(18.0, 12, 0);
  // Long idle gap so flush-back intervals elapse, then more traffic.
  b.WholeRead(700.0, 701.0, 5, 11, 24 << 10);
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

TEST(ReplayParity, HandBuiltEdgeCases) { CheckAllConfigs(EdgeCaseTrace()); }

// Streams `log`'s data events into a front-end engine with a zero-length
// transfer injected before every real one.  The reconstructor never emits
// zero-length transfers, but the feed contract gives them a slot each: the
// injected slots hold a huge extent, so an engine that skips a zero-length
// transfer's slot hands later writes a wrong extent and fetches.
template <typename Engine>
void ReplayWithZeroLengthTransfers(const ReplayLog& log, bool pagein, Engine& engine) {
  std::vector<uint64_t> feed;
  for (const uint64_t extent :
       pagein ? log.transfer_extents_pagein() : log.transfer_extents()) {
    feed.push_back(UINT64_MAX / 2);
    feed.push_back(extent);
  }
  engine.SetExtentFeeds(feed.data(), log.execve_extents().data());
  struct Injector {
    Engine& engine;
    void OnTransferFrom(uint16_t instance, const Transfer& t) {
      Transfer empty = t;
      empty.length = 0;
      engine.OnTransferFrom(instance, empty);
      engine.OnTransferFrom(instance, t);
    }
    void OnRecordFrom(uint16_t instance, const TraceRecord& r) {
      engine.OnRecordFrom(instance, r);
    }
  } injector{engine};
  log.ReplayDataEventsWithInstancesInto(injector);
  engine.Finish();
}

// Every feed-driven engine against the direct reference simulator on a
// hand-built trace, both billing bounds: the single level, fused lanes, the
// degenerate hierarchy (one server, and one client-less replay fanned out to
// three servers) and the Mattson fetch-miss column.
void ExpectEveryEngineMatches(const Trace& trace) {
  const std::vector<FusedCacheSimulator::PolicyLane> lanes = {
      {WritePolicy::kWriteThrough, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Minutes(5)},
      {WritePolicy::kDelayedWrite, Duration::Seconds(30)},
  };
  for (BillingPolicy billing : {BillingPolicy::kAtNextEvent, BillingPolicy::kAtPreviousEvent}) {
    const ReplayLog log = ReplayLog::Build(trace, billing);
    for (const CacheConfig& c : AllFigureConfigs()) {
      const std::string label = c.ToString() + (billing == BillingPolicy::kAtNextEvent
                                                    ? " / billed-at-next"
                                                    : " / billed-at-previous");
      const bool pagein = c.simulate_execve_pagein;
      const CacheMetrics direct = SimulateCache(trace, c, billing);

      CacheLevel<> level(c);
      ReplayWithZeroLengthTransfers(log, pagein, level);
      ExpectIdentical(direct, level.metrics(), label + " / level");

      FusedCacheSimulator fused(c, lanes);
      ReplayWithZeroLengthTransfers(log, pagein, fused);
      for (size_t i = 0; i < lanes.size(); ++i) {
        CacheConfig lane = c;
        lane.policy = lanes[i].policy;
        lane.flush_interval = lanes[i].flush_interval;
        ExpectIdentical(SimulateCache(trace, lane, billing), fused.LaneMetrics(i),
                        label + " / fused lane " + std::to_string(i));
      }

      HierarchyConfig h;
      h.client.size_bytes = 0;
      h.server = c;
      HierarchySimulator hierarchy(h, log.instance_count());
      ReplayWithZeroLengthTransfers(log, pagein, hierarchy);
      const HierarchyMetrics levels = hierarchy.Collect();
      EXPECT_EQ(levels.client_count, 0u) << label;
      ExpectIdentical(direct, levels.server, label + " / hierarchy");

      // No client layer, several servers: each is driven exactly as it
      // would be alone.
      std::vector<CacheConfig> servers = {c, c, c};
      servers[1].size_bytes = 4 * c.size_bytes;
      servers[1].policy = WritePolicy::kWriteThrough;
      servers[2].size_bytes = std::max<uint64_t>(c.block_size, c.size_bytes / 4);
      servers[2].policy = WritePolicy::kFlushBack;
      servers[2].flush_interval = Duration::Seconds(30);
      HierarchySimulator fan_out(h.client, servers, log.instance_count());
      ReplayWithZeroLengthTransfers(log, pagein, fan_out);
      for (size_t k = 0; k < servers.size(); ++k) {
        const HierarchyMetrics row = fan_out.Collect(k);
        EXPECT_EQ(row.client_count, 0u) << label;
        ExpectIdentical(SimulateCache(trace, servers[k], billing), row.server,
                        label + " / fan-out server " + std::to_string(k));
      }

      StackDistanceAnalyzer::Options options;
      options.simulate_execve_pagein = pagein;
      StackDistanceAnalyzer analyzer(c.block_size, options);
      ReplayWithZeroLengthTransfers(log, pagein, analyzer);
      const StackDistanceProfile profile = analyzer.Take();
      EXPECT_EQ(profile.total_accesses(), direct.logical_accesses) << label << " / Mattson";
      EXPECT_EQ(profile.FetchMissesAt(c.block_count()), direct.disk_reads)
          << label << " / Mattson";
    }
  }
}

TEST(ReplayParity, HandBuiltEdgeCasesEveryEngine) { ExpectEveryEngineMatches(EdgeCaseTrace()); }

// A non-zero truncate of a cached file lowers its known extent, and that
// lowered extent alone decides a later fetch: once a 32 MB read has evicted
// the file from every cache, a partial write of block 0 must fetch the block
// (it lies below the new 10 KB extent).  Replay feeds that forget the file
// on truncate instead of lowering its extent skip the fetch.
Trace TruncateThenRefetchTrace() {
  TraceBuilder b;
  b.WholeWrite(1.0, 2.0, 1, 30, 64 << 10);
  b.Truncate(3.0, 30, 10 << 10);
  b.WholeRead(4.0, 5.0, 2, 31, 32 << 20);
  b.Open(6.0, 3, 30, 10 << 10, AccessMode::kWriteOnly);
  b.Close(7.0, 3, 30, 100, 10 << 10);  // writes bytes [0, 100)
  b.WholeRead(700.0, 701.0, 4, 30, 10 << 10);
  return b.Build();
}

TEST(ReplayParity, TruncatedExtentDecidesALaterFetchEveryEngine) {
  const Trace trace = TruncateThenRefetchTrace();
  CheckAllConfigs(trace);
  ExpectEveryEngineMatches(trace);
}

// With metadata simulation on, replay must also reproduce the i-node and
// directory accesses keyed off open/close/unlink records.
TEST(ReplayParity, MetadataSimulation) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(10);
  options.seed = 8552;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  const ReplayLog log = ReplayLog::Build(trace);
  for (uint64_t size : {400ull << 10, 4ull << 20}) {
    CacheConfig c;
    c.size_bytes = size;
    c.policy = WritePolicy::kFlushBack;
    c.flush_interval = Duration::Seconds(30);
    c.simulate_metadata = true;
    ExpectIdentical(SimulateCache(trace, c), SimulateCache(log, c), c.ToString());
  }
}

// A parallel sweep whose workers share one prebuilt log matches the
// reference simulator run from the trace, config by config.
TEST(ReplayParity, SweepOverSharedLog) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(10);
  options.seed = 8553;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  const ReplayLog log = ReplayLog::Build(trace);
  const std::vector<CacheConfig> configs = Fig5Configs();
  const auto from_log = RunCacheSweep(log, configs, 8);
  ASSERT_EQ(from_log.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ExpectIdentical(SimulateCache(trace, configs[i]), from_log[i].metrics,
                    configs[i].ToString());
  }
}

// The streaming builders — Build over a TraceSource and BuildFromFile over a
// real trace file — must produce a log whose replay is bit-identical to the
// in-memory build's, and must surface file errors as a clean Status.
TEST(ReplayParity, StreamingBuildMatchesInMemory) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(10);
  options.seed = 8554;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  const ReplayLog direct = ReplayLog::Build(trace);

  const std::string path = TempPath("replay-parity-stream.trc");
  ASSERT_TRUE(SaveTrace(path, trace).ok());
  auto from_file = ReplayLog::BuildFromFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().message();
  EXPECT_EQ(from_file.value().record_count(), direct.record_count());
  EXPECT_EQ(from_file.value().transfer_count(), direct.transfer_count());
  EXPECT_EQ(from_file.value().event_count(), direct.event_count());

  for (const CacheConfig& c : Fig5Configs()) {
    ExpectIdentical(SimulateCache(direct, c), SimulateCache(from_file.value(), c),
                    c.ToString());
  }

  auto missing = ReplayLog::BuildFromFile("/nonexistent/bsdtrace-replay.trc");
  EXPECT_FALSE(missing.ok());
}

TEST(ReplayLogStats, CountsAndBilling) {
  TraceBuilder b;
  b.WholeRead(1.0, 2.0, 1, 7, 8192);
  b.WholeWrite(3.0, 4.0, 2, 8, 4096);
  const Trace trace = b.Build();
  const ReplayLog log = ReplayLog::Build(trace, BillingPolicy::kAtPreviousEvent);
  EXPECT_EQ(log.billing(), BillingPolicy::kAtPreviousEvent);
  EXPECT_EQ(log.record_count(), trace.size());
  EXPECT_EQ(log.transfer_count(), 2u);
  EXPECT_EQ(log.event_count(), trace.size() + 2);
  EXPECT_EQ(log.distinct_files(), 2u);
  EXPECT_EQ(log.dangling_opens(), 0u);
  EXPECT_EQ(log.orphan_events(), 0u);
}

}  // namespace
}  // namespace bsdtrace
