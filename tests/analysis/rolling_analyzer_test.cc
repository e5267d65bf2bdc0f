// The live pipeline's correctness gate: every snapshot a RollingAnalyzer
// publishes must be bit-identical to a batch Analyze() of exactly the
// records before that boundary, and the final result bit-identical to the
// batch analysis of the whole stream — for hand-built boundary hazards and
// for the three standard generated workloads, fed directly and through a
// TraceRing.

#include "src/analysis/rolling_analyzer.h"

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/parallel_analyzer.h"
#include "src/trace/trace_ring.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Records strictly before `boundary`, batch-analyzed.
TraceAnalysis BatchPrefix(const Trace& trace, SimTime boundary) {
  Trace prefix(trace.header());
  for (const TraceRecord& r : trace.records()) {
    if (r.time < boundary) {
      prefix.Append(r);
    }
  }
  return AnalyzeForTest(prefix);
}

struct PublishedSnapshot {
  TraceAnalysis analysis;
  SimTime boundary;
};

// Drains `source`, which delivers the records of `trace`, through a
// RollingAnalyzer and checks the gate at every published boundary plus the
// final result.  Returns the snapshot count.
uint64_t ExpectRollingMatchesBatch(const Trace& trace, Duration interval, TraceSource& source) {
  std::vector<PublishedSnapshot> published;
  RollingAnalyzer rolling(interval, [&](const TraceAnalysis& snapshot, SimTime boundary) {
    published.push_back({snapshot, boundary});
  });
  TraceRecord r;
  while (source.Next(&r)) {
    rolling.Process(r);
  }
  const TraceAnalysis final_analysis = rolling.Finish();

  EXPECT_EQ(rolling.records_processed(), trace.size());
  EXPECT_EQ(rolling.snapshots_published(), published.size());
  for (const PublishedSnapshot& s : published) {
    EXPECT_EQ(s.analysis.mode, AnalyzeMode::kLive);
    EXPECT_TRUE(AnalysisBitIdentical(s.analysis, BatchPrefix(trace, s.boundary)))
        << "snapshot at +" << (s.boundary - SimTime::Origin()).hours()
        << "h diverges from the batch analysis of its prefix";
  }
  EXPECT_EQ(final_analysis.mode, AnalyzeMode::kLive);
  EXPECT_TRUE(AnalysisBitIdentical(final_analysis, AnalyzeForTest(trace)))
      << "final rolling analysis diverges from batch";
  return published.size();
}

uint64_t ExpectRollingMatchesBatch(const Trace& trace, Duration interval) {
  TraceVectorSource source(trace);
  return ExpectRollingMatchesBatch(trace, interval, source);
}

// Every cross-boundary hazard: opens outliving several intervals, lifetime
// zones straddling boundaries, orphan closes, dangling opens, and an idle
// stretch long enough to publish the same prefix repeatedly.
TEST(RollingAnalyzer, BoundaryHazardsMatchBatchAtEverySnapshot) {
  TraceBuilder b;
  b.Create(10.0, 1, 500, AccessMode::kWriteOnly, 3);
  b.Open(20.0, 2, 500, 0, AccessMode::kWriteOnly, 3);
  // The open lives across the 1-minute boundaries at 60/120/180 s.
  b.Seek(70.0, 2, 500, 8192, 0);
  b.Seek(130.0, 2, 500, 4096, 4096);
  b.Close(190.0, 2, 500, 12288, 12288);
  b.Unlink(200.0, 500, 3);
  b.Close(205.0, 9, 777, 512, 512);  // orphan: 777 was never opened
  b.WholeRead(210.0, 215.0, 3, 501, 65536, 4);
  // Idle from 215 s to 560 s: boundaries at 240..540 s republish the prefix.
  b.Open(560.0, 4, 502, 1024, AccessMode::kReadOnly, 5);  // dangling open
  b.Execve(570.0, 503, 4096, 5);
  const Trace trace = b.Build();

  const uint64_t snapshots = ExpectRollingMatchesBatch(trace, Duration::Minutes(1));
  // 570 s of records over 60 s intervals: boundaries at 60..540 s inclusive.
  EXPECT_EQ(snapshots, 9u);
}

TEST(RollingAnalyzer, EmptyStreamFinishesClean) {
  RollingAnalyzer rolling(Duration::Hours(1));
  const TraceAnalysis a = rolling.Finish();
  EXPECT_EQ(a.overall.total_records, 0u);
  EXPECT_EQ(rolling.snapshots_published(), 0u);
  EXPECT_EQ(a.mode, AnalyzeMode::kLive);
}

class RollingWorkloadParity : public ::testing::TestWithParam<const char*> {};

TEST_P(RollingWorkloadParity, HourlySnapshotsBitIdenticalToBatchPrefix) {
  const MachineProfile profile = std::string(GetParam()) == "A5"   ? ProfileA5()
                                 : std::string(GetParam()) == "E3" ? ProfileE3()
                                                                   : ProfileC4();
  GeneratorOptions options;
  options.duration = Duration::Hours(3);
  options.seed = 1985;
  const Trace trace = GenerateTrace(profile, options).trace;

  const uint64_t snapshots = ExpectRollingMatchesBatch(trace, Duration::Hours(1));
  EXPECT_GE(snapshots, 2u) << "trace too short to cross two hourly boundaries";
}

INSTANTIATE_TEST_SUITE_P(Traces, RollingWorkloadParity,
                         ::testing::Values("A5", "E3", "C4"));

// The full live wiring: a producer thread pushes the trace into a TraceRing
// and RollingAnalyze drains the ring's source face.  Same result as batch,
// nothing dropped.
TEST(RollingAnalyzer, RingFedStreamMatchesBatch) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 424242;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;

  TraceRingOptions ring_options;
  ring_options.capacity = 64;  // small: force producer/consumer interleaving
  TraceRing ring(trace.header(), ring_options);

  std::thread producer([&]() {
    RingTraceSink sink(&ring);
    for (const TraceRecord& r : trace.records()) {
      sink.Append(r);
    }
    ring.Close();
  });

  RingTraceSource source(&ring);
  uint64_t snapshots = 0;
  auto result = RollingAnalyze(source, Duration::Minutes(30),
                               [&](const TraceAnalysis&, SimTime) { ++snapshots; });
  producer.join();

  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(AnalysisBitIdentical(result.value(), AnalyzeForTest(trace)));
  EXPECT_EQ(snapshots, 3u);  // boundaries at 0:30, 1:00, 1:30
  EXPECT_EQ(ring.stats().dropped(), 0u);
  EXPECT_EQ(ring.stats().produced, trace.size());
}

// The live service's input at its default settings: a six-hour A5 fleet
// trace (seed 19851201) pushed by a producer thread through a
// default-capacity blocking ring.  Every hourly snapshot matches its batch
// prefix, and the ring delivers every record.
TEST(RollingAnalyzer, SixHourFleetThroughDefaultRingMatchesBatch) {
  auto fleet = ParseFleetSpec("A5");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(6);
  options.base.seed = 19851201;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  const Trace& trace = generated.value().trace;

  TraceRing ring(trace.header(), TraceRingOptions{});
  ASSERT_EQ(ring.capacity(), size_t{1} << 14);
  std::thread producer([&]() {
    RingTraceSink sink(&ring);
    for (const TraceRecord& r : trace.records()) {
      sink.Append(r);
    }
    ring.Close();
  });
  RingTraceSource source(&ring);
  const uint64_t snapshots = ExpectRollingMatchesBatch(trace, Duration::Hours(1), source);
  producer.join();

  EXPECT_EQ(snapshots, 5u);  // boundaries at 1:00 .. 5:00
  const TraceRingStats stats = ring.stats();
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.produced, trace.size());
  EXPECT_EQ(stats.consumed, trace.size());
}

// The eight Section-5 CDFs of an analysis.
std::vector<const WeightedCdf*> Cdfs(const TraceAnalysis& a) {
  return {&a.overall.inter_event_interval_seconds,
          &a.runs.by_runs,
          &a.runs.by_bytes,
          &a.file_sizes.by_accesses,
          &a.file_sizes.by_bytes,
          &a.open_times.seconds,
          &a.lifetimes.by_files,
          &a.lifetimes.by_bytes};
}

// Live state is bounded by the distinct (value, weight) pairs, not by the
// prefix: every snapshot CDF holds only sorted run levels (the stitch folds
// each frontier when it merges), and the levels hold under twice the
// distinct pairs, while the samples they summarize keep growing.
TEST(RollingAnalyzer, SnapshotCdfStateFollowsDistinctPairs) {
  GeneratorOptions options;
  options.duration = Duration::Hours(24);
  options.seed = 1985;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;

  uint64_t samples = 0;
  uint64_t stored = 0;
  uint64_t distinct = 0;
  RollingAnalyzer rolling(Duration::Minutes(5), [&](const TraceAnalysis& snapshot, SimTime) {
    samples = stored = distinct = 0;
    for (const WeightedCdf* cdf : Cdfs(snapshot)) {
      const size_t entries = cdf->stored_entries();  // before runs() merges levels
      const size_t pairs = cdf->runs().size();
      EXPECT_LE(entries, 2 * pairs);
      samples += static_cast<uint64_t>(cdf->sample_count());
      stored += entries;
      distinct += pairs;
    }
  });
  for (const TraceRecord& r : trace.records()) {
    rolling.Process(r);
  }
  EXPECT_GE(rolling.snapshots_published(), 200u);
  // The last snapshot summarizes at least five samples per stored entry.
  EXPECT_GE(samples, 5 * stored) << stored << " entries for " << distinct << " pairs";
}

// Analyze() exposes the same pipeline behind snapshot_interval/on_snapshot.
TEST(RollingAnalyzer, AnalyzeFrontDoorPublishesSnapshots) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 7;
  const Trace trace = GenerateTrace(ProfileE3(), options).trace;

  std::vector<PublishedSnapshot> published;
  AnalyzeOptions analyze_options;
  analyze_options.trace = &trace;
  analyze_options.snapshot_interval = Duration::Hours(1);
  analyze_options.on_snapshot = [&](const TraceAnalysis& snapshot, SimTime boundary) {
    published.push_back({snapshot, boundary});
  };
  auto result = Analyze(analyze_options);
  ASSERT_TRUE(result.ok()) << result.status().message();

  EXPECT_EQ(result.value().mode, AnalyzeMode::kLive);
  ASSERT_EQ(published.size(), 1u);  // one interior boundary at 1:00
  EXPECT_TRUE(AnalysisBitIdentical(published[0].analysis,
                                   BatchPrefix(trace, published[0].boundary)));
  EXPECT_TRUE(AnalysisBitIdentical(result.value(), AnalyzeForTest(trace)));
}

}  // namespace
}  // namespace bsdtrace
