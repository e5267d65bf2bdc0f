// Parallel-analysis parity: Analyze() over a seekable path must reproduce
// the serial streaming engine bit for bit — every counter, CDF sample, and
// Welford accumulator — for hand-built boundary-straddling traces and for
// the three standard generated workloads at 1, 2, and 8 threads.

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Saves as v3 with tiny blocks (many segment boundaries) and returns the
// serial streaming analysis of the same file.
TraceAnalysis SaveAndAnalyzeSerial(const Trace& trace, const std::string& path,
                                   size_t block_target = 256) {
  TraceWriterOptions options;
  options.version = 3;
  options.block_target_bytes = block_target;
  EXPECT_TRUE(SaveTrace(path, trace, options).ok());
  TraceFileSource source(path);
  AnalyzeOptions serial_options;
  serial_options.source = &source;
  auto serial = Analyze(serial_options);
  EXPECT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_EQ(serial.value().mode, AnalyzeMode::kSerial);
  return std::move(serial).value();
}

void ExpectParity(const TraceAnalysis& serial, const std::string& path,
                  unsigned threads) {
  AnalyzeOptions options;
  options.path = path;
  options.threads = threads;
  auto parallel = Analyze(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  const TraceAnalysis& p = parallel.value();
  // Spot-check a few fields with readable failure output before the full
  // bitwise comparison.
  EXPECT_EQ(serial.overall.total_records, p.overall.total_records);
  EXPECT_EQ(serial.overall.bytes_transferred, p.overall.bytes_transferred);
  EXPECT_EQ(serial.overall.inter_event_interval_seconds.sample_count(),
            p.overall.inter_event_interval_seconds.sample_count());
  EXPECT_EQ(serial.activity.distinct_users, p.activity.distinct_users);
  EXPECT_EQ(serial.activity.ten_second.intervals, p.activity.ten_second.intervals);
  EXPECT_EQ(serial.activity.ten_second.throughput_per_user.mean(),
            p.activity.ten_second.throughput_per_user.mean());
  EXPECT_EQ(serial.sequentiality.Total().accesses, p.sequentiality.Total().accesses);
  EXPECT_EQ(serial.runs.by_runs.sample_count(), p.runs.by_runs.sample_count());
  EXPECT_EQ(serial.lifetimes.new_files, p.lifetimes.new_files);
  EXPECT_EQ(serial.lifetimes.observed_deaths, p.lifetimes.observed_deaths);
  EXPECT_EQ(serial.lifetimes.by_bytes.total_weight(), p.lifetimes.by_bytes.total_weight());
  EXPECT_TRUE(AnalysisBitIdentical(serial, p)) << "parity broken at " << threads
                                               << " threads";
}

// Every boundary hazard in one trace: opens whose seeks/closes land in later
// blocks, lifetimes straddling blocks (pre-zone bytes, boundary kills,
// marked slots, exit-live incarnations), open-id reuse after a straddling
// close, and genuinely orphan records (no open anywhere).
Trace StraddleTrace() {
  TraceBuilder b;
  // Open 1 straddles: transfers bill in later blocks (writes feed file 500's
  // lifetime, which is created before and unlinked after — pre/slot zones).
  b.Create(1.0, 10, 500, AccessMode::kWriteOnly, 3);
  b.Open(2.0, 1, 500, 0, AccessMode::kWriteOnly, 3);
  for (int i = 0; i < 40; ++i) {
    // Padding records so tiny blocks split between the interesting events.
    b.Execve(3.0 + i * 0.5, 900 + i, 4096, 7);
  }
  b.Seek(25.0, 1, 500, 8192, 0);       // first run: 8 KB written
  b.Close(40.0, 2, 501, 1024, 1024);   // orphan close: 501 never opened
  for (int i = 0; i < 40; ++i) {
    b.Execve(41.0 + i * 0.5, 900 + i, 4096, 7);
  }
  b.Seek(70.0, 1, 500, 4096, 4096);    // second run: 4 KB
  b.Close(90.0, 1, 500, 12288, 12288); // third run: 8 KB; slot gets 20 KB total
  b.Unlink(100.0, 500, 3);             // kills file 500: lifetime 99 s, 20 KB
  // Read-side straddle: whole-file read of 502 across blocks.
  b.Open(110.0, 2, 502, 65536, AccessMode::kReadOnly, 4);
  for (int i = 0; i < 40; ++i) {
    b.Execve(111.0 + i * 0.5, 900 + i, 4096, 7);
  }
  b.Close(140.0, 2, 502, 65536, 65536);
  // Open-id reuse after a straddling close.
  b.Open(150.0, 1, 503, 4096, AccessMode::kReadOnly, 5);
  b.Close(160.0, 1, 503, 4096, 4096);
  // An incarnation that outlives the trace (right-censored) keeps receiving
  // bytes via a straddling write.
  b.Create(170.0, 3, 504, AccessMode::kWriteOnly, 6);
  b.Open(171.0, 4, 504, 0, AccessMode::kWriteOnly, 6);
  for (int i = 0; i < 40; ++i) {
    b.Execve(172.0 + i * 0.4, 900 + i, 4096, 7);
  }
  b.Close(190.0, 4, 504, 2048, 2048);
  // A dangling open (never closed) spanning the remaining blocks.
  b.Open(200.0, 5, 505, 1024, AccessMode::kReadOnly, 8);
  for (int i = 0; i < 20; ++i) {
    b.Unlink(201.0 + i, 950 + i, 9);
  }
  Trace t = b.Build();
  t.header().machine = "straddle";
  return t;
}

TEST(ParallelAnalyzer, StraddleTraceParity) {
  const Trace trace = StraddleTrace();
  const std::string path = TempPath("parallel_straddle.trc");
  const TraceAnalysis serial = SaveAndAnalyzeSerial(trace, path, /*block_target=*/64);
  SeekableTraceSource seekable(path);
  ASSERT_TRUE(seekable.status().ok());
  ASSERT_GT(seekable.index().size(), 8u) << "trace too small to exercise splitting";
  for (unsigned threads : {1u, 2u, 3u, 8u, 32u}) {
    ExpectParity(serial, path, threads);
  }
}

class StandardWorkloadParity : public ::testing::TestWithParam<const char*> {};

TEST_P(StandardWorkloadParity, BitIdenticalAcrossThreadCounts) {
  const MachineProfile profile = std::string(GetParam()) == "A5"   ? ProfileA5()
                                 : std::string(GetParam()) == "E3" ? ProfileE3()
                                                                   : ProfileC4();
  GeneratorOptions options;
  options.duration = Duration::Minutes(45);
  options.seed = 1985;
  const Trace trace = GenerateTrace(profile, options).trace;
  const std::string path = TempPath(std::string("parallel_") + GetParam() + ".trc");
  // 16 KB blocks: plenty of segment boundaries without bloating the file.
  const TraceAnalysis serial = SaveAndAnalyzeSerial(trace, path, 16 * 1024);
  for (unsigned threads : {1u, 2u, 8u}) {
    ExpectParity(serial, path, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Traces, StandardWorkloadParity,
                         ::testing::Values("A5", "E3", "C4"));

// The six-hour A5 trace the fleet engine streams straight to a v3 file with
// default blocks (8 shards, seed 19851201): parallel Analyze at 2, 4 and 8
// threads is bit-identical to the serial pass over the same file.
TEST(ParallelAnalyzer, SixHourStreamedFileParity) {
  auto fleet = ParseFleetSpec("A5");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(6);
  options.base.seed = 19851201;
  options.shards_per_machine = 8;
  options.threads = 0;
  const std::string path = TempPath("parallel_six_hour.trc");
  auto generated = GenerateFleetToFile(fleet.value(), options, path);
  ASSERT_TRUE(generated.ok()) << generated.status().message();

  TraceFileSource source(path);
  AnalyzeOptions serial_options;
  serial_options.source = &source;
  auto serial = Analyze(serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_EQ(serial.value().overall.total_records, generated.value().records_streamed);
  for (unsigned threads : {2u, 4u, 8u}) {
    ExpectParity(serial.value(), path, threads);
  }
  std::remove(path.c_str());
}

TEST(ParallelAnalyzer, V2FileFallsBackToSerial) {
  const Trace trace = StraddleTrace();
  const std::string path = TempPath("parallel_v2.trc");
  ASSERT_TRUE(SaveTrace(path, trace).ok());
  TraceFileSource source(path);
  AnalyzeOptions serial_options;
  serial_options.source = &source;
  auto serial = Analyze(serial_options);
  ASSERT_TRUE(serial.ok());
  AnalyzeOptions options;
  options.path = path;
  options.threads = 8;
  auto parallel = Analyze(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  // No block index: the engine must fall back to — and report — serial.
  EXPECT_EQ(parallel.value().mode, AnalyzeMode::kSerial);
  EXPECT_TRUE(AnalysisBitIdentical(serial.value(), parallel.value()));
}

TEST(ParallelAnalyzer, MissingFileIsAnError) {
  AnalyzeOptions options;
  options.path = TempPath("does_not_exist.trc");
  options.threads = 4;
  auto result = Analyze(options);
  EXPECT_FALSE(result.ok());
}

TEST(ParallelAnalyzer, CorruptBlockSurfacesThroughWorkers) {
  const Trace trace = StraddleTrace();
  const std::string path = TempPath("parallel_corrupt.trc");
  TraceWriterOptions options;
  options.version = 3;
  options.block_target_bytes = 64;
  ASSERT_TRUE(SaveTrace(path, trace, options).ok());
  // Flip a byte inside some middle block's payload.
  SeekableTraceSource seekable(path);
  ASSERT_TRUE(seekable.status().ok());
  ASSERT_GT(seekable.index().size(), 4u);
  const uint64_t victim = seekable.index()[seekable.index().size() / 2].offset + 8;
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(victim), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(victim), SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }
  AnalyzeOptions analyze_options;
  analyze_options.path = path;
  analyze_options.threads = 8;
  auto result = Analyze(analyze_options);
  EXPECT_FALSE(result.ok());
}

// -- Segment carving ----------------------------------------------------------

std::vector<TraceBlockIndexEntry> UniformIndex(size_t blocks, uint64_t records_each) {
  std::vector<TraceBlockIndexEntry> index(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    index[i] = {.offset = i * 1000, .record_count = records_each, .start_time = SimTime()};
  }
  return index;
}

void ExpectPartition(const std::vector<std::pair<size_t, size_t>>& ranges, size_t blocks) {
  size_t next = 0;
  for (const auto& [first, count] : ranges) {
    EXPECT_EQ(first, next);
    EXPECT_GT(count, 0u) << "empty segment";
    next = first + count;
  }
  EXPECT_EQ(next, blocks) << "segments do not cover the index";
}

TEST(CarveIndex, EmptyIndexYieldsNoRanges) {
  EXPECT_TRUE(internal::CarveIndex({}, 8, 8192).empty());
}

TEST(CarveIndex, TinyBlocksCoalesceIntoOneSegment) {
  // 100 blocks of 10 records: far below min_records even in aggregate, so
  // the carve must refuse to fan out (the caller then runs serially).
  const auto ranges = internal::CarveIndex(UniformIndex(100, 10), 8, 8192);
  ASSERT_EQ(ranges.size(), 1u);
  ExpectPartition(ranges, 100);
}

TEST(CarveIndex, SegmentCountIsBoundedByRecordsOverMin) {
  // 40 blocks x 1000 records = 40k records; min 8192 allows at most 4
  // segments even with 8 threads — and every segment clears the minimum.
  const auto index = UniformIndex(40, 1000);
  const auto ranges = internal::CarveIndex(index, 8, 8192);
  ASSERT_EQ(ranges.size(), 4u);
  ExpectPartition(ranges, index.size());
  for (const auto& [first, count] : ranges) {
    uint64_t records = 0;
    for (size_t b = first; b < first + count; ++b) {
      records += index[b].record_count;
    }
    EXPECT_GE(records, 8192u);
  }
}

TEST(CarveIndex, ZeroMinDisablesCoalescing) {
  const auto ranges = internal::CarveIndex(UniformIndex(16, 1), 4, 0);
  ASSERT_EQ(ranges.size(), 4u);
  ExpectPartition(ranges, 16);
}

TEST(CarveIndex, UnevenBlocksStillPartition) {
  std::vector<TraceBlockIndexEntry> index;
  for (uint64_t i = 0; i < 30; ++i) {
    index.push_back({.offset = i * 100,
                     .record_count = (i % 7 == 0) ? 20'000u : 3u,
                     .start_time = SimTime()});
  }
  for (const unsigned threads : {2u, 4u, 8u, 16u}) {
    const auto ranges = internal::CarveIndex(index, threads, 8192);
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(ranges.size(), threads);
    ExpectPartition(ranges, index.size());
  }
}

}  // namespace
}  // namespace bsdtrace
