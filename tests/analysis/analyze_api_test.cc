// The Analyze() front door: input validation, engine dispatch, effective-mode
// reporting, and the opt-in Table I band check.

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

Trace SmallTrace() {
  TraceBuilder b;
  double t = 1;
  for (OpenId oid = 1; oid <= 50; ++oid) {
    b.WholeRead(t, t + 0.5, oid, 100 + oid, 1024 * oid, 1 + oid % 4);
    t += 1;
  }
  return b.Build();
}

TEST(AnalyzeApi, NoInputIsAnError) {
  auto result = Analyze(AnalyzeOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("no input"), std::string::npos);
}

TEST(AnalyzeApi, AmbiguousInputIsAnError) {
  const Trace trace = SmallTrace();
  TraceVectorSource source(trace);
  AnalyzeOptions options;
  options.trace = &trace;
  options.source = &source;
  auto result = Analyze(options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ambiguous"), std::string::npos);
}

TEST(AnalyzeApi, ModeNamesAreStable) {
  EXPECT_STREQ(AnalyzeModeName(AnalyzeMode::kSerial), "serial");
  EXPECT_STREQ(AnalyzeModeName(AnalyzeMode::kParallel), "parallel");
  EXPECT_STREQ(AnalyzeModeName(AnalyzeMode::kLive), "live");
}

TEST(AnalyzeApi, InMemoryTraceReportsSerial) {
  const Trace trace = SmallTrace();
  AnalyzeOptions options;
  options.trace = &trace;
  auto result = Analyze(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().mode, AnalyzeMode::kSerial);
  EXPECT_EQ(result.value().threads_used, 1u);
  EXPECT_EQ(result.value().segments_used, 1u);
}

TEST(AnalyzeApi, StreamingSourceReportsSerial) {
  const Trace trace = SmallTrace();
  TraceVectorSource source(trace);
  AnalyzeOptions options;
  options.source = &source;
  // threads is ignored for a non-seekable source — and the result says so.
  options.threads = 8;
  auto result = Analyze(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().mode, AnalyzeMode::kSerial);
  EXPECT_EQ(result.value().threads_used, 1u);
}

TEST(AnalyzeApi, IndexedFileReportsParallelAndMatchesSerial) {
  // A generated trace big enough to clear the per-segment minimum twice.
  GeneratorOptions gen;
  gen.duration = Duration::Hours(4);
  gen.seed = 99;
  const Trace trace = GenerateTrace(ProfileA5(), gen).trace;
  const std::string path = TempPath("analyze_api_parallel.trc");
  TraceWriterOptions writer;
  writer.version = 3;
  writer.block_target_bytes = 4096;
  ASSERT_TRUE(SaveTrace(path, trace, writer).ok());

  AnalyzeOptions serial_options;
  serial_options.path = path;
  serial_options.threads = 1;
  auto serial = Analyze(serial_options);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().mode, AnalyzeMode::kSerial);

  AnalyzeOptions parallel_options;
  parallel_options.path = path;
  parallel_options.threads = 4;
  auto parallel = Analyze(parallel_options);
  ASSERT_TRUE(parallel.ok());
  if (trace.size() >= 2 * 8192) {
    EXPECT_EQ(parallel.value().mode, AnalyzeMode::kParallel);
    EXPECT_GE(parallel.value().threads_used, 2u);
    EXPECT_GE(parallel.value().segments_used, 2u);
  }
  EXPECT_TRUE(AnalysisBitIdentical(serial.value(), parallel.value()));
}

TEST(AnalyzeApi, SnapshotIntervalReportsLive) {
  const Trace trace = SmallTrace();
  AnalyzeOptions options;
  options.trace = &trace;
  options.snapshot_interval = Duration::Minutes(1);
  auto live = Analyze(options);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().mode, AnalyzeMode::kLive);

  AnalyzeOptions batch_options;
  batch_options.trace = &trace;
  auto batch = Analyze(batch_options);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(AnalysisBitIdentical(live.value(), batch.value()));
}

TEST(AnalyzeApi, CheckBandsFillsVerdictsForFleetTraces) {
  auto fleet = ParseFleetSpec("A5");
  ASSERT_TRUE(fleet.ok());
  FleetGeneratorOptions gen;
  gen.base.duration = Duration::Hours(1);
  gen.base.seed = 1234;
  gen.shards_per_machine = 2;
  gen.threads = 2;
  const std::string path = TempPath("analyze_api_bands.trc");
  ASSERT_TRUE(GenerateFleetToFile(fleet.value(), gen, path).ok());

  AnalyzeOptions options;
  options.path = path;
  options.threads = 2;
  options.check_bands = true;
  auto result = Analyze(options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().band_checks.size(), 1u);
  EXPECT_EQ(result.value().band_checks[0].trace_name, "A5");

  // Without the opt-in the verdict list stays empty.
  options.check_bands = false;
  auto unchecked = Analyze(options);
  ASSERT_TRUE(unchecked.ok());
  EXPECT_TRUE(unchecked.value().band_checks.empty());
  EXPECT_TRUE(unchecked.value().bands_ok());
}

}  // namespace
}  // namespace bsdtrace
