#include "src/analysis/analyzer.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

TEST(AnalyzeTrace, SinglePassPopulatesAllSections) {
  TraceBuilder b;
  b.WholeRead(1, 2, 1, 10, 4096, 5);
  b.WholeWrite(3, 4, 2, 11, 2048, 6);
  b.Unlink(30, 11, 6);
  b.Execve(31, 12, 10000, 5);
  const TraceAnalysis a = AnalyzeForTest(b.Build());

  EXPECT_EQ(a.overall.total_records, 6u);
  EXPECT_EQ(a.overall.bytes_transferred, 6144u);
  EXPECT_EQ(a.activity.distinct_users, 2u);
  EXPECT_EQ(a.sequentiality.Total().accesses, 2u);
  EXPECT_EQ(a.runs.by_runs.sample_count(), 2);
  EXPECT_EQ(a.file_sizes.by_accesses.sample_count(), 2);
  EXPECT_EQ(a.open_times.seconds.sample_count(), 2);
  EXPECT_EQ(a.lifetimes.new_files, 1u);
  EXPECT_EQ(a.lifetimes.observed_deaths, 1u);
}

TEST(AnalyzeTrace, EmptyTraceSafe) {
  const TraceAnalysis a = AnalyzeForTest(Trace{});
  EXPECT_EQ(a.overall.total_records, 0u);
  EXPECT_EQ(a.activity.distinct_users, 0u);
  EXPECT_TRUE(a.open_times.seconds.empty());
}

TEST(AnalyzeTrace, ConsistencyBetweenCollectors) {
  TraceBuilder b;
  double t = 1;
  for (OpenId oid = 1; oid <= 20; ++oid) {
    b.WholeRead(t, t + 0.5, oid, 10 + oid, 1000 * oid);
    t += 1;
  }
  const TraceAnalysis a = AnalyzeForTest(b.Build());
  // Bytes seen by overall == bytes classified by sequentiality.
  EXPECT_EQ(a.overall.bytes_transferred, a.sequentiality.Total().bytes);
  // Every access produced a run (whole-file reads are single runs).
  EXPECT_EQ(a.runs.by_runs.sample_count(), 20);
  EXPECT_EQ(static_cast<uint64_t>(a.runs.by_bytes.total_weight()),
            a.overall.bytes_transferred);
}

// The streaming entry point must compute exactly what the in-memory one
// does — same collectors, records arriving through a TraceSource.
TEST(AnalyzeTrace, StreamingSourceMatchesInMemory) {
  TraceBuilder b;
  double t = 1;
  for (OpenId oid = 1; oid <= 30; ++oid) {
    b.WholeRead(t, t + 0.4, oid, 100 + oid, 512 * oid, 1 + oid % 3);
    t += 1;
  }
  b.Unlink(t + 1, 101, 1);
  const Trace trace = b.Build();
  const TraceAnalysis direct = AnalyzeForTest(trace);

  // Through an in-memory source...
  TraceVectorSource vector_source(trace);
  AnalyzeOptions stream_options;
  stream_options.source = &vector_source;
  auto streamed = Analyze(stream_options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();

  // ...and through a real file, the full generate-to-file → analyze-from-file
  // recipe.
  const std::string path = TempPath("analyzer-stream-test.trc");
  ASSERT_TRUE(SaveTrace(path, trace).ok());
  TraceFileSource file_source(path);
  AnalyzeOptions file_options;
  file_options.source = &file_source;
  auto from_file = Analyze(file_options);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().message();

  for (const TraceAnalysis* a : {&streamed.value(), &from_file.value()}) {
    EXPECT_EQ(a->overall.total_records, direct.overall.total_records);
    EXPECT_EQ(a->overall.bytes_transferred, direct.overall.bytes_transferred);
    EXPECT_EQ(a->activity.distinct_users, direct.activity.distinct_users);
    EXPECT_EQ(a->sequentiality.Total().accesses, direct.sequentiality.Total().accesses);
    EXPECT_EQ(a->runs.by_runs.sample_count(), direct.runs.by_runs.sample_count());
    EXPECT_EQ(a->open_times.seconds.sample_count(), direct.open_times.seconds.sample_count());
    EXPECT_EQ(a->lifetimes.new_files, direct.lifetimes.new_files);
    EXPECT_EQ(a->lifetimes.observed_deaths, direct.lifetimes.observed_deaths);
  }
}

TEST(AnalyzeTrace, SourceErrorPropagates) {
  TraceFileSource missing("/nonexistent/bsdtrace-analyzer-missing.trc");
  AnalyzeOptions options;
  options.source = &missing;
  auto analysis = Analyze(options);
  EXPECT_FALSE(analysis.ok());
}

}  // namespace
}  // namespace bsdtrace
