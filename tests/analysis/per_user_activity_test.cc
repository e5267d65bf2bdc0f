// Table I per-user activity: attribution of records/bytes to the opening
// user, exact segment merging (serial/parallel parity), and the property
// tests pinning the activity bands at paper scale and at 1000+ users.

#include "src/analysis/per_user_activity.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// -- Attribution --------------------------------------------------------------

// Close and seek records carry user id 0 in the trace; the collector must
// bill them — and the reconstructed bytes — to the user who opened the file.
TEST(PerUserActivity, AttributesClosesSeeksAndBytesToOpeningUser) {
  TraceBuilder b;
  b.Open(1.0, /*oid=*/1, /*file=*/100, /*size=*/4096, AccessMode::kReadOnly, /*user=*/7);
  b.Seek(2.0, /*oid=*/1, /*file=*/100, /*from=*/2048, /*to=*/0);
  b.Close(3.0, /*oid=*/1, /*file=*/100, /*final_position=*/1024, /*size_at_close=*/4096);
  b.WholeWrite(4.0, 5.0, /*oid=*/2, /*file=*/101, /*size=*/2048, /*user=*/9);
  b.Execve(6.0, /*file=*/102, /*size=*/512, /*user=*/7);
  const TraceAnalysis analysis = AnalyzeForTest(b.Build());
  const PerUserActivityStats& per_user = analysis.per_user;

  ASSERT_EQ(per_user.users.size(), 2u);
  // User 7: open + seek + close + execve, with read bytes from both runs.
  EXPECT_EQ(per_user.users.at(7).records, 4u);
  EXPECT_GT(per_user.users.at(7).bytes, 0u);
  // User 9: create + close, writing the whole 2 KB file.
  EXPECT_EQ(per_user.users.at(9).records, 2u);
  EXPECT_EQ(per_user.users.at(9).bytes, 2048u);
  EXPECT_EQ(per_user.total_records, 6u);
  EXPECT_EQ(per_user.total_bytes,
            per_user.users.at(7).bytes + per_user.users.at(9).bytes);
}

// -- Segment algebra ----------------------------------------------------------

TEST(PerUserSegment, MergeMatchesSingleAccumulation) {
  PerUserSegment whole, left, right;
  const struct {
    double t;
    UserId user;
    uint64_t records, bytes;
  } touches[] = {
      {10.0, 2, 1, 0},   {20.0, 3, 1, 512},    {86410.0, 2, 1, 128},
      {86420.0, 4, 2, 0}, {172830.0, 3, 1, 64},
  };
  int i = 0;
  for (const auto& e : touches) {
    whole.Touch(SimTime::FromSeconds(e.t), e.user, e.records, e.bytes);
    (i++ % 2 == 0 ? left : right).Touch(SimTime::FromSeconds(e.t), e.user, e.records, e.bytes);
  }
  left.Merge(right);
  EXPECT_EQ(left.users, whole.users);
  EXPECT_EQ(left.daily_active, whole.daily_active);
  EXPECT_EQ(left.last_time, whole.last_time);

  const PerUserActivityStats a = left.Finalize();
  const PerUserActivityStats b = whole.Finalize();
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.total_records, b.total_records);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.records_per_user_day.count(), b.records_per_user_day.count());
  EXPECT_EQ(a.records_per_user_day.mean(), b.records_per_user_day.mean());
  EXPECT_EQ(a.active_users_per_day.count(), b.active_users_per_day.count());
  EXPECT_EQ(a.active_users_per_day.sum(), b.active_users_per_day.sum());
}

// Days with no activity between the first and last touched day are counted
// as zero-active days, not skipped.
TEST(PerUserSegment, QuietDaysCountAsZeroActive) {
  PerUserSegment segment;
  segment.Touch(SimTime::FromSeconds(100.0), 5, 1, 0);               // day 0
  segment.Touch(SimTime::FromSeconds(3 * 86400.0 + 100.0), 5, 1, 0);  // day 3
  const PerUserActivityStats stats = segment.Finalize();
  EXPECT_EQ(stats.active_users_per_day.count(), 4);  // days 0..3
  EXPECT_EQ(stats.active_users_per_day.sum(), 2.0);
  EXPECT_EQ(stats.active_users_per_day.min(), 0.0);
  EXPECT_EQ(stats.active_users_per_day.max(), 1.0);
}

// -- Serial vs parallel parity on a fleet trace -------------------------------

TEST(PerUserActivity, FleetSerialAndParallelAnalysesBitIdentical) {
  auto fleet = ParseFleetSpec("2xA5+E3");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Minutes(40);
  options.base.seed = 777;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();

  // Tiny blocks force many parallel segment boundaries.
  const std::string path = TempPath("per_user_fleet.trc");
  TraceWriterOptions writer;
  writer.version = 3;
  writer.block_target_bytes = 4096;
  ASSERT_TRUE(SaveTrace(path, generated.value().trace, writer).ok());

  TraceFileSource source(path);
  AnalyzeOptions serial_options;
  serial_options.source = &source;
  auto serial = Analyze(serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  // A 40-minute trace sees only a handful of logins per machine, but each
  // instance's daemon pseudo-users plus at least a few humans show up.
  EXPECT_GT(serial.value().per_user.users.size(), 4u);
  for (unsigned threads : {2u, 8u}) {
    AnalyzeOptions parallel_options;
    parallel_options.path = path;
    parallel_options.threads = threads;
    auto parallel = Analyze(parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    EXPECT_EQ(serial.value().per_user.total_records,
              parallel.value().per_user.total_records);
    EXPECT_TRUE(AnalysisBitIdentical(serial.value(), parallel.value()))
        << "per-user parity broken at " << threads << " threads";
  }
}

// -- Band validation ----------------------------------------------------------

TEST(TableIBandCheck, FlagsOutOfBandRatesAndIgnoresDaemonUsers) {
  TraceHeader header;
  header.description = AppendFleetTag(
      "t", {{.trace_name = "A5", .user_base = 0, .user_population = 10}});
  PerUserActivityStats stats;
  stats.duration = Duration::Hours(24);
  stats.days = 1.0;
  // Daemon pseudo-users (ids 0 and 1) are wildly active but must not count.
  stats.users[0] = {.records = 1000000, .bytes = 0};
  stats.users[1] = {.records = 1000000, .bytes = 0};
  for (UserId u = 2; u < 12; ++u) {
    stats.users[u] = {.records = 10, .bytes = 0};  // 10 records/user/day
  }
  const std::vector<ActivityBandCheck> checks = CheckActivityBands(header, stats);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].trace_name, "A5");
  EXPECT_NEAR(checks[0].records_per_user_day, 10.0, 1e-9);
  EXPECT_FALSE(checks[0].ok) << "a starved machine must trip the band";
}

TEST(TableIBandCheck, UntaggedOrTooShortTracesYieldNoChecks) {
  PerUserActivityStats stats;
  stats.days = 1.0;
  TraceHeader untagged;
  untagged.description = "synthetic A5 trace";
  EXPECT_TRUE(CheckActivityBands(untagged, stats).empty());

  TraceHeader tagged;
  tagged.description = AppendFleetTag(
      "t", {{.trace_name = "A5", .user_base = 0, .user_population = 90}});
  PerUserActivityStats blip;
  blip.days = 1.0 / (24.0 * 60.0);  // one simulated minute
  EXPECT_TRUE(CheckActivityBands(tagged, blip).empty());
}

// The satellite property test: each paper profile stays inside its
// calibrated Table I band both at the paper's population and when scaled to
// 1000 users — per-user activity is scale-invariant by construction.
TEST(TableIBandProperty, HoldsAtPaperScaleAndAtThousandUsers) {
  for (const char* name : {"A5", "E3", "C4"}) {
    for (int users : {0, 1000}) {
      auto fleet = ParseFleetSpec(name, users);
      ASSERT_TRUE(fleet.ok()) << fleet.status().message();
      FleetGeneratorOptions options;
      options.base.duration = Duration::Hours(6);
      options.base.seed = 20260806;
      options.shards_per_machine = 4;
      options.threads = 2;
      auto result = GenerateFleetTrace(fleet.value(), options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      const TraceAnalysis analysis = AnalyzeForTest(result.value().trace);
      const std::vector<ActivityBandCheck> checks =
          CheckActivityBands(result.value().trace.header(), analysis.per_user);
      ASSERT_EQ(checks.size(), 1u) << name;
      EXPECT_EQ(checks[0].trace_name, name);
      if (users > 0) {
        EXPECT_EQ(checks[0].user_population, users);
      }
      EXPECT_TRUE(checks[0].ok)
          << name << " at users=" << users << ": " << checks[0].records_per_user_day
          << " records/user/day outside [" << checks[0].band.min_records_per_user_day
          << ", " << checks[0].band.max_records_per_user_day << "]";
    }
  }
}

}  // namespace
}  // namespace bsdtrace
