#include "src/workload/fleet.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/trace/trace_io.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

// -- Spec parsing -------------------------------------------------------------

TEST(FleetSpec, SingleProfile) {
  const auto fleet = ParseFleetSpec("A5");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  EXPECT_EQ(fleet.value().spec, "A5");
  ASSERT_EQ(fleet.value().machines.size(), 1u);
  EXPECT_EQ(fleet.value().machines[0].trace_name, "A5");
}

TEST(FleetSpec, PrefixAndCountsAndCanonicalization) {
  const auto fleet = ParseFleetSpec("fleet:4xucbarpa+2xE3+2xC4");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  // Canonical: trace names, counts preserved, no "fleet:" prefix.
  EXPECT_EQ(fleet.value().spec, "4xA5+2xE3+2xC4");
  ASSERT_EQ(fleet.value().machines.size(), 8u);
  EXPECT_EQ(fleet.value().machines[0].trace_name, "A5");
  EXPECT_EQ(fleet.value().machines[4].trace_name, "E3");
  EXPECT_EQ(fleet.value().machines[6].trace_name, "C4");
}

TEST(FleetSpec, UnknownProfileNamesValidOnes) {
  const auto fleet = ParseFleetSpec("fleet:2xB9");
  ASSERT_FALSE(fleet.ok());
  // The error must teach the valid names (the old ProfileByName silently
  // handed back A5 instead).
  EXPECT_NE(fleet.status().message().find("B9"), std::string::npos);
  EXPECT_NE(fleet.status().message().find("A5"), std::string::npos);
  EXPECT_NE(fleet.status().message().find("C4"), std::string::npos);
}

TEST(FleetSpec, MalformedSpecsError) {
  EXPECT_FALSE(ParseFleetSpec("").ok());
  EXPECT_FALSE(ParseFleetSpec("fleet:").ok());
  EXPECT_FALSE(ParseFleetSpec("A5++E3").ok());
  EXPECT_FALSE(ParseFleetSpec("0xA5").ok());
  EXPECT_FALSE(ParseFleetSpec("3x").ok());
  EXPECT_FALSE(ParseFleetSpec("99999xA5").ok());  // count cap
}

TEST(FleetSpec, UsersSetsPopulationScale) {
  const auto fleet = ParseFleetSpec("A5+E3", 1000);
  ASSERT_TRUE(fleet.ok());
  for (const MachineProfile& machine : fleet.value().machines) {
    EXPECT_EQ(machine.scale.users, 1000);
    EXPECT_EQ(ApplyPopulationScale(machine).user_population, 1000);
  }
}

// -- Layout -------------------------------------------------------------------

TEST(FleetLayout, BasesAccumulateWithScaleResolved) {
  auto fleet = ParseFleetSpec("2xA5+C4", 100);
  ASSERT_TRUE(fleet.ok());
  const std::vector<FleetInstanceTag> tags = FleetLayout(fleet.value());
  ASSERT_EQ(tags.size(), 3u);
  // Each instance owns population + 2 ids (two daemon pseudo-users).
  EXPECT_EQ(tags[0], (FleetInstanceTag{"A5", 0, 100}));
  EXPECT_EQ(tags[1], (FleetInstanceTag{"A5", 102, 100}));
  EXPECT_EQ(tags[2], (FleetInstanceTag{"C4", 204, 100}));
}

// -- Instance seeds -----------------------------------------------------------

TEST(FleetInstanceSeed, InstanceZeroKeepsBaseSeedOthersDiffer) {
  const uint64_t seed = 19851201;
  EXPECT_EQ(internal::FleetInstanceSeed(seed, 0), seed);
  std::set<uint64_t> seen{seed};
  for (size_t i = 1; i < 64; ++i) {
    EXPECT_TRUE(seen.insert(internal::FleetInstanceSeed(seed, i)).second)
        << "instance " << i << " collides";
  }
}

// -- Generation ---------------------------------------------------------------

FleetGeneratorOptions ShortFleetOptions(int shards, int threads) {
  FleetGeneratorOptions options;
  options.base.duration = Duration::Minutes(40);
  options.base.seed = 424242;
  options.shards_per_machine = shards;
  options.threads = threads;
  return options;
}

FleetGenerationResult GenerateFleet(const std::string& spec, int shards, int threads,
                                    int users = 0) {
  auto fleet = ParseFleetSpec(spec, users);
  EXPECT_TRUE(fleet.ok()) << fleet.status().message();
  auto result = GenerateFleetTrace(fleet.value(), ShortFleetOptions(shards, threads));
  EXPECT_TRUE(result.ok()) << result.status().message();
  return std::move(result).value();
}

// A fleet of one machine is the single-machine sharded run: the spill engine
// streams the in-memory twin's records, and the header is the fleet header
// (it carries the tag, unlike the serial one).
TEST(FleetGenerate, OneMachineFleetMatchesShardedRecords) {
  auto a5 = ParseFleetSpec("A5");
  ASSERT_TRUE(a5.ok()) << a5.status().message();
  auto twin = internal::GenerateFleetInMemory(a5.value(), ShortFleetOptions(4, 2));
  ASSERT_TRUE(twin.ok()) << twin.status().message();
  const GenerationResult serial = GenerateTrace(ProfileA5(), ShortFleetOptions(4, 2).base);

  const FleetGenerationResult fleet = GenerateFleet("A5", /*shards=*/4, /*threads=*/2);
  EXPECT_EQ(twin.value().trace.records(), fleet.trace.records());
  EXPECT_FALSE(fleet.trace.empty());
  EXPECT_NE(serial.trace.header().description, fleet.trace.header().description);
  EXPECT_EQ(ParseFleetTag(fleet.trace.header().description),
            (std::vector<FleetInstanceTag>{{"A5", 0, ProfileA5().user_population}}));
}

TEST(FleetGenerate, DeterministicAcrossThreadCountsAndRuns) {
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const FleetGenerationResult once = GenerateFleet("2xA5+C4", 2, 1);
  const FleetGenerationResult again = GenerateFleet("2xA5+C4", 2, 1);
  const FleetGenerationResult wide = GenerateFleet("2xA5+C4", 2, static_cast<int>(hw));
  EXPECT_EQ(once.trace, again.trace);
  EXPECT_EQ(once.trace, wide.trace);
  EXPECT_FALSE(once.trace.empty());
}

TEST(FleetGenerate, MergedFleetTraceIsTimeSortedAndValid) {
  const FleetGenerationResult result = GenerateFleet("2xA5+E3", 2, 2);
  ASSERT_FALSE(result.trace.empty());
  const ValidationResult report = ValidateTrace(result.trace);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Identical profiles in one fleet must not replay the same trace: the
// per-instance seeds decorrelate them.
TEST(FleetGenerate, IdenticalProfilesDecorrelate) {
  const FleetGenerationResult result = GenerateFleet("2xA5", 1, 2);
  const std::vector<FleetInstanceTag> tags = ParseFleetTag(result.trace.header().description);
  ASSERT_EQ(tags.size(), 2u);
  // Count records per instance by user range; mirrors of one trace would tie.
  std::map<size_t, uint64_t> per_instance;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
      for (size_t i = 0; i < tags.size(); ++i) {
        if (r.user_id >= tags[i].user_base &&
            r.user_id < tags[i].user_base + static_cast<UserId>(tags[i].user_population) + 2) {
          per_instance[i] += 1;
        }
      }
    }
  }
  ASSERT_EQ(per_instance.size(), 2u);
  EXPECT_NE(per_instance[0], per_instance[1]);
}

// Satellite invariants at fleet scope: unique OpenIds across the whole
// merged trace for every shard/thread combination, and user ids confined to
// their instance's tagged range.
TEST(FleetGenerate, UniqueIdsAndUserRangesAcrossShardAndThreadCounts) {
  for (int shards : {1, 3}) {
    for (int threads : {1, 4}) {
      const FleetGenerationResult result = GenerateFleet("A5+E3", shards, threads);
      const std::vector<FleetInstanceTag> tags =
          ParseFleetTag(result.trace.header().description);
      ASSERT_EQ(tags.size(), 2u);
      const UserId id_end =
          tags[1].user_base + static_cast<UserId>(tags[1].user_population) + 2;
      std::set<OpenId> opens;
      SimTime prev;
      for (const TraceRecord& r : result.trace.records()) {
        EXPECT_LE(prev, r.time);
        prev = r.time;
        if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
          EXPECT_TRUE(opens.insert(r.open_id).second)
              << "duplicate open id " << r.open_id << " at shards=" << shards;
          EXPECT_LT(r.user_id, id_end);
        }
      }
    }
  }
}

// Population scaling inside a fleet: the scaled machine materializes the
// scaled population (users appear beyond the paper's 90) and the tag
// advertises the scaled count.
TEST(FleetGenerate, ScaledPopulationShowsUpInTagAndUsers)
{
  const FleetGenerationResult result =
      GenerateFleet("A5", /*shards=*/4, /*threads=*/2, /*users=*/300);
  const std::vector<FleetInstanceTag> tags = ParseFleetTag(result.trace.header().description);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].user_population, 300);
  UserId max_user = 0;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
      max_user = std::max(max_user, r.user_id);
    }
  }
  // With 300 users the top of the range (ids 2..301) should be populated
  // well past the unscaled 90-user ceiling of id 91.
  EXPECT_GT(max_user, 150u);
  EXPECT_LE(max_user, 301u);
}

// -- Scale gates --------------------------------------------------------------

// Two 500-user A5 machines over six simulated hours, 8 shards each, seed
// 19851201.  The same records cost at most a third of their v3 bytes as
// compressed v4, and a parallel analysis of the v4 file puts every
// instance's per-user rate inside its Table I band.  Shorter runs hold
// neither gate: at one hour the per-user rates fall below the band.
TEST(FleetScale, SixHourTwoMachineV4SizeAndActivityBands) {
  auto fleet = ParseFleetSpec("2xA5", /*users=*/500);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(6);
  options.base.seed = 19851201;
  options.shards_per_machine = 8;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  const Trace& trace = generated.value().trace;

  const std::string v3_path = TempPath("fleet_scale_v3.trc");
  const std::string v4_path = TempPath("fleet_scale_v4.trc");
  ASSERT_TRUE(SaveTrace(v3_path, trace, {.version = 3}).ok());
  ASSERT_TRUE(SaveTrace(v4_path, trace, {.version = 4}).ok());
  const uintmax_t v3_bytes = std::filesystem::file_size(v3_path);
  const uintmax_t v4_bytes = std::filesystem::file_size(v4_path);
  EXPECT_LE(3 * v4_bytes, v3_bytes) << "v3 " << v3_bytes << " B, v4 " << v4_bytes << " B";

  AnalyzeOptions analyze;
  analyze.path = v4_path;
  analyze.threads = 2;
  analyze.check_bands = true;
  auto analysis = Analyze(analyze);
  std::remove(v3_path.c_str());
  std::remove(v4_path.c_str());
  ASSERT_TRUE(analysis.ok()) << analysis.status().message();
  ASSERT_EQ(analysis.value().band_checks.size(), 2u);
  for (const ActivityBandCheck& c : analysis.value().band_checks) {
    EXPECT_TRUE(c.ok) << "instance " << c.instance << ": " << c.records_per_user_day
                      << " records/user/day";
  }
}

}  // namespace
}  // namespace bsdtrace
