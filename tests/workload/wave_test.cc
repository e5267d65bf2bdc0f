// Fleet-of-fleets wave generation: the wave planner's grouping invariants,
// and the core promise that waved generation — bounded groups of instances
// generated separately into compressed v4 wave shards, then merged — yields
// a record stream and output file byte-identical to the single-wave run.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

using internal::PlanWaves;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(PlanWaves, NonPositiveBoundYieldsOneWave) {
  const std::vector<int> pops{10, 20, 30};
  EXPECT_EQ(PlanWaves(pops, 0), (std::vector<std::pair<size_t, size_t>>{{0, 3}}));
  EXPECT_EQ(PlanWaves(pops, -5), (std::vector<std::pair<size_t, size_t>>{{0, 3}}));
}

TEST(PlanWaves, GroupsGreedilyWithinBound) {
  // 10+20 fits in 30; adding the next 30 would not; 30 then 25 each fit.
  const std::vector<int> pops{10, 20, 30, 25};
  EXPECT_EQ(PlanWaves(pops, 30),
            (std::vector<std::pair<size_t, size_t>>{{0, 2}, {2, 3}, {3, 4}}));
}

TEST(PlanWaves, OversizeInstanceGetsItsOwnWave) {
  const std::vector<int> pops{5, 100, 5};
  EXPECT_EQ(PlanWaves(pops, 20),
            (std::vector<std::pair<size_t, size_t>>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(PlanWaves, WavesPartitionTheInstanceList) {
  const std::vector<int> pops{7, 3, 9, 1, 14, 2, 8};
  for (const int bound : {1, 5, 10, 25, 1000}) {
    const auto waves = PlanWaves(pops, bound);
    ASSERT_FALSE(waves.empty());
    size_t expect_begin = 0;
    for (const auto& [begin, end] : waves) {
      EXPECT_EQ(begin, expect_begin);
      EXPECT_GT(end, begin) << "empty wave";
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, pops.size());
  }
}

TEST(PlanWaves, EmptyFleet) {
  EXPECT_TRUE(PlanWaves({}, 10).empty());
}

FleetGeneratorOptions WaveOptions(int wave_users) {
  FleetGeneratorOptions options;
  options.base.duration = Duration::Minutes(20);
  options.base.seed = 424242;
  options.shards_per_machine = 2;
  options.threads = 2;
  options.wave_users = wave_users;
  options.file_options.version = 4;
  return options;
}

TEST(FleetWaves, WavedFileIsByteIdenticalToSingleWave) {
  auto fleet = ParseFleetSpec("4xA5", /*users=*/40);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();

  const std::string single_path = TempPath("wave_single.trc");
  auto single = GenerateFleetToFile(fleet.value(), WaveOptions(0), single_path);
  ASSERT_TRUE(single.ok()) << single.status().message();
  EXPECT_EQ(single.value().waves, 1u);
  EXPECT_EQ(single.value().wave_bytes_written, 0u);

  // 40 users per instance, bound 80: two waves of two instances each.
  const std::string waved_path = TempPath("wave_waved.trc");
  auto waved = GenerateFleetToFile(fleet.value(), WaveOptions(80), waved_path);
  ASSERT_TRUE(waved.ok()) << waved.status().message();
  EXPECT_EQ(waved.value().waves, 2u);
  EXPECT_GT(waved.value().wave_bytes_written, 0u);
  EXPECT_EQ(waved.value().records_streamed, single.value().records_streamed);

  EXPECT_EQ(ReadFileBytes(waved_path), ReadFileBytes(single_path))
      << "waved output bytes diverge from the single-wave run";
}

TEST(FleetWaves, WaveOfOneInstanceEachStillMatches) {
  auto fleet = ParseFleetSpec("2xA5+E3", /*users=*/30);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();

  const std::string single_path = TempPath("wave1_single.trc");
  auto single = GenerateFleetToFile(fleet.value(), WaveOptions(0), single_path);
  ASSERT_TRUE(single.ok()) << single.status().message();

  // Bound below any instance population: every instance is its own wave.
  const std::string waved_path = TempPath("wave1_waved.trc");
  auto waved = GenerateFleetToFile(fleet.value(), WaveOptions(1), waved_path);
  ASSERT_TRUE(waved.ok()) << waved.status().message();
  EXPECT_EQ(waved.value().waves, 3u);
  EXPECT_EQ(ReadFileBytes(waved_path), ReadFileBytes(single_path));
}

TEST(FleetWaves, WavedV4FileRoundTripsAndCompresses) {
  auto fleet = ParseFleetSpec("3xA5", /*users=*/30);
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  const std::string path = TempPath("wave_check.trc");
  auto stats = GenerateFleetToFile(fleet.value(), WaveOptions(35), path);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  ASSERT_GT(stats.value().waves, 1u);

  TraceFileReader reader(path);
  ASSERT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(reader.version(), 4);
  TraceRecord r;
  uint64_t n = 0;
  SimTime prev = SimTime::Origin();
  while (reader.Next(&r)) {
    EXPECT_GE(r.time, prev) << "record " << n << " out of order";
    prev = r.time;
    ++n;
  }
  ASSERT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(n, stats.value().records_streamed);
}

}  // namespace
}  // namespace bsdtrace
