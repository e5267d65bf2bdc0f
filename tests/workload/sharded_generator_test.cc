#include "src/workload/sharded_generator.h"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/trace/validate.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"

namespace bsdtrace {
namespace {

// A small, fast configuration: a short slice of the A5 machine.
GeneratorOptions ShortOptions() {
  GeneratorOptions options;
  options.duration = Duration::Minutes(40);
  options.seed = 424242;
  return options;
}

// The one-machine fleet through the spill engine: a single machine is
// ParseFleetSpec("A5").
FleetGenerationResult ShardedA5(const GeneratorOptions& base, int shards, int threads) {
  auto fleet = ParseFleetSpec("A5");
  EXPECT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base = base;
  options.shards_per_machine = shards;
  options.threads = threads;
  auto result = GenerateFleetTrace(fleet.value(), options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return std::move(result).value();
}

FleetGenerationResult Generate(int shards, int threads) {
  return ShardedA5(ShortOptions(), shards, threads);
}

// The spill engine at one shard streams exactly the serial records and
// reports the serial run's counters (only the header differs: fleet headers
// carry the fleet tag).
void ExpectOneShardMatchesSerial(const GeneratorOptions& base) {
  const GenerationResult serial = GenerateTrace(ProfileA5(), base);
  const FleetGenerationResult sharded = ShardedA5(base, /*shards=*/1, /*threads=*/1);
  ASSERT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.trace.records(), sharded.trace.records());
  EXPECT_EQ(sharded.stats.records_streamed, serial.trace.size());
  EXPECT_EQ(serial.tasks_executed, sharded.stats.tasks_executed);
  const KernelCounters& s = serial.kernel_counters;
  const KernelCounters& k = sharded.stats.kernel_counters;
  EXPECT_EQ(s.opens, k.opens);
  EXPECT_EQ(s.creates, k.creates);
  EXPECT_EQ(s.closes, k.closes);
  EXPECT_EQ(s.seeks, k.seeks);
  EXPECT_EQ(s.reads, k.reads);
  EXPECT_EQ(s.writes, k.writes);
  EXPECT_EQ(s.unlinks, k.unlinks);
  EXPECT_EQ(s.truncates, k.truncates);
  EXPECT_EQ(s.execves, k.execves);
  EXPECT_EQ(s.errors, k.errors);
  EXPECT_EQ(s.bytes_read, k.bytes_read);
  EXPECT_EQ(s.bytes_written, k.bytes_written);
  EXPECT_EQ(serial.shared_image_watermark, sharded.stats.shared_image_watermark);
}

TEST(ShardedGenerator, OneShardIsBitIdenticalToSerial) {
  ExpectOneShardMatchesSerial(ShortOptions());
}

// The same contract at the standard six-hour A5 settings used across the
// docs (seed 19851201).
TEST(ShardedGenerator, SixHourOneShardIsBitIdenticalToSerial) {
  GeneratorOptions base;
  base.duration = Duration::Hours(6);
  base.seed = 19851201;
  ExpectOneShardMatchesSerial(base);
}

// The core determinism contract: for a fixed shard count the generated
// trace does not depend on the thread count or the run.
TEST(ShardedGenerator, DeterministicAcrossThreadCountsAndRuns) {
  const int hw = std::max(2u, std::thread::hardware_concurrency());
  for (int shards : {1, 2, 8}) {
    const Trace once = Generate(shards, /*threads=*/1).trace;
    EXPECT_EQ(once, Generate(shards, /*threads=*/1).trace)
        << "rerun differs at shards=" << shards;
    EXPECT_EQ(once, Generate(shards, /*threads=*/hw).trace)
        << "thread count changes output at shards=" << shards;
    EXPECT_FALSE(once.empty());
  }
}

TEST(ShardedGenerator, MergedTraceIsTimeSortedAndValid) {
  const FleetGenerationResult result = Generate(/*shards=*/4, /*threads=*/2);
  ASSERT_FALSE(result.trace.empty());
  const ValidationResult report = ValidateTrace(result.trace);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Remapped ids: every open gets a globally unique OpenId, and FileIds above
// the shared-image watermark never collide across shards.
TEST(ShardedGenerator, RemappedIdsAreUnique) {
  const FleetGenerationResult result = Generate(/*shards=*/4, /*threads=*/2);
  std::set<OpenId> opens;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
      EXPECT_TRUE(opens.insert(r.open_id).second) << "duplicate open id " << r.open_id;
    }
  }
  EXPECT_GT(opens.size(), 0u);
}

TEST(ShardedGenerator, ShardImagesStayConsistent) {
  const FleetGenerationResult result = Generate(/*shards=*/8, /*threads=*/2);
  EXPECT_TRUE(result.stats.fsck.ok()) << result.stats.fsck.Summary();
  EXPECT_GT(result.stats.shared_image_watermark, 0u);
  EXPECT_GT(result.stats.tasks_executed, 0u);
}

// The documented ShardPlan partition invariants (sharded_generator.h): users
// AND daemon hosts are round-robin partitions of their index spaces — the
// daemon fleet is spread across shards, not pinned to shard 0 — while the
// machine-wide system tick runs on shard 0 only and every shard with users
// delivers mail at a population/owned-compensated rate.
TEST(ShardPlan, PartitionInvariants) {
  const MachineProfile profile = ProfileA5();
  for (int shard_count : {1, 2, 3, 8}) {
    const std::vector<internal::ShardPlan> plans =
        internal::MakeShardPlans(profile, shard_count);
    ASSERT_EQ(plans.size(), static_cast<size_t>(shard_count));
    std::set<int> users, hosts;
    for (int s = 0; s < shard_count; ++s) {
      const internal::ShardPlan& plan = plans[static_cast<size_t>(s)];
      EXPECT_EQ(plan.shard_index, shard_count == 1 ? 0 : s);
      EXPECT_TRUE(std::is_sorted(plan.users.begin(), plan.users.end()));
      EXPECT_TRUE(std::is_sorted(plan.daemon_hosts.begin(), plan.daemon_hosts.end()));
      for (int u : plan.users) {
        EXPECT_EQ(u % shard_count, s) << "user " << u << " not round-robin";
        EXPECT_TRUE(users.insert(u).second) << "user " << u << " owned twice";
      }
      for (int h : plan.daemon_hosts) {
        EXPECT_EQ(h % shard_count, s) << "daemon host " << h << " not round-robin";
        EXPECT_TRUE(hosts.insert(h).second) << "host " << h << " owned twice";
      }
      EXPECT_EQ(plan.run_system_tick, s == 0);
      if (!plan.users.empty()) {
        EXPECT_TRUE(plan.run_mail);
        EXPECT_DOUBLE_EQ(plan.mail_scale * static_cast<double>(plan.users.size()),
                         static_cast<double>(profile.user_population));
      }
    }
    EXPECT_EQ(users.size(), static_cast<size_t>(profile.user_population));
    EXPECT_EQ(hosts.size(), static_cast<size_t>(profile.daemon_host_count));
  }
}

// Sharding partitions the same population, so aggregate activity should be
// in the same regime as the serial run (not, say, doubled or halved).
TEST(ShardedGenerator, ActivityComparableToSerial) {
  const GenerationResult serial = GenerateTrace(ProfileA5(), ShortOptions());
  const FleetGenerationResult sharded = Generate(/*shards=*/8, /*threads=*/2);
  ASSERT_GT(serial.trace.size(), 0u);
  const double ratio = static_cast<double>(sharded.trace.size()) /
                       static_cast<double>(serial.trace.size());
  EXPECT_GT(ratio, 0.5) << "sharded trace implausibly small";
  EXPECT_LT(ratio, 2.0) << "sharded trace implausibly large";
}

}  // namespace
}  // namespace bsdtrace
