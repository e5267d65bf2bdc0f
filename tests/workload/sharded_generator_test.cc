#include "src/workload/sharded_generator.h"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/trace/validate.h"
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

GenerationResult Generate(int shards, int threads) {
  ShardedGeneratorOptions options;
  options.base = ShortOptions();
  options.shard_count = shards;
  options.threads = threads;
  return GenerateTraceSharded(ProfileA5(), options);
}

TEST(ShardedGenerator, OneShardIsBitIdenticalToSerial) {
  const GenerationResult serial = GenerateTrace(ProfileA5(), ShortOptions());
  const GenerationResult sharded = Generate(/*shards=*/1, /*threads=*/1);
  EXPECT_EQ(serial.trace, sharded.trace);
  EXPECT_EQ(serial.trace.header().description, sharded.trace.header().description);
  EXPECT_EQ(serial.tasks_executed, sharded.tasks_executed);
  EXPECT_EQ(serial.kernel_counters.opens, sharded.kernel_counters.opens);
  EXPECT_EQ(serial.kernel_counters.bytes_read, sharded.kernel_counters.bytes_read);
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
  const GenerationResult result = Generate(/*shards=*/4, /*threads=*/2);
  ASSERT_FALSE(result.trace.empty());
  const ValidationResult report = ValidateTrace(result.trace);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Remapped ids: every open gets a globally unique OpenId, and FileIds above
// the shared-image watermark never collide across shards.
TEST(ShardedGenerator, RemappedIdsAreUnique) {
  const GenerationResult result = Generate(/*shards=*/4, /*threads=*/2);
  std::set<OpenId> opens;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.type == EventType::kOpen || r.type == EventType::kCreate) {
      EXPECT_TRUE(opens.insert(r.open_id).second) << "duplicate open id " << r.open_id;
    }
  }
  EXPECT_GT(opens.size(), 0u);
}

TEST(ShardedGenerator, ShardImagesStayConsistent) {
  const GenerationResult result = Generate(/*shards=*/8, /*threads=*/2);
  EXPECT_TRUE(result.fsck.ok()) << result.fsck.Summary();
  EXPECT_GT(result.shared_image_watermark, 0u);
  EXPECT_GT(result.tasks_executed, 0u);
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
  const GenerationResult sharded = Generate(/*shards=*/8, /*threads=*/2);
  ASSERT_GT(serial.trace.size(), 0u);
  const double ratio = static_cast<double>(sharded.trace.size()) /
                       static_cast<double>(serial.trace.size());
  EXPECT_GT(ratio, 0.5) << "sharded trace implausibly small";
  EXPECT_LT(ratio, 2.0) << "sharded trace implausibly large";
}

}  // namespace
}  // namespace bsdtrace
