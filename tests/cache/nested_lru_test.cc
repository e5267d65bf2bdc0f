// The nested LRU engine: one FusedCacheSimulator replay serving several
// cache sizes and write policies of one family, checked member by member
// against a CacheSimulator run of the member's own config.  Bit-identity
// covers the residency moments, whose running sums depend on the order in
// which each size records its samples.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/simulator.h"
#include "src/cache/sweep.h"
#include "src/trace/replay_log.h"
#include "src/util/rng.h"
#include "tests/testing/random_traces.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

constexpr uint32_t kBlock = 4096;

// Every write policy the figures sweep.
const std::vector<FusedCacheSimulator::PolicyLane>& Lanes() {
  static const std::vector<FusedCacheSimulator::PolicyLane> lanes = {
      {WritePolicy::kWriteThrough, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Seconds(30)},
      {WritePolicy::kFlushBack, Duration::Minutes(5)},
      {WritePolicy::kDelayedWrite, Duration::Seconds(30)},
  };
  return lanes;
}

// One member per (size, lane), size-major, in the order `blocks` lists the
// sizes (in 4 KB blocks).
std::vector<CacheConfig> Members(const std::vector<uint64_t>& blocks) {
  std::vector<CacheConfig> members;
  for (const uint64_t b : blocks) {
    for (const FusedCacheSimulator::PolicyLane& lane : Lanes()) {
      CacheConfig c;
      c.size_bytes = b * kBlock;
      c.block_size = kBlock;
      c.policy = lane.policy;
      c.flush_interval = lane.flush_interval;
      members.push_back(c);
    }
  }
  return members;
}

// One nested replay of `trace` over `members` against a reference run per
// member, under both billing bounds.
void ExpectNestedMatchesReference(const Trace& trace, const std::vector<CacheConfig>& members,
                                  const std::string& label) {
  for (const BillingPolicy billing :
       {BillingPolicy::kAtNextEvent, BillingPolicy::kAtPreviousEvent}) {
    const ReplayLog log = ReplayLog::Build(trace, billing);
    FusedCacheSimulator nested(members);
    nested.Replay(log);
    for (size_t i = 0; i < members.size(); ++i) {
      const CacheMetrics reference = SimulateCache(trace, members[i], billing);
      const CacheMetrics m = nested.Metrics(i);
      const std::string where =
          label + " / " + members[i].ToString() +
          (billing == BillingPolicy::kAtNextEvent ? " / billed-at-next" : " / billed-at-previous");
      EXPECT_EQ(m.disk_reads, reference.disk_reads) << where;
      EXPECT_EQ(m.disk_writes, reference.disk_writes) << where;
      EXPECT_EQ(m.dirty_discarded, reference.dirty_discarded) << where;
      EXPECT_EQ(m.evictions, reference.evictions) << where;
      EXPECT_EQ(m.residency_samples, reference.residency_samples) << where;
      EXPECT_TRUE(CacheMetricsBitIdentical(m, reference)) << where;
    }
  }
}

// File 1's four blocks enter every size at one time, written; a read of
// block 0 at that same time brings it back, clean, into the small sizes
// that evicted it (an engine comparing the write's time with the entry's
// would call it dirty).  A later read of block 1 refills the
// 2- and 3-block sizes, so each small size holds the file's blocks in an
// entry order unlike the large one's.  A non-zero truncate, then an unlink,
// each drop several blocks per size: every size records the drops newest
// entry first, as its own cache's file chain would hold them.
Trace DropOrderTrace() {
  TraceBuilder b;
  b.WholeWrite(1.0, 1.3, 1, 1, 4 * kBlock);
  b.Open(1.2, 2, 1, 4 * kBlock, AccessMode::kReadOnly);
  b.Close(1.3, 2, 1, kBlock, 4 * kBlock);  // reads block 0
  b.WholeRead(1.9, 2.1, 3, 2, 2 * kBlock);  // another file's two blocks
  b.Open(2.5, 4, 1, 4 * kBlock, AccessMode::kReadOnly, 1, kBlock);
  b.Close(2.6, 4, 1, 2 * kBlock, 4 * kBlock);  // reads block 1
  b.Open(3.1, 5, 1, 4 * kBlock, AccessMode::kReadOnly, 1, 3 * kBlock);
  b.Close(3.35, 5, 1, 4 * kBlock, 4 * kBlock);  // reads block 3
  b.Truncate(4.7, 1, 1);  // drops blocks 1..3
  b.WholeRead(5.2, 5.3, 6, 2, 2 * kBlock);
  b.Unlink(5.9, 1);  // drops block 0
  b.Unlink(6.4, 2);
  b.WholeRead(700.0, 700.5, 7, 3, kBlock);  // flush epochs elapse
  return b.Build();
}

TEST(NestedLru, InvalidationDropsInEachSizesOwnEntryOrder) {
  // Sizes unsorted, with a duplicate block count.
  ExpectNestedMatchesReference(DropOrderTrace(), Members({8, 2, 3, 2, 1}), "drop order");
}

// A hit on a small size's least recently used block makes its newer
// neighbour the tail: the 2-block size holds {B, A}, A is read again, and
// C's miss must then evict B — so A's next read hits there.
TEST(NestedLru, HitOnTheTailHandsTheTailToItsNeighbour) {
  TraceBuilder b;
  b.WholeRead(1.0, 1.05, 1, 1, kBlock);  // A
  b.WholeRead(2.1, 2.15, 2, 2, kBlock);  // B
  b.WholeRead(3.3, 3.35, 3, 1, kBlock);  // A again: B becomes the 2-block tail
  b.WholeRead(4.6, 4.65, 4, 3, kBlock);  // C evicts B from the 2-block size
  b.WholeRead(5.2, 5.25, 5, 1, kBlock);  // A hits in every size
  b.WholeRead(6.9, 6.95, 6, 2, kBlock);  // B misses in the 2-block size only
  ExpectNestedMatchesReference(b.Build(), Members({4, 2}), "tail hit");
}

// An invalidation that drops a small size's tail hands the tail to its
// newer neighbour, before the freed slot is reused: the 2-block size holds
// {B, A}, A's file is unlinked, C refills the hole (in A's old slot) and
// D's miss must then evict B, not C.
TEST(NestedLru, DroppedTailHandsTheTailToItsNeighbour) {
  TraceBuilder b;
  b.WholeRead(1.0, 1.05, 1, 1, kBlock);  // A
  b.WholeRead(2.1, 2.15, 2, 2, kBlock);  // B
  b.Unlink(2.8, 1);                      // drops A, the 2-block tail
  b.WholeRead(3.3, 3.35, 3, 3, kBlock);  // C fills the hole
  b.WholeRead(4.6, 4.65, 4, 4, kBlock);  // D evicts B from the 2-block size
  b.WholeRead(5.2, 5.25, 5, 3, kBlock);  // C hits in every size
  b.WholeRead(6.9, 6.95, 6, 2, kBlock);  // B misses in the 2-block size only
  ExpectNestedMatchesReference(b.Build(), Members({2, 4}), "dropped tail");
}

TEST(NestedLru, OneSizeAnyReplacementPolicy) {
  // A single size is served by the shared cache's own replacement, so the
  // lane-only family works under every policy.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo, ReplacementPolicy::kClock}) {
    std::vector<CacheConfig> members = Members({24});
    for (CacheConfig& c : members) {
      c.replacement = policy;
    }
    ExpectNestedMatchesReference(RwTrace(7), members, ReplacementPolicyName(policy));
  }
}

// Seeded property: on the write-heavy invalidating traces of the stack-
// distance equivalence tests, nested families of K = 1, 2 and 5 random
// sizes (unsorted, duplicates allowed; half of them 2..12 blocks, where
// tails turn over every few accesses, the rest 1..96) x the four lanes
// match a reference run per member.
class NestedLruProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NestedLruProperty, EveryMemberMatchesItsOwnSimulation) {
  const Trace trace = RwTrace(GetParam());
  Rng rng(GetParam() * 31 + 1);
  for (const size_t k : {1u, 2u, 5u}) {
    std::vector<uint64_t> blocks;
    for (size_t j = 0; j < k; ++j) {
      blocks.push_back(static_cast<uint64_t>(rng.Bernoulli(0.5) ? rng.UniformInt(2, 12)
                                                                : rng.UniformInt(1, 96)));
    }
    std::string label = "seed " + std::to_string(GetParam()) + " sizes";
    for (const uint64_t b : blocks) {
      label += " " + std::to_string(b);
    }
    ExpectNestedMatchesReference(trace, Members(blocks), label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedLruProperty, ::testing::Values(5, 17, 29, 43));

}  // namespace
}  // namespace bsdtrace
