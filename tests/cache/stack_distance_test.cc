#include "src/cache/stack_distance.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/cache/sweep.h"
#include "src/util/rng.h"
#include "tests/testing/random_traces.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Builds a read-only trace that touches the given 4 KB blocks of file 1 in
// order (one open per touch).
Trace BlockTouches(const std::vector<uint64_t>& blocks) {
  TraceBuilder b;
  double t = 1;
  OpenId oid = 1;
  for (uint64_t block : blocks) {
    b.Open(t, oid, 1, (block + 1) * 4096);
    if (block > 0) {
      b.Seek(t + 0.1, oid, 1, 0, block * 4096);
    }
    b.Close(t + 0.2, oid, 1, (block + 1) * 4096, (block + 1) * 4096);
    ++oid;
    t += 1;
  }
  return b.Build();
}

TEST(StackDistance, ColdMissesOnly) {
  const StackDistanceProfile p = ComputeStackDistances(BlockTouches({0, 1, 2, 3}), 4096);
  EXPECT_EQ(p.total_accesses(), 4u);
  EXPECT_EQ(p.cold_misses(), 4u);
  EXPECT_EQ(p.MissesAt(1), 4u);
  EXPECT_EQ(p.MissesAt(100), 4u);
}

TEST(StackDistance, ImmediateReuseIsDistanceOne) {
  const StackDistanceProfile p = ComputeStackDistances(BlockTouches({0, 0, 0}), 4096);
  EXPECT_EQ(p.total_accesses(), 3u);
  EXPECT_EQ(p.cold_misses(), 1u);
  // Distance-1 hits fit in a single-block cache.
  EXPECT_EQ(p.MissesAt(1), 1u);
}

TEST(StackDistance, ClassicSequence) {
  // Touch order: a b c a.  The re-access of `a` has stack distance 3.
  const StackDistanceProfile p = ComputeStackDistances(BlockTouches({0, 1, 2, 0}), 4096);
  EXPECT_EQ(p.cold_misses(), 3u);
  EXPECT_EQ(p.MissesAt(2), 4u);  // distance 3 misses in a 2-block cache
  EXPECT_EQ(p.MissesAt(3), 3u);  // ...but hits with 3 blocks
}

TEST(StackDistance, DistanceShrinksWithReReference) {
  // a b a b: each re-access at distance 2.
  const StackDistanceProfile p = ComputeStackDistances(BlockTouches({0, 1, 0, 1}), 4096);
  EXPECT_EQ(p.MissesAt(1), 4u);
  EXPECT_EQ(p.MissesAt(2), 2u);
  ASSERT_GT(p.distance_counts().size(), 2u);
  EXPECT_EQ(p.distance_counts()[2], 2u);
}

TEST(StackDistance, InvalidationForcesColdMiss) {
  TraceBuilder b;
  b.WholeRead(1, 1.1, 1, 7, 4096);
  b.Unlink(2, 7);
  b.WholeRead(3, 3.1, 2, 7, 4096);  // same file id, data re-created
  const StackDistanceProfile p = ComputeStackDistances(b.Build(), 4096);
  EXPECT_EQ(p.total_accesses(), 2u);
  EXPECT_EQ(p.cold_misses(), 2u);  // the unlink voided the first block
}

TEST(StackDistance, TruncateInvalidatesTailOnly) {
  TraceBuilder b;
  b.WholeRead(1, 1.1, 1, 7, 8192);   // blocks 0,1
  b.Truncate(2, 7, 4096);            // invalidates block 1
  b.WholeRead(3, 3.1, 2, 7, 8192);   // block 0 re-access, block 1 cold again
  const StackDistanceProfile p = ComputeStackDistances(b.Build(), 4096);
  EXPECT_EQ(p.total_accesses(), 4u);
  EXPECT_EQ(p.cold_misses(), 3u);
}

TEST(StackDistance, EmptyTrace) {
  const StackDistanceProfile p = ComputeStackDistances(Trace{}, 4096);
  EXPECT_EQ(p.total_accesses(), 0u);
  EXPECT_EQ(p.MissRatioAt(100), 0.0);
}

TEST(StackDistance, MissRatioMonotoneInCapacity) {
  Rng rng(3);
  std::vector<uint64_t> blocks;
  for (int i = 0; i < 2000; ++i) {
    blocks.push_back(static_cast<uint64_t>(rng.UniformInt(0, 50)));
  }
  const StackDistanceProfile p = ComputeStackDistances(BlockTouches(blocks), 4096);
  uint64_t prev = UINT64_MAX;
  for (uint64_t c = 1; c <= 64; ++c) {
    EXPECT_LE(p.MissesAt(c), prev);
    prev = p.MissesAt(c);
  }
  // Beyond the working set every non-cold access hits.
  EXPECT_EQ(p.MissesAt(64), p.cold_misses());
}

// Property: on read-only traces without invalidations, the one-pass analysis
// must match the full LRU simulator's disk reads at every capacity exactly.
class StackDistanceEquivalence : public ::testing::TestWithParam<uint64_t> {};

Trace ReadTrace(uint64_t seed, double unlink_probability) {
  Rng rng(seed);
  TraceBuilder b;
  double t = 1;
  OpenId oid = 1;
  for (int i = 0; i < 600; ++i) {
    const FileId file = static_cast<FileId>(rng.UniformInt(1, 20));
    if (rng.Bernoulli(unlink_probability)) {
      b.Unlink(t, file);
    } else {
      const uint64_t size = static_cast<uint64_t>(rng.UniformInt(1, 40000));
      b.WholeRead(t, t + 0.1, oid++, file, size);
    }
    t += 0.5;
  }
  return b.Build();
}

// Each property holds for the unbounded pass and for one capped at a small
// depth bound, where drops and compactions come every few accesses; the
// capped profile is queried only up to its bound.
constexpr uint64_t kSmallBound = 24;

std::vector<StackDistanceProfile> UnboundedAndCapped(const Trace& trace) {
  StackDistanceAnalyzer::Options capped;
  capped.max_capacity = kSmallBound;
  capped.initial_slots = 4;
  std::vector<StackDistanceProfile> passes;
  passes.push_back(ComputeStackDistances(trace, 4096));
  passes.push_back(ComputeStackDistances(trace, 4096, capped));
  return passes;
}

// Whether `p` may be queried at `capacity`: at most its bound, if any.
bool Answers(const StackDistanceProfile& p, uint64_t capacity) {
  return p.max_capacity() == 0 || capacity <= p.max_capacity();
}

TEST_P(StackDistanceEquivalence, MatchesSimulatorExactlyWithoutInvalidation) {
  const Trace trace = ReadTrace(GetParam(), 0.0);
  for (const StackDistanceProfile& p : UnboundedAndCapped(trace)) {
    for (uint64_t capacity : {1u, 4u, 16u, 24u, 64u, 256u}) {
      if (!Answers(p, capacity)) {
        continue;
      }
      CacheConfig c;
      c.size_bytes = capacity * 4096;
      c.block_size = 4096;
      c.policy = WritePolicy::kDelayedWrite;
      const CacheMetrics m = SimulateCache(trace, c);
      EXPECT_EQ(p.MissesAt(capacity), m.disk_reads)
          << "capacity " << capacity << " bound " << p.max_capacity();
    }
  }
}

TEST_P(StackDistanceEquivalence, MatchesSimulatorExactlyUnderInvalidation) {
  // Invalidations are processed as true stack deletions with historic-max
  // distances (see stack_distance.h), so the one-pass analysis stays exact —
  // not merely a bound — on unlink-heavy traces at every capacity.
  const Trace trace = ReadTrace(GetParam() + 100, 0.06);
  for (const StackDistanceProfile& p : UnboundedAndCapped(trace)) {
    for (uint64_t capacity = 1; capacity <= 384 && Answers(p, capacity);
         capacity = capacity * 3 / 2 + 1) {
      CacheConfig c;
      c.size_bytes = capacity * 4096;
      c.block_size = 4096;
      c.policy = WritePolicy::kDelayedWrite;
      const CacheMetrics m = SimulateCache(trace, c);
      EXPECT_EQ(p.MissesAt(capacity), m.disk_reads)
          << "capacity " << capacity << " bound " << p.max_capacity();
    }
  }
}

TEST_P(StackDistanceEquivalence, FetchMissParityOnWriteHeavyTrace) {
  // FetchMissesAt() must reproduce CacheMetrics::disk_reads bit-for-bit:
  // the no-fetch predicate (whole-block overwrite, write past known extent)
  // is capacity-independent, so it folds into a second histogram.
  const Trace trace = RwTrace(GetParam());
  for (const StackDistanceProfile& p : UnboundedAndCapped(trace)) {
    for (uint64_t capacity = 1; capacity <= 384 && Answers(p, capacity);
         capacity = capacity * 3 / 2 + 1) {
      CacheConfig c;
      c.size_bytes = capacity * 4096;
      c.block_size = 4096;
      c.policy = WritePolicy::kDelayedWrite;
      const CacheMetrics m = SimulateCache(trace, c);
      EXPECT_EQ(p.FetchMissesAt(capacity), m.disk_reads)
          << "capacity " << capacity << " bound " << p.max_capacity();
      EXPECT_EQ(p.total_accesses(), m.logical_accesses);
      EXPECT_EQ(p.read_accesses(), m.read_accesses);
      EXPECT_EQ(p.write_accesses(), m.write_accesses);
    }
  }
}

TEST_P(StackDistanceEquivalence, DiskReadsIndependentOfWritePolicy) {
  // The fetch curve the analyzer produces serves every write policy: under
  // LRU the residency evolution — hence disk_reads — is policy-invariant.
  const Trace trace = RwTrace(GetParam() + 7);
  for (const StackDistanceProfile& p : UnboundedAndCapped(trace)) {
    for (uint64_t capacity : {3u, 17u, 24u, 96u}) {
      if (!Answers(p, capacity)) {
        continue;
      }
      for (WritePolicy policy : {WritePolicy::kWriteThrough, WritePolicy::kFlushBack,
                                 WritePolicy::kDelayedWrite}) {
        CacheConfig c;
        c.size_bytes = capacity * 4096;
        c.block_size = 4096;
        c.policy = policy;
        const CacheMetrics m = SimulateCache(trace, c);
        EXPECT_EQ(p.FetchMissesAt(capacity), m.disk_reads)
            << "capacity " << capacity << " policy " << WritePolicyName(policy) << " bound "
            << p.max_capacity();
      }
    }
  }
}

TEST_P(StackDistanceEquivalence, MattsonCompactionInvariance) {
  // Forcing compaction every few accesses must not change any output: slot
  // renumbering preserves stack order and carries each block's historic max.
  const Trace trace = RwTrace(GetParam() + 23);
  const StackDistanceProfile base = ComputeStackDistances(trace, 4096);
  StackDistanceAnalyzer::Options tiny;
  tiny.initial_slots = 2;
  const StackDistanceProfile compacted = ComputeStackDistances(trace, 4096, tiny);
  EXPECT_EQ(base.total_accesses(), compacted.total_accesses());
  EXPECT_EQ(base.cold_misses(), compacted.cold_misses());
  EXPECT_EQ(base.fetch_accesses(), compacted.fetch_accesses());
  EXPECT_EQ(base.distance_counts(), compacted.distance_counts());
  for (uint64_t capacity = 1; capacity <= 256; capacity *= 2) {
    EXPECT_EQ(base.MissesAt(capacity), compacted.MissesAt(capacity)) << capacity;
    EXPECT_EQ(base.FetchMissesAt(capacity), compacted.FetchMissesAt(capacity)) << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDistanceEquivalence, ::testing::Values(5, 17, 29, 43));

class StackDistanceBound : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StackDistanceBound, CappedPassMatchesUnboundedUpToTheBound) {
  // A pass capped at K must give the unbounded pass's answer at every
  // capacity 1..K.  Small bounds and slot spaces make drops and compactions
  // frequent; RwTrace brings unlinks, non-zero truncates and overwrites.
  const Trace trace = RwTrace(GetParam(), 1200);
  const StackDistanceProfile full = ComputeStackDistances(trace, 4096);
  for (const uint64_t bound : {4u, 9u, 23u, 64u}) {
    for (const size_t slots : {2u, 5u, 8u}) {
      SCOPED_TRACE("bound " + std::to_string(bound) + " slots " + std::to_string(slots));
      StackDistanceAnalyzer::Options capped;
      capped.max_capacity = bound;
      capped.initial_slots = slots;
      const StackDistanceProfile p = ComputeStackDistances(trace, 4096, capped);
      EXPECT_EQ(p.max_capacity(), bound);
      EXPECT_EQ(p.total_accesses(), full.total_accesses());
      EXPECT_EQ(p.fetch_accesses(), full.fetch_accesses());
      EXPECT_EQ(p.cold_misses(), full.cold_misses());
      for (uint64_t capacity = 1; capacity <= bound; ++capacity) {
        EXPECT_EQ(p.MissesAt(capacity), full.MissesAt(capacity)) << capacity;
        EXPECT_EQ(p.FetchMissesAt(capacity), full.FetchMissesAt(capacity)) << capacity;
      }
      // Every distance past the bound is folded into K + 1.
      const std::vector<uint64_t>& all = full.distance_counts();
      std::vector<uint64_t> folded(bound + 2, 0);
      for (size_t d = 0; d < all.size(); ++d) {
        folded[std::min<size_t>(d, bound + 1)] += all[d];
      }
      ASSERT_GT(folded[bound + 1], 0u) << "the trace never reaches past the bound";
      EXPECT_EQ(p.distance_counts(), folded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDistanceBound, ::testing::Values(3, 19, 61));

// Reads one-block file 1, then `fillers` other one-block files, optionally
// unlinks file 1, and reads it again.
Trace RereadAfterFillers(int fillers, bool unlink_first) {
  TraceBuilder b;
  double t = 1;
  OpenId oid = 1;
  b.WholeRead(t, t + 0.1, oid++, 1, 4096);
  for (int f = 0; f < fillers; ++f) {
    t += 1;
    b.WholeRead(t, t + 0.1, oid++, static_cast<FileId>(100 + f), 4096);
  }
  if (unlink_first) {
    t += 1;
    b.Unlink(t, 1);
  }
  t += 1;
  b.WholeRead(t, t + 0.1, oid++, 1, 4096);
  return b.Build();
}

StackDistanceAnalyzer::Options CappedAt(uint64_t bound) {
  StackDistanceAnalyzer::Options options;
  options.max_capacity = bound;
  options.initial_slots = 2;
  return options;
}

TEST(StackDistance, BlockPushedPastTheBoundMissesButIsNotCold) {
  // Twenty fillers push file 1 far past K = 2; compactions every few
  // accesses drop it, and its re-read is a capacity miss at distance K + 1.
  const StackDistanceProfile p = ComputeStackDistances(RereadAfterFillers(20, false), 4096,
                                                       CappedAt(2));
  EXPECT_EQ(p.total_accesses(), 22u);
  EXPECT_EQ(p.cold_misses(), 21u);
  EXPECT_EQ(p.MissesAt(1), 22u);
  EXPECT_EQ(p.MissesAt(2), 22u);
  ASSERT_EQ(p.distance_counts().size(), 4u);
  EXPECT_EQ(p.distance_counts()[3], 1u);
}

TEST(StackDistance, DroppedBlockUnlinkedThenRetouchedIsCold) {
  // The unlink must reach the dropped block: its next touch is a first one.
  const StackDistanceProfile p = ComputeStackDistances(RereadAfterFillers(20, true), 4096,
                                                       CappedAt(2));
  const StackDistanceProfile full = ComputeStackDistances(RereadAfterFillers(20, true), 4096);
  EXPECT_EQ(p.total_accesses(), 22u);
  EXPECT_EQ(p.cold_misses(), 22u);
  EXPECT_EQ(full.cold_misses(), 22u);
  EXPECT_EQ(p.MissesAt(2), 22u);
}

TEST(StackDistanceProfileThreads, MattsonConcurrentReadersAreSafe) {
  // Take() finalizes the prefix sums eagerly, so const accessors are safe
  // from many threads at once (the sweep planner's workers do exactly this).
  // Run under TSan in CI.
  const StackDistanceProfile p = ComputeStackDistances(RwTrace(11), 4096);
  std::vector<std::thread> readers;
  std::atomic<uint64_t> sink{0};
  for (int i = 0; i < 8; ++i) {
    readers.emplace_back([&p, &sink, i] {
      uint64_t local = 0;
      for (uint64_t c = 1 + static_cast<uint64_t>(i); c < 400; c += 7) {
        local += p.MissesAt(c) + p.FetchMissesAt(c);
        local += static_cast<uint64_t>(p.MissRatioAt(c) * 1e6);
      }
      sink += local;
    });
  }
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_GT(sink.load(), 0u);
}

}  // namespace
}  // namespace bsdtrace
