// One-pass LRU stack-distance analysis (Mattson et al., 1970), exact under
// invalidations.
//
// Replaying a trace once per candidate cache size (as the paper's simulator
// and CacheSimulator do) costs a full pass per point on the Figure 5 curve.
// Because LRU has the stack-inclusion property, a single pass that records
// each access's *stack distance* — the number of distinct blocks touched
// since the previous access to the same block — yields the miss count for
// every cache size simultaneously: an access hits in a cache of C blocks
// iff its stack distance is at most C.
//
// Invalidations (unlink/truncate/overwrite) remove blocks from the stack.
// A plain "current distance" is then too small: a deletion shrinks the
// number of blocks above a victim *after* a small cache may already have
// evicted it, so the naive analysis is optimistic.  Eviction is permanent,
// so the exact hit condition uses the *maximum interim* distance: an access
// to block x with reuse interval I hits in a cache of C blocks iff
//
//     max over τ in I of D(τ) < C,
//
// where D(τ) counts the distinct still-live blocks accessed since x's
// previous access.  (x is evicted from a C-block LRU cache exactly when D
// first reaches C: while x is resident every such block is resident above
// it, so the insertion raising D to C finds the cache full with x at the
// tail.)  This pass tracks D per live block with a historic-max segment
// tree over stack slots — range add ±1, point query of (current, historic
// max) — making MissesAt()/FetchMissesAt() bit-identical to CacheSimulator
// at every capacity, invalidations included (property-tested).
//
// Scope: exact LRU *fetch* (disk-read) and content-miss counts; write-policy
// disk writes remain capacity-and-policy coupled — pair with the replay
// engine (sweep.h) when write traffic matters.  Memory is O(live blocks):
// the slot space is compacted whenever the appended-slot region fills.
//
// Implementation: O(log S) per access, S = compacted slot-space size.

#ifndef BSDTRACE_SRC_CACHE_STACK_DISTANCE_H_
#define BSDTRACE_SRC_CACHE_STACK_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/cache/cache_level.h"
#include "src/trace/reconstruct.h"
#include "src/util/flat_map.h"

namespace bsdtrace {

// The distance profile produced by a pass.  Finalized (prefix sums built) by
// StackDistanceAnalyzer::Take(); afterwards every accessor is const and safe
// to call concurrently from many threads.
class StackDistanceProfile {
 public:
  // Content misses a cache of `capacity_blocks` would take on the analyzed
  // stream: cold misses, capacity misses, and invalidation-induced re-entries
  // — every block access that finds its block absent, whether or not the
  // absence costs a disk read.
  uint64_t MissesAt(uint64_t capacity_blocks) const;
  // Content-miss ratio at the given capacity.
  double MissRatioAt(uint64_t capacity_blocks) const;

  // Disk reads a CacheSimulator with LRU replacement and this block size
  // would issue at the given capacity — bit-identical to
  // CacheMetrics::disk_reads for every capacity and any write policy (write
  // policy moves disk *writes* only).  Excludes the misses that install
  // without a fetch: whole-block overwrites and writes beyond the file's
  // known extent.
  uint64_t FetchMissesAt(uint64_t capacity_blocks) const;
  // Fetch misses per block access at the given capacity.
  double FetchMissRatioAt(uint64_t capacity_blocks) const;

  uint64_t total_accesses() const { return total_accesses_; }
  uint64_t read_accesses() const { return read_accesses_; }
  uint64_t write_accesses() const { return write_accesses_; }
  // Accesses that miss at every capacity: first touches plus re-accesses of
  // invalidated blocks.
  uint64_t cold_misses() const { return cold_misses_; }
  // Accesses needing a disk read on miss (see FetchMissesAt).
  uint64_t fetch_accesses() const { return fetch_accesses_; }
  // Histogram: counts[d] = accesses with effective stack distance exactly d
  // (1-based; index 0 unused).  The effective distance is the maximum
  // interim distance, so on invalidation-free streams it equals the classic
  // Mattson distance.
  const std::vector<uint64_t>& distance_counts() const { return distance_counts_; }

 private:
  friend class StackDistanceAnalyzer;

  // Builds the prefix-sum tables; called once by Take().
  void Finalize();
  static uint64_t HitsAt(const std::vector<uint64_t>& cumulative, uint64_t capacity);

  std::vector<uint64_t> distance_counts_{0};
  std::vector<uint64_t> fetch_distance_counts_{0};
  uint64_t total_accesses_ = 0;
  uint64_t read_accesses_ = 0;
  uint64_t write_accesses_ = 0;
  uint64_t cold_misses_ = 0;
  uint64_t fetch_accesses_ = 0;
  uint64_t fetch_cold_misses_ = 0;
  // Prefix sums of the histograms, built in Finalize() (never lazily: const
  // accessors must be safe from concurrent sweep workers).
  std::vector<uint64_t> cumulative_;
  std::vector<uint64_t> fetch_cumulative_;
};

// Streaming analyzer, driven through the replay front end (cache_level.h)
// like every feed-driven cache engine: it sees exactly the block-access
// stream a CacheLevel does — same block split, whole-block overwrite
// detection, extent feeds, invalidations and optional execve page-in.
class StackDistanceAnalyzer final : public ReplayFrontEnd<StackDistanceAnalyzer> {
 public:
  struct Options {
    // Fig. 7: treat each execve as a whole-file read of the program file.
    bool simulate_execve_pagein = false;
    // Initial slot-space capacity (testing knob: small values force frequent
    // compactions).  Rounded up to a power of two.
    size_t initial_slots = 1024;
  };

  // (Two overloads rather than a defaulted Options argument: a nested class's
  // default member initializers are not usable in default arguments of the
  // enclosing class.)
  explicit StackDistanceAnalyzer(uint32_t block_size)
      : StackDistanceAnalyzer(block_size, Options()) {}
  StackDistanceAnalyzer(uint32_t block_size, Options options);

  // Front-end hooks.  Stack distances are time-free: the clock is ignored.
  void AccessBlocks(SimTime now, FileId file, uint64_t offset, uint64_t length, bool is_write,
                    uint64_t extent);
  void Invalidate(SimTime now, FileId file, uint64_t first_byte);
  void AdvanceClock(SimTime) {}
  void Finish() {}  // Take() finalizes the profile

  // Finalizes and returns the profile; the analyzer is spent afterwards.
  StackDistanceProfile Take();

 private:
  // -- Historic-max segment tree over stack slots ---------------------------
  // Leaf s holds (value, historic max) of D for the block whose last access
  // occupies slot s; internal nodes hold lazy (add, historic max add) pairs.
  void RangeAdd(size_t l, size_t r, int64_t delta);  // inclusive, 1-based
  void RangeAddRec(size_t node, size_t node_l, size_t node_r, size_t l, size_t r,
                   int64_t delta);
  // (current, historic max) at slot s, accounting for pending lazies.
  std::pair<int64_t, int64_t> QuerySlot(size_t s) const;
  void ApplyLazy(size_t node, int64_t add, int64_t hadd);
  void PushDown(size_t node);

  // Renumbers live slots densely (growing the slot space if more than half
  // full) and rebuilds the tree, maps, and slot metadata.
  void Compact();
  size_t NewSlot(const BlockKey& key);

  void AccessBlock(const BlockKey& key, bool is_write, bool whole_block,
                   uint64_t known_extent);
  void KillSlot(size_t slot);  // removes a live slot from the stack
  void LinkSlot(size_t slot, FileId file);  // pushes slot onto file's chain

  uint32_t block_size_;
  StackDistanceProfile profile_;
  // Block -> slot of its most recent access (1-based): a single
  // open-addressing probe per access (the nested per-file map it replaces
  // cost two node-chasing lookups).
  FlatMap<BlockKey, size_t, BlockKeyHash> block_slot_;
  // Intrusive per-file slot chains for range invalidation: head per file,
  // next/prev links indexed by slot (0 = end), mirroring BlockCache's file
  // chains.
  FlatMap<FileId, size_t, IdHash> file_head_;
  std::vector<size_t> slot_file_next_, slot_file_prev_;
  // Segment tree, sized 2 * slots_: internal lazy (add, hadd) pairs in
  // [1, slots_), leaf (value, hist max) pairs in [slots_, 2 * slots_).  One
  // interleaved node array: every tree touch reads both fields, so splitting
  // them would double the cache lines per walk.
  struct LazyNode {
    int64_t add = 0;
    int64_t hadd = 0;
  };
  std::vector<LazyNode> tree_;
  size_t slots_ = 0;       // leaf count (power of two)
  size_t next_slot_ = 1;   // next unused slot (1-based; slot 0 unused)
  std::vector<BlockKey> slot_block_;  // slot -> block key (valid when live)
  std::vector<uint8_t> slot_live_;
  size_t live_count_ = 0;
};

// Convenience: analyze a whole trace (through a ReplayLog billed at next
// event, the reconstructor's default).
StackDistanceProfile ComputeStackDistances(const Trace& trace, uint32_t block_size,
                                           StackDistanceAnalyzer::Options options = {});

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_STACK_DISTANCE_H_
