// One-pass LRU stack-distance analysis (Mattson et al., 1970), exact under
// invalidations, optionally bounded to a largest capacity K.
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
// tail.)  MissesAt()/FetchMissesAt() are bit-identical to CacheSimulator at
// every capacity, invalidations included (property-tested).
//
// Engine.  Each tracked block owns one stable node {key, stack slot, file
// chain link}; the block map is written only on first touch and on
// invalidation.  A re-access moves the node to a fresh top slot, so slot
// order is recency order.  D per live slot lives in a historic-max lazy
// tree read by point queries only, so it keeps no aggregates and needs no
// recursion: a range update walks one root-to-leaf path top-down, pushing
// each lazy to its children and tagging the path's covering sibling.  A
// re-access reads (D, max D) at its old slot and adds +1 to the suffix
// above it, a first touch adds +1 to every slot (a root tag), and an
// invalidation adds -1 to the prefix below the victim.
// Tags landing on not-yet-used slots are only ever +1s, so a new top slot
// cancels them in its leaf without a push.  Compaction renumbers the live
// slots densely when the appended region fills.
//
// Depth bound.  With K > 0 a block whose max D reaches K misses at every
// queried capacity until its next access, and every block below it in the
// stack has a larger max D.  Compaction drops that bottom prefix: the node
// stays in the map and on its file chain with no slot, its next access
// counts as distance K+1 (a miss, not cold), and an invalidation still
// erases it, so cold_misses() stays exact.  Queries above K are invalid.
//
// Scope: exact LRU *fetch* (disk-read) and content-miss counts; write-policy
// disk writes remain capacity-and-policy coupled — pair with the replay
// engine (sweep.h) when write traffic matters.  Memory: O(K) tree and slot
// table (O(live blocks) unbounded) plus O(tracked blocks) nodes.  Time:
// O(log S) per access, S = slot-space size.

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

  // The depth bound K the pass ran with, in blocks (0 = unbounded): every
  // capacity query must be at most K.
  uint64_t max_capacity() const { return max_capacity_; }
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
  // Mattson distance.  A bounded pass folds every distance above K into K+1.
  const std::vector<uint64_t>& distance_counts() const { return distance_counts_; }

 private:
  friend class StackDistanceAnalyzer;

  // Builds the prefix-sum tables; called once by Take().
  void Finalize();
  uint64_t HitsAt(const std::vector<uint64_t>& cumulative, uint64_t capacity) const;

  std::vector<uint64_t> distance_counts_{0};
  std::vector<uint64_t> fetch_distance_counts_{0};
  uint64_t max_capacity_ = 0;
  uint64_t total_accesses_ = 0;
  uint64_t read_accesses_ = 0;
  uint64_t write_accesses_ = 0;
  uint64_t cold_misses_ = 0;
  uint64_t fetch_accesses_ = 0;
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
    // Depth bound K in blocks: the largest capacity the profile will be
    // asked about.  0 = unbounded.
    uint64_t max_capacity = 0;
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
  struct Node {
    BlockKey key;
    uint32_t slot = 0;  // stack slot (1-based); 0 = dropped past K
    uint32_t next = 0;  // next node of the file's chain (0 = end)
  };
  // A lazy tag (add, hadd): values raised by `add` in total, the running
  // raise peaking at `hadd`.  A leaf holds (D, max D) in the same form.
  struct Tag {
    int32_t add = 0;
    int32_t hadd = 0;
  };

  size_t Leaf(size_t slot) const { return slots_ + slot - 1; }
  void Apply(size_t t, Tag newer);      // composes a newer tag onto node t
  void Push(size_t t);                  // moves node t's tag to its children
  void WalkDown(size_t leaf, Tag left, Tag right);  // push + tag one path
  void PushTop(uint32_t node);          // gives `node` a fresh, zeroed top slot
  void Kill(size_t slot);               // removes a live slot from the stack
  void Compact();
  void AccessBlock(const BlockKey& key, bool is_write, bool whole_block,
                   uint64_t known_extent);

  uint32_t block_size_;
  uint64_t max_capacity_;
  StackDistanceProfile profile_;
  FlatMap<BlockKey, uint32_t, BlockKeyHash> block_node_;  // tracked block -> node
  FlatMap<FileId, uint32_t, IdHash> file_head_;           // file -> first node
  std::vector<Node> nodes_{1};       // node 0 is the null id
  std::vector<uint32_t> free_nodes_;
  // Lazy tree: internal tags in [1, slots_), leaf s at Leaf(s).
  std::vector<Tag> tree_;
  std::vector<uint32_t> slot_node_;  // slot -> node (0 = dead slot)
  size_t slots_ = 0;                 // leaf count (power of two)
  int height_ = 0;                   // log2(slots_)
  size_t next_slot_ = 1;             // next unused slot
};

// Convenience: analyze a whole trace (through a ReplayLog billed at next
// event, the reconstructor's default).
StackDistanceProfile ComputeStackDistances(const Trace& trace, uint32_t block_size,
                                           StackDistanceAnalyzer::Options options = {});

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_STACK_DISTANCE_H_
