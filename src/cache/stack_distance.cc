#include "src/cache/stack_distance.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/trace/replay_log.h"

namespace bsdtrace {

void StackDistanceProfile::Finalize() {
  cumulative_.assign(distance_counts_.size(), 0);
  uint64_t running = 0;
  for (size_t d = 0; d < distance_counts_.size(); ++d) {
    running += distance_counts_[d];
    cumulative_[d] = running;
  }
  fetch_cumulative_.assign(fetch_distance_counts_.size(), 0);
  running = 0;
  for (size_t d = 0; d < fetch_distance_counts_.size(); ++d) {
    running += fetch_distance_counts_[d];
    fetch_cumulative_[d] = running;
  }
}

uint64_t StackDistanceProfile::HitsAt(const std::vector<uint64_t>& cumulative,
                                      uint64_t capacity) {
  if (cumulative.empty()) {
    return 0;
  }
  const size_t idx =
      static_cast<size_t>(std::min<uint64_t>(capacity, cumulative.size() - 1));
  return cumulative[idx];
}

uint64_t StackDistanceProfile::MissesAt(uint64_t capacity_blocks) const {
  return total_accesses_ - HitsAt(cumulative_, capacity_blocks);
}

double StackDistanceProfile::MissRatioAt(uint64_t capacity_blocks) const {
  if (total_accesses_ == 0) {
    return 0.0;
  }
  return static_cast<double>(MissesAt(capacity_blocks)) /
         static_cast<double>(total_accesses_);
}

uint64_t StackDistanceProfile::FetchMissesAt(uint64_t capacity_blocks) const {
  return fetch_accesses_ - HitsAt(fetch_cumulative_, capacity_blocks);
}

double StackDistanceProfile::FetchMissRatioAt(uint64_t capacity_blocks) const {
  if (total_accesses_ == 0) {
    return 0.0;
  }
  return static_cast<double>(FetchMissesAt(capacity_blocks)) /
         static_cast<double>(total_accesses_);
}

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

StackDistanceAnalyzer::StackDistanceAnalyzer(uint32_t block_size, Options options)
    : ReplayFrontEnd(options.simulate_execve_pagein),
      block_size_(block_size),
      block_slot_(BlockKey{}),
      file_head_(kInvalidFileId) {
  assert(block_size >= 1);
  slots_ = RoundUpPow2(std::max<size_t>(2, options.initial_slots));
  tree_.assign(2 * slots_, LazyNode{});
  slot_block_.resize(slots_ + 1);
  slot_live_.assign(slots_ + 1, 0);
  slot_file_next_.assign(slots_ + 1, 0);
  slot_file_prev_.assign(slots_ + 1, 0);
}

// A lazy pair (add, hadd) means: the subtree's values were raised by `add` in
// total, and the running raise peaked at `hadd` (hadd >= max(add, 0): the
// pre-raise state counts).  Composing a later (a2, h2) onto an earlier
// (a1, h1) gives (a1 + a2, max(h1, a1 + h2)); applying to a leaf (v, hv)
// gives (v + add, max(hv, v + hadd)).
void StackDistanceAnalyzer::ApplyLazy(size_t node, int64_t add, int64_t hadd) {
  LazyNode& n = tree_[node];
  n.hadd = std::max(n.hadd, n.add + hadd);
  n.add += add;
}

void StackDistanceAnalyzer::PushDown(size_t node) {
  const LazyNode n = tree_[node];
  if (n.add == 0 && n.hadd == 0) {
    return;
  }
  ApplyLazy(2 * node, n.add, n.hadd);
  ApplyLazy(2 * node + 1, n.add, n.hadd);
  tree_[node] = LazyNode{};
}

void StackDistanceAnalyzer::RangeAdd(size_t l, size_t r, int64_t delta) {
  if (l > r) {
    return;
  }
  RangeAddRec(1, 1, slots_, l, r, delta);
}

void StackDistanceAnalyzer::RangeAddRec(size_t node, size_t node_l, size_t node_r,
                                        size_t l, size_t r, int64_t delta) {
  if (r < node_l || node_r < l) {
    return;
  }
  if (l <= node_l && node_r <= r) {
    ApplyLazy(node, delta, std::max<int64_t>(delta, 0));
    return;
  }
  // Push the node's pending (older) lazy down before a newer one can land in
  // its subtree — this keeps every root-to-leaf path's lazies ordered oldest
  // at the bottom, which is what the bottom-up composition in QuerySlot (and
  // the historic-max semantics) requires.
  PushDown(node);
  const size_t mid = node_l + (node_r - node_l) / 2;
  RangeAddRec(2 * node, node_l, mid, l, r, delta);
  RangeAddRec(2 * node + 1, mid + 1, node_r, l, r, delta);
}

std::pair<int64_t, int64_t> StackDistanceAnalyzer::QuerySlot(size_t s) const {
  // Walk leaf -> root, composing each ancestor's (strictly later) lazy onto
  // the accumulated leaf state.
  size_t node = s + slots_ - 1;
  int64_t v = tree_[node].add;
  int64_t hv = tree_[node].hadd;
  for (node >>= 1; node >= 1; node >>= 1) {
    hv = std::max(hv, v + tree_[node].hadd);
    v += tree_[node].add;
  }
  return {v, hv};
}

size_t StackDistanceAnalyzer::NewSlot(const BlockKey& key) {
  if (next_slot_ > slots_) {
    Compact();
  }
  const size_t s = next_slot_++;
  // The leaf is pristine: compaction zeroes the arrays, and no later RangeAdd
  // reaches slots at or above next_slot_ (every range ends below the newest
  // slot), so ancestors hold no lazy covering s either.
  slot_block_[s] = key;
  slot_live_[s] = 1;
  ++live_count_;
  return s;
}

void StackDistanceAnalyzer::Compact() {
  // Renumber live slots densely, preserving order (slot number = recency
  // rank), and restart every leaf's history at its current value.  Restarting
  // is sound: a re-access reads the historic max *since the previous access
  // to the same block*, and that access's slot was created after this
  // compaction or was renumbered here with its history carried over.
  std::vector<std::pair<BlockKey, std::pair<int64_t, int64_t>>> live;
  live.reserve(live_count_);
  for (size_t s = 1; s < next_slot_; ++s) {
    if (slot_live_[s]) {
      live.emplace_back(slot_block_[s], QuerySlot(s));
    }
  }
  while (live.size() + 1 > slots_ / 2) {
    slots_ *= 2;
  }
  tree_.assign(2 * slots_, LazyNode{});
  slot_block_.assign(slots_ + 1, BlockKey{});
  slot_live_.assign(slots_ + 1, 0);
  slot_file_next_.assign(slots_ + 1, 0);
  slot_file_prev_.assign(slots_ + 1, 0);
  block_slot_ = FlatMap<BlockKey, size_t, BlockKeyHash>(BlockKey{}, 2 * (live.size() + 1));
  file_head_ = FlatMap<FileId, size_t, IdHash>(kInvalidFileId);
  for (size_t i = 0; i < live.size(); ++i) {
    const size_t s = i + 1;
    const size_t leaf = s + slots_ - 1;
    tree_[leaf].add = live[i].second.first;
    tree_[leaf].hadd = live[i].second.second;
    slot_block_[s] = live[i].first;
    slot_live_[s] = 1;
    block_slot_[live[i].first] = s;
    LinkSlot(s, live[i].first.file);
  }
  next_slot_ = live.size() + 1;
  live_count_ = live.size();
}

void StackDistanceAnalyzer::LinkSlot(size_t slot, FileId file) {
  size_t& head = file_head_[file];
  slot_file_next_[slot] = head;
  slot_file_prev_[slot] = 0;
  if (head != 0) {
    slot_file_prev_[head] = slot;
  }
  head = slot;
}

void StackDistanceAnalyzer::KillSlot(size_t slot) {
  RangeAdd(1, slot - 1, -1);
  slot_live_[slot] = 0;
  --live_count_;
}

void StackDistanceAnalyzer::AccessBlock(const BlockKey& key, bool is_write,
                                        bool whole_block, uint64_t known_extent) {
  profile_.total_accesses_ += 1;
  if (is_write) {
    profile_.write_accesses_ += 1;
  } else {
    profile_.read_accesses_ += 1;
  }
  // Mirror of CacheLevel::AccessBlock's fetch predicate: a miss costs a
  // disk read unless the access overwrites the whole block or lies beyond the
  // file's known data.  The predicate is capacity-independent, so one flag
  // per access suffices for every cache size.
  const uint64_t block_start = key.index * block_size_;
  const bool needs_fetch = !(is_write && (whole_block || block_start >= known_extent));
  if (needs_fetch) {
    profile_.fetch_accesses_ += 1;
  }

  size_t* slot_ref = block_slot_.Find(key);
  if (slot_ref == nullptr) {
    profile_.cold_misses_ += 1;
    if (needs_fetch) {
      profile_.fetch_cold_misses_ += 1;
    }
    const size_t s = NewSlot(key);
    // NewSlot may compact, rebuilding the map and chains — index afterwards.
    block_slot_[key] = s;
    LinkSlot(s, key.file);
    RangeAdd(1, s - 1, 1);
    return;
  }

  // Re-access: the effective distance is 1 + the maximum number of distinct
  // live blocks that stood above this one at any point since its previous
  // access — exactly the occupancy threshold at which a C-block LRU cache
  // evicts it (see header).
  const size_t s0 = *slot_ref;
  const auto [v, hv] = QuerySlot(s0);
  (void)v;
  const uint64_t distance = static_cast<uint64_t>(hv) + 1;
  if (profile_.distance_counts_.size() <= distance) {
    profile_.distance_counts_.resize(distance + 1, 0);
  }
  profile_.distance_counts_[distance] += 1;
  if (needs_fetch) {
    if (profile_.fetch_distance_counts_.size() <= distance) {
      profile_.fetch_distance_counts_.resize(distance + 1, 0);
    }
    profile_.fetch_distance_counts_[distance] += 1;
  }

  // Move to the top of the stack.  Retiring slot s0 subtracts 1 below s0 and
  // the fresh top slot adds 1 below itself; on [1, s0 - 1] the pair cancels
  // for the current value AND the historic max (hv >= v always, so the
  // transient v - 1 then back to v peaks at v <= hv), leaving a single net
  // +1 on the slots strictly between the two.
  slot_live_[s0] = 0;
  --live_count_;
  if (next_slot_ <= slots_) {
    const size_t s = next_slot_++;
    slot_block_[s] = key;
    slot_live_[s] = 1;
    ++live_count_;
    *slot_ref = s;  // no insert/erase happened: the Find pointer is valid
    // Splice the fresh slot into s0's position in its file chain.
    const size_t prev = slot_file_prev_[s0];
    const size_t next = slot_file_next_[s0];
    slot_file_prev_[s] = prev;
    slot_file_next_[s] = next;
    if (prev != 0) {
      slot_file_next_[prev] = s;
    } else {
      *file_head_.Find(key.file) = s;
    }
    if (next != 0) {
      slot_file_prev_[next] = s;
    }
    RangeAdd(s0 + 1, s - 1, 1);
  } else {
    // Compaction pending: the merged range would straddle the renumbering,
    // so apply the retire-then-create pair explicitly.  The -1 must land
    // before Compact() snapshots the leaves; the rebuild then drops dead s0
    // from the map and chains, and the insertions below are fresh.
    RangeAdd(1, s0 - 1, -1);
    const size_t s = NewSlot(key);
    block_slot_[key] = s;
    LinkSlot(s, key.file);
    RangeAdd(1, s - 1, 1);
  }
}

void StackDistanceAnalyzer::AccessBlocks(SimTime, FileId file, uint64_t offset,
                                         uint64_t length, bool is_write, uint64_t extent) {
  ForEachBlock(block_size_, offset, length, is_write, [&](uint64_t index, bool whole_block) {
    AccessBlock(BlockKey{.file = file, .index = index}, is_write, whole_block, extent);
  });
}

void StackDistanceAnalyzer::Invalidate(SimTime, FileId file, uint64_t first_byte) {
  size_t* head = file_head_.Find(file);
  if (head == nullptr) {
    return;
  }
  const uint64_t first_block = (first_byte + block_size_ - 1) / block_size_;
  size_t s = *head;
  while (s != 0) {
    const size_t next = slot_file_next_[s];
    if (slot_block_[s].index >= first_block) {
      // A true stack deletion: every slot below the victim loses one block
      // from its over-stack count.  Order among the doomed is immaterial —
      // the adds are all negative, so no spurious peak can form.
      KillSlot(s);
      block_slot_.Erase(slot_block_[s]);
      const size_t prev = slot_file_prev_[s];
      if (prev != 0) {
        slot_file_next_[prev] = next;
      } else {
        *head = next;  // file_head_ untouched since Find: pointer valid
      }
      if (next != 0) {
        slot_file_prev_[next] = prev;
      }
    }
    s = next;
  }
  if (*head == 0) {
    file_head_.Erase(file);
  }
}

StackDistanceProfile StackDistanceAnalyzer::Take() {
  profile_.Finalize();
  return std::move(profile_);
}

StackDistanceProfile ComputeStackDistances(const Trace& trace, uint32_t block_size,
                                           StackDistanceAnalyzer::Options options) {
  StackDistanceAnalyzer analyzer(block_size, options);
  analyzer.Replay(ReplayLog::Build(trace));
  return analyzer.Take();
}

}  // namespace bsdtrace
