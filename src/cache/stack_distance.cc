#include "src/cache/stack_distance.h"

#include <algorithm>
#include <bit>
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
                                      uint64_t capacity) const {
  assert(max_capacity_ == 0 || capacity <= max_capacity_);
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

StackDistanceAnalyzer::StackDistanceAnalyzer(uint32_t block_size, Options options)
    : ReplayFrontEnd(options.simulate_execve_pagein),
      block_size_(block_size),
      max_capacity_(options.max_capacity),
      block_node_(BlockKey{}),
      file_head_(kInvalidFileId) {
  assert(block_size >= 1);
  profile_.max_capacity_ = max_capacity_;
  slots_ = std::bit_ceil(std::max<size_t>(2, options.initial_slots));
  height_ = std::countr_zero(slots_);
  tree_.assign(2 * slots_, Tag{});
  slot_node_.assign(slots_ + 1, 0);
}

// Composing a later tag (a2, h2) onto an earlier (a1, h1) gives
// (a1 + a2, max(h1, a1 + h2)); on a leaf (D, max D) it gives the new pair.
// hadd >= max(add, 0): the pre-raise state counts.
void StackDistanceAnalyzer::Apply(size_t t, Tag newer) {
  Tag& tag = tree_[t];
  tag.hadd = std::max(tag.hadd, tag.add + newer.hadd);
  tag.add += newer.add;
}

void StackDistanceAnalyzer::Push(size_t t) {
  const Tag tag = tree_[t];
  if (tag.add != 0 || tag.hadd != 0) {
    Apply(2 * t, tag);
    Apply(2 * t + 1, tag);
    tree_[t] = Tag{};
  }
}

// Pushes the lazies down `leaf`'s path, top-down, tagging each path node's
// sibling on the way: `left` if it lies left of the path, else `right`.  A
// newer tag may only land below a node once that node's older tag moved
// down: the lazies on any root-to-leaf path must stay ordered oldest at the
// bottom for the historic max.  Leaves tree_[leaf] holding (D, max D).
void StackDistanceAnalyzer::WalkDown(size_t leaf, Tag left, Tag right) {
  for (int h = height_; h > 0; --h) {
    Push(leaf >> h);
    const size_t child = leaf >> (h - 1);
    Apply(child ^ 1, (child & 1) != 0 ? left : right);
  }
}

void StackDistanceAnalyzer::PushTop(uint32_t node) {
  if (next_slot_ > slots_) {
    Compact();
  }
  const size_t s = next_slot_++;
  slot_node_[s] = node;
  nodes_[node].slot = static_cast<uint32_t>(s);
  // An unused slot only ever receives +1 tags (whole-stack and suffix adds,
  // never a kill's prefix), so the tags pending above it compose to (A, A):
  // a leaf of (-A, -A) makes its state (0, 0) without pushing them.
  const size_t leaf = Leaf(s);
  int32_t above = 0;
  for (size_t t = leaf >> 1; t >= 1; t >>= 1) {
    assert(tree_[t].hadd == tree_[t].add);
    above += tree_[t].add;
  }
  tree_[leaf] = Tag{-above, -above};
}

void StackDistanceAnalyzer::Kill(size_t slot) {
  // A true stack deletion: every slot below the victim loses one block from
  // its over-stack count — -1 on the left siblings of its path.  Order among
  // the doomed is immaterial: the adds are negative, so no peak forms.
  WalkDown(Leaf(slot), Tag{-1, 0}, Tag{});
  slot_node_[slot] = 0;
}

void StackDistanceAnalyzer::Compact() {
  // With every tag pushed to the leaves, each live leaf holds its block's
  // (D, max D).  Renumbering keeps slot order (= recency) and carries that
  // history, which is all a later re-access reads.
  for (size_t t = 1; t < slots_; ++t) {
    Push(t);
  }
  size_t s = 1;
  // Depth bound: max D strictly grows down the stack, so the blocks that
  // reached K are exactly a bottom prefix; they miss at every queried
  // capacity until re-accessed, and no tracked block lies below them.
  for (; max_capacity_ > 0 && s < next_slot_; ++s) {
    const uint32_t n = slot_node_[s];
    if (n != 0) {
      if (static_cast<uint64_t>(tree_[Leaf(s)].hadd) < max_capacity_) {
        break;
      }
      nodes_[n].slot = 0;
    }
  }
  size_t out = 0;
  for (; s < next_slot_; ++s) {
    if (const uint32_t n = slot_node_[s]; n != 0) {
      ++out;
      tree_[Leaf(out)] = tree_[Leaf(s)];
      slot_node_[out] = n;
      nodes_[n].slot = static_cast<uint32_t>(out);
    }
  }
  std::fill(tree_.begin() + static_cast<ptrdiff_t>(Leaf(out + 1)), tree_.end(), Tag{});
  std::fill(slot_node_.begin() + static_cast<ptrdiff_t>(out + 1), slot_node_.end(), 0);
  next_slot_ = out + 1;
  if (out + 1 > slots_ / 2) {
    // Grow: the old leaf row becomes (zeroed) internal nodes.
    const size_t old = slots_;
    while (out + 1 > slots_ / 2) {
      slots_ *= 2;
    }
    height_ = std::countr_zero(slots_);
    tree_.resize(2 * slots_, Tag{});
    std::copy_n(tree_.begin() + static_cast<ptrdiff_t>(old), out,
                tree_.begin() + static_cast<ptrdiff_t>(slots_));
    std::fill_n(tree_.begin() + static_cast<ptrdiff_t>(old), out, Tag{});
    slot_node_.resize(slots_ + 1, 0);
  }
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

  uint32_t& ref = block_node_.FindOrInsert(key, 0);
  uint32_t n = ref;
  if (n == 0) {
    profile_.cold_misses_ += 1;
    if (free_nodes_.empty()) {
      n = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      n = free_nodes_.back();
      free_nodes_.pop_back();
    }
    ref = n;
    uint32_t& head = file_head_[key.file];
    nodes_[n] = Node{.key = key, .slot = 0, .next = head};
    head = n;
    Apply(1, Tag{1, 1});  // every live block now has one more above it
    PushTop(n);
    return;
  }

  // Re-access: the effective distance is 1 + the maximum number of distinct
  // live blocks that stood above this one at any point since its previous
  // access — exactly the occupancy threshold at which a C-block LRU cache
  // evicts it (see header).  A dropped block is past K: distance K + 1.
  const size_t s0 = nodes_[n].slot;
  uint64_t distance = max_capacity_ + 1;
  if (s0 == 0) {
    Apply(1, Tag{1, 1});
  } else {
    // Moving to the top raises only the slots above s0 (below it the retire
    // and the new top cancel, peak included: hv >= v): +1 on the right
    // siblings of s0's path.
    const size_t leaf = Leaf(s0);
    WalkDown(leaf, Tag{}, Tag{1, 1});
    // A block past K that compaction has not dropped yet still counts K + 1.
    const uint64_t hv = static_cast<uint64_t>(tree_[leaf].hadd);
    if (max_capacity_ == 0 || hv < max_capacity_) {
      distance = hv + 1;
    }
    slot_node_[s0] = 0;
  }
  auto count = [distance](std::vector<uint64_t>& counts) {
    if (counts.size() <= distance) {
      counts.resize(distance + 1, 0);
    }
    ++counts[distance];
  };
  count(profile_.distance_counts_);
  if (needs_fetch) {
    count(profile_.fetch_distance_counts_);
  }
  PushTop(n);
}

void StackDistanceAnalyzer::AccessBlocks(SimTime, FileId file, uint64_t offset,
                                         uint64_t length, bool is_write, uint64_t extent) {
  ForEachBlock(block_size_, offset, length, is_write, [&](uint64_t index, bool whole_block) {
    AccessBlock(BlockKey{.file = file, .index = index}, is_write, whole_block, extent);
  });
}

void StackDistanceAnalyzer::Invalidate(SimTime, FileId file, uint64_t first_byte) {
  uint32_t* head = file_head_.Find(file);
  if (head == nullptr) {
    return;
  }
  const uint64_t first_block = (first_byte + block_size_ - 1) / block_size_;
  uint32_t prev = 0;  // last kept node of the chain
  for (uint32_t n = *head; n != 0;) {
    const Node node = nodes_[n];
    if (node.key.index >= first_block) {
      // Dropped nodes are erased too, so a later touch is cold again.
      if (node.slot != 0) {
        Kill(node.slot);
      }
      block_node_.Erase(node.key);
      (prev != 0 ? nodes_[prev].next : *head) = node.next;
      free_nodes_.push_back(n);
    } else {
      prev = n;
    }
    n = node.next;
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
