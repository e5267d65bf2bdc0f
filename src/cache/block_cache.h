// An LRU cache of fixed-size disk blocks (paper §6.1).
//
// Keys are (file id, block index) pairs: the trace is logical, so the cache
// is indexed by file blocks rather than physical disk addresses (the paper's
// simulator worked the same way).  The cache tracks dirtiness and load time
// per block; the policy decisions (when to write back, when a fetch is
// needed) live in CacheSimulator.
//
// Storage is an intrusive slab: all entries live in one flat vector sized to
// the capacity, and both the replacement order (LRU/FIFO/clock) and the
// per-file block chain are doubly-linked lists threaded through 32-bit slot
// indices inside the slab.  After construction the steady state allocates
// nothing — no per-node heap traffic, no secondary per-file map — which is
// what keeps the §6 sweep hot path fast.  Eviction/drop callbacks are
// template parameters so they inline instead of going through std::function.

#ifndef BSDTRACE_SRC_CACHE_BLOCK_CACHE_H_
#define BSDTRACE_SRC_CACHE_BLOCK_CACHE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/util/flat_map.h"
#include "src/trace/types.h"
#include "src/util/sim_time.h"

namespace bsdtrace {

struct BlockKey {
  FileId file = kInvalidFileId;
  uint64_t index = 0;

  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    // Full avalanche (splitmix64 finalizer).  The map is open-addressing with
    // linear probing: without avalanching, a file's sequential block indices
    // land in consecutive cells and probe runs grow with file size.
    uint64_t h = k.file * 0x9E3779B97F4A7C15ull + k.index;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

// Which block to evict when the cache is full.  The paper's simulator (and
// 4.2 BSD itself) used LRU; the alternatives support the replacement-policy
// ablation bench.
enum class ReplacementPolicy : uint8_t {
  kLru,    // evict least-recently-used (the paper's policy)
  kFifo,   // evict oldest-loaded, ignoring reuse
  kClock,  // second chance: skip recently-referenced blocks once
};

const char* ReplacementPolicyName(ReplacementPolicy policy);

// One cached block.
struct CacheEntry {
  BlockKey key;
  bool dirty = false;
  bool referenced = false;  // clock policy's second-chance bit
  // BlockCache-internal: this block's cell in the block map, so eviction
  // erases without re-probing.  Sits in what would otherwise be padding,
  // keeping the slab node exactly one cache line.
  int32_t map_cell = -1;
  SimTime loaded;       // when the block entered the cache
  SimTime dirtied;      // last transition clean->dirty (valid if dirty)
};

// Fixed-capacity block store with a pluggable replacement policy.  Not a
// write policy: callers decide what eviction and dirtiness mean in disk I/Os.
class BlockCache {
 public:
  explicit BlockCache(uint64_t capacity_blocks,
                      ReplacementPolicy policy = ReplacementPolicy::kLru);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Looks up a block and, if present, makes it most-recently-used.
  // Returns the entry or nullptr.
  CacheEntry* Touch(const BlockKey& key) {
    int32_t* slot = map_.Find(key);
    if (slot == nullptr) {
      return nullptr;
    }
    TouchSlot(*slot);
    return &At(*slot).entry;
  }

  // Looks up a block without applying the replacement policy's touch.
  CacheEntry* Find(const BlockKey& key) {
    int32_t* slot = map_.Find(key);
    return slot != nullptr ? &At(*slot).entry : nullptr;
  }

  // Re-applies the replacement-policy touch to an entry already known to be
  // resident (e.g. one just returned by Insert): same effect as Touch on its
  // key, minus the hash lookup.
  void Retouch(CacheEntry* entry) { TouchSlot(SlotOf(entry)); }

  // Inserts a block as most-recently-used and returns its entry.  The block
  // must not be present.  If the cache is full, the replacement victim is
  // evicted first and passed to `on_evict` (e.g. to count a write-back if
  // dirty).
  template <typename OnEvict>
  CacheEntry* Insert(const BlockKey& key, SimTime now, OnEvict&& on_evict) {
    assert(map_.Find(key) == nullptr);
    int32_t slot;
    if (map_.size() >= capacity_) {
      // Evict straight into the victim's slot (the LIFO free list would hand
      // it right back anyway) — no free-list round trip.
      slot = PopVictim();
      Node& victim = slab_[static_cast<size_t>(slot)];
      if (victim.entry.dirty) {
        DirtyUnlink(slot);  // flag stays set for the callback
        --dirty_count_;
      }
      on_evict(victim.entry);
      FileUnlink(slot);
      MapEraseCell(victim.entry.map_cell);
    } else {
      slot = AllocSlot();
    }
    Node& node = slab_[static_cast<size_t>(slot)];
    node.entry = CacheEntry{.key = key, .dirty = false, .referenced = false,
                            .loaded = now, .dirtied = now};
    node.dirty_prev = kNil;
    node.dirty_next = kNil;
    LruPushFront(slot);
    FileLink(slot);
    node.entry.map_cell = static_cast<int32_t>(map_.InsertCell(key, slot));
    return &node.entry;
  }

  // Removes a specific block if present; `on_drop` sees it first (dirty
  // blocks of deleted files are dropped without a disk write).
  template <typename OnDrop>
  void Remove(const BlockKey& key, OnDrop&& on_drop) {
    const size_t cell = map_.FindCell(key);
    if (cell == decltype(map_)::npos) {
      return;
    }
    const int32_t slot = map_.CellValue(cell);
    MapEraseCell(cell);
    Erase(slot, on_drop);
  }

  // Removes every block of `file` with index >= first_index.
  template <typename OnDrop>
  void RemoveFileBlocks(FileId file, uint64_t first_index, OnDrop&& on_drop) {
    const int32_t* head = file_head_.Find(file);
    if (head == nullptr) {
      return;
    }
    // Walk the file's intrusive chain, erasing matches and restitching the
    // chain in place.  The head pointer is fixed up once at the end rather
    // than per removed node (a whole-file invalidation would otherwise pay a
    // hash lookup for every block as each removal exposes a new chain head).
    int32_t slot = *head;
    int32_t new_head = kNil;   // first surviving node
    int32_t last_kept = kNil;  // most recent survivor, for restitching
    while (slot != kNil) {
      Node& node = slab_[static_cast<size_t>(slot)];
      const int32_t next = node.file_next;
      if (node.entry.key.index >= first_index) {
        if (node.entry.dirty) {
          DirtyUnlink(slot);  // flag stays set for the callback
          --dirty_count_;
        }
        on_drop(node.entry);
        MapEraseCell(node.entry.map_cell);
        LruUnlink(slot);
        FreeSlot(slot);
      } else {
        node.file_prev = last_kept;
        if (last_kept != kNil) {
          At(last_kept).file_next = slot;
        } else {
          new_head = slot;
        }
        last_kept = slot;
      }
      slot = next;
    }
    if (last_kept != kNil) {
      At(last_kept).file_next = kNil;
    }
    if (new_head == kNil) {
      file_head_.Erase(file);
    } else {
      *file_head_.Find(file) = new_head;
    }
  }

  // Invokes `fn` on every entry, most- to least-recently-used (flush-back
  // scans); entries may be mutated but not added/removed.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (int32_t slot = lru_head_; slot != kNil;
         slot = slab_[static_cast<size_t>(slot)].lru_next) {
      fn(slab_[static_cast<size_t>(slot)].entry);
    }
  }

  // Marks a resident entry dirty/clean and keeps it on the intrusive dirty
  // chain, so flush scans cost O(dirty blocks) instead of O(cache size).
  // MarkDirty requires a clean entry; MarkClean requires a dirty one.
  void MarkDirty(CacheEntry* entry) {
    assert(!entry->dirty);
    entry->dirty = true;
    const int32_t slot = SlotOf(entry);
    Node& node = At(slot);
    node.dirty_prev = kNil;
    node.dirty_next = dirty_head_;
    if (dirty_head_ != kNil) {
      At(dirty_head_).dirty_prev = slot;
    }
    dirty_head_ = slot;
    ++dirty_count_;
  }

  void MarkClean(CacheEntry* entry) {
    assert(entry->dirty);
    entry->dirty = false;
    DirtyUnlink(SlotOf(entry));
    --dirty_count_;
  }

  // Cleans every dirty block, invoking `on_clean` on each (flush-back scan).
  // Walks only the dirty chain: O(dirty blocks).
  template <typename Fn>
  void DrainDirty(Fn&& on_clean) {
    int32_t slot = dirty_head_;
    while (slot != kNil) {
      Node& node = At(slot);
      const int32_t next = node.dirty_next;
      node.entry.dirty = false;
      on_clean(node.entry);
      slot = next;
    }
    dirty_head_ = kNil;
    dirty_count_ = 0;
  }

  uint64_t size() const { return map_.size(); }
  uint64_t capacity() const { return capacity_; }
  uint64_t dirty_count() const { return dirty_count_; }

  // The slot one step toward the most-recently-used end of the replacement
  // order from resident `slot` (kNil at the head).  Under LRU, the nested
  // simulator (simulator.h) walks it to keep each size's tail.
  int32_t NewerSlot(int32_t slot) const { return slab_[static_cast<size_t>(slot)].lru_prev; }

  static constexpr int32_t kNil = -1;  // no slot

  // Slot index of a resident entry (< capacity, stable while the block stays
  // resident; slots are reused after eviction).  Lets callers keep per-slot
  // side tables — FusedCacheSimulator's per-size entry records index by it.
  // Entry pointers handed out by Touch/Insert point at the first member of a
  // slab node, so the slot is recoverable by pointer arithmetic.
  int32_t SlotOf(const CacheEntry* entry) const {
    return static_cast<int32_t>(reinterpret_cast<const Node*>(entry) - slab_.data());
  }
  int32_t SlotOf(CacheEntry* entry) {
    return static_cast<int32_t>(reinterpret_cast<Node*>(entry) - slab_.data());
  }

 private:
  // Slab node: the entry plus the intrusive replacement-order, per-file, and
  // dirty-chain links.  Free slots chain through lru_next.  Cache-line
  // aligned so a node never straddles two lines (it is exactly 64 bytes).
  struct alignas(64) Node {
    CacheEntry entry;
    int32_t lru_prev = kNil;
    int32_t lru_next = kNil;
    int32_t file_prev = kNil;
    int32_t file_next = kNil;
    int32_t dirty_prev = kNil;
    int32_t dirty_next = kNil;
  };

  Node& At(int32_t slot) { return slab_[static_cast<size_t>(slot)]; }

  // Erases a block-map cell directly (no re-probe); backward shifting may
  // relocate other entries' cells, so their backreferences are updated here.
  void MapEraseCell(size_t cell) {
    map_.EraseCell(cell, [this](int32_t moved_slot, size_t new_cell) {
      At(moved_slot).entry.map_cell = static_cast<int32_t>(new_cell);
    });
  }

  // Applies the replacement policy's on-access action to a resident slot.
  void TouchSlot(int32_t slot) {
    switch (policy_) {
      case ReplacementPolicy::kLru:
        MoveToFront(slot);
        break;
      case ReplacementPolicy::kFifo:
        break;  // reuse does not affect replacement order
      case ReplacementPolicy::kClock:
        At(slot).entry.referenced = true;
        break;
    }
  }

  void DirtyUnlink(int32_t slot) {
    Node& node = At(slot);
    if (node.dirty_prev != kNil) {
      At(node.dirty_prev).dirty_next = node.dirty_next;
    } else {
      dirty_head_ = node.dirty_next;
    }
    if (node.dirty_next != kNil) {
      At(node.dirty_next).dirty_prev = node.dirty_prev;
    }
  }

  int32_t AllocSlot() {
    if (free_head_ != kNil) {
      const int32_t slot = free_head_;
      free_head_ = At(slot).lru_next;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<int32_t>(slab_.size() - 1);
  }

  void FreeSlot(int32_t slot) {
    At(slot).lru_next = free_head_;
    free_head_ = slot;
  }

  void LruPushFront(int32_t slot) {
    Node& node = At(slot);
    node.lru_prev = kNil;
    node.lru_next = lru_head_;
    if (lru_head_ != kNil) {
      At(lru_head_).lru_prev = slot;
    }
    lru_head_ = slot;
    if (lru_tail_ == kNil) {
      lru_tail_ = slot;
    }
  }

  void LruUnlink(int32_t slot) {
    Node& node = At(slot);
    if (node.lru_prev != kNil) {
      At(node.lru_prev).lru_next = node.lru_next;
    } else {
      lru_head_ = node.lru_next;
    }
    if (node.lru_next != kNil) {
      At(node.lru_next).lru_prev = node.lru_prev;
    } else {
      lru_tail_ = node.lru_prev;
    }
  }

  void MoveToFront(int32_t slot) {
    if (lru_head_ == slot) {
      return;
    }
    LruUnlink(slot);
    LruPushFront(slot);
  }

  // Links `slot` at the head of its file's chain.
  void FileLink(int32_t slot) {
    Node& node = At(slot);
    int32_t& head = file_head_.FindOrInsert(node.entry.key.file, kNil);
    node.file_prev = kNil;
    node.file_next = head;
    if (head != kNil) {
      At(head).file_prev = slot;
    }
    head = slot;
  }

  void FileUnlink(int32_t slot) {
    Node& node = At(slot);
    if (node.file_prev != kNil) {
      At(node.file_prev).file_next = node.file_next;
    } else {
      // Head of the chain: advance or drop the head pointer.
      if (node.file_next != kNil) {
        int32_t* head = file_head_.Find(node.entry.key.file);
        assert(head != nullptr);
        *head = node.file_next;
      } else {
        file_head_.Erase(node.entry.key.file);
      }
    }
    if (node.file_next != kNil) {
      At(node.file_next).file_prev = node.file_prev;
    }
  }

  // Removes `slot` from all structures except `map_`; calls on_drop first.
  template <typename OnDrop>
  void Erase(int32_t slot, OnDrop&& on_drop) {
    Node& node = At(slot);
    if (node.entry.dirty) {
      DirtyUnlink(slot);  // flag stays set for the callback
      --dirty_count_;
    }
    on_drop(node.entry);
    LruUnlink(slot);
    FileUnlink(slot);
    FreeSlot(slot);
  }

  // Selects and removes the replacement victim per the policy; returns its
  // slot (still linked into the file chain and map).
  int32_t PopVictim() {
    if (policy_ == ReplacementPolicy::kClock) {
      // Second chance: sweep from the tail, sparing referenced blocks once.
      while (At(lru_tail_).entry.referenced) {
        At(lru_tail_).entry.referenced = false;
        MoveToFront(lru_tail_);
      }
    }
    const int32_t victim = lru_tail_;
    LruUnlink(victim);
    return victim;
  }

  uint64_t capacity_;
  ReplacementPolicy policy_;
  std::vector<Node> slab_;  // entry storage; never exceeds capacity_ slots
  int32_t lru_head_ = kNil;  // most recently used / newest-loaded
  int32_t lru_tail_ = kNil;  // replacement end
  int32_t free_head_ = kNil;
  int32_t dirty_head_ = kNil;  // most recently dirtied
  // Open-addressing indexes (see flat_map.h).  map_ is sized once in the
  // constructor to hold capacity_ entries, so it never rehashes.
  FlatMap<BlockKey, int32_t, BlockKeyHash> map_;
  FlatMap<FileId, int32_t, IdHash> file_head_;  // per-file chain heads
  uint64_t dirty_count_ = 0;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_BLOCK_CACHE_H_
