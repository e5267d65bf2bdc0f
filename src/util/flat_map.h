// Open-addressing hash map for the cache simulation hot path.
//
// std::unordered_map is node-based: every insert allocates, every find chases
// a pointer, and teardown frees each node.  The §6 sweeps perform tens of
// millions of lookups per config, so the block map, the per-file chain heads,
// and the known-extent table all use this flat linear-probe map instead: one
// contiguous cell array, power-of-two sized, at most 50% loaded, erased with
// backward shifting (no tombstones).  When the maximum entry count is known
// up front (a block cache never exceeds its capacity), Reserve makes the map
// allocation-free for its whole lifetime.
//
// Requirements: Key is trivially copyable and one value (`empty_key`) never
// occurs as a real key; Value is default-constructible.

#ifndef BSDTRACE_SRC_UTIL_FLAT_MAP_H_
#define BSDTRACE_SRC_UTIL_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bsdtrace {

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  explicit FlatMap(Key empty_key, size_t min_cells = 16) : empty_key_(empty_key) {
    size_t cells = 16;
    while (cells < min_cells) {
      cells *= 2;
    }
    cells_.resize(cells, Cell{empty_key_, Value{}});
    mask_ = cells - 1;
  }

  // Grows the table so `entries` fit below the load limit without rehashing.
  void Reserve(size_t entries) {
    size_t cells = cells_.size();
    while (cells < entries * 2) {
      cells *= 2;
    }
    if (cells != cells_.size()) {
      Rehash(cells);
    }
  }

  size_t size() const { return size_; }

  // Removes every entry; the cell array keeps its size.
  void Clear() {
    if (size_ > 0) {
      for (Cell& cell : cells_) {
        cell.key = empty_key_;
      }
      size_ = 0;
    }
  }

  static constexpr size_t npos = ~size_t{0};

  // Cell-index interface: callers that store one entry per key and keep a
  // backreference to its cell (the block cache's eviction path) can erase
  // without re-probing.  Cell indices are invalidated by Rehash, so these are
  // only valid on maps Reserve()d for their maximum entry count up front.

  // Returns the cell index of `key`, or npos.
  size_t FindCell(const Key& key) const {
    size_t i = Hash{}(key) & mask_;
    while (!(cells_[i].key == empty_key_)) {
      if (cells_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
    return npos;
  }

  // Inserts `key` (which must be absent) and returns its cell index.  Never
  // rehashes: the map must have been sized for the insertion up front.
  size_t InsertCell(const Key& key, const Value& init) {
    assert(!(key == empty_key_));
    assert((size_ + 1) * 2 <= cells_.size());
    size_t i = Hash{}(key) & mask_;
    while (!(cells_[i].key == empty_key_)) {
      assert(!(cells_[i].key == key));
      i = (i + 1) & mask_;
    }
    cells_[i].key = key;
    cells_[i].value = init;
    ++size_;
    return i;
  }

  Value& CellValue(size_t cell) { return cells_[cell].value; }

  // Erases the entry in `cell` directly.  Backward shifting relocates later
  // cells in the probe chain; `on_move(value, new_cell)` fires for each so
  // the caller can update its backreferences.
  template <typename OnMove>
  void EraseCell(size_t i, OnMove&& on_move) {
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (cells_[j].key == empty_key_) {
        break;
      }
      const size_t ideal = Hash{}(cells_[j].key) & mask_;
      if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        on_move(cells_[i].value, i);
        i = j;
      }
    }
    cells_[i].key = empty_key_;
    --size_;
  }

  // Returns the value for `key`, or nullptr.  The pointer is invalidated by
  // any insert or erase.
  Value* Find(const Key& key) {
    size_t i = Hash{}(key) & mask_;
    while (!(cells_[i].key == empty_key_)) {
      if (cells_[i].key == key) {
        return &cells_[i].value;
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  // Returns the value for `key`, inserting `init` if absent.
  Value& FindOrInsert(const Key& key, const Value& init) {
    assert(!(key == empty_key_));
    if ((size_ + 1) * 2 > cells_.size()) {
      Rehash(cells_.size() * 2);
    }
    size_t i = Hash{}(key) & mask_;
    while (!(cells_[i].key == empty_key_)) {
      if (cells_[i].key == key) {
        return cells_[i].value;
      }
      i = (i + 1) & mask_;
    }
    cells_[i].key = key;
    cells_[i].value = init;
    ++size_;
    return cells_[i].value;
  }

  Value& operator[](const Key& key) { return FindOrInsert(key, Value{}); }

  // Removes `key` if present.  Backward-shift deletion: subsequent cells that
  // probed past the hole are moved back, so probe chains never break.
  bool Erase(const Key& key) {
    size_t i = Hash{}(key) & mask_;
    while (!(cells_[i].key == empty_key_)) {
      if (cells_[i].key == key) {
        EraseAt(i);
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

 private:
  struct Cell {
    Key key;
    Value value;
  };

  // Move cells_[j] into the hole iff the hole lies within its probe path,
  // i.e. cyclically between its ideal slot and j; the stale value behind an
  // emptied key is unreachable and is not zeroed.  (Logic lives in
  // EraseCell.)
  void EraseAt(size_t i) {
    EraseCell(i, [](const Value&, size_t) {});
  }

  void Rehash(size_t new_cells) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(new_cells, Cell{empty_key_, Value{}});
    mask_ = new_cells - 1;
    for (const Cell& cell : old) {
      if (cell.key == empty_key_) {
        continue;
      }
      size_t i = Hash{}(cell.key) & mask_;
      while (!(cells_[i].key == empty_key_)) {
        i = (i + 1) & mask_;
      }
      cells_[i] = cell;
    }
  }

  Key empty_key_;
  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Fibonacci-style mixer for raw integer ids (std::hash is identity on
// libstdc++, which interacts badly with power-of-two masking).
struct IdHash {
  size_t operator()(uint64_t id) const {
    const uint64_t h = id * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// A FlatMap over the full uint64_t key range, for keys read from untrusted
// data where no value can be reserved: the one key FlatMap uses as its empty
// marker keeps its entry beside the table.
template <typename Value>
class U64FlatMap {
 public:
  explicit U64FlatMap(size_t min_cells = 16) : map_(kSpareKey, min_cells) {}

  size_t size() const { return map_.size() + (has_spare_ ? 1 : 0); }

  void Clear() {
    map_.Clear();
    has_spare_ = false;
  }

  // Returns the value for `key`, or nullptr; invalidated by insert/erase.
  Value* Find(uint64_t key) {
    if (key == kSpareKey) {
      return has_spare_ ? &spare_ : nullptr;
    }
    return map_.Find(key);
  }

  Value& operator[](uint64_t key) {
    if (key == kSpareKey) {
      if (!has_spare_) {
        has_spare_ = true;
        spare_ = Value{};
      }
      return spare_;
    }
    return map_[key];
  }

  bool Erase(uint64_t key) {
    if (key == kSpareKey) {
      const bool had = has_spare_;
      has_spare_ = false;
      return had;
    }
    return map_.Erase(key);
  }

 private:
  static constexpr uint64_t kSpareKey = ~uint64_t{0};
  FlatMap<uint64_t, Value, IdHash> map_;
  Value spare_{};
  bool has_spare_ = false;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_UTIL_FLAT_MAP_H_
