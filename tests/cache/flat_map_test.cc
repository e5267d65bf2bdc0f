#include "src/util/flat_map.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace bsdtrace {
namespace {

TEST(FlatMap, InsertFindErase) {
  FlatMap<uint64_t, int, IdHash> map(0);
  EXPECT_EQ(map.Find(7), nullptr);
  map[7] = 42;
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  EXPECT_EQ(map.size(), 1u);
  map[7] = 43;  // overwrite, not duplicate
  EXPECT_EQ(*map.Find(7), 43);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, ClearEmptiesAndStaysUsable) {
  FlatMap<uint64_t, int, IdHash> map(0);
  for (uint64_t k = 1; k <= 100; ++k) {
    map[k] = static_cast<int>(k);
  }
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(50), nullptr);
  map[50] = 5;
  EXPECT_EQ(*map.Find(50), 5);
  EXPECT_EQ(map.size(), 1u);
}

// Every 64-bit key works, including the one FlatMap reserves internally.
TEST(U64FlatMap, MatchesUnorderedMapOverTheFullKeyRange) {
  U64FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(41);
  const uint64_t special[] = {0, 1, UINT64_MAX, UINT64_MAX - 1};
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t key = rng.UniformInt(0, 3) == 0
                             ? special[rng.UniformInt(0, 3)]
                             : static_cast<uint64_t>(rng.UniformInt(0, 500));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        map[key] = static_cast<uint64_t>(i);
        reference[key] = static_cast<uint64_t>(i);
        break;
      case 1:
        ASSERT_EQ(map.Erase(key), reference.erase(key) == 1);
        break;
      default: {
        const uint64_t* found = map.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
    if (i % 5'000 == 4'999) {
      map.Clear();
      reference.clear();
    }
  }
}

TEST(FlatMap, FindOrInsertKeepsExisting) {
  FlatMap<uint64_t, int, IdHash> map(0);
  EXPECT_EQ(map.FindOrInsert(5, 10), 10);
  EXPECT_EQ(map.FindOrInsert(5, 99), 10);
}

TEST(FlatMap, GrowsPastReserveAndRetainsEntries) {
  FlatMap<uint64_t, uint64_t, IdHash> map(0, 16);
  for (uint64_t k = 1; k <= 1000; ++k) {
    map[k] = k * 3;
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k * 3);
  }
}

// Degenerate hash forcing every key into one probe chain: exercises the
// backward-shift deletion across wrapped, maximally-colliding chains.
struct CollideHash {
  size_t operator()(uint64_t) const { return 3; }
};

TEST(FlatMap, BackwardShiftEraseUnderFullCollision) {
  FlatMap<uint64_t, uint64_t, CollideHash> map(0, 64);
  for (uint64_t k = 1; k <= 20; ++k) {
    map[k] = k;
  }
  // Erase from the middle, the front, and the back of the chain.
  for (uint64_t k : {10ull, 1ull, 20ull, 15ull, 2ull}) {
    ASSERT_TRUE(map.Erase(k));
  }
  for (uint64_t k = 1; k <= 20; ++k) {
    const bool erased = k == 10 || k == 1 || k == 20 || k == 15 || k == 2;
    if (erased) {
      EXPECT_EQ(map.Find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.Find(k), nullptr) << k;
      EXPECT_EQ(*map.Find(k), k);
    }
  }
  EXPECT_EQ(map.size(), 15u);
}

// Randomized differential test against std::unordered_map.
TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn) {
  FlatMap<uint64_t, uint64_t, IdHash> map(0, 16);
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(2026);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(1, 500));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        map[key] = static_cast<uint64_t>(step);
        ref[key] = static_cast<uint64_t>(step);
        break;
      case 1:
        EXPECT_EQ(map.Erase(key), ref.erase(key) > 0);
        break;
      default: {
        const uint64_t* found = map.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(map.size(), ref.size());
}

// Erase-heavy churn (ISSUE 9 satellite): the backward-shift deletion path is
// the map's subtlest code, and the single-level refactor made every cache
// level lean on it.  Bias the workload 2:1 toward erases so the table spends
// its life full of relocation chains, crossing the load limit repeatedly so
// growth rehashes interleave with the shifting.
TEST(FlatMap, EraseHeavyChurnMatchesReference) {
  FlatMap<uint64_t, uint64_t, IdHash> map(0, 16);
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(8509);
  for (int round = 0; round < 40; ++round) {
    // Fill burst: push well past the current table so FindOrInsert rehashes.
    for (int i = 0; i < 300; ++i) {
      const uint64_t key = static_cast<uint64_t>(rng.UniformInt(1, 2000));
      const uint64_t value = static_cast<uint64_t>(round * 1000 + i);
      map[key] = value;
      ref[key] = value;
    }
    // Drain burst: erase-heavy, including misses (absent keys must report
    // false without disturbing live probe chains).
    for (int i = 0; i < 600; ++i) {
      const uint64_t key = static_cast<uint64_t>(rng.UniformInt(1, 2000));
      EXPECT_EQ(map.Erase(key), ref.erase(key) > 0) << key;
    }
    // Full-range audit: presence, value, AND absence must match — a broken
    // backward shift typically loses a key that hashed behind the hole.
    ASSERT_EQ(map.size(), ref.size()) << "round " << round;
    for (uint64_t key = 1; key <= 2000; ++key) {
      const uint64_t* found = map.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << key;
      }
    }
  }
}

// Rehash correctness with holes: grow a table, erase most of it, then force
// a Rehash via Reserve.  Every survivor must re-land findable and every
// erased key stay absent (rehash iterates raw cells, so a stale key left
// behind by a bad erase would resurrect here).
TEST(FlatMap, ReserveRehashAfterErasesKeepsExactContents) {
  FlatMap<uint64_t, uint64_t, IdHash> map(0, 16);
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(8510);
  for (uint64_t key = 1; key <= 500; ++key) {
    map[key] = key * 7;
    ref[key] = key * 7;
  }
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(1, 500));
    if (ref.erase(key) > 0) {
      EXPECT_TRUE(map.Erase(key));
    }
  }
  map.Reserve(4096);
  EXPECT_EQ(map.size(), ref.size());
  for (uint64_t key = 1; key <= 500; ++key) {
    const uint64_t* found = map.Find(key);
    auto it = ref.find(key);
    ASSERT_EQ(found != nullptr, it != ref.end()) << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second) << key;
    }
  }
}

// Backreference stability through EraseCell: the block cache stores each
// entry's cell index and relies on on_move to patch it when backward
// shifting relocates a chain.  Model that contract exactly — value = index
// into a side table of backrefs — under erase-heavy churn on a map
// Reserve()d up front (the cell-index interface's validity condition).
TEST(FlatMap, EraseCellKeepsBackrefsConsistentUnderChurn) {
  constexpr size_t kSlots = 256;
  FlatMap<uint64_t, size_t, IdHash> map(0, kSlots * 4);  // never rehashes
  std::vector<uint64_t> slot_key(kSlots, 0);             // 0 = free slot
  std::vector<size_t> slot_cell(kSlots, FlatMap<uint64_t, size_t, IdHash>::npos);
  Rng rng(8511);
  uint64_t next_key = 1;
  size_t live = 0;
  for (int step = 0; step < 50000; ++step) {
    const size_t slot = static_cast<size_t>(rng.UniformInt(0, kSlots - 1));
    if (slot_key[slot] == 0) {
      // Insert a fresh key into this slot; record its cell as its backref.
      const uint64_t key = next_key++;
      slot_key[slot] = key;
      slot_cell[slot] = map.InsertCell(key, slot);
      ++live;
    } else {
      // Erase via the stored backref, no re-probe — exactly the eviction
      // path.  on_move patches the backrefs of relocated entries.
      map.EraseCell(slot_cell[slot], [&](const size_t& moved_slot, size_t new_cell) {
        slot_cell[moved_slot] = new_cell;
      });
      slot_key[slot] = 0;
      slot_cell[slot] = FlatMap<uint64_t, size_t, IdHash>::npos;
      --live;
    }
    // Spot-audit a handful of live slots per step: the stored backref must
    // be exactly where FindCell lands, and its value must name the slot.
    for (int probe = 0; probe < 4; ++probe) {
      const size_t s = static_cast<size_t>(rng.UniformInt(0, kSlots - 1));
      if (slot_key[s] == 0) {
        continue;
      }
      ASSERT_EQ(map.FindCell(slot_key[s]), slot_cell[s]) << "step " << step;
      ASSERT_EQ(map.CellValue(slot_cell[s]), s);
    }
    ASSERT_EQ(map.size(), live);
  }
  // Drain everything through the backrefs; the map must end exactly empty.
  for (size_t slot = 0; slot < kSlots; ++slot) {
    if (slot_key[slot] != 0) {
      map.EraseCell(slot_cell[slot], [&](const size_t& moved_slot, size_t new_cell) {
        slot_cell[moved_slot] = new_cell;
      });
      slot_key[slot] = 0;
    }
  }
  EXPECT_EQ(map.size(), 0u);
}

}  // namespace
}  // namespace bsdtrace
