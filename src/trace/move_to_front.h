// Move-to-front rank coding of the file and user ids in v4 blocks.
//
// The v4 pre-pass codes a Zipfian id stream against a block-local recency
// list: a value on the list codes as its rank + 1 (0 = most recent) and
// moves to the front; any other value codes as 0 followed by the value and
// is inserted at the front, evicting the least recent entry once the list
// holds kMtfCap values.  Kept as a vector, every operation moves O(rank)
// elements, and ranks in a 2,000-user fleet average in the hundreds.
//
// Here each entry instead carries a stamp, bumped on every use, and a
// Fenwick tree counts live stamps: an entry's rank is the number of live
// stamps above its own, the entry at a rank is found by descending the tree,
// and the least recent entry is the lowest live stamp.  Stamps come from a
// window of 2 * kMtfCap; when it runs out the live stamps are renumbered in
// order.  Every operation is O(log kMtfCap) and emits exactly the ranks and
// values of the vector list, so v4 blocks keep their bytes.

#ifndef BSDTRACE_SRC_TRACE_MOVE_TO_FRONT_H_
#define BSDTRACE_SRC_TRACE_MOVE_TO_FRONT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace bsdtrace {

// List capacity: a pathological id stream cannot grow a block's state
// without bound.  Part of the v4 format (ranks depend on it).
inline constexpr size_t kMtfCap = 4096;

// Index of the k-th lowest set bit (k from 0) of a word with more than k
// set bits, without a data-dependent branch: per-byte popcounts and their
// running sums locate the byte, a table the bit.
inline unsigned SelectBit(uint64_t word, unsigned k) {
  static constexpr auto kInByte = [] {
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
      unsigned seen = 0;
      for (unsigned bit = 0; bit < 8; ++bit) {
        if (byte & (1u << bit)) {
          table[byte][seen++] = static_cast<uint8_t>(bit);
        }
      }
    }
    return table;
  }();
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  uint64_t counts = word - ((word >> 1) & 0x5555555555555555ull);
  counts = (counts & 0x3333333333333333ull) + ((counts >> 2) & 0x3333333333333333ull);
  counts = (counts + (counts >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  const uint64_t running = counts * kOnes;  // byte i: set bits in bytes 0..i
  // Bytes whose running count is still <= k precede the one holding the bit;
  // flag the others (each running count is <= 64, so a byte's high bit is
  // free for the comparison).
  const uint64_t past_k = ((running | (kOnes << 7)) - (k + 1) * kOnes) & (kOnes << 7);
  const unsigned byte = 8 - static_cast<unsigned>((((past_k >> 7) * kOnes) >> 56) & 0xFF);
  const unsigned before = byte == 0 ? 0 : static_cast<unsigned>((running >> (8 * byte - 8)) & 0xFF);
  return 8 * byte + kInByte[(word >> (8 * byte)) & 0xFF][k - before];
}

// The recency order shared by both sides: at most kMtfCap values in slots,
// ordered by stamp.  Live stamps are bits in a bitmap, and a Fenwick tree
// over the bitmap's 64-bit words counts them: a rank is a 7-step prefix sum
// plus a popcount, the stamp at a rank a 7-step descent plus a bit select.
// Call Clear() before first use: the arrays are allocated there, so idle
// lists (every reader and writer of another format version) cost nothing.
class MtfOrder {
 public:
  void Clear() {
    if (value_.empty()) {
      value_.resize(kMtfCap);
      stamp_.resize(kMtfCap);
      stamp_slot_.resize(kStamps);
      bits_.resize(kWords);
      tree_.resize(kWords + 1);
    }
    if (next_stamp_ == 0) {
      return;  // nothing stamped since the last clear
    }
    std::fill(bits_.begin(), bits_.end(), 0);
    std::fill(tree_.begin(), tree_.end(), 0);
    size_ = 0;
    next_stamp_ = 0;
  }

  size_t size() const { return size_; }
  uint64_t value(size_t slot) const { return value_[slot]; }

  // Entries more recent than `slot`'s.
  size_t RankOf(size_t slot) const {
    const size_t stamp = stamp_[slot];
    const uint64_t upto = ~uint64_t{0} >> (63 - stamp % 64);  // bits <= stamp
    return size_ - WordsBelow(stamp / 64) -
           static_cast<size_t>(std::popcount(bits_[stamp / 64] & upto));
  }

  // The slot at `rank` (< size()).
  size_t SlotAt(size_t rank) const { return stamp_slot_[KthStamp(size_ - rank)]; }

  void MoveToFront(size_t slot) {
    Unstamp(stamp_[slot]);
    Stamp(slot);
  }

  // The least recent entry's slot (size() > 0).
  size_t Oldest() const { return stamp_slot_[KthStamp(1)]; }

  // Puts `value` at the front and returns its slot; at the cap it takes
  // over the least recent entry's slot.
  size_t PushFront(uint64_t value) {
    size_t slot = size_;
    if (size_ == kMtfCap) {
      slot = Oldest();
      Unstamp(stamp_[slot]);
    } else {
      ++size_;
    }
    value_[slot] = value;
    Stamp(slot);
    return slot;
  }

 private:
  static constexpr size_t kStamps = 2 * kMtfCap;  // a multiple of 64 * 2^k
  static constexpr size_t kWords = kStamps / 64;

  // Live stamps in words [0, word).
  size_t WordsBelow(size_t word) const {
    size_t sum = 0;
    for (size_t i = word; i > 0; i &= i - 1) {
      sum += tree_[i];
    }
    return sum;
  }

  // The k-th lowest live stamp (1 <= k <= live stamps).
  size_t KthStamp(size_t k) const {
    size_t word = 0;
    for (size_t step = kWords / 2; step > 0; step >>= 1) {
      const size_t next = word + step;
      const size_t below = tree_[next];
      const bool skip = below < k;
      word = skip ? next : word;
      k -= skip ? below : 0;
    }
    return word * 64 + SelectBit(bits_[word], static_cast<unsigned>(k - 1));
  }

  void AddToWord(size_t word, int delta) {
    for (size_t i = word + 1; i <= kWords; i += i & (~i + 1)) {
      tree_[i] = static_cast<uint16_t>(tree_[i] + delta);
    }
  }

  void Unstamp(size_t stamp) {
    bits_[stamp / 64] &= ~(uint64_t{1} << (stamp % 64));
    AddToWord(stamp / 64, -1);
  }

  // Gives `slot` the next stamp.
  void Stamp(size_t slot) {
    if (next_stamp_ == kStamps) {
      Renumber();
    }
    const size_t stamp = next_stamp_++;
    stamp_[slot] = static_cast<uint16_t>(stamp);
    stamp_slot_[stamp] = static_cast<uint16_t>(slot);
    bits_[stamp / 64] |= uint64_t{1} << (stamp % 64);
    AddToWord(stamp / 64, +1);
  }

  // Renumbers the live stamps 0, 1, ... in order and rebuilds the bitmap
  // and tree.  The caller's entry is unstamped at this point, so at most
  // kMtfCap - 1 stamps are live and over half the window comes free.
  void Renumber() {
    size_t next = 0;
    for (size_t word = 0; word < kWords; ++word) {
      for (uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1) {
        const size_t slot = stamp_slot_[word * 64 + static_cast<size_t>(std::countr_zero(bits))];
        stamp_slot_[next] = static_cast<uint16_t>(slot);  // next <= the stamp read
        stamp_[slot] = static_cast<uint16_t>(next);
        ++next;
      }
    }
    std::fill(tree_.begin(), tree_.end(), 0);
    for (size_t word = 0; word < kWords; ++word) {
      const size_t live = next >= 64 * (word + 1) ? 64 : (next > 64 * word ? next - 64 * word : 0);
      bits_[word] = live == 64 ? ~uint64_t{0} : (uint64_t{1} << live) - 1;
      tree_[word + 1] = static_cast<uint16_t>(tree_[word + 1] + live);
      const size_t parent = (word + 1) + ((word + 1) & (~(word + 1) + 1));
      if (parent <= kWords) {  // linear-time build: fold into the parent
        tree_[parent] = static_cast<uint16_t>(tree_[parent] + tree_[word + 1]);
      }
    }
    next_stamp_ = next;
  }

  std::vector<uint64_t> value_;       // slot -> value
  std::vector<uint16_t> stamp_;       // slot -> stamp
  std::vector<uint16_t> stamp_slot_;  // stamp -> slot, for live stamps
  std::vector<uint64_t> bits_;        // live stamps
  std::vector<uint16_t> tree_;        // Fenwick tree of live stamps per word, 1-based
  size_t size_ = 0;
  size_t next_stamp_ = 0;
};

// Writer side: maps each value to its code.
class MtfEncoder {
 public:
  // Call before first use, and to start a block.
  void Clear() {
    if (cells_.empty()) {
      cells_.resize(kCells);
    } else if (order_.size() > 0) {
      std::memset(cells_.data(), 0, cells_.size() * sizeof(cells_[0]));
    }
    order_.Clear();
  }

  // rank + 1 for a value on the list, 0 for a new one (the caller then
  // writes the value itself).
  uint64_t Encode(uint64_t value) {
    size_t cell = Probe(value);
    if (cells_[cell] != 0) {
      const size_t slot = cells_[cell] - 1u;
      const size_t rank = order_.RankOf(slot);
      order_.MoveToFront(slot);
      return rank + 1;
    }
    if (order_.size() == kMtfCap) {
      Erase(order_.value(order_.Oldest()));
      cell = Probe(value);  // the erase may have shifted the probe chain
    }
    cells_[cell] = static_cast<uint16_t>(order_.PushFront(value) + 1);
    return 0;
  }

 private:
  static constexpr size_t kCells = 2 * kMtfCap;  // at most half full

  static size_t Home(uint64_t value) {
    return static_cast<size_t>((value * 0x9E3779B97F4A7C15ull) >> 51);  // 13 bits
  }

  // The cell holding `value`, or the empty cell where it would go.
  size_t Probe(uint64_t value) const {
    size_t i = Home(value);
    while (cells_[i] != 0 && order_.value(cells_[i] - 1u) != value) {
      i = (i + 1) & (kCells - 1);
    }
    return i;
  }

  // Backward-shift deletion: later cells of the probe chain move into the
  // hole when it lies on their path, so chains never break.
  void Erase(uint64_t value) {
    size_t i = Probe(value);
    for (size_t j = (i + 1) & (kCells - 1); cells_[j] != 0; j = (j + 1) & (kCells - 1)) {
      const size_t home = Home(order_.value(cells_[j] - 1u));
      if (((j - home) & (kCells - 1)) >= ((j - i) & (kCells - 1))) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i] = 0;
  }

  MtfOrder order_;
  std::vector<uint16_t> cells_;  // value hash -> slot + 1 (0: empty)
};

// Reader side: maps each code back to its value.
class MtfDecoder {
 public:
  // Call before first use, and to start a block.
  void Clear() { order_.Clear(); }

  // Code 0: *value is a new entry, put at the front.  Code k > 0: *value
  // becomes the entry at rank k - 1, which moves to the front; false when
  // the list is shorter than k.
  bool Decode(uint64_t code, uint64_t* value) {
    if (code == 0) {
      order_.PushFront(*value);
      return true;
    }
    if (code > order_.size()) {
      return false;
    }
    const size_t slot = order_.SlotAt(static_cast<size_t>(code - 1));
    *value = order_.value(slot);
    order_.MoveToFront(slot);
    return true;
  }

 private:
  MtfOrder order_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_MOVE_TO_FRONT_H_
