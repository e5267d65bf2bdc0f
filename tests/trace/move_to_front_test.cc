// The O(log n) move-to-front lists against their reference twin, the plain
// vector list v4 was defined with: random operation streams must yield the
// same codes on the encoder side and the same values on the decoder side,
// through Zipfian hits, all-miss streams, repeats, and eviction at the cap.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/move_to_front.h"
#include "src/util/rng.h"

namespace bsdtrace {
namespace {

// The reference: a vector, most recent first, capped at kMtfCap.
class VectorMtf {
 public:
  uint64_t Encode(uint64_t value) {
    auto it = std::find(list_.begin(), list_.end(), value);
    uint64_t code = 0;
    if (it != list_.end()) {
      code = static_cast<uint64_t>(it - list_.begin()) + 1;
      list_.erase(it);
    } else if (list_.size() >= kMtfCap) {
      list_.pop_back();
    }
    list_.insert(list_.begin(), value);
    return code;
  }

  bool Decode(uint64_t code, uint64_t* value) {
    if (code == 0) {
      if (list_.size() >= kMtfCap) {
        list_.pop_back();
      }
    } else {
      if (code > list_.size()) {
        return false;
      }
      *value = list_[code - 1];
      list_.erase(list_.begin() + static_cast<ptrdiff_t>(code - 1));
    }
    list_.insert(list_.begin(), *value);
    return true;
  }

  size_t size() const { return list_.size(); }

 private:
  std::vector<uint64_t> list_;
};

// A value stream over `universe` ids: Zipfian (exponent ~1) when `zipf`,
// else uniform; `repeat_share` of the draws repeat the previous value.
std::vector<uint64_t> ValueStream(size_t n, uint64_t universe, bool zipf, double repeat_share,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!out.empty() && rng.NextDouble() < repeat_share) {
      out.push_back(out.back());
      continue;
    }
    uint64_t v = 0;
    if (zipf) {
      // Inverse-CDF draw of a 1/x law on [1, universe].
      v = static_cast<uint64_t>(std::exp(rng.NextDouble() * std::log(double(universe))));
    } else {
      v = static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(universe) - 1));
    }
    out.push_back(v * 0x9E3779B97F4A7C15ull);  // spread ids over 64 bits
  }
  return out;
}

// Encodes through both lists, then decodes the codes through both, in one
// block (no Clear) or with a Clear every `block` values.
void ExpectTwins(const std::vector<uint64_t>& values, size_t block, const char* label) {
  MtfEncoder encoder;
  encoder.Clear();
  VectorMtf ref_encoder;
  std::vector<uint64_t> codes;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0 && block > 0 && i % block == 0) {
      encoder.Clear();
      ref_encoder = VectorMtf();
    }
    const uint64_t code = encoder.Encode(values[i]);
    ASSERT_EQ(code, ref_encoder.Encode(values[i])) << label << " value " << i;
    codes.push_back(code);
  }
  MtfDecoder decoder;
  decoder.Clear();
  VectorMtf ref_decoder;
  for (size_t i = 0; i < codes.size(); ++i) {
    if (i > 0 && block > 0 && i % block == 0) {
      decoder.Clear();
      ref_decoder = VectorMtf();
    }
    uint64_t value = codes[i] == 0 ? values[i] : 0;
    uint64_t ref_value = value;
    ASSERT_TRUE(decoder.Decode(codes[i], &value)) << label << " code " << i;
    ASSERT_TRUE(ref_decoder.Decode(codes[i], &ref_value)) << label << " code " << i;
    ASSERT_EQ(value, ref_value) << label << " code " << i;
    ASSERT_EQ(value, values[i]) << label << " code " << i;
  }
}

TEST(MoveToFront, SelectBitFindsTheKthSetBit) {
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    uint64_t word = rng.NextU64();
    if (i % 3 == 0) {
      word &= rng.NextU64();  // sparser words
    }
    if (i == 0) {
      word = ~uint64_t{0};
    }
    unsigned k = 0;
    for (unsigned bit = 0; bit < 64; ++bit) {
      if (word & (uint64_t{1} << bit)) {
        ASSERT_EQ(SelectBit(word, k), bit) << std::hex << word << " k " << std::dec << k;
        ++k;
      }
    }
  }
}

TEST(MoveToFront, ZipfianHitsMatchTheVectorList) {
  ExpectTwins(ValueStream(60'000, 3'000, /*zipf=*/true, 0.0, 1), 0, "zipf");
}

TEST(MoveToFront, AllMissesEvictAtTheCap) {
  // Every value new: the list fills to the cap, then evicts on each push.
  std::vector<uint64_t> values(3 * kMtfCap);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i * 7919;
  }
  ExpectTwins(values, 0, "misses");
}

TEST(MoveToFront, RepeatsAndRecentReuseMatch) {
  ExpectTwins(ValueStream(40'000, 50, /*zipf=*/false, 0.5, 2), 0, "repeats");
}

TEST(MoveToFront, EvictionAtTheCapMatchesWithHitsBehindIt) {
  // More than kMtfCap distinct values referenced in a Zipfian mix: hits at
  // deep ranks, misses that evict, and values that return after eviction,
  // long enough to renumber the stamps many times.
  ExpectTwins(ValueStream(200'000, 3 * kMtfCap, /*zipf=*/true, 0.1, 3), 0, "cap");
  ExpectTwins(ValueStream(100'000, 2 * kMtfCap, /*zipf=*/false, 0.0, 4), 0, "cap uniform");
}

TEST(MoveToFront, ClearStartsEveryBlockEmpty) {
  ExpectTwins(ValueStream(30'000, 5'000, /*zipf=*/true, 0.2, 5), 777, "blocks");
}

TEST(MoveToFront, DecoderRejectsRanksPastTheListAndKeepsDuplicates) {
  MtfDecoder decoder;
  decoder.Clear();
  VectorMtf reference;
  uint64_t value = 0;
  EXPECT_FALSE(decoder.Decode(1, &value));
  EXPECT_FALSE(reference.Decode(1, &value));
  // A corrupt stream can push a value that is already listed; both lists
  // keep the duplicate and agree on every later rank.
  for (const uint64_t v : {5u, 6u, 5u, 7u}) {
    uint64_t a = v, b = v;
    ASSERT_TRUE(decoder.Decode(0, &a));
    ASSERT_TRUE(reference.Decode(0, &b));
  }
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const uint64_t code = static_cast<uint64_t>(rng.UniformInt(1, 5));
    uint64_t a = 0, b = 0;
    const bool ok = decoder.Decode(code, &a);
    ASSERT_EQ(ok, reference.Decode(code, &b)) << i;
    if (ok) {
      ASSERT_EQ(a, b) << i;
    }
  }
}

}  // namespace
}  // namespace bsdtrace
