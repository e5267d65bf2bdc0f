// The v4 block codec in isolation: round trips over byte distributions from
// all-zero to incompressible, every column form, the framed multi-column
// output, determinism, and clean rejection of truncated, padded or garbage
// streams.  Whole-block corruption detection (CRC + size checks) and the
// mutation drill over real blocks live in trace_v4_test.cc; this file
// exercises the raw codec contract.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/ans_codec.h"
#include "src/util/rng.h"

namespace bsdtrace {
namespace {

std::vector<uint8_t> CompressColumns(const std::vector<std::vector<uint8_t>>& columns) {
  std::vector<AnsColumn> views;
  size_t total = 0;
  for (const std::vector<uint8_t>& c : columns) {
    views.push_back(AnsColumn{c.data(), c.size()});
    total += c.size();
  }
  std::vector<uint8_t> dst(AnsMaxCompressedSize(total, views.size()));
  dst.resize(AnsCompress(views.data(), views.size(), dst.data()));
  return dst;
}

std::vector<uint8_t> Compress(const std::vector<uint8_t>& src) { return CompressColumns({src}); }

// Decompresses expecting exactly `want`'s size, and returns whether the
// codec accepted the stream AND reproduced the bytes.
bool RoundTripsTo(const std::vector<uint8_t>& stored, const std::vector<uint8_t>& want) {
  std::vector<uint8_t> out(want.size());
  if (!AnsDecompress(stored.data(), stored.size(), out.data(), out.size())) {
    return false;
  }
  return out == want;
}

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Inputs spanning the distributions v4 payloads actually produce: runs,
// skewed low-entropy bytes, varint-like structure, long literal repeats,
// and uniform noise (which the codec must survive, not shrink).
std::vector<uint8_t> MakeInput(int kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  switch (kind) {
    case 0:  // constant
      for (auto& b : v) b = 0x42;
      break;
    case 1:  // heavily skewed: mostly tiny values, occasional spikes
      for (auto& b : v) {
        b = rng.UniformInt(0, 9) == 0 ? static_cast<uint8_t>(rng.UniformInt(0, 255))
                                      : static_cast<uint8_t>(rng.UniformInt(0, 3));
      }
      break;
    case 2:  // varint-ish: 1-3 byte little-endian groups with the top bit run
      for (size_t i = 0; i < n; ++i) {
        v[i] = (i % 3 == 2) ? static_cast<uint8_t>(rng.UniformInt(0, 127))
                            : static_cast<uint8_t>(rng.UniformInt(128, 255));
      }
      break;
    case 3: {  // repeated phrase
      std::vector<uint8_t> phrase(97);
      for (auto& b : phrase) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      for (size_t i = 0; i < n; ++i) v[i] = phrase[i % phrase.size()];
      break;
    }
    default:  // incompressible noise
      for (auto& b : v) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      break;
  }
  return v;
}

// `count` varints drawn from `distinct` values spread over 1-3 byte sizes:
// a dictionary column when distinct <= 256, a split column above.
std::vector<uint8_t> VarintColumn(size_t count, int distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v;
  for (size_t i = 0; i < count; ++i) {
    const int64_t pick = rng.UniformInt(0, 3) == 0 ? rng.UniformInt(0, distinct - 1)
                                                   : rng.UniformInt(0, 3);
    PutVarint(&v, static_cast<uint64_t>(pick) * 977);
  }
  return v;
}

// The form byte of a one-column stream: count, column length, then form.
int SingleColumnForm(const std::vector<uint8_t>& stored, size_t column_size) {
  size_t length_bytes = 1;
  for (size_t v = column_size; v >= 0x80; v >>= 7) {
    ++length_bytes;
  }
  return stored.at(1 + length_bytes);
}

TEST(AnsCodec, RoundTripsAllDistributionsAndSizes) {
  for (int kind = 0; kind < 5; ++kind) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{64}, size_t{4096},
                           size_t{100'000}}) {
      const std::vector<uint8_t> src = MakeInput(kind, n, 19851201 + kind);
      const std::vector<uint8_t> stored = Compress(src);
      ASSERT_GT(stored.size(), 0u);  // even an empty column has its framing
      EXPECT_TRUE(RoundTripsTo(stored, src)) << "kind " << kind << " n " << n;
    }
  }
}

TEST(AnsCodec, EveryColumnFormRoundTrips) {
  struct Case {
    std::vector<uint8_t> column;
    int form;  // 0 stored, 1 bytes, 2 split, 3 dictionary
  };
  const std::vector<Case> cases = {
      {MakeInput(4, 20'000, 1), 0},
      {MakeInput(1, 20'000, 2), 1},
      {VarintColumn(20'000, 100'000, 3), 2},
      {VarintColumn(20'000, 120, 4), 3},
  };
  for (const Case& c : cases) {
    const std::vector<uint8_t> stored = Compress(c.column);
    EXPECT_EQ(SingleColumnForm(stored, c.column.size()), c.form);
    EXPECT_TRUE(RoundTripsTo(stored, c.column)) << "form " << c.form;
  }
}

TEST(AnsCodec, ColumnsDecompressToTheFramedPayload) {
  // Column 0 bare, every later column behind its varint length: the v4
  // block payload layout.
  const std::vector<std::vector<uint8_t>> columns = {
      MakeInput(1, 3'000, 5), VarintColumn(2'000, 50, 6), {}, MakeInput(0, 200, 7),
      VarintColumn(1'500, 50'000, 8), MakeInput(4, 130, 9)};
  std::vector<uint8_t> framed = columns[0];
  for (size_t i = 1; i < columns.size(); ++i) {
    PutVarint(&framed, columns[i].size());
    framed.insert(framed.end(), columns[i].begin(), columns[i].end());
  }
  const std::vector<uint8_t> stored = CompressColumns(columns);
  EXPECT_LT(stored.size(), framed.size());
  EXPECT_TRUE(RoundTripsTo(stored, framed));
}

TEST(AnsCodec, CompressionIsDeterministic) {
  const std::vector<uint8_t> src = MakeInput(1, 50'000, 7);
  EXPECT_EQ(Compress(src), Compress(src));
  const std::vector<uint8_t> varints = VarintColumn(30'000, 200, 7);
  EXPECT_EQ(Compress(varints), Compress(varints));
}

TEST(AnsCodec, SkewedPayloadActuallyShrinks) {
  // The whole point of the codec: low-entropy byte streams (what the v4
  // semantic pre-pass emits) must compress well below byte-aligned size.
  const std::vector<uint8_t> src = MakeInput(1, 100'000, 3);
  EXPECT_LT(Compress(src).size(), src.size() / 2);
}

TEST(AnsCodec, NoiseStaysWithinTheDeclaredBound) {
  const std::vector<uint8_t> src = MakeInput(4, 100'000, 5);
  EXPECT_LE(Compress(src).size(), AnsMaxCompressedSize(src.size(), 1));
}

TEST(AnsCodec, RejectsTruncatedStreams) {
  for (const std::vector<uint8_t>& src : {MakeInput(2, 20'000, 11), VarintColumn(8'000, 90, 11),
                                          VarintColumn(8'000, 90'000, 12)}) {
    const std::vector<uint8_t> stored = Compress(src);
    std::vector<uint8_t> out(src.size());
    Rng rng(13);
    for (int i = 0; i < 32; ++i) {
      const size_t cut =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(stored.size()) - 1));
      EXPECT_FALSE(AnsDecompress(stored.data(), cut, out.data(), out.size())) << "cut " << cut;
    }
  }
}

TEST(AnsCodec, RejectsTrailingGarbage) {
  const std::vector<uint8_t> src = MakeInput(1, 20'000, 17);
  std::vector<uint8_t> stored = Compress(src);
  stored.push_back(0x00);
  std::vector<uint8_t> out(src.size());
  EXPECT_FALSE(AnsDecompress(stored.data(), stored.size(), out.data(), out.size()));
}

TEST(AnsCodec, RejectsWrongOutputLength) {
  const std::vector<uint8_t> src = MakeInput(3, 10'000, 23);
  const std::vector<uint8_t> stored = Compress(src);
  std::vector<uint8_t> out(src.size() + 1);
  EXPECT_FALSE(AnsDecompress(stored.data(), stored.size(), out.data(), src.size() - 1));
  EXPECT_FALSE(AnsDecompress(stored.data(), stored.size(), out.data(), src.size() + 1));
}

TEST(AnsCodec, RandomGarbageNeverCrashes) {
  // Fuzz the decoder entry: arbitrary bytes must yield false or some
  // dst_len-byte output — never a read/write out of bounds (run under
  // sanitizers in CI).  Half the inputs start like a real one-column
  // stream so the garbage reaches the model and sub-stream parsers.
  Rng rng(29);
  std::vector<uint8_t> out(512);
  for (int i = 0; i < 400; ++i) {
    std::vector<uint8_t> junk(static_cast<size_t>(rng.UniformInt(0, 64)));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    if (i % 2 == 1 && junk.size() >= 4) {
      junk[0] = 1;                                         // one column
      junk[1] = 0x80;                                      // of 512 bytes
      junk[2] = 0x04;
      junk[3] = static_cast<uint8_t>(rng.UniformInt(0, 3));  // a real form
    }
    AnsDecompress(junk.data(), junk.size(), out.data(), out.size());
  }
}

TEST(AnsCodec, CodecNamesAreStable) {
  EXPECT_STREQ(TraceCodecName(static_cast<uint8_t>(TraceCodec::kNone)), "none");
  EXPECT_STREQ(TraceCodecName(static_cast<uint8_t>(TraceCodec::kAns)), "ans");
  EXPECT_STREQ(TraceCodecName(1), "unknown");  // the retired LZ id
  EXPECT_STREQ(TraceCodecName(250), "unknown");
}

}  // namespace
}  // namespace bsdtrace
