// Property tests for the binary trace codec: the file writer and every
// file reader must accept arbitrary record streams, re-encode them byte for
// byte, and round-trip them bit-exactly — including extreme varint values,
// negative time deltas, and both header versions.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/util/rng.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

// Random record with occasional extreme field values: zero, one, varint
// byte-length boundaries, and the 64-bit maximum.  Records are built through
// the per-type factories because the codec is deliberately per-type lossy —
// fields a type does not carry are not encoded.
TraceRecord RandomRecord(Rng& rng, SimTime time) {
  const auto extreme = [&rng]() -> uint64_t {
    switch (rng.UniformInt(0, 6)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 127;               // 1-byte varint max
      case 3: return 128;               // first 2-byte varint
      case 4: return (1ull << 56) - 1;  // 8-byte varint max
      case 5: return 1ull << 56;        // first 9-byte varint
      default: return std::numeric_limits<uint64_t>::max();
    }
  };
  const auto value = [&]() -> uint64_t {
    return rng.UniformInt(0, 3) == 0 ? extreme()
                                     : static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
  };
  const auto open_id = [&]() -> OpenId { return value() | 1; };  // non-sentinel
  const auto user = [&rng]() -> UserId { return static_cast<UserId>(rng.UniformInt(0, 1000)); };
  const auto mode = [&rng]() { return static_cast<AccessMode>(rng.UniformInt(0, 2)); };
  switch (rng.UniformInt(1, 7)) {
    case 1:
      return MakeOpen(time, open_id(), value(), user(), mode(), value(), value());
    case 2:
      return MakeCreate(time, open_id(), value(), user(), mode());
    case 3:
      return MakeClose(time, open_id(), value(), value(), value());
    case 4:
      return MakeSeek(time, open_id(), value(), value(), value());
    case 5:
      return MakeUnlink(time, value(), user());
    case 6:
      return MakeTruncate(time, value(), user(), value());
    default:
      return MakeExecve(time, value(), user(), value());
  }
}

// Random trace whose record times jump forward AND backward (the format
// stores signed zigzag deltas; out-of-order records must survive the codec
// even though generated traces are sorted).
Trace RandomTrace(uint64_t seed, size_t records) {
  Rng rng(seed);
  Trace trace(TraceHeader{.machine = "propmachine" + std::to_string(seed),
                          .description = "property trace, seed " + std::to_string(seed)});
  SimTime t = SimTime::Origin();
  for (size_t i = 0; i < records; ++i) {
    t += Duration::Micros(rng.UniformInt(-5'000'000, 5'000'000));
    if (rng.UniformInt(0, 15) == 0) {
      // Occasional huge jump, in either direction: a 6+ byte time varint.
      t += Duration::Micros((rng.UniformInt(0, 1) == 0 ? 1 : -1) * (int64_t{1} << 40));
    }
    trace.Append(RandomRecord(rng, t));
  }
  return trace;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The v2 file bytes SaveTrace writes for `trace`.
std::string SavedBytes(const Trace& trace) {
  const std::string path = TempPath("prop_saved.trace");
  EXPECT_TRUE(SaveTrace(path, trace).ok());
  std::string bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// Parses one LEB128 varint (for rewriting headers in the v1 test).
size_t VarintEnd(const std::string& bytes, size_t pos) {
  while (pos < bytes.size() && (static_cast<uint8_t>(bytes[pos]) & 0x80) != 0) {
    ++pos;
  }
  return pos + 1;
}

// Converts v2 file bytes to the v1 format: swap the magic and splice out the
// record-count varint that follows the two header strings.
std::string ToV1(const std::string& v2) {
  EXPECT_EQ(v2.substr(0, 8), "BSDTRC2\n");
  size_t pos = 8;
  for (int str = 0; str < 2; ++str) {
    const size_t len_end = VarintEnd(v2, pos);
    uint64_t len = 0;
    int shift = 0;
    for (size_t i = pos; i < len_end; ++i) {
      len |= static_cast<uint64_t>(static_cast<uint8_t>(v2[i]) & 0x7f) << shift;
      shift += 7;
    }
    pos = len_end + len;
  }
  const size_t count_end = VarintEnd(v2, pos);
  return "BSDTRC1\n" + v2.substr(8, pos - 8) + v2.substr(count_end);
}

class TraceIoProperty : public ::testing::TestWithParam<uint64_t> {};

// Streaming a saved file back through TraceFileSource into SaveTrace
// reproduces its bytes exactly: decode then re-encode is the identity.
TEST_P(TraceIoProperty, BufferedBytesMatchStreamBytes) {
  const Trace trace = RandomTrace(GetParam(), 400);
  const std::string path = TempPath("prop_bytes.trace");
  const std::string resaved = TempPath("prop_bytes_resaved.trace");
  ASSERT_TRUE(SaveTrace(path, trace).ok());
  TraceFileSource source(path);
  ASSERT_TRUE(SaveTrace(resaved, source).ok());
  EXPECT_EQ(FileBytes(resaved), FileBytes(path));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

// Round trip through the buffered path is the identity, via both the mmap
// window and the stdio fallback.
TEST_P(TraceIoProperty, BufferedRoundTripIdentity) {
  const Trace trace = RandomTrace(GetParam(), 400);
  const std::string path = TempPath("prop_roundtrip.trace");
  ASSERT_TRUE(SaveTrace(path, trace).ok());

  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), trace);

  for (bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok()) << reader.status().message();
    EXPECT_EQ(reader.declared_record_count(), static_cast<int64_t>(trace.size()));
    Trace reread(reader.header());
    TraceRecord record;
    while (reader.Next(&record)) {
      reread.Append(record);
    }
    ASSERT_TRUE(reader.status().ok()) << reader.status().message();
    EXPECT_EQ(reread, trace) << "prefer_mmap=" << prefer_mmap;
  }
  std::remove(path.c_str());
}

// Cross-format reads: the same records written as v2, v3 and v4 load
// identically through LoadTrace and the streaming TraceFileSource.
TEST_P(TraceIoProperty, CrossPathReads) {
  const Trace trace = RandomTrace(GetParam(), 300);
  const std::string path = TempPath("prop_cross.trace");
  for (const int version : {2, 3, 4}) {
    ASSERT_TRUE(SaveTrace(path, trace, {.version = version}).ok());
    auto via_load = LoadTrace(path);
    ASSERT_TRUE(via_load.ok()) << via_load.status().message();
    EXPECT_EQ(via_load.value(), trace) << "v" << version;

    TraceFileSource source(path);
    auto via_source = CollectTrace(source);
    ASSERT_TRUE(via_source.ok()) << via_source.status().message();
    EXPECT_EQ(via_source.value(), trace) << "v" << version;
  }
  std::remove(path.c_str());
}

// v1 files (no record count) read identically through every read path.
TEST_P(TraceIoProperty, VersionOneHeader) {
  const Trace trace = RandomTrace(GetParam(), 200);
  const std::string path = TempPath("prop_v1.trace");
  WriteFileBytes(path, ToV1(SavedBytes(trace)));

  auto via_load = LoadTrace(path);
  ASSERT_TRUE(via_load.ok()) << via_load.status().message();
  EXPECT_EQ(via_load.value(), trace);

  for (bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.version(), 1);
    EXPECT_EQ(reader.declared_record_count(), -1);
    Trace reread(reader.header());
    TraceRecord record;
    while (reader.Next(&record)) {
      reread.Append(record);
    }
    ASSERT_TRUE(reader.status().ok()) << reader.status().message();
    EXPECT_EQ(reread, trace) << "prefer_mmap=" << prefer_mmap;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoProperty,
                         ::testing::Values(1u, 2u, 3u, 77u, 19851201u));

// Truncation anywhere in the body is an error on every read path, never a
// crash.
TEST(TraceIoPropertyEdge, TruncatedFilesFailCleanly) {
  const Trace trace = RandomTrace(99, 50);
  const std::string bytes = SavedBytes(trace);
  const std::string path = TempPath("prop_trunc.trace");
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(9, static_cast<int64_t>(bytes.size()) - 2));
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_FALSE(LoadTrace(path).ok()) << "cut at " << cut;
    for (bool prefer_mmap : {true, false}) {
      TraceFileReader reader(path, prefer_mmap);
      TraceRecord record;
      while (reader.Next(&record)) {
      }
      EXPECT_FALSE(reader.status().ok()) << "cut at " << cut << " prefer_mmap=" << prefer_mmap;
    }
  }
  std::remove(path.c_str());
}

// An empty file and a bad magic are reported as errors, not end-of-trace.
TEST(TraceIoPropertyEdge, BadHeadersFail) {
  const std::string path = TempPath("prop_bad.trace");
  WriteFileBytes(path, "");
  EXPECT_FALSE(LoadTrace(path).ok());
  WriteFileBytes(path, "NOTATRACE!");
  EXPECT_FALSE(LoadTrace(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bsdtrace
