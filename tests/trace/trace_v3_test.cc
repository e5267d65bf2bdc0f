// Trace format v3: checksummed blocks, the footer index, corruption
// detection, cursors, and back-compat with v1/v2 streams.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/util/rng.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A trace long enough to span several size-split blocks and two simulated
// hours (so the hour-boundary split fires too).
Trace BigTrace(size_t n = 20'000) {
  Rng rng(7);
  Trace t(TraceHeader{.machine = "v3box", .description = "v3 round trip"});
  int64_t time_us = 0;
  for (size_t i = 0; i < n; ++i) {
    time_us += rng.UniformInt(100, 400'000);  // ~n * 0.2s: > 1 hour total
    const SimTime now = SimTime::FromMicros(time_us);
    const auto oid = static_cast<OpenId>(i + 1);
    const auto file = static_cast<FileId>(rng.UniformInt(1, 500));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        t.Append(MakeOpen(now, oid, file, 3, AccessMode::kReadOnly, 4096, 0));
        break;
      case 1:
        t.Append(MakeSeek(now, static_cast<OpenId>(rng.UniformInt(1, 1000)),
                          file, 512, 1024));
        break;
      case 2:
        t.Append(MakeClose(now, static_cast<OpenId>(rng.UniformInt(1, 1000)),
                           file, 2048, 4096));
        break;
      default:
        t.Append(MakeUnlink(now, file, 3));
        break;
    }
  }
  return t;
}

TraceWriterOptions SmallBlocks() {
  TraceWriterOptions options;
  options.version = 3;
  options.block_target_bytes = 4 * 1024;
  return options;
}

TEST(TraceV3, RoundTripsThroughFileWriterAndReader) {
  const Trace original = BigTrace();
  const std::string path = TempPath("v3_roundtrip.trc");
  ASSERT_TRUE(SaveTrace(path, original, SmallBlocks()).ok());

  TraceFileReader reader(path);
  ASSERT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(reader.version(), 3);
  EXPECT_EQ(reader.header().machine, "v3box");
  EXPECT_EQ(reader.declared_record_count(), static_cast<int64_t>(original.size()));
  TraceRecord r;
  size_t i = 0;
  while (reader.Next(&r)) {
    ASSERT_LT(i, original.size());
    ASSERT_EQ(r, original.records()[i]) << "record " << i;
    ++i;
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(i, original.size());
  EXPECT_GT(reader.blocks_verified(), 1u);
}

TEST(TraceV3, EmptyTraceRoundTrips) {
  Trace empty(TraceHeader{.machine = "m", .description = ""});
  const std::string path = TempPath("v3_empty.trc");
  TraceWriterOptions options;
  options.version = 3;
  ASSERT_TRUE(SaveTrace(path, empty, options).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_EQ(loaded.value().header().machine, "m");
}

TEST(TraceV3, BlocksSplitAtHourBoundaries) {
  // Two records an hour apart must land in different blocks even though the
  // payload is tiny.
  Trace t(TraceHeader{.machine = "m", .description = ""});
  t.Append(MakeUnlink(SimTime::FromSeconds(10.0), 1, 1));
  t.Append(MakeUnlink(SimTime::FromSeconds(3'700.0), 2, 1));
  const std::string path = TempPath("v3_hours.trc");
  TraceWriterOptions options;
  options.version = 3;
  ASSERT_TRUE(SaveTrace(path, t, options).ok());

  SeekableTraceSource seekable(path);
  ASSERT_TRUE(seekable.status().ok()) << seekable.status().message();
  ASSERT_EQ(seekable.index().size(), 2u);
  EXPECT_EQ(seekable.index()[0].record_count, 1u);
  EXPECT_EQ(seekable.index()[1].record_count, 1u);
  EXPECT_EQ(seekable.index()[0].start_time, SimTime::FromSeconds(10.0));
  EXPECT_EQ(seekable.index()[1].start_time, SimTime::FromSeconds(3'700.0));
}

TEST(TraceV3, DetectsFlippedByte) {
  const Trace original = BigTrace(5'000);
  const std::string path = TempPath("v3_corrupt.trc");
  std::vector<TraceBlockIndexEntry> index;
  {
    TraceFileWriter writer(path, original.header(),
                           static_cast<int64_t>(original.size()), SmallBlocks());
    for (const TraceRecord& r : original.records()) {
      writer.Append(r);
    }
    ASSERT_TRUE(writer.Finish().ok());
    index = writer.index();
  }
  ASSERT_GT(index.size(), 2u);

  // Flip one payload byte in the second block (past the marker, the two
  // header varints, and the 4 CRC bytes).
  std::string bytes = ReadFileBytes(path);
  const size_t victim = index[1].offset + 12;
  ASSERT_LT(victim, static_cast<size_t>(index[2].offset));
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  const std::string bad_path = TempPath("v3_corrupt_flipped.trc");
  WriteFileBytes(bad_path, bytes);

  for (const bool prefer_mmap : {true, false}) {
    TraceFileReader reader(bad_path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok());
    TraceRecord r;
    size_t delivered = 0;
    while (reader.Next(&r)) {
      ++delivered;
    }
    EXPECT_FALSE(reader.status().ok());
    EXPECT_NE(reader.status().message().find("checksum"), std::string::npos)
        << reader.status().message();
    // Every record of the intact first block arrives; nothing from the
    // corrupt block does.
    EXPECT_EQ(delivered, index[0].record_count);
  }
}

TEST(TraceV3, ReadsV1AndV2Unchanged) {
  // v2: the default SaveTrace output (its bytes are pinned by
  // TraceGoldenBytes.V2LayoutIsPinned).
  const Trace original = BigTrace(2'000);
  const std::string v2_path = TempPath("v3_compat_v2.trc");
  ASSERT_TRUE(SaveTrace(v2_path, original).ok());
  TraceFileReader v2_reader(v2_path);
  EXPECT_EQ(v2_reader.version(), 2);
  auto v2_loaded = LoadTrace(v2_path);
  ASSERT_TRUE(v2_loaded.ok());
  EXPECT_EQ(v2_loaded.value(), original);

  // v1: hand-encoded magic + header without a record count.
  const std::string v1 =
      std::string("BSDTRC1\n") + '\x01' + 'm' + '\x00' + '\x00';
  const std::string v1_path = TempPath("v3_compat_v1.trc");
  WriteFileBytes(v1_path, v1);
  TraceFileReader v1_reader(v1_path);
  ASSERT_TRUE(v1_reader.status().ok()) << v1_reader.status().message();
  EXPECT_EQ(v1_reader.version(), 1);
  TraceRecord r;
  EXPECT_FALSE(v1_reader.Next(&r));
  EXPECT_TRUE(v1_reader.status().ok());
}

TEST(SeekableTraceSource, CursorsCoverTheWholeFile) {
  const Trace original = BigTrace();
  const std::string path = TempPath("v3_seekable.trc");
  ASSERT_TRUE(SaveTrace(path, original, SmallBlocks()).ok());

  SeekableTraceSource seekable(path);
  ASSERT_TRUE(seekable.status().ok()) << seekable.status().message();
  EXPECT_EQ(seekable.version(), 3);
  ASSERT_TRUE(seekable.has_index());
  ASSERT_GT(seekable.index().size(), 4u);
  EXPECT_EQ(seekable.indexed_records(), original.size());

  // One cursor per block: the concatenation is the original record stream.
  size_t i = 0;
  for (size_t b = 0; b < seekable.index().size(); ++b) {
    auto cursor = seekable.OpenCursor(b, 1);
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().message();
    EXPECT_EQ(cursor->size_hint(),
              static_cast<int64_t>(seekable.index()[b].record_count));
    TraceRecord r;
    size_t in_block = 0;
    while (cursor->Next(&r)) {
      ASSERT_LT(i, original.size());
      ASSERT_EQ(r, original.records()[i]) << "record " << i;
      ++i;
      ++in_block;
    }
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().message();
    EXPECT_EQ(in_block, seekable.index()[b].record_count);
  }
  EXPECT_EQ(i, original.size());

  // A multi-block cursor starting mid-file.
  const size_t first = seekable.index().size() / 2;
  auto cursor = seekable.OpenCursor(first, 2);
  uint64_t skip = 0;
  for (size_t b = 0; b < first; ++b) {
    skip += seekable.index()[b].record_count;
  }
  TraceRecord r;
  uint64_t delivered = 0;
  while (cursor->Next(&r)) {
    ASSERT_EQ(r, original.records()[skip + delivered]);
    ++delivered;
  }
  ASSERT_TRUE(cursor->status().ok());
  EXPECT_EQ(delivered, seekable.index()[first].record_count +
                           seekable.index()[first + 1].record_count);

  // Out-of-range requests clamp to empty.
  auto past = seekable.OpenCursor(seekable.index().size() + 3, 1);
  EXPECT_FALSE(past->Next(&r));
  EXPECT_TRUE(past->status().ok());
}

TEST(SeekableTraceSource, V2FileHasNoIndexButOpens) {
  const Trace original = BigTrace(500);
  const std::string path = TempPath("v3_seekable_v2.trc");
  ASSERT_TRUE(SaveTrace(path, original).ok());
  SeekableTraceSource seekable(path);
  EXPECT_TRUE(seekable.status().ok()) << seekable.status().message();
  EXPECT_EQ(seekable.version(), 2);
  EXPECT_FALSE(seekable.has_index());
}

TEST(SeekableTraceSource, IndexlessV3StillReadsSequentially) {
  const Trace original = BigTrace(500);
  const std::string path = TempPath("v3_noindex.trc");
  TraceWriterOptions options = SmallBlocks();
  options.write_index = false;
  ASSERT_TRUE(SaveTrace(path, original, options).ok());

  SeekableTraceSource seekable(path);
  EXPECT_TRUE(seekable.status().ok()) << seekable.status().message();
  EXPECT_EQ(seekable.version(), 3);
  EXPECT_FALSE(seekable.has_index());

  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), original);
}

TEST(SeekableTraceSource, CorruptFooterIsReported) {
  const Trace original = BigTrace(500);
  const std::string path = TempPath("v3_badfooter.trc");
  ASSERT_TRUE(SaveTrace(path, original, SmallBlocks()).ok());
  std::string bytes = ReadFileBytes(path);
  // Point the tail's footer offset past the end of the file.
  const size_t tail = bytes.size() - kTraceIndexTailSize;
  for (size_t i = 0; i < 8; ++i) {
    bytes[tail + i] = static_cast<char>(0xFF);
  }
  WriteFileBytes(path, bytes);
  SeekableTraceSource seekable(path);
  EXPECT_FALSE(seekable.status().ok());
  EXPECT_FALSE(seekable.has_index());
}

}  // namespace
}  // namespace bsdtrace
