#include "src/trace/trace_io.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/import/text_import.h"
#include "src/trace/trace_source.h"
#include "src/util/rng.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

Trace SampleTrace() {
  TraceBuilder b;
  b.Open(0.01, 1, 100, 4096, AccessMode::kReadOnly, 5)
      .Seek(0.02, 1, 100, 1024, 2048)
      .Close(0.03, 1, 100, 4096, 4096)
      .Create(0.04, 2, 101, AccessMode::kWriteOnly, 5)
      .Close(0.05, 2, 101, 512, 512)
      .Unlink(0.06, 101, 5)
      .Truncate(0.07, 100, 128, 5)
      .Execve(0.08, 102, 8192, 5);
  Trace t = b.Build();
  t.header().machine = "testbox";
  t.header().description = "sample";
  return t;
}

// Random record stream with the field mix of a real workload: mostly small
// ids, sizes and time deltas (1-3 byte varints), and 1 record in 16 carrying
// 48-bit sizes and positions that stress the multi-byte varint paths.
// Records go through the per-type factories so they carry exactly the fields
// the codec encodes.
Trace MixedTrace(uint64_t seed, size_t n) {
  Rng rng(seed);
  Trace t(TraceHeader{.machine = "mixed", .description = "seed " + std::to_string(seed)});
  SimTime now = SimTime::Origin();
  for (size_t i = 0; i < n; ++i) {
    now += Duration::Micros(rng.UniformInt(0, 4000));
    const auto oid = static_cast<OpenId>(rng.UniformInt(1, 1 << 20));
    const auto file = static_cast<FileId>(rng.UniformInt(1, 1 << 16));
    const auto user = static_cast<UserId>(rng.UniformInt(0, 90));
    const auto mode = static_cast<AccessMode>(rng.UniformInt(0, 2));
    const bool large = rng.UniformInt(0, 15) == 0;
    const uint64_t size =
        large ? rng.NextU64() >> 16 : static_cast<uint64_t>(rng.UniformInt(0, 100000));
    const uint64_t position = large ? size / 2 : static_cast<uint64_t>(rng.UniformInt(0, 65536));
    switch (rng.UniformInt(1, 7)) {
      case 1:
        t.Append(MakeOpen(now, oid, file, user, mode, size, position));
        break;
      case 2:
        t.Append(MakeCreate(now, oid, file, user, mode));
        break;
      case 3:
        t.Append(MakeClose(now, oid, file, position, size));
        break;
      case 4:
        t.Append(MakeSeek(now, oid, file, position, size));
        break;
      case 5:
        t.Append(MakeUnlink(now, file, user));
        break;
      case 6:
        t.Append(MakeTruncate(now, file, user, size));
        break;
      default:
        t.Append(MakeExecve(now, file, user, size));
        break;
    }
  }
  return t;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SaveBytes(const Trace& trace, const TraceWriterOptions& options = {}) {
  const std::string path = TempPath("trace_io_save.trc");
  EXPECT_TRUE(SaveTrace(path, trace, options).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// Drains a TraceFileReader into a Trace; the reader's status on failure.
StatusOr<Trace> ReadWithReader(const std::string& path, bool prefer_mmap) {
  TraceFileReader reader(path, prefer_mmap);
  if (!reader.status().ok()) {
    return reader.status();
  }
  Trace trace(reader.header());
  TraceRecord r;
  while (reader.Next(&r)) {
    trace.Append(r);
  }
  if (!reader.status().ok()) {
    return reader.status();
  }
  return trace;
}

// Decodes `bytes` through every file read path: LoadTrace, and
// TraceFileReader over the mmap window and over the buffered fallback.
std::vector<StatusOr<Trace>> ReadEveryPath(const std::string& bytes) {
  const std::string path = TempPath("trace_io_drill.trc");
  WriteFileBytes(path, bytes);
  std::vector<StatusOr<Trace>> results;
  results.push_back(LoadTrace(path));
  results.push_back(ReadWithReader(path, /*prefer_mmap=*/true));
  results.push_back(ReadWithReader(path, /*prefer_mmap=*/false));
  std::remove(path.c_str());
  return results;
}

constexpr const char* kPathNames[] = {"LoadTrace", "reader(mmap)", "reader(buffered)"};

// Expects every read path to fail with a message containing `needle`.
void ExpectEveryPathFails(const std::string& bytes, const std::string& needle,
                          const std::string& context = "") {
  const std::vector<StatusOr<Trace>> results = ReadEveryPath(bytes);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].ok()) << kPathNames[i] << " " << context;
    EXPECT_NE(results[i].status().message().find(needle), std::string::npos)
        << kPathNames[i] << " " << context << ": " << results[i].status().message();
  }
}

// bsdtxt read back through the streaming text reader.
StatusOr<Trace> ReadText(const std::string& text) {
  std::istringstream in(text);
  TextTraceSource source(in);
  return CollectTrace(source);
}

// -- Golden bytes ----------------------------------------------------------------
//
// The v2 and v3 encodings of a fixed trace, pinned byte for byte: all seven
// event types, a 48-bit size, and a multi-byte (5 s) time delta.  Any drift
// in the header, varint, zigzag, block, CRC or footer layout fails here.

Trace GoldenTrace() {
  Trace t(TraceHeader{.machine = "gold", .description = "layout"});
  const uint64_t big = 0xA5A5'0000'1234;
  t.Append(MakeOpen(SimTime::FromMicros(5), 7, 42, 3, AccessMode::kReadWrite, big, 100));
  t.Append(MakeSeek(SimTime::FromMicros(300), 7, 42, 100, 5000));
  t.Append(MakeClose(SimTime::FromMicros(5'000'300), 7, 42, 5000, big));
  t.Append(MakeCreate(SimTime::FromMicros(5'000'301), 8, 43, 4, AccessMode::kWriteOnly));
  t.Append(MakeTruncate(SimTime::FromMicros(5'000'302), 43, 4, 0));
  t.Append(MakeUnlink(SimTime::FromMicros(5'000'303), 43, 4));
  t.Append(MakeExecve(SimTime::FromMicros(5'000'400), 44, 2, 8192));
  return t;
}

constexpr const char* kGoldenV2Hex =
    "425344545243320a04676f6c64066c61796f757408010a072a0302b4a48080d0b4296404ce04072a6488"
    "270380ade204072a8827b4a48080d0b4290202082b0401000006022b040005022b0407c2012c02804000";

constexpr const char* kGoldenV3Hex =
    "425344545243330a04676f6c64066c61796f75740801073e65309aca010a072a0302b4a48080d0b42964"
    "04ce04072a6488270380ade204072a8827b4a48080d0b4290202082b0401000006022b040005022b0407"
    "c2012c02804000011507055b00000000000000425344494458330a";

std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

TEST(TraceGoldenBytes, V2LayoutIsPinned) {
  EXPECT_EQ(ToHex(SaveBytes(GoldenTrace(), {.version = 2})), kGoldenV2Hex);
}

TEST(TraceGoldenBytes, V3LayoutIsPinned) {
  EXPECT_EQ(ToHex(SaveBytes(GoldenTrace(), {.version = 3})), kGoldenV3Hex);
}

// -- Binary round trips -------------------------------------------------------

TEST(BinaryTraceIo, RoundTripSample) {
  const Trace original = SampleTrace();
  for (const StatusOr<Trace>& loaded : ReadEveryPath(SaveBytes(original))) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value(), original);
  }
}

TEST(BinaryTraceIo, EmptyTraceRoundTrips) {
  Trace empty(TraceHeader{.machine = "m", .description = ""});
  for (const StatusOr<Trace>& loaded : ReadEveryPath(SaveBytes(empty))) {
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 0u);
    EXPECT_EQ(loaded.value().header().machine, "m");
  }
}

TEST(BinaryTraceIo, StreamingWriterCountsRecords) {
  const std::string path = TempPath("trace_io_count.trc");
  TraceFileWriter writer(path, TraceHeader{});
  writer.Append(MakeUnlink(SimTime::FromSeconds(1), 1, 1));
  writer.Append(MakeUnlink(SimTime::FromSeconds(2), 2, 1));
  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_TRUE(writer.Finish().ok());
  std::remove(path.c_str());
}

TEST(BinaryTraceIo, StreamingReaderDeliversInOrder) {
  const Trace original = SampleTrace();
  const std::string path = TempPath("trace_io_order.trc");
  ASSERT_TRUE(SaveTrace(path, original).ok());
  for (const bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.header().machine, "testbox");
    TraceRecord r;
    size_t i = 0;
    while (reader.Next(&r)) {
      ASSERT_LT(i, original.size());
      EXPECT_EQ(r, original.records()[i]);
      ++i;
    }
    EXPECT_TRUE(reader.status().ok()) << reader.status().message();
    EXPECT_EQ(i, original.size());
  }
  std::remove(path.c_str());
}

TEST(BinaryTraceIo, HeaderDeclaresRecordCount) {
  const Trace original = SampleTrace();
  const std::string path = TempPath("trace_io_declared.trc");
  ASSERT_TRUE(SaveTrace(path, original).ok());
  TraceFileReader reader(path);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.declared_record_count(), static_cast<int64_t>(original.size()));
  std::remove(path.c_str());
}

TEST(BinaryTraceIo, StreamingWriterDeclaresUnknownCount) {
  const std::string path = TempPath("trace_io_unknown.trc");
  {
    TraceFileWriter writer(path, TraceHeader{});  // count not known up front
    writer.Append(MakeUnlink(SimTime::FromSeconds(1), 1, 1));
    ASSERT_TRUE(writer.Finish().ok());
  }
  for (const bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.declared_record_count(), -1);
    TraceRecord r;
    EXPECT_TRUE(reader.Next(&r));
    EXPECT_FALSE(reader.Next(&r));
    EXPECT_TRUE(reader.status().ok());
  }
  std::remove(path.c_str());
}

// -- Decoder drills: every one runs through all three file read paths ---------

TEST(BinaryTraceIo, ReadsVersion1FilesWithoutCount) {
  // Hand-encoded v1 stream: old magic, machine "m", empty description, end
  // sentinel — no record-count varint.
  const std::string v1 = std::string("BSDTRC1\n") + '\x01' + 'm' + '\x00' + '\x00';
  for (const StatusOr<Trace>& loaded : ReadEveryPath(v1)) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().header().machine, "m");
    EXPECT_EQ(loaded.value().size(), 0u);
  }
  const std::string path = TempPath("trace_io_v1.trc");
  WriteFileBytes(path, v1);
  for (const bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path, prefer_mmap);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.version(), 1);
    EXPECT_EQ(reader.declared_record_count(), -1);
  }
  std::remove(path.c_str());
}

TEST(BinaryTraceIo, RejectsBadMagic) {
  ExpectEveryPathFails("not a trace at all", "magic");
}

TEST(BinaryTraceIo, RejectsTruncatedHeader) {
  const std::string bytes = SaveBytes(SampleTrace());
  ExpectEveryPathFails(bytes.substr(0, 9), "truncated");  // magic + 1 byte
}

TEST(BinaryTraceIo, RejectsTruncatedBody) {
  // Every cut from just past the header to just before the end sentinel.
  const std::string bytes = SaveBytes(SampleTrace());
  const size_t header_size = 8 + 1 + 7 + 1 + 6 + 1;
  for (size_t cut = header_size; cut < bytes.size(); ++cut) {
    ExpectEveryPathFails(bytes.substr(0, cut), "", "cut at " + std::to_string(cut));
  }
}

TEST(BinaryTraceIo, RejectsCorruptEventType) {
  std::string bytes = SaveBytes(SampleTrace());
  // The first record's type byte follows the header; smash it.
  // magic + len+machine + len+desc + record count varint
  const size_t header_size = 8 + 1 + 7 + 1 + 6 + 1;
  bytes[header_size] = static_cast<char>(0x7E);
  ExpectEveryPathFails(bytes, "unknown event type");
}

TEST(BinaryTraceIo, LyingHeaderCountIsClamped) {
  // A header declaring ~10^15 records over a zero-record body: every path
  // must read the well-formed (empty) stream rather than trust the count.
  std::string bytes = "BSDTRC2\n";
  bytes += '\x01';
  bytes += 'm';
  bytes += '\x00';
  const uint64_t declared_plus_one = (uint64_t{1} << 50) + 1;
  for (uint64_t v = declared_plus_one; ; v >>= 7) {
    if (v < 0x80) {
      bytes += static_cast<char>(v);
      break;
    }
    bytes += static_cast<char>((v & 0x7F) | 0x80);
  }
  bytes += '\x00';
  for (const StatusOr<Trace>& loaded : ReadEveryPath(bytes)) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_TRUE(loaded.value().empty());
  }
}

// -- bsdtxt export, read back through TextTraceSource --------------------------

TEST(TextTraceIo, RoundTripSample) {
  const Trace original = SampleTrace();
  std::ostringstream buf;
  TraceVectorSource source(original);
  ASSERT_TRUE(WriteTextTrace(buf, source).ok());
  auto loaded = ReadText(buf.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().header().machine, "testbox");
  ASSERT_EQ(loaded.value().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Text timestamps are microsecond-precision; compare fieldwise.
    EXPECT_EQ(loaded.value().records()[i], original.records()[i]) << "record " << i;
  }
}

TEST(TextTraceIo, RejectsGarbageLine) {
  auto loaded = ReadText("0.5\tfrobnicate\tx=1\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST(TextTraceIo, RejectsBadTimestamp) {
  EXPECT_FALSE(ReadText("abc\topen\toid=1\tfile=2\tuser=3\tmode=r\tsize=0\tpos=0\n").ok());
}

TEST(TextTraceIo, RejectsMissingFields) {
  EXPECT_FALSE(ReadText("1.0\tclose\toid=1\n").ok());
}

TEST(TextTraceIo, SkipsBlankLinesAndComments) {
  auto loaded = ReadText("# machine foo\n\n# description a b c\n1.0\tunlink\tfile=5\tuser=2\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header().machine, "foo");
  EXPECT_EQ(loaded.value().header().description, "a b c");
  EXPECT_EQ(loaded.value().size(), 1u);
}

TEST(TraceFileIo, SaveAndLoad) {
  const std::string path = TempPath("trace_io_save_load.trc");
  const Trace original = SampleTrace();
  ASSERT_TRUE(SaveTrace(path, original).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), original);
  std::remove(path.c_str());
}

TEST(TraceFileIo, LoadMissingFileFails) {
  auto loaded = LoadTrace("/nonexistent/dir/nothing.trace");
  EXPECT_FALSE(loaded.ok());
}

TEST(TraceFileIo, SaveToBadPathFails) {
  EXPECT_FALSE(SaveTrace("/nonexistent/dir/out.trace", SampleTrace()).ok());
}

bool PathExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

// Writers publish atomically: the bytes sit in "<path>.tmp-<pid>" until
// Finish() renames them onto the path.
TEST(TraceFileIo, WriterPublishesOnlyOnFinish) {
  const std::string path = TempPath("trace_io_atomic.trc");
  const std::string temp = path + ".tmp-" + std::to_string(::getpid());
  const Trace trace = MixedTrace(3, 20'000);
  TraceFileWriter writer(path, trace.header(), -1, {.version = 4});
  for (const TraceRecord& r : trace.records()) {
    writer.Append(r);
  }
  EXPECT_FALSE(PathExists(path));
  EXPECT_TRUE(PathExists(temp));
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(PathExists(path));
  EXPECT_FALSE(PathExists(temp));
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value(), trace);
  std::remove(path.c_str());
}

TEST(TraceFileIo, AbandonedWriteLeavesNoFile) {
  const std::string path = TempPath("trace_io_abandoned.trc");
  const Trace trace = SampleTrace();
  TraceFileWriter writer(path, trace.header());
  for (const TraceRecord& r : trace.records()) {
    writer.Append(r);
  }
  writer.Abandon();
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_FALSE(PathExists(path));
  EXPECT_FALSE(PathExists(path + ".tmp-" + std::to_string(::getpid())));
}

// A process killed mid-write leaves nothing at the final path: the child
// writes half a trace (enough to flush blocks to disk) and exits without
// finishing.
TEST(TraceFileIo, KilledWriterLeavesNoTraceAtThePath) {
  const std::string path = TempPath("trace_io_killed.trc");
  const Trace trace = MixedTrace(4, 40'000);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    TraceFileWriter writer(path, trace.header(), static_cast<int64_t>(trace.size()));
    for (size_t i = 0; i < trace.size() / 2; ++i) {
      writer.Append(trace.records()[i]);
    }
    ::_exit(writer.bytes_written() > BufferedWriter::kBlockSize ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "the child flushed nothing before exiting";
  EXPECT_FALSE(PathExists(path));
  const std::string temp = path + ".tmp-" + std::to_string(child);
  EXPECT_TRUE(PathExists(temp));
  std::remove(temp.c_str());
}

// Property: the binary round trip is the identity for arbitrary record
// streams, in every written format version and through every read path.
// Small blocks make the v3/v4 files span many checksummed blocks.
class BinaryRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryRoundTripProperty, Identity) {
  const Trace original = MixedTrace(GetParam(), 2000);
  for (const int version : {2, 3, 4}) {
    const std::string bytes =
        SaveBytes(original, {.version = version, .block_target_bytes = 2048});
    for (const StatusOr<Trace>& loaded : ReadEveryPath(bytes)) {
      ASSERT_TRUE(loaded.ok()) << "v" << version << ": " << loaded.status().message();
      EXPECT_EQ(loaded.value(), original) << "v" << version;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property: the binary encoding is compact (well under the naive struct size;
// the paper cared about trace volume).
TEST(BinaryTraceIo, EncodingIsCompact) {
  const Trace t = MixedTrace(99, 2000);
  EXPECT_LT(SaveBytes(t).size(), t.size() * sizeof(TraceRecord) / 2);
}

}  // namespace
}  // namespace bsdtrace
