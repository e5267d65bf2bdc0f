#include "src/trace/trace_source.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "src/trace/trace_merge.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// A unique temp-file path per test, removed when it goes out of scope.
class ScopedPath {
 public:
  explicit ScopedPath(const std::string& stem)
      : path_(TempPath("source-test-" + stem + ".trc")) {
    std::remove(path_.c_str());
  }
  ~ScopedPath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// LEB128, as the binary codec writes it.
void AppendVarint(std::string* out, uint64_t v) {
  do {
    uint8_t byte = v & 0x7f;
    v >>= 7;
    if (v != 0) {
      byte |= 0x80;
    }
    out->push_back(static_cast<char>(byte));
  } while (v != 0);
}

// A v2 file with no records whose header declares `declared_count` records.
std::string V2FileWithDeclaredCount(uint64_t declared_count) {
  std::string bytes = "BSDTRC2\n";
  AppendVarint(&bytes, 1);  // machine "m"
  bytes += "m";
  AppendVarint(&bytes, 0);  // empty description
  AppendVarint(&bytes, declared_count + 1);
  bytes.push_back('\0');  // end sentinel
  return bytes;
}

// -- TraceVectorSource / CollectTrace ----------------------------------------

TEST(TraceVectorSource, StreamsHeaderAndRecords) {
  const Trace trace = SampleTrace();
  TraceVectorSource source(trace);
  EXPECT_EQ(source.header(), trace.header());
  EXPECT_EQ(source.size_hint(), static_cast<int64_t>(trace.size()));

  auto collected = CollectTrace(source);
  ASSERT_TRUE(collected.ok()) << collected.status().message();
  EXPECT_EQ(collected.value(), trace);
  // Exhausted: further Next() calls keep returning false, status stays ok.
  TraceRecord r;
  EXPECT_FALSE(source.Next(&r));
  EXPECT_TRUE(source.status().ok());
}

// -- TraceFileSource ----------------------------------------------------------

TEST(TraceFileSource, RoundTripsThroughSaveTrace) {
  const Trace trace = SampleTrace();
  ScopedPath path("roundtrip");
  ASSERT_TRUE(SaveTrace(path.get(), trace).ok());

  TraceFileSource source(path.get());
  ASSERT_TRUE(source.status().ok()) << source.status().message();
  EXPECT_EQ(source.size_hint(), static_cast<int64_t>(trace.size()));
  auto collected = CollectTrace(source);
  ASSERT_TRUE(collected.ok()) << collected.status().message();
  EXPECT_EQ(collected.value(), trace);
}

TEST(TraceFileSource, MissingFileIsCleanError) {
  TraceFileSource source("/nonexistent/bsdtrace-no-such-file.trc");
  EXPECT_FALSE(source.status().ok());
  TraceRecord r;
  EXPECT_FALSE(source.Next(&r));
  EXPECT_FALSE(source.status().ok());
}

TEST(TraceFileSource, BadMagicIsCleanError) {
  ScopedPath path("badmagic");
  WriteFileBytes(path.get(), "definitely not a trace file at all");
  TraceFileSource source(path.get());
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("bad magic"), std::string::npos)
      << source.status().message();
}

TEST(TraceFileSource, TruncatedMidRecordIsDiagnosticError) {
  const Trace trace = SampleTrace();
  ScopedPath path("truncated");
  ASSERT_TRUE(SaveTrace(path.get(), trace).ok());
  const std::string bytes = ReadFileBytes(path.get());
  // Cut inside the last record's body (well past the header, before the
  // sentinel and the record's final fields).
  WriteFileBytes(path.get(), bytes.substr(0, bytes.size() - 4));

  TraceFileSource source(path.get());
  ASSERT_TRUE(source.status().ok());
  TraceRecord r;
  while (source.Next(&r)) {
  }
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("truncated"), std::string::npos)
      << source.status().message();

  // The whole-file loader surfaces the same diagnostic.
  auto loaded = LoadTrace(path.get());
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST(TraceFileSource, MissingEndSentinelIsCleanError) {
  const Trace trace = SampleTrace();
  ScopedPath path("nosentinel");
  ASSERT_TRUE(SaveTrace(path.get(), trace).ok());
  const std::string bytes = ReadFileBytes(path.get());
  WriteFileBytes(path.get(), bytes.substr(0, bytes.size() - 1));

  TraceFileSource source(path.get());
  TraceRecord r;
  while (source.Next(&r)) {
  }
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("end sentinel"), std::string::npos)
      << source.status().message();
}

TEST(TraceFileSource, LyingHeaderCountIsClampedToFileSize) {
  // Header claims ~10^15 records in a file a few dozen bytes long.  The
  // size hint must be bounded by what the file could actually hold, so a
  // consumer can reserve() it without an OOM.
  ScopedPath path("lying");
  WriteFileBytes(path.get(), V2FileWithDeclaredCount(uint64_t{1} << 50));

  TraceFileSource source(path.get());
  ASSERT_TRUE(source.status().ok()) << source.status().message();
  EXPECT_LE(source.size_hint(),
            static_cast<int64_t>(std::filesystem::file_size(path.get())));

  // The stream itself is well-formed (zero records); loading must succeed
  // rather than try to reserve petabytes.
  auto loaded = LoadTrace(path.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value().empty());
}

TEST(ReadBinaryTrace, ShortVarintHeaderIsCleanError) {
  // Magic plus half a varint: length byte promising more data than exists.
  ScopedPath path("short-varint");
  std::string bytes = "BSDTRC2\n";
  bytes.push_back(static_cast<char>(0x85));  // continuation bit set, then EOF
  WriteFileBytes(path.get(), bytes);
  auto loaded = LoadTrace(path.get());
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status().message();
  for (const bool prefer_mmap : {true, false}) {
    TraceFileReader reader(path.get(), prefer_mmap);
    EXPECT_FALSE(reader.status().ok()) << "prefer_mmap=" << prefer_mmap;
    EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
        << reader.status().message();
  }
}

// -- SaveTrace(TraceSource&) --------------------------------------------------

TEST(SaveTrace, SourceOverloadIsByteIdenticalToTraceOverload) {
  const Trace trace = SampleTrace();
  ScopedPath direct("save-direct");
  ScopedPath streamed("save-streamed");
  ASSERT_TRUE(SaveTrace(direct.get(), trace).ok());

  TraceVectorSource source(trace);
  ASSERT_TRUE(SaveTrace(streamed.get(), source).ok());
  EXPECT_EQ(ReadFileBytes(direct.get()), ReadFileBytes(streamed.get()));
}

// -- MergingTraceSource -------------------------------------------------------

std::unique_ptr<TraceSource> VectorSourceOwning(Trace trace) {
  // Test-local adapter: owns the trace it streams.
  struct Owning : TraceSource {
    explicit Owning(Trace t) : trace(std::move(t)), source(trace) {}
    const TraceHeader& header() const override { return source.header(); }
    bool Next(TraceRecord* r) override { return source.Next(r); }
    Status status() const override { return source.status(); }
    int64_t size_hint() const override { return source.size_hint(); }
    Trace trace;
    TraceVectorSource source;
  };
  return std::make_unique<Owning>(std::move(trace));
}

TEST(MergingTraceSource, MergesByTimeWithStableInputTieBreak) {
  TraceBuilder a, b, c;
  a.Unlink(1.0, 10).Unlink(3.0, 11).Unlink(3.0, 12);
  b.Unlink(2.0, 20).Unlink(3.0, 21);
  c.Unlink(0.5, 30).Unlink(3.0, 31).Unlink(9.0, 32);

  std::vector<std::unique_ptr<TraceSource>> inputs;
  inputs.push_back(VectorSourceOwning(a.Build()));
  inputs.push_back(VectorSourceOwning(b.Build()));
  inputs.push_back(VectorSourceOwning(c.Build()));
  MergingTraceSource merge(std::move(inputs), TraceHeader{.machine = "merged", .description = ""});
  EXPECT_EQ(merge.size_hint(), 8);
  EXPECT_EQ(merge.header().machine, "merged");

  auto collected = CollectTrace(merge);
  ASSERT_TRUE(collected.ok()) << collected.status().message();
  std::vector<FileId> order;
  for (const TraceRecord& r : collected.value().records()) {
    order.push_back(r.file_id);
  }
  // Time order, and at t=3.0 the tie breaks input 0, then 1, then 2 — with
  // input 0's own two t=3.0 records kept in their original order.
  EXPECT_EQ(order, (std::vector<FileId>{30, 10, 20, 11, 12, 21, 31, 32}));
}

TEST(MergingTraceSource, HandlesEmptyAndSingleInputs) {
  MergingTraceSource empty({}, TraceHeader{});
  TraceRecord r;
  EXPECT_FALSE(empty.Next(&r));
  EXPECT_TRUE(empty.status().ok());

  TraceBuilder only;
  only.Unlink(1.0, 1).Unlink(2.0, 2);
  std::vector<std::unique_ptr<TraceSource>> one;
  one.push_back(VectorSourceOwning(only.Build()));
  // An exhausted-from-the-start input alongside it must not wedge the tree.
  one.push_back(VectorSourceOwning(Trace{}));
  MergingTraceSource merge(std::move(one), TraceHeader{});
  auto collected = CollectTrace(merge);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value().size(), 2u);
}

TEST(MergingTraceSource, RewriteSeesCorrectInputIndex) {
  TraceBuilder a, b;
  a.Unlink(1.0, 100).Unlink(3.0, 100);
  b.Unlink(2.0, 100);

  std::vector<std::unique_ptr<TraceSource>> inputs;
  inputs.push_back(VectorSourceOwning(a.Build()));
  inputs.push_back(VectorSourceOwning(b.Build()));
  MergingTraceSource merge(std::move(inputs), TraceHeader{},
                           [](size_t input, TraceRecord& r) {
                             r.file_id = 1000 + static_cast<FileId>(input);
                           });
  auto collected = CollectTrace(merge);
  ASSERT_TRUE(collected.ok());
  std::vector<FileId> ids;
  for (const TraceRecord& r : collected.value().records()) {
    ids.push_back(r.file_id);
  }
  EXPECT_EQ(ids, (std::vector<FileId>{1000, 1001, 1000}));
}

TEST(MergingTraceSource, PropagatesTruncatedInputError) {
  // One good spill file, one truncated mid-record: the merge must stop with
  // the truncated input's diagnostic rather than emit a silently short
  // stream.
  TraceBuilder good, bad;
  good.Unlink(1.0, 1).Unlink(5.0, 2);
  bad.Unlink(2.0, 3).Unlink(3.0, 4).Unlink(4.0, 5);

  ScopedPath good_path("merge-good");
  ScopedPath bad_path("merge-bad");
  ASSERT_TRUE(SaveTrace(good_path.get(), good.Build()).ok());
  ASSERT_TRUE(SaveTrace(bad_path.get(), bad.Build()).ok());
  const std::string bytes = ReadFileBytes(bad_path.get());
  WriteFileBytes(bad_path.get(), bytes.substr(0, bytes.size() - 3));

  std::vector<std::unique_ptr<TraceSource>> inputs;
  inputs.push_back(std::make_unique<TraceFileSource>(good_path.get()));
  inputs.push_back(std::make_unique<TraceFileSource>(bad_path.get()));
  MergingTraceSource merge(std::move(inputs), TraceHeader{});

  TraceRecord r;
  while (merge.Next(&r)) {
  }
  EXPECT_FALSE(merge.status().ok());
  EXPECT_NE(merge.status().message().find("truncated"), std::string::npos)
      << merge.status().message();

  auto collected = CollectTrace(merge);
  EXPECT_FALSE(collected.ok());
}

TEST(MergingTraceSource, ManyInputsStressOrder) {
  // 13 inputs (a non-power-of-two loser tree) with interleaved times; the
  // merged stream must be globally sorted and complete.
  std::vector<std::unique_ptr<TraceSource>> inputs;
  size_t total = 0;
  for (int i = 0; i < 13; ++i) {
    TraceBuilder b;
    for (int j = 0; j < 17; ++j) {
      b.Unlink(0.1 * static_cast<double>((j * 13 + i) % 40) + 1.0,
               static_cast<FileId>(100 * i + j));
      ++total;
    }
    Trace t = b.Build();
    std::stable_sort(t.records().begin(), t.records().end(),
                     [](const TraceRecord& x, const TraceRecord& y) {
                       return x.time < y.time;
                     });
    inputs.push_back(VectorSourceOwning(std::move(t)));
  }
  MergingTraceSource merge(std::move(inputs), TraceHeader{});
  auto collected = CollectTrace(merge);
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected.value().size(), total);
  const auto& records = collected.value().records();
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time) << "out of order at " << i;
  }
}

}  // namespace
}  // namespace bsdtrace
