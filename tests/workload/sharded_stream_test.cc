// Tests for the spill-to-disk streaming generation path
// (GenerateTraceShardedTo / GenerateTraceShardedToFile) and its
// byte-identical determinism contract against the in-memory path.

#include "src/workload/sharded_generator.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

namespace fs = std::filesystem;

GeneratorOptions ShortOptions() {
  GeneratorOptions options;
  options.duration = Duration::Minutes(30);
  options.seed = 77777;
  return options;
}

ShardedGeneratorOptions StreamOptions(int shards, int threads) {
  ShardedGeneratorOptions options;
  options.base = ShortOptions();
  options.shard_count = shards;
  options.threads = threads;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

class ScopedPath {
 public:
  explicit ScopedPath(const std::string& stem)
      : path_(TempPath("stream-test-" + stem + ".trc")) {
    std::remove(path_.c_str());
  }
  ~ScopedPath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

// The headline contract: the streamed file is byte-for-byte the file
// SaveTrace writes for the in-memory path's trace (with the same v3 options
// the streamer uses) — for every shard count (including the serial shards=1
// path) and independent of the thread count.
TEST(ShardedStream, FileIsByteIdenticalToInMemoryPath) {
  for (int shards : {1, 2, 7}) {
    const GenerationResult in_memory =
        GenerateTraceSharded(ProfileA5(), StreamOptions(shards, /*threads=*/1));
    ScopedPath reference("ref-" + std::to_string(shards));
    ASSERT_TRUE(SaveTrace(reference.get(), in_memory.trace,
                          TraceWriterOptions{.version = 3})
                    .ok());
    const std::string expected = ReadFileBytes(reference.get());
    ASSERT_FALSE(expected.empty());

    for (int threads : {1, 0}) {  // 0 = hardware concurrency
      ScopedPath streamed("stream-" + std::to_string(shards) + "-" +
                          std::to_string(threads));
      auto stats = GenerateTraceShardedToFile(ProfileA5(), StreamOptions(shards, threads),
                                              streamed.get());
      ASSERT_TRUE(stats.ok()) << stats.status().message();
      EXPECT_EQ(expected, ReadFileBytes(streamed.get()))
          << "streamed bytes differ at shards=" << shards << " threads=" << threads;
      EXPECT_EQ(stats.value().records_streamed, in_memory.trace.size());
    }
  }
}

// The stats the streaming path reports must match what the in-memory path
// computes — it is the same simulation, only the record routing differs.
TEST(ShardedStream, StatsMatchInMemoryPath) {
  const int shards = 4;
  const GenerationResult in_memory =
      GenerateTraceSharded(ProfileA5(), StreamOptions(shards, /*threads=*/2));

  Trace sink;
  auto stats =
      GenerateTraceShardedTo(ProfileA5(), StreamOptions(shards, /*threads=*/2), sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  const ShardedStreamStats& s = stats.value();
  EXPECT_EQ(s.header, in_memory.trace.header());
  EXPECT_EQ(s.records_streamed, in_memory.trace.size());
  EXPECT_EQ(sink.records(), in_memory.trace.records());
  EXPECT_EQ(s.kernel_counters.opens, in_memory.kernel_counters.opens);
  EXPECT_EQ(s.kernel_counters.bytes_read, in_memory.kernel_counters.bytes_read);
  EXPECT_EQ(s.kernel_counters.bytes_written, in_memory.kernel_counters.bytes_written);
  EXPECT_EQ(s.tasks_executed, in_memory.tasks_executed);
  EXPECT_EQ(s.shared_image_watermark, in_memory.shared_image_watermark);
  EXPECT_TRUE(s.fsck.ok()) << s.fsck.Summary();
  // The spill files really were written (and were at least as large as the
  // records they carried — 4 bytes minimum each).
  EXPECT_GT(s.spill_bytes_written, s.records_streamed * 4);
}

// Spill files are transient: whatever happens, the private spill directory
// is gone when generation returns.
TEST(ShardedStream, SpillDirectoryIsCleanedUp) {
  const fs::path spill_root = TempPath("stream-test-spillroot");
  fs::remove_all(spill_root);
  ASSERT_TRUE(fs::create_directories(spill_root));

  ShardedGeneratorOptions options = StreamOptions(/*shards=*/3, /*threads=*/2);
  options.spill_dir = spill_root.string();
  Trace sink;
  auto stats = GenerateTraceShardedTo(ProfileA5(), options, sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  EXPECT_TRUE(fs::is_empty(spill_root))
      << "spill subdirectory leaked under " << spill_root;
  fs::remove_all(spill_root);
}

// Crash consistency: a spill file truncated mid-record (as a crashed or
// out-of-disk writer would leave it) must surface a diagnostic Status from
// the merge, not a silently short trace.  Exercised at the merge layer the
// generator uses, through real files.
TEST(ShardedStream, TruncatedSpillFileSurfacesDiagnosticError) {
  // Generate a small real trace to act as the spill file.
  const GenerationResult result =
      GenerateTraceSharded(ProfileA5(), StreamOptions(/*shards=*/1, /*threads=*/1));
  ScopedPath spill("truncated-spill");
  ASSERT_TRUE(SaveTrace(spill.get(), result.trace).ok());

  // Truncate mid-record.
  const std::string bytes = ReadFileBytes(spill.get());
  ASSERT_GT(bytes.size(), 64u);
  fs::resize_file(spill.get(), bytes.size() - 7);

  TraceFileSource source(spill.get());
  ASSERT_TRUE(source.status().ok());
  TraceRecord r;
  uint64_t streamed = 0;
  while (source.Next(&r)) {
    ++streamed;
  }
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("truncated"), std::string::npos)
      << source.status().message();
  EXPECT_LT(streamed, result.trace.size());
}

// An unusable spill directory is a clean error, not a crash.
TEST(ShardedStream, UnwritableSpillDirIsCleanError) {
  ShardedGeneratorOptions options = StreamOptions(/*shards=*/2, /*threads=*/1);
  // A *file* where the spill root should be: create_directories must fail.
  ScopedPath not_a_dir("not-a-dir");
  { std::ofstream out(not_a_dir.get()); out << "x"; }
  options.spill_dir = not_a_dir.get();

  Trace sink;
  auto stats = GenerateTraceShardedTo(ProfileA5(), options, sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("spill"), std::string::npos)
      << stats.status().message();
  EXPECT_TRUE(sink.empty());
}

// The streamed record sequence feeds any TraceSink; an analyzer-style sink
// that only counts must see exactly records_streamed appends.
TEST(ShardedStream, SinkSeesEveryRecordInTimeOrder) {
  class CountingSink : public TraceSink {
   public:
    void Append(const TraceRecord& r) override {
      ++count_;
      ordered_ = ordered_ && !(r.time < last_);
      last_ = r.time;
    }
    uint64_t count() const { return count_; }
    bool ordered() const { return ordered_; }

   private:
    uint64_t count_ = 0;
    SimTime last_ = SimTime::Origin();
    bool ordered_ = true;
  };

  CountingSink sink;
  auto stats =
      GenerateTraceShardedTo(ProfileA5(), StreamOptions(/*shards=*/5, /*threads=*/2), sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(sink.count(), stats.value().records_streamed);
  EXPECT_TRUE(sink.ordered());
  EXPECT_GT(sink.count(), 0u);
}

}  // namespace
}  // namespace bsdtrace
