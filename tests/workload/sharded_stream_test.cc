// Tests for the spill-to-disk streaming fleet engine (GenerateFleetTo /
// GenerateFleetToFile) and its byte-identical determinism contract against
// the in-memory reference twin (internal::GenerateFleetInMemory).

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
#include "src/workload/fleet.h"
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

FleetGeneratorOptions StreamOptions(int shards, int threads) {
  FleetGeneratorOptions options;
  options.base = ShortOptions();
  options.shards_per_machine = shards;
  options.threads = threads;
  return options;
}

FleetProfile Fleet(const std::string& spec, int users = 0) {
  auto fleet = ParseFleetSpec(spec, users);
  EXPECT_TRUE(fleet.ok()) << fleet.status().message();
  return std::move(fleet).value();
}

FleetGenerationResult InMemory(const FleetProfile& fleet, const FleetGeneratorOptions& options) {
  auto result = internal::GenerateFleetInMemory(fleet, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return std::move(result).value();
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

// The bytes SaveTrace writes for the in-memory twin's trace with the options
// the streaming engine writes its file with.
std::string TwinFileBytes(const FleetGenerationResult& twin, const FleetGeneratorOptions& options,
                          const std::string& stem) {
  ScopedPath reference("ref-" + stem);
  EXPECT_TRUE(SaveTrace(reference.get(), twin.trace, options.file_options).ok());
  return ReadFileBytes(reference.get());
}

// Streams `fleet` to a file and expects it byte-for-byte equal to `expected`.
void ExpectStreamedFile(const FleetProfile& fleet, const FleetGeneratorOptions& options,
                        const std::string& expected, uint64_t records, const std::string& stem) {
  ScopedPath streamed("stream-" + stem);
  auto stats = GenerateFleetToFile(fleet, options, streamed.get());
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(expected, ReadFileBytes(streamed.get())) << "streamed bytes differ at " << stem;
  EXPECT_EQ(stats.value().records_streamed, records);
}

// The headline contract: the streamed file is byte-for-byte the file
// SaveTrace writes for the in-memory twin's trace (with the same v3 options
// the streamer uses) — for every shard count (including one shard) and
// independent of the thread count; and likewise where the fleet remap is
// more than the shard interleave: a multi-machine fleet (cross-instance id
// interleave, per-instance user-id bases), in one wave and split into waves.
TEST(ShardedStream, FileIsByteIdenticalToInMemoryPath) {
  const FleetProfile a5 = Fleet("A5");
  for (int shards : {1, 2, 7}) {
    const FleetGenerationResult twin = InMemory(a5, StreamOptions(shards, /*threads=*/1));
    const std::string expected =
        TwinFileBytes(twin, StreamOptions(shards, 1), std::to_string(shards));
    ASSERT_FALSE(expected.empty());

    for (int threads : {1, 0}) {  // 0 = hardware concurrency
      ExpectStreamedFile(a5, StreamOptions(shards, threads), expected, twin.trace.size(),
                         std::to_string(shards) + "-" + std::to_string(threads));
    }
  }

  const FleetProfile fleet = Fleet("2xA5+C4", /*users=*/30);
  FleetGeneratorOptions options = StreamOptions(/*shards=*/2, /*threads=*/2);
  const FleetGenerationResult twin = InMemory(fleet, options);
  const std::string expected = TwinFileBytes(twin, options, "fleet");
  ASSERT_FALSE(twin.trace.empty());
  ExpectStreamedFile(fleet, options, expected, twin.trace.size(), "fleet");

  // 30 users per instance, bound 60: waves {A5, A5} and {C4}.
  options.wave_users = 60;
  ScopedPath waved("stream-fleet-waved");
  auto stats = GenerateFleetToFile(fleet, options, waved.get());
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().waves, 2u);
  EXPECT_EQ(expected, ReadFileBytes(waved.get())) << "waved bytes differ from the twin";
  // Stats folded across waves are the twin's.
  EXPECT_EQ(stats.value().records_streamed, twin.stats.records_streamed);
  EXPECT_EQ(stats.value().tasks_executed, twin.stats.tasks_executed);
  EXPECT_EQ(stats.value().kernel_counters.bytes_read, twin.stats.kernel_counters.bytes_read);
  EXPECT_EQ(stats.value().fs_stats.files, twin.stats.fs_stats.files);
  EXPECT_EQ(stats.value().shared_image_watermark, 0u);
  EXPECT_EQ(twin.stats.shared_image_watermark, 0u);
}

// The standard six-hour A5 settings used across the docs (seed 19851201,
// 8 shards): the streamed v3 file equals the twin's.
TEST(ShardedStream, SixHourFileIsByteIdenticalToInMemoryPath) {
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(6);
  options.base.seed = 19851201;
  options.shards_per_machine = 8;
  options.threads = 0;
  const FleetProfile a5 = Fleet("A5");
  const FleetGenerationResult twin = InMemory(a5, options);
  const std::string expected = TwinFileBytes(twin, options, "six-hour");
  ASSERT_FALSE(expected.empty());
  ExpectStreamedFile(a5, options, expected, twin.trace.size(), "six-hour");
}

// The stats the streaming path reports must match what the in-memory twin
// computes — it is the same simulation, only the record routing differs.
TEST(ShardedStream, StatsMatchInMemoryPath) {
  const int shards = 4;
  const FleetProfile a5 = Fleet("A5");
  const FleetGenerationResult in_memory = InMemory(a5, StreamOptions(shards, /*threads=*/2));

  Trace sink;
  auto stats = GenerateFleetTo(a5, StreamOptions(shards, /*threads=*/2), sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  const ShardedStreamStats& s = stats.value();
  EXPECT_EQ(s.header, in_memory.trace.header());
  EXPECT_EQ(s.header, in_memory.stats.header);
  EXPECT_EQ(s.records_streamed, in_memory.trace.size());
  EXPECT_EQ(sink.records(), in_memory.trace.records());
  EXPECT_EQ(s.kernel_counters.opens, in_memory.stats.kernel_counters.opens);
  EXPECT_EQ(s.kernel_counters.bytes_read, in_memory.stats.kernel_counters.bytes_read);
  EXPECT_EQ(s.kernel_counters.bytes_written, in_memory.stats.kernel_counters.bytes_written);
  EXPECT_EQ(s.tasks_executed, in_memory.stats.tasks_executed);
  EXPECT_EQ(s.shared_image_watermark, in_memory.stats.shared_image_watermark);
  EXPECT_GT(s.shared_image_watermark, 0u);
  EXPECT_EQ(s.fs_stats.files, in_memory.stats.fs_stats.files);
  EXPECT_EQ(s.fs_stats.internal_fragmentation, in_memory.stats.fs_stats.internal_fragmentation);
  EXPECT_TRUE(s.fsck.ok()) << s.fsck.Summary();
  // The spill files really were written (and were at least as large as the
  // records they carried — 4 bytes minimum each).
  EXPECT_GT(s.spill_bytes_written, s.records_streamed * 4);
  EXPECT_EQ(in_memory.stats.spill_bytes_written, 0u);
}

// Spill files are transient: whatever happens, the private spill directory
// is gone when generation returns — in one wave and across waves.
TEST(ShardedStream, SpillDirectoryIsCleanedUp) {
  const fs::path spill_root = TempPath("stream-test-spillroot");
  fs::remove_all(spill_root);
  ASSERT_TRUE(fs::create_directories(spill_root));

  FleetGeneratorOptions options = StreamOptions(/*shards=*/3, /*threads=*/2);
  options.spill_dir = spill_root.string();
  Trace sink;
  auto stats = GenerateFleetTo(Fleet("A5"), options, sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_TRUE(fs::is_empty(spill_root))
      << "spill subdirectory leaked under " << spill_root;

  options.wave_users = 1;  // every instance its own wave
  Trace waved;
  stats = GenerateFleetTo(Fleet("A5+E3", /*users=*/20), options, waved);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().waves, 2u);
  EXPECT_TRUE(fs::is_empty(spill_root))
      << "wave subdirectory leaked under " << spill_root;
  fs::remove_all(spill_root);
}

// Crash consistency: a spill file truncated mid-record (as a crashed or
// out-of-disk writer would leave it) must surface a diagnostic Status from
// the merge, not a silently short trace.  Exercised at the merge layer the
// generator uses, through real files.
TEST(ShardedStream, TruncatedSpillFileSurfacesDiagnosticError) {
  // Generate a small real trace to act as the spill file.
  const GenerationResult result = GenerateTrace(ProfileA5(), ShortOptions());
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
  FleetGeneratorOptions options = StreamOptions(/*shards=*/2, /*threads=*/1);
  // A *file* where the spill root should be: create_directories must fail.
  ScopedPath not_a_dir("not-a-dir");
  { std::ofstream out(not_a_dir.get()); out << "x"; }
  options.spill_dir = not_a_dir.get();

  Trace sink;
  auto stats = GenerateFleetTo(Fleet("A5"), options, sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("spill"), std::string::npos)
      << stats.status().message();
  EXPECT_TRUE(sink.empty());

  ScopedPath out("unwritable-spill-out");
  stats = GenerateFleetToFile(Fleet("A5"), options, out.get());
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("spill"), std::string::npos)
      << stats.status().message();
  EXPECT_FALSE(fs::exists(out.get()));
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
  auto stats = GenerateFleetTo(Fleet("A5"), StreamOptions(/*shards=*/5, /*threads=*/2), sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(sink.count(), stats.value().records_streamed);
  EXPECT_TRUE(sink.ordered());
  EXPECT_GT(sink.count(), 0u);
}

}  // namespace
}  // namespace bsdtrace
