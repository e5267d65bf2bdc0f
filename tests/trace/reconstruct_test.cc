#include "src/trace/reconstruct.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

// Collects everything the reconstructor emits.
struct CollectSink : ReconstructionSink {
  std::vector<Transfer> transfers;
  std::vector<AccessSummary> accesses;
  std::vector<TraceRecord> records;

  void OnTransfer(const Transfer& t) override { transfers.push_back(t); }
  void OnAccess(const AccessSummary& a) override { accesses.push_back(a); }
  void OnRecord(const TraceRecord& r, RecordOwner) override { records.push_back(r); }
};

CollectSink RunTrace(const Trace& trace) {
  CollectSink sink;
  Reconstruct(trace, &sink);
  return sink;
}

TEST(Reconstruct, WholeFileReadProducesOneRun) {
  const auto sink = RunTrace(TraceBuilder().WholeRead(1, 2, 1, 10, 4096).Build());
  ASSERT_EQ(sink.transfers.size(), 1u);
  const Transfer& t = sink.transfers[0];
  EXPECT_EQ(t.offset, 0u);
  EXPECT_EQ(t.length, 4096u);
  EXPECT_EQ(t.direction, TransferDirection::kRead);
  EXPECT_EQ(t.time.seconds(), 2.0);  // billed at the close (§3.1)
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].whole_file);
  EXPECT_TRUE(sink.accesses[0].sequential);
  EXPECT_EQ(sink.accesses[0].bytes_transferred, 4096u);
}

TEST(Reconstruct, WholeFileWriteViaCreate) {
  const auto sink = RunTrace(TraceBuilder().WholeWrite(1, 2, 1, 10, 512).Build());
  ASSERT_EQ(sink.transfers.size(), 1u);
  EXPECT_EQ(sink.transfers[0].direction, TransferDirection::kWrite);
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].whole_file);
  EXPECT_TRUE(sink.accesses[0].created);
}

TEST(Reconstruct, SeekSplitsRunsAndBillsAtSeek) {
  // Read 0..1024, seek to 8192, read to 9216, close.
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 16384)
                            .Seek(2, 1, 10, 1024, 8192)
                            .Close(3, 1, 10, 9216, 16384)
                            .Build());
  ASSERT_EQ(sink.transfers.size(), 2u);
  EXPECT_EQ(sink.transfers[0].offset, 0u);
  EXPECT_EQ(sink.transfers[0].length, 1024u);
  EXPECT_EQ(sink.transfers[0].time.seconds(), 2.0);  // billed at the seek
  EXPECT_EQ(sink.transfers[1].offset, 8192u);
  EXPECT_EQ(sink.transfers[1].length, 1024u);
  EXPECT_EQ(sink.transfers[1].time.seconds(), 3.0);  // billed at the close
  const AccessSummary& a = sink.accesses.at(0);
  EXPECT_FALSE(a.whole_file);
  EXPECT_FALSE(a.sequential);  // bytes moved before the reposition
  EXPECT_EQ(a.run_count, 2u);
  EXPECT_EQ(a.seek_count, 1u);
}

TEST(Reconstruct, InitialRepositionIsSequential) {
  // The paper's mailbox append: open, seek to end before any transfer, write.
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 1000, AccessMode::kWriteOnly)
                            .Seek(2, 1, 10, 0, 1000)
                            .Close(3, 1, 10, 1200, 1200)
                            .Build());
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].sequential);
  EXPECT_FALSE(sink.accesses[0].whole_file);
  ASSERT_EQ(sink.transfers.size(), 1u);
  EXPECT_EQ(sink.transfers[0].offset, 1000u);
  EXPECT_EQ(sink.transfers[0].length, 200u);
}

TEST(Reconstruct, AppendViaInitialPositionIsSequentialNotWhole) {
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 1000, AccessMode::kWriteOnly, 1, 1000)
                            .Close(2, 1, 10, 1500, 1500)
                            .Build());
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].sequential);
  EXPECT_FALSE(sink.accesses[0].whole_file);
  EXPECT_EQ(sink.accesses[0].bytes_transferred, 500u);
}

TEST(Reconstruct, PartialReadFromZeroIsSequentialNotWhole) {
  const auto sink =
      RunTrace(TraceBuilder().Open(1, 1, 10, 4096).Close(2, 1, 10, 1024, 4096).Build());
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].sequential);
  EXPECT_FALSE(sink.accesses[0].whole_file);
}

TEST(Reconstruct, ZeroByteAccess) {
  const auto sink =
      RunTrace(TraceBuilder().Open(1, 1, 10, 4096).Close(2, 1, 10, 0, 4096).Build());
  EXPECT_TRUE(sink.transfers.empty());
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_EQ(sink.accesses[0].bytes_transferred, 0u);
  EXPECT_FALSE(sink.accesses[0].whole_file);
  EXPECT_TRUE(sink.accesses[0].sequential);
}

TEST(Reconstruct, EmptyFileWholeRead) {
  const auto sink =
      RunTrace(TraceBuilder().Open(1, 1, 10, 0).Close(2, 1, 10, 0, 0).Build());
  ASSERT_EQ(sink.accesses.size(), 1u);
  EXPECT_TRUE(sink.accesses[0].whole_file);  // trivially whole
}

TEST(Reconstruct, MultiSeekNonSequential) {
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 100000, AccessMode::kReadWrite)
                            .Seek(2, 1, 10, 0, 5000)
                            .Seek(3, 1, 10, 6000, 20000)
                            .Close(4, 1, 10, 21000, 100000)
                            .Build());
  const AccessSummary& a = sink.accesses.at(0);
  EXPECT_FALSE(a.sequential);
  EXPECT_EQ(a.seek_count, 2u);
  EXPECT_EQ(a.run_count, 2u);
  EXPECT_EQ(a.bytes_transferred, 2000u);
}

TEST(Reconstruct, ReadWriteDirectionHeuristic) {
  // A read-write open: runs beyond the size-at-open are writes.
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 1000, AccessMode::kReadWrite)
                            .Seek(2, 1, 10, 500, 1000)
                            .Close(3, 1, 10, 1400, 1400)
                            .Build());
  ASSERT_EQ(sink.transfers.size(), 2u);
  EXPECT_EQ(sink.transfers[0].direction, TransferDirection::kRead);   // 0..500
  EXPECT_EQ(sink.transfers[1].direction, TransferDirection::kWrite);  // 1000..1400
}

TEST(Reconstruct, ConcurrentOpensOfSameFileIndependent) {
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 4096)
                            .Open(1.5, 2, 10, 4096)
                            .Close(2, 1, 10, 4096, 4096)
                            .Close(3, 2, 10, 1024, 4096)
                            .Build());
  ASSERT_EQ(sink.accesses.size(), 2u);
  EXPECT_TRUE(sink.accesses[0].whole_file);
  EXPECT_FALSE(sink.accesses[1].whole_file);
}

TEST(Reconstruct, OpenDurationReported) {
  const auto sink = RunTrace(TraceBuilder().WholeRead(1, 4.5, 1, 10, 100).Build());
  EXPECT_DOUBLE_EQ(sink.accesses.at(0).open_duration().seconds(), 3.5);
}

TEST(Reconstruct, DanglingOpensDropped) {
  CollectSink sink;
  AccessReconstructor r(&sink);
  r.Process(MakeOpen(SimTime::FromSeconds(1), 1, 10, 1, AccessMode::kReadOnly, 100, 0));
  r.Finish();
  EXPECT_EQ(r.dangling_opens(), 1u);
  EXPECT_TRUE(sink.accesses.empty());
  EXPECT_TRUE(sink.transfers.empty());
}

TEST(Reconstruct, OrphanEventsCounted) {
  CollectSink sink;
  AccessReconstructor r(&sink);
  r.Process(MakeClose(SimTime::FromSeconds(1), 99, 10, 0, 0));
  r.Process(MakeSeek(SimTime::FromSeconds(2), 98, 10, 0, 5));
  r.Finish();
  EXPECT_EQ(r.orphan_events(), 2u);
}

TEST(Reconstruct, RawRecordsPassedThrough) {
  const Trace t = TraceBuilder().Unlink(1, 5).Execve(2, 6, 100).Build();
  const auto sink = RunTrace(t);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].type, EventType::kUnlink);
  EXPECT_EQ(sink.records[1].type, EventType::kExecve);
}

TEST(Reconstruct, SeekToSamePositionKeepsSequentialFalseOnlyIfTransferred) {
  // A no-op seek before any transfer: still "one reposition before bytes".
  const auto sink = RunTrace(TraceBuilder()
                            .Open(1, 1, 10, 100)
                            .Seek(2, 1, 10, 0, 0)
                            .Close(3, 1, 10, 100, 100)
                            .Build());
  EXPECT_TRUE(sink.accesses.at(0).sequential);
  EXPECT_FALSE(sink.accesses.at(0).whole_file);  // repositioned, so not whole
}

// Property: billed bytes always equal the sum of run lengths, and every run
// lies within [0, size_at_close] for read-only accesses.
class ReconstructProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReconstructProperty, RunsConsistentWithSummaries) {
  Rng rng(GetParam());
  TraceBuilder b;
  double t = 1.0;
  for (OpenId oid = 1; oid <= 50; ++oid) {
    const uint64_t size = static_cast<uint64_t>(rng.UniformInt(0, 100000));
    b.Open(t, oid, 10 + oid % 7, size);
    t += 0.1;
    uint64_t pos = 0;
    const int seeks = static_cast<int>(rng.UniformInt(0, 3));
    for (int s = 0; s < seeks; ++s) {
      const uint64_t advance = static_cast<uint64_t>(rng.UniformInt(0, 1000));
      const uint64_t from = std::min(size, pos + advance);
      const uint64_t to = static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(size)));
      b.Seek(t, oid, 10 + oid % 7, from, to);
      t += 0.1;
      pos = to;
    }
    const uint64_t fin = std::min(size, pos + static_cast<uint64_t>(rng.UniformInt(0, 2000)));
    b.Close(t, oid, 10 + oid % 7, std::max(pos, fin), size);
    t += 0.1;
  }
  const auto sink = RunTrace(b.Build());
  EXPECT_EQ(sink.accesses.size(), 50u);

  std::map<OpenId, uint64_t> run_bytes;
  for (const Transfer& tr : sink.transfers) {
    run_bytes[tr.open_id] += tr.length;
    EXPECT_GT(tr.length, 0u);
  }
  for (const AccessSummary& a : sink.accesses) {
    EXPECT_EQ(a.bytes_transferred, run_bytes[a.open_id]) << "open " << a.open_id;
    EXPECT_LE(a.bytes_transferred, 50u * 100000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconstructProperty, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace bsdtrace
