#include "src/trace/validate.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

TEST(ValidateTrace, EmptyTraceIsValid) {
  const ValidationResult r = ValidateTrace(Trace{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.records, 0u);
}

TEST(ValidateTrace, WellFormedAccess) {
  const Trace t = TraceBuilder()
                      .Open(1, 1, 10, 4096)
                      .Seek(2, 1, 10, 1024, 2048)
                      .Close(3, 1, 10, 4096, 4096)
                      .Build();
  const ValidationResult r = ValidateTrace(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.opens_pending_at_end, 0u);
}

TEST(ValidateTrace, DetectsTimeGoingBackwards) {
  const Trace t = TraceBuilder().Unlink(5, 1).Unlink(4, 2).Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("backwards"), std::string::npos);
}

TEST(ValidateTrace, DetectsReusedOpenId) {
  const Trace t =
      TraceBuilder().Open(1, 7, 10, 100).Open(2, 7, 11, 100).Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("reused"), std::string::npos);
}

TEST(ValidateTrace, DetectsCloseWithoutOpen) {
  const Trace t = TraceBuilder().Close(1, 9, 10, 0, 0).Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("not open"), std::string::npos);
}

TEST(ValidateTrace, DetectsSeekWithoutOpen) {
  const Trace t = TraceBuilder().Seek(1, 9, 10, 0, 5).Build();
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(ValidateTrace, DetectsFileIdMismatch) {
  const Trace t =
      TraceBuilder().Open(1, 1, 10, 100).Close(2, 1, 99, 0, 0).Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("file id"), std::string::npos);
}

TEST(ValidateTrace, DetectsBackwardPositionWithoutSeek) {
  // Position after open is 50, but the seek claims it was at 20.
  const Trace t = TraceBuilder()
                      .Open(1, 1, 10, 100, AccessMode::kReadOnly, 1, 50)
                      .Seek(2, 1, 10, 20, 60)
                      .Close(3, 1, 10, 60, 100)
                      .Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("behind"), std::string::npos);
}

TEST(ValidateTrace, DetectsClosePositionRegression) {
  const Trace t = TraceBuilder()
                      .Open(1, 1, 10, 100, AccessMode::kReadOnly, 1, 50)
                      .Close(2, 1, 10, 10, 100)
                      .Build();
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(ValidateTrace, DetectsSizeSmallerThanFinalPosition) {
  const Trace t =
      TraceBuilder().Open(1, 1, 10, 100).Close(2, 1, 10, 200, 100).Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].find("size smaller"), std::string::npos);
}

TEST(ValidateTrace, DetectsOpenPositionBeyondSize) {
  const Trace t =
      TraceBuilder().Open(1, 1, 10, 100, AccessMode::kReadOnly, 1, 200).Build();
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(ValidateTrace, DetectsInvalidOpenId) {
  Trace t;
  t.Append(MakeOpen(SimTime::FromSeconds(1), kInvalidOpenId, 10, 1, AccessMode::kReadOnly, 0,
                    0));
  EXPECT_FALSE(ValidateTrace(t).ok());
}

TEST(ValidateTrace, PendingOpensAreWarningsNotErrors) {
  const Trace t = TraceBuilder().Open(1, 1, 10, 100).Build();
  const ValidationResult r = ValidateTrace(t);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.opens_pending_at_end, 1u);
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_NE(r.warnings[0].find("still open"), std::string::npos);
}

TEST(ValidateTrace, IssueCountIsCapped) {
  TraceBuilder b;
  for (int i = 0; i < 100; ++i) {
    b.Close(i + 1, 1000 + i, 10, 0, 0);  // 100 orphan closes
  }
  const ValidationResult r = ValidateTrace(b.Build(), 5);
  EXPECT_EQ(r.errors.size(), 5u);
}

TEST(ValidateTrace, SummaryListsIssues) {
  const Trace t = TraceBuilder().Close(1, 9, 10, 0, 0).Build();
  const ValidationResult r = ValidateTrace(t);
  EXPECT_NE(r.Summary().find("error:"), std::string::npos);
}

TEST(ValidateTrace, CreateWithNonzeroSizeRejected) {
  Trace t;
  TraceRecord r = MakeCreate(SimTime::FromSeconds(1), 1, 2, 3, AccessMode::kWriteOnly);
  r.size = 10;
  t.Append(r);
  EXPECT_FALSE(ValidateTrace(t).ok());
}

// -- CheckTraceFile -----------------------------------------------------------

Trace FileCheckTrace() {
  TraceBuilder b;
  for (int i = 0; i < 200; ++i) {
    const double t = 1.0 + i * 30.0;  // spans several simulated hours
    b.Open(t, i + 1, 100 + i, 4096);
    b.Close(t + 1.0, i + 1, 100 + i, 4096, 4096);
  }
  return b.Build();
}

TEST(CheckTraceFile, CleanV3FileChecksOut) {
  const std::string path = TempPath("check_v3.trc");
  TraceWriterOptions options;
  options.version = 3;
  options.block_target_bytes = 512;
  const Trace trace = FileCheckTrace();
  ASSERT_TRUE(SaveTrace(path, trace, options).ok());

  const TraceFileCheck check = CheckTraceFile(path);
  EXPECT_TRUE(check.ok()) << check.status.message();
  EXPECT_EQ(check.version, 3);
  EXPECT_TRUE(check.has_index);
  EXPECT_EQ(check.records, trace.size());
  EXPECT_EQ(check.indexed_records, trace.size());
  EXPECT_GT(check.index_entries, 1u);
  EXPECT_EQ(check.blocks_verified, check.index_entries);
  EXPECT_EQ(check.last_time, trace.records().back().time);
  std::remove(path.c_str());
}

TEST(CheckTraceFile, CleanV2FileChecksOut) {
  const std::string path = TempPath("check_v2.trc");
  const Trace trace = FileCheckTrace();
  ASSERT_TRUE(SaveTrace(path, trace).ok());

  const TraceFileCheck check = CheckTraceFile(path);
  EXPECT_TRUE(check.ok()) << check.status.message();
  EXPECT_EQ(check.version, 2);
  EXPECT_FALSE(check.has_index);
  EXPECT_EQ(check.records, trace.size());
  std::remove(path.c_str());
}

TEST(CheckTraceFile, FlippedByteIsReported) {
  const std::string path = TempPath("check_flip.trc");
  TraceWriterOptions options;
  options.version = 3;
  options.block_target_bytes = 512;
  ASSERT_TRUE(SaveTrace(path, FileCheckTrace(), options).ok());

  // Flip a byte in some middle block's payload.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long mid = std::ftell(f) / 2;
  ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  const TraceFileCheck check = CheckTraceFile(path);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.version, 3);
  std::remove(path.c_str());
}

// -- hardened structural checks (importer support) ---------------------------

TEST(ValidateTrace, DetectsOpenIdReuseAfterClose) {
  const Trace t = TraceBuilder()
                      .Open(1, 7, 10, 100)
                      .Close(2, 7, 10, 100, 100)
                      .Open(3, 7, 11, 100)  // id 7 recycled: i-numbers never are
                      .Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("reused after close"), std::string::npos) << r.errors[0];
}

TEST(ValidateTrace, DistinguishesAlreadyClosedFromNeverOpened) {
  const Trace t = TraceBuilder()
                      .Open(1, 7, 10, 100)
                      .Close(2, 7, 10, 100, 100)
                      .Close(3, 7, 10, 100, 100)  // stale id
                      .Seek(4, 9, 10, 0, 5)       // unknown id
                      .Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_NE(r.errors[0].find("already closed"), std::string::npos) << r.errors[0];
  EXPECT_NE(r.errors[1].find("never opened"), std::string::npos) << r.errors[1];
}

TEST(ValidateTrace, LineNumbersAndRenderedRecordsInDiagnostics) {
  const Trace t = TraceBuilder()
                      .Open(1, 7, 10, 100)
                      .Close(2, 9, 10, 100, 100)  // wrong id
                      .Build();
  const std::vector<uint64_t> lines = {12, 57};
  ValidateTraceOptions options;
  options.line_numbers = &lines;
  options.render_records = true;
  const ValidationResult r = ValidateTrace(t, options);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("line 57"), std::string::npos) << r.errors[0];
  // The offending record's ToString rendering rides along.
  EXPECT_NE(r.errors[0].find("close\toid=9"), std::string::npos) << r.errors[0];
}

TEST(ValidateTrace, SeekFromBehindTrackedPositionNamesBothPositions) {
  const Trace t = TraceBuilder()
                      .Open(1, 1, 10, 4096)
                      .Seek(2, 1, 10, 1000, 2000)
                      .Seek(3, 1, 10, 1500, 0)  // 1500 < tracked 2000
                      .Close(4, 1, 10, 4096, 4096)
                      .Build();
  const ValidationResult r = ValidateTrace(t);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("1500"), std::string::npos) << r.errors[0];
  EXPECT_NE(r.errors[0].find("2000"), std::string::npos) << r.errors[0];
}

TEST(CheckTraceFile, MissingFileIsAnError) {
  EXPECT_FALSE(CheckTraceFile(TempPath("no_such_trace.trc")).ok());
}

}  // namespace
}  // namespace bsdtrace
