// Foreign-trace import: the bsdtxt streaming reader (TextTraceSource) and
// the strace adapter.  Covers the tentpole properties: export | import is
// the identity on generated A5/E3/C4 traces, strace fd/position synthesis
// follows the documented rules, and malformed input fails with a clean
// Status naming the offending line — never a crash or a silent partial
// import (exercised by a random-mutation drill in the spirit of
// ans_codec_test).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/import/strace_import.h"
#include "src/trace/import/text_import.h"
#include "src/trace/trace_io.h"
#include "src/trace/validate.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "tests/testing/temp_path.h"

#ifndef BSDTRACE_TEST_DATA_DIR
#define BSDTRACE_TEST_DATA_DIR "tests/data"
#endif

namespace bsdtrace {
namespace {

// Collects a TextTraceSource into a Trace; EXPECTs a clean stream.
Trace Collect(TextTraceSource& source) {
  Trace trace(source.header());
  TraceRecord record{};
  while (source.Next(&record)) {
    trace.Append(record);
  }
  EXPECT_TRUE(source.status().ok()) << source.status().message();
  return trace;
}

std::string ExportText(const Trace& trace) {
  std::ostringstream out;
  TraceVectorSource source(trace);
  EXPECT_TRUE(WriteTextTrace(out, source).ok());
  return out.str();
}

// -- TextTraceSource ----------------------------------------------------------

TEST(TextTraceSource, ReadsHeaderRecordsAndLineNumbers) {
  std::istringstream in(
      "# machine testbox\r\n"
      "# description a text trace\n"
      "\n"
      "# free-form comment\n"
      "0.000000\topen\toid=1\tfile=2\tuser=3\tmode=r\tsize=100\tpos=0\n"
      "\n"
      "1.500000\tclose\toid=1\tfile=2\tpos=100\tsize=100\n");
  TextTraceSource source(in);
  EXPECT_EQ(source.header().machine, "testbox");
  EXPECT_EQ(source.header().description, "a text trace");
  const Trace trace = Collect(source);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].type, EventType::kOpen);
  EXPECT_EQ(trace.records()[1].time.micros(), 1'500'000);
  // The blank and comment lines count, so records sit on lines 5 and 7.
  EXPECT_EQ(source.record_lines(), (std::vector<uint64_t>{5, 7}));
}

TEST(TextTraceSource, BadRecordFailsWithLineNumber) {
  std::istringstream in(
      "# machine m\n"
      "0.000000\topen\toid=1\tfile=2\tuser=3\tmode=r\tsize=100\tpos=0\n"
      "0.100000\topen\toid=2\tfile=2\tuser=3\tmode=q\tsize=100\tpos=0\n");
  TextTraceSource source(in);
  TraceRecord record{};
  EXPECT_TRUE(source.Next(&record));
  EXPECT_FALSE(source.Next(&record));
  EXPECT_FALSE(source.status().ok());
  EXPECT_NE(source.status().message().find("line 3"), std::string::npos)
      << source.status().message();
  // The status is sticky: further pulls keep failing.
  EXPECT_FALSE(source.Next(&record));
}

TEST(TextTraceSource, TimeMovingBackwardsFailsWithLineNumber) {
  std::istringstream in(
      "1.000000\tunlink\tfile=1\tuser=0\n"
      "0.500000\tunlink\tfile=2\tuser=0\n");
  TextTraceSource source(in);
  TraceRecord record{};
  EXPECT_TRUE(source.Next(&record));
  EXPECT_FALSE(source.Next(&record));
  EXPECT_NE(source.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(source.status().message().find("backwards"), std::string::npos);
}

TEST(TextTraceSource, HeaderCommentsAfterFirstRecordAreIgnored) {
  std::istringstream in(
      "# machine first\n"
      "0.000000\tunlink\tfile=1\tuser=0\n"
      "# machine second\n"
      "1.000000\tunlink\tfile=2\tuser=0\n");
  TextTraceSource source(in);
  EXPECT_EQ(source.header().machine, "first");
  const Trace trace = Collect(source);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(TextTraceSource, MissingFileSurfacesInStatus) {
  TextTraceSource source(TempPath("no_such_trace.txt"));
  TraceRecord record{};
  EXPECT_FALSE(source.Next(&record));
  EXPECT_FALSE(source.status().ok());
}

// The tentpole identity: export | import reproduces the exact record stream
// and header for each of the paper's three machines, and re-exporting is
// byte-identical.
TEST(TextTraceSource, ExportImportIsIdentityOnGeneratedTraces) {
  for (const MachineProfile& profile : {ProfileA5(), ProfileE3(), ProfileC4()}) {
    GeneratorOptions options;
    options.duration = Duration::Hours(0.05);
    options.seed = 20260809;
    const Trace trace = GenerateTrace(profile, options).trace;
    ASSERT_GT(trace.size(), 0u);

    const std::string text = ExportText(trace);
    std::istringstream in(text);
    TextTraceSource source(in);
    const Trace back = Collect(source);

    EXPECT_TRUE(back == trace) << profile.trace_name << ": records or header differ";
    EXPECT_EQ(ExportText(back), text) << profile.trace_name;
    EXPECT_EQ(source.record_lines().size(), trace.size());
  }
}

// -- strace adapter -----------------------------------------------------------

StraceImportResult ImportOk(const std::string& log) {
  std::istringstream in(log);
  StatusOr<StraceImportResult> imported = ImportStraceLog(in);
  EXPECT_TRUE(imported.ok()) << imported.status().message();
  return imported.ok() ? std::move(imported.value()) : StraceImportResult{};
}

Status ImportError(const std::string& log) {
  std::istringstream in(log);
  StatusOr<StraceImportResult> imported = ImportStraceLog(in);
  EXPECT_FALSE(imported.ok());
  return imported.status();
}

TEST(StraceImport, ReadsAdvancePositionAndBillAtClose) {
  const StraceImportResult r = ImportOk(
      "100.000001 open(\"/etc/passwd\", O_RDONLY) = 3\n"
      "100.000002 read(3, \"aaa\", 4096) = 100\n"
      "100.000003 read(3, \"bbb\", 4096) = 50\n"
      "100.000004 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 2u);
  const TraceRecord& open = r.trace.records()[0];
  const TraceRecord& close = r.trace.records()[1];
  EXPECT_EQ(open.type, EventType::kOpen);
  EXPECT_EQ(open.mode, AccessMode::kReadOnly);
  EXPECT_EQ(open.time.micros(), 0);  // rebased so the first event is t=0
  EXPECT_EQ(close.type, EventType::kClose);
  EXPECT_EQ(close.position, 150u);  // two reads advanced the position
  EXPECT_EQ(close.size, 150u);      // size billed at close covers the bytes seen
  EXPECT_EQ(close.open_id, open.open_id);
  EXPECT_EQ(r.record_lines, (std::vector<uint64_t>{1, 4}));
}

TEST(StraceImport, SeekEmittedOnlyOnActualReposition) {
  const StraceImportResult r = ImportOk(
      "1.000001 open(\"/f\", O_RDONLY) = 3\n"
      "1.000002 read(3, \"\", 4096) = 4096\n"
      "1.000003 lseek(3, 0, SEEK_CUR) = 4096\n"   // tells the position: no event
      "1.000004 lseek(3, 100, SEEK_SET) = 100\n"  // real reposition
      "1.000005 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 3u);
  const TraceRecord& seek = r.trace.records()[1];
  EXPECT_EQ(seek.type, EventType::kSeek);
  EXPECT_EQ(seek.seek_from, 4096u);
  EXPECT_EQ(seek.seek_to, 100u);
  EXPECT_EQ(r.trace.records()[2].position, 100u);
}

TEST(StraceImport, DupSharesOneOpenUntilLastClose) {
  const StraceImportResult r = ImportOk(
      "1.000001 open(\"/log\", O_WRONLY|O_CREAT|O_APPEND, 0644) = 3\n"
      "1.000002 dup2(3, 8) = 8\n"
      "1.000003 write(8, \"x\", 6) = 6\n"
      "1.000004 close(3) = 0\n"  // entry still live through fd 8
      "1.000005 write(8, \"y\", 6) = 6\n"
      "1.000006 close(8) = 0\n");
  // One create (unknown path + O_CREAT), one close: the dup pair is one open.
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace.records()[0].type, EventType::kCreate);
  EXPECT_EQ(r.trace.records()[1].type, EventType::kClose);
  EXPECT_EQ(r.trace.records()[1].position, 12u);
}

TEST(StraceImport, CreateHeuristicsFollowFlagsAndNovelty) {
  const StraceImportResult r = ImportOk(
      "1.000001 creat(\"/a\", 0644) = 3\n"
      "1.000002 close(3) = 0\n"
      "1.000003 open(\"/a\", O_RDONLY) = 3\n"  // known path, no trunc: plain open
      "1.000004 close(3) = 0\n"
      "1.000005 open(\"/a\", O_WRONLY|O_TRUNC) = 3\n"  // truncating write: create
      "1.000006 close(3) = 0\n"
      "1.000007 open(\"/a\", O_RDONLY|O_CREAT, 0644) = 3\n"  // exists: open
      "1.000008 close(3) = 0\n"
      "1.000009 open(\"/b\", O_RDONLY|O_CREAT, 0644) = 3\n"  // novel: create
      "1.000010 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 10u);
  EXPECT_EQ(r.trace.records()[0].type, EventType::kCreate);
  EXPECT_EQ(r.trace.records()[2].type, EventType::kOpen);
  EXPECT_EQ(r.trace.records()[4].type, EventType::kCreate);
  EXPECT_EQ(r.trace.records()[6].type, EventType::kOpen);
  EXPECT_EQ(r.trace.records()[8].type, EventType::kCreate);
  // /a and /b are two files.
  EXPECT_EQ(r.stats.files, 2u);
}

TEST(StraceImport, AppendOpensAtTrackedSizeAndUnlinkRetiresTheFile) {
  const StraceImportResult r = ImportOk(
      "1.000001 creat(\"/a\", 0644) = 3\n"
      "1.000002 write(3, \"x\", 10) = 10\n"
      "1.000003 close(3) = 0\n"
      "1.000004 open(\"/a\", O_WRONLY|O_APPEND) = 3\n"  // starts at size 10
      "1.000005 close(3) = 0\n"
      "1.000006 unlink(\"/a\") = 0\n"
      "1.000007 creat(\"/a\", 0644) = 3\n"  // same name, new file id
      "1.000008 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 7u);
  const TraceRecord& append_open = r.trace.records()[2];
  EXPECT_EQ(append_open.type, EventType::kOpen);
  EXPECT_EQ(append_open.position, 10u);
  EXPECT_EQ(append_open.size, 10u);
  const FileId first = r.trace.records()[0].file_id;
  EXPECT_EQ(r.trace.records()[4].type, EventType::kUnlink);
  EXPECT_EQ(r.trace.records()[4].file_id, first);
  EXPECT_NE(r.trace.records()[5].file_id, first) << "unlinked name must re-intern fresh";
}

TEST(StraceImport, InterleavedPidsKeepSeparateFdTables) {
  const StraceImportResult r = ImportOk(
      "10  1.000001 open(\"/a\", O_RDONLY) = 3\n"
      "11  1.000002 open(\"/b\", O_RDONLY) = 3\n"  // same fd, different pid
      "10  1.000003 read(3, \"\", 100) = 100\n"
      "11  1.000004 read(3, \"\", 100) = 7\n"
      "10  1.000005 close(3) = 0\n"
      "11  1.000006 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 4u);
  EXPECT_EQ(r.stats.pids, 2u);
  EXPECT_EQ(r.trace.records()[2].position, 100u);  // pid 10's close
  EXPECT_EQ(r.trace.records()[3].position, 7u);    // pid 11's close
  EXPECT_EQ(r.trace.records()[0].user_id, 10u);
  EXPECT_EQ(r.trace.records()[1].user_id, 11u);
}

TEST(StraceImport, UnfinishedResumedPairsJoinAcrossInterleavings) {
  const StraceImportResult r = ImportOk(
      "10  1.000001 open(\"/a\", O_RDONLY) = 3\n"
      "10  1.000002 read(3,  <unfinished ...>\n"
      "11  1.000003 open(\"/b\", O_RDONLY) = 3\n"
      "10  1.000004 <... read resumed> \"zz\", 4096) = 4096\n"
      "10  1.000005 close(3) = 0\n"
      "11  1.000006 close(3) = 0\n");
  ASSERT_EQ(r.trace.size(), 4u);
  EXPECT_EQ(r.stats.resumed_joined, 1u);
  EXPECT_EQ(r.trace.records()[2].position, 4096u);  // pid 10's close saw the read
}

TEST(StraceImport, NoiseLinesAndFailedCallsAreSkipped) {
  const StraceImportResult r = ImportOk(
      "1.000001 open(\"/gone\", O_RDONLY) = -1 ENOENT (No such file or directory)\n"
      "1.000002 --- SIGCHLD {si_signo=SIGCHLD} ---\n"
      "1.000003 open(\"/a\", O_RDONLY) = 3\n"
      "1.000004 fstat(3, {st_mode=S_IFREG|0644}) = 0\n"  // untracked syscall
      "1.000005 close(3) = 0\n"
      "1.000006 +++ exited with 0 +++\n");
  EXPECT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.stats.failed_calls, 1u);
  EXPECT_EQ(r.stats.ignored_lines, 3u);
}

TEST(StraceImport, UnknownFdSynthesizesAnOpen) {
  const StraceImportResult r = ImportOk(
      "1.000001 read(7, \"inherited\", 256) = 256\n"
      "1.000002 close(7) = 0\n"
      "1.000003 write(1, \"tty\", 3) = 3\n"  // stdio: ignored entirely
      "1.000004 close(0) = 0\n");
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.stats.synthesized_opens, 1u);
  EXPECT_EQ(r.trace.records()[0].type, EventType::kOpen);
  EXPECT_EQ(r.trace.records()[1].position, 256u);
}

TEST(StraceImport, GarbageFailsWithLineNumber) {
  const Status s = ImportError(
      "1.000001 open(\"/a\", O_RDONLY) = 3\n"
      "1.000002 close(3) = 0\n"
      "total garbage, not an strace line\n");
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.message();
}

TEST(StraceImport, TruncatedSyscallFailsWithLineNumber) {
  const Status s = ImportError("1.000001 open(\"/a\", O_RDON");
  EXPECT_NE(s.message().find("line 1"), std::string::npos) << s.message();
  const Status s2 = ImportError("1.000001 open(\"/a\", O_RDONLY)\n");
  EXPECT_NE(s2.message().find("return value"), std::string::npos) << s2.message();
  const Status s3 = ImportError("notatime open(\"/a\", O_RDONLY) = 3\n");
  EXPECT_NE(s3.message().find("timestamp"), std::string::npos) << s3.message();
}

// The checked-in 200-line fixture must import, validate cleanly under the
// hardened validator with line numbers attached, and carry the documented
// shape (two pids, one synthesized open, one resumed join).
TEST(StraceImport, SampleFixtureImportsAndValidates) {
  std::ifstream in(std::string(BSDTRACE_TEST_DATA_DIR) + "/sample.strace");
  ASSERT_TRUE(in.is_open()) << "missing " << BSDTRACE_TEST_DATA_DIR << "/sample.strace";
  StatusOr<StraceImportResult> imported = ImportStraceLog(in);
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  const StraceImportResult& r = imported.value();
  EXPECT_EQ(r.stats.lines, 200u);
  EXPECT_EQ(r.stats.pids, 2u);
  EXPECT_EQ(r.stats.synthesized_opens, 1u);
  EXPECT_EQ(r.stats.resumed_joined, 1u);
  EXPECT_GT(r.trace.size(), 100u);

  ValidateTraceOptions options;
  options.line_numbers = &r.record_lines;
  options.render_records = true;
  const ValidationResult v = ValidateTrace(r.trace, options);
  EXPECT_TRUE(v.ok()) << v.Summary();
}

// -- mutation drill -----------------------------------------------------------

// Randomly corrupts a valid input and re-parses it.  The contract under
// fire: the importer either succeeds or returns a Status — it never crashes,
// and (for bsdtxt) whatever it does accept still round-trips exactly.
TEST(ImportFuzz, MutatedInputsNeverCrashTheImporters) {
  GeneratorOptions options;
  options.duration = Duration::Hours(0.02);
  options.seed = 7;
  const std::string text = ExportText(GenerateTrace(ProfileA5(), options).trace);

  std::ifstream fixture_in(std::string(BSDTRACE_TEST_DATA_DIR) + "/sample.strace");
  ASSERT_TRUE(fixture_in.is_open());
  std::ostringstream fixture_buf;
  fixture_buf << fixture_in.rdbuf();
  const std::string strace_log = fixture_buf.str();

  Rng rng(20260809);
  const auto mutate = [&rng](std::string s) {
    const int mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < mutations; ++i) {
      if (s.empty()) {
        break;
      }
      const size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int>(s.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          s[at] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          s.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
          break;
        case 2:
          s.insert(at, std::string(static_cast<size_t>(rng.UniformInt(1, 8)),
                                   static_cast<char>(rng.UniformInt(32, 126))));
          break;
        default:
          s.resize(at);  // truncate: simulates a clipped log
          break;
      }
    }
    return s;
  };

  for (int round = 0; round < 200; ++round) {
    {
      std::istringstream in(mutate(text));
      TextTraceSource source(in);
      Trace trace(source.header());
      TraceRecord record{};
      while (source.Next(&record)) {
        trace.Append(record);
      }
      if (source.status().ok()) {
        // Whatever survived mutation still round-trips byte-exactly.
        std::istringstream again(ExportText(trace));
        TextTraceSource source2(again);
        const Trace back = Collect(source2);
        EXPECT_TRUE(back.records() == trace.records());
        ValidateTrace(trace, ValidateTraceOptions{});  // must not crash either
      }
    }
    {
      std::istringstream in(mutate(strace_log));
      StatusOr<StraceImportResult> imported = ImportStraceLog(in);
      if (imported.ok()) {
        ValidateTraceOptions voptions;
        voptions.line_numbers = &imported.value().record_lines;
        ValidateTrace(imported.value().trace, voptions);
      }
    }
  }
}

}  // namespace
}  // namespace bsdtrace
