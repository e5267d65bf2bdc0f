// In-process tests of the trace_stream CLI (src/core/trace_stream_cli.h):
// strict argument parsing (no silent atoi/atof coercion), profile-name
// errors that teach the valid names, and the generate/analyze/info round
// trip including the Table I --check-bands gate, and the whole-trace
// validate/slice/users/top commands on every writable format version, and
// the reproduction report.

#include "src/core/trace_stream_cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/filter.h"
#include "src/trace/trace_io.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

int RunCli(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"trace_stream"};
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return TraceStreamMain(static_cast<int>(argv.size()), argv.data());
}

// Runs the CLI with stderr captured; returns the exit code.
int RunCaptured(const std::vector<std::string>& args, std::string* err) {
  ::testing::internal::CaptureStderr();
  const int rc = RunCli(args);
  *err = ::testing::internal::GetCapturedStderr();
  return rc;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::fclose(f);
  }
  return f != nullptr;
}

TEST(TraceStreamCli, NoArgumentsOrUnknownCommandPrintUsage) {
  std::string err;
  EXPECT_EQ(RunCaptured({}, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(RunCaptured({"frobnicate", "x"}, &err), 2);
}

// The old CLI ran arguments through bare atof/atoi: "8oops" generated an
// 8-hour trace and "oops" a zero-hour one.  Every malformed numeric must now
// reject with usage, a non-zero exit, and no output file.
TEST(TraceStreamCli, MalformedNumericArgumentsAreRejected) {
  const std::string out = TempPath("cli_reject.trc");
  std::string err;
  const std::vector<std::vector<std::string>> bad = {
      {"generate", out, "A5", "8oops"},          // trailing junk on hours
      {"generate", out, "A5", "oops"},           // non-numeric hours
      {"generate", out, "A5", "0"},              // zero duration
      {"generate", out, "A5", "6", "0"},         // zero shards
      {"generate", out, "A5", "6", "4", "-2"},   // negative threads
      {"generate", out, "A5", "6", "4", "2", "12x"},  // junk seed
      {"generate", out, "--hours=1e999"},        // overflow
      {"generate", out, "--users=-5"},
      {"generate", out, "--shards=99999"},       // above cap
      {"generate", out, "--bogus=1"},            // unknown flag
      {"analyze", out, "--threads=two"},
  };
  for (const std::vector<std::string>& args : bad) {
    EXPECT_EQ(RunCaptured(args, &err), 2) << "accepted: " << args.back();
    EXPECT_NE(err.find("usage:"), std::string::npos) << args.back();
  }
  EXPECT_FALSE(FileExists(out)) << "a rejected invocation wrote a trace";
}

// Satellite 1: an unknown profile must fail listing the valid names, not
// silently fall back to A5.
TEST(TraceStreamCli, UnknownProfileFailsListingValidNames) {
  std::string err;
  const int rc = RunCaptured({"generate", TempPath("cli_b9.trc"), "--profile=B9"}, &err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("B9"), std::string::npos);
  EXPECT_NE(err.find("A5"), std::string::npos);
  EXPECT_NE(err.find("E3"), std::string::npos);
  EXPECT_NE(err.find("C4"), std::string::npos);
  EXPECT_FALSE(FileExists(TempPath("cli_b9.trc")));
}

TEST(TraceStreamCli, AnalyzeAndInfoFailCleanlyOnMissingFile) {
  std::string err;
  EXPECT_EQ(RunCaptured({"analyze", TempPath("no_such.trc")}, &err), 1);
  EXPECT_EQ(RunCaptured({"info", TempPath("no_such.trc")}, &err), 1);
}

// The whole pipeline at paper scale: generate a fleet-tagged 6-hour A5,
// inspect it, analyze it in parallel, and gate on the Table I bands.
TEST(TraceStreamCli, GenerateAnalyzeInfoRoundTripWithBands) {
  const std::string out = TempPath("cli_roundtrip.trc");
  EXPECT_EQ(RunCli({"generate", out, "--profile=A5", "--hours=6", "--shards=4",
                 "--threads=2", "--seed=20260806"}),
            0);
  ASSERT_TRUE(FileExists(out));
  EXPECT_EQ(RunCli({"info", out}), 0);
  EXPECT_EQ(RunCli({"analyze", out, "--threads=2"}), 0);
  EXPECT_EQ(RunCli({"analyze", out, "--threads=2", "--check-bands"}), 0);
}

// Legacy traces carry no fleet tag, so --check-bands has nothing to
// validate against and must say so with a non-zero exit.
TEST(TraceStreamCli, CheckBandsFailsOnUntaggedTrace) {
  TraceBuilder b;
  for (int i = 0; i < 50; ++i) {
    b.WholeRead(i * 60.0, i * 60.0 + 1200.0, /*oid=*/i + 1, /*file=*/100 + i,
                /*size=*/4096, /*user=*/2);
  }
  const std::string path = TempPath("cli_untagged.trc");
  ASSERT_TRUE(SaveTrace(path, b.Build()).ok());
  std::string err;
  EXPECT_EQ(RunCli({"analyze", path, "--threads=1"}), 0);
  EXPECT_EQ(RunCaptured({"analyze", path, "--threads=1", "--check-bands"}, &err), 1);
  EXPECT_NE(err.find("no fleet tag"), std::string::npos);
}

// Flags override the legacy positionals they duplicate.
TEST(TraceStreamCli, FlagsWinOverPositionals) {
  const std::string out = TempPath("cli_flags_win.trc");
  EXPECT_EQ(RunCli({"generate", out, "A5", "6", "--hours=0.5", "--shards=2"}), 0);
  ASSERT_TRUE(FileExists(out));
  // If the positional 6 hours had won, info's span line would read ~6.00
  // simulated hours; the half-hour flag run stays well under one hour.
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"info", out}), 0);
  const std::string info = ::testing::internal::GetCapturedStdout();
  const size_t span = info.find("span:");
  ASSERT_NE(span, std::string::npos) << info;
  EXPECT_NE(info.find("0.", span), std::string::npos) << info;
  EXPECT_EQ(info.find("6.00 simulated hours"), std::string::npos) << info;
}

// --sweep must reject unknown figure names during flag parsing, before the
// trace file is ever touched.
TEST(TraceStreamCli, SweepRejectsUnknownFigure) {
  std::string err;
  EXPECT_EQ(RunCaptured({"analyze", TempPath("cli_sweep_bad.trc"), "--sweep=fig8"}, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(RunCaptured({"analyze", TempPath("cli_sweep_bad.trc"), "--sweep="}, &err), 2);
}

// analyze --sweep=fig5 runs the planned §6 sweep: the Table VI block, the
// single-pass Mattson curve table, and the parity verdict of the internal
// engine cross-check (the exit code gates on it).
TEST(TraceStreamCli, SweepFig5PrintsTableAndCurves) {
  const std::string out = TempPath("cli_sweep.trc");
  ASSERT_EQ(RunCli({"generate", out, "--profile=A5", "--hours=1", "--shards=2",
                    "--threads=2", "--seed=20260809"}),
            0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"analyze", out, "--sweep=fig5", "--threads=2"}), 0);
  const std::string text = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(text.find("Table VI / Figure 5"), std::string::npos) << text;
  EXPECT_NE(text.find("Single-pass Mattson curves"), std::string::npos) << text;
  EXPECT_NE(text.find("parity ok"), std::string::npos) << text;
}

// --help output is generated from the one flag table: each subcommand lists
// exactly its registered surface, with the value hints.
TEST(TraceStreamCli, HelpListsPerSubcommandFlagsFromTheTable) {
  std::string err;
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"--help"}), 0);
  const std::string all = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(all.find("usage:"), std::string::npos);
  EXPECT_NE(all.find("generate"), std::string::npos);
  EXPECT_NE(all.find("--wave-users=N"), std::string::npos);
  EXPECT_NE(all.find("--sweep=fig5|fig6|fig7|hier"), std::string::npos);

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"analyze", "--help"}), 0);
  const std::string analyze = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(analyze.find("--threads=T"), std::string::npos);
  EXPECT_NE(analyze.find("--check-bands"), std::string::npos);
  EXPECT_NE(analyze.find("--sweep="), std::string::npos);
  // analyze does not accept generate's flags, so its help must not list them.
  EXPECT_EQ(analyze.find("--wave-users"), std::string::npos) << analyze;

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"help", "serve"}), 0);
  const std::string serve = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(serve.find("--snapshot-hours=H"), std::string::npos);
  EXPECT_EQ(serve.find("--sweep"), std::string::npos) << serve;
}

// Wrong-flag errors name the subcommand they happened in, and a known flag
// used on the wrong subcommand is distinguished from a typo.
TEST(TraceStreamCli, FlagErrorsNameTheSubcommand) {
  std::string err;
  EXPECT_EQ(RunCaptured({"analyze", "x.trc", "--bogus=1"}, &err), 2);
  EXPECT_NE(err.find("trace_stream analyze: unknown flag \"--bogus=1\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("usage:"), std::string::npos);

  // --wave-users exists, but only generate accepts it.
  EXPECT_EQ(RunCaptured({"analyze", "x.trc", "--wave-users=5"}, &err), 2);
  EXPECT_NE(err.find("trace_stream analyze"), std::string::npos) << err;
  EXPECT_NE(err.find("not accepted"), std::string::npos) << err;

  EXPECT_EQ(RunCaptured({"generate", "x.trc", "--hours=oops"}, &err), 2);
  EXPECT_NE(err.find("trace_stream generate: invalid --hours \"oops\""), std::string::npos)
      << err;
}

// analyze --sweep=hier runs the §7 client/server hierarchy grid and gates on
// the fused-vs-hierarchy parity verdict.
TEST(TraceStreamCli, SweepHierPrintsHierarchyFigure) {
  const std::string out = TempPath("cli_sweep_hier.trc");
  ASSERT_EQ(RunCli({"generate", out, "--profile=A5", "--hours=1", "--shards=2",
                    "--threads=2", "--seed=20260809"}),
            0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"analyze", out, "--sweep=hier", "--threads=2"}), 0);
  const std::string text = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(text.find("Hierarchy sweep"), std::string::npos) << text;
  EXPECT_NE(text.find("Delayed Write"), std::string::npos) << text;
  EXPECT_NE(text.find("hierarchy replay(s) (one per client configuration); fused and fan-out "
                      "parity OK"),
            std::string::npos)
      << text;
}

// -- import / export ----------------------------------------------------------

// generate → export → import → export must reproduce the text byte for byte
// (the bsdtxt round-trip), and both binaries must analyze identically.
TEST(TraceStreamCli, ExportImportRoundTripsTextAndAnalysis) {
  const std::string trc = TempPath("cli_roundtrip.trc");
  const std::string txt = TempPath("cli_roundtrip.txt");
  const std::string trc2 = TempPath("cli_roundtrip2.trc");
  const std::string txt2 = TempPath("cli_roundtrip2.txt");
  ASSERT_EQ(RunCli({"generate", trc, "--profile=A5", "--hours=0.2", "--shards=2",
                    "--threads=2", "--seed=11"}),
            0);
  ASSERT_EQ(RunCli({"export", trc, "--out=" + txt}), 0);
  ASSERT_EQ(RunCli({"import", txt, trc2}), 0);
  ASSERT_EQ(RunCli({"export", trc2, "--out=" + txt2}), 0);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string text = slurp(txt);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, slurp(txt2));

  // The analysis tables of the original and the re-imported trace agree
  // exactly (the engine line may differ: v3 vs re-imported v4 block layout).
  const auto analyze = [&](const std::string& path) {
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(RunCli({"analyze", path, "--threads=1"}), 0);
    std::string out = ::testing::internal::GetCapturedStdout();
    const size_t engine = out.find("analysis engine:");
    return engine == std::string::npos ? out : out.substr(0, engine);
  };
  EXPECT_EQ(analyze(trc), analyze(trc2));

  // The header's fleet tag survives the text round trip: the band gate still
  // finds and reports the tagged instance (a 0.2h trace sits below the band,
  // so the verdict is FAIL on both files — what matters is the tag is there).
  std::string err;
  EXPECT_EQ(RunCaptured({"analyze", trc2, "--threads=1", "--check-bands"}, &err), 1);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"analyze", trc2, "--threads=1", "--check-bands"}), 1);
  const std::string bands = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(bands.find("instance 0 A5"), std::string::npos) << bands;
  EXPECT_EQ(err.find("no fleet tag"), std::string::npos) << err;
}

// Imported traces run the hardened validator by default; --no-validate
// writes the stream anyway.
TEST(TraceStreamCli, ImportValidatesByDefault) {
  const std::string txt = TempPath("cli_invalid.txt");
  const std::string trc = TempPath("cli_invalid.trc");
  std::remove(trc.c_str());  // a prior run's --no-validate output may linger
  {
    std::ofstream out(txt);
    out << "# machine hand\n"
        << "0.000000\topen\toid=1\tfile=2\tuser=3\tmode=r\tsize=10\tpos=0\n"
        << "1.000000\tclose\toid=9\tfile=2\tpos=10\tsize=10\n";  // unknown id
  }
  std::string err;
  EXPECT_EQ(RunCaptured({"import", txt, trc}, &err), 1);
  EXPECT_NE(err.find("import error"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;       // source line cited
  EXPECT_NE(err.find("never opened"), std::string::npos) << err;
  EXPECT_NE(err.find("close\toid=9"), std::string::npos) << err;  // rendered record
  EXPECT_FALSE(FileExists(trc));

  EXPECT_EQ(RunCaptured({"import", txt, trc, "--no-validate"}, &err), 0);
  EXPECT_TRUE(FileExists(trc));
  EXPECT_EQ(RunCli({"info", trc}), 0);
}

TEST(TraceStreamCli, ImportRejectsGarbageWithLineNumber) {
  const std::string txt = TempPath("cli_garbage.txt");
  const std::string trc = TempPath("cli_garbage.trc");
  std::remove(trc.c_str());
  {
    std::ofstream out(txt);
    out << "0.000000\tunlink\tfile=1\tuser=0\n"
        << "not a record at all\n";
  }
  std::string err;
  EXPECT_EQ(RunCaptured({"import", txt, trc}, &err), 1);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(FileExists(trc));
}

// A small inline strace log drives the adapter end to end through the CLI:
// import (validated), then the standard analysis.
TEST(TraceStreamCli, ImportStraceLogAndAnalyze) {
  const std::string log = TempPath("cli_strace.log");
  const std::string trc = TempPath("cli_strace.trc");
  {
    std::ofstream out(log);
    out << "100.000001 open(\"/etc/passwd\", O_RDONLY) = 3\n"
        << "100.000002 read(3, \"root\", 4096) = 2048\n"
        << "100.000003 close(3) = 0\n"
        << "100.000004 creat(\"/tmp/out\", 0644) = 3\n"
        << "100.000005 write(3, \"x\", 512) = 512\n"
        << "100.000006 close(3) = 0\n"
        << "100.000007 unlink(\"/tmp/out\") = 0\n";
  }
  ASSERT_EQ(RunCli({"import", log, trc, "--format=strace"}), 0);
  EXPECT_EQ(RunCli({"info", trc}), 0);
  EXPECT_EQ(RunCli({"analyze", trc, "--threads=1"}), 0);
}

TEST(TraceStreamCli, ImportExportUsageErrors) {
  std::string err;
  // Wrong arity and unknown format are usage errors (exit 2).
  EXPECT_EQ(RunCaptured({"import", "only_one_arg"}, &err), 2);
  EXPECT_EQ(RunCaptured({"import", "a", "b", "--format=xml"}, &err), 2);
  EXPECT_NE(err.find("invalid --format"), std::string::npos) << err;
  EXPECT_EQ(RunCaptured({"export", "a", "b"}, &err), 2);
  // export does not take import's flags.
  EXPECT_EQ(RunCaptured({"export", "a.trc", "--format=strace"}, &err), 2);
  EXPECT_NE(err.find("not accepted"), std::string::npos) << err;
  // Missing input is a runtime failure (exit 1), not usage.
  EXPECT_EQ(RunCaptured({"import", TempPath("no_such.txt"), TempPath("x.trc")}, &err), 1);
  EXPECT_EQ(RunCaptured({"export", TempPath("no_such.trc")}, &err), 1);
}

// export --out publishes through a temporary file: a read error in the
// second block fails the export (exit 1) without touching an existing --out
// file or leaving the temporary behind.
TEST(TraceStreamCli, FailedExportLeavesExistingOutputUntouched) {
  TraceBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.WholeRead(2.0 * i, 2.0 * i + 1.0, /*oid=*/i + 1, /*file=*/10 + i % 37, 4096 + 97 * i);
  }
  const Trace trace = b.Build();
  const std::string path = TempPath("cli_export_v3.trc");
  std::vector<TraceBlockIndexEntry> index;
  {
    TraceWriterOptions options;
    options.version = 3;
    options.block_target_bytes = 2048;
    TraceFileWriter writer(path, trace.header(), static_cast<int64_t>(trace.size()), options);
    for (const TraceRecord& r : trace.records()) {
      writer.Append(r);
    }
    ASSERT_TRUE(writer.Finish().ok());
    index = writer.index();
  }
  ASSERT_GT(index.size(), 2u);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const size_t victim = (index[1].offset + index[2].offset) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x10);
  const std::string bad = TempPath("cli_export_v3_bad_second_block.trc");
  {
    std::ofstream o(bad, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const std::string out = TempPath("cli_export_existing.txt");
  const std::string previous = "# machine earlier export\n";
  {
    std::ofstream o(out, std::ios::binary | std::ios::trunc);
    o << previous;
  }
  std::string err;
  EXPECT_EQ(RunCaptured({"export", bad, "--out=" + out}, &err), 1);
  EXPECT_NE(err.find("export failed"), std::string::npos) << err;
  {
    std::ifstream in(out, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()),
              previous);
  }
  EXPECT_FALSE(FileExists(out + ".tmp-" + std::to_string(::getpid())));

  // The intact file exports over it.
  EXPECT_EQ(RunCaptured({"export", path, "--out=" + out}, &err), 0) << err;
  EXPECT_FALSE(FileExists(out + ".tmp-" + std::to_string(::getpid())));
  {
    std::ifstream in(out, std::ios::binary);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "# machine " + trace.header().machine);
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
  std::remove(out.c_str());
}

// -- validate / slice / users / top -------------------------------------------

// Runs the CLI with stdout captured; returns the exit code.
int RunStdout(const std::vector<std::string>& args, std::string* out) {
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(args);
  *out = ::testing::internal::GetCapturedStdout();
  return rc;
}

// The four whole-trace commands on a v3 (--compress=none) and a v4
// (--compress=ans) generated file.
TEST(TraceStreamCli, ValidateSliceUsersTopOnV3AndV4) {
  for (const std::string compress : {"none", "ans"}) {
    const std::string in = TempPath("cli_whole_" + compress + ".trc");
    const std::string cut = TempPath("cli_whole_" + compress + "_slice.trc");
    ASSERT_EQ(RunCli({"generate", in, "--profile=A5", "--hours=0.5", "--shards=2",
                      "--threads=2", "--seed=5", "--compress=" + compress}),
              0);
    {
      TraceFileReader reader(in);
      EXPECT_EQ(reader.version(), compress == "ans" ? 4 : 3);
    }
    auto loaded = LoadTrace(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const Trace& trace = loaded.value();

    std::string out;
    EXPECT_EQ(RunStdout({"validate", in}, &out), 0) << compress;
    EXPECT_EQ(out.find(std::to_string(trace.size()) + " records\n"), 0u) << out;
    EXPECT_NE(out.find("trace is structurally valid"), std::string::npos) << out;

    EXPECT_EQ(RunStdout({"users", in}, &out), 0) << compress;
    std::string expected_users = "user\tevents\n";
    for (const auto& [user, events] : CountEventsByUser(trace)) {
      expected_users += std::to_string(user) + "\t" + std::to_string(events) + "\n";
    }
    EXPECT_EQ(out, expected_users);

    EXPECT_EQ(RunStdout({"top", in, "3"}, &out), 0) << compress;
    EXPECT_NE(out.find("distinct files"), std::string::npos) << out;
    EXPECT_NE(out.find("top 3 files' access share"), std::string::npos) << out;
    EXPECT_NE(out.find("top 3 files' byte share"), std::string::npos) << out;
    EXPECT_NE(out.find("files covering 90% of accesses"), std::string::npos) << out;
    EXPECT_EQ(RunStdout({"top", in}, &out), 0);
    EXPECT_NE(out.find("top 10 files"), std::string::npos) << out;

    // The slice holds exactly SliceByTime's records, written as v4 with the
    // requested block codec.
    EXPECT_EQ(RunStdout({"slice", in, cut, "300", "1200.5", "--compress=" + compress}, &out),
              0);
    const Trace expected =
        SliceByTime(trace, SimTime::FromMicros(300'000'000), SimTime::FromMicros(1'200'500'000));
    EXPECT_GT(expected.size(), 0u);
    EXPECT_LT(expected.size(), trace.size());
    EXPECT_EQ(out, "wrote " + std::to_string(expected.size()) + " of " +
                       std::to_string(trace.size()) + " records\n");
    auto sliced = LoadTrace(cut);
    ASSERT_TRUE(sliced.ok()) << sliced.status().message();
    EXPECT_EQ(sliced.value(), expected);
    {
      TraceFileReader reader(cut);
      EXPECT_EQ(reader.version(), 4);
    }
    EXPECT_EQ(RunStdout({"validate", cut}, &out), 0) << out;
    std::remove(in.c_str());
    std::remove(cut.c_str());
  }
}

// A v4 file whose first block fails verification: info must not report a
// codec or a compression ratio it never read (an unverified file is not an
// uncompressed one).
TEST(TraceStreamCli, InfoOnV4WithCorruptFirstBlockReportsUnknownCodec) {
  TraceBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.WholeRead(2.0 * i, 2.0 * i + 1.0, /*oid=*/i + 1, /*file=*/10 + i % 37, 4096 + 97 * i);
  }
  const Trace trace = b.Build();
  const std::string path = TempPath("cli_info_v4.trc");
  std::vector<TraceBlockIndexEntry> index;
  {
    TraceWriterOptions options;
    options.version = 4;
    options.block_target_bytes = 2048;
    TraceFileWriter writer(path, trace.header(), static_cast<int64_t>(trace.size()), options);
    for (const TraceRecord& r : trace.records()) {
      writer.Append(r);
    }
    ASSERT_TRUE(writer.Finish().ok());
    index = writer.index();
  }
  ASSERT_GT(index.size(), 1u);
  std::string out;
  EXPECT_EQ(RunStdout({"info", path}, &out), 0);
  EXPECT_NE(out.find("codec:       ans"), std::string::npos) << out;

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const size_t victim = (index[0].offset + index[1].offset) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x10);
  const std::string bad = TempPath("cli_info_v4_bad_first_block.trc");
  {
    std::ofstream o(bad, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(RunStdout({"info", bad}, &out), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("integrity check failed"), std::string::npos) << err;
  EXPECT_NE(out.find("checksums:   0 blocks"), std::string::npos) << out;
  EXPECT_NE(out.find("codec:       unknown (no block verified)"), std::string::npos) << out;
  EXPECT_EQ(out.find("codec:       none"), std::string::npos) << out;
  EXPECT_EQ(out.find("compressed:"), std::string::npos) << out;
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(TraceStreamCli, ValidateFailsOnInvalidTrace) {
  TraceBuilder b;
  b.Close(1.0, /*oid=*/9, /*file=*/2, 10, 10);  // closes an id never opened
  const std::string path = TempPath("cli_validate_bad.trc");
  ASSERT_TRUE(SaveTrace(path, b.Build()).ok());
  std::string out;
  EXPECT_EQ(RunStdout({"validate", path}, &out), 1);
  EXPECT_NE(out.find("trace is INVALID"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(TraceStreamCli, WholeTraceCommandUsageErrors) {
  const std::string in = TempPath("cli_whole_usage.trc");
  const std::string cut = TempPath("cli_whole_usage_slice.trc");
  TraceBuilder b;
  b.WholeRead(1.0, 2.0, /*oid=*/1, /*file=*/2, /*size=*/4096);
  ASSERT_TRUE(SaveTrace(in, b.Build()).ok());
  std::string err;
  // Missing or extra positionals: usage, exit 2.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"validate"}, {"users"}, {"top"}, {"slice"}, {"slice", in},
           {"slice", in, cut}, {"slice", in, cut, "0"}, {"validate", in, "extra"},
           {"users", in, "extra"}, {"top", in, "3", "extra"}}) {
    EXPECT_EQ(RunCaptured(args, &err), 2) << args.size() << " args to " << args[0];
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
  }
  // Malformed numbers reject as strictly as every other numeric argument:
  // no trailing garbage, no signs, no exponents.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"slice", in, cut, "abc", "10"}, {"slice", in, cut, "1.5x", "10"},
           {"slice", in, cut, "-1", "10"}, {"slice", in, cut, "0", "10s"},
           {"slice", in, cut, "0", "1e3"}, {"slice", in, cut, "0", ""},
           {"top", in, "5x"}, {"top", in, "-1"}}) {
    EXPECT_EQ(RunCaptured(args, &err), 2) << "accepted: " << args.back();
    EXPECT_NE(err.find("invalid"), std::string::npos) << err;
  }
  EXPECT_EQ(RunCaptured({"slice", in, cut, "10", "5"}, &err), 2);
  EXPECT_NE(err.find("to_s 5 is before from_s 10"), std::string::npos) << err;
  EXPECT_FALSE(FileExists(cut)) << "a rejected slice wrote a trace";

  // slice shares import's --compress; the others take no flags.
  EXPECT_EQ(RunCaptured({"slice", in, cut, "0", "10", "--compress=zip"}, &err), 2);
  EXPECT_NE(err.find("invalid --compress"), std::string::npos) << err;
  // The retired codec's name is no alias: the usage error names the new one.
  EXPECT_EQ(RunCaptured({"slice", in, cut, "0", "10", "--compress=lz"}, &err), 2);
  EXPECT_NE(err.find("invalid --compress \"lz\""), std::string::npos) << err;
  EXPECT_NE(err.find("--compress=none|ans"), std::string::npos) << err;
  EXPECT_EQ(RunCaptured({"users", in, "--compress=ans"}, &err), 2);
  EXPECT_NE(err.find("not accepted"), std::string::npos) << err;
  std::string help;
  EXPECT_EQ(RunStdout({"slice", "--help"}, &help), 0);
  EXPECT_NE(help.find("--compress=none|ans"), std::string::npos) << help;

  // A missing input is a runtime failure (exit 1), not usage.
  for (const std::string cmd : {"validate", "users", "top"}) {
    EXPECT_EQ(RunCaptured({cmd, TempPath("no_such.trc")}, &err), 1) << cmd;
    EXPECT_NE(err.find("cannot read"), std::string::npos) << err;
  }
  EXPECT_EQ(RunCaptured({"slice", TempPath("no_such.trc"), cut, "0", "10"}, &err), 1);
  std::remove(in.c_str());
}

// -- report -------------------------------------------------------------------

// report renders every section once, in paper order, from short standard
// traces, and exits 0 when every parity check holds.  It takes no arguments.
TEST(TraceStreamCli, ReportRendersEverySection) {
  std::string err;
  EXPECT_EQ(RunCaptured({"report", "extra"}, &err), 2);
  EXPECT_EQ(RunCaptured({"report", "--hours=1"}, &err), 2);

  setenv("BSDTRACE_HOURS", "0.5", 1);
  std::string out;
  const int rc = RunStdout({"report"}, &out);
  unsetenv("BSDTRACE_HOURS");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("0.5 simulated hours"), std::string::npos) << out;
  const std::vector<std::string> headings = {
      "Table I — selected results",
      "Table III — overall statistics",
      "Table IV — system activity",
      "Table V — sequentiality",
      "Figure 1 — sequential run lengths",
      "Figure 2 — dynamic file sizes",
      "Figure 3 — open durations",
      "Figure 4 — file lifetimes",
      "Figure 5 / Table VI — cache size and write policy",
      "Figure 6 / Table VII — block size",
      "Figure 7 — simulated program page-in",
      "ablation — cache replacement policy",
      "ablation — run billing time",
      "ablation — flush-back interval sweep",
      "extension — i-node and directory overhead",
      "extension — one-pass stack-distance analysis",
      "extension — client/server cache hierarchy",
      "extension — file popularity",
      "extension — working-set sizes",
  };
  size_t previous = 0;
  for (const std::string& heading : headings) {
    const size_t at = out.find(heading);
    ASSERT_NE(at, std::string::npos) << heading;
    EXPECT_EQ(out.find(heading, at + 1), std::string::npos) << "repeated: " << heading;
    EXPECT_GT(at, previous) << "out of order: " << heading;
    previous = at;
  }
}

}  // namespace
}  // namespace bsdtrace
