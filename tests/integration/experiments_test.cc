// Tests for the core experiment facade: render functions produce the
// paper-shaped reports from real (small) inputs.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"

namespace bsdtrace {
namespace {

class ExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.duration = Duration::Hours(2);
    options.seed = 11;
    result_ = new GenerationResult(GenerateTrace(ProfileA5(), options));
    analysis_ = new TraceAnalysis(AnalyzeForTest(result_->trace));
    log_ = new ReplayLog(ReplayLog::Build(result_->trace));
  }
  static void TearDownTestSuite() {
    delete log_;
    delete analysis_;
    delete result_;
  }

  std::vector<NamedAnalysis> Named() { return {{"A5", analysis_}}; }

  static GenerationResult* result_;
  static TraceAnalysis* analysis_;
  static ReplayLog* log_;
};

GenerationResult* ExperimentsTest::result_ = nullptr;
TraceAnalysis* ExperimentsTest::analysis_ = nullptr;
ReplayLog* ExperimentsTest::log_ = nullptr;

TEST_F(ExperimentsTest, Table3MentionsEveryEventType) {
  const std::string out = RenderTable3(Named());
  for (const char* label : {"create", "open", "close", "seek", "unlink", "truncate", "execve"}) {
    EXPECT_NE(out.find(label), std::string::npos) << label;
  }
  EXPECT_NE(out.find("Table III"), std::string::npos);
}

TEST_F(ExperimentsTest, Table4HasActivityRows) {
  const std::string out = RenderTable4(Named());
  EXPECT_NE(out.find("active users"), std::string::npos);
  EXPECT_NE(out.find("throughput"), std::string::npos);
}

TEST_F(ExperimentsTest, Table5HasSequentialityRows) {
  const std::string out = RenderTable5(Named());
  EXPECT_NE(out.find("Whole-file read transfers"), std::string::npos);
  EXPECT_NE(out.find("Sequential read-write accesses"), std::string::npos);
}

TEST_F(ExperimentsTest, FiguresRenderWithPlots) {
  for (const std::string& out :
       {RenderFigure1(Named()), RenderFigure2(Named()), RenderFigure3(Named()),
        RenderFigure4(Named())}) {
    EXPECT_GT(out.size(), 500u);
    EXPECT_NE(out.find('%'), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);  // plot axis present
  }
}

TEST_F(ExperimentsTest, EventIntervalsReportsPaperBands) {
  const std::string out = RenderEventIntervals(Named());
  EXPECT_NE(out.find("0.5 s"), std::string::npos);
  EXPECT_NE(out.find("Paper"), std::string::npos);
}

TEST_F(ExperimentsTest, CacheRenderingsCoverAxes) {
  // A tiny sweep is enough to exercise the rendering paths.
  std::vector<CacheConfig> fig5;
  for (const CacheConfig& c : Fig5Configs()) {
    if (c.size_bytes <= (1u << 20)) {
      fig5.push_back(c);
    }
  }
  const auto fig5_points = RunCacheSweep(*log_, fig5);
  const std::string out5 = RenderFigure5Table6(fig5_points);
  EXPECT_NE(out5.find("Write-Through"), std::string::npos);
  EXPECT_NE(out5.find("Delayed Write"), std::string::npos);
  EXPECT_NE(out5.find("30 Sec Flush"), std::string::npos);
  EXPECT_NE(out5.find("5 Min Flush"), std::string::npos);

  std::vector<CacheConfig> fig6;
  for (const CacheConfig& c : Fig6Configs()) {
    if (c.size_bytes <= (2u << 20)) {
      fig6.push_back(c);
    }
  }
  const auto fig6_points = RunCacheSweep(*log_, fig6);
  const std::string out6 = RenderFigure6Table7(fig6_points);
  EXPECT_NE(out6.find("Block Accesses"), std::string::npos);
  EXPECT_NE(out6.find("Best Block Size"), std::string::npos);

  const auto fig7_points = RunCacheSweep(*log_, Fig7Configs());
  const std::string out7 = RenderFigure7(fig7_points);
  EXPECT_NE(out7.find("Page-in ignored"), std::string::npos);
  EXPECT_NE(out7.find("Page-in simulated"), std::string::npos);

  const std::string sidebar = RenderWriteLifetimeSidebar(fig5_points);
  EXPECT_NE(sidebar.find("delayed-write"), std::string::npos);

  const std::string table1 = RenderTable1(*analysis_, fig5_points, fig6_points);
  EXPECT_NE(table1.find("Table I"), std::string::npos);
  EXPECT_NE(table1.find("Whole-file"), std::string::npos);
}

TEST_F(ExperimentsTest, CsvExportWritesFigureSeries) {
  const std::string dir = TempPath("figure_csvs");
  std::filesystem::create_directories(dir);
  const Status st = ExportFigureCsvs(dir, Named());
  ASSERT_TRUE(st.ok()) << st.message();
  for (const char* name : {"fig1_runs.csv", "fig2_filesizes.csv", "fig3_opentimes.csv",
                           "fig4_lifetimes.csv"}) {
    std::ifstream in(dir + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("A5"), std::string::npos) << name;
    std::string row;
    std::getline(in, row);
    EXPECT_FALSE(row.empty()) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ExperimentsTest, CsvExportSweep) {
  const std::string path = TempPath("sweep.csv");
  const auto points = RunCacheSweep(*log_, Fig7Configs());
  ASSERT_TRUE(ExportSweepCsv(path, points).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, points.size() + 1);  // header + one row per point
  std::filesystem::remove(path);
}

TEST(CsvExport, BadDirectoryFails) {
  TraceAnalysis empty;
  EXPECT_FALSE(ExportFigureCsvs("/nonexistent/dir", {{"X", &empty}}).ok());
  EXPECT_FALSE(ExportSweepCsv("/nonexistent/dir/s.csv", {}).ok());
}

TEST(StandardDurationTest, EnvOverride) {
  setenv("BSDTRACE_HOURS", "3.5", 1);
  EXPECT_DOUBLE_EQ(StandardDuration().hours(), 3.5);
  setenv("BSDTRACE_HOURS", "garbage", 1);
  EXPECT_DOUBLE_EQ(StandardDuration().hours(), 24.0);
  unsetenv("BSDTRACE_HOURS");
  EXPECT_DOUBLE_EQ(StandardDuration().hours(), 24.0);
}

TEST(GenerateStandardTrace, NamesSelectProfiles) {
  setenv("BSDTRACE_HOURS", "0.1", 1);
  EXPECT_EQ(GenerateStandardTrace("A5").trace.header().machine, "ucbarpa");
  EXPECT_EQ(GenerateStandardTrace("C4").trace.header().machine, "ucbcad");
  unsetenv("BSDTRACE_HOURS");
}

}  // namespace
}  // namespace bsdtrace
