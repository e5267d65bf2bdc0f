// Round-trip tests for the machine-readable CSV export: every figure CSV
// must parse back into the fractions the analysis holds, and a missing
// output directory must surface as a clean Status, not a silent no-op or a
// crash.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/core/experiments.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"

namespace bsdtrace {
namespace {

namespace fs = std::filesystem;

// Scratch names carry the pid: ctest may run these cases concurrently.
// Parses a CSV written by CsvWriter.  The export cells never contain
// commas/quotes, so a plain split is exact.
std::vector<std::vector<std::string>> ParseCsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      cells.push_back(cell);
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

class CsvExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.duration = Duration::Minutes(20);
    options.seed = 424242;
    analysis_ = new TraceAnalysis(AnalyzeForTest(GenerateTrace(ProfileA5(), options).trace));
  }
  static void TearDownTestSuite() {
    delete analysis_;
    analysis_ = nullptr;
  }

  static const TraceAnalysis* analysis_;
};

const TraceAnalysis* CsvExportTest::analysis_ = nullptr;

TEST_F(CsvExportTest, FigureCsvsRoundTrip) {
  const fs::path dir = fs::path(TempPath("bsdtrace-csv-test"));
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  const std::vector<NamedAnalysis> traces = {{"A5", analysis_}};

  const Status st = ExportFigureCsvs(dir.string(), traces);
  ASSERT_TRUE(st.ok()) << st.message();

  const struct {
    const char* file;
    size_t columns;  // x + one per panel per trace
  } expected[] = {
      {"fig1_runs.csv", 3},       // run_length_kb, A5_runs, A5_bytes
      {"fig2_filesizes.csv", 3},  // file_size_kb, A5_files, A5_bytes
      {"fig3_opentimes.csv", 2},  // open_time_s, A5_files
      {"fig4_lifetimes.csv", 3},  // lifetime_s, A5_files, A5_bytes
  };
  for (const auto& e : expected) {
    const std::string path = (dir / e.file).string();
    ASSERT_TRUE(fs::exists(path)) << path;
    const auto rows = ParseCsv(path);
    ASSERT_GT(rows.size(), 2u) << path;
    ASSERT_EQ(rows[0].size(), e.columns) << path;
    // Every data cell parses as a number; fraction columns are within [0, 1]
    // and non-decreasing down the rows (they are CDF samples).
    std::vector<double> prev(e.columns, 0.0);
    for (size_t i = 1; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].size(), e.columns) << path << " row " << i;
      for (size_t c = 0; c < e.columns; ++c) {
        const double v = std::stod(rows[i][c]);
        if (c > 0) {
          EXPECT_GE(v, 0.0) << path << " row " << i;
          EXPECT_LE(v, 1.0) << path << " row " << i;
          EXPECT_GE(v, prev[c]) << path << " row " << i << " col " << c;
        } else {
          EXPECT_GT(v, prev[c]) << path << " x must increase, row " << i;
        }
        prev[c] = v;
      }
    }
  }
  // Spot-check one value against the analysis it came from: fig1 row 1 is
  // the fraction of runs at or below 0.25 KB.  Cells carry 4 decimals.
  const auto fig1 = ParseCsv((dir / "fig1_runs.csv").string());
  EXPECT_NEAR(std::stod(fig1[1][1]),
              analysis_->runs.by_runs.FractionAtOrBelow(0.25 * 1024.0), 5e-5);
  fs::remove_all(dir);
}

TEST_F(CsvExportTest, MissingDirectoryIsCleanError) {
  const fs::path dir = fs::path(TempPath("bsdtrace-csv-test-missing")) / "nested";
  fs::remove_all(dir.parent_path());
  const std::vector<NamedAnalysis> traces = {{"A5", analysis_}};
  const Status st = ExportFigureCsvs(dir.string(), traces);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cannot open"), std::string::npos) << st.message();
}

TEST(SweepCsvExport, RoundTripsPoints) {
  std::vector<SweepPoint> points(2);
  points[0].config.size_bytes = 400 << 10;
  points[0].config.block_size = 4096;
  points[0].config.policy = WritePolicy::kWriteThrough;
  points[0].metrics.logical_accesses = 1000;
  points[0].metrics.disk_reads = 150;
  points[0].metrics.disk_writes = 50;
  points[1].config.size_bytes = 4u << 20;
  points[1].config.block_size = 8192;
  points[1].config.policy = WritePolicy::kFlushBack;
  points[1].config.flush_interval = Duration::Seconds(30);
  points[1].metrics.logical_accesses = 2000;
  points[1].metrics.disk_reads = 100;
  points[1].metrics.disk_writes = 300;

  const std::string path =
      TempPath("bsdtrace-csv-test-sweep.csv");
  const Status st = ExportSweepCsv(path, points);
  ASSERT_TRUE(st.ok()) << st.message();

  const auto rows = ParseCsv(path);
  ASSERT_EQ(rows.size(), 3u);  // header + 2 points
  ASSERT_EQ(rows[0].size(), 10u);
  EXPECT_EQ(rows[0][0], "cache_bytes");
  EXPECT_EQ(std::stoull(rows[1][0]), points[0].config.size_bytes);
  EXPECT_EQ(std::stoul(rows[1][1]), points[0].config.block_size);
  EXPECT_EQ(std::stoull(rows[1][6]), points[0].metrics.logical_accesses);
  EXPECT_EQ(std::stoull(rows[1][7]), points[0].metrics.disk_reads);
  EXPECT_EQ(std::stoull(rows[1][8]), points[0].metrics.disk_writes);
  EXPECT_NEAR(std::stod(rows[1][9]), points[0].metrics.MissRatio(), 1e-5);
  EXPECT_NEAR(std::stod(rows[2][9]), points[1].metrics.MissRatio(), 1e-5);
  std::remove(path.c_str());
}

TEST(SweepCsvExport, MissingDirectoryIsCleanError) {
  const std::string path =
      (fs::path(TempPath("bsdtrace-csv-test-no-dir")) / "fig5.csv").string();
  const Status st = ExportSweepCsv(path, {});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cannot open"), std::string::npos) << st.message();
}

// A write the device refuses must come back as an error, not as an export
// the caller reports done: /dev/full accepts the open and fails every flush.
// ExportFigureCsvs reaches it through a symlink named like its first file.
TEST(CsvExport, WriteFailureIsReported) {
  if (!fs::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  std::vector<SweepPoint> points(2000);
  std::vector<SweepCurve> curves(1);
  curves[0].size_bytes = {256 << 10, 512 << 10};
  curves[0].fetch_misses = {10, 5};
  curves[0].fetch_miss_ratios = {0.1, 0.05};
  std::vector<HierarchyPoint> hierarchy(60);
  const std::vector<std::pair<std::string, Status>> exports = {
      {"sweep", ExportSweepCsv("/dev/full", points)},
      {"curve", ExportCurveCsv("/dev/full", curves)},
      {"hierarchy", ExportHierarchyCsv("/dev/full", hierarchy)},
  };
  for (const auto& [name, st] : exports) {
    EXPECT_FALSE(st.ok()) << name;
    EXPECT_NE(st.message().find("write failed"), std::string::npos)
        << name << ": " << st.message();
  }

  const fs::path dir = TempPath("bsdtrace-csv-test-full");
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / "fig1_runs.csv");
  const TraceAnalysis empty;
  const Status st = ExportFigureCsvs(dir.string(), {{"A5", &empty}});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("write failed"), std::string::npos) << st.message();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bsdtrace
