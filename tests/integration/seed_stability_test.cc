// Seed-stability properties: the workload calibration must not be a
// single-seed accident.  For several seeds, the headline distribution bands
// of the paper hold on short A5 traces.

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/trace/validate.h"
#include "tests/testing/analyze_helpers.h"
#include "src/workload/generator.h"

namespace bsdtrace {
namespace {

class SeedStability : public ::testing::TestWithParam<uint64_t> {
 protected:
  TraceAnalysis Analyze() {
    GeneratorOptions options;
    options.duration = Duration::Hours(3);
    options.seed = GetParam();
    const Trace trace = GenerateTrace(ProfileA5(), options).trace;
    const ValidationResult v = ValidateTrace(trace);
    EXPECT_TRUE(v.ok()) << v.Summary();
    return AnalyzeForTest(trace);
  }
};

TEST_P(SeedStability, HeadlineBandsHold) {
  const TraceAnalysis a = Analyze();

  // Sequentiality (Table V bands, with slack for short traces).
  EXPECT_GT(a.sequentiality.Mode(AccessMode::kReadOnly).SequentialFraction(), 0.85);
  EXPECT_GT(a.sequentiality.Mode(AccessMode::kWriteOnly).SequentialFraction(), 0.90);
  const ModeSequentiality total = a.sequentiality.Total();
  const double whole =
      static_cast<double>(total.whole_file) / static_cast<double>(total.accesses);
  EXPECT_GT(whole, 0.5);

  // Short files dominate accesses (Fig. 2a).
  EXPECT_GT(a.file_sizes.by_accesses.FractionAtOrBelow(10 * 1024), 0.55);

  // Opens are mostly short with a real tail (Fig. 3).
  EXPECT_GT(a.open_times.seconds.FractionAtOrBelow(0.5), 0.6);
  EXPECT_LT(a.open_times.seconds.FractionAtOrBelow(10.0), 0.999);

  // The 180 s daemon spike exists (Fig. 4).
  EXPECT_GT(a.lifetimes.FileFractionIn(175, 185), 0.1);

  // Event-mix sanity (Table III): opens+creates and closes balance, seeks
  // are a real minority, truncates are rare.
  const uint64_t opens =
      a.overall.Count(EventType::kOpen) + a.overall.Count(EventType::kCreate);
  EXPECT_NEAR(static_cast<double>(a.overall.Count(EventType::kClose)),
              static_cast<double>(opens), static_cast<double>(opens) * 0.05);
  EXPECT_GT(a.overall.Fraction(EventType::kSeek), 0.03);
  EXPECT_LT(a.overall.Fraction(EventType::kTruncate), 0.01);

  // Per-user throughput in the paper's order of magnitude.
  const double tpu = a.activity.ten_minute.throughput_per_user.mean();
  EXPECT_GT(tpu, 50.0);
  EXPECT_LT(tpu, 5000.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability,
                         ::testing::Values(1u, 1985u, 424242u, 7u, 900001u));

}  // namespace
}  // namespace bsdtrace
