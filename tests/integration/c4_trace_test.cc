// C4 (ucbcad) specific end-to-end checks: the CAD machine must show the
// paper's distinguishing signatures relative to the development machines.

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/trace/validate.h"
#include "src/workload/generator.h"
#include "tests/testing/analyze_helpers.h"

namespace bsdtrace {
namespace {

class C4TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.duration = Duration::Hours(6);
    options.seed = 404;
    c4_ = new TraceAnalysis(AnalyzeForTest(GenerateTrace(ProfileC4(), options).trace));
    a5_ = new TraceAnalysis(AnalyzeForTest(GenerateTrace(ProfileA5(), options).trace));
  }
  static void TearDownTestSuite() {
    delete c4_;
    delete a5_;
  }

  static TraceAnalysis* c4_;
  static TraceAnalysis* a5_;
};

TraceAnalysis* C4TraceTest::c4_ = nullptr;
TraceAnalysis* C4TraceTest::a5_ = nullptr;

TEST_F(C4TraceTest, FewerUsersThanA5) {
  // Paper: ~10 active users on ucbcad vs a few dozen on the others.
  EXPECT_LT(c4_->activity.ten_minute.active_users.mean(),
            a5_->activity.ten_minute.active_users.mean());
}

TEST_F(C4TraceTest, BiggerFilesCarryTheBytes) {
  // Paper Fig. 2(b): the CAD trace moves its bytes through larger files.
  EXPECT_LT(c4_->file_sizes.by_bytes.FractionAtOrBelow(10 * 1024),
            a5_->file_sizes.by_bytes.FractionAtOrBelow(10 * 1024));
}

TEST_F(C4TraceTest, HigherPerUserThroughput) {
  // Paper Table IV: 570 B/s per active user on C4 vs 370 on A5.
  EXPECT_GT(c4_->activity.ten_minute.throughput_per_user.mean(),
            a5_->activity.ten_minute.throughput_per_user.mean());
}

TEST_F(C4TraceTest, SimulationListingsDieYoungByBytes) {
  // CAD listings are written, examined, and deleted: a large share of new
  // bytes dies within the session.
  EXPECT_GT(c4_->lifetimes.by_bytes.FractionAtOrBelow(600.0), 0.5);
}

TEST_F(C4TraceTest, StillMostlySequential) {
  // Paper §7: "the results are similar in all three traces" despite the
  // different application domain.
  EXPECT_GT(c4_->sequentiality.Mode(AccessMode::kReadOnly).SequentialFraction(), 0.8);
  EXPECT_GT(c4_->sequentiality.Mode(AccessMode::kWriteOnly).SequentialFraction(), 0.9);
}

}  // namespace
}  // namespace bsdtrace
