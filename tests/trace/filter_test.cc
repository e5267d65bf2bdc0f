#include "src/trace/filter.h"

#include <gtest/gtest.h>

#include "src/trace/validate.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

Trace SampleTrace() {
  TraceBuilder b;
  b.WholeRead(1, 2, 1, 10, 100, 5);      // user 5, inside [0, 10)
  b.WholeWrite(3, 4, 2, 11, 200, 6);     // user 6
  b.Unlink(5, 11, 6);
  b.Open(8, 3, 12, 1000, AccessMode::kReadOnly, 5);
  b.Close(12, 3, 12, 1000, 1000);        // straddles a boundary at t=10
  b.Execve(15, 13, 5000, 7);
  return b.Build();
}

TEST(SliceByTime, KeepsOnlyFullyContainedAccesses) {
  const Trace slice = SliceByTime(SampleTrace(), SimTime::FromSeconds(0),
                                  SimTime::FromSeconds(10), /*rebase=*/false);
  // Access 3 (open t=8, close t=12) straddles the boundary: dropped whole.
  for (const TraceRecord& r : slice.records()) {
    EXPECT_NE(r.open_id, 3u);
  }
  // Accesses 1 and 2 and the unlink survive.
  EXPECT_EQ(slice.size(), 5u);
  EXPECT_TRUE(ValidateTrace(slice).ok());
}

TEST(SliceByTime, RebaseShiftsTimesToZero) {
  const Trace slice =
      SliceByTime(SampleTrace(), SimTime::FromSeconds(3), SimTime::FromSeconds(6));
  ASSERT_FALSE(slice.empty());
  EXPECT_EQ(slice.records().front().time, SimTime::Origin());
  EXPECT_LT(slice.duration(), Duration::Seconds(3));
}

TEST(SliceByTime, EmptyWindow) {
  const Trace slice =
      SliceByTime(SampleTrace(), SimTime::FromSeconds(100), SimTime::FromSeconds(200));
  EXPECT_TRUE(slice.empty());
}

TEST(SliceByTime, FullWindowKeepsEverything) {
  const Trace original = SampleTrace();
  const Trace slice = SliceByTime(original, SimTime::Origin(), SimTime::FromSeconds(1000),
                                  /*rebase=*/false);
  EXPECT_EQ(slice.records(), original.records());
}

TEST(CountEventsByUser, AttributesClosesToOpeningUser) {
  const auto counts = CountEventsByUser(SampleTrace());
  // User 5: open+close (access 1) + open+close (access 3) = 4.
  EXPECT_EQ(counts.at(5), 4u);
  // User 6: create+close+unlink = 3.
  EXPECT_EQ(counts.at(6), 3u);
  EXPECT_EQ(counts.at(7), 1u);
}

TEST(CountEventsByUser, EmptyTrace) {
  EXPECT_TRUE(CountEventsByUser(Trace{}).empty());
}

}  // namespace
}  // namespace bsdtrace
