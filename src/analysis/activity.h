// System-activity measurements (paper Table IV).
//
// A user is "active" in an interval if any trace event for that user falls
// in the interval.  Throughput per active user is the user's reconstructed
// bytes in the interval divided by the interval length, averaged across all
// (interval, active user) pairs — exactly the paper's definition, including
// the property that 10-second intervals show fewer, burstier users than
// 10-minute intervals.
//
// Two operating modes.  The streaming mode keeps one open window per
// interval length and folds each interval into Welford accumulators as it
// completes.  The segment mode (parallel analysis) instead records an
// order-free summary per touched interval — the active-user set and per-user
// byte totals, both exact integers — which ActivitySegment::Merge can
// combine across segments and Finalize replays in ascending interval order,
// reproducing the streaming mode's accumulator updates bit for bit.

#ifndef BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
#define BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_

#include <map>
#include <set>
#include <unordered_map>

#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct IntervalActivity {
  Duration interval_length;
  // Distribution of the number of active users per interval.
  RunningStats active_users;
  // Distribution of per-active-user throughput (bytes/second).
  RunningStats throughput_per_user;
  int64_t max_active_users = 0;
  uint64_t intervals = 0;
};

struct ActivityStats {
  Duration duration;
  uint64_t total_bytes = 0;
  // Bytes/second over the life of the trace.
  double average_throughput = 0.0;
  uint64_t distinct_users = 0;
  IntervalActivity ten_minute;
  IntervalActivity ten_second;
};

// Order-free per-interval summary of one window length: which users were
// active and how many reconstructed bytes each moved.  Ordered maps keep the
// replay order deterministic without re-sorting.
//
// Intervals no later record can touch may be closed: they are replayed into
// `closed` once and dropped, so Finalize() only replays the open ones.
struct ActivityWindowSegment {
  struct Interval {
    std::set<UserId> active;
    std::map<UserId, uint64_t> bytes;  // only users with bytes > 0
  };

  explicit ActivityWindowSegment(Duration length) : length(length) {}

  Duration length;
  std::map<int64_t, Interval> intervals;  // open: interval index -> summary
  IntervalActivity closed;                // replay of the closed intervals
  int64_t last_closed = -1;               // index of the last closed interval

  void Touch(SimTime t, UserId user, uint64_t bytes);
  // Absorbs other's intervals, all of which must still be open here.
  void Merge(const ActivityWindowSegment& other);
  // Closes the intervals that end at or before `t`.  Later Touch/Merge calls
  // must not reach them.
  void CloseBefore(SimTime t);
  // Replays the intervals in ascending index order — gaps count as intervals
  // with zero active users, matching the streaming window — into Welford
  // accumulators, per-interval users in ascending id order.  Continues from
  // the closed intervals' replay, so closing changes no result.
  IntervalActivity Finalize() const;
};

// Everything one segment contributes to Table IV, mergeable across segments.
struct ActivitySegment {
  ActivityWindowSegment ten_minute{Duration::Minutes(10)};
  ActivityWindowSegment ten_second{Duration::Seconds(10)};
  std::set<UserId> users_seen;
  uint64_t total_bytes = 0;
  SimTime last_time;
  // Boundary state, not merged: the opening user of each open still pending
  // at the segment's end (close/seek records do not carry a user id).
  std::unordered_map<OpenId, UserId> open_user;

  void Touch(SimTime t, UserId user, uint64_t bytes);
  // Absorbs other's interval summaries, users, bytes, and last-event time.
  // open_user is boundary state and is deliberately left alone.
  void Merge(const ActivitySegment& other);
  // Closes the intervals that end at or before last_time: records arrive in
  // time order, so no later segment can touch them.
  void CloseSettledIntervals();
  ActivityStats Finalize() const;
};

class ActivityCollector : public ReconstructionSink {
 public:
  // segment_mode: collect an ActivitySegment instead of streaming windows,
  // and skip close/seek records whose open lies outside this segment (their
  // user is unknown here; the stitcher replays them with the carried user).
  explicit ActivityCollector(bool segment_mode = false);

  void OnRecord(const TraceRecord& record) override;
  void OnTransfer(const Transfer& transfer) override;

  ActivityStats Take();
  // Segment-mode result (collector may not be reused).
  ActivitySegment TakeSegment();

 private:
  struct Window {
    explicit Window(Duration length) : length(length) {}
    Duration length;
    int64_t current_index = -1;
    std::set<UserId> active;
    std::map<UserId, uint64_t> bytes;
    IntervalActivity result;
  };

  void Touch(Window& w, SimTime t, UserId user, uint64_t bytes);
  void FlushWindow(Window& w);
  // The user on whose behalf a record was logged (close/seek records carry
  // no user id; we remember it from the open).
  UserId UserOf(const TraceRecord& record);

  bool segment_mode_;
  Window ten_minute_;
  Window ten_second_;
  ActivitySegment segment_;
  std::unordered_map<OpenId, UserId> open_user_;
  std::set<UserId> users_seen_;
  uint64_t total_bytes_ = 0;
  SimTime last_time_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
