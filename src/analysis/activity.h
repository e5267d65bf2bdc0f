// System-activity measurements (paper Table IV).
//
// A user is "active" in an interval if any trace event for that user falls
// in the interval.  Throughput per active user is the user's reconstructed
// bytes in the interval divided by the interval length, averaged across all
// (interval, active user) pairs — exactly the paper's definition, including
// the property that 10-second intervals show fewer, burstier users than
// 10-minute intervals.
//
// The collector interns users to dense indices (user_index.h) and keeps the
// interval each window is collecting in flat per-index arrays: which users
// are active in it (an ActiveInterval), and each user's bytes.  When a
// window moves on, the finished interval becomes an order-free summary — its
// active users as a vector sorted by id, each with its bytes — and the two
// operating modes differ only in what happens to that summary.
// The streaming mode replays it into the Welford accumulators at once.  The
// segment mode (parallel and live analysis) keeps it in an ActivitySegment,
// which ActivitySegment::Merge combines across segments by linear merges and
// Finalize replays in ascending interval order, reproducing the streaming
// mode's accumulator updates bit for bit.

#ifndef BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
#define BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_

#include <utility>
#include <vector>

#include "src/analysis/user_index.h"
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

// Order-free per-interval summaries of one window length.
//
// Intervals no later record can touch may be closed: they are replayed into
// `closed` once and dropped, so Finalize() only replays the open ones.
struct ActivityWindowSegment {
  // One touched interval: every active user, ascending id, with the
  // reconstructed bytes the user moved in it (0 for a user active without
  // any bytes, e.g. only an unlink).
  struct Interval {
    int64_t index = 0;
    std::vector<std::pair<UserId, uint64_t>> users;
  };

  explicit ActivityWindowSegment(Duration length) : length(length) {}

  Duration length;
  std::vector<Interval> intervals;  // open intervals, ascending index
  IntervalActivity closed;          // replay of the closed intervals
  int64_t last_closed = -1;         // index of the last closed interval

  void Touch(SimTime t, UserId user, uint64_t bytes);
  // Absorbs one interval summary, merging it into an open interval with the
  // same index.  It must still be open here.
  void Add(Interval interval);
  // Absorbs other's intervals, all of which must still be open here.
  void Merge(const ActivityWindowSegment& other);
  // Replays `interval` into `closed` directly, as the interval after the
  // last closed one.
  void Close(const Interval& interval);
  // Closes the intervals that end at or before `t`.  Later Touch/Merge calls
  // must not reach them.
  void CloseBefore(SimTime t);
  // Replays the intervals in ascending index order — gaps count as intervals
  // with zero active users, matching the streaming window — into Welford
  // accumulators.  Continues from the closed intervals' replay, so closing
  // changes no result.
  IntervalActivity Finalize() const;
};

// Everything one segment contributes to Table IV, mergeable across segments.
struct ActivitySegment {
  ActivityWindowSegment ten_minute{Duration::Minutes(10)};
  ActivityWindowSegment ten_second{Duration::Seconds(10)};
  std::vector<UserId> users_seen;  // ascending
  uint64_t total_bytes = 0;
  SimTime last_time;

  // Attributes one event (bytes = 0 for a record) to `user` at `t`.  The
  // slow path, for the stitcher's replays: collectors batch touches in their
  // windows instead.
  void Touch(SimTime t, UserId user, uint64_t bytes);
  // Absorbs other's interval summaries, users, bytes, and last-event time.
  void Merge(const ActivitySegment& other);
  // Closes the intervals that end at or before last_time: records arrive in
  // time order, so no later segment can touch them.
  void CloseSettledIntervals();
  ActivityStats Finalize() const;
};

class ActivityCollector final : public ReconstructionSink {
 public:
  // segment_mode: collect an ActivitySegment instead of streaming windows,
  // and skip close/seek records whose open lies outside this segment (their
  // user is unknown here; the stitcher replays them with the carried user).
  explicit ActivityCollector(bool segment_mode = false);

  void OnRecord(const TraceRecord& record, RecordOwner owner) override;
  void OnTransfer(const Transfer& transfer) override;

  ActivityStats Take();
  // Segment-mode result (collector may not be reused).
  ActivitySegment TakeSegment();

 private:
  // The interval one window is collecting, over dense user indices.
  struct Window {
    explicit Window(Duration length) : users(length), out(length) {}
    ActiveInterval users;
    std::vector<uint64_t> bytes;  // per dense user, this interval
    ActivityWindowSegment out;    // finished intervals
  };

  void Touch(SimTime t, uint32_t user, uint64_t bytes);
  void Touch(Window& w, int64_t micros, uint32_t user, uint64_t bytes);
  // Hands the window's finished interval to `out`: closed at once in
  // streaming mode, kept open in segment mode.
  void Emit(Window& w, int64_t index, const std::vector<uint32_t>& active);
  uint32_t Intern(UserId user);

  bool segment_mode_;
  UserIndex users_;
  Window ten_minute_;
  Window ten_second_;
  uint64_t total_bytes_ = 0;
  SimTime last_time_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ACTIVITY_H_
