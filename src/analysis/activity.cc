#include "src/analysis/activity.h"

#include <algorithm>
#include <cassert>

namespace bsdtrace {

// -- ActivityWindowSegment ----------------------------------------------------

void ActivityWindowSegment::Touch(SimTime t, UserId user, uint64_t bytes) {
  const int64_t index = t.micros() / length.micros();
  assert(index > last_closed);
  Interval& interval = intervals[index];
  interval.active.insert(user);
  if (bytes > 0) {
    interval.bytes[user] += bytes;
  }
}

void ActivityWindowSegment::Merge(const ActivityWindowSegment& other) {
  for (const auto& [index, theirs] : other.intervals) {
    assert(index > last_closed);
    Interval& ours = intervals[index];
    ours.active.insert(theirs.active.begin(), theirs.active.end());
    for (const auto& [user, bytes] : theirs.bytes) {
      ours.bytes[user] += bytes;
    }
  }
}

namespace {

// Replays one touched interval into `out`, after the empty intervals between
// it and the previously replayed one (which count as zero active users, just
// like the streaming window's gap fill).
void ReplayInterval(int64_t index, const ActivityWindowSegment::Interval& interval,
                    Duration length, int64_t* prev, IntervalActivity* out) {
  for (int64_t i = *prev + 1; i < index; ++i) {
    out->active_users.Add(0.0);
    out->intervals += 1;
  }
  out->active_users.Add(static_cast<double>(interval.active.size()));
  out->max_active_users =
      std::max(out->max_active_users, static_cast<int64_t>(interval.active.size()));
  for (const auto& [user, bytes] : interval.bytes) {
    out->throughput_per_user.Add(static_cast<double>(bytes) / length.seconds());
  }
  for (UserId user : interval.active) {
    if (interval.bytes.count(user) == 0) {
      out->throughput_per_user.Add(0.0);
    }
  }
  out->intervals += 1;
  *prev = index;
}

}  // namespace

void ActivityWindowSegment::CloseBefore(SimTime t) {
  const int64_t open_index = t.micros() / length.micros();
  auto it = intervals.begin();
  for (; it != intervals.end() && it->first < open_index; ++it) {
    ReplayInterval(it->first, it->second, length, &last_closed, &closed);
  }
  intervals.erase(intervals.begin(), it);
}

IntervalActivity ActivityWindowSegment::Finalize() const {
  IntervalActivity out = closed;
  out.interval_length = length;
  int64_t prev = last_closed;
  for (const auto& [index, interval] : intervals) {
    ReplayInterval(index, interval, length, &prev, &out);
  }
  return out;
}

// -- ActivitySegment ----------------------------------------------------------

void ActivitySegment::Touch(SimTime t, UserId user, uint64_t bytes) {
  ten_minute.Touch(t, user, bytes);
  ten_second.Touch(t, user, bytes);
}

void ActivitySegment::Merge(const ActivitySegment& other) {
  ten_minute.Merge(other.ten_minute);
  ten_second.Merge(other.ten_second);
  users_seen.insert(other.users_seen.begin(), other.users_seen.end());
  total_bytes += other.total_bytes;
  last_time = std::max(last_time, other.last_time);
}

void ActivitySegment::CloseSettledIntervals() {
  ten_minute.CloseBefore(last_time);
  ten_second.CloseBefore(last_time);
}

ActivityStats ActivitySegment::Finalize() const {
  ActivityStats stats;
  stats.duration = last_time - SimTime::Origin();
  stats.total_bytes = total_bytes;
  stats.average_throughput =
      stats.duration > Duration::Zero()
          ? static_cast<double>(total_bytes) / stats.duration.seconds()
          : 0.0;
  stats.distinct_users = users_seen.size();
  stats.ten_minute = ten_minute.Finalize();
  stats.ten_second = ten_second.Finalize();
  return stats;
}

// -- ActivityCollector --------------------------------------------------------

ActivityCollector::ActivityCollector(bool segment_mode)
    : segment_mode_(segment_mode),
      ten_minute_(Duration::Minutes(10)),
      ten_second_(Duration::Seconds(10)) {}

UserId ActivityCollector::UserOf(const TraceRecord& r) {
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate:
      open_user_[r.open_id] = r.user_id;
      return r.user_id;
    case EventType::kSeek: {
      auto it = open_user_.find(r.open_id);
      return it != open_user_.end() ? it->second : r.user_id;
    }
    case EventType::kClose: {
      auto it = open_user_.find(r.open_id);
      if (it == open_user_.end()) {
        return r.user_id;
      }
      const UserId user = it->second;
      open_user_.erase(it);
      return user;
    }
    default:
      return r.user_id;
  }
}

void ActivityCollector::FlushWindow(Window& w) {
  if (w.current_index < 0) {
    return;
  }
  w.result.active_users.Add(static_cast<double>(w.active.size()));
  w.result.max_active_users =
      std::max(w.result.max_active_users, static_cast<int64_t>(w.active.size()));
  // Ordered containers, so the Welford accumulator sees users in ascending id
  // order — the same order the segmented replay (Finalize above) uses.
  for (const auto& [user, bytes] : w.bytes) {
    w.result.throughput_per_user.Add(static_cast<double>(bytes) / w.length.seconds());
  }
  // Users active with zero reconstructed bytes (e.g. only an unlink) still
  // count as active users with zero throughput.
  for (UserId user : w.active) {
    if (w.bytes.count(user) == 0) {
      w.result.throughput_per_user.Add(0.0);
    }
  }
  w.result.intervals += 1;
  w.active.clear();
  w.bytes.clear();
}

void ActivityCollector::Touch(Window& w, SimTime t, UserId user, uint64_t bytes) {
  const int64_t index = t.micros() / w.length.micros();
  if (index != w.current_index) {
    // Flush completed interval(s); empty intervals between events count as
    // intervals with zero active users.
    FlushWindow(w);
    for (int64_t i = w.current_index + 1; i < index; ++i) {
      w.result.active_users.Add(0.0);
      w.result.intervals += 1;
    }
    w.current_index = index;
  }
  w.active.insert(user);
  if (bytes > 0) {
    w.bytes[user] += bytes;
  }
}

void ActivityCollector::OnRecord(const TraceRecord& r) {
  if (r.time > last_time_) {
    last_time_ = r.time;
  }
  // In segment mode a close/seek whose open lies before this segment has no
  // user here; the stitcher replays the record with the carried open's user.
  if (segment_mode_ && (r.type == EventType::kSeek || r.type == EventType::kClose) &&
      open_user_.count(r.open_id) == 0) {
    return;
  }
  const UserId user = UserOf(r);
  users_seen_.insert(user);
  if (segment_mode_) {
    segment_.Touch(r.time, user, 0);
  } else {
    Touch(ten_minute_, r.time, user, 0);
    Touch(ten_second_, r.time, user, 0);
  }
}

void ActivityCollector::OnTransfer(const Transfer& t) {
  total_bytes_ += t.length;
  users_seen_.insert(t.user_id);
  if (segment_mode_) {
    segment_.Touch(t.time, t.user_id, t.length);
  } else {
    Touch(ten_minute_, t.time, t.user_id, t.length);
    Touch(ten_second_, t.time, t.user_id, t.length);
  }
}

ActivityStats ActivityCollector::Take() {
  FlushWindow(ten_minute_);
  FlushWindow(ten_second_);
  ActivityStats stats;
  stats.duration = last_time_ - SimTime::Origin();
  stats.total_bytes = total_bytes_;
  stats.average_throughput =
      stats.duration > Duration::Zero()
          ? static_cast<double>(total_bytes_) / stats.duration.seconds()
          : 0.0;
  stats.distinct_users = users_seen_.size();
  ten_minute_.result.interval_length = ten_minute_.length;
  ten_second_.result.interval_length = ten_second_.length;
  stats.ten_minute = ten_minute_.result;
  stats.ten_second = ten_second_.result;
  return stats;
}

ActivitySegment ActivityCollector::TakeSegment() {
  segment_.users_seen = std::move(users_seen_);
  segment_.total_bytes = total_bytes_;
  segment_.last_time = last_time_;
  segment_.open_user = std::move(open_user_);
  return std::move(segment_);
}

}  // namespace bsdtrace
