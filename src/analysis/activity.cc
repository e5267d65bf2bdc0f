#include "src/analysis/activity.h"

#include <algorithm>
#include <cassert>

namespace bsdtrace {

namespace {

using Interval = ActivityWindowSegment::Interval;

bool IndexBefore(const Interval& interval, int64_t index) { return interval.index < index; }

// Replays one touched interval into `out`, after the empty intervals between
// it and the previously replayed one (which count as zero active users, just
// like a gap between two events of the streaming window).
void ReplayInterval(const Interval& interval, Duration length, int64_t* prev,
                    IntervalActivity* out) {
  for (int64_t i = *prev + 1; i < interval.index; ++i) {
    out->active_users.Add(0.0);
    out->intervals += 1;
  }
  const int64_t active = static_cast<int64_t>(interval.users.size());
  out->active_users.Add(static_cast<double>(active));
  out->max_active_users = std::max(out->max_active_users, active);
  // Two passes, not one.  Welford's running mean and variance depend on the
  // order of the samples in their last bits, and the Table IV figures have
  // always been accumulated in this order: first the users who moved bytes,
  // ascending id, then a 0.0 for each user active without bytes, ascending
  // id.  One ascending pass over all active users would interleave the zeros
  // and change the published results.
  for (const auto& [user, bytes] : interval.users) {
    if (bytes > 0) {
      out->throughput_per_user.Add(static_cast<double>(bytes) / length.seconds());
    }
  }
  for (const auto& [user, bytes] : interval.users) {
    if (bytes == 0) {
      out->throughput_per_user.Add(0.0);
    }
  }
  out->intervals += 1;
  *prev = interval.index;
}

}  // namespace

// -- ActivityWindowSegment ----------------------------------------------------

void ActivityWindowSegment::Touch(SimTime t, UserId user, uint64_t bytes) {
  const int64_t index = t.micros() / length.micros();
  assert(index > last_closed);
  auto it = std::lower_bound(intervals.begin(), intervals.end(), index, IndexBefore);
  if (it == intervals.end() || it->index != index) {
    it = intervals.insert(it, Interval{.index = index, .users = {}});
  }
  FindOrInsertSorted(it->users, user) += bytes;
}

void ActivityWindowSegment::Add(Interval interval) {
  assert(interval.index > last_closed);
  if (intervals.empty() || intervals.back().index < interval.index) {
    intervals.push_back(std::move(interval));
    return;
  }
  auto it = std::lower_bound(intervals.begin(), intervals.end(), interval.index, IndexBefore);
  if (it->index != interval.index) {
    intervals.insert(it, std::move(interval));
    return;
  }
  MergeSorted(
      it->users, interval.users, [](const auto& entry) { return entry.first; },
      [](auto& ours, const auto& theirs) { ours.second += theirs.second; });
}

void ActivityWindowSegment::Merge(const ActivityWindowSegment& other) {
  for (const Interval& interval : other.intervals) {
    Add(interval);
  }
}

void ActivityWindowSegment::Close(const Interval& interval) {
  ReplayInterval(interval, length, &last_closed, &closed);
}

void ActivityWindowSegment::CloseBefore(SimTime t) {
  const int64_t open_index = t.micros() / length.micros();
  auto it = intervals.begin();
  for (; it != intervals.end() && it->index < open_index; ++it) {
    Close(*it);
  }
  intervals.erase(intervals.begin(), it);
}

IntervalActivity ActivityWindowSegment::Finalize() const {
  IntervalActivity out = closed;
  out.interval_length = length;
  int64_t prev = last_closed;
  for (const Interval& interval : intervals) {
    ReplayInterval(interval, length, &prev, &out);
  }
  return out;
}

// -- ActivitySegment ----------------------------------------------------------

void ActivitySegment::Touch(SimTime t, UserId user, uint64_t bytes) {
  ten_minute.Touch(t, user, bytes);
  ten_second.Touch(t, user, bytes);
  InsertSortedUser(users_seen, user);
  total_bytes += bytes;
}

void ActivitySegment::Merge(const ActivitySegment& other) {
  ten_minute.Merge(other.ten_minute);
  ten_second.Merge(other.ten_second);
  MergeSorted(
      users_seen, other.users_seen, [](UserId user) { return user; },
      [](UserId&, UserId) {});
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

uint32_t ActivityCollector::Intern(UserId user) {
  const uint32_t index = users_.Intern(user);
  if (index == ten_second_.bytes.size()) {
    for (Window* w : {&ten_minute_, &ten_second_}) {
      w->users.AddUser();
      w->bytes.push_back(0);
    }
  }
  return index;
}

void ActivityCollector::Emit(Window& w, int64_t index, const std::vector<uint32_t>& active) {
  Interval interval{.index = index, .users = {}};
  interval.users.reserve(active.size());
  for (uint32_t user : active) {
    interval.users.emplace_back(users_.id(user), w.bytes[user]);
    w.bytes[user] = 0;
  }
  std::sort(interval.users.begin(), interval.users.end());
  if (segment_mode_) {
    w.out.Add(std::move(interval));
  } else {
    w.out.Close(interval);
  }
}

void ActivityCollector::Touch(Window& w, int64_t micros, uint32_t user, uint64_t bytes) {
  w.users.MoveTo(micros, [&](int64_t index, const std::vector<uint32_t>& active) {
    Emit(w, index, active);
  });
  w.users.Mark(user);
  w.bytes[user] += bytes;
}

void ActivityCollector::Touch(SimTime t, uint32_t user, uint64_t bytes) {
  Touch(ten_minute_, t.micros(), user, bytes);
  Touch(ten_second_, t.micros(), user, bytes);
}

void ActivityCollector::OnRecord(const TraceRecord& r, RecordOwner owner) {
  if (r.time > last_time_) {
    last_time_ = r.time;
  }
  // In segment mode a close/seek whose open lies before this segment has no
  // user here; the stitcher replays the record with the carried open's user.
  if (segment_mode_ && !owner.open_seen) {
    return;
  }
  Touch(r.time, Intern(owner.user), 0);
}

void ActivityCollector::OnTransfer(const Transfer& t) {
  total_bytes_ += t.length;
  Touch(t.time, Intern(t.user_id), t.length);
}

ActivityStats ActivityCollector::Take() { return TakeSegment().Finalize(); }

ActivitySegment ActivityCollector::TakeSegment() {
  for (Window* w : {&ten_minute_, &ten_second_}) {
    w->users.Flush([&](int64_t index, const std::vector<uint32_t>& active) {
      Emit(*w, index, active);
    });
  }
  ActivitySegment segment;
  segment.ten_minute = std::move(ten_minute_.out);
  segment.ten_second = std::move(ten_second_.out);
  // Every interned user was touched, so the index is the set of users seen.
  segment.users_seen = users_.ids();
  std::sort(segment.users_seen.begin(), segment.users_seen.end());
  segment.total_bytes = total_bytes_;
  segment.last_time = last_time_;
  return segment;
}

}  // namespace bsdtrace
