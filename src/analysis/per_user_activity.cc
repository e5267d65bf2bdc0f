#include "src/analysis/per_user_activity.h"

#include <algorithm>
#include <utility>

namespace bsdtrace {

namespace {

constexpr int64_t kDayMicros = int64_t{24} * 3600 * 1000 * 1000;

int64_t DayIndex(SimTime t) { return t.micros() / kDayMicros; }

}  // namespace

// -- PerUserSegment -----------------------------------------------------------

void PerUserSegment::Touch(SimTime t, UserId user, uint64_t records, uint64_t bytes) {
  PerUserTotals& totals = FindOrInsertSorted(users, user);
  totals.records += records;
  totals.bytes += bytes;
  AddDay(Day{.index = DayIndex(t), .users = {user}});
  if (t > last_time) {
    last_time = t;
  }
}

void PerUserSegment::AddDay(Day day) {
  if (daily_active.empty() || daily_active.back().index < day.index) {
    daily_active.push_back(std::move(day));
    return;
  }
  auto it = std::lower_bound(
      daily_active.begin(), daily_active.end(), day.index,
      [](const Day& entry, int64_t index) { return entry.index < index; });
  if (it->index != day.index) {
    daily_active.insert(it, std::move(day));
    return;
  }
  MergeSorted(
      it->users, day.users, [](UserId user) { return user; }, [](UserId&, UserId) {});
}

void PerUserSegment::Merge(const PerUserSegment& other) {
  MergeSorted(
      users, other.users, [](const auto& entry) { return entry.first; },
      [](auto& ours, const auto& theirs) {
        ours.second.records += theirs.second.records;
        ours.second.bytes += theirs.second.bytes;
      });
  for (const Day& day : other.daily_active) {
    AddDay(day);
  }
  last_time = std::max(last_time, other.last_time);
}

PerUserActivityStats PerUserSegment::Finalize() const {
  PerUserActivityStats stats;
  stats.duration = last_time - SimTime::Origin();
  stats.days = stats.duration.seconds() / Duration::Hours(24).seconds();
  for (const auto& [user, totals] : users) {
    stats.users.emplace_hint(stats.users.end(), user, totals);
    stats.total_records += totals.records;
    stats.total_bytes += totals.bytes;
    if (stats.days > 0.0) {
      stats.records_per_user_day.Add(static_cast<double>(totals.records) / stats.days);
    }
  }
  // Days between the first and last touched day with no activity at all
  // count as zero-active days, matching the Table IV gap-fill convention.
  int64_t prev = -1;
  bool first = true;
  for (const Day& day : daily_active) {
    if (!first) {
      for (int64_t i = prev + 1; i < day.index; ++i) {
        stats.active_users_per_day.Add(0.0);
      }
    }
    stats.active_users_per_day.Add(static_cast<double>(day.users.size()));
    prev = day.index;
    first = false;
  }
  return stats;
}

// -- PerUserActivityCollector -------------------------------------------------

PerUserActivityCollector::PerUserActivityCollector(bool segment_mode)
    : segment_mode_(segment_mode) {}

void PerUserActivityCollector::EmitDay(int64_t index, const std::vector<uint32_t>& active) {
  PerUserSegment::Day day{.index = index, .users = {}};
  day.users.reserve(active.size());
  for (uint32_t user : active) {
    day.users.push_back(users_.id(user));
  }
  std::sort(day.users.begin(), day.users.end());
  segment_.AddDay(std::move(day));
}

void PerUserActivityCollector::Touch(SimTime t, UserId user, uint64_t records,
                                     uint64_t bytes) {
  const uint32_t index = users_.Intern(user);
  if (index == totals_.size()) {
    totals_.emplace_back();
    day_.AddUser();
  }
  totals_[index].records += records;
  totals_[index].bytes += bytes;
  day_.MoveTo(t.micros(), [&](int64_t day, const std::vector<uint32_t>& active) {
    EmitDay(day, active);
  });
  day_.Mark(index);
  if (t > segment_.last_time) {
    segment_.last_time = t;
  }
}

void PerUserActivityCollector::OnRecord(const TraceRecord& r, RecordOwner owner) {
  // Segment mode: a close/seek whose open lies before this segment has no
  // user here; the stitcher replays the record with the carried open's user.
  if (segment_mode_ && !owner.open_seen) {
    return;
  }
  Touch(r.time, owner.user, /*records=*/1, /*bytes=*/0);
}

void PerUserActivityCollector::OnTransfer(const Transfer& t) {
  Touch(t.time, t.user_id, /*records=*/0, t.length);
}

PerUserActivityStats PerUserActivityCollector::Take() { return TakeSegment().Finalize(); }

PerUserSegment PerUserActivityCollector::TakeSegment() {
  day_.Flush([&](int64_t day, const std::vector<uint32_t>& active) { EmitDay(day, active); });
  segment_.users.clear();
  segment_.users.reserve(totals_.size());
  for (uint32_t i = 0; i < totals_.size(); ++i) {
    segment_.users.emplace_back(users_.id(i), totals_[i]);
  }
  std::sort(segment_.users.begin(), segment_.users.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return std::move(segment_);
}

// -- Table I band validation --------------------------------------------------

const std::vector<TableIBand>& TableIBands() {
  // Calibrated on the simulator at the paper populations (90/140/40 users):
  // measured per-user rates across 6 h - 72 h durations, 1-8 shards, and
  // 90-1000+ user populations sit at roughly 1600-2950 (A5), 1200-2300 (E3),
  // and 1400-2750 (C4) records/user/day; the bands add ~2x margin on both
  // sides so seed and duration mixes stay inside while an attribution or
  // scaling regression (rates shifting with population) trips them.  Pinned
  // at paper scale and at 1000+ users by the PerUserActivity property tests.
  // Sanity anchor: the paper's Table I reports on the order of half a
  // million records per machine-day, i.e. thousands of records per user-day.
  static const std::vector<TableIBand> kBands = {
      {.trace_name = "A5", .min_records_per_user_day = 700.0,
       .max_records_per_user_day = 4500.0},
      {.trace_name = "E3", .min_records_per_user_day = 500.0,
       .max_records_per_user_day = 3500.0},
      {.trace_name = "C4", .min_records_per_user_day = 600.0,
       .max_records_per_user_day = 5500.0},
  };
  return kBands;
}

std::vector<ActivityBandCheck> CheckActivityBands(const TraceHeader& header,
                                                  const PerUserActivityStats& stats) {
  std::vector<ActivityBandCheck> checks;
  if (stats.days * Duration::Hours(24).seconds() < Duration::Minutes(10).seconds()) {
    return checks;  // too short for a meaningful rate
  }
  const std::vector<FleetInstanceTag> tags = ParseFleetTag(header.description);
  for (size_t i = 0; i < tags.size(); ++i) {
    const FleetInstanceTag& tag = tags[i];
    ActivityBandCheck check;
    check.instance = i;
    check.trace_name = tag.trace_name;
    check.user_population = tag.user_population;
    for (const TableIBand& band : TableIBands()) {
      if (band.trace_name == tag.trace_name) {
        check.band = band;
      }
    }
    // Human users only: the instance's daemon pseudo-users sit below
    // FirstUser() and their activity scales with the machine, not the user.
    uint64_t records = 0;
    const auto begin = stats.users.lower_bound(tag.FirstUser());
    const auto end = stats.users.upper_bound(tag.LastUser());
    for (auto it = begin; it != end; ++it) {
      records += it->second.records;
    }
    check.records_per_user_day =
        tag.user_population > 0
            ? static_cast<double>(records) / tag.user_population / stats.days
            : 0.0;
    check.ok = !check.band.trace_name.empty() &&
               check.records_per_user_day >= check.band.min_records_per_user_day &&
               check.records_per_user_day <= check.band.max_records_per_user_day;
    checks.push_back(std::move(check));
  }
  return checks;
}

}  // namespace bsdtrace
