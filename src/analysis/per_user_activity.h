// Per-user activity accounting and the Table I activity-band validator.
//
// The paper's Table I characterizes each traced machine by its user
// population and the trace activity that population produced; dividing the
// two gives a per-user records/day rate that is a property of the *workload
// mix*, not of the machine size.  This collector attributes every trace
// record and reconstructed byte to the user on whose behalf it was logged,
// reports per-user totals plus the distributions Table I implies (records
// per user-day, active users per day), and checks the per-user rate of each
// machine in a fleet trace against the profile's calibrated band — which is
// how population scaling (workload/profile.h) and fleet generation
// (workload/fleet.h) are validated: a 1000-user A5 must keep the same
// per-user activity as the paper's 90-user A5.
//
// Like the Table IV collector (activity.h) this interns users to dense
// indices and keeps its running state in flat per-index arrays: each user's
// totals, and the users already counted active on the current day (an
// ActiveInterval).  Both the serial and the segment mode export the same
// order-free integer summary (PerUserSegment), keyed by user id in sorted
// vectors; segments merge by linear merges that sum totals and union the
// daily actives, so the parallel analyzer reproduces the serial results bit
// for bit.

#ifndef BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_
#define BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/user_index.h"
#include "src/trace/fleet_tag.h"
#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

// Everything attributed to one user over the whole trace.
struct PerUserTotals {
  uint64_t records = 0;  // trace records logged on the user's behalf
  uint64_t bytes = 0;    // reconstructed bytes transferred

  bool operator==(const PerUserTotals&) const = default;
};

struct PerUserActivityStats {
  Duration duration;
  // Fractional simulated days (duration / 24 h); the records/day
  // normalizer.  0 for an empty trace.
  double days = 0.0;
  uint64_t total_records = 0;
  uint64_t total_bytes = 0;
  // Per-user totals, ascending user id.  Daemon pseudo-users (the network
  // daemon and printer) appear here like everyone else; the band checker
  // selects the human range via the fleet tag.
  std::map<UserId, PerUserTotals> users;
  // Distribution across users of per-user records/day.
  RunningStats records_per_user_day;
  // Distribution across simulated days of the daily active-user count
  // (a user is active on a day if any of their records falls in it).
  RunningStats active_users_per_day;
};

// Order-free per-segment summary: pure integer counts and sets, so Merge is
// exact and Finalize is a deterministic function of the merged content.
struct PerUserSegment {
  // The users active on one simulated day, ascending id.
  struct Day {
    int64_t index = 0;
    std::vector<UserId> users;

    bool operator==(const Day&) const = default;
  };

  std::vector<std::pair<UserId, PerUserTotals>> users;  // ascending id
  std::vector<Day> daily_active;                         // ascending day
  SimTime last_time;

  // Attributes `records` and `bytes` to `user` at `t`.  The slow path, for
  // tests and the stitcher's replays: the collector batches its touches.
  void Touch(SimTime t, UserId user, uint64_t records, uint64_t bytes);
  // Absorbs one day's actives, merging them into the same day if present.
  void AddDay(Day day);
  void Merge(const PerUserSegment& other);
  PerUserActivityStats Finalize() const;
};

class PerUserActivityCollector final : public ReconstructionSink {
 public:
  // segment_mode: skip close/seek records whose open lies outside this
  // segment (their user is unknown here; the stitcher replays them with the
  // carried open's user) — the same contract as ActivityCollector.
  explicit PerUserActivityCollector(bool segment_mode = false);

  void OnRecord(const TraceRecord& record, RecordOwner owner) override;
  void OnTransfer(const Transfer& transfer) override;

  PerUserActivityStats Take();
  // Segment-mode result (collector may not be reused).
  PerUserSegment TakeSegment();

 private:
  void Touch(SimTime t, UserId user, uint64_t records, uint64_t bytes);
  // Hands one finished day's actives to segment_.
  void EmitDay(int64_t index, const std::vector<uint32_t>& active);

  bool segment_mode_;
  UserIndex users_;
  std::vector<PerUserTotals> totals_;  // per dense user
  ActiveInterval day_{Duration::Hours(24)};  // the users active on the current day
  PerUserSegment segment_;  // finished days and the last event time
};

// -- Table I band validation --------------------------------------------------

// The accepted per-user records/day range for one machine profile,
// calibrated on the simulator at the paper's populations and pinned by the
// PerUserActivity property tests at 90 and 1000+ users.
struct TableIBand {
  std::string trace_name;  // "A5" / "E3" / "C4"
  double min_records_per_user_day = 0.0;
  double max_records_per_user_day = 0.0;
};

// The calibrated bands for the three paper profiles.
const std::vector<TableIBand>& TableIBands();

// One fleet instance's verdict.
struct ActivityBandCheck {
  size_t instance = 0;          // index within the fleet tag
  std::string trace_name;
  int user_population = 0;
  double records_per_user_day = 0.0;  // human users only, averaged
  TableIBand band;
  bool ok = false;
};

// Checks each machine instance of a fleet-tagged trace against its profile's
// band: (sum of the instance's human users' records) / population / days.
// Returns one entry per instance, empty when the header carries no fleet tag
// (legacy traces — nothing to validate against) or the trace is shorter than
// 10 simulated minutes (too little signal for a rate).
std::vector<ActivityBandCheck> CheckActivityBands(const TraceHeader& header,
                                                  const PerUserActivityStats& stats);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_PER_USER_ACTIVITY_H_
