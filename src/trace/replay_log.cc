#include "src/trace/replay_log.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/trace/trace_source.h"
#include "src/util/flat_map.h"

namespace bsdtrace {
namespace {

// Maps acting user ids to fleet instances via the header tag's user ranges.
// Instance i owns [user_base, user_base + user_population + 2) — the two
// daemon ids plus the interactive users (see fleet_tag.h).  Users outside
// every range (and all users of untagged traces) attribute to instance 0.
class InstanceAttributor {
 public:
  explicit InstanceAttributor(const std::vector<FleetInstanceTag>& tags) {
    ranges_.reserve(tags.size());
    for (size_t i = 0; i < tags.size(); ++i) {
      const UserId first = tags[i].user_base;
      const UserId last =
          tags[i].user_base + 1 +
          static_cast<UserId>(tags[i].user_population > 0 ? tags[i].user_population : 0);
      ranges_.push_back({first, last, static_cast<uint16_t>(i)});
    }
    std::sort(ranges_.begin(), ranges_.end(),
              [](const Range& a, const Range& b) { return a.first < b.first; });
  }

  uint16_t InstanceOf(UserId user) const {
    if (ranges_.empty()) {
      return 0;
    }
    // Last range starting at or before `user`.
    size_t lo = 0, hi = ranges_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (ranges_[mid].first <= user) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) {
      return 0;
    }
    const Range& r = ranges_[lo - 1];
    return user <= r.last ? r.instance : 0;
  }

 private:
  struct Range {
    UserId first = 0;
    UserId last = 0;
    uint16_t instance = 0;
  };
  std::vector<Range> ranges_;
};

// Records the reconstructor's output stream as packed events, preserving the
// exact OnTransfer/OnRecord interleaving so replay reproduces it verbatim.
class RecordingSink : public ReconstructionSink {
 public:
  RecordingSink(std::vector<ReplayEvent>* events, const InstanceAttributor* attributor)
      : events_(events), attributor_(attributor) {}

  void OnTransfer(const Transfer& t) override {
    ReplayEvent e;
    e.time = t.time;
    e.file = t.file_id;
    e.offset = t.offset;
    e.length = t.length;
    e.kind = t.direction == TransferDirection::kWrite
                 ? ReplayEvent::Kind::kWriteTransfer
                 : ReplayEvent::Kind::kReadTransfer;
    e.instance = attributor_->InstanceOf(t.user_id);
    events_->push_back(e);
    ++transfer_count;
  }

  void OnRecord(const TraceRecord& r, RecordOwner) override {
    ReplayEvent e;
    e.time = r.time;
    e.file = r.file_id;
    e.length = r.size;
    e.kind = static_cast<ReplayEvent::Kind>(static_cast<uint8_t>(r.type) + 1);
    // close/seek records carry no user id and attribute to instance 0; they
    // are clock-only for every instance-aware sink, so the attribution is
    // irrelevant (and they are elided from the data-event stream anyway).
    e.instance = attributor_->InstanceOf(r.user_id);
    events_->push_back(e);
  }

  size_t transfer_count = 0;

 private:
  std::vector<ReplayEvent>* events_;
  const InstanceAttributor* attributor_;
};

}  // namespace

struct ReplayLog::Builder::State {
  State(const TraceHeader& header, BillingPolicy billing)
      : fleet(ParseFleetTag(header.description)),
        attributor(fleet),
        sink(&events, &attributor),
        reconstructor(&sink, billing),
        billing(billing) {}

  std::vector<FleetInstanceTag> fleet;
  InstanceAttributor attributor;
  std::vector<ReplayEvent> events;
  RecordingSink sink;
  AccessReconstructor reconstructor;
  BillingPolicy billing;
};

ReplayLog::Builder::Builder(const TraceHeader& header, BillingPolicy billing, int64_t size_hint)
    : state_(std::make_unique<State>(header, billing)) {
  if (size_hint > 0) {
    // Callers pass a hint their source clamped to what its backing store
    // could plausibly hold, so a lying header cannot drive an unbounded
    // reserve.
    state_->events.reserve(static_cast<size_t>(size_hint) * 2);
  }
}

ReplayLog::Builder::~Builder() = default;

void ReplayLog::Builder::Append(const TraceRecord& record) {
  state_->reconstructor.Process(record);
  ++records_;
}

ReplayLog ReplayLog::Builder::Finish() {
  assert(state_ != nullptr);
  state_->reconstructor.Finish();
  ReplayLog log;
  log.billing_ = state_->billing;
  log.fleet_ = std::move(state_->fleet);
  log.events_ = std::move(state_->events);
  log.events_.shrink_to_fit();
  log.transfer_count_ = state_->sink.transfer_count;
  log.dangling_opens_ = state_->reconstructor.dangling_opens();
  log.orphan_events_ = state_->reconstructor.orphan_events();
  state_.reset();
  log.BuildDerivedStreams();
  return log;
}

ReplayLog ReplayLog::Build(const Trace& trace, BillingPolicy billing) {
  // An in-memory source never fails, and carries the header (fleet tag).
  TraceVectorSource source(trace);
  return std::move(Build(source, billing)).value();
}

StatusOr<ReplayLog> ReplayLog::Build(TraceSource& source, BillingPolicy billing) {
  if (!source.status().ok()) {
    return source.status();
  }
  // Records stream from the source straight into the reconstructor — the
  // full Trace is never materialized, so building a log from an on-disk
  // trace peaks at the size of the log, not trace + log.
  Builder builder(source.header(), billing, source.size_hint());
  TraceRecord r;
  while (source.Next(&r)) {
    builder.Append(r);
  }
  if (!source.status().ok()) {
    return source.status();
  }
  return builder.Finish();
}

StatusOr<ReplayLog> ReplayLog::BuildFromFile(const std::string& path, BillingPolicy billing) {
  TraceFileSource source(path);
  return Build(source, billing);
}

// A clock-only record (open/close/seek) may be elided only when its clock
// advance is realized no later than the full replay would have realized it,
// relative to every event that does observable work.  Under kAtNextEvent the
// stream is time-monotone and this always holds, but kAtPreviousEvent bills
// transfers at the previous event's time, so a transfer later in the stream
// can carry an EARLIER timestamp than the record before it — eliding that
// record would delay a flush-back boundary crossing past the transfer and
// change which blocks the scan sees.
//
// Backward walk with a "floor": the elision of a record at time t is safe iff
// t <= the time of every kept event between it and the next kept event that
// unconditionally advances the clock (transfers and non-execve records;
// execve only advances when page-in simulation is on, so it bounds but does
// not reset the floor).  The synthetic tail — the maximum time over all
// unconditionally-advancing events — bounds the final run.
//
// The same forward walk precomputes, for every transfer (and every nonempty
// execve), the file's known extent at that point in the stream — the exact
// value the simulator's per-file extent table would hold.  Mirrors
// CacheSimulator: a transfer raises the extent to offset+length, an execve
// page-in read raises it to the program size (only when page-in is simulated
// — tracked as a separate trajectory), create/unlink drop the entry,
// truncate lowers it; absent entries read as extent 0.  It also counts
// distinct files (ReserveFiles sizing).  kInvalidFileId is the FlatMap empty
// sentinel so it is tallied out of band; like the simulator's own extent
// table, the maps assume real file ids on transfers and invalidations.
void ReplayLog::BuildDerivedStreams() {
  data_events_.clear();
  has_clock_tail_ = false;
  transfer_extents_.clear();
  transfer_extents_pagein_.clear();
  execve_extents_.clear();
  distinct_files_ = 0;
  if (events_.empty()) {
    return;
  }
  transfer_extents_.reserve(transfer_count_);
  transfer_extents_pagein_.reserve(transfer_count_);
  using ExtentMap = FlatMap<FileId, uint64_t, IdHash>;
  ExtentMap base{kInvalidFileId, 1024};    // page-in not simulated
  ExtentMap pagein{kInvalidFileId, 1024};  // page-in simulated
  // Files with a preceding transfer or page-in read: an invalidation
  // (create/unlink/truncate) of any OTHER file is a runtime no-op for a
  // data-block sink — the cache cannot hold the file's blocks and the
  // known-extent table cannot have an entry (invalidations never create
  // one).  Such records are clock-only, exactly like open/close/seek.
  // Common case: a create precedes its file's first write.  An execve
  // record with a zero size does nothing at all (not even a clock advance)
  // and is dropped.
  FlatMap<FileId, uint8_t, IdHash> data_seen{kInvalidFileId, 1024};
  FlatMap<FileId, uint8_t, IdHash> seen{kInvalidFileId, 1024};
  bool saw_invalid_file = false;
  auto raise = [](ExtentMap& ext, FileId file, uint64_t to) {
    uint64_t& e = ext[file];
    e = std::max(e, to);
  };
  auto lower = [](ExtentMap& ext, FileId file, uint64_t first_byte) {
    if (first_byte == 0) {
      ext.Erase(file);
      return;
    }
    if (uint64_t* e = ext.Find(file)) {
      *e = std::min(*e, first_byte);
    }
  };
  auto lookup = [](ExtentMap& ext, FileId file) {
    const uint64_t* e = ext.Find(file);
    return e != nullptr ? *e : 0;
  };
  SimTime max_clock;
  bool any_clock = false;
  std::vector<uint8_t> clock_only_flag(events_.size(), 0);
  for (size_t i = 0; i < events_.size(); ++i) {
    const ReplayEvent& e = events_[i];
    if (e.file == kInvalidFileId) {
      saw_invalid_file = true;
    } else {
      seen[e.file] = 1;
    }
    if (e.kind != ReplayEvent::Kind::kExecve && (!any_clock || e.time > max_clock)) {
      max_clock = e.time;
      any_clock = true;
    }
    switch (e.kind) {
      case ReplayEvent::Kind::kReadTransfer:
      case ReplayEvent::Kind::kWriteTransfer:
        data_seen[e.file] = 1;
        transfer_extents_.push_back(lookup(base, e.file));
        transfer_extents_pagein_.push_back(lookup(pagein, e.file));
        if (e.length > 0) {  // zero-length transfers don't reach the table
          raise(base, e.file, e.offset + e.length);
          raise(pagein, e.file, e.offset + e.length);
        }
        break;
      case ReplayEvent::Kind::kExecve:
        if (e.length > 0) {
          data_seen[e.file] = 1;
          execve_extents_.push_back(lookup(pagein, e.file));
          raise(pagein, e.file, e.length);
        }
        break;
      case ReplayEvent::Kind::kCreate:
      case ReplayEvent::Kind::kUnlink:
        if (data_seen.Find(e.file) == nullptr) {
          clock_only_flag[i] = 1;
        }
        lower(base, e.file, 0);
        lower(pagein, e.file, 0);
        break;
      case ReplayEvent::Kind::kTruncate:
        if (data_seen.Find(e.file) == nullptr) {
          clock_only_flag[i] = 1;
        }
        lower(base, e.file, e.length);
        lower(pagein, e.file, e.length);
        break;
      default:  // open/close/seek only advance the clock
        clock_only_flag[i] = 1;
        break;
    }
  }
  distinct_files_ = seen.size() + (saw_invalid_file ? 1 : 0);
  SimTime floor = max_clock;
  bool have_floor = any_clock;
  size_t elided = 0;
  for (size_t i = events_.size(); i-- > 0;) {
    const ReplayEvent& e = events_[i];
    if (e.kind == ReplayEvent::Kind::kExecve && e.length == 0) {
      continue;  // complete no-op: no clock advance to preserve
    }
    const bool clock_only = clock_only_flag[i] != 0;
    if (clock_only && have_floor && !(e.time > floor)) {
      ++elided;
      continue;
    }
    data_events_.push_back(e);
    if (e.kind == ReplayEvent::Kind::kExecve) {
      if (!have_floor || e.time < floor) {
        floor = e.time;
      }
    } else {
      floor = e.time;
    }
    have_floor = true;
  }
  std::reverse(data_events_.begin(), data_events_.end());
  if (elided > 0) {
    has_clock_tail_ = true;
    clock_tail_time_ = max_clock;
  }
}

}  // namespace bsdtrace
