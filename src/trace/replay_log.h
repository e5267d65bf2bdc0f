// Reconstruct-once replay log (the phase-1 half of the two-phase sweep
// engine; see DESIGN.md §"Two-phase cache sweeps").
//
// A cache sweep replays the same reconstructed transfer stream through tens
// of configurations.  Reconstruction itself — open-table hashing, the
// per-record switch, run splitting — is identical for every configuration
// that shares a billing policy, so it is wasted work to repeat it.  ReplayLog
// runs AccessReconstructor exactly once into a recording sink and stores the
// results as one flat, time-ordered vector of packed 40-byte events
// (transfers interleaved with the raw records, in the exact order the
// reconstructor delivered them).  ReplayInto() then streams the log into any
// sink as a single linear scan: no hashing, no per-open state, no branching
// beyond one switch on the packed event kind.
//
// Fidelity: the packed events carry every field the cache simulator reads
// (transfer time/file/offset/length/direction; record type/time/file/size).
// Replayed TraceRecords do NOT carry open ids, user ids, access modes, or
// seek positions, and OnAccess() is never invoked — the log captures the
// cache-simulation projection of the reconstruction, not a full trace copy.
// Sinks that need those fields (the sequentiality analyzer, say) must run
// against AccessReconstructor directly.
//
// One log is valid for one (trace, billing policy) pair: billing moves the
// transfer timestamps, so sweeping both billing bounds needs two logs.

#ifndef BSDTRACE_SRC_TRACE_REPLAY_LOG_H_
#define BSDTRACE_SRC_TRACE_REPLAY_LOG_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/fleet_tag.h"
#include "src/trace/reconstruct.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace bsdtrace {

// One packed replay event: either a reconstructed transfer or a raw trace
// record, discriminated by `kind`.  40 bytes, no pointers, no allocation
// (`instance` sits in what was padding after `kind`).
struct ReplayEvent {
  // Transfer kinds first; record kinds mirror EventType (same order).
  enum class Kind : uint8_t {
    kReadTransfer = 0,
    kWriteTransfer = 1,
    kOpen = 2,
    kCreate = 3,
    kClose = 4,
    kSeek = 5,
    kUnlink = 6,
    kTruncate = 7,
    kExecve = 8,
  };

  SimTime time;
  FileId file = kInvalidFileId;
  uint64_t offset = 0;  // transfers only
  uint64_t length = 0;  // transfer length, or record `size` payload
  Kind kind = Kind::kOpen;
  // Fleet instance the event belongs to, attributed from the v3/v4 fleet tag
  // in the trace header via the acting user id (0 for untagged traces).  The
  // §7 hierarchy simulator routes each event to that instance's client cache.
  uint16_t instance = 0;

  bool is_transfer() const {
    return kind == Kind::kReadTransfer || kind == Kind::kWriteTransfer;
  }
};

class TraceSource;  // trace_source.h

// The recorded reconstruction of one trace under one billing policy.
class ReplayLog {
 public:
  // Runs the reconstructor over `trace` and records the output stream.
  static ReplayLog Build(const Trace& trace,
                         BillingPolicy billing = BillingPolicy::kAtNextEvent);

  // Streams any TraceSource through the reconstructor — one record in
  // flight, so the peak footprint is the log itself, never trace + log.
  // Source errors (truncated file, corrupt header) surface as a Status.
  static StatusOr<ReplayLog> Build(TraceSource& source,
                                   BillingPolicy billing = BillingPolicy::kAtNextEvent);

  // Convenience: Build over a file-backed source (block-buffered reader).
  static StatusOr<ReplayLog> BuildFromFile(const std::string& path,
                                           BillingPolicy billing = BillingPolicy::kAtNextEvent);

  ReplayLog() = default;

  // Streams the recorded events into `sink`, a ReconstructionSink, in
  // recorded order.  The log keeps no open table, so each record's owner is
  // its own user_id.  Statically typed so calls devirtualize when Sink is a
  // final class (the simulator hot path); safe to call concurrently from
  // many threads — replay is read-only.
  template <typename Sink>
  void ReplayInto(Sink& sink) const {
    for (const ReplayEvent& e : events_) {
      if (e.is_transfer()) {
        sink.OnTransfer(UnpackTransfer(e));
      } else {
        const TraceRecord r = UnpackRecord(e);
        sink.OnRecord(r, RecordOwner{.user = r.user_id, .open_seen = true});
      }
    }
  }

  // Streams only the events a data-block cache acts on: transfers plus
  // create/unlink/truncate (invalidation) and execve (page-in) records.
  // Open/close/seek records reach such a sink solely to advance its
  // simulation clock, so they are elided here — as are invalidations of
  // files with no preceding data event (provable runtime no-ops) — and their
  // clock effect is realized by the next surviving event; one synthetic
  // trailing seek record restores the final clock value (end-of-trace
  // residency censoring).
  //
  // Bit-identical to ReplayInto for data-block cache sinks (the replay
  // parity test pins this against CacheSimulator); metadata simulation
  // reads open/close records and must use ReplayInto.
  template <typename Sink>
  void ReplayDataEventsInto(Sink& sink) const {
    for (const ReplayEvent& e : data_events_) {
      if (e.is_transfer()) {
        sink.OnTransfer(UnpackTransfer(e));
      } else {
        sink.OnRecord(UnpackRecord(e));
      }
    }
    if (has_clock_tail_) {
      TraceRecord r;
      r.type = EventType::kSeek;
      r.time = clock_tail_time_;
      sink.OnRecord(r);
    }
  }

  // The instance-attributed variant of ReplayDataEventsInto: same stream,
  // same elisions, but each event is delivered with the fleet instance it
  // was attributed to (`OnTransferFrom(instance, t)` / `OnRecordFrom(
  // instance, r)`).  The synthetic clock tail is delivered as instance 0 —
  // it exists only to advance clocks.  Untagged traces attribute everything
  // to instance 0.
  template <typename Sink>
  void ReplayDataEventsWithInstancesInto(Sink& sink) const {
    for (const ReplayEvent& e : data_events_) {
      if (e.is_transfer()) {
        sink.OnTransferFrom(e.instance, UnpackTransfer(e));
      } else {
        sink.OnRecordFrom(e.instance, UnpackRecord(e));
      }
    }
    if (has_clock_tail_) {
      TraceRecord r;
      r.type = EventType::kSeek;
      r.time = clock_tail_time_;
      sink.OnRecordFrom(static_cast<uint16_t>(0), r);
    }
  }

  BillingPolicy billing() const { return billing_; }
  size_t event_count() const { return events_.size(); }
  // Events streamed by ReplayDataEventsInto (including the synthetic clock
  // tail, if any).
  size_t data_event_count() const {
    return data_events_.size() + (has_clock_tail_ ? 1 : 0);
  }
  size_t transfer_count() const { return transfer_count_; }
  size_t record_count() const { return events_.size() - transfer_count_; }
  // Number of distinct file ids appearing in the log; sized-reserve hint for
  // per-file hash tables in replay consumers.
  size_t distinct_files() const { return distinct_files_; }
  // Fleet instances parsed from the trace header (empty for untagged
  // traces) and the number of instances events are attributed to (>= 1:
  // untagged traces have the single implicit instance 0).
  const std::vector<FleetInstanceTag>& fleet() const { return fleet_; }
  size_t instance_count() const { return std::max<size_t>(1, fleet_.size()); }

  // Known-extent feeds: the highest data offset previously seen for the
  // accessed file, precomputed per transfer (and per nonempty execve) in
  // stream order.  The trajectory is configuration-independent except for
  // execve page-in reads, which extend extents only when simulated — hence
  // two transfer feeds.  A replaying engine consumes these sequentially
  // instead of maintaining its own extent table (the cache layer's replay
  // front end, cache_level.h); both ReplayInto and ReplayDataEventsInto
  // deliver transfers and nonempty execves in identical order, so one feed
  // serves both.
  const std::vector<uint64_t>& transfer_extents() const { return transfer_extents_; }
  const std::vector<uint64_t>& transfer_extents_pagein() const {
    return transfer_extents_pagein_;
  }
  const std::vector<uint64_t>& execve_extents() const { return execve_extents_; }
  uint64_t dangling_opens() const { return dangling_opens_; }
  uint64_t orphan_events() const { return orphan_events_; }
  const std::vector<ReplayEvent>& events() const { return events_; }

 private:
  static Transfer UnpackTransfer(const ReplayEvent& e) {
    Transfer t;
    t.time = e.time;
    t.file_id = e.file;
    t.direction = e.kind == ReplayEvent::Kind::kWriteTransfer
                      ? TransferDirection::kWrite
                      : TransferDirection::kRead;
    t.offset = e.offset;
    t.length = e.length;
    return t;
  }

  static TraceRecord UnpackRecord(const ReplayEvent& e) {
    TraceRecord r;
    r.type = static_cast<EventType>(static_cast<uint8_t>(e.kind) - 1);
    r.time = e.time;
    r.file_id = e.file;
    r.size = e.length;
    return r;
  }

  void BuildDerivedStreams();

  BillingPolicy billing_ = BillingPolicy::kAtNextEvent;
  std::vector<FleetInstanceTag> fleet_;
  std::vector<ReplayEvent> events_;
  // Dense copy of the non-elidable events (see ReplayDataEventsInto) in
  // stream order: replays stream it sequentially with no indirection.
  std::vector<ReplayEvent> data_events_;
  std::vector<uint64_t> transfer_extents_;         // execve page-in NOT simulated
  std::vector<uint64_t> transfer_extents_pagein_;  // execve page-in simulated
  std::vector<uint64_t> execve_extents_;           // page-in trajectory
  SimTime clock_tail_time_;
  bool has_clock_tail_ = false;
  size_t transfer_count_ = 0;
  size_t distinct_files_ = 0;
  uint64_t dangling_opens_ = 0;
  uint64_t orphan_events_ = 0;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_REPLAY_LOG_H_
