// Access reconstruction: turning the no-read-write event stream back into
// byte-range transfers (paper §3.1).
//
// Because UNIX file I/O is implicitly sequential, the access position moves
// forward monotonically except at explicit repositions.  The positions logged
// at open, around each seek, and at close therefore delimit *sequential
// runs*: contiguous byte ranges that were read or written.  Each run is
// billed at the time of the event that ends it (the next seek or the close),
// exactly as the paper's analyses do.

#ifndef BSDTRACE_SRC_TRACE_RECONSTRUCT_H_
#define BSDTRACE_SRC_TRACE_RECONSTRUCT_H_

#include <cstdint>
#include <unordered_map>

#include "src/trace/record.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace bsdtrace {

enum class TransferDirection : uint8_t { kRead, kWrite };

// One sequential run of bytes, billed at `time`.
struct Transfer {
  SimTime time;
  OpenId open_id = kInvalidOpenId;
  FileId file_id = kInvalidFileId;
  UserId user_id = 0;
  AccessMode mode = AccessMode::kReadOnly;
  TransferDirection direction = TransferDirection::kRead;
  uint64_t offset = 0;
  uint64_t length = 0;

  uint64_t end() const { return offset + length; }
};

// Everything known about one open..close episode once it completes.
struct AccessSummary {
  OpenId open_id = kInvalidOpenId;
  FileId file_id = kInvalidFileId;
  UserId user_id = 0;
  AccessMode mode = AccessMode::kReadOnly;
  bool created = false;  // the open created / zero-truncated the file

  SimTime open_time;
  SimTime close_time;
  uint64_t size_at_open = 0;
  uint64_t size_at_close = 0;
  uint64_t bytes_transferred = 0;
  uint32_t run_count = 0;   // non-empty sequential runs
  uint32_t seek_count = 0;

  // Whole-file transfer: read/written sequentially from beginning to end
  // with no repositioning (Table V).
  bool whole_file = false;
  // Sequential access: whole-file, or a single reposition before any bytes
  // were transferred followed by one sequential run (Table V).
  bool sequential = false;

  Duration open_duration() const { return close_time - open_time; }
};

// The user a record was logged for.  Close and seek records do not carry a
// user id in every encoding, so the reconstructor resolves them to the user
// of the open they belong to.  `open_seen` is false for a close or seek whose
// open this reconstructor never saw (an orphan); the record's own user_id
// stands in for it.  A source without an open table (ReplayLog::ReplayInto)
// passes the record's own user_id.
struct RecordOwner {
  UserId user = 0;
  bool open_seen = true;
};

// Receives reconstruction results.  Default implementations ignore events, so
// consumers override only what they need.
class ReconstructionSink {
 public:
  virtual ~ReconstructionSink() = default;
  // A sequential run ended (by a seek or a close).
  virtual void OnTransfer(const Transfer& transfer) { (void)transfer; }
  // An open..close episode completed.
  virtual void OnAccess(const AccessSummary& access) { (void)access; }
  // Every raw record, in order, after per-open state was updated, with the
  // user it was logged for.  Lets consumers see unlink/truncate/execve/create
  // without re-reading the trace.
  virtual void OnRecord(const TraceRecord& record, RecordOwner owner) {
    (void)record;
    (void)owner;
  }
};

// When a run's transfer is billed.  The trace only bounds transfer times:
// the run happened somewhere between the event that began it and the event
// that ended it.  The paper bills at the ending event ("we billed each
// transfer at the time of the next close or reposition"); the alternative
// bound supports the timing-imprecision ablation (§3.1; Thompson [13] found
// exact times lower cache miss ratios by 2-3%).
enum class BillingPolicy : uint8_t {
  kAtNextEvent,      // the paper's convention (upper bound on transfer time)
  kAtPreviousEvent,  // lower bound: bill when the run began
};

// Streaming reconstructor.  Feed records in time order; results are delivered
// to the sink as soon as they are known.
class AccessReconstructor {
 public:
  // Mid-episode state for one open.  Public so segmented analysis
  // (parallel_analyzer.h) can hand opens that straddle a segment boundary
  // from the worker that saw the open to the stitcher that sees the close.
  struct OpenState {
    AccessSummary summary;
    uint64_t run_start = 0;       // position where the current run began
    SimTime run_start_time;       // time of the event that began the run
    bool transferred_before_first_seek = false;
  };

  explicit AccessReconstructor(ReconstructionSink* sink,
                               BillingPolicy billing = BillingPolicy::kAtNextEvent);

  void Process(const TraceRecord& record);

  // Declares end of trace.  Opens still pending are *dropped* (their byte
  // ranges cannot be billed without a closing event), matching the paper's
  // treatment of trace clipping; the count is available afterwards.
  void Finish();

  uint64_t dangling_opens() const { return dangling_opens_; }
  // Events referencing open ids that were never opened (corrupt traces).
  uint64_t orphan_events() const { return orphan_events_; }

  // Segment-boundary handoff.  TakeOpenStates surrenders the pending opens
  // (the reconstructor forgets them without counting them dangling);
  // AdoptOpenStates installs opens carried over from an earlier segment, so
  // their seeks and closes resolve here instead of counting as orphans.
  std::unordered_map<OpenId, OpenState> TakeOpenStates();
  void AdoptOpenStates(std::unordered_map<OpenId, OpenState> states);

 private:
  void EndRun(OpenState& state, SimTime end_time, uint64_t run_end);

  ReconstructionSink* sink_;
  BillingPolicy billing_;
  std::unordered_map<OpenId, OpenState> open_files_;
  uint64_t dangling_opens_ = 0;
  uint64_t orphan_events_ = 0;
};

// Convenience: run a whole trace through the reconstructor.
void Reconstruct(const Trace& trace, ReconstructionSink* sink,
                 BillingPolicy billing = BillingPolicy::kAtNextEvent);

class TraceSource;  // trace_source.h

// Streams a TraceSource through the reconstructor — one record in flight, so
// arbitrarily long on-disk traces reconstruct in bounded memory.  Returns the
// source's error if the stream fails mid-way (the sink will have seen a
// prefix of the results; discard them on error).
Status Reconstruct(TraceSource& source, ReconstructionSink* sink,
                   BillingPolicy billing = BillingPolicy::kAtNextEvent);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_RECONSTRUCT_H_
