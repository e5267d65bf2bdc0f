// Trace well-formedness checking.
//
// The analyses assume structurally valid traces (every close matches an open,
// positions only advance between repositions, time is monotone).  The
// validator checks those assumptions and reports precise diagnostics, so that
// corrupted or hand-edited traces fail loudly instead of skewing results.

#ifndef BSDTRACE_SRC_TRACE_VALIDATE_H_
#define BSDTRACE_SRC_TRACE_VALIDATE_H_

#include <string>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/status.h"

namespace bsdtrace {

struct ValidationResult {
  // Hard violations: the trace must not be analyzed.
  std::vector<std::string> errors;
  // Soft issues: analysis is possible but should be noted (e.g. opens still
  // pending when the trace ends — expected, since real traces are clipped).
  std::vector<std::string> warnings;

  uint64_t records = 0;
  uint64_t opens_pending_at_end = 0;

  bool ok() const { return errors.empty(); }
  // All errors and warnings joined, for logging.
  std::string Summary() const;
};

struct ValidateTraceOptions {
  // Caps the number of reported issues to keep output bounded.
  size_t max_issues = 20;
  // When set, one source line number per record (same length as the trace;
  // the text importers produce it): diagnostics say "line 17" instead of
  // "record 4", which is what a user staring at a foreign log needs.
  const std::vector<uint64_t>* line_numbers = nullptr;
  // Append the offending record's ToString() rendering to each error.
  bool render_records = false;
};

// Validates structural invariants:
//  * record times are non-decreasing;
//  * open ids are unique for the life of the trace: never reused while
//    open NOR after their close (the paper's open ids are like i-numbers —
//    assigned once, never recycled);
//  * close/seek reference an id that is currently open — a never-opened or
//    already-closed id is rejected, with the two cases distinguished in the
//    message;
//  * seek/close carry the file id of the matching open;
//  * access positions never move backward except via an explicit seek: a
//    seek whose `from` is behind the tracked position (open position, or the
//    last seek's `to`) contradicts the implicit-sequentiality convention
//    (reads/writes only advance the position);
//  * close size is at least the final position;
//  * field conventions hold (e.g. create has size 0 and position 0).
ValidationResult ValidateTrace(const Trace& trace, const ValidateTraceOptions& options);
ValidationResult ValidateTrace(const Trace& trace, size_t max_issues = 20);

// File-level integrity check over a binary trace file.  Decodes every record
// through the checksumming reader (v3/v4 block CRC32Cs are verified as each
// block is entered; v4 blocks are additionally decompressed and size-checked
// against their headers) and cross-checks the declared header count and,
// when a footer index is present, the index's block/record totals against
// what the blocks actually hold.  A flipped byte, truncated file, a v4 block
// whose decompressed size disagrees with its header, or an index that
// disagrees with the data all surface in `status`; the counters describe how
// far the scan got.
struct TraceFileCheck {
  Status status = Status::Ok();  // first corruption or I/O error, if any
  int version = 0;               // format version (1 through 4)
  uint64_t records = 0;          // records successfully decoded
  uint64_t blocks_verified = 0;  // v3/v4 blocks whose checksum was verified
  bool has_index = false;        // v3/v4 footer index present
  uint64_t index_entries = 0;    // blocks listed in the footer index
  uint64_t indexed_records = 0;  // record total the footer index claims
  SimTime last_time;             // time of the last decoded record
  // Payload accounting across verified blocks: bytes as stored on disk
  // (compressed for v4 rANS blocks) and after decompression; equal for v3.
  // `codec` names the block codecs seen: "none", "ans", "mixed" (a v4 file
  // whose incompressible blocks fell back to stored), or "-" for v1-v3.
  uint64_t payload_stored_bytes = 0;
  uint64_t payload_raw_bytes = 0;
  std::string codec = "-";

  bool ok() const { return status.ok(); }
};

TraceFileCheck CheckTraceFile(const std::string& path);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_VALIDATE_H_
