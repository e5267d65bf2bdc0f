#include "src/trace/validate.h"

#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {
namespace {

struct OpenState {
  FileId file_id = kInvalidFileId;
  uint64_t position = 0;  // position after the most recent event
};

}  // namespace

std::string ValidationResult::Summary() const {
  std::string out;
  for (const auto& e : errors) {
    out += "error: " + e + "\n";
  }
  for (const auto& w : warnings) {
    out += "warning: " + w + "\n";
  }
  return out;
}

ValidationResult ValidateTrace(const Trace& trace, const ValidateTraceOptions& options) {
  ValidationResult result;
  result.records = trace.size();

  std::unordered_map<OpenId, OpenState> open_files;
  // Ids whose close has been seen.  Needed to (a) reject id recycling — an
  // open id is like an i-number, assigned once per trace — and (b) tell a
  // close/seek on a stale id ("already closed") apart from one on an id the
  // trace never opened, which matters when debugging an importer's fd table.
  std::unordered_set<OpenId> closed_ids;
  SimTime prev_time = SimTime::Origin();
  uint64_t index = 0;

  auto error = [&](const std::string& msg) {
    if (result.errors.size() >= options.max_issues) {
      return;
    }
    const bool have_line =
        options.line_numbers != nullptr && index < options.line_numbers->size();
    std::string where = have_line ? "line " + std::to_string((*options.line_numbers)[index])
                                  : "record " + std::to_string(index);
    std::string text = std::move(where) + ": " + msg;
    if (options.render_records) {
      text += " [" + trace.records()[index].ToString() + "]";
    }
    result.errors.push_back(std::move(text));
  };

  // Resolves an open id for a close/seek, reporting the precise failure.
  auto find_open = [&](OpenId id, const char* what) {
    auto it = open_files.find(id);
    if (it == open_files.end()) {
      const char* why = closed_ids.count(id) != 0 ? " that was already closed"
                                                  : " that was never opened";
      error(std::string(what) + " on open id " + std::to_string(id) + why +
            " (not open)");
    }
    return it;
  };

  for (const TraceRecord& r : trace.records()) {
    if (r.time < prev_time) {
      error("time moves backwards");
    }
    prev_time = r.time;

    switch (r.type) {
      case EventType::kOpen:
      case EventType::kCreate: {
        if (r.open_id == kInvalidOpenId) {
          error("open with invalid open id 0");
          break;
        }
        if (closed_ids.count(r.open_id) != 0) {
          error("open id " + std::to_string(r.open_id) + " reused after close");
          break;
        }
        auto [it, inserted] = open_files.try_emplace(r.open_id);
        if (!inserted) {
          error("open id " + std::to_string(r.open_id) + " reused while still open");
          break;
        }
        it->second.file_id = r.file_id;
        it->second.position = r.position;
        if (r.type == EventType::kCreate && (r.size != 0 || r.position != 0)) {
          error("create record must have size 0 and position 0");
        }
        if (r.type == EventType::kOpen && r.position > r.size) {
          error("open initial position beyond file size");
        }
        break;
      }
      case EventType::kSeek: {
        auto it = find_open(r.open_id, "seek");
        if (it == open_files.end()) {
          break;
        }
        if (it->second.file_id != r.file_id) {
          error("seek file id does not match the open");
        }
        if (r.seek_from < it->second.position) {
          error("seek 'from' position " + std::to_string(r.seek_from) +
                " behind the tracked position " + std::to_string(it->second.position) +
                " (positions only advance between repositions)");
        }
        it->second.position = r.seek_to;
        break;
      }
      case EventType::kClose: {
        auto it = find_open(r.open_id, "close");
        if (it == open_files.end()) {
          break;
        }
        if (it->second.file_id != r.file_id) {
          error("close file id does not match the open");
        }
        if (r.position < it->second.position) {
          error("close final position behind the last known position");
        }
        if (r.size < r.position) {
          error("close size smaller than final position");
        }
        open_files.erase(it);
        closed_ids.insert(r.open_id);
        break;
      }
      case EventType::kUnlink:
        break;
      case EventType::kTruncate:
        break;
      case EventType::kExecve:
        break;
    }
    ++index;
  }

  result.opens_pending_at_end = open_files.size();
  if (!open_files.empty()) {
    result.warnings.push_back(std::to_string(open_files.size()) +
                              " file(s) still open when the trace ends");
  }
  return result;
}

ValidationResult ValidateTrace(const Trace& trace, size_t max_issues) {
  ValidateTraceOptions options;
  options.max_issues = max_issues;
  return ValidateTrace(trace, options);
}

TraceFileCheck CheckTraceFile(const std::string& path) {
  TraceFileCheck check;

  // The seekable probe parses the footer index (v3) and surfaces a corrupt
  // footer as a non-ok status; v1/v2 files come back ok with no index.
  SeekableTraceSource seekable(path);
  if (!seekable.status().ok()) {
    check.status = seekable.status();
    return check;
  }
  check.version = seekable.version();
  check.has_index = seekable.has_index();
  check.index_entries = seekable.index().size();
  check.indexed_records = seekable.indexed_records();

  TraceFileReader reader(path);
  if (!reader.status().ok()) {
    check.status = reader.status();
    return check;
  }
  TraceRecord record{};
  while (reader.Next(&record)) {
    ++check.records;
    check.last_time = record.time;
  }
  check.blocks_verified = reader.blocks_verified();
  check.payload_stored_bytes = reader.payload_stored_bytes();
  check.payload_raw_bytes = reader.payload_raw_bytes();
  if (reader.version() >= 4) {
    const uint32_t seen = reader.codecs_seen();
    if (seen == 0) {
      check.codec = "none";  // empty v4 file: no blocks at all
    } else if (std::has_single_bit(seen)) {
      check.codec = TraceCodecName(static_cast<uint8_t>(std::countr_zero(seen)));
    } else {
      check.codec = "mixed";
    }
  }
  if (!reader.status().ok()) {
    check.status = reader.status();
    return check;
  }
  if (reader.declared_record_count() >= 0 &&
      static_cast<uint64_t>(reader.declared_record_count()) != check.records) {
    check.status = Status::Error(
        "header declares " + std::to_string(reader.declared_record_count()) +
        " records but the file holds " + std::to_string(check.records));
    return check;
  }
  if (check.has_index && check.indexed_records != check.records) {
    check.status = Status::Error(
        "footer index claims " + std::to_string(check.indexed_records) +
        " records but the blocks hold " + std::to_string(check.records));
    return check;
  }
  if (check.has_index && check.index_entries != check.blocks_verified) {
    check.status = Status::Error(
        "footer index lists " + std::to_string(check.index_entries) +
        " blocks but the file holds " + std::to_string(check.blocks_verified));
  }
  return check;
}

}  // namespace bsdtrace
