#include "src/trace/trace_io.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <ostream>

#include "src/trace/crc32c.h"
#include "src/trace/io_buffer.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {
namespace {

constexpr char kMagicV1[8] = {'B', 'S', 'D', 'T', 'R', 'C', '1', '\n'};
constexpr char kMagicV2[8] = {'B', 'S', 'D', 'T', 'R', 'C', '2', '\n'};
constexpr char kMagicV3[8] = {'B', 'S', 'D', 'T', 'R', 'C', '3', '\n'};
constexpr char kMagicV4[8] = {'B', 'S', 'D', 'T', 'R', 'C', '4', '\n'};
constexpr uint8_t kEndSentinel = 0;
constexpr uint8_t kBlockMarker = 1;
constexpr int64_t kMicrosPerHour = int64_t{3'600} * 1'000'000;
// Codec id 1 was an LZ parse over an adaptive range coder; files written
// with it must be rewritten by a build that still reads them.
constexpr int kRetiredLzCodec = 1;

// The codec is templated over byte sinks/sources so the buffered file path,
// its raw-memory fast paths and the v4 stream buffers share one encoding.
//
// Sink concept:   void put(uint8_t);  void write(const void*, size_t);
// Source concept: int get();          bool read(void*, size_t);

struct BufferedSink {
  BufferedWriter& out;
  void put(uint8_t b) { out.PutByte(b); }
  void write(const void* p, size_t n) { out.Write(p, n); }
};

// Unchecked raw-memory sink for the record fast path: the caller reserves
// kMaxRecordEncoding bytes up front.
struct PtrSink {
  uint8_t* p;
  void put(uint8_t b) { *p++ = b; }
  void write(const void* src, size_t n) {
    std::memcpy(p, src, n);
    p += n;
  }
};

struct BufferedSource {
  BufferedReader& in;
  int get() { return in.GetByte(); }
  bool read(void* p, size_t n) { return in.Read(p, n); }
};

// Unchecked raw-memory source for the record fast path: the caller verifies
// kMaxRecordEncoding contiguous bytes up front, and the decoder consumes at
// most that many even on corrupt input (varints are capped at 10 bytes).
struct PtrSource {
  const uint8_t* p;
  int get() { return *p++; }
  bool read(void* out, size_t n) {
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
};

// Append-to-vector sink for the v4 per-field stream buffers.
struct VecSink {
  std::vector<uint8_t>& out;
  void put(uint8_t b) { out.push_back(b); }
  void write(const void* p, size_t n) {
    const uint8_t* src = static_cast<const uint8_t*>(p);
    out.insert(out.end(), src, src + n);
  }
};

// Bounds-checked memory source for v4 block payloads (decompressed bytes are
// untrusted even after the CRC: the checksum covers the stored bytes).
struct ByteCursor {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;
  int get() { return p < end ? *p++ : -1; }
  bool read(void* out, size_t n) {
    if (static_cast<size_t>(end - p) < n) {
      return false;
    }
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
};

template <typename Sink>
void PutVarint(Sink& out, uint64_t v) {
  while (v >= 0x80) {
    out.put(static_cast<uint8_t>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.put(static_cast<uint8_t>(v));
}

template <typename Source>
bool GetVarint(Source& in, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    const int c = in.get();
    if (c < 0) {
      return false;
    }
    result |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) {
      break;
    }
    shift += 7;
    if (shift >= 64) {
      return false;  // overlong varint
    }
  }
  *v = result;
  return true;
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

template <typename Sink>
void PutString(Sink& out, const std::string& s) {
  PutVarint(out, s.size());
  out.write(s.data(), s.size());
}

template <typename Source>
bool GetString(Source& in, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(in, &len)) {
    return false;
  }
  if (len > (64u << 20)) {  // sanity cap: 64 MB strings mean corruption
    return false;
  }
  s->resize(len);
  return in.read(s->data(), len);
}

// One record: type byte, zigzag time delta, then the per-type payload.
template <typename Sink>
void EncodeRecord(Sink& out, const TraceRecord& r, int64_t* prev_time_us) {
  out.put(static_cast<uint8_t>(r.type));
  PutVarint(out, ZigZagEncode(r.time.micros() - *prev_time_us));
  *prev_time_us = r.time.micros();
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate:
      PutVarint(out, r.open_id);
      PutVarint(out, r.file_id);
      PutVarint(out, r.user_id);
      out.put(static_cast<uint8_t>(r.mode));
      PutVarint(out, r.size);
      PutVarint(out, r.position);
      break;
    case EventType::kClose:
      PutVarint(out, r.open_id);
      PutVarint(out, r.file_id);
      PutVarint(out, r.position);
      PutVarint(out, r.size);
      break;
    case EventType::kSeek:
      PutVarint(out, r.open_id);
      PutVarint(out, r.file_id);
      PutVarint(out, r.seek_from);
      PutVarint(out, r.seek_to);
      break;
    case EventType::kUnlink:
      PutVarint(out, r.file_id);
      PutVarint(out, r.user_id);
      break;
    case EventType::kTruncate:
      PutVarint(out, r.file_id);
      PutVarint(out, r.user_id);
      PutVarint(out, r.size);
      break;
    case EventType::kExecve:
      PutVarint(out, r.file_id);
      PutVarint(out, r.user_id);
      PutVarint(out, r.size);
      break;
  }
}

enum class DecodeResult : uint8_t { kRecord, kEnd, kError };

// Decodes one record (after the caller consumed nothing).  On kError the
// stream position is unspecified; *error names the cause.
template <typename Source>
DecodeResult DecodeRecord(Source& in, TraceRecord* record, int64_t* prev_time_us,
                          const char** error) {
  const int type_byte = in.get();
  if (type_byte < 0) {
    *error = "unexpected end of stream (missing end sentinel)";
    return DecodeResult::kError;
  }
  if (type_byte == kEndSentinel) {
    return DecodeResult::kEnd;
  }
  if (type_byte < 1 || type_byte > 7) {
    *error = "corrupt record: unknown event type";
    return DecodeResult::kError;
  }

  // Decode in place (no local + copy-out); on kError the record's contents
  // are unspecified, per the contract above.
  *record = TraceRecord{};
  TraceRecord& r = *record;
  r.type = static_cast<EventType>(type_byte);
  uint64_t v = 0;
  auto fail = [&]() {
    *error = "truncated record body";
    return DecodeResult::kError;
  };
  if (!GetVarint(in, &v)) {
    return fail();
  }
  *prev_time_us += ZigZagDecode(v);
  r.time = SimTime::FromMicros(*prev_time_us);

  auto get = [&](uint64_t* out) { return GetVarint(in, out); };
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate: {
      uint64_t user = 0;
      if (!get(&r.open_id) || !get(&r.file_id) || !get(&user)) {
        return fail();
      }
      const int mode_byte = in.get();
      if (mode_byte < 0 || mode_byte > 2) {
        return fail();
      }
      if (!get(&r.size) || !get(&r.position)) {
        return fail();
      }
      r.user_id = static_cast<UserId>(user);
      r.mode = static_cast<AccessMode>(mode_byte);
      break;
    }
    case EventType::kClose:
      if (!get(&r.open_id) || !get(&r.file_id) || !get(&r.position) || !get(&r.size)) {
        return fail();
      }
      break;
    case EventType::kSeek:
      if (!get(&r.open_id) || !get(&r.file_id) || !get(&r.seek_from) || !get(&r.seek_to)) {
        return fail();
      }
      break;
    case EventType::kUnlink: {
      uint64_t user = 0;
      if (!get(&r.file_id) || !get(&user)) {
        return fail();
      }
      r.user_id = static_cast<UserId>(user);
      break;
    }
    case EventType::kTruncate:
    case EventType::kExecve: {
      uint64_t user = 0;
      if (!get(&r.file_id) || !get(&user) || !get(&r.size)) {
        return fail();
      }
      r.user_id = static_cast<UserId>(user);
      break;
    }
  }
  return DecodeResult::kRecord;
}

template <typename Sink>
void PutFixed32(Sink& out, uint32_t v) {
  uint8_t b[4] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                  static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
  out.write(b, sizeof(b));
}

template <typename Sink>
void PutFixed64(Sink& out, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out.write(b, sizeof(b));
}

uint32_t ReadFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

template <typename Sink>
void EncodeHeader(Sink& out, const TraceHeader& header, int64_t expected_records,
                  int version) {
  out.write(version == 4 ? kMagicV4 : (version == 3 ? kMagicV3 : kMagicV2), sizeof(kMagicV2));
  PutString(out, header.machine);
  PutString(out, header.description);
  // N+1 so that 0 can mean "count unknown" (streamed traces).
  PutVarint(out, expected_records >= 0 ? static_cast<uint64_t>(expected_records) + 1 : 0);
}

// Parses the magic + header; returns false with *error set on failure.
// *declared stays -1 for v1 files or unknown counts; *version gets 1..4.
template <typename Source>
bool DecodeHeader(Source& in, TraceHeader* header, int64_t* declared, int* version,
                  const char** error) {
  char magic[sizeof(kMagicV2)];
  const bool got_magic = in.read(magic, sizeof(magic));
  const bool v1 = got_magic && std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0;
  const bool v2 = got_magic && std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0;
  const bool v3 = got_magic && std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0;
  const bool v4 = got_magic && std::memcmp(magic, kMagicV4, sizeof(kMagicV4)) == 0;
  if (!v1 && !v2 && !v3 && !v4) {
    *error = "bad magic: not a bsdtrace binary trace";
    return false;
  }
  *version = v1 ? 1 : (v2 ? 2 : (v3 ? 3 : 4));
  if (!GetString(in, &header->machine) || !GetString(in, &header->description)) {
    *error = "truncated trace header";
    return false;
  }
  if (!v1) {
    uint64_t count_plus_one = 0;
    if (!GetVarint(in, &count_plus_one)) {
      *error = "truncated trace header";
      return false;
    }
    if (count_plus_one > 0) {
      *declared = static_cast<int64_t>(count_plus_one - 1);
    }
  }
  return true;
}

}  // namespace

// -- Block-buffered file path -------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string& path, const TraceHeader& header,
                                 int64_t expected_records, const TraceWriterOptions& options)
    : path_(path),
      temp_path_(path + ".tmp-" + std::to_string(::getpid())),
      out_(temp_path_),
      options_(options) {
  assert(options_.version >= 2 && options_.version <= 4);
  if (!out_.ok()) {
    return;
  }
  BufferedSink sink{out_};
  EncodeHeader(sink, header, expected_records, options_.version);
  if (options_.version == 3) {
    block_.reserve(options_.block_target_bytes + kMaxRecordEncoding);
  }
}

TraceFileWriter::~TraceFileWriter() { Finish(); }

void TraceFileWriter::Append(const TraceRecord& r) {
  assert(!finished_);
  if (options_.version == 4) {
    AppendV4(r);
    return;
  }
  if (options_.version == 3) {
    // Close the block at the size target or when the record crosses a
    // simulated-hour boundary, so the footer doubles as an hour index.  The
    // break decision is a pure function of the record stream, keeping v3
    // output byte-deterministic like v2.
    const int64_t hour = r.time.micros() / kMicrosPerHour;
    if (block_records_ > 0 &&
        (block_.size() >= options_.block_target_bytes || hour != block_first_hour_)) {
      FlushBlock();
    }
    if (block_records_ == 0) {
      block_first_hour_ = hour;
      block_start_time_us_ = r.time.micros();
      prev_time_us_ = 0;  // per-block delta base: blocks decode independently
    }
    const size_t old_size = block_.size();
    block_.resize(old_size + kMaxRecordEncoding);
    PtrSink sink{block_.data() + old_size};
    EncodeRecord(sink, r, &prev_time_us_);
    block_.resize(old_size + static_cast<size_t>(sink.p - (block_.data() + old_size)));
    ++block_records_;
    ++records_written_;
    return;
  }
  uint8_t* base = out_.Reserve(kMaxRecordEncoding);
  PtrSink sink{base};
  EncodeRecord(sink, r, &prev_time_us_);
  assert(static_cast<size_t>(sink.p - base) <= kMaxRecordEncoding);
  out_.Advance(static_cast<size_t>(sink.p - base));
  ++records_written_;
}

void TraceFileWriter::FlushBlock() {
  if (block_records_ == 0) {
    return;
  }
  index_.push_back(TraceBlockIndexEntry{
      .offset = out_.bytes_written(),
      .record_count = block_records_,
      .start_time = SimTime::FromMicros(block_start_time_us_)});
  BufferedSink sink{out_};
  sink.put(kBlockMarker);
  PutVarint(sink, block_records_);
  PutVarint(sink, block_.size());
  PutFixed32(sink, Crc32c(block_.data(), block_.size()));
  out_.Write(block_.data(), block_.size());
  block_.clear();
  block_records_ = 0;
}

size_t TraceFileWriter::V4FieldStreams::payload_size() const {
  return types.size() + times.size() + open_ids.size() + file_ids.size() + user_ids.size() +
         flags.size() + sizes.size() + positions.size() + seek_froms.size() + seek_tos.size();
}

void TraceFileWriter::V4FieldStreams::Clear() {
  types.clear();
  times.clear();
  open_ids.clear();
  file_ids.clear();
  user_ids.clear();
  flags.clear();
  sizes.clear();
  positions.clear();
  seek_froms.clear();
  seek_tos.clear();
  prev_open_id = 0;
  open_table.Clear();
  open_lru.clear();
  file_mtf.Clear();
  user_mtf.Clear();
  file_size.Clear();
}

namespace {

// Zigzag delta against the stream's previous value, in uint64 arithmetic so
// wraparound is well-defined for any field values.
void PutDelta(std::vector<uint8_t>& stream, uint64_t* prev, uint64_t value) {
  VecSink sink{stream};
  PutVarint(sink, ZigZagEncode(static_cast<int64_t>(value - *prev)));
  *prev = value;
}

// Zigzag-coded residual against a predicted value (uint64 wraparound).
void PutResidual(std::vector<uint8_t>& stream, uint64_t value, uint64_t predicted) {
  VecSink sink{stream};
  PutVarint(sink, ZigZagEncode(static_cast<int64_t>(value - predicted)));
}

void PutRaw(std::vector<uint8_t>& stream, uint64_t value) {
  VecSink sink{stream};
  PutVarint(sink, value);
}

// File and user ids are Zipfian references, not random-walk values, so they
// are coded through a block-local move-to-front list (move_to_front.h):
// rank+1 for a value on the list, 0 followed by the full value for one that
// is not.
void PutMtf(std::vector<uint8_t>& stream, MtfEncoder* mtf, uint64_t value) {
  const uint64_t code = mtf->Encode(value);
  PutRaw(stream, code);
  if (code == 0) {
    PutRaw(stream, value);
  }
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// v4 close/seek prediction flags (see the trace_io.h format comment).  A
// close or seek is "in table" only when its open id maps to an open from
// this block AND the record's file id agrees — so omitting the file id
// rewrites nothing, and round-trips are exact for arbitrary (even invalid)
// record sequences.
constexpr uint8_t kV4InTable = 1u << 0;
constexpr uint8_t kV4PosEqSize = 1u << 1;   // close: position == size
constexpr uint8_t kV4SizeEqOpen = 1u << 2;  // close: size == open's size
constexpr uint8_t kV4FromEqPos = 1u << 1;   // seek: from == table position

}  // namespace

void TraceFileWriter::AppendV4(const TraceRecord& r) {
  // Same block-close rule as v3 (size target or simulated-hour boundary,
  // decided before the record is added), so v4 output stays a pure function
  // of the record stream — byte-deterministic across runs and thread counts.
  const int64_t hour = r.time.micros() / kMicrosPerHour;
  if (block_records_ > 0 &&
      (v4_.payload_size() >= options_.block_target_bytes || hour != block_first_hour_)) {
    FlushBlockV4();
  }
  if (block_records_ == 0) {
    block_first_hour_ = hour;
    block_start_time_us_ = r.time.micros();
    prev_time_us_ = 0;  // per-block bases: blocks decode independently
    v4_.Clear();
  }
  const bool has_mode = r.type == EventType::kOpen || r.type == EventType::kCreate;
  v4_.types.push_back(static_cast<uint8_t>(r.type) |
                      (has_mode ? static_cast<uint8_t>(r.mode) << 3 : 0));
  {
    VecSink sink{v4_.times};
    PutVarint(sink, ZigZagEncode(r.time.micros() - prev_time_us_));
    prev_time_us_ = r.time.micros();
  }
  // Size of a file reference: residual against the file's last size seen in
  // this block (files rarely change size between references).
  auto put_size = [&](uint64_t file_id, uint64_t size) {
    uint64_t& last = v4_.file_size[file_id];  // 0 for a file new to the block
    PutResidual(v4_.sizes, size, last);
    last = size;
  };
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate: {
      PutDelta(v4_.open_ids, &v4_.prev_open_id, r.open_id);
      PutMtf(v4_.file_ids, &v4_.file_mtf, r.file_id);
      PutMtf(v4_.user_ids, &v4_.user_mtf, r.user_id);
      put_size(r.file_id, r.size);
      PutRaw(v4_.positions, r.position);
      // The LRU list mirrors the table's key set exactly; a re-used open id
      // replaces its old entry in both.
      if (v4_.open_table.Find(r.open_id) != nullptr) {
        v4_.open_lru.erase(std::find(v4_.open_lru.begin(), v4_.open_lru.end(), r.open_id));
      }
      v4_.open_table[r.open_id] = {r.file_id, r.size, r.position};
      v4_.open_lru.insert(v4_.open_lru.begin(), r.open_id);
      break;
    }
    case EventType::kClose: {
      const V4FieldStreams::OpenInfo* open = v4_.open_table.Find(r.open_id);
      const bool in_table = open != nullptr && open->file_id == r.file_id;
      const bool pos_eq = r.position == r.size;
      const bool size_eq = in_table && r.size == open->size;
      v4_.flags.push_back(static_cast<uint8_t>((in_table ? kV4InTable : 0) |
                                               (pos_eq ? kV4PosEqSize : 0) |
                                               (size_eq ? kV4SizeEqOpen : 0)));
      if (in_table) {
        auto lru = std::find(v4_.open_lru.begin(), v4_.open_lru.end(), r.open_id);
        PutRaw(v4_.open_ids, static_cast<uint64_t>(lru - v4_.open_lru.begin()));
        v4_.open_lru.erase(lru);
      } else {
        PutDelta(v4_.open_ids, &v4_.prev_open_id, r.open_id);
        PutMtf(v4_.file_ids, &v4_.file_mtf, r.file_id);
      }
      if (!size_eq) {
        if (in_table) {
          PutResidual(v4_.sizes, r.size, open->size);
        } else {
          PutRaw(v4_.sizes, r.size);
        }
      }
      if (!pos_eq) {
        PutResidual(v4_.positions, r.position, r.size);
      }
      if (in_table) {
        v4_.open_table.Erase(r.open_id);
        v4_.file_size[r.file_id] = r.size;
      }
      break;
    }
    case EventType::kSeek: {
      V4FieldStreams::OpenInfo* open = v4_.open_table.Find(r.open_id);
      const bool in_table = open != nullptr && open->file_id == r.file_id;
      const bool from_eq = in_table && r.seek_from == open->position;
      v4_.flags.push_back(static_cast<uint8_t>((in_table ? kV4InTable : 0) |
                                               (from_eq ? kV4FromEqPos : 0)));
      if (in_table) {
        auto lru = std::find(v4_.open_lru.begin(), v4_.open_lru.end(), r.open_id);
        const uint64_t rank = static_cast<uint64_t>(lru - v4_.open_lru.begin());
        PutRaw(v4_.open_ids, rank);
        v4_.open_lru.erase(lru);
        v4_.open_lru.insert(v4_.open_lru.begin(), r.open_id);
      } else {
        PutDelta(v4_.open_ids, &v4_.prev_open_id, r.open_id);
        PutMtf(v4_.file_ids, &v4_.file_mtf, r.file_id);
      }
      if (!from_eq) {
        if (in_table) {
          PutResidual(v4_.seek_froms, r.seek_from, open->position);
        } else {
          PutRaw(v4_.seek_froms, r.seek_from);
        }
      }
      PutResidual(v4_.seek_tos, r.seek_to, r.seek_from);
      if (in_table) {
        open->position = r.seek_to;
      }
      break;
    }
    case EventType::kUnlink:
      PutMtf(v4_.file_ids, &v4_.file_mtf, r.file_id);
      PutMtf(v4_.user_ids, &v4_.user_mtf, r.user_id);
      break;
    case EventType::kTruncate:
    case EventType::kExecve:
      PutMtf(v4_.file_ids, &v4_.file_mtf, r.file_id);
      PutMtf(v4_.user_ids, &v4_.user_mtf, r.user_id);
      put_size(r.file_id, r.size);
      break;
  }
  ++block_records_;
  ++records_written_;
}

void TraceFileWriter::FlushBlockV4() {
  if (block_records_ == 0) {
    return;
  }
  // The raw payload is the type stream (its length is the block's record
  // count, already in the header), then each field stream length-prefixed,
  // in fixed order.  The codec takes the streams as its columns and
  // decompresses to exactly that layout.
  const std::vector<uint8_t>* const streams[] = {
      &v4_.types, &v4_.times, &v4_.open_ids, &v4_.file_ids, &v4_.user_ids,
      &v4_.flags, &v4_.sizes, &v4_.positions, &v4_.seek_froms, &v4_.seek_tos};
  size_t raw_size = v4_.types.size();
  for (size_t i = 1; i < std::size(streams); ++i) {
    raw_size += VarintSize(streams[i]->size()) + streams[i]->size();
  }
  uint8_t codec = static_cast<uint8_t>(TraceCodec::kNone);
  const uint8_t* stored = nullptr;
  size_t stored_len = raw_size;
  if (options_.codec == TraceCodec::kAns) {
    AnsColumn columns[std::size(streams)];
    for (size_t i = 0; i < std::size(streams); ++i) {
      columns[i] = AnsColumn{streams[i]->data(), streams[i]->size()};
    }
    v4_stored_.resize(AnsMaxCompressedSize(v4_.payload_size(), std::size(streams)));
    const size_t n = AnsCompress(columns, std::size(streams), v4_stored_.data());
    if (n < raw_size) {
      codec = static_cast<uint8_t>(TraceCodec::kAns);
      stored = v4_stored_.data();
      stored_len = n;
    }
  }
  if (stored == nullptr) {  // stored codec, or a block the codec cannot shrink
    v4_raw_.clear();
    VecSink raw{v4_raw_};
    raw.write(v4_.types.data(), v4_.types.size());
    for (size_t i = 1; i < std::size(streams); ++i) {
      PutVarint(raw, streams[i]->size());
      raw.write(streams[i]->data(), streams[i]->size());
    }
    stored = v4_raw_.data();
  }
  index_.push_back(TraceBlockIndexEntry{
      .offset = out_.bytes_written(),
      .record_count = block_records_,
      .start_time = SimTime::FromMicros(block_start_time_us_)});
  BufferedSink sink{out_};
  sink.put(kBlockMarker);
  PutVarint(sink, block_records_);
  PutVarint(sink, raw_size);
  sink.put(codec);
  PutVarint(sink, stored_len);
  PutFixed32(sink, Crc32c(stored, stored_len));
  out_.Write(stored, stored_len);
  payload_raw_bytes_ += raw_size;
  payload_stored_bytes_ += stored_len;
  block_records_ = 0;
}

Status TraceFileWriter::Finish() {
  if (!finished_) {
    if (options_.version >= 3) {
      if (options_.version == 4) {
        FlushBlockV4();
      } else {
        FlushBlock();
      }
      out_.PutByte(kEndSentinel);
      if (options_.write_index) {
        const uint64_t footer_offset = out_.bytes_written();
        BufferedSink sink{out_};
        PutVarint(sink, index_.size());
        uint64_t prev_offset = 0;
        for (const TraceBlockIndexEntry& e : index_) {
          PutVarint(sink, e.offset - prev_offset);
          PutVarint(sink, e.record_count);
          PutVarint(sink, static_cast<uint64_t>(e.start_time.micros()));
          prev_offset = e.offset;
        }
        PutFixed64(sink, footer_offset);
        out_.Write(kTraceIndexTailMagic, sizeof(kTraceIndexTailMagic));
      }
    } else {
      out_.PutByte(kEndSentinel);
    }
    finished_ = true;
    finish_status_ = out_.Close();
    if (finish_status_.ok() && std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
      finish_status_ = Status::Error("cannot rename " + temp_path_ + " to " + path_ + ": " +
                                     std::strerror(errno));
    }
    if (!finish_status_.ok()) {
      std::remove(temp_path_.c_str());
    }
  }
  return finish_status_;
}

void TraceFileWriter::Abandon() {
  if (finished_) {
    return;
  }
  finished_ = true;
  out_.Close();
  std::remove(temp_path_.c_str());
  finish_status_ = Status::Error("trace write abandoned: " + path_);
}

TraceFileReader::TraceFileReader(const std::string& path, bool prefer_mmap)
    : in_(path, prefer_mmap) {
  if (!in_.ok()) {
    status_ = in_.status();
    done_ = true;
    return;
  }
  BufferedSource source{in_};
  const char* error = nullptr;
  if (!DecodeHeader(source, &header_, &declared_record_count_, &version_, &error)) {
    status_ = Status::Error(error);
    done_ = true;
  }
}

bool TraceFileReader::FailCorrupt(const char* error) {
  if (!in_.status().ok()) {
    status_ = in_.status();  // underlying I/O error beats the decode error
  } else {
    status_ = Status::Error(error);
  }
  done_ = true;
  return false;
}

Status TraceFileReader::SeekToBlock(uint64_t offset, uint64_t block_count) {
  if (!status_.ok()) {
    return status_;
  }
  if (version_ < 3) {
    status_ = Status::Error("SeekToBlock requires a v3/v4 trace");
    done_ = true;
    return status_;
  }
  const Status s = in_.SkipTo(offset);
  if (!s.ok()) {
    status_ = s;
    done_ = true;
    return s;
  }
  done_ = false;
  block_remaining_ = 0;
  scratch_active_ = false;
  v4_records_.clear();
  v4_next_ = 0;
  blocks_limited_ = true;
  blocks_left_ = block_count;
  return Status::Ok();
}

// One v3 record: drains the current block, verifying the next block's CRC32C
// before any of its records are surfaced.
bool TraceFileReader::NextV3(TraceRecord* record) {
  while (true) {
    if (block_remaining_ > 0) {
      --block_remaining_;
      const char* error = nullptr;
      if (scratch_active_) {
        // Copy-and-verify path (unmapped reads): decode from the scratch
        // buffer.  The CRC already vouched for the payload, and the buffer
        // carries kMaxRecordEncoding zero bytes of slack, so the unchecked
        // PtrSource cannot run past the allocation even on a decoder bug.
        const uint8_t* base = scratch_.data() + scratch_pos_;
        PtrSource source{base};
        if (scratch_pos_ > scratch_len_ ||
            DecodeRecord(source, record, &prev_time_us_, &error) != DecodeResult::kRecord) {
          return FailCorrupt("corrupt v3 block: record decode failed after checksum");
        }
        scratch_pos_ += static_cast<size_t>(source.p - base);
        return true;
      }
      // Mapped path: decode straight from the file window, as in v2.
      size_t available = 0;
      const uint8_t* window = in_.Contiguous(kMaxRecordEncoding, &available);
      if (available >= kMaxRecordEncoding) {
        PtrSource source{window};
        if (DecodeRecord(source, record, &prev_time_us_, &error) != DecodeResult::kRecord) {
          return FailCorrupt("corrupt v3 block: record decode failed after checksum");
        }
        in_.Advance(static_cast<size_t>(source.p - window));
        return true;
      }
      BufferedSource source{in_};
      if (DecodeRecord(source, record, &prev_time_us_, &error) != DecodeResult::kRecord) {
        return FailCorrupt("corrupt v3 block: record decode failed after checksum");
      }
      return true;
    }
    // Between blocks: enforce the cursor budget, then enter the next block.
    scratch_active_ = false;
    if (blocks_limited_ && blocks_left_ == 0) {
      done_ = true;
      return false;
    }
    const int marker = in_.GetByte();
    if (marker < 0) {
      return FailCorrupt("unexpected end of file (missing end sentinel)");
    }
    if (marker == kEndSentinel) {
      done_ = true;  // the footer index (if any) is not part of the stream
      return false;
    }
    if (marker != kBlockMarker) {
      return FailCorrupt("corrupt v3 trace: bad block marker");
    }
    if (blocks_limited_) {
      --blocks_left_;
    }
    BufferedSource header_source{in_};
    uint64_t record_count = 0;
    uint64_t payload_len = 0;
    uint8_t crc_bytes[4];
    if (!GetVarint(header_source, &record_count) || !GetVarint(header_source, &payload_len) ||
        !in_.Read(crc_bytes, sizeof(crc_bytes))) {
      return FailCorrupt("truncated v3 block header");
    }
    if (record_count == 0 || payload_len == 0 || payload_len > kMaxBlockPayload) {
      return FailCorrupt("corrupt v3 block header");
    }
    const uint32_t expected_crc = ReadFixed32(crc_bytes);
    if (in_.mapped()) {
      size_t available = 0;
      const uint8_t* window = in_.Contiguous(1, &available);  // mapped: whole rest
      if (window == nullptr || available < payload_len) {
        return FailCorrupt("truncated v3 block payload");
      }
      if (Crc32c(window, payload_len) != expected_crc) {
        return FailCorrupt("v3 block checksum mismatch (corrupt trace)");
      }
    } else {
      scratch_.resize(payload_len + kMaxRecordEncoding);
      if (!in_.Read(scratch_.data(), payload_len)) {
        return FailCorrupt("truncated v3 block payload");
      }
      std::memset(scratch_.data() + payload_len, 0, kMaxRecordEncoding);
      if (Crc32c(scratch_.data(), payload_len) != expected_crc) {
        return FailCorrupt("v3 block checksum mismatch (corrupt trace)");
      }
      scratch_pos_ = 0;
      scratch_len_ = payload_len;
      scratch_active_ = true;
    }
    ++blocks_verified_;
    payload_stored_bytes_ += payload_len;  // v3 stores payloads raw
    payload_raw_bytes_ += payload_len;
    block_remaining_ = record_count;
    prev_time_us_ = 0;  // per-block time-delta base
  }
}

namespace {

// Decodes one v4 block's raw (decompressed) payload into records.  Fully
// bounds-checked: the CRC covered the stored bytes, so everything here is
// still untrusted.  Returns false on any malformed layout — wrong stream
// lengths, bad types, truncated varints, or streams not consumed exactly.
bool DecodeBlockV4(const uint8_t* raw, size_t raw_len, uint64_t record_count,
                   MtfDecoder* file_mtf, MtfDecoder* user_mtf, std::vector<TraceRecord>* out) {
  if (record_count > raw_len) {
    return false;  // the type stream alone needs one byte per record
  }
  const uint8_t* const end = raw + raw_len;
  const uint8_t* const types = raw;
  ByteCursor layout{raw + record_count, end};
  // Field streams in the fixed writer order: times, open_ids, file_ids,
  // user_ids, flags, sizes, positions, seek_froms, seek_tos.
  ByteCursor streams[9];
  for (ByteCursor& stream : streams) {
    uint64_t len = 0;
    if (!GetVarint(layout, &len) || len > static_cast<size_t>(layout.end - layout.p)) {
      return false;
    }
    stream = ByteCursor{layout.p, layout.p + len};
    layout.p += len;
  }
  if (layout.p != end) {
    return false;  // trailing bytes after the last stream
  }
  ByteCursor& times = streams[0];
  ByteCursor& open_ids = streams[1];
  ByteCursor& file_ids = streams[2];
  ByteCursor& user_ids = streams[3];
  ByteCursor& flags = streams[4];
  ByteCursor& sizes = streams[5];
  ByteCursor& positions = streams[6];
  ByteCursor& seek_froms = streams[7];
  ByteCursor& seek_tos = streams[8];
  uint64_t prev_time = 0, prev_open = 0;
  auto delta = [](ByteCursor& c, uint64_t* prev, uint64_t* value) {
    uint64_t z = 0;
    if (!GetVarint(c, &z)) {
      return false;
    }
    *prev += static_cast<uint64_t>(ZigZagDecode(z));
    *value = *prev;
    return true;
  };
  auto residual = [](ByteCursor& c, uint64_t predicted, uint64_t* value) {
    uint64_t z = 0;
    if (!GetVarint(c, &z)) {
      return false;
    }
    *value = predicted + static_cast<uint64_t>(ZigZagDecode(z));
    return true;
  };
  // Mirrors of the writer's block-local prediction state (see trace_io.h):
  // the open table + its LRU list, the file/user MTF lists, the size map.
  struct OpenInfo {
    uint64_t file_id = 0;
    uint64_t size = 0;
    uint64_t position = 0;
  };
  U64FlatMap<OpenInfo> open_table;
  std::vector<uint64_t> open_lru;
  U64FlatMap<uint64_t> file_size(1024);
  file_mtf->Clear();
  user_mtf->Clear();
  auto mtf_get = [](ByteCursor& c, MtfDecoder* mtf, uint64_t* value) {
    uint64_t code = 0;
    if (!GetVarint(c, &code) || (code == 0 && !GetVarint(c, value))) {
      return false;
    }
    return mtf->Decode(code, value);
  };
  auto size_get = [&](ByteCursor& c, uint64_t file_id, uint64_t* value) {
    uint64_t& last = file_size[file_id];  // 0 for a file new to the block
    if (!residual(c, last, value)) {
      return false;
    }
    last = *value;
    return true;
  };
  out->reserve(out->size() + static_cast<size_t>(std::min<uint64_t>(record_count, 1u << 20)));
  for (uint64_t i = 0; i < record_count; ++i) {
    const uint8_t type_byte = types[i] & 0x07;
    const uint8_t mode_bits = types[i] >> 3;
    if (type_byte < 1 || type_byte > 7) {
      return false;
    }
    TraceRecord r;
    r.type = static_cast<EventType>(type_byte);
    const bool has_mode = r.type == EventType::kOpen || r.type == EventType::kCreate;
    if (has_mode ? mode_bits > 2 : mode_bits != 0) {
      return false;  // non-canonical type byte
    }
    uint64_t v = 0;
    if (!delta(times, &prev_time, &v)) {
      return false;
    }
    r.time = SimTime::FromMicros(static_cast<int64_t>(prev_time));
    switch (r.type) {
      case EventType::kOpen:
      case EventType::kCreate: {
        uint64_t user = 0;
        if (!delta(open_ids, &prev_open, &r.open_id) ||
            !mtf_get(file_ids, file_mtf, &r.file_id) || !mtf_get(user_ids, user_mtf, &user) ||
            !size_get(sizes, r.file_id, &r.size) || !GetVarint(positions, &r.position)) {
          return false;
        }
        r.user_id = static_cast<UserId>(user);
        r.mode = static_cast<AccessMode>(mode_bits);
        if (open_table.Find(r.open_id) != nullptr) {
          open_lru.erase(std::find(open_lru.begin(), open_lru.end(), r.open_id));
        }
        open_table[r.open_id] = {r.file_id, r.size, r.position};
        open_lru.insert(open_lru.begin(), r.open_id);
        break;
      }
      case EventType::kClose: {
        const int f = flags.get();
        if (f < 0 || (f & ~(kV4InTable | kV4PosEqSize | kV4SizeEqOpen)) != 0) {
          return false;
        }
        OpenInfo* open = nullptr;
        if (f & kV4InTable) {
          uint64_t rank = 0;
          if (!GetVarint(open_ids, &rank) || rank >= open_lru.size()) {
            return false;
          }
          r.open_id = open_lru[rank];
          open = open_table.Find(r.open_id);
          if (open == nullptr) {
            return false;  // unreachable: the LRU list mirrors the table keys
          }
          r.file_id = open->file_id;
          open_lru.erase(open_lru.begin() + static_cast<ptrdiff_t>(rank));
        } else if (!delta(open_ids, &prev_open, &r.open_id) ||
                   !mtf_get(file_ids, file_mtf, &r.file_id)) {
          return false;
        }
        if (f & kV4SizeEqOpen) {
          if ((f & kV4InTable) == 0) {
            return false;
          }
          r.size = open->size;
        } else if (f & kV4InTable) {
          if (!residual(sizes, open->size, &r.size)) {
            return false;
          }
        } else if (!GetVarint(sizes, &r.size)) {
          return false;
        }
        if (f & kV4PosEqSize) {
          r.position = r.size;
        } else if (!residual(positions, r.size, &r.position)) {
          return false;
        }
        if (f & kV4InTable) {
          open_table.Erase(r.open_id);
          file_size[r.file_id] = r.size;
        }
        break;
      }
      case EventType::kSeek: {
        const int f = flags.get();
        if (f < 0 || (f & ~(kV4InTable | kV4FromEqPos)) != 0) {
          return false;
        }
        OpenInfo* open = nullptr;
        if (f & kV4InTable) {
          uint64_t rank = 0;
          if (!GetVarint(open_ids, &rank) || rank >= open_lru.size()) {
            return false;
          }
          r.open_id = open_lru[rank];
          open = open_table.Find(r.open_id);
          if (open == nullptr) {
            return false;  // unreachable: the LRU list mirrors the table keys
          }
          r.file_id = open->file_id;
          open_lru.erase(open_lru.begin() + static_cast<ptrdiff_t>(rank));
          open_lru.insert(open_lru.begin(), r.open_id);
        } else if (!delta(open_ids, &prev_open, &r.open_id) ||
                   !mtf_get(file_ids, file_mtf, &r.file_id)) {
          return false;
        }
        if (f & kV4FromEqPos) {
          if ((f & kV4InTable) == 0) {
            return false;
          }
          r.seek_from = open->position;
        } else if (f & kV4InTable) {
          if (!residual(seek_froms, open->position, &r.seek_from)) {
            return false;
          }
        } else if (!GetVarint(seek_froms, &r.seek_from)) {
          return false;
        }
        if (!residual(seek_tos, r.seek_from, &r.seek_to)) {
          return false;
        }
        if (f & kV4InTable) {
          open->position = r.seek_to;
        }
        break;
      }
      case EventType::kUnlink: {
        uint64_t user = 0;
        if (!mtf_get(file_ids, file_mtf, &r.file_id) || !mtf_get(user_ids, user_mtf, &user)) {
          return false;
        }
        r.user_id = static_cast<UserId>(user);
        break;
      }
      case EventType::kTruncate:
      case EventType::kExecve: {
        uint64_t user = 0;
        if (!mtf_get(file_ids, file_mtf, &r.file_id) || !mtf_get(user_ids, user_mtf, &user) ||
            !size_get(sizes, r.file_id, &r.size)) {
          return false;
        }
        r.user_id = static_cast<UserId>(user);
        break;
      }
    }
    out->push_back(r);
  }
  // Every stream must be consumed exactly; leftovers mean the block header
  // lied about the record count or the payload was tampered with.
  for (const ByteCursor& stream : streams) {
    if (stream.p != stream.end) {
      return false;
    }
  }
  return true;
}

}  // namespace

// One v4 record: serves from the current block's decoded records, entering
// (CRC-verifying, decompressing, decoding) the next block when drained.
bool TraceFileReader::NextV4(TraceRecord* record) {
  while (true) {
    if (v4_next_ < v4_records_.size()) {
      *record = v4_records_[v4_next_++];
      return true;
    }
    v4_records_.clear();
    v4_next_ = 0;
    // Between blocks: enforce the cursor budget, then enter the next block.
    if (blocks_limited_ && blocks_left_ == 0) {
      done_ = true;
      return false;
    }
    const int marker = in_.GetByte();
    if (marker < 0) {
      return FailCorrupt("unexpected end of file (missing end sentinel)");
    }
    if (marker == kEndSentinel) {
      done_ = true;  // the footer index (if any) is not part of the stream
      return false;
    }
    if (marker != kBlockMarker) {
      return FailCorrupt("corrupt v4 trace: bad block marker");
    }
    if (blocks_limited_) {
      --blocks_left_;
    }
    BufferedSource header_source{in_};
    uint64_t record_count = 0;
    uint64_t raw_len = 0;
    uint64_t stored_len = 0;
    if (!GetVarint(header_source, &record_count) || !GetVarint(header_source, &raw_len)) {
      return FailCorrupt("truncated v4 block header");
    }
    const int codec_byte = in_.GetByte();
    uint8_t crc_bytes[4];
    if (codec_byte < 0 || !GetVarint(header_source, &stored_len) ||
        !in_.Read(crc_bytes, sizeof(crc_bytes))) {
      return FailCorrupt("truncated v4 block header");
    }
    if (record_count == 0 || raw_len == 0 || raw_len > kMaxBlockPayload || stored_len == 0 ||
        stored_len > kMaxBlockPayload || record_count > raw_len) {
      return FailCorrupt("corrupt v4 block header");
    }
    if (codec_byte == kRetiredLzCodec) {
      return FailCorrupt("v4 block: codec id 1 (lz) is retired and can no longer be read");
    }
    if (codec_byte != static_cast<int>(TraceCodec::kNone) &&
        codec_byte != static_cast<int>(TraceCodec::kAns)) {
      return FailCorrupt("v4 block: unknown codec id");
    }
    const uint32_t expected_crc = ReadFixed32(crc_bytes);
    const uint8_t* stored = nullptr;
    bool advance_after_decode = false;
    if (in_.mapped()) {
      size_t available = 0;
      const uint8_t* window = in_.Contiguous(1, &available);  // mapped: whole rest
      if (window == nullptr || available < stored_len) {
        return FailCorrupt("truncated v4 block payload");
      }
      stored = window;
      advance_after_decode = true;
    } else {
      v4_stored_scratch_.resize(stored_len);
      if (!in_.Read(v4_stored_scratch_.data(), stored_len)) {
        return FailCorrupt("truncated v4 block payload");
      }
      stored = v4_stored_scratch_.data();
    }
    if (Crc32c(stored, stored_len) != expected_crc) {
      return FailCorrupt("v4 block checksum mismatch (corrupt trace)");
    }
    const uint8_t* raw = stored;
    if (codec_byte == static_cast<int>(TraceCodec::kNone)) {
      if (stored_len != raw_len) {
        return FailCorrupt("v4 block: decompressed size disagrees with header");
      }
    } else {
      scratch_.resize(raw_len);
      if (!AnsDecompress(stored, stored_len, scratch_.data(), raw_len)) {
        return FailCorrupt("v4 block: decompressed size disagrees with header");
      }
      raw = scratch_.data();
    }
    if (!DecodeBlockV4(raw, raw_len, record_count, &v4_file_mtf_, &v4_user_mtf_, &v4_records_)) {
      v4_records_.clear();  // no partial records from a malformed block
      return FailCorrupt("corrupt v4 block: record decode failed after checksum");
    }
    if (advance_after_decode) {
      in_.Advance(stored_len);
    }
    ++blocks_verified_;
    codecs_seen_ |= 1u << codec_byte;
    payload_stored_bytes_ += stored_len;
    payload_raw_bytes_ += raw_len;
  }
}

bool TraceFileReader::Next(TraceRecord* record) {
  if (done_) {
    return false;
  }
  if (version_ == 4) {
    return NextV4(record);
  }
  if (version_ == 3) {
    return NextV3(record);
  }
  // Fast path: when a full worst-case record is available contiguously
  // (essentially always — the mmap window is the whole file), decode straight
  // from memory with no per-byte end-of-stream checks.
  size_t available = 0;
  const uint8_t* window = in_.Contiguous(kMaxRecordEncoding, &available);
  if (available >= kMaxRecordEncoding) {
    PtrSource source{window};
    const char* error = nullptr;
    switch (DecodeRecord(source, record, &prev_time_us_, &error)) {
      case DecodeResult::kRecord:
        in_.Advance(static_cast<size_t>(source.p - window));
        return true;
      case DecodeResult::kEnd:
        in_.Advance(1);
        done_ = true;
        return false;
      case DecodeResult::kError:
        status_ = Status::Error(error);
        done_ = true;
        return false;
    }
  }
  // Slow path: near the end of the file, where a record may be truncated.
  BufferedSource source{in_};
  const char* error = nullptr;
  switch (DecodeRecord(source, record, &prev_time_us_, &error)) {
    case DecodeResult::kRecord:
      return true;
    case DecodeResult::kEnd:
      done_ = true;
      return false;
    case DecodeResult::kError:
      if (!in_.status().ok()) {
        status_ = in_.status();  // underlying I/O error beats "truncated"
      } else {
        status_ = Status::Error(error);
      }
      done_ = true;
      return false;
  }
  return false;
}

Status WriteTextTrace(std::ostream& out, TraceSource& source) {
  out << "# machine " << source.header().machine << "\n";
  if (!source.header().description.empty()) {
    out << "# description " << source.header().description << "\n";
  }
  TraceRecord r;
  while (source.Next(&r)) {
    out << r.ToString() << "\n";
  }
  if (!source.status().ok()) {
    return source.status();
  }
  out.flush();
  if (!out.good()) {
    return Status::Error("text trace write failed (stream error)");
  }
  return Status::Ok();
}

Status SaveTrace(const std::string& path, TraceSource& source,
                 const TraceWriterOptions& options) {
  TraceFileWriter writer(path, source.header(), source.size_hint(), options);
  if (!writer.status().ok()) {
    return writer.status();
  }
  TraceRecord r;
  while (source.Next(&r)) {
    writer.Append(r);
  }
  if (!source.status().ok()) {
    writer.Abandon();  // publish no partial trace; the source error wins
    return source.status();
  }
  return writer.Finish();
}

Status SaveTrace(const std::string& path, const Trace& trace,
                 const TraceWriterOptions& options) {
  TraceVectorSource source(trace);
  return SaveTrace(path, source, options);
}

StatusOr<Trace> LoadTrace(const std::string& path) {
  TraceFileReader reader(path);
  if (!reader.status().ok()) {
    return reader.status();
  }
  Trace trace(reader.header());
  std::vector<TraceRecord>& records = trace.records();
  // The declared count is advisory and untrusted: clamp it to the file size
  // (records encode to >= 4 bytes, so more records than bytes means a corrupt
  // or hostile header) so the pre-sizing below cannot allocate unboundedly.
  // v4 files are compressed, so a record can occupy under a byte on disk;
  // allow 4 records per byte before distrusting the header.
  int64_t declared = reader.declared_record_count();
  if (declared > 0) {
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(path, ec);
    if (!ec) {
      const uint64_t per_byte = reader.version() >= 4 ? 4 : 1;
      declared = std::min(declared, static_cast<int64_t>(bytes * per_byte));
    }
  }
  if (declared > 0) {
    // Decode straight into pre-sized vector slots — one allocation and no
    // per-record copy.  Tolerate both a short stream (shrink) and extra
    // records (append).
    records.resize(static_cast<size_t>(declared));
    size_t n = 0;
    while (n < records.size() && reader.Next(&records[n])) {
      ++n;
    }
    records.resize(n);
  }
  TraceRecord r;
  while (reader.Next(&r)) {
    records.push_back(r);
  }
  if (!reader.status().ok()) {
    return reader.status();
  }
  return trace;
}

}  // namespace bsdtrace
