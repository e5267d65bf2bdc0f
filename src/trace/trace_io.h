// Trace serialization: one compact binary codec, read and written through
// files only (TraceFileWriter / TraceFileReader and the whole-file
// SaveTrace / LoadTrace helpers), plus the bsdtxt text export.  bsdtxt is
// read back by TextTraceSource (import/text_import.h).
//
// Binary format (version 2):
//   magic   "BSDTRC2\n" (8 bytes)
//   header  varint-length-prefixed machine string, then description string,
//           then a varint record count: 0 = unknown (streamed), else N+1 for
//           a trace of N records (lets loaders reserve() the record vector
//           instead of reallocating while reading large traces)
//   records sequence of:
//             u8      event type (EventType, 1..7)
//             varint  time delta vs. previous record, microseconds (zigzag)
//             varints per-type payload fields (see trace_io.cc)
//   end     u8 0 sentinel
//
// Version 1 ("BSDTRC1\n", no record count) is still read transparently.
//
// Binary format version 3 ("BSDTRC3\n") keeps the v2 header and record
// encoding but frames the records into independently decodable blocks for
// archival integrity and parallel analysis:
//   blocks  sequence of:
//             u8      1 (block marker)
//             varint  record count in the block (>= 1)
//             varint  payload length in bytes
//             u32le   CRC32C of the payload
//             payload records encoded as in v2, except the time-delta base
//                     resets to 0 at the start of each block (the first
//                     record's delta is its absolute time in microseconds),
//                     so a reader can start decoding at any block boundary
//   end     u8 0 sentinel
//   footer  varint index entry count, then per block:
//             varint  offset of the block marker (delta vs. previous entry;
//                     the first entry is absolute from the file start)
//             varint  record count
//             varint  time of the block's first record, microseconds
//   tail    u64le offset of the footer from the file start,
//           magic "BSDIDX3\n" (8 bytes)
// The writer closes a block when its payload reaches the configured target
// (~256 KB) and always at simulated-hour boundaries, so the footer doubles
// as an (hour, segment) -> byte offset index.  Sequential readers verify
// each block's CRC32C and stop at the end sentinel; SeekableTraceSource
// (trace_source.h) parses the footer and opens cursors at any entry.
//
// Binary format version 4 ("BSDTRC4\n") keeps the v3 file skeleton — the v2
// header, checksummed size/hour-bounded blocks, end sentinel, footer index +
// tail — but re-encodes each block's payload for compression:
//   blocks  sequence of:
//             u8      1 (block marker)
//             varint  record count in the block (>= 1)
//             varint  raw payload length (before compression)
//             u8      codec id (TraceCodec: 0 = stored, 2 = per-column
//                     rANS; 1 was the retired LZ codec, rejected on read)
//             varint  stored payload length (== raw length when stored)
//             u32le   CRC32C of the STORED payload (corruption is caught
//                     before any decompressor sees the bytes)
//             payload stored bytes
// The raw payload is columnar with a semantic pre-pass: per-record
// type|mode bytes (mode in bits 3-4, open/create only), then length-prefixed
// per-field streams — zigzag time deltas; open ids; file ids; user ids;
// close/seek prediction flags; sizes; positions; seek froms/tos.  Close and
// seek records are coded against a block-local open table (the opens seen
// earlier in the same block): a close whose open is in the table codes its
// open id as a recency rank in the table's LRU list, omits its file id
// entirely, and flags say whether its final position equals its size and
// its size equals the open's size — both true for most closes (sequential
// whole-file access, Section 4 of the paper) — so the common close is a
// type byte, a time delta, a tiny rank, and one flags byte.  Seeks likewise
// rank-code the open id, omit the file id, and predict seek-from from the
// table's last position.  File and user ids are Zipfian references, so they
// go through block-local move-to-front lists (rank+1 on a hit, 0 + the full
// value on a miss; move_to_front.h); open/truncate/execve sizes are
// residuals against the file's last size seen in the block.  What remains is
// low-entropy rather than literally repetitive, so the block codec
// (ans_codec.h) entropy-codes each stream with its own static order-0 model
// — as bytes, as varint first/continuation bytes, or as indices into a small
// value dictionary — and the stored payload is that codec's column stream,
// which decompresses to the raw payload above; blocks the codec fails to
// shrink are stored raw (codec 0), so v4 never expands.  All prediction
// state — prevs, the open table, the MTF lists, the size map — resets at
// each block start, so blocks stay independently decodable (a close whose
// open lies in an earlier block simply codes its fields explicitly) and the
// footer index keeps working for SeekableTraceSource and the parallel
// analyzer — each worker decompresses its own blocks.
//
// Varints are LEB128; times are delta-encoded because trace records are in
// time order, which keeps the common case to 1-3 bytes.  The paper logged
// ~500-600 bytes/minute of trace data; this format is in the same spirit.

#ifndef BSDTRACE_SRC_TRACE_TRACE_IO_H_
#define BSDTRACE_SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/ans_codec.h"
#include "src/trace/io_buffer.h"
#include "src/trace/move_to_front.h"
#include "src/trace/trace.h"
#include "src/util/flat_map.h"
#include "src/util/status.h"

namespace bsdtrace {

class TraceSource;  // trace_source.h; streaming writers pull from one

// Worst-case encoded size of one record: type byte + 10-byte time varint +
// up to five 10-byte varints + the mode byte.  The buffered writer reserves
// this much contiguous space per record so encoding never bounds-checks.
inline constexpr size_t kMaxRecordEncoding = 64;

// The fixed tail that terminates a v3/v4 file carrying a block index: a
// u64le footer offset followed by this magic.  v4 reuses the v3 tail — the
// footer layout did not change, only the block payloads did.
inline constexpr char kTraceIndexTailMagic[8] = {'B', 'S', 'D', 'I', 'D', 'X', '3', '\n'};
inline constexpr size_t kTraceIndexTailSize = 16;

// Sanity cap on a declared v3/v4 block payload: anything larger is
// corruption, not a real block (writers target ~256 KB), so readers never
// allocate more than this for one block.
inline constexpr uint64_t kMaxBlockPayload = uint64_t{1} << 30;

// How TraceFileWriter frames the record stream.  Version 2 (the default) is
// the flat record stream; version 3 adds checksummed blocks and the footer
// index described in the file comment; version 4 adds the columnar delta
// pre-pass and per-block compression.
struct TraceWriterOptions {
  int version = 2;
  // v3/v4: close the current block once its payload reaches this size.
  // Blocks also close at simulated-hour boundaries regardless of size.
  size_t block_target_bytes = 256 * 1024;
  // v3/v4: append the footer index + tail.  Without it the file is still
  // checksummed and sequentially readable, just not seekable.
  bool write_index = true;
  // v4: block payload codec.  Blocks a codec fails to shrink are stored raw
  // (each block header carries its own codec id), so v4 never expands.
  TraceCodec codec = TraceCodec::kAns;
};

// One footer index entry: where a block starts, how many records it holds,
// and the time of its first record.
struct TraceBlockIndexEntry {
  uint64_t offset = 0;        // byte offset of the block marker
  uint64_t record_count = 0;  // records in the block
  SimTime start_time;         // time of the block's first record
};

// Block-buffered binary writer to a file path: records are encoded straight
// into 64 KB blocks.  Writes the header on construction.  `expected_records`
// is written into the header when non-negative so readers can pre-size their
// buffers; pass -1 (the default) when streaming a record count that is not
// known up front.  TraceWriterOptions{} writes v2.  Call Finish() for the
// end sentinel and the final write status; the destructor finishes but
// swallows the status.
//
// Publication is atomic: the bytes go to `<path>.tmp-<pid>`, which a
// successful Finish() renames onto `path`.  A failed write or rename removes
// the temporary file, and a killed process leaves at most the temporary
// file — never a half-written trace at `path`.  Readers must therefore not
// open `path` before its writer has finished.
class TraceFileWriter : public TraceSink {
 public:
  TraceFileWriter(const std::string& path, const TraceHeader& header,
                  int64_t expected_records = -1, const TraceWriterOptions& options = {});
  ~TraceFileWriter() override;

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void Append(const TraceRecord& record) override;
  Status Finish();
  // Closes and deletes the unfinished file instead of publishing it, for a
  // caller whose record source failed mid-stream; nothing appears at the
  // path, and a later Finish() returns an error.
  void Abandon();

  const Status& status() const { return out_.status(); }
  uint64_t records_written() const { return records_written_; }
  // Encoded bytes accepted so far (header + records; flushed + buffered).
  uint64_t bytes_written() const { return out_.bytes_written(); }
  // v3/v4: index entries for the blocks flushed so far.
  const std::vector<TraceBlockIndexEntry>& index() const { return index_; }
  // v4: payload bytes across flushed blocks, before and after the block
  // codec (their ratio is the compression ratio; both 0 unless writing v4).
  uint64_t payload_raw_bytes() const { return payload_raw_bytes_; }
  uint64_t payload_stored_bytes() const { return payload_stored_bytes_; }

 private:
  void FlushBlock();
  void AppendV4(const TraceRecord& record);
  void FlushBlockV4();

  std::string path_;
  std::string temp_path_;  // where the bytes go until Finish() publishes them
  BufferedWriter out_;
  Status finish_status_ = Status::Ok();
  TraceWriterOptions options_;
  int64_t prev_time_us_ = 0;
  uint64_t records_written_ = 0;
  bool finished_ = false;

  // v3 block under construction.
  std::vector<uint8_t> block_;
  uint64_t block_records_ = 0;
  int64_t block_first_hour_ = 0;
  int64_t block_start_time_us_ = 0;
  std::vector<TraceBlockIndexEntry> index_;

  // v4 block under construction: one stream per Table-II field (semantic
  // columnar layout; see the file comment).  Delta bases, and the open table
  // close/seek predictions are coded against, reset at each block start.
  struct V4FieldStreams {
    std::vector<uint8_t> types;  // type | mode << 3 per record
    std::vector<uint8_t> times;
    std::vector<uint8_t> open_ids;
    std::vector<uint8_t> file_ids;
    std::vector<uint8_t> user_ids;
    std::vector<uint8_t> flags;  // close/seek prediction flags
    std::vector<uint8_t> sizes;
    std::vector<uint8_t> positions;
    std::vector<uint8_t> seek_froms;
    std::vector<uint8_t> seek_tos;
    uint64_t prev_open_id = 0;
    // Block-local open table: open id -> (file id, size, last position) for
    // opens appended in this block, mirrored exactly by the decoder.
    struct OpenInfo {
      uint64_t file_id = 0;
      uint64_t size = 0;
      uint64_t position = 0;
    };
    U64FlatMap<OpenInfo> open_table;
    // Recency list over the open table's keys (most recent first): in-table
    // closes and seeks code their open id as a rank in this list, which is
    // tiny for the common close-what-you-just-opened pattern.
    std::vector<uint64_t> open_lru;
    // Move-to-front lists for file and user ids: references are Zipfian, so
    // recency ranks code far smaller than value deltas.
    MtfEncoder file_mtf;
    MtfEncoder user_mtf;
    // file id -> last size seen in this block; open/truncate/execve sizes
    // are coded as residuals against it (files rarely change size).
    U64FlatMap<uint64_t> file_size;

    size_t payload_size() const;
    void Clear();
  };
  V4FieldStreams v4_;
  std::vector<uint8_t> v4_raw_;     // assembled raw payload scratch
  std::vector<uint8_t> v4_stored_;  // compressed payload scratch
  uint64_t payload_raw_bytes_ = 0;
  uint64_t payload_stored_bytes_ = 0;
};

// Block-buffered binary reader from a file path (mmap when available, 64 KB
// blocks otherwise).  Reads v1 through v4 files; v3/v4 block checksums are
// verified as each block is entered, so a flipped byte anywhere in a block
// surfaces as a clean non-ok status() before any record of that block is
// returned.  v4 blocks are additionally decompressed and decoded whole on
// entry, so a malformed compressed stream never yields partial records.
class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path, bool prefer_mmap = true);

  Status status() const { return status_; }
  const TraceHeader& header() const { return header_; }

  // Format version parsed from the magic (1 through 4).
  int version() const { return version_; }

  // Record count declared in the header, or -1 if the file did not carry
  // one (v1 files, or a writer that streamed an unknown count).  Advisory:
  // reading always continues to the end sentinel regardless.
  int64_t declared_record_count() const { return declared_record_count_; }

  // Blocks whose checksums have been verified so far (v3/v4 only).
  uint64_t blocks_verified() const { return blocks_verified_; }

  // Bitmask of codec ids seen in verified v4 blocks (bit N = TraceCodec N);
  // 0 for v1-v3 files.
  uint32_t codecs_seen() const { return codecs_seen_; }

  // Payload bytes across verified blocks: as stored on disk (possibly
  // compressed) and raw (after decompression).  Equal for v3 files.
  uint64_t payload_stored_bytes() const { return payload_stored_bytes_; }
  uint64_t payload_raw_bytes() const { return payload_raw_bytes_; }

  // Reads the next record into *record.  Returns false at end of stream or on
  // error (distinguish via status()).
  bool Next(TraceRecord* record);

  // v3/v4 only: repositions to the block starting at `offset` (a footer
  // index entry) and limits reading to the next `block_count` blocks.
  // Cursors opened by SeekableTraceSource are built on this.
  Status SeekToBlock(uint64_t offset, uint64_t block_count);

 private:
  bool NextV3(TraceRecord* record);
  bool NextV4(TraceRecord* record);
  bool FailCorrupt(const char* error);

  BufferedReader in_;
  TraceHeader header_;
  Status status_ = Status::Ok();
  int64_t prev_time_us_ = 0;
  int64_t declared_record_count_ = -1;
  int version_ = 2;
  bool done_ = false;

  // v3 state: records left in the current block, the optional block budget
  // from SeekToBlock, and the copy-and-verify scratch for unmapped reads.
  uint64_t block_remaining_ = 0;
  uint64_t blocks_verified_ = 0;
  bool blocks_limited_ = false;
  uint64_t blocks_left_ = 0;
  bool scratch_active_ = false;
  size_t scratch_pos_ = 0;
  size_t scratch_len_ = 0;
  std::vector<uint8_t> scratch_;

  // v4 state: the current block's records (decoded whole after CRC +
  // decompression), the stored-bytes scratch for unmapped reads, and the
  // file/user move-to-front lists, reset per block.  The v3 scratch_
  // doubles as the decompression buffer.
  std::vector<TraceRecord> v4_records_;
  size_t v4_next_ = 0;
  std::vector<uint8_t> v4_stored_scratch_;
  MtfDecoder v4_file_mtf_;
  MtfDecoder v4_user_mtf_;
  uint32_t codecs_seen_ = 0;
  uint64_t payload_stored_bytes_ = 0;
  uint64_t payload_raw_bytes_ = 0;
};

// bsdtxt export: "# machine <name>" / "# description <text>" comment
// header, then one TraceRecord::ToString() line per record.  Stream write
// failures and source errors surface as a non-ok Status.
Status WriteTextTrace(std::ostream& out, TraceSource& source);

// Whole-file helpers over TraceFileWriter / TraceFileReader.  The
// TraceSource overload streams — one record in flight, any trace length in
// bounded memory — and stamps the source's size hint into the header; it is
// byte-identical to saving the collected Trace when the hint is exact
// (sources over files and vectors).  The default options write v2 because
// the sharded generator's spill files are v2; pass {.version = 3} or
// {.version = 4} for checksummed, indexed blocks.
Status SaveTrace(const std::string& path, TraceSource& source,
                 const TraceWriterOptions& options = {});
Status SaveTrace(const std::string& path, const Trace& trace,
                 const TraceWriterOptions& options = {});
StatusOr<Trace> LoadTrace(const std::string& path);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_TRACE_IO_H_
