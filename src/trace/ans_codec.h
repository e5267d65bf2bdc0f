// Static per-column rANS codec for trace format v4 block payloads.
//
// A v4 block payload is a handful of columns (the record types, then one
// stream per Table-II field; see trace_io.h), each a run of bytes or LEB128
// varints with a skewed but stationary distribution: a few distinct time
// deltas, small move-to-front ranks, mostly-zero residuals.  Such columns
// carry little exact repetition, so this codec spends nothing on matching
// and entropy-codes every column with its own order-0 model instead.  The
// encoder picks, per column, the smallest of four forms:
//
//   stored      the bytes as-is (never more than 1 byte over the column);
//   bytes       order-0 model over the column's bytes;
//   split       the column read as varints, coded as two sub-streams with a
//               model each: every varint's first byte, and its continuation
//               bytes (low-order and high-order varint bytes differ in
//               distribution);
//   dictionary  a column of at most 256 distinct canonical varint values
//               (time deltas are the case) as indices into a sorted value
//               dictionary stored with the column, under one model.
//
// Each model is a quantized frequency table summing to 2^12, stored with its
// column, and each sub-stream is coded by a 32-bit rANS coder (Duda,
// arXiv:1311.2540) with four interleaved states and 16-bit renormalization.
//
// Stored stream (all varints LEB128):
//   varint  column count C >= 1
//   C columns, each:
//     varint  column length L
//     if L > 0: u8 form (0 stored, 1 bytes, 2 split, 3 dictionary), then
//       stored:      L bytes
//       bytes:       model, sub-stream of L symbols
//       split:       varint N (varints in the column, 1..L); model, sub-stream
//                    of N first bytes; if L > N, model, sub-stream of L - N
//                    continuation bytes
//       dictionary:  varint N; u8 D - 1; D ascending values (the first as
//                    is, then each as its gap to the previous minus one);
//                    model over indices < D, sub-stream of N indices
//   u32le   CRC32C of the decompressed (framed) payload
//   model:      u8 S - 1 (symbols present); the first symbol; each next as
//               its gap to the previous minus one (u8); varint frequencies
//               of all but the last symbol (the last gets the remainder)
//   sub-stream: nothing when the model has one symbol; else varint byte
//               length B >= 16, the four states (u32le each), then the
//               renormalization words (u16le)
//
// Decompression reproduces the *framed* payload, the v4 block layout: column
// 0 bare, every later column prefixed by its varint length.  Compression is
// deterministic (integer-only model building), which keeps v4 files
// byte-reproducible across runs and thread counts.  The decoder is fully
// bounds-checked: it never reads past src + src_len nor writes past
// dst + dst_len, allocates at most dst_len bytes of scratch, requires every
// sub-stream to end exactly in the coder's initial state, and checks the
// output against the trailing CRC.  The block CRC in front of the codec
// only vouches for the stored bytes; the trailing one makes a stream whose
// tables or values were altered (and re-checksummed) fail instead of
// decoding to other records.

#ifndef BSDTRACE_SRC_TRACE_ANS_CODEC_H_
#define BSDTRACE_SRC_TRACE_ANS_CODEC_H_

#include <cstddef>
#include <cstdint>

namespace bsdtrace {

// Codec id stored in every v4 block header.  Values are part of the binary
// format; do not renumber.  Id 1 was an LZ parse over an adaptive bit-wise
// range coder; it is retired, and readers reject it.
enum class TraceCodec : uint8_t {
  kNone = 0,  // payload stored as-is
  kAns = 2,   // this file's per-column rANS stream
};

// Human-readable codec name ("none", "ans", or "unknown").
const char* TraceCodecName(uint8_t codec);

// One column of a payload to compress.
struct AnsColumn {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

// Worst-case compressed size for `count` columns holding `total` bytes: a
// column never codes larger than stored, so this is the stored form plus
// the per-column framing and the trailing CRC.
size_t AnsMaxCompressedSize(size_t total, size_t count);

// Compresses columns[0, count) (count >= 1) into dst, which must hold
// AnsMaxCompressedSize(total bytes, count), and returns the bytes written.
size_t AnsCompress(const AnsColumn* columns, size_t count, uint8_t* dst);

// Decompresses src[0, src_len) into exactly dst_len bytes of framed payload
// (see above).  Returns false — without writing past dst + dst_len — if the
// stream is malformed, truncated, carries trailing garbage, or decodes to
// any other length.
bool AnsDecompress(const uint8_t* src, size_t src_len, uint8_t* dst, size_t dst_len);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_ANS_CODEC_H_
