#include "src/trace/ans_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/trace/crc32c.h"

namespace bsdtrace {
namespace {

// Model precision: every frequency table sums to 2^12, so a decode table is
// 16 KB and fits in L1 next to the block being decoded.
constexpr uint32_t kProbBits = 12;
constexpr uint32_t kProbScale = 1u << kProbBits;
constexpr uint32_t kProbMask = kProbScale - 1;
// rANS states live in [kStateLow, 2^32); renormalization moves one 16-bit
// word, at most once per symbol, so the decoder renormalizes without a
// data-dependent branch.  Four interleaved states give the decoder four
// independent dependency chains.
constexpr uint32_t kStateLow = 1u << 16;
constexpr size_t kStates = 4;
constexpr size_t kStateBytes = 4 * kStates;  // the u32le states open every sub-stream

enum Form : uint8_t { kStored = 0, kBytes = 1, kSplit = 2, kDictionary = 3 };

constexpr size_t kMaxDictionary = 256;
constexpr size_t kMaxVarintBytes = 10;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

void StoreLe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void StoreLe16(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

uint32_t LoadLe16(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// -- Encoder ------------------------------------------------------------------

// A quantized order-0 model: present symbols get frequencies >= 1 summing
// to kProbScale; absent symbols get 0.
struct Model {
  uint32_t freq[256];
  uint32_t start[256];
  // floor((2^64 - 1) / freq) + 1 for freq > 1: the encoder divides by
  // multiplying, exactly for every 32-bit state (the product overshoots
  // v / freq by under 2^-32, and a quotient's fraction is 0 or >= 1 / freq).
  uint64_t reciprocal[256];
  int symbols = 0;
};

// Quantizes `counts` (summing to total > 0): round to nearest with a floor
// of 1, then settle the difference on the largest frequencies.  Integer-only,
// so the tables — and the files — are the same on every platform.
void BuildModel(const uint32_t* counts, uint64_t total, Model* m) {
  int64_t sum = 0;
  m->symbols = 0;
  for (int s = 0; s < 256; ++s) {
    uint32_t f = 0;
    if (counts[s] > 0) {
      f = static_cast<uint32_t>(
          std::max<uint64_t>(1, (uint64_t{counts[s]} * kProbScale + total / 2) / total));
      ++m->symbols;
    }
    m->freq[s] = f;
    sum += f;
  }
  const auto largest = [m]() {
    int best = 0;
    for (int s = 1; s < 256; ++s) {
      if (m->freq[s] > m->freq[best]) {
        best = s;
      }
    }
    return best;
  };
  if (sum < kProbScale) {
    m->freq[largest()] += static_cast<uint32_t>(kProbScale - sum);
  }
  while (sum > kProbScale) {  // ends: M >= 256 >= symbols leaves room
    const int s = largest();
    const uint32_t take = static_cast<uint32_t>(std::min<int64_t>(sum - kProbScale, m->freq[s] - 1));
    m->freq[s] -= take;
    sum -= take;
  }
  uint32_t start = 0;
  for (int s = 0; s < 256; ++s) {
    m->start[s] = start;
    start += m->freq[s];
    m->reciprocal[s] = m->freq[s] <= 1 ? 0 : ~uint64_t{0} / m->freq[s] + 1;
  }
}

size_t ModelBytes(const Model& m) {
  size_t n = 2 + static_cast<size_t>(m.symbols - 1);
  int seen = 0;
  for (int s = 0; s < 256 && seen < m.symbols - 1; ++s) {
    if (m.freq[s] > 0) {
      n += VarintSize(m.freq[s]);
      ++seen;
    }
  }
  return n;
}

uint8_t* WriteModel(uint8_t* p, const Model& m) {
  *p++ = static_cast<uint8_t>(m.symbols - 1);
  int prev = -1;
  for (int s = 0; s < 256; ++s) {
    if (m.freq[s] > 0) {
      *p++ = static_cast<uint8_t>(prev < 0 ? s : s - prev - 1);
      prev = s;
    }
  }
  int written = 0;
  for (int s = 0; s < 256 && written < m.symbols - 1; ++s) {
    if (m.freq[s] > 0) {
      p = PutVarint(p, m.freq[s]);
      ++written;
    }
  }
  return p;
}

// Coded cost of one symbol of frequency f, in 1/65536 bits.
const uint32_t* CostTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(kProbScale + 1, 0);
    for (uint32_t f = 1; f <= kProbScale; ++f) {
      t[f] = static_cast<uint32_t>(
          std::lround((kProbBits - std::log2(static_cast<double>(f))) * 65536.0));
    }
    return t;
  }();
  return table.data();
}

// Estimated bytes of one sub-stream (length prefix included) under `m`.
size_t EstimateStream(const uint32_t* counts, const Model& m) {
  if (m.symbols <= 1) {
    return 0;
  }
  const uint32_t* cost = CostTable();
  uint64_t bits = 0;
  for (int s = 0; s < 256; ++s) {
    bits += uint64_t{counts[s]} * cost[m.freq[s]];
  }
  const size_t bytes = static_cast<size_t>((bits + 8 * 65536 - 1) / (8 * 65536)) + kStateBytes;
  return bytes + VarintSize(bytes);
}

inline void EncodeSymbol(uint32_t* x, uint8_t** p, const Model& m, uint8_t sym) {
  const uint32_t freq = m.freq[sym];
  const uint32_t x_max = ((kStateLow >> kProbBits) << 16) * freq;  // < 2^32: freq < 2^12
  uint32_t v = *x;
  if (v >= x_max) {
    *p -= 2;
    StoreLe16(*p, v);
    v >>= 16;
  }
  const uint32_t quotient =
      freq == 1 ? v
                : static_cast<uint32_t>((static_cast<unsigned __int128>(v) * m.reciprocal[sym]) >> 64);
  *x = (quotient << kProbBits) + (v - quotient * freq) + m.start[sym];
}

// One coded sub-stream, held in encoder scratch until the column's form is
// settled.
struct Stream {
  uint8_t* data = nullptr;
  size_t size = 0;
};

// Encodes syms[0, n) backwards so that it ends at `end` (at most 2n +
// kStateBytes bytes: a state drops at most one word per symbol).  Symbol i
// belongs to state i % kStates; the decoder reads the states in order, then
// the renormalization words, so the encoder walks the symbols in reverse.
Stream EncodeStream(const uint8_t* syms, size_t n, const Model& m, uint8_t* end) {
  if (m.symbols <= 1) {
    return Stream{};
  }
  uint32_t x[kStates];
  std::fill(x, x + kStates, kStateLow);
  uint8_t* p = end;
  size_t i = n;
  while (i % kStates != 0) {
    --i;
    EncodeSymbol(&x[i % kStates], &p, m, syms[i]);
  }
  while (i > 0) {
    i -= kStates;
    for (size_t k = kStates; k-- > 0;) {
      EncodeSymbol(&x[k], &p, m, syms[i + k]);
    }
  }
  for (size_t k = kStates; k-- > 0;) {
    p -= 4;
    StoreLe32(p, x[k]);
  }
  return Stream{p, static_cast<size_t>(end - p)};
}

size_t StreamBytes(const Stream& s) { return s.size == 0 ? 0 : VarintSize(s.size) + s.size; }

uint8_t* WriteStream(uint8_t* p, const Stream& s) {
  if (s.size == 0) {
    return p;
  }
  p = PutVarint(p, s.size);
  std::memcpy(p, s.data, s.size);
  return p + s.size;
}

// Sorted distinct values of a dictionary column and each varint's index.
struct Dictionary {
  uint64_t values[kMaxDictionary];
  size_t size = 0;
};

// Parses `data` as canonical varints with at most kMaxDictionary distinct
// values; fills `dict` and writes each varint's dictionary index to
// indices[0, n).  False when the column does not qualify.
bool BuildDictionary(const uint8_t* data, size_t len, Dictionary* dict, uint8_t* indices) {
  constexpr size_t kCells = 2 * kMaxDictionary;
  uint64_t keys[kCells];
  int16_t ids[kCells];
  std::fill(ids, ids + kCells, int16_t{-1});
  uint64_t by_id[kMaxDictionary];
  size_t distinct = 0;
  size_t n = 0;
  for (size_t i = 0; i < len;) {
    uint64_t v = 0;
    size_t k = 0;
    uint8_t b;
    do {
      if (k == kMaxVarintBytes || i == len) {
        return false;
      }
      b = data[i++];
      if (k == kMaxVarintBytes - 1 && b > 1) {
        return false;  // more than 64 bits
      }
      v |= static_cast<uint64_t>(b & 0x7F) << (7 * k);
      ++k;
    } while (b & 0x80);
    if (k > 1 && b == 0) {
      return false;  // overlong: re-encoding would not reproduce the bytes
    }
    size_t cell = static_cast<size_t>((v * 0x9E3779B97F4A7C15ull) >> 55);  // 9 bits
    while (ids[cell] >= 0 && keys[cell] != v) {
      cell = (cell + 1) & (kCells - 1);
    }
    if (ids[cell] < 0) {
      if (distinct == kMaxDictionary) {
        return false;
      }
      keys[cell] = v;
      ids[cell] = static_cast<int16_t>(distinct);
      by_id[distinct++] = v;
    }
    indices[n++] = static_cast<uint8_t>(ids[cell]);
  }
  // Re-number by value so the dictionary stores as ascending gaps.
  uint8_t order[kMaxDictionary];
  for (size_t id = 0; id < distinct; ++id) {
    order[id] = static_cast<uint8_t>(id);
  }
  std::sort(order, order + distinct, [&](uint8_t a, uint8_t b) { return by_id[a] < by_id[b]; });
  uint8_t rank[kMaxDictionary];
  for (size_t r = 0; r < distinct; ++r) {
    rank[order[r]] = static_cast<uint8_t>(r);
    dict->values[r] = by_id[order[r]];
  }
  dict->size = distinct;
  for (size_t i = 0; i < n; ++i) {
    indices[i] = rank[indices[i]];
  }
  return true;
}

size_t DictionaryBytes(const Dictionary& dict) {
  size_t n = 1 + VarintSize(dict.values[0]);
  for (size_t k = 1; k < dict.size; ++k) {
    n += VarintSize(dict.values[k] - dict.values[k - 1] - 1);
  }
  return n;
}

// Scratch that only grows: one per thread, so steady-state calls neither
// allocate nor clear memory.  Returns room for n bytes.
uint8_t* Room(std::vector<uint8_t>& buffer, size_t n) {
  if (buffer.size() < n) {
    buffer.resize(n);
  }
  return buffer.data();
}

struct EncodeScratch {
  std::vector<uint8_t> coded;  // sub-streams, encoded backwards from the end
  std::vector<uint8_t> split;  // first bytes, then continuation bytes
  std::vector<uint8_t> index;  // dictionary indices
};
thread_local EncodeScratch t_encode;
thread_local std::vector<uint8_t> t_decode;

uint8_t* WriteStored(uint8_t* p, const uint8_t* data, size_t len) {
  *p++ = kStored;
  std::memcpy(p, data, len);
  return p + len;
}

// Codes one non-empty column at p in its smallest form; never more than
// 1 + len bytes.
uint8_t* CompressColumn(const uint8_t* data, size_t len, uint8_t* p) {
  EncodeScratch& scratch = t_encode;
  // One pass: histograms of varint first bytes [0, 256) and continuation
  // bytes [256, 512); their sum is the plain byte histogram.
  uint32_t hist[512] = {};
  size_t varints = 0;
  size_t base = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint8_t b = data[i];
    varints += base == 0;
    ++hist[base + b];
    base = static_cast<size_t>(b >> 7) << 8;
  }
  const bool varint_column = base == 0;  // the last byte ends a varint
  uint32_t bytes_hist[256];
  for (int s = 0; s < 256; ++s) {
    bytes_hist[s] = hist[s] + hist[256 + s];
  }

  Form form = kStored;
  size_t best = len;
  Model bytes_model;
  BuildModel(bytes_hist, len, &bytes_model);
  if (const size_t est = ModelBytes(bytes_model) + EstimateStream(bytes_hist, bytes_model);
      est < best) {
    form = kBytes;
    best = est;
  }
  // A column of one-byte varints is its own bytes form: split and the
  // dictionary would only add tables.
  Model first_model, cont_model;
  Dictionary dict;
  Model index_model;
  uint8_t* index = nullptr;
  if (varint_column && varints < len) {
    BuildModel(hist, varints, &first_model);
    BuildModel(hist + 256, len - varints, &cont_model);
    const size_t est = VarintSize(varints) + ModelBytes(first_model) +
                       EstimateStream(hist, first_model) + ModelBytes(cont_model) +
                       EstimateStream(hist + 256, cont_model);
    if (est < best) {
      form = kSplit;
      best = est;
    }
    index = Room(scratch.index, varints);
    if (BuildDictionary(data, len, &dict, index)) {
      uint32_t index_hist[256] = {};
      for (size_t k = 0; k < varints; ++k) {
        ++index_hist[index[k]];
      }
      BuildModel(index_hist, varints, &index_model);
      const size_t dict_est = VarintSize(varints) + DictionaryBytes(dict) +
                              ModelBytes(index_model) + EstimateStream(index_hist, index_model);
      if (dict_est < best) {
        form = kDictionary;
        best = dict_est;
      }
    }
  }

  const size_t coded_room = 2 * len + 2 * kStateBytes;  // two sub-streams at most
  uint8_t* const coded_end = Room(scratch.coded, coded_room) + coded_room;
  switch (form) {
    case kStored:
      return WriteStored(p, data, len);
    case kBytes: {
      const Stream s = EncodeStream(data, len, bytes_model, coded_end);
      if (ModelBytes(bytes_model) + StreamBytes(s) >= len) {
        return WriteStored(p, data, len);
      }
      *p++ = kBytes;
      p = WriteModel(p, bytes_model);
      return WriteStream(p, s);
    }
    case kSplit: {
      // Branch-free split: every byte goes to both sub-streams, and only
      // the one it belongs to advances (one byte of slack after each).
      uint8_t* const first = Room(scratch.split, len + 2);
      uint8_t* const cont = first + varints + 1;
      size_t firsts = 0;
      size_t conts = 0;
      size_t in_varint = 0;  // 1 after a byte with the continuation bit
      for (size_t i = 0; i < len; ++i) {
        const uint8_t b = data[i];
        first[firsts] = b;
        cont[conts] = b;
        firsts += 1 - in_varint;
        conts += in_varint;
        in_varint = b >> 7;
      }
      const Stream a = EncodeStream(first, varints, first_model, coded_end);
      const Stream b = EncodeStream(cont, len - varints, cont_model,
                                    a.size == 0 ? coded_end : a.data);
      if (VarintSize(varints) + ModelBytes(first_model) + StreamBytes(a) +
              ModelBytes(cont_model) + StreamBytes(b) >=
          len) {
        return WriteStored(p, data, len);
      }
      *p++ = kSplit;
      p = PutVarint(p, varints);
      p = WriteModel(p, first_model);
      p = WriteStream(p, a);
      p = WriteModel(p, cont_model);
      return WriteStream(p, b);
    }
    case kDictionary: {
      const Stream s = EncodeStream(index, varints, index_model, coded_end);
      if (VarintSize(varints) + DictionaryBytes(dict) + ModelBytes(index_model) +
              StreamBytes(s) >=
          len) {
        return WriteStored(p, data, len);
      }
      *p++ = kDictionary;
      p = PutVarint(p, varints);
      *p++ = static_cast<uint8_t>(dict.size - 1);
      p = PutVarint(p, dict.values[0]);
      for (size_t k = 1; k < dict.size; ++k) {
        p = PutVarint(p, dict.values[k] - dict.values[k - 1] - 1);
      }
      p = WriteModel(p, index_model);
      return WriteStream(p, s);
    }
  }
  return WriteStored(p, data, len);
}

// -- Decoder ------------------------------------------------------------------

struct Reader {
  const uint8_t* p;
  const uint8_t* end;

  int Get() { return p < end ? *p++ : -1; }

  bool GetVarint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) {
        return false;
      }
      const uint8_t b = *p++;
      result |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;  // overlong
  }
};

// Slot -> (symbol, frequency, slot - start), packed 8 | 12 | 12 bits.  A
// model with one symbol codes no sub-stream and builds no slots.
struct DecodeTable {
  uint32_t slots[kProbScale];
  int symbols = 0;
  uint8_t only = 0;
};

// Reads a model whose symbols must all be below `limit`.
bool ReadModel(Reader& in, uint32_t limit, DecodeTable* t) {
  const int count = in.Get();
  if (count < 0) {
    return false;
  }
  t->symbols = count + 1;
  uint8_t syms[256];
  int sym = -1;
  for (int k = 0; k < t->symbols; ++k) {
    const int b = in.Get();
    if (b < 0) {
      return false;
    }
    sym = k == 0 ? b : sym + b + 1;
    if (sym >= static_cast<int>(limit)) {
      return false;
    }
    syms[k] = static_cast<uint8_t>(sym);
  }
  if (t->symbols == 1) {
    t->only = syms[0];
    return true;
  }
  uint32_t start = 0;
  for (int k = 0; k < t->symbols; ++k) {
    uint64_t f = kProbScale - start;
    if (k + 1 < t->symbols) {
      // Every later symbol still needs a slot.
      const uint32_t room = kProbScale - start - static_cast<uint32_t>(t->symbols - 1 - k);
      if (!in.GetVarint(&f) || f == 0 || f > room) {
        return false;
      }
    }
    const uint32_t entry = syms[k] | static_cast<uint32_t>(f) << 8;
    for (uint32_t j = 0; j < f; ++j) {
      t->slots[start + j] = entry | j << 20;
    }
    start += static_cast<uint32_t>(f);
  }
  return true;
}

// Decodes n symbols of one sub-stream into out.  The stream must end with
// every state back at kStateLow and every byte consumed.
bool DecodeStream(Reader& in, const DecodeTable& t, uint8_t* out, size_t n) {
  if (t.symbols == 1) {
    std::memset(out, t.only, n);
    return true;
  }
  uint64_t len = 0;
  if (!in.GetVarint(&len) || len < kStateBytes || len > static_cast<uint64_t>(in.end - in.p)) {
    return false;
  }
  const uint8_t* p = in.p;
  const uint8_t* const end = p + len;
  in.p = end;
  uint32_t x[kStates];
  for (size_t k = 0; k < kStates; ++k) {
    x[k] = LoadLe32(p + 4 * k);
  }
  p += kStateBytes;
  bool short_stream = false;
  const auto step = [&](uint32_t& state, uint8_t* sym) {
    const uint32_t e = t.slots[state & kProbMask];
    *sym = static_cast<uint8_t>(e);
    state = ((e >> 8) & kProbMask) * (state >> kProbBits) + (e >> 20);
    // Renormalize without a data-dependent branch: the bounds test is
    // almost always true, and a short stream is reported after the loop.
    const bool need = state < kStateLow;
    const bool have = end - p >= 2;
    const uint32_t word = have ? LoadLe16(p) : 0;
    short_stream |= need && !have;
    state = need ? (state << 16) | word : state;
    p += (need && have) ? 2 : 0;
  };
  size_t i = 0;
  for (; i + kStates <= n; i += kStates) {
    for (size_t k = 0; k < kStates; ++k) {
      step(x[k], out + i + k);
    }
  }
  for (size_t k = 0; i < n; ++i, ++k) {
    step(x[k], out + i);
  }
  if (short_stream || p != end) {
    return false;
  }
  for (size_t k = 0; k < kStates; ++k) {
    if (x[k] != kStateLow) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* TraceCodecName(uint8_t codec) {
  switch (codec) {
    case static_cast<uint8_t>(TraceCodec::kNone):
      return "none";
    case static_cast<uint8_t>(TraceCodec::kAns):
      return "ans";
    default:
      return "unknown";
  }
}

size_t AnsMaxCompressedSize(size_t total, size_t count) {
  return total + count * (1 + kMaxVarintBytes) + kMaxVarintBytes + 4;
}

size_t AnsCompress(const AnsColumn* columns, size_t count, uint8_t* dst) {
  uint8_t* p = PutVarint(dst, count);
  uint32_t crc = 0;  // of the framed payload the decoder will rebuild
  for (size_t c = 0; c < count; ++c) {
    uint8_t* const length = p;
    p = PutVarint(p, columns[c].size);
    if (c > 0) {
      crc = Crc32c(length, static_cast<size_t>(p - length), crc);
    }
    if (columns[c].size > 0) {
      crc = Crc32c(columns[c].data, columns[c].size, crc);
      p = CompressColumn(columns[c].data, columns[c].size, p);
    }
  }
  StoreLe32(p, crc);
  return static_cast<size_t>(p + 4 - dst);
}

bool AnsDecompress(const uint8_t* src, size_t src_len, uint8_t* dst, size_t dst_len) {
  Reader in{src, src + src_len};
  uint64_t count = 0;
  if (!in.GetVarint(&count) || count == 0) {
    return false;
  }
  uint8_t* out = dst;
  uint8_t* const out_end = dst + dst_len;
  DecodeTable table;
  // Each column costs at least its length byte, so `count` is bounded by
  // src_len through the reads below.
  for (uint64_t c = 0; c < count; ++c) {
    uint64_t len = 0;
    if (!in.GetVarint(&len)) {
      return false;
    }
    if (c > 0) {
      if (static_cast<size_t>(out_end - out) < VarintSize(len)) {
        return false;
      }
      out = PutVarint(out, len);
    }
    if (len > static_cast<uint64_t>(out_end - out)) {
      return false;
    }
    if (len == 0) {
      continue;
    }
    uint8_t* const column_end = out + len;
    switch (in.Get()) {
      case kStored:
        if (len > static_cast<uint64_t>(in.end - in.p)) {
          return false;
        }
        std::memcpy(out, in.p, len);
        in.p += len;
        out = column_end;
        break;
      case kBytes:
        if (!ReadModel(in, 256, &table) || !DecodeStream(in, table, out, len)) {
          return false;
        }
        out = column_end;
        break;
      case kSplit: {
        uint64_t varints = 0;
        if (!in.GetVarint(&varints) || varints == 0 || varints > len) {
          return false;
        }
        uint8_t* const scratch = Room(t_decode, len);
        if (!ReadModel(in, 256, &table) || !DecodeStream(in, table, scratch, varints)) {
          return false;
        }
        if (varints < len && (!ReadModel(in, 256, &table) ||
                              !DecodeStream(in, table, scratch + varints, len - varints))) {
          return false;
        }
        // Interleave: each first byte, then continuation bytes while the
        // high bit says the varint goes on.
        const uint8_t* first = scratch;
        const uint8_t* cont = first + varints;
        const uint8_t* const cont_end = scratch + len;
        for (uint64_t k = 0; k < varints; ++k) {
          uint8_t b = *first++;
          *out++ = b;
          while (b & 0x80) {
            if (cont == cont_end) {
              return false;
            }
            b = *cont++;
            *out++ = b;
          }
        }
        if (cont != cont_end) {
          return false;
        }
        break;
      }
      case kDictionary: {
        uint64_t varints = 0;
        if (!in.GetVarint(&varints) || varints == 0 || varints > len) {
          return false;
        }
        const int size_byte = in.Get();
        if (size_byte < 0) {
          return false;
        }
        // Each value's canonical varint bytes, padded so expansion can copy
        // a fixed 16 bytes whenever the column has room for them.
        const size_t dict_size = static_cast<size_t>(size_byte) + 1;
        uint8_t encoded[kMaxDictionary][16];
        uint8_t encoded_len[kMaxDictionary];
        uint64_t value = 0;
        for (size_t k = 0; k < dict_size; ++k) {
          uint64_t gap = 0;
          if (!in.GetVarint(&gap)) {
            return false;
          }
          if (k > 0) {
            if (gap >= UINT64_MAX - value) {
              return false;  // the next value would wrap or repeat
            }
            gap += value + 1;
          }
          value = gap;
          std::memset(encoded[k], 0, sizeof(encoded[k]));
          encoded_len[k] = static_cast<uint8_t>(PutVarint(encoded[k], value) - encoded[k]);
        }
        uint8_t* const scratch = Room(t_decode, varints);
        if (!ReadModel(in, static_cast<uint32_t>(dict_size), &table) ||
            !DecodeStream(in, table, scratch, varints)) {
          return false;
        }
        for (uint64_t k = 0; k < varints; ++k) {
          const uint8_t ix = scratch[k];
          if (column_end - out >= 16) {
            std::memcpy(out, encoded[ix], 16);
          } else if (column_end - out >= encoded_len[ix]) {
            std::memcpy(out, encoded[ix], encoded_len[ix]);
          } else {
            return false;
          }
          out += encoded_len[ix];
        }
        break;
      }
      default:
        return false;
    }
    if (out != column_end) {
      return false;
    }
  }
  return in.end - in.p == 4 && out == out_end && LoadLe32(in.p) == Crc32c(dst, dst_len);
}

}  // namespace bsdtrace
