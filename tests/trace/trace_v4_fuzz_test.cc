// Seeded, bounded mutation drill for the v4 block decoder.  Valid rANS
// blocks of a generated trace are mutated where the codec keeps its
// structure — frequency tables, dictionaries, sub-stream lengths, coded
// bytes, stored columns — and the block CRC is recomputed so every mutation
// reaches the decoder (a plain flipped byte stops at the CRC, see
// TraceV4.FlippedStoredByteFailsCleanly).  Each mutated file is read with
// mmap on and off: the read must end in a clean Status or deliver exactly
// the original records, never crash, and never ask for more memory than a
// block may declare.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/crc32c.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "tests/testing/temp_path.h"

// The largest single allocation while a mutated file is read.  This test is
// its own binary because it replaces the global allocation functions —
// every non-aligned form of new and delete, so that each pair still matches
// under the sanitizers — with malloc/free plus a high-water mark.  (GCC
// flags free() in a replaced delete as a mismatch.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest_allocation{0};

void* TrackedAlloc(size_t n) noexcept {
  if (g_tracking.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* TrackedAllocOrThrow(size_t n) {
  if (void* p = TrackedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(size_t n) { return TrackedAllocOrThrow(n); }
void* operator new[](size_t n) { return TrackedAllocOrThrow(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept { return TrackedAlloc(n); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return TrackedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace bsdtrace {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offsets (within one block's stored payload) of each structure the
// codec stream carries, found by walking the format of ans_codec.h.
enum Region { kModel, kDictionary, kStreamLength, kCodedByte, kStoredColumn, kAnyByte, kRegions };
const char* const kRegionNames[kRegions] = {"frequency table", "dictionary",
                                            "sub-stream length", "coded byte",
                                            "stored column", "any byte"};

struct Walker {
  const uint8_t* base;
  size_t pos;
  size_t end;
  std::vector<size_t>* regions;  // [kRegions]; kAnyByte is left to the caller

  // Consumes one byte, recording it under `r` unless r == kAnyByte.
  int Get(Region r) {
    if (pos >= end) {
      return -1;
    }
    if (r != kAnyByte) {
      regions[r].push_back(pos);
    }
    return base[pos++];
  }
  bool Varint(Region r, uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const int b = Get(r);
      if (b < 0) {
        return false;
      }
      *v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        return true;
      }
    }
    return false;
  }
  bool Skip(Region r, uint64_t n) {
    if (n > end - pos) {
      return false;
    }
    for (uint64_t k = 0; k < n; ++k) {
      regions[r].push_back(pos++);
    }
    return true;
  }
  // A model, then its sub-stream (absent for a one-symbol model).
  bool ModelAndStream() {
    const int count = Get(kModel);
    if (count < 0) {
      return false;
    }
    uint64_t v = 0;
    for (int k = 0; k <= count; ++k) {
      if (Get(kModel) < 0) {
        return false;
      }
    }
    for (int k = 0; k < count; ++k) {
      if (!Varint(kModel, &v)) {
        return false;
      }
    }
    return count == 0 || (Varint(kStreamLength, &v) && Skip(kCodedByte, v));
  }
  bool Walk() {
    uint64_t columns = 0;
    if (!Varint(kAnyByte, &columns)) {
      return false;
    }
    for (uint64_t c = 0; c < columns; ++c) {
      uint64_t len = 0, n = 0;
      if (!Varint(kAnyByte, &len)) {
        return false;
      }
      if (len == 0) {
        continue;
      }
      bool ok = false;
      switch (Get(kAnyByte)) {
        case 0:  // stored
          ok = Skip(kStoredColumn, len);
          break;
        case 1:  // bytes
          ok = ModelAndStream();
          break;
        case 2:  // split: first bytes, then continuation bytes if any
          ok = Varint(kAnyByte, &n) && ModelAndStream() && (n == len || ModelAndStream());
          break;
        case 3: {  // dictionary
          const bool head = Varint(kAnyByte, &n);
          const int size = head ? Get(kDictionary) : -1;
          ok = size >= 0;
          for (int k = 0; ok && k <= size; ++k) {
            ok = Varint(kDictionary, &n);
          }
          ok = ok && ModelAndStream();
          break;
        }
        default:
          break;
      }
      if (!ok) {
        return false;
      }
    }
    return end - pos == 4;  // the trailing CRC
  }
};

// Where one block's codec byte, CRC and stored payload sit in the file.
struct BlockLayout {
  size_t codec_pos = 0;
  size_t crc_pos = 0;
  size_t payload_pos = 0;
  size_t payload_len = 0;
};

BlockLayout ParseBlockHeader(const std::string& file, size_t offset) {
  size_t p = offset + 1;  // block marker
  const auto varint = [&]() {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const uint8_t b = static_cast<uint8_t>(file[p++]);
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        return v;
      }
    }
  };
  varint();  // record count
  varint();  // raw length
  BlockLayout layout;
  layout.codec_pos = p++;
  layout.payload_len = static_cast<size_t>(varint());
  layout.crc_pos = p;
  layout.payload_pos = p + 4;
  return layout;
}

// Reads `path` to the end; returns the delivered records and the status.
std::vector<TraceRecord> ReadAll(const std::string& path, bool mmap, Status* status) {
  std::vector<TraceRecord> records;
  TraceFileReader reader(path, mmap);
  TraceRecord r;
  while (reader.Next(&r)) {
    records.push_back(r);
  }
  *status = reader.status();
  return records;
}

TEST(TraceV4Fuzz, MutatedRansBlocksFailCleanlyOrDecodeExactly) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 4242;
  const Trace original = GenerateTrace(ProfileA5(), options).trace;
  const std::string path = TempPath("v4_fuzz.trc");
  std::vector<TraceBlockIndexEntry> index;
  {
    TraceWriterOptions v4;
    v4.version = 4;
    v4.block_target_bytes = 4 * 1024;  // many blocks, small enough for dictionaries
    TraceFileWriter writer(path, original.header(), static_cast<int64_t>(original.size()), v4);
    for (const TraceRecord& r : original.records()) {
      writer.Append(r);
    }
    ASSERT_TRUE(writer.Finish().ok());
    index = writer.index();
  }
  const std::string bytes = ReadFileBytes(path);

  // Map every rANS block's structures.
  struct Target {
    BlockLayout layout;
    std::vector<size_t> regions[kRegions];
  };
  std::vector<Target> targets;
  size_t reached[kRegions] = {};
  for (const TraceBlockIndexEntry& entry : index) {
    Target t;
    t.layout = ParseBlockHeader(bytes, entry.offset);
    if (bytes[t.layout.codec_pos] != static_cast<char>(TraceCodec::kAns)) {
      continue;
    }
    const auto* payload = reinterpret_cast<const uint8_t*>(bytes.data() + t.layout.payload_pos);
    Walker walker{payload, 0, t.layout.payload_len, t.regions};
    ASSERT_TRUE(walker.Walk()) << "block at " << entry.offset;
    for (size_t k = 0; k < t.layout.payload_len; ++k) {
      t.regions[kAnyByte].push_back(k);
    }
    for (int r = 0; r < kRegions; ++r) {
      reached[r] += t.regions[r].size();
    }
    targets.push_back(std::move(t));
  }
  ASSERT_GT(targets.size(), 3u);
  for (int r = 0; r < kRegions; ++r) {
    ASSERT_GT(reached[r], 0u) << "no " << kRegionNames[r] << " to mutate";
  }

  Rng rng(20260101);
  const std::string bad = TempPath("v4_fuzz_mutated.trc");
  size_t failed = 0;
  size_t cases = 0;
  for (int round = 0; round < 60; ++round) {
    for (int region = 0; region < kRegions; ++region) {
      const Target* target = nullptr;
      while (target == nullptr || target->regions[region].empty()) {
        target = &targets[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
      }
      const std::vector<size_t>& where = target->regions[region];
      std::string mutated = bytes;
      const size_t at = target->layout.payload_pos +
                        where[static_cast<size_t>(
                            rng.UniformInt(0, static_cast<int64_t>(where.size()) - 1))];
      uint8_t& b = reinterpret_cast<uint8_t&>(mutated[at]);
      switch (rng.UniformInt(0, 3)) {
        case 0: b = static_cast<uint8_t>(b ^ (1u << rng.UniformInt(0, 7))); break;
        case 1: b = static_cast<uint8_t>(b + (rng.UniformInt(0, 1) == 0 ? 1 : 255)); break;
        case 2: b = b == 0 ? 0xFF : 0; break;
        default: b = static_cast<uint8_t>(b ^ rng.UniformInt(1, 255)); break;
      }
      const uint32_t crc = Crc32c(mutated.data() + target->layout.payload_pos,
                                  target->layout.payload_len);
      for (int k = 0; k < 4; ++k) {
        mutated[target->layout.crc_pos + k] = static_cast<char>(crc >> (8 * k));
      }
      WriteFileBytes(bad, mutated);

      std::vector<TraceRecord> delivered[2];
      Status status[2] = {Status::Ok(), Status::Ok()};
      g_largest_allocation = 0;
      g_tracking = true;
      for (const bool mmap : {true, false}) {
        delivered[mmap] = ReadAll(bad, mmap, &status[mmap]);
      }
      g_tracking = false;
      const std::string label = std::string(kRegionNames[region]) + " round " +
                                std::to_string(round);
      ASSERT_LE(g_largest_allocation.load(), kMaxBlockPayload) << label;
      for (int mmap = 0; mmap < 2; ++mmap) {
        // Records from the blocks before the mutated one are exact; the
        // mutated block yields all of its records exactly or none of them.
        ASSERT_LE(delivered[mmap].size(), original.size()) << label;
        ASSERT_TRUE(std::equal(delivered[mmap].begin(), delivered[mmap].end(),
                               original.records().begin()))
            << label;
        if (status[mmap].ok()) {
          ASSERT_EQ(delivered[mmap].size(), original.size()) << label;
        } else {
          ASSERT_FALSE(status[mmap].message().empty()) << label;
        }
      }
      ASSERT_EQ(status[0].ok(), status[1].ok()) << label;
      ASSERT_EQ(delivered[0].size(), delivered[1].size()) << label;
      failed += status[0].ok() ? 0 : 1;
      ++cases;
    }
  }
  std::remove(bad.c_str());
  std::remove(path.c_str());
  // Nearly every mutation is caught; a few land where they change nothing
  // decoded (an unused model slot's bits, say) and decode exactly.
  EXPECT_GT(failed, cases * 9 / 10);
}

}  // namespace
}  // namespace bsdtrace
