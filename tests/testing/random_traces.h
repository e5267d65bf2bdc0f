// Test helper: seeded random traces shared by the cache engines' property
// tests.

#ifndef BSDTRACE_TESTS_TESTING_RANDOM_TRACES_H_
#define BSDTRACE_TESTS_TESTING_RANDOM_TRACES_H_

#include <cstdint>

#include "src/trace/trace.h"
#include "src/util/rng.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {

// Mixed read/write/invalidation trace: whole-file overwrites (kCreate),
// partial writes that trigger read-modify-write fetches, writes beyond the
// known extent, truncates, and unlinks.
inline Trace RwTrace(uint64_t seed, int ops = 700) {
  Rng rng(seed);
  TraceBuilder b;
  double t = 1;
  OpenId oid = 1;
  for (int i = 0; i < ops; ++i) {
    const FileId file = static_cast<FileId>(rng.UniformInt(1, 15));
    const int kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      b.Unlink(t, file);
    } else if (kind == 1) {
      b.Truncate(t, file, static_cast<uint64_t>(rng.UniformInt(0, 20000)));
    } else if (kind <= 3) {
      // Whole-file overwrite: invalidates, then writes without fetching.
      b.WholeWrite(t, t + 0.1, oid++, file, static_cast<uint64_t>(rng.UniformInt(1, 30000)));
    } else if (kind <= 5) {
      // Partial write at a random offset: misses fetch unless the write
      // covers whole blocks or lies beyond the file's known extent.
      const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, 40000));
      const uint64_t len = static_cast<uint64_t>(rng.UniformInt(1, 12000));
      b.Open(t, oid, file, offset + len, AccessMode::kWriteOnly, 1, offset);
      b.Close(t + 0.1, oid, file, offset + len, offset + len);
      ++oid;
    } else {
      b.WholeRead(t, t + 0.1, oid++, file, static_cast<uint64_t>(rng.UniformInt(1, 40000)));
    }
    t += 0.5;
  }
  return b.Build();
}

}  // namespace bsdtrace

#endif  // BSDTRACE_TESTS_TESTING_RANDOM_TRACES_H_
