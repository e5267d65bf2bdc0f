// Microbench for the sharded generation engine: times serial GenerateTrace,
// in-memory GenerateTraceSharded, and the spill-to-disk streaming
// GenerateTraceShardedToFile for the same profile/seed/duration, verifies
// the shards=1 path equals the serial one in every record field and the
// streamed file is byte-identical to saving the in-memory result, measures
// the peak RSS of the streaming vs. in-memory paths, and emits one
// machine-readable JSON line plus a BENCH_micro_generate.json file.
//
// Defaults: the paper's Ucbarpa-class profile (A5) over 6 simulated hours,
// 8 shards, one worker thread per hardware thread.  Override with
// BSDTRACE_HOURS / BSDTRACE_SHARDS / BSDTRACE_THREADS.  The speedup is only
// meaningful on multi-core hardware, so `threads` and `hw_threads` are part
// of the JSON record.
//
// RSS methodology: the streaming phase runs FIRST (a fresh process, so its
// VmHWM is its own); before the in-memory phase the peak is re-armed by
// malloc_trim(0) + writing "5" to /proc/self/clear_refs, which resets VmHWM
// to the current RSS.  On kernels without clear_refs the in-memory number
// degrades to the lifetime peak — still an upper bound for the comparison
// the bench gates on (streaming <= in-memory).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/trace/trace_io.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"

namespace bsdtrace {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// Peak resident set (VmHWM) in kB, or -1 where /proc is unavailable.
long ReadPeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Re-arms VmHWM at the current RSS (after returning freed arenas to the OS)
// so per-phase peaks can be read.  Best effort.
void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace
}  // namespace bsdtrace

int main() {
  using namespace bsdtrace;
  double hours = 6.0;
  int shards = 8;
  int threads = 0;  // hardware concurrency
  if (const char* env = std::getenv("BSDTRACE_HOURS")) {
    hours = std::max(0.01, std::atof(env));
  }
  if (const char* env = std::getenv("BSDTRACE_SHARDS")) {
    shards = std::max(1, std::atoi(env));
  }
  if (const char* env = std::getenv("BSDTRACE_THREADS")) {
    threads = std::atoi(env);
  }
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());

  const MachineProfile profile = ProfileA5();
  GeneratorOptions options;
  options.duration = Duration::Hours(hours);
  options.seed = 19851201;

  ShardedGeneratorOptions sharded_options;
  sharded_options.base = options;
  sharded_options.shard_count = shards;
  sharded_options.threads = threads;

  std::printf("bench_micro_generate: %s, %.2f simulated hours, %d shards, %d threads (hw %d)\n",
              profile.trace_name.c_str(), hours, shards, threads, hw_threads);

  constexpr int kReps = 3;
  const std::string stream_path =
      (std::filesystem::temp_directory_path() / "bsdtrace-bench-stream.trc").string();

  // Phase 1 — streaming, on the fresh process so VmHWM is this phase's own.
  // Min-of-N timing with an untimed warmup iteration, as for the others.
  double stream_s = 1e300;
  uint64_t stream_records = 0;
  uint64_t spill_bytes = 0;
  bool stream_ok = true;
  for (int rep = -1; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto stats = GenerateTraceShardedToFile(profile, sharded_options, stream_path);
    if (!stats.ok()) {
      std::fprintf(stderr, "streaming generation failed: %s\n", stats.status().message().c_str());
      stream_ok = false;
      break;
    }
    if (rep >= 0) {
      stream_s = std::min(stream_s, SecondsSince(t0));
    }
    stream_records = stats.value().records_streamed;
    spill_bytes = stats.value().spill_bytes_written;
  }
  const long peak_rss_stream_kb = ReadPeakRssKb();

  // Phase 2 — in-memory sharded, with the peak counter re-armed.
  ResetPeakRss();
  double sharded_s = 1e300;
  size_t sharded_records = 0;
  std::string sharded_bytes;  // kept for the byte-identity gate below
  for (int rep = -1; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const GenerationResult sharded = GenerateTraceSharded(profile, sharded_options);
    if (rep >= 0) {
      sharded_s = std::min(sharded_s, SecondsSince(t0));
    }
    sharded_records = sharded.trace.size();
    if (rep == kReps - 1) {
      // The streamed file is format v3 (checksummed blocks + footer index);
      // save the in-memory trace with the same options for the identity gate.
      const std::string ref_path =
          (std::filesystem::temp_directory_path() / "bsdtrace-bench-ref.trc").string();
      if (SaveTrace(ref_path, sharded.trace, TraceWriterOptions{.version = 3}).ok()) {
        sharded_bytes = ReadFileBytes(ref_path);
      }
      std::remove(ref_path.c_str());
    }
  }
  const long peak_rss_inmem_kb = ReadPeakRssKb();

  // Phase 3 — serial reference (timing only).
  double serial_s = 1e300;
  size_t serial_records = 0;
  for (int rep = -1; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const GenerationResult serial = GenerateTrace(profile, options);
    if (rep >= 0) {
      serial_s = std::min(serial_s, SecondsSince(t0));
    }
    serial_records = serial.trace.size();
  }

  // Parity gates: shards = 1 must reproduce the serial trace (header and
  // every record field), and the streamed v3 file must be byte-identical to
  // saving the in-memory sharded trace with the same v3 options (count-stamped
  // header, checksummed blocks, footer index).
  ShardedGeneratorOptions one_shard = sharded_options;
  one_shard.shard_count = 1;
  const bool shard1_identical =
      GenerateTraceSharded(profile, one_shard).trace == GenerateTrace(profile, options).trace;
  const bool stream_identical =
      stream_ok && !sharded_bytes.empty() && ReadFileBytes(stream_path) == sharded_bytes;
  std::remove(stream_path.c_str());

  const double speedup = sharded_s > 0 ? serial_s / sharded_s : 0;
  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"micro_generate\",\"hours\":%.2f,\"records\":%zu,"
                "\"sharded_records\":%zu,\"stream_records\":%llu,\"shards\":%d,"
                "\"threads\":%d,\"hw_threads\":%d,"
                "\"serial_s\":%.4f,\"sharded_s\":%.4f,\"stream_s\":%.4f,\"speedup\":%.2f,"
                "\"spill_bytes\":%llu,\"peak_rss_stream_kb\":%ld,\"peak_rss_inmem_kb\":%ld,"
                "\"shard1_identical\":%s,\"stream_identical\":%s}",
                hours, serial_records, sharded_records,
                static_cast<unsigned long long>(stream_records), shards, threads, hw_threads,
                serial_s, sharded_s, stream_s, speedup,
                static_cast<unsigned long long>(spill_bytes), peak_rss_stream_kb,
                peak_rss_inmem_kb, shard1_identical ? "true" : "false",
                stream_identical ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_micro_generate.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  if (!shard1_identical) {
    std::fprintf(stderr, "FAIL: shards=1 trace differs from the serial reference\n");
    return 1;
  }
  if (!stream_identical) {
    std::fprintf(stderr, "FAIL: streamed trace file differs from the in-memory result\n");
    return 1;
  }
  return 0;
}
