// Scale bench for the fleet engine: streams a population-scaled fleet trace
// (default: 2x 500-user A5 machines over 6 simulated hours) to a v3 file and
// to a compressed v4 file, re-runs the v4 generation in bounded-memory waves,
// then analyzes the v4 file in parallel and gates on the Table I per-user
// activity bands — the end-to-end recipe a million-user scale run uses.
// Emits one machine-readable JSON line plus a BENCH_fleet_generate.json
// file, including the peak RSS of the generate and analyze phases (the
// streaming engine's memory must not grow with the population).
//
// Hard gates (non-zero exit):
//   * --compress=lz must cut bytes/record by >= 3x vs the v3 bytes;
//   * the waved v4 file must be byte-identical to the single-wave v4 file;
//   * the Table I activity bands must hold for every instance.
//
// Overrides: BSDTRACE_FLEET (spec, e.g. "4xA5+2xE3+2xC4"), BSDTRACE_USERS
// (per-machine population, 0 = calibrated), BSDTRACE_HOURS, BSDTRACE_SHARDS
// (per machine), BSDTRACE_THREADS.
//
// RSS methodology: the generate phase runs first on the fresh process, so its
// VmHWM is its own; before the analyze phase VmHWM is re-armed via
// malloc_trim(0) + /proc/self/clear_refs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/per_user_activity.h"
#include "src/trace/trace_source.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"

namespace bsdtrace {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
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

void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

bool FilesIdentical(const std::string& a, const std::string& b) {
  std::FILE* fa = std::fopen(a.c_str(), "rb");
  std::FILE* fb = std::fopen(b.c_str(), "rb");
  bool same = fa != nullptr && fb != nullptr;
  while (same) {
    char buf_a[1 << 16], buf_b[1 << 16];
    const size_t na = std::fread(buf_a, 1, sizeof(buf_a), fa);
    const size_t nb = std::fread(buf_b, 1, sizeof(buf_b), fb);
    same = na == nb && std::memcmp(buf_a, buf_b, na) == 0;
    if (na < sizeof(buf_a)) {
      break;
    }
  }
  if (fa != nullptr) std::fclose(fa);
  if (fb != nullptr) std::fclose(fb);
  return same;
}

}  // namespace
}  // namespace bsdtrace

int main() {
  using namespace bsdtrace;
  std::string spec = "2xA5";
  int users = 500;
  double hours = 6.0;
  int shards = 8;
  int threads = 0;  // hardware concurrency
  if (const char* env = std::getenv("BSDTRACE_FLEET")) {
    spec = env;
  }
  if (const char* env = std::getenv("BSDTRACE_USERS")) {
    users = std::max(0, std::atoi(env));
  }
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

  auto fleet = ParseFleetSpec(spec, users);
  if (!fleet.ok()) {
    std::fprintf(stderr, "bad fleet spec: %s\n", fleet.status().message().c_str());
    return 1;
  }
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(hours);
  options.base.seed = 19851201;
  options.shards_per_machine = shards;
  options.threads = threads;

  std::printf(
      "bench_fleet_generate: fleet %s, %d users/machine, %.2f simulated hours, "
      "%d shards/machine, %d threads (hw %d)\n",
      fleet.value().spec.c_str(), users, hours, shards, threads, hw_threads);

  const std::string base =
      (std::filesystem::temp_directory_path() / "bsdtrace-bench-fleet").string();
  const std::string path_v3 = base + "-v3.trc";
  const std::string path = base + "-v4.trc";
  const std::string path_waved = base + "-v4-waved.trc";

  // Phase 1 — streaming fleet generation to v3 bytes, on the fresh process.
  const auto gen_t0 = std::chrono::steady_clock::now();
  auto stats = GenerateFleetToFile(fleet.value(), options, path_v3);
  const double generate_s = SecondsSince(gen_t0);
  if (!stats.ok()) {
    std::fprintf(stderr, "fleet generation failed: %s\n", stats.status().message().c_str());
    return 1;
  }
  const long peak_rss_generate_kb = ReadPeakRssKb();

  // Phase 2 — the same fleet as compressed v4, single wave.
  options.file_options.version = 4;
  const auto gen4_t0 = std::chrono::steady_clock::now();
  auto stats_v4 = GenerateFleetToFile(fleet.value(), options, path);
  const double generate_v4_s = SecondsSince(gen4_t0);
  if (!stats_v4.ok()) {
    std::fprintf(stderr, "v4 generation failed: %s\n", stats_v4.status().message().c_str());
    return 1;
  }

  // Phase 3 — v4 again in bounded-memory waves (one instance per wave),
  // which must reproduce the single-wave file byte for byte.
  options.wave_users = 1;
  auto stats_waved = GenerateFleetToFile(fleet.value(), options, path_waved);
  if (!stats_waved.ok()) {
    std::fprintf(stderr, "waved generation failed: %s\n",
                 stats_waved.status().message().c_str());
    return 1;
  }
  const bool wave_identical = FilesIdentical(path, path_waved);
  std::remove(path_waved.c_str());

  const auto v3_bytes = static_cast<uint64_t>(std::filesystem::file_size(path_v3));
  const auto v4_bytes = static_cast<uint64_t>(std::filesystem::file_size(path));
  std::remove(path_v3.c_str());
  const uint64_t records = stats.value().records_streamed;
  const double bpr_v3 = records > 0 ? static_cast<double>(v3_bytes) / records : 0.0;
  const double bpr_v4 = records > 0 ? static_cast<double>(v4_bytes) / records : 0.0;
  const double ratio = v4_bytes > 0 ? static_cast<double>(v3_bytes) / v4_bytes : 0.0;
  std::printf("  v3 %llu bytes (%.2f B/record), v4+lz %llu bytes (%.2f B/record): %.2fx; "
              "%llu wave(s), wave bytes identical: %s\n",
              static_cast<unsigned long long>(v3_bytes), bpr_v3,
              static_cast<unsigned long long>(v4_bytes), bpr_v4, ratio,
              static_cast<unsigned long long>(stats_waved.value().waves),
              wave_identical ? "yes" : "NO");

  // Phase 4 — parallel analysis of the compressed file + Table I band gate,
  // peak counter re-armed.
  ResetPeakRss();
  const auto an_t0 = std::chrono::steady_clock::now();
  AnalyzeOptions analyze_options;
  analyze_options.path = path;
  analyze_options.threads =
      threads > 0 ? static_cast<unsigned>(threads) : std::thread::hardware_concurrency();
  auto analysis = Analyze(analyze_options);
  const double analyze_s = SecondsSince(an_t0);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", analysis.status().message().c_str());
    std::remove(path.c_str());
    return 1;
  }
  const long peak_rss_analyze_kb = ReadPeakRssKb();

  TraceFileSource header_source(path);
  std::vector<ActivityBandCheck> checks;
  if (header_source.status().ok()) {
    checks = CheckActivityBands(header_source.header(), analysis.value().per_user);
  }
  bool bands_ok = !checks.empty();
  double min_rate = 0.0, max_rate = 0.0;
  for (const ActivityBandCheck& c : checks) {
    std::printf("  instance %zu %-3s %5d users  %8.1f records/user/day  %s\n", c.instance,
                c.trace_name.c_str(), c.user_population, c.records_per_user_day,
                c.ok ? "ok" : "FAIL");
    bands_ok = bands_ok && c.ok;
    min_rate = min_rate == 0.0 ? c.records_per_user_day : std::min(min_rate, c.records_per_user_day);
    max_rate = std::max(max_rate, c.records_per_user_day);
  }
  std::remove(path.c_str());

  const ShardedStreamStats& s = stats.value();
  const bool ratio_ok = ratio >= 3.0;
  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"fleet_generate\",\"fleet\":\"%s\",\"machines\":%zu,"
                "\"users_per_machine\":%d,\"hours\":%.2f,\"shards\":%d,\"threads\":%d,"
                "\"hw_threads\":%d,\"records\":%llu,\"spill_bytes\":%llu,"
                "\"v3_bytes\":%llu,\"v4_bytes\":%llu,"
                "\"bytes_per_record_v3\":%.2f,\"bytes_per_record_v4\":%.2f,"
                "\"compression_ratio\":%.2f,\"waves\":%llu,\"wave_identical\":%s,"
                "\"generate_s\":%.3f,\"generate_v4_s\":%.3f,\"analyze_s\":%.3f,"
                "\"peak_rss_generate_kb\":%ld,\"peak_rss_analyze_kb\":%ld,"
                "\"min_records_per_user_day\":%.1f,\"max_records_per_user_day\":%.1f,"
                "\"bands_ok\":%s}",
                fleet.value().spec.c_str(), fleet.value().machines.size(), users, hours,
                shards, threads, hw_threads,
                static_cast<unsigned long long>(s.records_streamed),
                static_cast<unsigned long long>(s.spill_bytes_written),
                static_cast<unsigned long long>(v3_bytes),
                static_cast<unsigned long long>(v4_bytes), bpr_v3, bpr_v4, ratio,
                static_cast<unsigned long long>(stats_waved.value().waves),
                wave_identical ? "true" : "false", generate_s, generate_v4_s,
                analyze_s, peak_rss_generate_kb, peak_rss_analyze_kb, min_rate, max_rate,
                bands_ok ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_fleet_generate.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  bool failed = false;
  if (!ratio_ok) {
    std::fprintf(stderr, "FAIL: v4 --compress=lz ratio %.2fx below the 3x gate\n", ratio);
    failed = true;
  }
  if (!wave_identical) {
    std::fprintf(stderr, "FAIL: waved v4 output differs from the single-wave bytes\n");
    failed = true;
  }
  if (!bands_ok) {
    std::fprintf(stderr, "FAIL: Table I per-user activity bands violated\n");
    failed = true;
  }
  return failed ? 1 : 0;
}
