// Picking a file-server cache configuration (paper §6): sweep cache size,
// write policy, and block size; report disk-I/O savings next to the
// crash-loss exposure each policy implies.
//
//   ./file_server_sizing [hours]

#include <cstdlib>
#include <iostream>

#include "src/cache/sweep.h"
#include "src/core/experiments.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

int main(int argc, char** argv) {
  using namespace bsdtrace;

  const double hours = argc > 1 ? std::atof(argv[1]) : 8.0;
  std::cout << "Evaluating file-server cache configurations on " << hours
            << " simulated hours of the A5 workload...\n\n";

  GeneratorOptions options;
  options.duration = Duration::Hours(hours);
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;

  // Candidate server configurations.
  struct Candidate {
    const char* label;
    CacheConfig config;
    const char* exposure;  // worst-case data loss on a server crash
  };
  std::vector<Candidate> candidates;
  auto make = [](uint64_t size, WritePolicy policy, Duration flush, uint32_t block) {
    CacheConfig c;
    c.size_bytes = size;
    c.policy = policy;
    c.flush_interval = flush;
    c.block_size = block;
    return c;
  };
  candidates.push_back({"UNIX-style: 400 KB, 4 KB blocks, 30 s flush",
                        make(400 << 10, WritePolicy::kFlushBack, Duration::Seconds(30), 4096),
                        "30 s of writes"});
  candidates.push_back({"Server: 4 MB, 4 KB blocks, write-through",
                        make(4u << 20, WritePolicy::kWriteThrough, Duration::Seconds(30), 4096),
                        "none"});
  candidates.push_back({"Server: 4 MB, 4 KB blocks, 30 s flush",
                        make(4u << 20, WritePolicy::kFlushBack, Duration::Seconds(30), 4096),
                        "30 s of writes"});
  candidates.push_back({"Server: 4 MB, 4 KB blocks, 5 min flush",
                        make(4u << 20, WritePolicy::kFlushBack, Duration::Minutes(5), 4096),
                        "5 min of writes"});
  candidates.push_back({"Server: 4 MB, 16 KB blocks, 5 min flush",
                        make(4u << 20, WritePolicy::kFlushBack, Duration::Minutes(5), 16384),
                        "5 min of writes"});
  candidates.push_back({"Server: 16 MB, 16 KB blocks, delayed write",
                        make(16u << 20, WritePolicy::kDelayedWrite, Duration::Seconds(30), 16384),
                        "unbounded"});

  std::vector<CacheConfig> configs;
  configs.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    configs.push_back(c.config);
  }
  const auto points = RunCacheSweep(ReplayLog::Build(trace), configs);

  const uint64_t baseline = points[0].metrics.DiskIos();
  TextTable table({"Configuration", "Disk I/Os", "Miss ratio", "vs UNIX", "Crash exposure"});
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CacheMetrics& m = points[i].metrics;
    const double vs = baseline > 0 ? static_cast<double>(m.DiskIos()) /
                                         static_cast<double>(baseline)
                                   : 0.0;
    table.AddRow({candidates[i].label, Cell(static_cast<int64_t>(m.DiskIos())),
                  FormatPercent(m.MissRatio()), Cell(vs, 2) + "x", candidates[i].exposure});
  }
  std::cout << table.Render("File-server cache candidates (A5 workload)") << "\n";

  std::cout << "Paper guidance (§6, §8): several megabytes of cache with 16 KB blocks\n"
               "gives very large reductions in disk I/O, and an occasional flush-back\n"
               "bounds crash loss without destroying the benefit of the large cache.\n";
  return 0;
}
