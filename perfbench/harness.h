// Benchmark plumbing shared by the workloads and the layer profile: run
// options, the result record printed as the final JSON line, sample
// statistics, peak-RSS accounting, a record digest, and the in-memory span
// tracer of traced runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace perfbench {

// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for trace files and spill files (inside the checkout).
  std::string workdir = ".bench_build/work";
  // Self-check knobs: shrink every input to a few simulated minutes, and
  // flip one byte of the stored v4 input before the analyze workload reads it.
  bool tiny = false;
  bool corrupt_v4 = false;
};

// One named measurement of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts one attempted operation, failed unless `ok`.
  void Op(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  std::string ToJson() const;
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Sample statistics (the input is taken by value and sorted).  Quantile uses
// linear interpolation between order statistics; both return 0 for no data.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

// Peak resident set since the last ResetPeakRss(), in MB (VmHWM), or -1
// where /proc is unavailable.  ResetPeakRss() trims the heap and re-arms the
// kernel's high-water mark at the current RSS.
double PeakRssMb();
void ResetPeakRss();

// Run between repetitions, untimed: flushes dirty file data to disk and
// returns freed heap to the kernel, so one repetition's writeback and
// allocator garbage do not land in the next.
void Quiesce();

// Order-sensitive FNV-1a digest over every field of a record stream; a
// stored file decodes to the generator's stream iff the digests agree.
class DigestSink : public bsdtrace::TraceSink {
 public:
  void Append(const bsdtrace::TraceRecord& record) override;
  uint64_t digest() const { return hash_; }
  uint64_t records() const { return records_; }

 private:
  void Mix(uint64_t value);
  uint64_t hash_ = 14695981039346656037ull;
  uint64_t records_ = 0;
};

// FNV-1a over a file's bytes; 0 when it cannot be read.
uint64_t FileDigest(const std::string& path);

// Spans of a traced run, kept in memory and written out when the run ends.
// A span is one call into a layer's public entry point, made from the
// benchmark's own code; `parent` links it to the operation that caused it
// and `run` numbers the timed operation it belongs to.  Disabled tracers
// record nothing, so the untraced code path pays one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int run = 0;
    std::vector<std::pair<std::string, uint64_t>> counts;
  };

  // RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }
    void Count(const char* key, uint64_t value);
    // Ends the span before the scope does (later calls do nothing).
    void End();

   private:
    Tracer* tracer_;
    int id_ = -1;
    bool ended_ = false;
  };

  bool enabled = false;
  int run = 0;  // stamped on every span begun

  int Begin(const char* name, int parent);
  void End(int id);
  void Count(int id, const char* key, uint64_t value);

  std::vector<Span> spans() const;
  // One JSON object per line; false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int64_t origin_ns_ = NowNs();
};

// Share of the root spans' time that their direct children leave uncovered
// (the blocking layer calls' self times do not explain it), as the median
// over runs.  Roots are spans named `root`.
double UnattributedShare(const std::vector<Tracer::Span>& spans, const std::string& root);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
