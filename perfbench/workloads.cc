#include "perfbench/workloads.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "perfbench/layers.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/cache/sweep.h"
#include "src/trace/replay_log.h"
#include "src/trace/trace_ring.h"
#include "src/trace/trace_source.h"
#include "src/trace/validate.h"
#include "src/workload/fleet.h"

namespace perfbench {

using bsdtrace::Status;
using bsdtrace::StatusOr;

FleetInput Sized(const FleetInput& input, const RunOptions& options) {
  FleetInput sized = input;
  if (options.tiny) {
    sized.users = 40;  // Table I rates are per user, so the bands still hold
    sized.records = 0;
  }
  return sized;
}

bsdtrace::FleetGeneratorOptions GeneratorOptions(const FleetInput& input,
                                                 const RunOptions& options) {
  bsdtrace::FleetGeneratorOptions gen;
  gen.base.duration = bsdtrace::Duration::Hours(input.hours);
  gen.base.seed = options.seed;
  gen.shards_per_machine = kShardsPerMachine;
  gen.threads = kThreads;
  gen.spill_dir = options.workdir;
  return gen;
}

bsdtrace::FleetProfile Fleet(const FleetInput& input) {
  auto fleet = bsdtrace::ParseFleetSpec(input.spec, input.users);
  if (!fleet.ok()) {
    std::fprintf(stderr, "perfbench: bad fleet spec %s: %s\n", input.spec,
                 fleet.status().message().c_str());
    std::abort();
  }
  return std::move(fleet).value();
}

StatusOr<bsdtrace::Trace> GeneratePrefix(const FleetInput& input, const RunOptions& options) {
  auto generated = bsdtrace::GenerateFleetTrace(Fleet(input), GeneratorOptions(input, options));
  if (!generated.ok()) {
    return generated.status();
  }
  bsdtrace::Trace trace = std::move(generated.value().trace);
  if (input.records > 0 && trace.size() > input.records) {
    trace.records().resize(input.records);
  }
  return trace;
}

bsdtrace::AnalyzeOptions FileAnalysis(const std::string& path, unsigned threads) {
  bsdtrace::AnalyzeOptions options;
  options.path = path;
  options.threads = threads;
  return options;
}

bsdtrace::AnalyzeOptions MemoryAnalysis(const bsdtrace::Trace& trace) {
  bsdtrace::AnalyzeOptions options;
  options.trace = &trace;
  return options;
}

void RunLiveReplay(const bsdtrace::Trace& trace, Tracer* tracer, int parent, LiveSamples* out) {
  const std::vector<bsdtrace::TraceRecord>& records = trace.records();
  const double ns_per_record = 1e9 / kLiveRecordsPerSecond;
  bsdtrace::TraceRingOptions ring_options;
  ring_options.policy = bsdtrace::RingOverflowPolicy::kDropOldest;
  std::vector<std::unique_ptr<bsdtrace::TraceRing>> rings;
  for (int k = 0; k < kLiveRings; ++k) {
    rings.push_back(std::make_unique<bsdtrace::TraceRing>(trace.header(), ring_options));
  }

  struct Consumer {
    std::vector<double> lag_ms, publish_ms, queue_wait_ms;
    int64_t busy_ns = 0;
    uint64_t consumed = 0;
    uint64_t snapshots = 0;
    bsdtrace::TraceAnalysis final;
  };
  std::vector<Consumer> consumers(kLiveRings);
  std::vector<double> late_ms;
  // Record i is due at start + i / rate, whenever the producer gets to it.
  const int64_t start_ns = NowNs() + 2'000'000;
  auto due = [&](uint64_t i) {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * ns_per_record);
  };

  std::vector<std::thread> threads;
  for (int k = 0; k < kLiveRings; ++k) {
    threads.emplace_back([&, k]() {
      Tracer::Scope span(tracer, "analysis.rolling", parent);
      Consumer& c = consumers[static_cast<size_t>(k)];
      // Without drops the n-th record popped is record n of the trace.
      uint64_t index = 0;
      int64_t pop_ns = 0;
      bsdtrace::RollingAnalyzer rolling(
          kSnapshotInterval, [&](const bsdtrace::TraceAnalysis&, bsdtrace::SimTime) {
            const int64_t now = NowNs();
            c.lag_ms.push_back(static_cast<double>(now - due(index)) / 1e6);
            c.publish_ms.push_back(static_cast<double>(now - pop_ns) / 1e6);
            ++c.snapshots;
          });
      bsdtrace::TraceRecord record;
      while (rings[static_cast<size_t>(k)]->Pop(&record)) {
        pop_ns = NowNs();
        if (index % 16 == 0) {
          c.queue_wait_ms.push_back(static_cast<double>(pop_ns - due(index)) / 1e6);
        }
        rolling.Process(record);
        c.busy_ns += NowNs() - pop_ns;
        ++index;
      }
      c.consumed = index;
      c.final = rolling.Finish();
      span.Count("records", index);
      span.Count("snapshots", c.snapshots);
    });
  }
  threads.emplace_back([&]() {
    Tracer::Scope span(tracer, "trace.ring_produce", parent);
    for (uint64_t i = 0; i < records.size(); ++i) {
      const int64_t due_ns = due(i);
      int64_t now = NowNs();
      if (now < due_ns) {
        // Timer slack wakes the producer a little late; the records that
        // fell due meanwhile go out as one burst.
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
        now = NowNs();
      }
      for (auto& ring : rings) {
        ring->Push(records[i]);
      }
      if (i % 16 == 0) {
        late_ms.push_back(static_cast<double>(now - due_ns) / 1e6);
      }
    }
    for (auto& ring : rings) {
      ring->Close();
    }
    span.Count("records", records.size());
  });
  for (std::thread& t : threads) {
    t.join();
  }

  out->finals.clear();
  for (int k = 0; k < kLiveRings; ++k) {
    Consumer& c = consumers[static_cast<size_t>(k)];
    const bsdtrace::TraceRingStats stats = rings[static_cast<size_t>(k)]->stats();
    out->offered += records.size();
    out->dropped += stats.dropped();
    out->max_occupancy = std::max(out->max_occupancy, stats.max_occupancy);
    out->snapshots += c.snapshots;
    out->consumed += c.consumed;
    out->busy_s += static_cast<double>(c.busy_ns) / 1e9;
    out->lag_ms.insert(out->lag_ms.end(), c.lag_ms.begin(), c.lag_ms.end());
    out->publish_ms.insert(out->publish_ms.end(), c.publish_ms.begin(), c.publish_ms.end());
    out->queue_wait_ms.insert(out->queue_wait_ms.end(), c.queue_wait_ms.begin(),
                              c.queue_wait_ms.end());
    out->finals.push_back(std::move(c.final));
  }
  out->producer_late_ms.insert(out->producer_late_ms.end(), late_ms.begin(), late_ms.end());
}

namespace {

// Operations run at least this often, so traced runs see traced and
// untraced repetitions alike.
constexpr int kMinReps = 3;

// What one repetition of an operation measured.
struct Sample {
  double seconds = 0.0;        // wall time of the timed part
  double records_per_s = 0.0;  // trace records handled per second
  double latency_ms = 0.0;     // time from a result being due to its delivery
};

// A batch operation over `records` records: its result is due when it starts.
Sample BatchSample(double records, double seconds) {
  return {seconds, seconds > 0 ? records / seconds : 0.0, seconds * 1e3};
}

// Repetitions of a run, split by whether they were traced.
struct Reps {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
};

// Ends an operation's timed part: closes its root span and returns the
// seconds since `start`.  Output checks run after it, untimed.
double Stop(Tracer::Scope& root, int64_t start) {
  root.End();
  return SecondsSince(start);
}

// Repeats `op(root)`, which returns its Sample, for options.seconds of wall
// time.  Traced runs alternate the tracer off and on, so the two sets of
// repetitions give the tracing overhead under the same conditions.
template <typename Op>
Reps Repeat(const RunOptions& options, Tracer* tracer, Op op) {
  Reps reps;
  const int64_t start = NowNs();
  for (int rep = 0; rep < kMinReps || SecondsSince(start) < options.seconds; ++rep) {
    tracer->enabled = options.trace && rep % 2 == 1;
    tracer->run = rep;
    Quiesce();
    Tracer::Scope root(tracer, "op");
    const Sample sample = op(root);
    std::fprintf(stderr, "  rep %d%s: %.4f s, %.0f records/s, latency %.4f ms\n", rep,
                 tracer->enabled ? " (traced)" : "", sample.seconds, sample.records_per_s,
                 sample.latency_ms);
    (tracer->enabled ? reps.traced : reps.untraced).push_back(sample);
  }
  tracer->enabled = false;
  return reps;
}

// Times `kSetupReps` (traced runs: one) calls of `setup`, which returns a
// non-ok status when the inputs cannot be built.
template <typename Setup>
StatusOr<std::vector<double>> TimeSetup(const RunOptions& options, Setup setup) {
  std::vector<double> seconds;
  for (int i = 0; i < (options.trace ? 1 : kSetupReps); ++i) {
    const int64_t start = NowNs();
    if (Status st = setup(); !st.ok()) {
      return st;
    }
    seconds.push_back(SecondsSince(start));
  }
  return seconds;
}

template <typename Field>
std::vector<double> Column(const std::vector<Sample>& samples, Field field) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    values.push_back(s.*field);
  }
  return values;
}

// Ends a run right after its repetitions.  Untraced runs report the
// end-to-end metrics.  Traced runs report the tracing overhead, the share of
// the operations that the layer calls leave unattributed, and the layer
// profile over `input`, and write the spans out.
StatusOr<RunResult> Finish(const FleetInput& input, const RunOptions& options,
                           const std::vector<double>& setup_s, const Reps& reps, Tracer* tracer,
                           RunResult result) {
  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("records_per_s", Median(Column(reps.untraced, &Sample::records_per_s)), "1/s");
    result.Add("latency_p50_ms", Median(Column(reps.untraced, &Sample::latency_ms)), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  result.Add("tracing.overhead_ratio",
             Median(Column(reps.traced, &Sample::seconds)) /
                 Median(Column(reps.untraced, &Sample::seconds)),
             "ratio");
  result.Add("span.unattributed_share", UnattributedShare(tracer->spans(), "op"), "ratio");
  tracer->enabled = true;
  tracer->run = -1;  // the profile's spans
  const Status st = ProfileLayers(input, options, tracer, &result);
  tracer->enabled = false;
  const std::string path = options.workdir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!tracer->WriteJsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  if (!st.ok()) {
    return st;
  }
  return result;
}

// ingest: the write path — fleet simulation, spill/merge and v4 encode.
StatusOr<RunResult> Ingest(const RunOptions& options, Tracer* tracer) {
  const FleetInput input = Sized(kA5Fleet, options);
  const bsdtrace::FleetProfile fleet = Fleet(input);
  bsdtrace::FleetGeneratorOptions gen = GeneratorOptions(input, options);
  // Reference: the same seed streamed with no codec.
  DigestSink reference;
  auto setup = TimeSetup(options, [&]() -> Status {
    reference = DigestSink();
    return bsdtrace::GenerateFleetTo(fleet, gen, reference).status();
  });
  if (!setup.ok()) {
    return setup.status();
  }

  RunResult result;
  gen.file_options = bsdtrace::TraceWriterOptions{.version = 4};
  const std::string path = options.workdir + "/ingest.trc";
  uint64_t good_file = 0;  // digest of the first output that passed every check
  ResetPeakRss();
  const Reps reps = Repeat(options, tracer, [&](Tracer::Scope& root) {
    const int64_t start = NowNs();
    const auto stats = [&]() {
      Tracer::Scope span(tracer, "workload.generate_to_file", root.id());
      auto generated = bsdtrace::GenerateFleetToFile(fleet, gen, path);
      span.Count("records", generated.ok() ? generated.value().records_streamed : 0);
      return generated;
    }();
    const double seconds = Stop(root, start);
    // Checks, untimed.  Output is deterministic, so after one output passed
    // the full check every later one must match it byte for byte.
    bool ok = stats.ok() && stats.value().records_streamed == reference.records();
    const uint64_t file = ok ? FileDigest(path) : 0;
    if (ok && (good_file == 0 || file != good_file)) {
      const bsdtrace::TraceFileCheck check = bsdtrace::CheckTraceFile(path);
      DigestSink decoded;
      bsdtrace::TraceFileSource source(path);
      bsdtrace::TraceRecord record;
      while (source.Next(&record)) {
        decoded.Append(record);
      }
      ok = check.ok() && check.records == reference.records() && source.status().ok() &&
           decoded.records() == reference.records() && decoded.digest() == reference.digest();
      if (ok) {
        good_file = file;
      }
    }
    result.Op(ok);
    return BatchSample(static_cast<double>(reference.records()), seconds);
  });
  return Finish(input, options, setup.value(), reps, tracer, std::move(result));
}

// analyze: the read path of the same codec — integrity pass, decode, CRC,
// reconstruct, collectors and the segment-parallel stitch.
StatusOr<RunResult> AnalyzeWorkload(const RunOptions& options, Tracer* tracer) {
  const FleetInput input = Sized(kA5Fleet, options);
  const std::string path = options.workdir + "/analyze.trc";
  uint64_t records = 0;
  bsdtrace::TraceAnalysis reference;
  auto setup = TimeSetup(options, [&]() -> Status {
    auto trace = GeneratePrefix(input, options);
    if (!trace.ok()) {
      return trace.status();
    }
    records = trace.value().size();
    if (Status st = bsdtrace::SaveTrace(path, trace.value(), {.version = 4}); !st.ok()) {
      return st;
    }
    auto serial = bsdtrace::Analyze(FileAnalysis(path, 1));
    if (!serial.ok()) {
      return serial.status();
    }
    reference = std::move(serial).value();
    return Status::Ok();
  });
  if (!setup.ok()) {
    return setup.status();
  }
  if (options.corrupt_v4) {
    // Flip one byte in the middle of the stored blocks.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    const long middle = static_cast<long>(std::filesystem::file_size(path) / 2);
    if (f == nullptr || std::fseek(f, middle, SEEK_SET) != 0) {
      return Status::Error("cannot corrupt " + path);
    }
    const int byte = std::fgetc(f);
    std::fseek(f, middle, SEEK_SET);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }

  RunResult result;
  ResetPeakRss();
  const Reps reps = Repeat(options, tracer, [&](Tracer::Scope& root) {
    const int64_t start = NowNs();
    bsdtrace::TraceFileCheck check;
    {
      Tracer::Scope span(tracer, "trace.check", root.id());
      check = bsdtrace::CheckTraceFile(path);
      span.Count("blocks_verified", check.blocks_verified);
    }
    const auto analysis = [&]() {
      Tracer::Scope span(tracer, "analysis.analyze_file", root.id());
      bsdtrace::AnalyzeOptions analyze = FileAnalysis(path, kThreads);
      analyze.check_bands = true;
      auto analyzed = bsdtrace::Analyze(analyze);
      span.Count("segments", analyzed.ok() ? analyzed.value().segments_used : 0);
      return analyzed;
    }();
    const double seconds = Stop(root, start);
    result.Op(check.ok() && check.records == records);
    result.Op(analysis.ok() && !analysis.value().band_checks.empty() &&
              analysis.value().bands_ok() &&
              bsdtrace::AnalysisBitIdentical(analysis.value(), reference));
    return BatchSample(static_cast<double>(records), seconds);
  });
  return Finish(input, options, setup.value(), reps, tracer, std::move(result));
}

// sweep: the cache layer — replay-log build, the Fig. 5-7 planned sweeps and
// the §7 hierarchy sweep over a v3 file, so decode is a small share.
StatusOr<RunResult> Sweep(const RunOptions& options, Tracer* tracer) {
  const FleetInput input = Sized(kMixedFleet, options);
  const std::string path = options.workdir + "/sweep.trc";
  uint64_t records = 0;
  auto setup = TimeSetup(options, [&]() -> Status {
    auto trace = GeneratePrefix(input, options);
    if (!trace.ok()) {
      return trace.status();
    }
    records = trace.value().size();
    return bsdtrace::SaveTrace(path, trace.value(), {.version = 3});
  });
  if (!setup.ok()) {
    return setup.status();
  }
  const std::vector<std::vector<bsdtrace::CacheConfig>> figures = {
      bsdtrace::Fig5Configs(), bsdtrace::Fig6Configs(), bsdtrace::Fig7Configs()};
  const std::vector<bsdtrace::HierarchyConfig> hierarchy = bsdtrace::HierarchySweepConfigs();

  RunResult result;
  ResetPeakRss();
  const Reps reps = Repeat(options, tracer, [&](Tracer::Scope& root) {
    const int64_t start = NowNs();
    const auto log = [&]() {
      Tracer::Scope span(tracer, "trace.replay_log_build", root.id());
      auto built = bsdtrace::ReplayLog::BuildFromFile(path);
      span.Count("events", built.ok() ? built.value().event_count() : 0);
      return built;
    }();
    if (!log.ok()) {
      result.Op(false);
      return BatchSample(static_cast<double>(records), Stop(root, start));
    }
    bool planned_ok = true;
    for (const std::vector<bsdtrace::CacheConfig>& configs : figures) {
      Tracer::Scope span(tracer, "cache.planned_sweep", root.id());
      const bsdtrace::PlannedSweep sweep =
          bsdtrace::RunPlannedSweep(log.value(), configs, {}, kThreads);
      span.Count("configs", configs.size());
      planned_ok = planned_ok && sweep.parity && sweep.points.size() == configs.size();
    }
    bool hier_ok = false;
    {
      Tracer::Scope span(tracer, "cache.hierarchy_sweep", root.id());
      const bsdtrace::HierarchySweepResult sweep =
          bsdtrace::RunHierarchySweep(log.value(), hierarchy, kThreads);
      span.Count("configs", hierarchy.size());
      hier_ok = sweep.parity && sweep.points.size() == hierarchy.size();
    }
    const double seconds = Stop(root, start);
    result.Op(planned_ok);
    result.Op(hier_ok);
    return BatchSample(static_cast<double>(records), seconds);
  });
  return Finish(input, options, setup.value(), reps, tracer, std::move(result));
}

// live: an open loop replaying the analyze trace from memory into rolling
// analyzers — the only workload on the ring and the snapshot path.
StatusOr<RunResult> Live(const RunOptions& options, Tracer* tracer) {
  const FleetInput input = Sized(kA5Fleet, options);
  bsdtrace::Trace trace;
  bsdtrace::TraceAnalysis reference;
  auto setup = TimeSetup(options, [&]() -> Status {
    auto generated = GeneratePrefix(input, options);
    if (!generated.ok()) {
      return generated.status();
    }
    trace = std::move(generated).value();
    auto batch = bsdtrace::Analyze(MemoryAnalysis(trace));
    if (!batch.ok()) {
      return batch.status();
    }
    reference = std::move(batch).value();
    return Status::Ok();
  });
  if (!setup.ok()) {
    return setup.status();
  }

  RunResult result;
  ResetPeakRss();
  const Reps reps = Repeat(options, tracer, [&](Tracer::Scope& root) {
    const int64_t start = NowNs();
    LiveSamples replay;
    RunLiveReplay(trace, tracer, root.id(), &replay);
    const double seconds = Stop(root, start);
    // Every offered record is an operation; a dropped one failed.
    result.attempted += replay.offered;
    result.failed += replay.dropped;
    if (replay.dropped > 0) {
      result.correct = false;
    }
    for (const bsdtrace::TraceAnalysis& final : replay.finals) {
      if (!bsdtrace::AnalysisBitIdentical(final, reference)) {
        result.correct = false;
      }
    }
    return Sample{seconds,
                  replay.busy_s > 0 ? static_cast<double>(replay.consumed) / replay.busy_s : 0.0,
                  Median(replay.lag_ms)};
  });
  return Finish(input, options, setup.value(), reps, tracer, std::move(result));
}

}  // namespace

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) {
    return Status::Error("cannot create " + options.workdir + ": " + ec.message());
  }
  Tracer tracer;
  if (options.workload == "ingest") {
    return Ingest(options, &tracer);
  }
  if (options.workload == "analyze") {
    return AnalyzeWorkload(options, &tracer);
  }
  if (options.workload == "sweep") {
    return Sweep(options, &tracer);
  }
  if (options.workload == "live") {
    return Live(options, &tracer);
  }
  return Status::Error("unknown workload '" + options.workload +
                       "' (expected ingest, analyze, sweep or live)");
}

}  // namespace perfbench
