#include "perfbench/layers.h"

#include <filesystem>
#include <string>
#include <vector>

#include "src/analysis/parallel_analyzer.h"
#include "src/cache/hierarchy.h"
#include "src/cache/simulator.h"
#include "src/cache/stack_distance.h"
#include "src/cache/sweep.h"
#include "src/trace/reconstruct.h"
#include "src/trace/replay_log.h"
#include "src/trace/trace_io.h"
#include "src/trace/validate.h"
#include "src/workload/sharded_generator.h"

namespace perfbench {

using bsdtrace::Status;

namespace {

// Runs `body(span)` inside a span named `name` and returns its seconds.
template <typename Body>
double Timed(Tracer* tracer, const char* name, int parent, Body&& body) {
  Tracer::Scope span(tracer, name, parent);
  const int64_t start = NowNs();
  body(span);
  return SecondsSince(start);
}

class TransferCounter final : public bsdtrace::ReconstructionSink {
 public:
  void OnTransfer(const bsdtrace::Transfer&) override { ++transfers_; }
  uint64_t transfers() const { return transfers_; }

 private:
  uint64_t transfers_ = 0;
};

// One collector fed alone by Reconstruct, its result taken.
template <typename Collector, typename Take>
double TimeCollector(Tracer* tracer, const char* name, int parent, const bsdtrace::Trace& trace,
                     Collector collector, Take take) {
  return Timed(tracer, name, parent, [&](Tracer::Scope&) {
    bsdtrace::Reconstruct(trace, &collector);
    take(collector);
  });
}

// Writes `trace` with `options`; returns the writer's payload byte counts.
Status Encode(const bsdtrace::Trace& trace, const std::string& path,
              const bsdtrace::TraceWriterOptions& options, uint64_t* raw, uint64_t* stored) {
  bsdtrace::TraceFileWriter writer(path, trace.header(), static_cast<int64_t>(trace.size()),
                                   options);
  for (const bsdtrace::TraceRecord& r : trace.records()) {
    writer.Append(r);
  }
  Status st = writer.Finish();
  *raw = writer.payload_raw_bytes();
  *stored = writer.payload_stored_bytes();
  return st;
}

}  // namespace

Status ProfileLayers(const FleetInput& input, const RunOptions& options, Tracer* tracer,
                     RunResult* result) {
  Tracer::Scope profile(tracer, "profile");
  const int root = profile.id();
  auto add = [result](const std::string& name, double value, const char* unit) {
    result->Add(name, value, unit);
  };

  // -- workload: the fleet generator into an in-memory trace ----------------
  const bsdtrace::FleetProfile fleet = Fleet(input);
  const bsdtrace::FleetGeneratorOptions gen = GeneratorOptions(input, options);
  bsdtrace::Trace trace;
  bsdtrace::ShardedStreamStats gen_stats;
  Status st = Status::Ok();
  add("workload.generate_s", Timed(tracer, "workload.generate", root, [&](Tracer::Scope& span) {
        auto stats = bsdtrace::GenerateFleetTo(fleet, gen, trace);
        if (!stats.ok()) {
          st = stats.status();
          return;
        }
        gen_stats = std::move(stats).value();
        trace.header() = gen_stats.header;
        span.Count("records", gen_stats.records_streamed);
      }), "s");
  if (!st.ok()) {
    return st;
  }
  add("workload.records", static_cast<double>(trace.size()), "count");
  add("workload.spill_bytes", static_cast<double>(gen_stats.spill_bytes_written), "B");
  add("workload.tasks_executed", static_cast<double>(gen_stats.tasks_executed), "count");
  // The layers below see the prefix the workloads store.
  if (input.records > 0 && trace.size() > input.records) {
    trace.records().resize(input.records);
  }

  // -- trace: encode, decode, check, reconstruct, replay log ----------------
  const std::string v4_path = options.workdir + "/profile-v4.trc";
  const std::string v3_path = options.workdir + "/profile-v3.trc";
  uint64_t raw = 0, stored = 0, raw3 = 0, stored3 = 0;
  add("trace.encode_v4_s", Timed(tracer, "trace.encode_v4", root, [&](Tracer::Scope& span) {
        st = Encode(trace, v4_path, {.version = 4}, &raw, &stored);
        span.Count("payload_stored_bytes", stored);
      }), "s");
  result->Op(st.ok());
  add("trace.encode_v3_s", Timed(tracer, "trace.encode_v3", root, [&](Tracer::Scope&) {
        st = Encode(trace, v3_path, {.version = 3}, &raw3, &stored3);
      }), "s");
  result->Op(st.ok());
  add("trace.payload_raw_bytes", static_cast<double>(raw), "B");
  add("trace.payload_stored_bytes", static_cast<double>(stored), "B");
  add("trace.compression_ratio", stored > 0 ? static_cast<double>(raw) / stored : 0.0, "ratio");
  std::error_code ec;
  const auto v4_bytes = std::filesystem::file_size(v4_path, ec);
  add("trace.bytes_per_record", ec ? 0.0 : static_cast<double>(v4_bytes) / trace.size(),
      "B/record");

  uint64_t blocks = 0;
  add("trace.decode_v4_s", Timed(tracer, "trace.decode_v4", root, [&](Tracer::Scope& span) {
        bsdtrace::TraceFileReader reader(v4_path);
        bsdtrace::TraceRecord record;
        uint64_t decoded = 0;
        while (reader.Next(&record)) {
          ++decoded;
        }
        blocks = reader.blocks_verified();
        span.Count("records", decoded);
        result->Op(reader.status().ok() && decoded == trace.size());
      }), "s");
  add("trace.blocks_verified", static_cast<double>(blocks), "count");
  add("trace.check_s", Timed(tracer, "trace.check", root, [&](Tracer::Scope&) {
        const bsdtrace::TraceFileCheck check = bsdtrace::CheckTraceFile(v4_path);
        result->Op(check.ok() && check.records == trace.size());
      }), "s");

  TransferCounter counter;
  const double reconstruct_s =
      Timed(tracer, "trace.reconstruct", root, [&](Tracer::Scope& span) {
        bsdtrace::Reconstruct(trace, &counter);
        span.Count("transfers", counter.transfers());
      });
  add("trace.reconstruct_s", reconstruct_s, "s");
  add("trace.transfers", static_cast<double>(counter.transfers()), "count");
  bsdtrace::ReplayLog log;
  add("trace.replay_log_build_s",
      Timed(tracer, "trace.replay_log_build", root, [&](Tracer::Scope& span) {
        log = bsdtrace::ReplayLog::Build(trace);
        span.Count("events", log.event_count());
      }), "s");
  add("trace.replay_events", static_cast<double>(log.event_count()), "count");
  add("trace.replay_data_events", static_cast<double>(log.data_event_count()), "count");

  // -- analysis: serial, per collector, file serial vs parallel --------------
  bsdtrace::TraceAnalysis reference;
  add("analysis.serial_s", Timed(tracer, "analysis.serial", root, [&](Tracer::Scope&) {
        reference = bsdtrace::Analyze(MemoryAnalysis(trace)).value();
      }), "s");
  add("analysis.collector.overall_s",
      TimeCollector(tracer, "analysis.collector.overall", root, trace,
                    bsdtrace::OverallStatsCollector(), [](auto& c) { c.Take(); }), "s");
  add("analysis.collector.activity_s",
      TimeCollector(tracer, "analysis.collector.activity", root, trace,
                    bsdtrace::ActivityCollector(), [](auto& c) { c.Take(); }), "s");
  add("analysis.collector.per_user_s",
      TimeCollector(tracer, "analysis.collector.per_user", root, trace,
                    bsdtrace::PerUserActivityCollector(), [](auto& c) { c.Take(); }), "s");
  add("analysis.collector.sequentiality_s",
      TimeCollector(tracer, "analysis.collector.sequentiality", root, trace,
                    bsdtrace::SequentialityCollector(), [](auto& c) { c.Take(); }), "s");
  add("analysis.collector.patterns_s",
      TimeCollector(tracer, "analysis.collector.patterns", root, trace,
                    bsdtrace::PatternsCollector(), [](auto& c) {
                      c.TakeRuns();
                      c.TakeFileSizes();
                      c.TakeOpenTimes();
                    }), "s");
  add("analysis.collector.lifetimes_s",
      TimeCollector(tracer, "analysis.collector.lifetimes", root, trace,
                    bsdtrace::LifetimeCollector(), [](auto& c) { c.Take(); }), "s");

  const double file_serial_s =
      Timed(tracer, "analysis.file_serial", root, [&](Tracer::Scope&) {
        auto a = bsdtrace::Analyze(FileAnalysis(v4_path, 1));
        result->Op(a.ok() && bsdtrace::AnalysisBitIdentical(a.value(), reference));
      });
  bsdtrace::TraceAnalysis parallel;
  const double file_parallel_s =
      Timed(tracer, "analysis.file_parallel", root, [&](Tracer::Scope& span) {
        auto a = bsdtrace::Analyze(FileAnalysis(v4_path, kThreads));
        result->Op(a.ok() && bsdtrace::AnalysisBitIdentical(a.value(), reference));
        if (a.ok()) {
          parallel = std::move(a).value();
        }
        span.Count("segments", parallel.segments_used);
      });
  add("analysis.file_serial_s", file_serial_s, "s");
  add("analysis.file_parallel_s", file_parallel_s, "s");
  add("analysis.threads_used", parallel.threads_used, "count");
  add("analysis.segments_used", static_cast<double>(parallel.segments_used), "count");
  // Speed-up over file_serial_s per thread actually used.
  add("analysis.parallel_efficiency",
      file_serial_s / (file_parallel_s * std::max(1u, parallel.threads_used)), "ratio");

  // -- live: one open-loop replay through the rings --------------------------
  LiveSamples live;
  Timed(tracer, "live.replay", root, [&](Tracer::Scope& span) {
    RunLiveReplay(trace, tracer, span.id(), &live);
  });
  for (const bsdtrace::TraceAnalysis& final : live.finals) {
    result->Op(bsdtrace::AnalysisBitIdentical(final, reference));
  }
  result->Op(live.dropped == 0);
  add("analysis.snapshot_publish_ms_p50", Quantile(live.publish_ms, 0.5), "ms");
  add("analysis.snapshot_publish_ms_p95", Quantile(live.publish_ms, 0.95), "ms");
  add("analysis.snapshots", static_cast<double>(live.snapshots), "count");
  add("live.snapshot_lag_ms_p50", Quantile(live.lag_ms, 0.5), "ms");
  add("live.snapshot_lag_ms_p95", Quantile(live.lag_ms, 0.95), "ms");
  add("live.queue_wait_ms_p50", Quantile(live.queue_wait_ms, 0.5), "ms");
  add("live.queue_wait_ms_p95", Quantile(live.queue_wait_ms, 0.95), "ms");
  add("live.producer_late_ms_p50", Quantile(live.producer_late_ms, 0.5), "ms");
  add("live.producer_late_ms_max", Quantile(live.producer_late_ms, 1.0), "ms");
  add("trace.ring_max_occupancy", static_cast<double>(live.max_occupancy), "count");
  add("trace.ring_dropped", static_cast<double>(live.dropped), "count");

  // -- cache: planned and hierarchy sweeps, single passes --------------------
  const std::vector<bsdtrace::CacheConfig> fig5 = bsdtrace::Fig5Configs();
  const std::vector<bsdtrace::HierarchyConfig> hier = bsdtrace::HierarchySweepConfigs();
  bsdtrace::PlannedSweep planned;
  add("cache.planned_serial_s", Timed(tracer, "cache.planned_serial", root, [&](Tracer::Scope&) {
        planned = bsdtrace::RunPlannedSweep(log, fig5, {}, 1);
        result->Op(planned.parity);
      }), "s");
  add("cache.planned_parallel_s",
      Timed(tracer, "cache.planned_parallel", root, [&](Tracer::Scope&) {
        result->Op(bsdtrace::RunPlannedSweep(log, fig5, {}, kThreads).parity);
      }), "s");
  bsdtrace::HierarchySweepResult hier_result;
  add("cache.hier_serial_s", Timed(tracer, "cache.hier_serial", root, [&](Tracer::Scope&) {
        hier_result = bsdtrace::RunHierarchySweep(log, hier, 1);
        result->Op(hier_result.parity);
      }), "s");
  add("cache.hier_parallel_s", Timed(tracer, "cache.hier_parallel", root, [&](Tracer::Scope&) {
        result->Op(bsdtrace::RunHierarchySweep(log, hier, kThreads).parity);
      }), "s");
  add("cache.stack_passes", static_cast<double>(planned.stack_passes), "count");
  add("cache.fused_replays", static_cast<double>(planned.fused_replays), "count");
  add("cache.replay_fallbacks", static_cast<double>(planned.replay_fallbacks), "count");
  add("cache.hierarchy_replays", static_cast<double>(hier_result.hierarchy_replays), "count");

  // Single passes over the log at the Fig. 5 4 MB point, each timed alone.
  bsdtrace::CacheConfig config;
  config.size_bytes = 4 << 20;
  const double events = static_cast<double>(log.data_event_count());
  auto ns_per_event = [events](double seconds) { return events > 0 ? seconds * 1e9 / events : 0; };
  add("cache.single_ns_per_event", ns_per_event(Timed(tracer, "cache.single", root, [&](auto&) {
        bsdtrace::SimulateCache(log, config);
      })), "ns");
  add("cache.fused_ns_per_event", ns_per_event(Timed(tracer, "cache.fused", root, [&](auto&) {
        std::vector<bsdtrace::FusedCacheSimulator::PolicyLane> lanes;
        for (const bsdtrace::CacheConfig& c : fig5) {
          if (c.size_bytes == config.size_bytes) {
            lanes.push_back({c.policy, c.flush_interval});
          }
        }
        bsdtrace::FusedCacheSimulator sim(config, lanes);
        sim.SetExtentFeeds(log.transfer_extents().data(), log.execve_extents().data());
        sim.ReserveFiles(log.distinct_files());
        log.ReplayDataEventsInto(sim);
        sim.Finish();
      })), "ns");
  add("cache.stack_ns_per_event", ns_per_event(Timed(tracer, "cache.stack", root, [&](auto&) {
        bsdtrace::StackDistanceAnalyzer analyzer(config.block_size);
        analyzer.SetExtentFeeds(log.transfer_extents().data(), log.execve_extents().data());
        log.ReplayDataEventsInto(analyzer);
        analyzer.Take();
      })), "ns");
  add("cache.hier_ns_per_event", ns_per_event(Timed(tracer, "cache.hier", root, [&](auto&) {
        bsdtrace::HierarchyConfig h;
        h.client.size_bytes = 1 << 20;
        h.server = config;
        bsdtrace::SimulateHierarchy(log, h);
      })), "ns");
  return Status::Ok();
}

}  // namespace perfbench
