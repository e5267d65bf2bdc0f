// Analyze(): the one entry point dispatching to the serial, segmented-
// parallel, and rolling-live engines (see analyzer.h for the options).

#include <memory>
#include <thread>
#include <utility>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {
namespace {

unsigned ResolveThreads(unsigned threads) {
  if (threads != 0) {
    return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

int InputsSet(const AnalyzeOptions& o) {
  return (o.trace != nullptr) + (o.source != nullptr) + (!o.path.empty());
}

// The header of the configured input, for the Table I band check.  For
// file-backed inputs the caller passes the already-open source's header.
const TraceHeader* InputHeader(const AnalyzeOptions& o, const TraceSource* open_source) {
  if (o.trace != nullptr) {
    return &o.trace->header();
  }
  if (o.source != nullptr) {
    return &o.source->header();
  }
  return open_source != nullptr ? &open_source->header() : nullptr;
}

}  // namespace

StatusOr<TraceAnalysis> Analyze(const AnalyzeOptions& options) {
  const int inputs = InputsSet(options);
  if (inputs == 0) {
    return Status::Error("Analyze: no input (set one of trace/source/path)");
  }
  if (inputs > 1) {
    return Status::Error("Analyze: ambiguous input (set exactly one of trace/source/path)");
  }

  StatusOr<TraceAnalysis> result = Status::Error("unreachable");
  const TraceHeader* header = nullptr;
  // File-backed streaming source, opened on demand and kept alive until the
  // band check has read its header.
  std::unique_ptr<TraceFileSource> file;
  auto open_file = [&](const std::string& path) -> TraceSource* {
    file = std::make_unique<TraceFileSource>(path);
    return file.get();
  };

  if (options.snapshot_interval.micros() > 0) {
    // Rolling live analysis over any input shape, serial by construction.
    std::unique_ptr<TraceVectorSource> vector_source;
    TraceSource* source = options.source;
    if (options.trace != nullptr) {
      vector_source = std::make_unique<TraceVectorSource>(*options.trace);
      source = vector_source.get();
    } else if (!options.path.empty()) {
      source = open_file(options.path);
    }
    result = RollingAnalyze(*source, options.snapshot_interval, options.on_snapshot);
  } else if (options.trace != nullptr) {
    result = internal::SerialAnalyze(*options.trace);
  } else if (options.source != nullptr) {
    result = internal::SerialAnalyze(*options.source);
  } else {
    const unsigned threads = ResolveThreads(options.threads);
    if (threads > 1) {
      SeekableTraceSource seekable(options.path);
      result = internal::SegmentedAnalyze(seekable, threads);
    } else {
      result = internal::SerialAnalyze(*open_file(options.path));
    }
  }

  if (!result.ok()) {
    return result;
  }
  if (options.check_bands) {
    if (file == nullptr && options.trace == nullptr && options.source == nullptr) {
      // Parallel path-based run: no streaming source was opened; read the
      // header now.
      open_file(options.path);
    }
    header = InputHeader(options, file.get());
    if (header != nullptr) {
      result.value().band_checks = CheckActivityBands(*header, result.value().per_user);
    }
  }
  return result;
}

}  // namespace bsdtrace
