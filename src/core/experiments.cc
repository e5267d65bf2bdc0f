#include "src/core/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>

#include "src/analysis/popularity.h"
#include "src/analysis/working_set.h"
#include "src/util/csv.h"
#include "src/util/plot.h"
#include "src/util/table.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"

namespace bsdtrace {
namespace {

constexpr double kKb = 1024.0;
constexpr double kMb = 1024.0 * 1024.0;

std::string Mbytes(double bytes, int decimals = 1) {
  return Cell(bytes / kMb, decimals);
}

std::string PlusMinus(const RunningStats& s, int decimals = 1) {
  return Cell(s.mean(), decimals) + " (±" + Cell(s.stddev(), decimals) + ")";
}

// Policy axis of Fig. 5 / Table VI, in the paper's column order.
struct PolicyKey {
  WritePolicy policy;
  int64_t flush_seconds;  // 0 unless flush-back

  bool operator<(const PolicyKey& o) const {
    if (policy != o.policy) {
      return static_cast<int>(policy) < static_cast<int>(o.policy);
    }
    return flush_seconds < o.flush_seconds;
  }
};

PolicyKey KeyOf(const CacheConfig& c) {
  return PolicyKey{c.policy,
                   c.policy == WritePolicy::kFlushBack
                       ? static_cast<int64_t>(c.flush_interval.seconds())
                       : 0};
}

std::string PolicyLabel(const PolicyKey& k) {
  switch (k.policy) {
    case WritePolicy::kWriteThrough:
      return "Write-Through";
    case WritePolicy::kFlushBack:
      return k.flush_seconds >= 300 ? "5 Min Flush" : "30 Sec Flush";
    case WritePolicy::kDelayedWrite:
      return "Delayed Write";
  }
  return "?";
}

}  // namespace

Duration StandardDuration() {
  if (const char* hours = std::getenv("BSDTRACE_HOURS"); hours != nullptr) {
    const double h = std::atof(hours);
    if (h > 0) {
      return Duration::Hours(h);
    }
  }
  return Duration::Hours(24);
}

GenerationResult GenerateStandardTrace(const std::string& name, Duration duration,
                                       uint64_t seed) {
  GeneratorOptions options;
  options.duration = duration;
  options.seed = seed;
  MachineProfile profile = ProfileByName(name);
  // BSDTRACE_INTENSITY scales machine busyness (1.0 default; ~2 approximates
  // the original machines' event rates).
  if (const char* intensity = std::getenv("BSDTRACE_INTENSITY"); intensity != nullptr) {
    const double v = std::atof(intensity);
    if (v > 0) {
      profile.intensity = v;
    }
  }
  return GenerateTrace(profile, options);
}

GenerationResult GenerateStandardTrace(const std::string& name) {
  uint64_t seed = 19851201;
  if (name == "E3") {
    seed = 19851202;
  } else if (name == "C4") {
    seed = 19851203;
  }
  return GenerateStandardTrace(name, StandardDuration(), seed);
}

StandardSweeps RunStandardSweeps(const ReplayLog& log, unsigned threads) {
  StandardSweeps sweeps;
  auto take = [&sweeps](PlannedSweep&& planned, std::vector<SweepPoint>& points,
                        std::vector<SweepCurve>& curves) {
    points = std::move(planned.points);
    curves = std::move(planned.curves);
    sweeps.parity = sweeps.parity && planned.parity;
  };
  take(RunPlannedSweep(log, Fig5Configs(), {}, threads), sweeps.fig5, sweeps.fig5_curves);
  take(RunPlannedSweep(log, Fig6Configs(), {}, threads), sweeps.fig6, sweeps.fig6_curves);
  take(RunPlannedSweep(log, Fig7Configs(), {}, threads), sweeps.fig7, sweeps.fig7_curves);
  return sweeps;
}

std::string RenderTable3(const std::vector<NamedAnalysis>& traces) {
  std::vector<std::string> header = {"Trace"};
  for (const auto& [name, analysis] : traces) {
    header.push_back(name);
  }
  TextTable table(header);

  auto row = [&](const std::string& label, auto&& fn) {
    std::vector<std::string> cells = {label};
    for (const auto& [name, analysis] : traces) {
      cells.push_back(fn(*analysis));
    }
    table.AddRow(std::move(cells));
  };

  row("Duration (hours)",
      [](const TraceAnalysis& a) { return Cell(a.overall.duration.hours(), 1); });
  row("Number of trace records",
      [](const TraceAnalysis& a) { return Cell(static_cast<int64_t>(a.overall.total_records)); });
  row("Total data transferred to/from files (Mbytes)",
      [](const TraceAnalysis& a) { return Mbytes(static_cast<double>(a.overall.bytes_transferred)); });
  table.AddSeparator();
  const EventType kOrder[] = {EventType::kCreate, EventType::kOpen,     EventType::kClose,
                              EventType::kSeek,   EventType::kUnlink,   EventType::kTruncate,
                              EventType::kExecve};
  for (EventType type : kOrder) {
    row(std::string(EventTypeName(type)) + " events", [type](const TraceAnalysis& a) {
      return Cell(static_cast<int64_t>(a.overall.Count(type))) + " (" +
             FormatPercent(a.overall.Fraction(type)) + ")";
    });
  }
  return table.Render("Table III. Overall statistics for the traces.");
}

std::string RenderEventIntervals(const std::vector<NamedAnalysis>& traces) {
  TextTable table({"Trace", "< 0.5 s", "< 10 s", "< 30 s", "samples"});
  for (const auto& [name, analysis] : traces) {
    const WeightedCdf& cdf = analysis->overall.inter_event_interval_seconds;
    table.AddRow({name, FormatPercent(cdf.FractionAtOrBelow(0.5)),
                  FormatPercent(cdf.FractionAtOrBelow(10.0)),
                  FormatPercent(cdf.FractionAtOrBelow(30.0)),
                  Cell(cdf.sample_count())});
  }
  std::string out = table.Render(
      "Intervals between successive trace events for the same open file (paper §3.1).");
  out += "Paper: 75% < 0.5 s, 90% < 10 s, 99% < 30 s.\n";
  return out;
}

std::string RenderTable4(const std::vector<NamedAnalysis>& traces) {
  std::vector<std::string> header = {"Measure"};
  for (const auto& [name, analysis] : traces) {
    header.push_back(name);
  }
  TextTable table(header);
  auto row = [&](const std::string& label, auto&& fn) {
    std::vector<std::string> cells = {label};
    for (const auto& [name, analysis] : traces) {
      cells.push_back(fn(*analysis));
    }
    table.AddRow(std::move(cells));
  };

  row("Average throughput (bytes/sec over life of trace)",
      [](const TraceAnalysis& a) { return Cell(a.activity.average_throughput, 0); });
  row("Total number of different users",
      [](const TraceAnalysis& a) { return Cell(static_cast<int64_t>(a.activity.distinct_users)); });
  row("Greatest number of active users in a 10 minute interval",
      [](const TraceAnalysis& a) { return Cell(a.activity.ten_minute.max_active_users); });
  row("Average number of active users (10 minute intervals)",
      [](const TraceAnalysis& a) { return PlusMinus(a.activity.ten_minute.active_users); });
  row("Average throughput per active user (bytes/sec, 10 min)",
      [](const TraceAnalysis& a) { return PlusMinus(a.activity.ten_minute.throughput_per_user, 0); });
  row("Average number of active users (10 second intervals)",
      [](const TraceAnalysis& a) { return PlusMinus(a.activity.ten_second.active_users); });
  row("Average throughput per active user (bytes/sec, 10 sec)",
      [](const TraceAnalysis& a) { return PlusMinus(a.activity.ten_second.throughput_per_user, 0); });
  return table.Render("Table IV. System activity (a user is active in an interval if any "
                      "trace event for that user falls in it).");
}

std::string RenderTable5(const std::vector<NamedAnalysis>& traces) {
  std::vector<std::string> header = {"Measure"};
  for (const auto& [name, analysis] : traces) {
    header.push_back(name);
  }
  TextTable table(header);
  auto row = [&](const std::string& label, auto&& fn) {
    std::vector<std::string> cells = {label};
    for (const auto& [name, analysis] : traces) {
      cells.push_back(fn(analysis->sequentiality));
    }
    table.AddRow(std::move(cells));
  };

  row("Whole-file read transfers (% of read-only accesses)", [](const SequentialityStats& s) {
    const ModeSequentiality& m = s.Mode(AccessMode::kReadOnly);
    return Cell(static_cast<int64_t>(m.whole_file)) + " (" +
           FormatPercent(m.WholeFileFraction(), 0) + ")";
  });
  row("Whole-file write transfers (% of write-only accesses)", [](const SequentialityStats& s) {
    const ModeSequentiality& m = s.Mode(AccessMode::kWriteOnly);
    return Cell(static_cast<int64_t>(m.whole_file)) + " (" +
           FormatPercent(m.WholeFileFraction(), 0) + ")";
  });
  row("Data transferred in whole-file transfers (Mbytes)", [](const SequentialityStats& s) {
    const ModeSequentiality total = s.Total();
    return Mbytes(static_cast<double>(total.whole_file_bytes)) + " (" +
           FormatPercent(s.WholeFileByteFraction(), 0) + ")";
  });
  table.AddSeparator();
  row("Sequential read-only accesses", [](const SequentialityStats& s) {
    const ModeSequentiality& m = s.Mode(AccessMode::kReadOnly);
    return Cell(static_cast<int64_t>(m.sequential)) + " (" +
           FormatPercent(m.SequentialFraction(), 0) + ")";
  });
  row("Sequential write-only accesses", [](const SequentialityStats& s) {
    const ModeSequentiality& m = s.Mode(AccessMode::kWriteOnly);
    return Cell(static_cast<int64_t>(m.sequential)) + " (" +
           FormatPercent(m.SequentialFraction(), 0) + ")";
  });
  row("Sequential read-write accesses", [](const SequentialityStats& s) {
    const ModeSequentiality& m = s.Mode(AccessMode::kReadWrite);
    return Cell(static_cast<int64_t>(m.sequential)) + " (" +
           FormatPercent(m.SequentialFraction(), 0) + ")";
  });
  row("Data transferred sequentially (Mbytes)", [](const SequentialityStats& s) {
    const ModeSequentiality total = s.Total();
    return Mbytes(static_cast<double>(total.sequential_bytes)) + " (" +
           FormatPercent(s.SequentialByteFraction(), 0) + ")";
  });
  return table.Render("Table V. Sequentiality of access.");
}

namespace {

// Renders a pair of CDF panels (count-weighted and byte-weighted) shared by
// Figures 1, 2, and 4.
// `x_scale` converts display x values into the CDF's sample units (e.g. KB
// labels over byte-valued samples use 1024).
std::string RenderCdfPanels(const std::string& title, const std::string& x_label,
                            const std::vector<double>& xs, double x_scale,
                            const std::vector<NamedAnalysis>& traces,
                            const std::function<const WeightedCdf&(const TraceAnalysis&)>& panel_a,
                            const std::string& a_label,
                            const std::function<const WeightedCdf&(const TraceAnalysis&)>& panel_b,
                            const std::string& b_label, bool log_x) {
  std::ostringstream out;
  out << title << "\n";

  std::vector<std::string> header = {x_label};
  for (const auto& [name, a] : traces) {
    header.push_back(name + " (" + a_label + ")");
  }
  for (const auto& [name, a] : traces) {
    header.push_back(name + " (" + b_label + ")");
  }
  TextTable table(header);
  for (double x : xs) {
    std::vector<std::string> cells = {Cell(x, x < 10 ? 1 : 0)};
    for (const auto& [name, a] : traces) {
      cells.push_back(FormatPercent(panel_a(*a).FractionAtOrBelow(x * x_scale), 0));
    }
    for (const auto& [name, a] : traces) {
      cells.push_back(FormatPercent(panel_b(*a).FractionAtOrBelow(x * x_scale), 0));
    }
    table.AddRow(std::move(cells));
  }
  out << table.Render();

  const char markers[] = {'A', 'E', 'C', 'X', 'Y', 'Z'};
  for (int panel = 0; panel < 2; ++panel) {
    AsciiPlot plot(panel == 0 ? "(a) " + a_label : "(b) " + b_label, x_label,
                   "cumulative %");
    plot.SetYRange(0, 100);
    plot.SetXLog2(log_x);
    int m = 0;
    for (const auto& [name, a] : traces) {
      const WeightedCdf& cdf = panel == 0 ? panel_a(*a) : panel_b(*a);
      PlotSeries series;
      series.name = name;
      series.marker = markers[m++ % 6];
      for (double x : xs) {
        series.xs.push_back(x);
        series.ys.push_back(100.0 * cdf.FractionAtOrBelow(x * x_scale));
      }
      plot.AddSeries(std::move(series));
    }
    out << plot.Render();
  }
  return out.str();
}

}  // namespace

std::string RenderFigure1(const std::vector<NamedAnalysis>& traces) {
  const std::vector<double> xs = {0.25, 0.5, 1, 2, 4, 8, 16, 25, 50, 75, 100};
  std::string out = RenderCdfPanels(
      "Figure 1. Cumulative distributions of sequential run lengths.", "run length (KB)", xs,
      kKb, traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.runs.by_runs; },
      "% of runs",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.runs.by_bytes; },
      "% of bytes", true);
  return out;
}

std::string RenderFigure2(const std::vector<NamedAnalysis>& traces) {
  const std::vector<double> xs = {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1024, 2048};
  return RenderCdfPanels(
      "Figure 2. Dynamic distribution of file sizes at close.", "file size (KB)", xs, kKb,
      traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.file_sizes.by_accesses; },
      "% of files",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.file_sizes.by_bytes; },
      "% of bytes", true);
}

std::string RenderFigure3(const std::vector<NamedAnalysis>& traces) {
  const std::vector<double> xs = {0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600};
  std::ostringstream out;
  out << "Figure 3. Distribution of times that files were open.\n";
  std::vector<std::string> header = {"open time (s)"};
  for (const auto& [name, a] : traces) {
    header.push_back(name);
  }
  TextTable table(header);
  for (double x : xs) {
    std::vector<std::string> cells = {Cell(x, x < 1 ? 1 : 0)};
    for (const auto& [name, a] : traces) {
      cells.push_back(FormatPercent(a->open_times.seconds.FractionAtOrBelow(x), 0));
    }
    table.AddRow(std::move(cells));
  }
  out << table.Render();
  AsciiPlot plot("Open-time CDF", "open time (s)", "cumulative % of files");
  plot.SetYRange(0, 100);
  plot.SetXLog2(true);
  const char markers[] = {'A', 'E', 'C'};
  int m = 0;
  for (const auto& [name, a] : traces) {
    PlotSeries series;
    series.name = name;
    series.marker = markers[m++ % 3];
    for (double x : xs) {
      series.xs.push_back(x);
      series.ys.push_back(100.0 * a->open_times.seconds.FractionAtOrBelow(x));
    }
    plot.AddSeries(std::move(series));
  }
  out << plot.Render();
  out << "Paper: 70-80% of files open < 0.5 s; ~90% < 10 s.\n";
  return out.str();
}

std::string RenderFigure4(const std::vector<NamedAnalysis>& traces) {
  const std::vector<double> xs = {1, 5, 10, 30, 60, 120, 179, 181, 240, 300, 450};
  std::string out = RenderCdfPanels(
      "Figure 4. Cumulative distributions of file lifetimes.", "lifetime (s)", xs, 1.0,
      traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.lifetimes.by_files; },
      "% of files",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.lifetimes.by_bytes; },
      "% of bytes created", false);
  std::ostringstream extra;
  extra << out;
  TextTable spike({"Trace", "new files", "observed deaths", "lifetime in [179s,181s]"});
  for (const auto& [name, a] : traces) {
    spike.AddRow({name, Cell(static_cast<int64_t>(a->lifetimes.new_files)),
                  Cell(static_cast<int64_t>(a->lifetimes.observed_deaths)),
                  FormatPercent(a->lifetimes.FileFractionIn(179.0, 181.0), 0)});
  }
  extra << spike.Render("The 180-second network-daemon spike (paper: 30-40% of new files).");
  return extra.str();
}

std::string RenderFigure5Table6(const std::vector<SweepPoint>& points) {
  // Organize: rows = cache size, columns = policy.
  std::map<uint64_t, std::map<PolicyKey, const SweepPoint*>> grid;
  std::map<PolicyKey, bool> policies;
  for (const SweepPoint& p : points) {
    grid[p.config.size_bytes][KeyOf(p.config)] = &p;
    policies[KeyOf(p.config)] = true;
  }

  std::vector<std::string> header = {"Cache Size"};
  for (const auto& [key, unused] : policies) {
    header.push_back(PolicyLabel(key));
  }
  TextTable table(header);
  for (const auto& [size, row] : grid) {
    std::vector<std::string> cells = {FormatBytes(static_cast<double>(size))};
    for (const auto& [key, unused] : policies) {
      auto it = row.find(key);
      cells.push_back(it != row.end() ? FormatPercent(it->second->metrics.MissRatio()) : "-");
    }
    table.AddRow(std::move(cells));
  }
  std::ostringstream out;
  out << table.Render(
      "Table VI / Figure 5. Miss ratio vs. cache size and write policy (4 KB blocks).");

  AsciiPlot plot("Figure 5. Miss ratio vs. cache size", "cache size (MB)", "miss ratio (%)");
  plot.SetXLog2(true);
  plot.SetYRange(0, 70);
  const char markers[] = {'T', '3', '5', 'D'};
  int m = 0;
  for (const auto& [key, unused] : policies) {
    PlotSeries series;
    series.name = PolicyLabel(key);
    series.marker = markers[m++ % 4];
    for (const auto& [size, row] : grid) {
      auto it = row.find(key);
      if (it != row.end()) {
        series.xs.push_back(static_cast<double>(size) / kMb);
        series.ys.push_back(100.0 * it->second->metrics.MissRatio());
      }
    }
    plot.AddSeries(std::move(series));
  }
  out << plot.Render();
  out << "Paper (A5): 390KB/WT 57.6% ... 16MB/DW 9.6%; ordering DW < FB(5m) < FB(30s) < WT.\n";
  return out.str();
}

std::string RenderFigure6Table7(const std::vector<SweepPoint>& points) {
  // Rows = block size; columns = "no cache" logical accesses, then one disk
  // I/O column per cache size.
  std::map<uint32_t, std::map<uint64_t, const SweepPoint*>> grid;
  std::map<uint64_t, bool> caches;
  for (const SweepPoint& p : points) {
    grid[p.config.block_size][p.config.size_bytes] = &p;
    caches[p.config.size_bytes] = true;
  }

  std::vector<std::string> header = {"Block Size", "Block Accesses"};
  for (const auto& [size, unused] : caches) {
    header.push_back(FormatBytes(static_cast<double>(size)) + " Cache");
  }
  TextTable table(header);
  for (const auto& [block, row] : grid) {
    std::vector<std::string> cells = {FormatBytes(block)};
    cells.push_back(Cell(static_cast<int64_t>(row.begin()->second->metrics.logical_accesses)));
    for (const auto& [size, unused] : caches) {
      auto it = row.find(size);
      cells.push_back(it != row.end()
                          ? Cell(static_cast<int64_t>(it->second->metrics.DiskIos()))
                          : "-");
    }
    table.AddRow(std::move(cells));
  }
  std::ostringstream out;
  out << table.Render(
      "Table VII / Figure 6. Disk I/Os vs. block size and cache size (delayed write).");

  AsciiPlot plot("Figure 6. Disk traffic vs. block size", "block size (KB)", "disk I/Os");
  plot.SetXLog2(true);
  const char markers[] = {'4', '2', 'M', '8'};
  int m = 0;
  for (const auto& [size, unused] : caches) {
    PlotSeries series;
    series.name = FormatBytes(static_cast<double>(size)) + " cache";
    series.marker = markers[m++ % 4];
    for (const auto& [block, row] : grid) {
      auto it = row.find(size);
      if (it != row.end()) {
        series.xs.push_back(static_cast<double>(block) / kKb);
        series.ys.push_back(static_cast<double>(it->second->metrics.DiskIos()));
      }
    }
    plot.AddSeries(std::move(series));
  }
  out << plot.Render();

  // Optimal block size per cache (the paper's 8 KB @ 400 KB / 16 KB @ 4 MB
  // headline).
  TextTable best({"Cache Size", "Best Block Size", "Disk I/Os"});
  for (const auto& [size, unused] : caches) {
    const SweepPoint* best_point = nullptr;
    for (const auto& [block, row] : grid) {
      auto it = row.find(size);
      if (it != row.end() &&
          (best_point == nullptr || it->second->metrics.DiskIos() < best_point->metrics.DiskIos())) {
        best_point = it->second;
      }
    }
    if (best_point != nullptr) {
      best.AddRow({FormatBytes(static_cast<double>(size)),
                   FormatBytes(best_point->config.block_size),
                   Cell(static_cast<int64_t>(best_point->metrics.DiskIos()))});
    }
  }
  out << best.Render("Optimal block size per cache size (paper: 8 KB at 400 KB, 16 KB at 4 MB).");
  return out.str();
}

std::string RenderFigure7(const std::vector<SweepPoint>& points) {
  std::map<uint64_t, const SweepPoint*> without, with;
  for (const SweepPoint& p : points) {
    (p.config.simulate_execve_pagein ? with : without)[p.config.size_bytes] = &p;
  }
  TextTable table({"Cache Size", "Page-in ignored", "Page-in simulated"});
  for (const auto& [size, p] : without) {
    auto it = with.find(size);
    table.AddRow({FormatBytes(static_cast<double>(size)), FormatPercent(p->metrics.MissRatio()),
                  it != with.end() ? FormatPercent(it->second->metrics.MissRatio()) : "-"});
  }
  std::ostringstream out;
  out << table.Render(
      "Figure 7. Miss ratio with program page-in approximated by whole-file reads at execve "
      "(4 KB blocks, delayed write).");

  AsciiPlot plot("Figure 7", "cache size (MB)", "miss ratio (%)");
  plot.SetXLog2(true);
  plot.SetYRange(0, 70);
  for (int which = 0; which < 2; ++which) {
    const auto& series_map = which == 0 ? without : with;
    PlotSeries series;
    series.name = which == 0 ? "page-in ignored" : "page-in simulated";
    series.marker = which == 0 ? 'o' : 'p';
    for (const auto& [size, p] : series_map) {
      series.xs.push_back(static_cast<double>(size) / kMb);
      series.ys.push_back(100.0 * p->metrics.MissRatio());
    }
    plot.AddSeries(std::move(series));
  }
  out << plot.Render();
  out << "Paper: simulated paging degrades small caches but improves large ones (crossover).\n";
  return out.str();
}

std::string RenderWriteLifetimeSidebar(const std::vector<SweepPoint>& fig5_points) {
  std::ostringstream out;
  TextTable table({"Cache", "Policy", "Dirty blocks discarded", "Write-backs",
                   "Discarded fraction", "Resident > 20 min"});
  for (const SweepPoint& p : fig5_points) {
    if (p.config.policy != WritePolicy::kDelayedWrite) {
      continue;
    }
    const CacheMetrics& m = p.metrics;
    const uint64_t write_events = m.dirty_discarded + m.disk_writes;
    const double discarded_fraction =
        write_events > 0 ? static_cast<double>(m.dirty_discarded) /
                               static_cast<double>(write_events)
                         : 0.0;
    const double over20 =
        m.residency_samples > 0 ? static_cast<double>(m.residency_over_20min) /
                                      static_cast<double>(m.residency_samples)
                                : 0.0;
    table.AddRow({FormatBytes(static_cast<double>(p.config.size_bytes)), "delayed-write",
                  Cell(static_cast<int64_t>(m.dirty_discarded)),
                  Cell(static_cast<int64_t>(m.disk_writes)), FormatPercent(discarded_fraction, 0),
                  FormatPercent(over20, 0)});
  }
  out << table.Render(
      "§6.2. Delayed write: dirty blocks that died in the cache and block residency.");
  out << "Paper: ~75% of newly-written blocks never reach disk with large caches; ~20% of\n"
         "blocks stay in a 4 MB cache longer than 20 minutes.\n";
  return out.str();
}

std::string RenderMissRatioCurves(const std::vector<SweepCurve>& curves) {
  if (curves.empty()) {
    return "";
  }
  // Rows = cache size; one fetch-miss-ratio column per curve.  Every column
  // comes from ONE stack-distance pass (no per-size replay).
  std::map<uint64_t, std::map<size_t, size_t>> grid;  // size -> curve -> index
  for (size_t c = 0; c < curves.size(); ++c) {
    for (size_t i = 0; i < curves[c].size_bytes.size(); ++i) {
      grid[curves[c].size_bytes[i]][c] = i;
    }
  }
  std::vector<std::string> header = {"Cache Size"};
  for (const SweepCurve& curve : curves) {
    std::string label = FormatBytes(curve.block_size) + " blocks";
    if (curve.simulate_execve_pagein) {
      label += " +pagein";
    }
    header.push_back(std::move(label));
  }
  TextTable table(header);
  for (const auto& [size, row] : grid) {
    std::vector<std::string> cells = {FormatBytes(static_cast<double>(size))};
    for (size_t c = 0; c < curves.size(); ++c) {
      auto it = row.find(c);
      cells.push_back(it != row.end()
                          ? FormatPercent(curves[c].fetch_miss_ratios[it->second])
                          : "-");
    }
    table.AddRow(std::move(cells));
  }
  std::ostringstream out;
  out << table.Render(
      "Single-pass Mattson curves: exact read-miss (fetch) ratio at every cache size, "
      "one stack-distance pass per column.");
  return out.str();
}

std::string RenderHierarchySweep(const HierarchySweepResult& result) {
  if (result.points.empty()) {
    return "";
  }
  // One table per client write policy: rows = server size, columns = client
  // size, cells = global miss ratio (disk I/Os per logical access at the top
  // of the hierarchy).  Client-0 columns carry the policy on the server — the
  // single-level baseline the client columns are read against.
  std::map<PolicyKey, std::map<uint64_t, std::map<uint64_t, const HierarchyPoint*>>> grids;
  std::map<uint64_t, bool> client_sizes;
  for (const HierarchyPoint& p : result.points) {
    const CacheConfig& policy_holder = p.config.has_clients() ? p.config.client : p.config.server;
    grids[KeyOf(policy_holder)][p.config.server.size_bytes][p.config.client.size_bytes] = &p;
    client_sizes[p.config.client.size_bytes] = true;
  }

  std::ostringstream out;
  for (const auto& [key, grid] : grids) {
    std::vector<std::string> header = {"Server Size"};
    for (const auto& [client, unused] : client_sizes) {
      header.push_back(client == 0 ? "No Client" : FormatBytes(static_cast<double>(client)) +
                                                       " client");
    }
    TextTable table(header);
    for (const auto& [server, row] : grid) {
      std::vector<std::string> cells = {FormatBytes(static_cast<double>(server))};
      for (const auto& [client, unused] : client_sizes) {
        auto it = row.find(client);
        cells.push_back(it != row.end() ? FormatPercent(it->second->metrics.GlobalMissRatio())
                                        : "-");
      }
      table.AddRow(std::move(cells));
    }
    out << table.Render("Hierarchy sweep (§7): global miss ratio, client policy = " +
                        PolicyLabel(key) + " (server delayed-write).");
    out << "\n";
  }

  // Plot the delayed-write grid (the recommended client policy) over the
  // server-size axis, one series per client size.
  auto plotted = grids.find(PolicyKey{WritePolicy::kDelayedWrite, 0});
  if (plotted == grids.end()) {
    plotted = grids.begin();
  }
  AsciiPlot plot("Hierarchy: global miss ratio vs. server size, client policy = " +
                     PolicyLabel(plotted->first),
                 "server size (MB)", "global miss ratio (%)");
  plot.SetXLog2(true);
  const char markers[] = {'0', 'a', 'b', 'c', 'd', 'e'};
  int m = 0;
  for (const auto& [client, unused] : client_sizes) {
    PlotSeries series;
    series.name = client == 0 ? "no client" : FormatBytes(static_cast<double>(client)) + " client";
    series.marker = markers[m++ % 6];
    for (const auto& [server, row] : plotted->second) {
      auto it = row.find(client);
      if (it != row.end()) {
        series.xs.push_back(static_cast<double>(server) / kMb);
        series.ys.push_back(100.0 * it->second->metrics.GlobalMissRatio());
      }
    }
    plot.AddSeries(std::move(series));
  }
  out << plot.Render();
  out << "hierarchy sweep: " << result.fused_replays << " fused replay(s), "
      << result.hierarchy_replays
      << " hierarchy replay(s) (one per client configuration); fused and fan-out parity "
      << (result.parity ? "OK" : "FAILED") << "\n";
  return out.str();
}

std::string RenderTable1(const TraceAnalysis& analysis, const std::vector<SweepPoint>& fig5_points,
                         const std::vector<SweepPoint>& fig6_points) {
  std::ostringstream out;
  out << "Table I. Selected results (measured on this reproduction vs. the paper).\n\n";

  const double tpu = analysis.activity.ten_minute.throughput_per_user.mean();
  out << "* Bytes/second per active user (10-min intervals): " << Cell(tpu, 0)
      << "   [paper: ~300-600]\n";

  const ModeSequentiality total = analysis.sequentiality.Total();
  const double whole_frac =
      total.accesses > 0
          ? static_cast<double>(total.whole_file) / static_cast<double>(total.accesses)
          : 0.0;
  out << "* Whole-file transfers: " << FormatPercent(whole_frac, 0) << " of accesses, "
      << FormatPercent(analysis.sequentiality.WholeFileByteFraction(), 0)
      << " of bytes   [paper: ~70% / ~50%]\n";

  out << "* Files open < 0.5 s: "
      << FormatPercent(analysis.open_times.seconds.FractionAtOrBelow(0.5), 0)
      << "; < 10 s: " << FormatPercent(analysis.open_times.seconds.FractionAtOrBelow(10.0), 0)
      << "   [paper: 75% / 90%]\n";

  out << "* New bytes dead within 30 s: "
      << FormatPercent(analysis.lifetimes.by_bytes.FractionAtOrBelow(30.0), 0)
      << "; within 5 min: "
      << FormatPercent(analysis.lifetimes.by_bytes.FractionAtOrBelow(300.0), 0)
      << "   [paper: 20-30% / ~50%]\n";

  // 4 MB cache elimination band across policies.
  double best = 0.0, worst = 1.0;
  for (const SweepPoint& p : fig5_points) {
    if (p.config.size_bytes == (4u << 20)) {
      const double eliminated = 1.0 - p.metrics.MissRatio();
      best = std::max(best, eliminated);
      worst = std::min(worst, eliminated);
    }
  }
  out << "* 4 MB cache eliminates " << FormatPercent(worst, 0) << " to " << FormatPercent(best, 0)
      << " of disk accesses, depending on write policy   [paper: 65-90%]\n";

  // Optimal block sizes.
  auto best_block = [&](uint64_t cache_size) -> uint32_t {
    uint32_t block = 0;
    uint64_t ios = UINT64_MAX;
    for (const SweepPoint& p : fig6_points) {
      if (p.config.size_bytes == cache_size && p.metrics.DiskIos() < ios) {
        ios = p.metrics.DiskIos();
        block = p.config.block_size;
      }
    }
    return block;
  };
  out << "* Best block size: " << FormatBytes(best_block(400u << 10)) << " at 400 KB cache, "
      << FormatBytes(best_block(4u << 20)) << " at 4 MB cache   [paper: 8 KB / 16 KB]\n";
  return out.str();
}

namespace {

// The cache-size axis of the ablation and extension tables: the paper's
// 390 KB "UNIX" point plus 1-16 MB.
const std::vector<uint64_t>& AblationSizes() {
  static const std::vector<uint64_t> sizes = {390ull << 10, 1ull << 20, 2ull << 20,
                                              4ull << 20,   8ull << 20, 16ull << 20};
  return sizes;
}

CacheConfig FlushBack30s(uint64_t size) {
  CacheConfig c;
  c.size_bytes = size;
  c.policy = WritePolicy::kFlushBack;
  c.flush_interval = Duration::Seconds(30);
  return c;
}

}  // namespace

std::string RenderReplacementAblation(const ReplayLog& log) {
  std::vector<CacheConfig> configs;
  for (const uint64_t size : AblationSizes()) {
    for (ReplacementPolicy rp :
         {ReplacementPolicy::kLru, ReplacementPolicy::kClock, ReplacementPolicy::kFifo}) {
      CacheConfig c;
      c.size_bytes = size;
      c.policy = WritePolicy::kDelayedWrite;
      c.replacement = rp;
      configs.push_back(c);
    }
  }
  const std::vector<SweepPoint> points = RunCacheSweep(log, configs);
  TextTable table({"Cache Size", "LRU", "Clock", "FIFO"});
  for (size_t i = 0; i < points.size(); i += 3) {
    table.AddRow({FormatBytes(static_cast<double>(points[i].config.size_bytes)),
                  FormatPercent(points[i].metrics.MissRatio()),
                  FormatPercent(points[i + 1].metrics.MissRatio()),
                  FormatPercent(points[i + 2].metrics.MissRatio())});
  }
  return table.Render("Miss ratio by replacement policy (delayed write, 4 KB blocks, A5 "
                      "trace).") +
         "\nExpected: LRU <= clock <= FIFO at every size; the gap shrinks as the cache\n"
         "grows (replacement matters less when little is evicted).\n";
}

std::string RenderBillingAblation(const ReplayLog& at_next_event,
                                  const ReplayLog& at_previous_event) {
  TextTable table({"Cache Size", "Billed at next event (paper)", "Billed at previous event",
                   "Delta"});
  for (const uint64_t size : {390ull << 10, 1ull << 20, 4ull << 20, 16ull << 20}) {
    const CacheConfig c = FlushBack30s(size);
    const double upper = SimulateCache(at_next_event, c).MissRatio();
    const double lower = SimulateCache(at_previous_event, c).MissRatio();
    table.AddRow({FormatBytes(static_cast<double>(size)), FormatPercent(upper),
                  FormatPercent(lower), FormatPercent(upper - lower)});
  }
  return table.Render("Miss ratio under the two billing bounds (30 s flush-back, 4 KB blocks, "
                      "A5 trace).") +
         "\nThe tracer's time bounds barely move cache results (paper: a few percent at\n"
         "most), validating the no-read-write design.\n";
}

std::string RenderFlushAblation(const ReplayLog& log) {
  TextTable table({"Policy", "Disk writes", "Miss ratio"});
  auto add = [&](const std::string& label, const CacheConfig& c) {
    const CacheMetrics m = SimulateCache(log, c);
    table.AddRow({label, Cell(static_cast<int64_t>(m.disk_writes)),
                  FormatPercent(m.MissRatio())});
  };
  CacheConfig c;
  c.size_bytes = 4u << 20;
  c.policy = WritePolicy::kWriteThrough;
  add("write-through", c);
  for (double seconds : {5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0}) {
    c.policy = WritePolicy::kFlushBack;
    c.flush_interval = Duration::Seconds(seconds);
    add("flush-back " + Duration::Seconds(seconds).ToString(), c);
  }
  c.policy = WritePolicy::kDelayedWrite;
  add("delayed-write", c);
  return table.Render("Flush interval continuum (4 MB cache, 4 KB blocks, A5 trace).") +
         "\nDisk writes fall monotonically with the interval: each extra second lets\n"
         "more newly-written blocks die in the cache (Fig. 4's lifetime CDF).\n";
}

std::string RenderMetadataExtension(const ReplayLog& log) {
  TextTable table({"Cache Size", "File-data I/Os", "With metadata", "Metadata access share",
                   "Extra disk I/O"});
  for (const uint64_t size : AblationSizes()) {
    const CacheConfig base = FlushBack30s(size);
    CacheConfig with = base;
    with.simulate_metadata = true;
    const CacheMetrics m0 = SimulateCache(log, base);
    const CacheMetrics m1 = SimulateCache(log, with);
    const double meta_share = m1.logical_accesses > 0
                                  ? static_cast<double>(m1.metadata_accesses) /
                                        static_cast<double>(m1.logical_accesses)
                                  : 0;
    const double extra = m0.DiskIos() > 0 ? static_cast<double>(m1.DiskIos()) /
                                                    static_cast<double>(m0.DiskIos()) -
                                                1.0
                                          : 0;
    table.AddRow({FormatBytes(static_cast<double>(size)),
                  Cell(static_cast<int64_t>(m0.DiskIos())),
                  Cell(static_cast<int64_t>(m1.DiskIos())), FormatPercent(meta_share, 0),
                  FormatPercent(extra, 0)});
  }
  return table.Render("Effect of simulated i-node/directory accesses (30 s flush-back, 4 KB "
                      "blocks, A5 trace).") +
         "\nPaper §8: \"more than half of all disk block references could come from these\n"
         "other accesses\", but \"there are indications that the other accesses can also\n"
         "be handled efficiently by caching\" — visible here as a metadata access share\n"
         "near 50% whose extra disk I/O shrinks rapidly with cache size.\n";
}

std::string RenderStackDistanceExtension(const ReplayLog& log,
                                         const StackDistanceProfile& profile, bool* parity) {
  const std::vector<uint64_t> sizes = SweepCurveSizes();
  std::vector<CacheConfig> configs;
  for (const uint64_t size : sizes) {
    CacheConfig c;
    c.size_bytes = size;
    c.policy = WritePolicy::kDelayedWrite;
    configs.push_back(c);
  }
  const std::vector<SweepPoint> simulated = RunCacheSweep(log, configs);
  *parity = true;
  TextTable table({"Cache Size", "One-pass fetch misses", "Fetch miss ratio", "All misses",
                   "Simulator disk reads"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    const uint64_t blocks = configs[i].block_count();
    *parity = *parity && profile.FetchMissesAt(blocks) == simulated[i].metrics.disk_reads;
    table.AddRow({FormatBytes(static_cast<double>(sizes[i])),
                  Cell(static_cast<int64_t>(profile.FetchMissesAt(blocks))),
                  FormatPercent(profile.FetchMissRatioAt(blocks)),
                  Cell(static_cast<int64_t>(profile.MissesAt(blocks))),
                  Cell(static_cast<int64_t>(simulated[i].metrics.disk_reads))});
  }
  std::ostringstream out;
  out << table.Render("Fetch misses: one-pass analysis vs. full simulation (4 KB blocks, "
                      "delayed write, A5 trace).")
      << "\none pass analyzed " << profile.total_accesses() << " block accesses ("
      << profile.cold_misses()
      << " cold) and produced the exact disk-read\n"
         "column at every cache size; the \"all misses\" column additionally counts misses\n"
         "that install without a fetch (whole-block or beyond-extent writes).  Unlinks,\n"
         "truncations, and overwrites are true stack deletions, so the parity is\n"
         "bit-for-bit even on write-heavy traces.\n";
  return out.str();
}

std::string RenderPopularityExtension(const std::vector<NamedTrace>& traces) {
  std::vector<std::string> header = {"Measure"};
  std::vector<PopularityStats> stats;
  for (const auto& [name, trace] : traces) {
    header.push_back(name);
    stats.push_back(AnalyzePopularity(*trace));
  }
  TextTable table(header);
  auto row = [&](const std::string& label, auto&& fn) {
    std::vector<std::string> cells = {label};
    for (const PopularityStats& s : stats) {
      cells.push_back(fn(s));
    }
    table.AddRow(std::move(cells));
  };
  row("Distinct files accessed",
      [](const PopularityStats& s) { return Cell(static_cast<int64_t>(s.distinct_files)); });
  row("Total accesses (opens + execs)",
      [](const PopularityStats& s) { return Cell(static_cast<int64_t>(s.total_accesses)); });
  row("Top 10 files' share of accesses",
      [](const PopularityStats& s) { return FormatPercent(s.TopAccessShare(10), 0); });
  row("Top 100 files' share of accesses",
      [](const PopularityStats& s) { return FormatPercent(s.TopAccessShare(100), 0); });
  row("Top 10 files' share of bytes",
      [](const PopularityStats& s) { return FormatPercent(s.TopByteShare(10), 0); });
  row("Files covering 50% of accesses", [](const PopularityStats& s) {
    return Cell(static_cast<int64_t>(s.FilesForAccessFraction(0.5)));
  });
  row("Files covering 90% of accesses", [](const PopularityStats& s) {
    return Cell(static_cast<int64_t>(s.FilesForAccessFraction(0.9)));
  });
  return table.Render("Access concentration across the three traces.") +
         "\nA small core of shared files (status tables, configuration, administrative\n"
         "databases, popular programs) dominates accesses — the locality behind the\n"
         "cache results of §6.\n";
}

std::string RenderWorkingSetExtension(const Trace& trace) {
  const std::vector<Duration> windows = {Duration::Seconds(10), Duration::Minutes(1),
                                         Duration::Minutes(10), Duration::Hours(1),
                                         Duration::Hours(6)};
  const WorkingSetStats stats = AnalyzeWorkingSets(trace, windows, 4096);
  TextTable table({"Window", "Avg working set", "Peak working set"});
  for (const WorkingSetPoint& p : stats.points) {
    table.AddRow({p.window.ToString(), FormatBytes(p.average_blocks * 4096),
                  FormatBytes(static_cast<double>(p.peak_blocks) * 4096)});
  }
  return table.Render("File-data working sets (4 KB blocks, A5 trace).") +
         "\nReading the table against Figure 5: a cache comparable to the 10-minute\n"
         "working set already captures most reuse, which is why miss ratios flatten\n"
         "in the multi-megabyte range.\n";
}

namespace {

// Opens `path`, hands a CsvWriter on it to `write`, and reports a failed
// open or a failed write (a full disk surfaces only at flush).
Status WriteCsvFile(const std::string& path, const std::function<void(CsvWriter&)>& write) {
  std::ofstream out(path);
  if (!out) {
    return Status::Error("cannot open for writing: " + path);
  }
  CsvWriter csv(out);
  write(csv);
  out.flush();
  if (!out) {
    return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

// One CSV: column 0 is x; per trace two columns (count-weighted, byte-ish
// weighted fraction) unless `panel_b` is null.
Status WriteCdfCsv(const std::string& path, const std::vector<double>& xs, double x_scale,
                   const std::string& x_name, const std::vector<NamedAnalysis>& traces,
                   const std::function<const WeightedCdf&(const TraceAnalysis&)>& panel_a,
                   const std::string& a_suffix,
                   const std::function<const WeightedCdf&(const TraceAnalysis&)>& panel_b,
                   const std::string& b_suffix) {
  return WriteCsvFile(path, [&](CsvWriter& csv) {
    std::vector<std::string> header = {x_name};
    for (const auto& [name, a] : traces) {
      header.push_back(name + a_suffix);
    }
    if (panel_b) {
      for (const auto& [name, a] : traces) {
        header.push_back(name + b_suffix);
      }
    }
    csv.WriteRow(header);
    for (double x : xs) {
      std::vector<std::string> row = {Cell(x, 3)};
      for (const auto& [name, a] : traces) {
        row.push_back(Cell(panel_a(*a).FractionAtOrBelow(x * x_scale), 4));
      }
      if (panel_b) {
        for (const auto& [name, a] : traces) {
          row.push_back(Cell(panel_b(*a).FractionAtOrBelow(x * x_scale), 4));
        }
      }
      csv.WriteRow(row);
    }
  });
}

}  // namespace

Status ExportFigureCsvs(const std::string& dir, const std::vector<NamedAnalysis>& traces) {
  const std::vector<double> run_xs = {0.25, 0.5, 1, 2, 4, 8, 16, 25, 50, 75, 100};
  Status st = WriteCdfCsv(
      dir + "/fig1_runs.csv", run_xs, kKb, "run_length_kb", traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.runs.by_runs; }, "_runs",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.runs.by_bytes; }, "_bytes");
  if (!st.ok()) {
    return st;
  }
  const std::vector<double> size_xs = {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1024, 2048};
  st = WriteCdfCsv(
      dir + "/fig2_filesizes.csv", size_xs, kKb, "file_size_kb", traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.file_sizes.by_accesses; },
      "_files",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.file_sizes.by_bytes; },
      "_bytes");
  if (!st.ok()) {
    return st;
  }
  const std::vector<double> open_xs = {0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600};
  st = WriteCdfCsv(
      dir + "/fig3_opentimes.csv", open_xs, 1.0, "open_time_s", traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.open_times.seconds; },
      "_files", nullptr, "");
  if (!st.ok()) {
    return st;
  }
  const std::vector<double> life_xs = {1, 5, 10, 30, 60, 120, 179, 181, 240, 300, 450};
  return WriteCdfCsv(
      dir + "/fig4_lifetimes.csv", life_xs, 1.0, "lifetime_s", traces,
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.lifetimes.by_files; },
      "_files",
      [](const TraceAnalysis& a) -> const WeightedCdf& { return a.lifetimes.by_bytes; },
      "_bytes");
}

Status ExportSweepCsv(const std::string& path, const std::vector<SweepPoint>& points) {
  return WriteCsvFile(path, [&](CsvWriter& csv) {
    csv.WriteRow({"cache_bytes", "block_bytes", "policy", "flush_s", "pagein", "metadata",
                  "logical_accesses", "disk_reads", "disk_writes", "miss_ratio"});
    for (const SweepPoint& p : points) {
      csv.WriteRow({Cell(static_cast<int64_t>(p.config.size_bytes)),
                    Cell(static_cast<int64_t>(p.config.block_size)),
                    WritePolicyName(p.config.policy),
                    Cell(p.config.policy == WritePolicy::kFlushBack
                             ? p.config.flush_interval.seconds()
                             : 0.0,
                         0),
                    p.config.simulate_execve_pagein ? "1" : "0",
                    p.config.simulate_metadata ? "1" : "0",
                    Cell(static_cast<int64_t>(p.metrics.logical_accesses)),
                    Cell(static_cast<int64_t>(p.metrics.disk_reads)),
                    Cell(static_cast<int64_t>(p.metrics.disk_writes)),
                    Cell(p.metrics.MissRatio(), 5)});
    }
  });
}

Status ExportCurveCsv(const std::string& path, const std::vector<SweepCurve>& curves) {
  return WriteCsvFile(path, [&](CsvWriter& csv) {
    csv.WriteRow({"block_bytes", "pagein", "cache_bytes", "fetch_accesses", "fetch_misses",
                  "fetch_miss_ratio"});
    for (const SweepCurve& curve : curves) {
      for (size_t i = 0; i < curve.size_bytes.size(); ++i) {
        csv.WriteRow({Cell(static_cast<int64_t>(curve.block_size)),
                      curve.simulate_execve_pagein ? "1" : "0",
                      Cell(static_cast<int64_t>(curve.size_bytes[i])),
                      Cell(static_cast<int64_t>(curve.profile.fetch_accesses())),
                      Cell(static_cast<int64_t>(curve.fetch_misses[i])),
                      Cell(curve.fetch_miss_ratios[i], 5)});
      }
    }
  });
}

Status ExportHierarchyCsv(const std::string& path, const std::vector<HierarchyPoint>& points) {
  return WriteCsvFile(path, [&](CsvWriter& csv) {
    csv.WriteRow({"client_bytes", "server_bytes", "block_bytes", "client_policy", "server_policy",
                  "clients", "logical_accesses", "client_disk_reads", "client_disk_writes",
                  "server_accesses", "disk_reads", "disk_writes", "client_hit_ratio",
                  "global_miss_ratio"});
    for (const HierarchyPoint& p : points) {
      csv.WriteRow({Cell(static_cast<int64_t>(p.config.client.size_bytes)),
                    Cell(static_cast<int64_t>(p.config.server.size_bytes)),
                    Cell(static_cast<int64_t>(p.config.server.block_size)),
                    p.config.has_clients() ? WritePolicyName(p.config.client.policy) : "-",
                    WritePolicyName(p.config.server.policy),
                    Cell(static_cast<int64_t>(p.metrics.client_count)),
                    Cell(static_cast<int64_t>(p.metrics.LogicalAccesses())),
                    Cell(static_cast<int64_t>(p.metrics.client_total.disk_reads)),
                    Cell(static_cast<int64_t>(p.metrics.client_total.disk_writes)),
                    Cell(static_cast<int64_t>(p.metrics.server.logical_accesses)),
                    Cell(static_cast<int64_t>(p.metrics.server.disk_reads)),
                    Cell(static_cast<int64_t>(p.metrics.server.disk_writes)),
                    Cell(p.metrics.ClientHitRatio(), 5),
                    Cell(p.metrics.GlobalMissRatio(), 5)});
    }
  });
}


namespace {

constexpr char kRule[] = "================================================================\n";

// With BSDTRACE_CSV_DIR set, the note for one finished export (after the
// blank line that closes the section's body); a failure goes to stderr.
std::string ExportNote(const std::string& what, const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "CSV export failed: %s\n", st.message().c_str());
    return "";
  }
  return "exported " + what + "\n";
}

struct AnalyzedTrace {
  GenerationResult generated;
  TraceAnalysis analysis;
};

AnalyzedTrace GenerateAndAnalyze(const std::string& name) {
  AnalyzedTrace t;
  t.generated = GenerateStandardTrace(name);
  AnalyzeOptions options;
  options.trace = &t.generated.trace;
  t.analysis = Analyze(options).value();
  return t;
}

// The §7 extension's input: a fleet, so every hierarchy row has several
// clients, generated at the standard length but at the profiles' own
// intensity.
constexpr char kHierarchyFleet[] = "fleet:2xA5+1xE3";

struct FleetHierarchy {
  size_t records = 0;
  size_t instances = 0;
  HierarchySweepResult sweep;
};

// Generates the fleet, builds its one replay log and runs the §7 grid.  The
// trace is dropped once the log is built, the log once the sweep is done.
StatusOr<FleetHierarchy> GenerateAndSweepFleet() {
  StatusOr<FleetProfile> fleet = ParseFleetSpec(kHierarchyFleet);
  if (!fleet.ok()) {
    return fleet.status();
  }
  FleetGeneratorOptions options;
  options.base.duration = StandardDuration();
  options.base.seed = 19851201;
  options.shards_per_machine = 2;
  FleetHierarchy run;
  ReplayLog log;
  {
    StatusOr<FleetGenerationResult> generated = GenerateFleetTrace(fleet.value(), options);
    if (!generated.ok()) {
      return generated.status();
    }
    run.records = generated.value().trace.size();
    log = ReplayLog::Build(generated.value().trace);
  }
  run.instances = log.instance_count();
  run.sweep = RunHierarchySweep(log, HierarchySweepConfigs());
  return run;
}

// One report section: its heading and the body printed under it.
struct ReportSection {
  const char* title;
  const char* paper_ref;
  std::function<std::string()> body;
};

}  // namespace

bool WriteReport(std::FILE* out) {
  const char* csv_env = std::getenv("BSDTRACE_CSV_DIR");
  const std::string csv_dir = csv_env != nullptr ? csv_env : "";
  std::fprintf(out, "%sbsdtrace report: the tables and figures of Ousterhout et al., SOSP 1985,\n"
               "with three ablations and five extensions\n"
               "synthetic traces, %.1f simulated hours each (set BSDTRACE_HOURS to change)\n%s",
               kRule, StandardDuration().hours(), kRule);
  std::fflush(out);

  // The three machines are independent: E3 and C4 generate and analyze on
  // their own threads while A5 does and then builds its replay log.  The §7
  // fleet generates and sweeps on a fourth.
  std::future<AnalyzedTrace> e3_future = std::async(std::launch::async, GenerateAndAnalyze, "E3");
  std::future<AnalyzedTrace> c4_future = std::async(std::launch::async, GenerateAndAnalyze, "C4");
  std::future<StatusOr<FleetHierarchy>> hierarchy_future =
      std::async(std::launch::async, GenerateAndSweepFleet);
  const AnalyzedTrace a5 = GenerateAndAnalyze("A5");
  const ReplayLog log = ReplayLog::Build(a5.generated.trace);
  const StandardSweeps sweeps = RunStandardSweeps(log);
  const AnalyzedTrace e3 = e3_future.get();
  const AnalyzedTrace c4 = c4_future.get();
  const std::vector<NamedAnalysis> named = {
      {"A5", &a5.analysis}, {"E3", &e3.analysis}, {"C4", &c4.analysis}};
  std::fprintf(out, "generated %zu (A5) / %zu (E3) / %zu (C4) trace records\n",
               a5.generated.trace.size(), e3.generated.trace.size(), c4.generated.trace.size());

  // A §6 figure's CSV pair: its points, then its Mattson curves.
  auto export_sweep = [&](const std::string& points_name, const std::vector<SweepPoint>& points,
                          const std::string& curves_name,
                          const std::vector<SweepCurve>& curves) -> std::string {
    if (csv_dir.empty()) {
      return "";
    }
    const std::string points_path = csv_dir + "/" + points_name + ".csv";
    const std::string curves_path = csv_dir + "/" + curves_name + ".csv";
    return "\n" + ExportNote(points_path, ExportSweepCsv(points_path, points)) +
           ExportNote(curves_path, ExportCurveCsv(curves_path, curves));
  };
  bool stack_parity = false;
  std::string hierarchy_failure;
  const std::vector<ReportSection> sections = {
      {"Table I — selected results", "Table I",
       [&] { return RenderTable1(a5.analysis, sweeps.fig5, sweeps.fig6) + "\n"; }},
      {"Table III — overall statistics", "Table III and §3.1",
       [&] { return RenderTable3(named) + "\n" + RenderEventIntervals(named) + "\n"; }},
      {"Table IV — system activity", "Table IV (§5.1)",
       [&] {
         return RenderTable4(named) +
                "\nPaper bands: ~300-600 bytes/s per active user over 10-minute intervals;\n"
                "~1.4-1.8 KB/s over 10-second intervals with fewer concurrent users.\n";
       }},
      {"Table V — sequentiality", "Table V (§5.2)",
       [&] {
         return RenderTable5(named) +
                "\nPaper bands: whole-file reads 63-70% of read-only accesses, whole-file\n"
                "writes 81-85%, ~50% of bytes in whole-file transfers, >90% of accesses\n"
                "sequential, read-write accesses mostly non-sequential (19-35%).\n";
       }},
      {"Figure 1 — sequential run lengths", "Figure 1 (§5.2)",
       [&] {
         return RenderFigure1(named) +
                "\nPaper bands: 70-75% of runs under 4 KB (jumps at 1 KB and 4 KB from\n"
                "user-level I/O buffer sizes); ~30% of bytes moved in runs of 25 KB+.\n";
       }},
      {"Figure 2 — dynamic file sizes", "Figure 2 (§5.2)",
       [&] {
         return RenderFigure2(named) +
                "\nPaper bands: ~80% of accesses to files under 10 KB, but those carry only\n"
                "~30% of the bytes; a few ~1 MB administrative files account for ~20% of\n"
                "accesses via position-and-read.\n";
       }},
      {"Figure 3 — open durations", "Figure 3 (§5.2)",
       [&] { return RenderFigure3(named) + "\n"; }},
      {"Figure 4 — file lifetimes", "Figure 4 (§5.3)",
       [&] {
         std::string body =
             RenderFigure4(named) +
             "\nPaper bands: ~80% of new files dead within ~3 minutes; 30-40% of new\n"
             "files live exactly ~180 s (network status daemons); 20-30% of new bytes\n"
             "dead within 30 s and ~50% within 5 minutes.\n";
         if (!csv_dir.empty()) {
           body += "\n" + ExportNote("figure CSVs to " + csv_dir, ExportFigureCsvs(csv_dir, named));
         }
         return body;
       }},
      {"Figure 5 / Table VI — cache size and write policy", "Fig. 5, Table VI (§6.2)",
       [&] {
         return RenderFigure5Table6(sweeps.fig5) + "\n" +
                RenderWriteLifetimeSidebar(sweeps.fig5) + "\n" +
                RenderMissRatioCurves(sweeps.fig5_curves) + "\n" +
                export_sweep("fig5_table6", sweeps.fig5, "fig5_curves", sweeps.fig5_curves);
       }},
      {"Figure 6 / Table VII — block size", "Fig. 6, Table VII (§6.3)",
       [&] {
         return RenderFigure6Table7(sweeps.fig6) +
                "\nPaper bands: 8 KB blocks optimal for a 400 KB cache; 16 KB for 4 MB;\n"
                "very large blocks turn back up when the cache has too few of them.\n" +
                RenderMissRatioCurves(sweeps.fig6_curves) + "\n" +
                export_sweep("fig6_table7", sweeps.fig6, "fig6_curves", sweeps.fig6_curves);
       }},
      {"Figure 7 — simulated program page-in", "Fig. 7 (§6.4)",
       [&] {
         return RenderFigure7(sweeps.fig7) + "\n" + RenderMissRatioCurves(sweeps.fig7_curves) +
                "\n" + export_sweep("fig7_paging", sweeps.fig7, "fig7_curves", sweeps.fig7_curves);
       }},
      {"ablation — cache replacement policy", "§6.1 design choice (LRU)",
       [&] { return RenderReplacementAblation(log); }},
      // Billing moves the transfer timestamps, so the earlier bound needs its own log.
      {"ablation — run billing time", "§3.1 timing imprecision / [13]",
       [&] {
         return RenderBillingAblation(
             log, ReplayLog::Build(a5.generated.trace, BillingPolicy::kAtPreviousEvent));
       }},
      {"ablation — flush-back interval sweep", "§6.2 write policies",
       [&] { return RenderFlushAblation(log); }},
      {"extension — i-node and directory overhead", "§8 closing estimate",
       [&] { return RenderMetadataExtension(log); }},
      {"extension — one-pass stack-distance analysis", "Fig. 5 read-miss curve",
       [&] {
         return RenderStackDistanceExtension(log, sweeps.fig5_curves.front().profile,
                                             &stack_parity);
       }},
      {"extension — client/server cache hierarchy", "§7, extension beyond the paper",
       [&] {
         const StatusOr<FleetHierarchy> run = hierarchy_future.get();
         if (!run.ok()) {
           hierarchy_failure = "cannot generate the fleet trace: " + run.status().message();
           return std::string();
         }
         const FleetHierarchy& h = run.value();
         if (!h.sweep.parity) {
           hierarchy_failure = "the hierarchy sweep diverges from its reference replays";
         }
         std::string body = std::string(kHierarchyFleet) + " trace: " +
                            std::to_string(h.records) + " records from " +
                            std::to_string(h.instances) +
                            " machine instance(s), one client\ncache each "
                            "(BSDTRACE_INTENSITY does not apply to this trace).\n\n" +
                            RenderHierarchySweep(h.sweep);
         if (!csv_dir.empty()) {
           const std::string path = csv_dir + "/hier_sweep.csv";
           body += "\n" + ExportNote(path, ExportHierarchyCsv(path, h.sweep.points));
         }
         return body;
       }},
      {"extension — file popularity", "Fig. 2 discussion (§5.2)",
       [&] {
         return RenderPopularityExtension({{"A5", &a5.generated.trace},
                                           {"E3", &e3.generated.trace},
                                           {"C4", &c4.generated.trace}});
       }},
      {"extension — working-set sizes", "§6.4 working-set argument",
       [&] { return RenderWorkingSetExtension(a5.generated.trace); }},
  };
  // Two blank lines under each heading keep every body laid out as the
  // per-figure reproductions always printed it.
  for (size_t i = 0; i < sections.size(); ++i) {
    const ReportSection& section = sections[i];
    std::fprintf(out, "\n%s[%zu/%zu] %s\nreproduces: %s of Ousterhout et al., SOSP 1985\n%s\n\n",
                 kRule, i + 1, sections.size(), section.title, section.paper_ref, kRule);
    std::fputs(section.body().c_str(), out);
    std::fflush(out);
  }

  if (!sweeps.parity) {
    std::fprintf(stderr, "FAIL: a planned sweep's Mattson curve diverges from its replays\n");
  }
  if (!stack_parity) {
    std::fprintf(stderr, "FAIL: one-pass fetch misses diverge from the simulator\n");
  }
  if (!hierarchy_failure.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", hierarchy_failure.c_str());
  }
  return sweeps.parity && stack_parity && hierarchy_failure.empty();
}

}  // namespace bsdtrace
