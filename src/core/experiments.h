// High-level experiment API: generate the standard traces, analyze them, run
// the cache sweeps, and render every table and figure of the paper in a
// terminal-friendly form.
//
// This is the library's front door: `trace_stream report` (WriteReport) runs
// every Render* function below over one set of standard traces, and the
// examples compose these calls.

#ifndef BSDTRACE_SRC_CORE_EXPERIMENTS_H_
#define BSDTRACE_SRC_CORE_EXPERIMENTS_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/cache/sweep.h"
#include "src/workload/generator.h"
#include "src/util/status.h"
#include "src/workload/profile.h"

namespace bsdtrace {

// (label, analysis) pairs: most tables compare the three traces side by side.
using NamedAnalysis = std::pair<std::string, const TraceAnalysis*>;

// Standard generation length for experiments.  Overridable via the
// BSDTRACE_HOURS environment variable (benchmark runtime knob).
Duration StandardDuration();

// Generates the named standard trace ("A5", "E3", "C4") at the standard
// duration.  Deterministic per (name, duration).
GenerationResult GenerateStandardTrace(const std::string& name);
GenerationResult GenerateStandardTrace(const std::string& name, Duration duration,
                                       uint64_t seed);

// -- Section 5 renderings -----------------------------------------------------

// Table III: overall statistics for each trace.
std::string RenderTable3(const std::vector<NamedAnalysis>& traces);
// Section 3.1 sidebar: inter-event interval bounds.
std::string RenderEventIntervals(const std::vector<NamedAnalysis>& traces);
// Table IV: system activity.
std::string RenderTable4(const std::vector<NamedAnalysis>& traces);
// Table V: sequentiality.
std::string RenderTable5(const std::vector<NamedAnalysis>& traces);
// Figure 1: sequential run lengths (CDF table + ASCII plot).
std::string RenderFigure1(const std::vector<NamedAnalysis>& traces);
// Figure 2: dynamic file sizes.
std::string RenderFigure2(const std::vector<NamedAnalysis>& traces);
// Figure 3: open durations.
std::string RenderFigure3(const std::vector<NamedAnalysis>& traces);
// Figure 4: file lifetimes.
std::string RenderFigure4(const std::vector<NamedAnalysis>& traces);

// -- Section 6 sweeps ---------------------------------------------------------

// All three §6 sweeps (Figs. 5-7) computed from ONE reconstruction of the
// trace: the replay log is built once and shared by every configuration and
// every figure, and each figure runs through the sweep planner
// (RunPlannedSweep) — one nested replay (every size and write policy) plus
// one exact Mattson stack-distance pass per (block size, page-in) family,
// which yields the dense miss-ratio curves below (see DESIGN.md §12).
struct StandardSweeps {
  std::vector<SweepPoint> fig5;  // Fig. 5 / Table VI points
  std::vector<SweepPoint> fig6;  // Fig. 6 / Table VII points
  std::vector<SweepPoint> fig7;  // Fig. 7 points
  // Single-pass fetch-miss curves: fig5_curves holds the 4 KB family (the
  // collapsed Fig. 5 size axis), fig6_curves one curve per block size,
  // fig7_curves the page-in on/off pair.
  std::vector<SweepCurve> fig5_curves;
  std::vector<SweepCurve> fig6_curves;
  std::vector<SweepCurve> fig7_curves;
  // True iff every Mattson prediction matched its replayed config
  // bit-for-bit (AND of the three planned sweeps' parity flags).
  bool parity = true;
};
StandardSweeps RunStandardSweeps(const ReplayLog& log, unsigned threads = 0);

// -- Section 6 renderings -----------------------------------------------------

// Figure 5 / Table VI: miss ratio vs. cache size and write policy
// (points from Fig5Configs()).
std::string RenderFigure5Table6(const std::vector<SweepPoint>& points);
// Figure 6 / Table VII: disk I/Os vs. block size and cache size
// (points from Fig6Configs()).
std::string RenderFigure6Table7(const std::vector<SweepPoint>& points);
// Figure 7: effect of simulated program page-in (points from Fig7Configs()).
std::string RenderFigure7(const std::vector<SweepPoint>& points);
// §6.2 sidebar: cache residency and discarded-write statistics.
std::string RenderWriteLifetimeSidebar(const std::vector<SweepPoint>& fig5_points);
// Single-pass Mattson curves: the dense fetch-miss-ratio column of every
// curve, one table row per sampled cache size (the Fig. 5 size axis at 13
// points from one pass instead of one replay per size).
std::string RenderMissRatioCurves(const std::vector<SweepCurve>& curves);

// §7 hierarchy figure: global miss ratio (disk I/Os per logical access at
// the top of the hierarchy) vs. client size x server size x client write
// policy, one table per policy plus a plot over the server-size axis
// (points from HierarchySweepConfigs() via RunHierarchySweep).
std::string RenderHierarchySweep(const HierarchySweepResult& result);

// Table I: the headline summary, derived from an analysis plus both sweeps.
std::string RenderTable1(const TraceAnalysis& analysis,
                         const std::vector<SweepPoint>& fig5_points,
                         const std::vector<SweepPoint>& fig6_points);

// -- Ablations and extensions ------------------------------------------------
//
// Each replays an A5 log (or reads a trace) and renders one table plus its
// closing prose.

// Miss ratio under LRU, clock and FIFO replacement (delayed write).
std::string RenderReplacementAblation(const ReplayLog& log);
// Miss ratio with transfers billed at the next event (the paper's bound) vs.
// the previous event (§3.1 timing imprecision); one log per billing policy.
std::string RenderBillingAblation(const ReplayLog& at_next_event,
                                  const ReplayLog& at_previous_event);
// Disk writes and miss ratio from write-through through flush-back
// intervals to delayed write (§6.2).
std::string RenderFlushAblation(const ReplayLog& log);
// Disk I/O with and without simulated i-node/directory accesses (§8).
std::string RenderMetadataExtension(const ReplayLog& log);
// The one-pass fetch-miss column of `profile` (4 KB blocks, delayed write;
// the Fig. 5 Mattson curve) against one simulator replay per
// SweepCurveSizes() size.  *parity is set to whether every size agrees.
std::string RenderStackDistanceExtension(const ReplayLog& log,
                                         const StackDistanceProfile& profile, bool* parity);
// Access concentration, one column per trace.
using NamedTrace = std::pair<std::string, const Trace*>;
std::string RenderPopularityExtension(const std::vector<NamedTrace>& traces);
// Average and peak file-data working sets over 10 s to 6 h windows.
std::string RenderWorkingSetExtension(const Trace& trace);

// -- The reproduction report --------------------------------------------------

// Generates A5, E3 and C4 once (GenerateStandardTrace: BSDTRACE_HOURS,
// BSDTRACE_INTENSITY), analyzes each once, builds A5's replay logs once, and
// writes every section to `out` in paper order: Tables I and III-V, Figures
// 1-7 with Tables VI-VII, the three ablations and the five extensions.  The
// §7 hierarchy extension runs on its own 2xA5+1xE3 fleet trace of the same
// length (seed 19851201; BSDTRACE_INTENSITY does not apply to it).  With
// BSDTRACE_CSV_DIR set, the figure and sweep series are exported there too.
// Returns false when a planned-sweep parity flag, the one-pass stack-
// distance check or the hierarchy sweep's parity fails, or the fleet trace
// cannot be generated (the report is still written in full).
bool WriteReport(std::FILE* out);

// -- Machine-readable export --------------------------------------------------

// Writes every figure's data series as CSV files under `dir`
// (fig1_runs.csv, fig2_filesizes.csv, fig3_opentimes.csv, fig4_lifetimes.csv),
// one row per x value with one column pair per trace.  The directory must
// exist.  The report calls this when BSDTRACE_CSV_DIR is set.
Status ExportFigureCsvs(const std::string& dir, const std::vector<NamedAnalysis>& traces);
// Writes a cache sweep as CSV (config axes + metrics), e.g. fig5.csv.
Status ExportSweepCsv(const std::string& path, const std::vector<SweepPoint>& points);
// Writes the single-pass miss-ratio curves as CSV: one row per
// (curve, cache size) with the exact fetch-miss column.
Status ExportCurveCsv(const std::string& path, const std::vector<SweepCurve>& curves);
// Writes a hierarchy sweep as CSV: one row per (client size, server size,
// policy) point with per-level traffic and the global miss ratio.
Status ExportHierarchyCsv(const std::string& path, const std::vector<HierarchyPoint>& points);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CORE_EXPERIMENTS_H_
