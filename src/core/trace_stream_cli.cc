#include "src/core/trace_stream_cli.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/per_user_activity.h"
#include "src/analysis/popularity.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/core/experiments.h"
#include "src/trace/filter.h"
#include "src/trace/import/strace_import.h"
#include "src/trace/import/text_import.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_ring.h"
#include "src/trace/trace_source.h"
#include "src/trace/validate.h"
#include "src/util/parse.h"
#include "src/util/stats.h"
#include "src/workload/fleet.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"

namespace bsdtrace {
namespace {

// Rendered from the subcommand registry + flag table below: every usage and
// help line is generated, so a new flag shows up everywhere by being added
// to the table once.
int Usage();

// Strict numeric parsers: the whole string must parse and land in range.
// All integer flags route through the one checked parser in src/util/parse.h
// (ParseUint64, ParseInt32InRange: sign, overflow, and trailing garbage all
// reject — the CLI used to run arguments through bare strtoull/atoi, which
// wrapped "18446744073709551616" and read "8oops" as 8, silently generating
// the wrong trace).

bool ParseHoursArg(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v) || v <= 0.0 ||
      v > 24.0 * 365.0) {
    return false;
  }
  *out = v;
  return true;
}

int BadArg(const char* what, const std::string& value) {
  std::fprintf(stderr, "trace_stream: invalid %s \"%s\"\n", what, value.c_str());
  return Usage();
}

// -- The one flag table -------------------------------------------------------
//
// Every flag any subcommand accepts is defined exactly once here: name,
// whether it takes a =value, and how it parses into CliOptions.  A
// subcommand declares its surface as a list of names (ParseFlags); there are
// no per-subcommand parser copies, so --seed means the same thing — same
// syntax, same range, same strictness — everywhere it is accepted.

struct CliOptions {
  std::string profile = "A5";
  int users = 0;  // 0: keep each profile's native population
  double hours = 6.0;
  int shards = 8;
  int threads = 0;  // 0: hardware concurrency
  int wave_users = 0;
  uint64_t seed = 19851201;
  std::string compress = "none";
  bool check_bands = false;
  std::string sweep;
  // import/export only
  std::string format = "bsdtxt";
  std::string out;  // export destination; empty: stdout
  bool no_validate = false;
  // serve only
  int analyzers = 1;
  int capacity = 1 << 14;
  std::string policy = "block";
  double snapshot_hours = 1.0;
};

struct FlagSpec {
  const char* name;
  bool takes_value;
  const char* value_hint;  // shown as --name=<hint> in usage; "" when flag-only
  const char* help;        // one-line description for --help
  // Returns false if the value is invalid (the caller reports it).
  std::function<bool(CliOptions*, const std::string&)> parse;
};

const std::vector<FlagSpec>& FlagTable() {
  static const std::vector<FlagSpec>* table = new std::vector<FlagSpec>{
      {"profile", true, "SPEC",
       "machine profile: A5 | E3 | C4 | a fleet spec like fleet:4xA5+2xE3+2xC4",
       [](CliOptions* o, const std::string& v) {
         o->profile = v;
         return !v.empty();
       }},
      {"users", true, "N", "population-scale every machine instance to N users (0: native)",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 0, 1000000, &o->users);
       }},
      {"hours", true, "H", "simulated trace duration in hours",
       [](CliOptions* o, const std::string& v) { return ParseHoursArg(v, &o->hours); }},
      {"shards", true, "S", "generator shards per machine instance",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 1, 4096, &o->shards);
       }},
      {"threads", true, "T", "worker threads (0: hardware concurrency)",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 0, 4096, &o->threads);
       }},
      {"seed", true, "X", "generation seed (deterministic per seed)",
       [](CliOptions* o, const std::string& v) { return ParseUint64(v, &o->seed); }},
      {"compress", true, "none|ans",
       "ans writes v4 blocks compressed per column with rANS (default none: v3 bytes)",
       [](CliOptions* o, const std::string& v) {
         o->compress = v;
         return v == "none" || v == "ans";
       }},
      {"wave-users", true, "N",
       "generate the fleet in bounded-memory waves of at most N scaled users "
       "(stream is wave-invariant)",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 0, 100000000, &o->wave_users);
       }},
      {"check-bands", false, "", "gate on the Table I per-user activity bands",
       [](CliOptions* o, const std::string&) {
         o->check_bands = true;
         return true;
       }},
      {"sweep", true, "fig5|fig6|fig7|hier",
       "run a planned cache sweep instead of the §5 tables: the §6 figures "
       "(nested replays + one-pass Mattson curves) or the §7 client/server "
       "hierarchy grid",
       [](CliOptions* o, const std::string& v) {
         o->sweep = v;
         return v == "fig5" || v == "fig6" || v == "fig7" || v == "hier";
       }},
      {"analyzers", true, "K", "rolling analyzers fed from the ring",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 1, 64, &o->analyzers);
       }},
      {"capacity", true, "C", "ring capacity in records",
       [](CliOptions* o, const std::string& v) {
         return ParseInt32InRange(v, 2, 1 << 24, &o->capacity);
       }},
      {"policy", true, "block|drop-oldest", "ring overflow policy",
       [](CliOptions* o, const std::string& v) {
         o->policy = v;
         return v == "block" || v == "drop-oldest";
       }},
      {"snapshot-hours", true, "H", "publish a rolling snapshot every H simulated hours",
       [](CliOptions* o, const std::string& v) {
         return ParseHoursArg(v, &o->snapshot_hours);
       }},
      {"format", true, "bsdtxt|strace",
       "input log format: bsdtxt (this tool's text export) or a raw "
       "`strace -f -ttt` syscall log",
       [](CliOptions* o, const std::string& v) {
         o->format = v;
         return v == "bsdtxt" || v == "strace";
       }},
      {"out", true, "PATH", "write the text export to PATH instead of stdout",
       [](CliOptions* o, const std::string& v) {
         o->out = v;
         return !v.empty();
       }},
      {"no-validate", false, "",
       "skip the structural validator on the imported records (write as-is)",
       [](CliOptions* o, const std::string&) {
         o->no_validate = true;
         return true;
       }},
  };
  return *table;
}

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagSpec& s : FlagTable()) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

// -- The subcommand registry --------------------------------------------------
//
// One entry per subcommand: its positional synopsis and its flag surface
// (names into the flag table).  Usage, --help, and wrong-flag errors are all
// rendered from here, so the listed surface IS the accepted surface.

struct SubcommandSpec {
  const char* name;
  const char* positionals;
  const char* blurb;  // one-line summary for --help
  std::vector<const char*> flags;
};

const std::vector<SubcommandSpec>& Subcommands() {
  static const std::vector<SubcommandSpec>* subs = new std::vector<SubcommandSpec>{
      {"generate", "<out.trc> [profile=A5] [hours=6] [shards=8] [threads=0] [seed=19851201]",
       "generate a trace file (sharded, merged in time order)",
       {"profile", "users", "hours", "shards", "threads", "seed", "compress", "wave-users"}},
      {"analyze", "<in.trc>",
       "render the §5 analysis tables, or a cache sweep with --sweep",
       {"threads", "check-bands", "sweep"}},
      {"serve", "",
       "stream the generator through in-memory rings to rolling analyzers",
       {"profile", "users", "hours", "shards", "threads", "seed", "analyzers", "capacity",
        "policy", "snapshot-hours", "check-bands"}},
      {"import", "<in.log> <out.trc>",
       "convert a foreign text log (bsdtxt or strace) to a binary trace",
       {"format", "compress", "no-validate"}},
      {"export", "<in.trc>", "render a binary trace as bsdtxt text", {"out"}},
      {"info", "<in.trc>", "print header, format, and integrity information", {}},
      {"validate", "<in.trc>", "check the structural invariants (exit 1 if invalid)", {}},
      {"slice", "<in.trc> <out.trc> <from_s> <to_s>",
       "write the accesses within [from_s, to_s) seconds, rebased to 0, as v4",
       {"compress"}},
      {"users", "<in.trc>", "count events per user", {}},
      {"top", "<in.trc> [n=10]", "file popularity: top-n access and byte shares, coverage",
       {}},
      {"report", "", "render every table, figure, ablation and extension of the paper", {}},
  };
  return *subs;
}

const SubcommandSpec* FindSubcommand(const std::string& name) {
  for (const SubcommandSpec& s : Subcommands()) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

std::string FlagSynopsis(const FlagSpec& f) {
  std::string out = "[--";
  out += f.name;
  if (f.takes_value) {
    out += "=";
    out += f.value_hint;
  }
  out += "]";
  return out;
}

// The wrapped "trace_stream <cmd> <positionals> [flags...]" block, flag list
// generated from the table.
void PrintSubcommandUsage(std::FILE* out, const SubcommandSpec& sub, const char* lead) {
  std::string line = std::string(lead) + "trace_stream " + sub.name;
  if (sub.positionals[0] != '\0') {
    line += " ";
    line += sub.positionals;
  }
  const std::string indent(std::strlen(lead) + std::strlen("trace_stream ") +
                               std::strlen(sub.name) + 1,
                           ' ');
  for (const char* name : sub.flags) {
    const FlagSpec* spec = FindFlag(name);
    const std::string synopsis = FlagSynopsis(*spec);
    if (line.size() + 1 + synopsis.size() > 78) {
      std::fprintf(out, "%s\n", line.c_str());
      line = indent + synopsis;
    } else {
      line += " " + synopsis;
    }
  }
  std::fprintf(out, "%s\n", line.c_str());
}

int Usage() {
  std::fprintf(stderr, "usage:\n");
  for (const SubcommandSpec& sub : Subcommands()) {
    PrintSubcommandUsage(stderr, sub, "  ");
  }
  std::fprintf(stderr, "run \"trace_stream <command> --help\" for per-flag descriptions\n");
  return 2;
}

// Wrong flag / bad value inside a subcommand: name the subcommand and show
// ITS usage line, not the whole wall.
int UsageFor(const SubcommandSpec& sub) {
  std::fprintf(stderr, "usage:\n");
  PrintSubcommandUsage(stderr, sub, "  ");
  return 2;
}

// Full per-subcommand help (stdout, exit 0): the flag list with the table's
// help strings.
int HelpFor(const SubcommandSpec& sub) {
  std::printf("trace_stream %s — %s\n", sub.name, sub.blurb);
  PrintSubcommandUsage(stdout, sub, "usage: ");
  if (!sub.flags.empty()) {
    std::printf("flags:\n");
    for (const char* name : sub.flags) {
      const FlagSpec* spec = FindFlag(name);
      std::string synopsis = "--" + std::string(spec->name);
      if (spec->takes_value) {
        synopsis += "=" + std::string(spec->value_hint);
      }
      std::printf("  %-28s %s\n", synopsis.c_str(), spec->help);
    }
  }
  return 0;
}

int HelpMain() {
  std::printf("usage:\n");
  for (const SubcommandSpec& sub : Subcommands()) {
    PrintSubcommandUsage(stdout, sub, "  ");
  }
  std::printf("commands:\n");
  for (const SubcommandSpec& sub : Subcommands()) {
    std::printf("  %-9s %s\n", sub.name, sub.blurb);
  }
  std::printf("run \"trace_stream <command> --help\" for per-flag descriptions\n");
  return 0;
}

bool WantsHelp(const std::vector<const char*>& flags) {
  for (const char* arg : flags) {
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return true;
    }
  }
  return false;
}

// Parses every --flag argument against the table, restricted to the
// subcommand's registered surface.  Returns 0 on success, a usage exit code
// otherwise; every error names the subcommand it happened in.  Non-flag
// arguments are the caller's positionals.
int ParseFlags(const SubcommandSpec& sub, const std::vector<const char*>& flags,
               CliOptions* out) {
  for (const char* arg : flags) {
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "trace_stream %s: expected a --flag, got \"%s\"\n", sub.name, arg);
      return UsageFor(sub);
    }
    const char* body = arg + 2;
    const char* eq = std::strchr(body, '=');
    const std::string name = eq != nullptr ? std::string(body, eq) : std::string(body);
    const FlagSpec* spec = FindFlag(name);
    bool in_surface = false;
    for (const char* a : sub.flags) {
      if (name == a) {
        in_surface = true;
        break;
      }
    }
    if (spec == nullptr || !in_surface) {
      if (spec != nullptr) {
        // Known flag, wrong subcommand: say which subcommand rejected it.
        std::fprintf(stderr, "trace_stream %s: flag \"%s\" is not accepted by %s\n", sub.name,
                     arg, sub.name);
      } else {
        std::fprintf(stderr, "trace_stream %s: unknown flag \"%s\"\n", sub.name, arg);
      }
      return UsageFor(sub);
    }
    if (spec->takes_value != (eq != nullptr)) {
      std::fprintf(stderr, "trace_stream %s: flag \"--%s\" %s a value\n", sub.name, spec->name,
                   spec->takes_value ? "requires" : "does not take");
      return UsageFor(sub);
    }
    const std::string value = eq != nullptr ? std::string(eq + 1) : std::string();
    if (!spec->parse(out, value)) {
      std::fprintf(stderr, "trace_stream %s: invalid --%s \"%s\"\n", sub.name, name.c_str(),
                   value.c_str());
      return UsageFor(sub);
    }
  }
  return 0;
}

// Splits argv into positionals and flag arguments (anything led by "--").
void SplitArgs(int argc, const char* const* argv, std::vector<std::string>* positional,
               std::vector<const char*>* flags) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      flags->push_back(argv[i]);
    } else {
      positional->push_back(argv[i]);
    }
  }
}

// The argument handling every subcommand but generate shares: --help, the
// positional count, then the flag surface.  Returns false with *exit_code
// set when the command is already finished (help printed or a usage error).
// generate parses its legacy positionals before its flags, so flags win.
bool ParseSubcommandArgs(const SubcommandSpec& sub, int argc, const char* const* argv,
                         size_t min_positionals, size_t max_positionals, CliOptions* opt,
                         std::vector<std::string>* positional, int* exit_code) {
  std::vector<const char*> flags;
  SplitArgs(argc, argv, positional, &flags);
  if (WantsHelp(flags)) {
    *exit_code = HelpFor(sub);
    return false;
  }
  if (positional->size() < min_positionals || positional->size() > max_positionals) {
    *exit_code = UsageFor(sub);
    return false;
  }
  *exit_code = ParseFlags(sub, flags, opt);
  return *exit_code == 0;
}

// -- generate -----------------------------------------------------------------

int CmdGenerate(int argc, const char* const* argv) {
  const SubcommandSpec& sub = *FindSubcommand("generate");
  CliOptions opt;
  std::vector<std::string> positional;
  std::vector<const char*> flags;
  SplitArgs(argc, argv, &positional, &flags);
  if (WantsHelp(flags)) {
    return HelpFor(sub);
  }
  if (positional.empty() || positional.size() > 6) {
    return UsageFor(sub);
  }
  // Positionals in the legacy order first, then flags, so flags win.
  const std::string out_path = positional[0];
  if (positional.size() > 1) {
    opt.profile = positional[1];
  }
  if (positional.size() > 2 && !ParseHoursArg(positional[2], &opt.hours)) {
    return BadArg("hours", positional[2]);
  }
  if (positional.size() > 3 && !ParseInt32InRange(positional[3], 1, 4096, &opt.shards)) {
    return BadArg("shards", positional[3]);
  }
  if (positional.size() > 4 && !ParseInt32InRange(positional[4], 0, 4096, &opt.threads)) {
    return BadArg("threads", positional[4]);
  }
  if (positional.size() > 5 && !ParseUint64(positional[5], &opt.seed)) {
    return BadArg("seed", positional[5]);
  }
  if (const int rc = ParseFlags(sub, flags, &opt); rc != 0) {
    return rc;
  }

  StatusOr<FleetProfile> fleet = ParseFleetSpec(opt.profile, opt.users);
  if (!fleet.ok()) {
    std::fprintf(stderr, "trace_stream: %s\n", fleet.status().message().c_str());
    return Usage();
  }

  FleetGeneratorOptions options;
  options.base.seed = opt.seed;
  options.base.duration = Duration::Hours(opt.hours);
  options.shards_per_machine = opt.shards;
  options.threads = opt.threads;
  options.wave_users = opt.wave_users;
  if (opt.compress == "ans") {
    options.file_options.version = 4;  // codec defaults to ans in v4
  }

  auto stats = GenerateFleetToFile(fleet.value(), options, out_path);
  if (!stats.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", stats.status().message().c_str());
    return 1;
  }
  const ShardedStreamStats& s = stats.value();
  std::printf("wrote %s: %llu records (%s)\n", out_path.c_str(),
              static_cast<unsigned long long>(s.records_streamed),
              s.header.description.c_str());
  std::printf("spilled %.1f MB across %zu machine(s) x %d shards in %llu wave(s); fsck %s\n",
              static_cast<double>(s.spill_bytes_written) / 1048576.0,
              fleet.value().machines.size(), opt.shards,
              static_cast<unsigned long long>(s.waves),
              s.fsck.ok() ? "clean" : s.fsck.Summary().c_str());
  return s.fsck.ok() ? 0 : 1;
}

// -- analyze ------------------------------------------------------------------

// Prints the per-instance Table I verdicts; returns 0 only if every
// instance's per-user rate sits inside its profile band.
int ReportBands(const std::vector<ActivityBandCheck>& checks) {
  if (checks.empty()) {
    std::fprintf(stderr,
                 "check-bands: trace carries no fleet tag (or is too short); "
                 "generate it with this tool to tag it\n");
    return 1;
  }
  std::printf("\nTable I per-user activity bands\n");
  bool all_ok = true;
  for (const ActivityBandCheck& c : checks) {
    std::printf("  instance %zu %-3s %5d users  %8.1f records/user/day  band [%.0f, %.0f]  %s\n",
                c.instance, c.trace_name.c_str(), c.user_population,
                c.records_per_user_day, c.band.min_records_per_user_day,
                c.band.max_records_per_user_day, c.ok ? "ok" : "FAIL");
    all_ok = all_ok && c.ok;
  }
  return all_ok ? 0 : 1;
}

int CmdAnalyze(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("analyze"), argc, argv, 1, 1, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  const std::string path = positional[0];
  if (!opt.sweep.empty()) {
    // The cache sweep replays reconstructed transfers: the replay log is
    // recorded straight from the file, so the records are never all in memory.
    StatusOr<ReplayLog> log = ReplayLog::BuildFromFile(path);
    if (!log.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   log.status().message().c_str());
      return 1;
    }
    if (opt.sweep == "hier") {
      // §7: client size x server size x client write policy, one client
      // replay per client configuration over one nested server level,
      // client-0 rows served by one nested single-level replay; both are
      // cross-checked against reference replays (the parity gate).
      const HierarchySweepResult result = RunHierarchySweep(
          log.value(), HierarchySweepConfigs(), static_cast<unsigned>(opt.threads));
      std::fputs(RenderHierarchySweep(result).c_str(), stdout);
      return result.parity ? 0 : 1;
    }
    const std::vector<CacheConfig> configs = opt.sweep == "fig5"   ? Fig5Configs()
                                             : opt.sweep == "fig6" ? Fig6Configs()
                                                                   : Fig7Configs();
    const PlannedSweep planned = RunPlannedSweep(log.value(), configs, {},
                                                 static_cast<unsigned>(opt.threads));
    if (opt.sweep == "fig5") {
      std::fputs(RenderFigure5Table6(planned.points).c_str(), stdout);
    } else if (opt.sweep == "fig6") {
      std::fputs(RenderFigure6Table7(planned.points).c_str(), stdout);
    } else {
      std::fputs(RenderFigure7(planned.points).c_str(), stdout);
    }
    std::fputs(RenderMissRatioCurves(planned.curves).c_str(), stdout);
    std::printf("planned sweep: %zu stack pass(es), %zu fused replay(s), %zu fallback(s); "
                "parity %s\n",
                planned.stack_passes, planned.fused_replays, planned.replay_fallbacks,
                planned.parity ? "ok" : "FAIL");
    return planned.parity ? 0 : 1;
  }

  AnalyzeOptions analyze_options;
  analyze_options.path = path;
  analyze_options.threads = static_cast<unsigned>(opt.threads);
  analyze_options.check_bands = opt.check_bands;
  auto analysis = Analyze(analyze_options);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analyze failed: %s\n", analysis.status().message().c_str());
    return 1;
  }
  const TraceAnalysis& a = analysis.value();
  TraceFileSource source(path);  // header only, for the table label
  const std::string label = source.status().ok() ? source.header().machine : path;
  const std::vector<NamedAnalysis> named = {{label, &a}};
  std::fputs(RenderTable3(named).c_str(), stdout);
  std::fputs(RenderTable4(named).c_str(), stdout);
  std::fputs(RenderTable5(named).c_str(), stdout);
  // Which engine actually ran: a serial fallback (no block index, one
  // thread) is a fact worth surfacing, not a silent substitution.
  std::printf("analysis engine: %s (%u thread(s), %zu segment(s))\n", AnalyzeModeName(a.mode),
              a.threads_used, a.segments_used);
  if (opt.check_bands) {
    return ReportBands(a.band_checks);
  }
  return 0;
}

// -- serve --------------------------------------------------------------------

// SIGINT/SIGTERM request a clean shutdown: the fan-out sink starts
// discarding, the rings close, the analyzers finish their prefix.
// Written by the signal handler on whichever thread takes the signal, read
// by the generator thread: must be a lock-free atomic, not sig_atomic_t
// (which is only async-signal-safe within a single thread).
std::atomic<bool> g_stop{false};
void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Fans the generator's record stream out to every analyzer's ring.  After a
// stop signal it discards instead (counting what it threw away), so the
// generator drains quickly without blocking on rings nobody empties.
class FanoutRingSink : public TraceSink {
 public:
  explicit FanoutRingSink(std::vector<std::unique_ptr<TraceRing>>* rings) : rings_(rings) {}

  void Append(const TraceRecord& record) override {
    if (g_stop.load(std::memory_order_relaxed)) {
      ++discarded_after_stop_;
      return;
    }
    for (const std::unique_ptr<TraceRing>& ring : *rings_) {
      ring->Push(record);
    }
  }

  uint64_t discarded_after_stop() const { return discarded_after_stop_; }

 private:
  std::vector<std::unique_ptr<TraceRing>>* rings_;
  uint64_t discarded_after_stop_ = 0;
};

int CmdServe(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("serve"), argc, argv, 0, 0, &opt,
                                       &positional, &rc)) {
    return rc;
  }

  StatusOr<FleetProfile> fleet = ParseFleetSpec(opt.profile, opt.users);
  if (!fleet.ok()) {
    std::fprintf(stderr, "trace_stream: %s\n", fleet.status().message().c_str());
    return Usage();
  }

  FleetGeneratorOptions gen_options;
  gen_options.base.seed = opt.seed;
  gen_options.base.duration = Duration::Hours(opt.hours);
  gen_options.shards_per_machine = opt.shards;
  gen_options.threads = opt.threads;

  TraceRingOptions ring_options;
  ring_options.capacity = static_cast<size_t>(opt.capacity);
  ring_options.policy = opt.policy == "drop-oldest" ? RingOverflowPolicy::kDropOldest
                                                    : RingOverflowPolicy::kBlock;

  // One ring per analyzer; each analyzer sees the full stream, so their
  // results must agree bit-for-bit when nothing was dropped.
  const TraceHeader header = FleetTraceHeader(fleet.value(), gen_options);
  std::vector<std::unique_ptr<TraceRing>> rings;
  for (int i = 0; i < opt.analyzers; ++i) {
    rings.push_back(std::make_unique<TraceRing>(header, ring_options));
  }
  FanoutRingSink sink(&rings);

  g_stop.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::printf("serving %s: %.1f simulated hours, %d analyzer(s), ring capacity %zu (%s), "
              "snapshot every %.2fh\n",
              fleet.value().spec.c_str(), opt.hours, opt.analyzers, rings[0]->capacity(),
              opt.policy.c_str(), opt.snapshot_hours);
  std::fflush(stdout);

  // Generator thread: the sharded fleet generation streams its time-ordered
  // merge into the fan-out sink — no intermediate file.
  StatusOr<ShardedStreamStats> gen_result = Status::Error("generator did not run");
  std::thread generator([&]() {
    gen_result = GenerateFleetTo(fleet.value(), gen_options, sink);
    for (const std::unique_ptr<TraceRing>& ring : rings) {
      ring->Close();
    }
  });

  // Analyzer threads: each drains its ring through a rolling analyzer.
  // Analyzer 0 narrates its snapshots; the rest run silently and serve as
  // the live parity check.
  std::mutex print_mu;
  std::vector<StatusOr<TraceAnalysis>> results(static_cast<size_t>(opt.analyzers),
                                               Status::Error("analyzer did not run"));
  std::vector<uint64_t> snapshot_counts(static_cast<size_t>(opt.analyzers), 0);
  std::vector<std::thread> analyzers;
  for (int i = 0; i < opt.analyzers; ++i) {
    analyzers.emplace_back([&, i]() {
      RingTraceSource source(rings[static_cast<size_t>(i)].get());
      RollingAnalyzer::SnapshotCallback callback;
      if (i == 0) {
        callback = [&](const TraceAnalysis& snapshot, SimTime boundary) {
          const TraceRingStats ring_stats = rings[0]->stats();
          std::lock_guard<std::mutex> lock(print_mu);
          std::printf("snapshot +%5.2fh  %9llu records  %4zu users  %8.0f bytes/s  "
                      "ring occ %llu/%zu drops %llu\n",
                      (boundary - SimTime::Origin()).hours(),
                      static_cast<unsigned long long>(snapshot.overall.total_records),
                      snapshot.per_user.users.size(), snapshot.activity.average_throughput,
                      static_cast<unsigned long long>(ring_stats.produced -
                                                      ring_stats.consumed -
                                                      ring_stats.dropped_oldest),
                      ring_stats.capacity,
                      static_cast<unsigned long long>(ring_stats.dropped()));
          std::fflush(stdout);
        };
      }
      RollingAnalyzer rolling(Duration::Hours(opt.snapshot_hours), std::move(callback));
      TraceRecord record;
      while (source.Next(&record)) {
        rolling.Process(record);
      }
      snapshot_counts[static_cast<size_t>(i)] = rolling.snapshots_published();
      results[static_cast<size_t>(i)] = rolling.Finish();
    });
  }

  generator.join();
  for (std::thread& t : analyzers) {
    t.join();
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const bool stopped = g_stop.load(std::memory_order_relaxed);
  if (!stopped && !gen_result.ok()) {
    std::fprintf(stderr, "serve: generation failed: %s\n",
                 gen_result.status().message().c_str());
    return 1;
  }

  uint64_t total_drops = 0;
  for (size_t i = 0; i < rings.size(); ++i) {
    const TraceRingStats s = rings[i]->stats();
    total_drops += s.dropped();
    std::printf("ring[%zu]: produced %llu consumed %llu dropped %llu max occupancy %llu/%zu\n",
                i, static_cast<unsigned long long>(s.produced),
                static_cast<unsigned long long>(s.consumed),
                static_cast<unsigned long long>(s.dropped()),
                static_cast<unsigned long long>(s.max_occupancy), s.capacity);
  }

  const TraceAnalysis& a = results[0].value();
  // With zero drops every analyzer consumed the identical stream; their
  // analyses must agree bit-for-bit — the live end of the parity gate.
  bool parity = true;
  if (total_drops == 0) {
    for (size_t i = 1; i < results.size(); ++i) {
      parity = parity && AnalysisBitIdentical(a, results[i].value());
    }
  }

  const std::vector<NamedAnalysis> named = {{header.machine, &a}};
  std::fputs(RenderTable3(named).c_str(), stdout);
  std::fputs(RenderTable4(named).c_str(), stdout);
  std::printf("analysis engine: %s (%zu segment(s), %llu snapshot(s))\n",
              AnalyzeModeName(a.mode), a.segments_used,
              static_cast<unsigned long long>(snapshot_counts[0]));
  if (results.size() > 1 && total_drops == 0) {
    std::printf("analyzer parity: %s across %zu analyzers\n", parity ? "ok" : "FAIL",
                results.size());
  }
  std::printf("shutdown: %s (%llu record(s) discarded after stop)\n",
              stopped ? "signal" : "end of stream",
              static_cast<unsigned long long>(sink.discarded_after_stop()));

  int rc = parity ? 0 : 1;
  if (opt.check_bands && !stopped) {
    const int band_rc = ReportBands(CheckActivityBands(header, a.per_user));
    rc = rc != 0 ? rc : band_rc;
  }
  return rc;
}

// -- import / export ----------------------------------------------------------

// Converts a foreign text log into a binary v4 trace.  Records are
// materialized (both importers produce line numbers alongside), validated
// against the structural invariants by default, and written compressed.
int CmdImport(int argc, const char* const* argv) {
  CliOptions opt;
  opt.compress = "ans";  // imports default to compressed v4 blocks
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("import"), argc, argv, 2, 2, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  const std::string& in_path = positional[0];
  const std::string& out_path = positional[1];

  Trace trace;
  std::vector<uint64_t> lines;
  if (opt.format == "strace") {
    StatusOr<StraceImportResult> imported = ImportStraceLog(in_path);
    if (!imported.ok()) {
      std::fprintf(stderr, "import failed: %s\n", imported.status().message().c_str());
      return 1;
    }
    StraceImportResult& r = imported.value();
    const StraceImportStats& st = r.stats;
    std::printf("strace: %llu line(s) -> %llu record(s) from %llu pid(s), %llu file(s); "
                "%llu synthesized open(s), %llu failed call(s) skipped, %llu resumed "
                "join(s)\n",
                static_cast<unsigned long long>(st.lines),
                static_cast<unsigned long long>(st.records),
                static_cast<unsigned long long>(st.pids),
                static_cast<unsigned long long>(st.files),
                static_cast<unsigned long long>(st.synthesized_opens),
                static_cast<unsigned long long>(st.failed_calls),
                static_cast<unsigned long long>(st.resumed_joined));
    trace = std::move(r.trace);
    lines = std::move(r.record_lines);
  } else {
    TextTraceSource source(in_path);
    trace = Trace(source.header());
    TraceRecord record{};
    while (source.Next(&record)) {
      trace.Append(record);
    }
    if (!source.status().ok()) {
      std::fprintf(stderr, "import failed: %s\n", source.status().message().c_str());
      return 1;
    }
    lines = source.record_lines();
  }

  if (!opt.no_validate) {
    ValidateTraceOptions voptions;
    voptions.line_numbers = &lines;
    voptions.render_records = true;
    const ValidationResult v = ValidateTrace(trace, voptions);
    for (const std::string& w : v.warnings) {
      std::fprintf(stderr, "import warning: %s\n", w.c_str());
    }
    if (!v.ok()) {
      for (const std::string& e : v.errors) {
        std::fprintf(stderr, "import error: %s\n", e.c_str());
      }
      std::fprintf(stderr, "import: %zu structural error(s); fix the log or pass "
                   "--no-validate to write it anyway\n", v.errors.size());
      return 1;
    }
  }

  TraceWriterOptions options;
  options.version = 4;
  options.codec = opt.compress == "ans" ? TraceCodec::kAns : TraceCodec::kNone;
  const Status s = SaveTrace(out_path, trace, options);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(), s.message().c_str());
    return 1;
  }
  std::printf("imported %s: %llu record(s) -> %s (v4, %s)\n", in_path.c_str(),
              static_cast<unsigned long long>(trace.size()), out_path.c_str(),
              opt.compress.c_str());
  return 0;
}

// Streams a binary trace out as bsdtxt text — the exact ToString rendering
// ParseTraceRecord accepts, so export | import is the identity.
int CmdExport(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("export"), argc, argv, 1, 1, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  TraceFileSource source(positional[0]);
  if (!source.status().ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", positional[0].c_str(),
                 source.status().message().c_str());
    return 1;
  }
  Status s = Status::Ok();
  if (!opt.out.empty()) {
    // Published as TraceFileWriter publishes a binary trace: written beside
    // --out and renamed over it only when complete, so a failed export
    // leaves no partial file and an existing --out file untouched.
    const std::string temp = opt.out + ".tmp-" + std::to_string(::getpid());
    std::ofstream out(temp);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    s = WriteTextTrace(out, source);
    out.close();
    if (s.ok() && !out) {
      s = Status::Error("cannot close " + temp);
    }
    if (s.ok() && std::rename(temp.c_str(), opt.out.c_str()) != 0) {
      s = Status::Error("cannot rename " + temp + " to " + opt.out + ": " +
                        std::strerror(errno));
    }
    if (!s.ok()) {
      std::remove(temp.c_str());
    }
  } else {
    s = WriteTextTrace(std::cout, source);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "export failed: %s\n", s.message().c_str());
    return 1;
  }
  return 0;
}

// -- validate / slice / users / top -------------------------------------------

// LoadTrace (v1 through v4) with the CLI's error report.
bool LoadInput(const std::string& path, Trace* trace) {
  StatusOr<Trace> loaded = LoadTrace(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 loaded.status().message().c_str());
    return false;
  }
  *trace = std::move(loaded).value();
  return true;
}

int CmdValidate(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  Trace trace;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("validate"), argc, argv, 1, 1, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  if (!LoadInput(positional[0], &trace)) {
    return 1;
  }
  const ValidationResult v = ValidateTrace(trace);
  std::printf("%llu records\n%s", static_cast<unsigned long long>(v.records),
              v.Summary().c_str());
  std::printf(v.ok() ? "trace is structurally valid\n" : "trace is INVALID\n");
  return v.ok() ? 0 : 1;
}

// Writes the accesses wholly inside [from_s, to_s), rebased to start at 0,
// as a v4 trace compressed per --compress (ans by default, as for import).
int CmdSlice(int argc, const char* const* argv) {
  const SubcommandSpec& sub = *FindSubcommand("slice");
  CliOptions opt;
  opt.compress = "ans";
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(sub, argc, argv, 4, 4, &opt, &positional, &rc)) {
    return rc;
  }
  int64_t from_us = 0;
  int64_t to_us = 0;
  if (!ParseSecondsToMicros(positional[2], &from_us)) {
    return BadArg("from_s", positional[2]);
  }
  if (!ParseSecondsToMicros(positional[3], &to_us)) {
    return BadArg("to_s", positional[3]);
  }
  if (to_us < from_us) {
    std::fprintf(stderr, "trace_stream slice: to_s %s is before from_s %s\n",
                 positional[3].c_str(), positional[2].c_str());
    return UsageFor(sub);
  }
  Trace trace;
  if (!LoadInput(positional[0], &trace)) {
    return 1;
  }
  const Trace slice =
      SliceByTime(trace, SimTime::FromMicros(from_us), SimTime::FromMicros(to_us));
  TraceWriterOptions options;
  options.version = 4;
  options.codec = opt.compress == "ans" ? TraceCodec::kAns : TraceCodec::kNone;
  if (const Status s = SaveTrace(positional[1], slice, options); !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", positional[1].c_str(), s.message().c_str());
    return 1;
  }
  std::printf("wrote %zu of %zu records\n", slice.size(), trace.size());
  return 0;
}

int CmdUsers(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  Trace trace;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("users"), argc, argv, 1, 1, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  if (!LoadInput(positional[0], &trace)) {
    return 1;
  }
  std::printf("user\tevents\n");
  for (const auto& [user, events] : CountEventsByUser(trace)) {
    std::printf("%u\t%llu\n", user, static_cast<unsigned long long>(events));
  }
  return 0;
}

int CmdTop(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("top"), argc, argv, 1, 2, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  uint64_t n = 10;
  if (positional.size() > 1 && !ParseUint64(positional[1], &n)) {
    return BadArg("n", positional[1]);
  }
  Trace trace;
  if (!LoadInput(positional[0], &trace)) {
    return 1;
  }
  const PopularityStats stats = AnalyzePopularity(trace);
  std::printf("%llu distinct files, %llu accesses\n",
              static_cast<unsigned long long>(stats.distinct_files),
              static_cast<unsigned long long>(stats.total_accesses));
  std::printf("top %llu files' access share: %s\n", static_cast<unsigned long long>(n),
              FormatPercent(stats.TopAccessShare(n), 0).c_str());
  std::printf("top %llu files' byte share: %s\n", static_cast<unsigned long long>(n),
              FormatPercent(stats.TopByteShare(n), 0).c_str());
  std::printf("files covering 50%% of accesses: %llu\n",
              static_cast<unsigned long long>(stats.FilesForAccessFraction(0.5)));
  std::printf("files covering 90%% of accesses: %llu\n",
              static_cast<unsigned long long>(stats.FilesForAccessFraction(0.9)));
  return 0;
}

// -- report -------------------------------------------------------------------

// Takes no arguments: the standard traces' length, intensity and CSV
// directory come from BSDTRACE_HOURS, BSDTRACE_INTENSITY and BSDTRACE_CSV_DIR.
int CmdReport(int argc, const char* const* argv) {
  CliOptions opt;
  std::vector<std::string> positional;
  if (int rc = 0; !ParseSubcommandArgs(*FindSubcommand("report"), argc, argv, 0, 0, &opt,
                                       &positional, &rc)) {
    return rc;
  }
  return WriteReport(stdout) ? 0 : 1;
}

// -- info ---------------------------------------------------------------------

int CmdInfo(const char* path) {
  TraceFileSource source(path);
  if (!source.status().ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path, source.status().message().c_str());
    return 1;
  }
  std::printf("machine:     %s\n", source.header().machine.c_str());
  std::printf("description: %s\n", source.header().description.c_str());
  if (source.size_hint() >= 0) {
    std::printf("declared:    %lld records\n", static_cast<long long>(source.size_hint()));
  } else {
    std::printf("declared:    unknown (v1 or streamed file)\n");
  }

  // Full integrity pass: decodes every record, verifies v3 block checksums,
  // and cross-checks the footer index against the blocks.
  const TraceFileCheck check = CheckTraceFile(path);
  std::printf("format:      v%d\n", check.version);
  if (check.has_index) {
    std::printf("index:       %llu blocks, %llu records indexed\n",
                static_cast<unsigned long long>(check.index_entries),
                static_cast<unsigned long long>(check.indexed_records));
  } else if (check.version >= 3) {
    std::printf("index:       none (sequential-only v%d file)\n", check.version);
  } else {
    std::printf("index:       n/a (v%d has no block index)\n", check.version);
  }
  if (check.version >= 3) {
    std::printf("checksums:   %llu blocks %s\n",
                static_cast<unsigned long long>(check.blocks_verified),
                check.ok() ? "verified" : "scanned before failure");
  }
  if (check.version >= 4 && check.blocks_verified == 0 && !check.ok()) {
    // Codec and ratio come from verified blocks: when the first one fails,
    // both are unknown (an intact empty file has no blocks and says "none").
    std::printf("codec:       unknown (no block verified)\n");
  } else if (check.version >= 4) {
    std::printf("codec:       %s\n", check.codec.c_str());
    std::printf("compressed:  %llu bytes stored / %llu bytes raw (%.2fx)\n",
                static_cast<unsigned long long>(check.payload_stored_bytes),
                static_cast<unsigned long long>(check.payload_raw_bytes),
                check.payload_stored_bytes > 0
                    ? static_cast<double>(check.payload_raw_bytes) /
                          static_cast<double>(check.payload_stored_bytes)
                    : 1.0);
  }
  if (!check.ok()) {
    std::fprintf(stderr, "integrity check failed after %llu records: %s\n",
                 static_cast<unsigned long long>(check.records),
                 check.status.message().c_str());
    return 1;
  }
  std::printf("records:     %llu\n", static_cast<unsigned long long>(check.records));
  std::printf("span:        %.2f simulated hours\n",
              (check.last_time - SimTime::Origin()).hours());
  return 0;
}

}  // namespace

int TraceStreamMain(int argc, const char* const* argv) {
  if (argc < 2) {
    return Usage();
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "help") == 0 || std::strcmp(cmd, "--help") == 0 ||
      std::strcmp(cmd, "-h") == 0) {
    return argc >= 3 && FindSubcommand(argv[2]) != nullptr ? HelpFor(*FindSubcommand(argv[2]))
                                                           : HelpMain();
  }
  if (std::strcmp(cmd, "serve") == 0) {
    return CmdServe(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "report") == 0) {
    return CmdReport(argc - 2, argv + 2);
  }
  if (argc < 3) {
    const SubcommandSpec* sub = FindSubcommand(cmd);
    return sub != nullptr ? UsageFor(*sub) : Usage();
  }
  if (std::strcmp(cmd, "generate") == 0) {
    return CmdGenerate(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "analyze") == 0) {
    return CmdAnalyze(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "import") == 0) {
    return CmdImport(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "export") == 0) {
    return CmdExport(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "validate") == 0) {
    return CmdValidate(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "slice") == 0) {
    return CmdSlice(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "users") == 0) {
    return CmdUsers(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "top") == 0) {
    return CmdTop(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "info") == 0) {
    if (std::strcmp(argv[2], "--help") == 0 || std::strcmp(argv[2], "-h") == 0) {
      return HelpFor(*FindSubcommand("info"));
    }
    return CmdInfo(argv[2]);
  }
  return Usage();
}

}  // namespace bsdtrace
