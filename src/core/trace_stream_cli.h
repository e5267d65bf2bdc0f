// The trace_stream CLI's implementation, exposed as a library function so
// the CLI tests can drive every command and exit path in-process
// (tools/trace_stream.cc is a two-line wrapper around this).
//
//   trace_stream generate <out.trc> [profile] [hours] [shards] [threads] [seed]
//                         [--profile=SPEC] [--users=N] [--hours=H]
//                         [--shards=S] [--threads=T] [--seed=X]
//                         [--compress=none|ans] [--wave-users=N]
//   trace_stream analyze  <in.trc> [--threads=N] [--check-bands]
//   trace_stream import   <in.log> <out.trc> [--format=bsdtxt|strace]
//                         [--compress=none|ans] [--no-validate]
//   trace_stream export   <in.trc> [--out=PATH]
//   trace_stream info     <in.trc>
//   trace_stream validate <in.trc>
//   trace_stream slice    <in.trc> <out.trc> <from_s> <to_s> [--compress=none|ans]
//   trace_stream users    <in.trc>
//   trace_stream top      <in.trc> [n]
//   trace_stream report
//
// `import` converts a foreign text log — this tool's own bsdtxt export or a
// raw `strace -f -ttt` syscall log — into a binary v4 trace, running the
// structural validator by default so a corrupt log fails with per-line
// diagnostics instead of skewing every downstream analysis.  `export`
// renders a binary trace as bsdtxt; export | import is the identity.
// `validate`, `slice`, `users` and `top` load the whole trace (any format
// version, v1 through v4): the structural validator, a time-window cut
// written as v4, per-user event counts, and file popularity.  `report`
// generates the three standard traces and the §7 fleet trace and prints
// every table, figure, ablation and extension of the reproduction
// (experiments.h, WriteReport).  `export --out` writes a temporary file
// and renames it over the target only when the export is complete.
//
// `generate` accepts a machine profile name (A5/E3/C4) or a fleet spec
// ("fleet:4xA5+2xE3+2xC4"; workload/fleet.h) and always generates through
// the fleet engine, so every trace it writes carries the fleet tag that
// `analyze --check-bands` validates against the Table I per-user bands.
// --users=N population-scales every machine instance to N users.  Positional
// arguments are kept for compatibility (the CI smoke jobs use them); flags
// override positionals.  Every numeric argument is strictly validated — a
// malformed or out-of-range value prints the usage and exits 2 rather than
// being silently read as 0.

#ifndef BSDTRACE_SRC_CORE_TRACE_STREAM_CLI_H_
#define BSDTRACE_SRC_CORE_TRACE_STREAM_CLI_H_

namespace bsdtrace {

// Exactly main()'s contract: argv[0] is the program name; returns the
// process exit code (0 success, 1 runtime/validation failure, 2 usage).
int TraceStreamMain(int argc, const char* const* argv);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CORE_TRACE_STREAM_CLI_H_
