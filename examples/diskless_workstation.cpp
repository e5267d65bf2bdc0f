// The paper's motivating question (§1, §5.1): how much network bandwidth
// does a diskless workstation need, and how many users can share one
// 10 Mbit/second network?
//
// Generates a trace, measures per-user demand at two time scales (Table IV),
// and sizes a shared network from the measured burstiness.
//
//   ./diskless_workstation [hours] [trace-name]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "src/analysis/analyzer.h"
#include "src/core/experiments.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

int main(int argc, char** argv) {
  using namespace bsdtrace;

  const double hours = argc > 1 ? std::atof(argv[1]) : 8.0;
  const std::string name = argc > 2 ? argv[2] : "A5";

  std::cout << "Sizing a network for diskless workstations from " << hours
            << " simulated hours of the " << name << " workload...\n\n";

  GeneratorOptions options;
  options.duration = Duration::Hours(hours);
  const Trace trace = GenerateTrace(ProfileByName(name), options).trace;
  AnalyzeOptions analyze_options;
  analyze_options.trace = &trace;
  const TraceAnalysis analysis = Analyze(analyze_options).value();

  std::cout << RenderTable4({{name, &analysis}}) << "\n";

  // Average demand, and a bursty-peak estimate: mean + 3 sigma of the
  // 10-second per-user throughput.
  const RunningStats& fine = analysis.activity.ten_second.throughput_per_user;
  const RunningStats& coarse = analysis.activity.ten_minute.throughput_per_user;
  const double avg_bps = coarse.mean() * 8;
  const double burst_bps = (fine.mean() + 3 * fine.stddev()) * 8;

  constexpr double kNetworkBps = 10e6;     // 10 Mbit/s Ethernet
  constexpr double kUsableFraction = 0.4;  // realistic sustained utilization

  const double users_by_average = kNetworkBps * kUsableFraction / std::max(avg_bps, 1.0);
  const double users_by_burst = kNetworkBps * kUsableFraction / std::max(burst_bps, 1.0);

  TextTable table({"Measure", "Value"});
  table.AddRow({"Average demand per active user", Cell(avg_bps / 1e3, 2) + " kbit/s"});
  table.AddRow({"Bursty demand (mean + 3 sigma, 10 s)", Cell(burst_bps / 1e3, 1) + " kbit/s"});
  table.AddRow({"10 Mbit/s network, 40% usable", Cell(kNetworkBps * kUsableFraction / 1e6, 1) +
                                                     " Mbit/s"});
  table.AddRow({"Users supportable (average demand)", Cell(static_cast<int64_t>(users_by_average))});
  table.AddRow({"Users supportable (every user bursting)",
                Cell(static_cast<int64_t>(users_by_burst))});
  std::cout << table.Render("Network sizing for diskless workstations") << "\n";

  std::cout << "Paper conclusion: \"a network-based file system using a single 10 Mbit/s\n"
               "network can support many hundreds of users without overloading the\n"
               "network\" — bandwidth is not the limiting factor.\n";
  return 0;
}
