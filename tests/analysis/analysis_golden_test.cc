// Golden pins for the Section-5 results.  The parity suites prove that the
// serial, segment-parallel and rolling engines agree with one another; they
// cannot see a change that all three make alike, because the engines share
// their collectors.  These tests pin the results themselves: every Table IV
// (ActivityStats, IntervalActivity) and Table I (PerUserActivityStats) field,
// floating-point values by bit pattern, plus the counts AnalysisBitIdentical
// compares, for fixed-seed A5, E3 and C4 traces, a mixed fleet, and a
// hand-built trace of interning edge cases.
//
// The file uses only the public analysis API, so it builds against older
// revisions of the collectors too: a rewrite is checked by building this
// file at the revision before it and seeing it pass there as well.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/analysis/parallel_analyzer.h"
#include "src/analysis/rolling_analyzer.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/analyze_helpers.h"
#include "tests/testing/temp_path.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

std::string Hex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

void AppendStats(std::string* out, const std::string& name, const RunningStats& s) {
  *out += name + " n=" + std::to_string(s.count()) + " mean=" + Hex(s.mean()) +
          " var=" + Hex(s.variance()) + " min=" + Hex(s.min()) + " max=" + Hex(s.max()) +
          " sum=" + Hex(s.sum()) + "\n";
}

void AppendInterval(std::string* out, const std::string& name, const IntervalActivity& a) {
  *out += name + " length_us=" + std::to_string(a.interval_length.micros()) +
          " intervals=" + std::to_string(a.intervals) +
          " max_active=" + std::to_string(a.max_active_users) + "\n";
  AppendStats(out, name + ".active_users", a.active_users);
  AppendStats(out, name + ".throughput", a.throughput_per_user);
}

void AppendCdf(std::string* out, const std::string& name, const WeightedCdf& cdf) {
  *out += name + " samples=" + std::to_string(cdf.sample_count()) +
          " runs=" + std::to_string(cdf.runs().size()) + " weight=" + Hex(cdf.total_weight()) +
          "\n";
}

// FNV-1a over the per-user totals, for traces with too many users to list.
std::string UsersDigest(const PerUserActivityStats& p) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const auto& [user, totals] : p.users) {
    mix(user);
    mix(totals.records);
    mix(totals.bytes);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Every Table IV / Table I field, plus the AnalysisBitIdentical counts, one
// fact per line.  `list_users` spells out each user's totals instead of the
// digest.
std::string Fingerprint(const TraceAnalysis& a, bool list_users = false) {
  std::string out;
  const OverallStats& o = a.overall;
  out += "overall duration_us=" + std::to_string(o.duration.micros()) +
         " records=" + std::to_string(o.total_records) + " types=";
  for (uint64_t count : o.count_by_type) {
    out += std::to_string(count) + ",";
  }
  out += " bytes=" + std::to_string(o.bytes_transferred) +
         " read=" + std::to_string(o.bytes_read) + " written=" + std::to_string(o.bytes_written) +
         "\n";
  AppendCdf(&out, "overall.inter_event", o.inter_event_interval_seconds);

  const ActivityStats& act = a.activity;
  out += "activity duration_us=" + std::to_string(act.duration.micros()) +
         " bytes=" + std::to_string(act.total_bytes) +
         " avg_throughput=" + Hex(act.average_throughput) +
         " users=" + std::to_string(act.distinct_users) + "\n";
  AppendInterval(&out, "ten_minute", act.ten_minute);
  AppendInterval(&out, "ten_second", act.ten_second);

  const PerUserActivityStats& p = a.per_user;
  out += "per_user duration_us=" + std::to_string(p.duration.micros()) +
         " days=" + Hex(p.days) + " records=" + std::to_string(p.total_records) +
         " bytes=" + std::to_string(p.total_bytes) + " users=" + std::to_string(p.users.size());
  if (list_users) {
    out += "\n";
    for (const auto& [user, totals] : p.users) {
      out += "  user " + std::to_string(user) + " records=" + std::to_string(totals.records) +
             " bytes=" + std::to_string(totals.bytes) + "\n";
    }
  } else {
    out += " digest=" + UsersDigest(p) + "\n";
  }
  AppendStats(&out, "records_per_user_day", p.records_per_user_day);
  AppendStats(&out, "active_users_per_day", p.active_users_per_day);

  for (size_t i = 0; i < a.sequentiality.by_mode.size(); ++i) {
    const ModeSequentiality& m = a.sequentiality.by_mode[i];
    out += "sequentiality[" + std::to_string(i) + "] accesses=" + std::to_string(m.accesses) +
           " whole=" + std::to_string(m.whole_file) + " seq=" + std::to_string(m.sequential) +
           " bytes=" + std::to_string(m.bytes) + " whole_bytes=" +
           std::to_string(m.whole_file_bytes) + " seq_bytes=" + std::to_string(m.sequential_bytes) +
           "\n";
  }
  AppendCdf(&out, "runs.by_runs", a.runs.by_runs);
  AppendCdf(&out, "runs.by_bytes", a.runs.by_bytes);
  AppendCdf(&out, "file_sizes.by_accesses", a.file_sizes.by_accesses);
  AppendCdf(&out, "file_sizes.by_bytes", a.file_sizes.by_bytes);
  AppendCdf(&out, "open_times", a.open_times.seconds);
  AppendCdf(&out, "lifetimes.by_files", a.lifetimes.by_files);
  AppendCdf(&out, "lifetimes.by_bytes", a.lifetimes.by_bytes);
  out += "lifetimes new_files=" + std::to_string(a.lifetimes.new_files) +
         " deaths=" + std::to_string(a.lifetimes.observed_deaths) + "\n";
  return out;
}

TraceAnalysis SerialOf(const MachineProfile& profile) {
  GeneratorOptions options;
  options.duration = Duration::Hours(2);
  options.seed = 1985;
  return AnalyzeForTest(GenerateTrace(profile, options).trace);
}

// clang-format off
const char* const kGoldenA5 = R"(
overall duration_us=7199570000 records=10439 types=0,2817,1249,4065,1365,287,0,656, bytes=10812909 read=8165618 written=2647291
overall.inter_event samples=5430 runs=260 weight=40b5360000000000
activity duration_us=7199570000 bytes=10812909 avg_throughput=40977787cb8dc8d3 users=10
ten_minute length_us=600000000 intervals=12 max_active=6
ten_minute.active_users n=12 mean=4012000000000001 var=3ff4000000000000 min=4000000000000000 max=4018000000000000 sum=404b000000000000
ten_minute.throughput n=54 mean=4074dbb549327104 var=40fcd2d679248b0c min=401462fc962fc963 max=409f28e2fc962fc9 sum=40d19960f5c28f5c
ten_second length_us=10000000 intervals=720 max_active=5
ten_second.active_users n=720 mean=400091111111110a var=3fe9eda740da7415 min=0000000000000000 max=4014000000000000 sum=40974c0000000000
ten_second.throughput n=1491 mean=4086a9b1e98ac3f4 var=416a9b4235d45c5e min=0000000000000000 max=40fa2f5b33333333 sum=41307fcae6666665
per_user duration_us=7199570000 days=3fb55501d5eada3d records=10439 bytes=10812909 users=10 digest=e68637b48c26e6ea
records_per_user_day n=10 mean=40c877c62a888be6 var=41b1719eeb994482 min=407d40727d731aa8 max=40ec626f187fe58f sum=40fe95b7b52aaede
active_users_per_day n=1 mean=4024000000000000 var=0000000000000000 min=4024000000000000 max=4024000000000000 sum=4024000000000000
sequentiality[0] accesses=2264 whole=1687 seq=2075 bytes=7858094 whole_bytes=5550009 seq_bytes=6637486
sequentiality[1] accesses=1778 whole=1238 seq=1767 bytes=2647291 whole_bytes=2336747 seq_bytes=2501517
sequentiality[2] accesses=23 whole=0 seq=9 bytes=307524 whole_bytes=0 seq_bytes=324
runs.by_runs samples=4430 runs=1148 weight=40b14e0000000000
runs.by_bytes samples=4430 runs=1148 weight=41649fbda0000000
file_sizes.by_accesses samples=4065 runs=1349 weight=40afc20000000000
file_sizes.by_bytes samples=4020 runs=1685 weight=41649fbda0000000
open_times samples=4065 runs=246 weight=40afc20000000000
lifetimes.by_files samples=1140 runs=365 weight=4091d00000000000
lifetimes.by_bytes samples=1095 runs=1093 weight=4140436e00000000
lifetimes new_files=1249 deaths=1140
)";

const char* const kGoldenE3 = R"(
overall duration_us=7199100000 records=11001 types=0,2984,1315,4296,1355,316,0,735, bytes=13561577 read=10638003 written=2923574
overall.inter_event samples=5651 runs=321 weight=40b6130000000000
activity duration_us=7199100000 bytes=13561577 avg_throughput=409d6f26be1c624d users=15
ten_minute length_us=600000000 intervals=12 max_active=11
ten_minute.active_users n=12 mean=4016555555555555 var=4018f8e38e38e38d min=4008000000000000 max=4026000000000000 sum=4050c00000000000
ten_minute.throughput n=67 mean=407515a48095fb9c var=41036477d9dc07a0 min=401651eb851eb852 max=40a28f7ae147ae14 sum=40d612a8369d036a
ten_second length_us=10000000 intervals=720 max_active=7
ten_second.active_users n=720 mean=400238e38e38e38a var=3ff8a1d139855f73 min=0000000000000000 max=401c000000000000 sum=4099a00000000000
ten_second.throughput n=1640 mean=4089d767462e7467 var=417027ef31428266 min=0000000000000000 max=40f8166800000000 sum=4134b17db333333b
per_user duration_us=7199100000 days=3fb554a6921735ef records=11001 bytes=13561577 users=15 digest=8ab77d1d66ff971c
records_per_user_day n=15 mean=40c130f33afbbe53 var=41a58302b257666c min=408740be7ce12e1d max=40eb8ae1a0d1f23c sum=41001de4074c026f
active_users_per_day n=1 mean=402e000000000000 var=0000000000000000 min=402e000000000000 max=402e000000000000 sum=402e000000000000
sequentiality[0] accesses=2472 whole=1864 seq=2289 bytes=10374295 whole_bytes=7061622 seq_bytes=8642711
sequentiality[1] accesses=1798 whole=1298 seq=1783 bytes=2912256 whole_bytes=2559867 seq_bytes=2724457
sequentiality[2] accesses=26 whole=0 seq=15 bytes=263708 whole_bytes=0 seq_bytes=540
runs.by_runs samples=4690 runs=1251 weight=40b2520000000000
runs.by_bytes samples=4690 runs=1251 weight=4169dddd20000000
file_sizes.by_accesses samples=4296 runs=1417 weight=40b0c80000000000
file_sizes.by_bytes samples=4244 runs=1766 weight=4169d85660000000
open_times samples=4296 runs=292 weight=40b0c80000000000
lifetimes.by_files samples=1171 runs=383 weight=40924c0000000000
lifetimes.by_bytes samples=1119 runs=1112 weight=41421c0680000000
lifetimes new_files=1315 deaths=1171
)";

const char* const kGoldenC4 = R"(
overall duration_us=7199940000 records=3915 types=0,781,878,1659,445,60,0,92, bytes=4501250 read=2090491 written=2410759
overall.inter_event samples=2104 runs=44 weight=40a0700000000000
activity duration_us=7199940000 bytes=4501250 avg_throughput=4083896e39ab903a users=5
ten_minute length_us=600000000 intervals=12 max_active=4
ten_minute.active_users n=12 mean=3ff6aaaaaaaaaaab var=3fe7c71c71c71c71 min=3ff0000000000000 max=4010000000000000 sum=4031000000000000
ten_minute.throughput n=17 mean=407b94c8c8c8c8c9 var=41143ca9492d4724 min=4031600000000000 max=40a4a6ac5f92c5f9 sum=40bd4e1555555556
ten_second length_us=10000000 intervals=720 max_active=4
ten_second.active_users n=720 mean=3ff1c16c16c16c1b var=3fc5bf76748f1b6b min=0000000000000000 max=4010000000000000 sum=4088f80000000000
ten_second.throughput n=799 mean=40819ae233e7a648 var=416307e15e159c3a min=0000000000000000 max=40f2cfcccccccccd sum=411b793400000006
per_user duration_us=7199940000 days=3fb55549aeb79781 records=3915 bytes=4501250 users=5 digest=948f0af420c0e473
records_per_user_day n=5 mean=40c25a0a05c17ae2 var=41ac2960e8ee5ab5 min=406b000ebee7b1db max=40e38f0aae832bd6 sum=40e6f08c8731d99c
active_users_per_day n=1 mean=4014000000000000 var=0000000000000000 min=4014000000000000 max=4014000000000000 sum=4014000000000000
sequentiality[0] accesses=592 whole=418 seq=506 bytes=2068843 whole_bytes=1354091 seq_bytes=1537387
sequentiality[1] accesses=1062 whole=878 seq=1062 bytes=2410759 whole_bytes=2359459 seq_bytes=2410759
sequentiality[2] accesses=5 whole=0 seq=4 bytes=21648 whole_bytes=0 seq_bytes=144
runs.by_runs samples=1812 runs=649 weight=409c500000000000
runs.by_bytes samples=1812 runs=649 weight=41512bc080000000
file_sizes.by_accesses samples=1659 runs=693 weight=4099ec0000000000
file_sizes.by_bytes samples=1654 runs=785 weight=41512bc080000000
open_times samples=1659 runs=47 weight=4099ec0000000000
lifetimes.by_files samples=842 runs=138 weight=408a500000000000
lifetimes.by_bytes samples=837 runs=827 weight=4132dd8c00000000
lifetimes new_files=878 deaths=842
)";

const char* const kGoldenFleet = R"(
overall duration_us=3599560000 records=10122 types=0,2528,1565,4089,1200,247,0,493, bytes=10849630 read=7247158 written=3602472
overall.inter_event samples=5289 runs=170 weight=40b4a90000000000
activity duration_us=3599560000 bytes=10849630 avg_throughput=40a78c4f1ba49181 users=13
ten_minute length_us=600000000 intervals=6 max_active=12
ten_minute.active_users n=6 mean=4020555555555556 var=4011e38e38e38e37 min=4014000000000000 max=4028000000000000 sum=4048800000000000
ten_minute.throughput n=49 mean=4077108f7fd36aec var=4105e6c5fe0bd0c8 min=400fda740da740da max=40a2810b17e4b17e sum=40d1a8addddddddd
ten_second length_us=10000000 intervals=360 max_active=8
ten_second.active_users n=360 mean=4011d82d82d82d81 var=3ff7163ff7e8bd22 min=4008000000000000 max=4020000000000000 sum=4099180000000000
ten_second.throughput n=1606 mean=40851c8c46231194 var=4165f6c3dbfedb2e min=0000000000000000 max=40fa24be66666666 sum=41308e2300000004
per_user duration_us=3599560000 days=3fa554aa744bca8a records=10122 bytes=10849630 users=13 digest=d3a3f19b1fc35b67
records_per_user_day n=13 mean=40d240436bb2e462 var=41b7c28f5f865c00 min=407b00d84b94978f max=40eb93dce53015e5 sum=410da86d8f02b320
active_users_per_day n=1 mean=402a000000000000 var=0000000000000000 min=402a000000000000 max=402a000000000000 sum=402a000000000000
sequentiality[0] accesses=2002 whole=1491 seq=1812 bytes=7106582 whole_bytes=5057437 seq_bytes=5789718
sequentiality[1] accesses=2073 whole=1560 seq=2071 bytes=3602472 whole_bytes=3428629 seq_bytes=3578311
sequentiality[2] accesses=14 whole=0 seq=8 bytes=140576 whole_bytes=0 seq_bytes=288
runs.by_runs samples=4402 runs=1135 weight=40b1320000000000
runs.by_bytes samples=4402 runs=1135 weight=4164b1abc0000000
file_sizes.by_accesses samples=4089 runs=1358 weight=40aff20000000000
file_sizes.by_bytes samples=4057 runs=1619 weight=4164b1abc0000000
open_times samples=4089 runs=166 weight=40aff20000000000
lifetimes.by_files samples=1432 runs=309 weight=4096600000000000
lifetimes.by_bytes samples=1400 runs=1384 weight=4148545980000000
lifetimes new_files=1565 deaths=1432
)";

const char* const kGoldenEdge = R"(
overall duration_us=250294000000 records=39168 types=0,10000,0,15000,7500,1668,0,5000, bytes=85847500 read=85847500 written=0
overall.inter_event samples=12500 runs=4 weight=40c86a0000000000
activity duration_us=250294000000 bytes=85847500 avg_throughput=40756fc94f19e0fa users=4
ten_minute length_us=600000000 intervals=418 max_active=4
ten_minute.active_users n=418 mean=4003e7809cc8e161 var=400e18345ef76100 min=0000000000000000 max=4010000000000000 sum=4090400000000000
ten_minute.throughput n=1040 mean=4061326f96f96f98 var=40d86442939c5bbb min=0000000000000000 max=407bea2fc962fc96 sum=4101773955555554
ten_second length_us=10000000 intervals=25030 max_active=4
ten_second.active_users n=25030 mean=3ff2db7cad0d9a72 var=400147977f97b343 min=0000000000000000 max=4010000000000000 sum=40dccf0000000000
ten_second.throughput n=29500 mean=40723022b63cbf23 var=410275bf3d776ae1 min=0000000000000000 max=4091f7999999999a sum=41605fc5c0000001
per_user duration_us=250294000000 days=40072ce512956d9b records=39168 bytes=85847500 users=4
  user 0 records=11668 bytes=0
  user 7 records=10000 bytes=26727500
  user 2147483648 records=12500 bytes=59120000
  user 4294967295 records=5000 bytes=0
records_per_user_day n=4 mean=40aa6847c26b5f8e var=412ec81f2c18fac6 min=409af7e18b91a0bf max=40b0daecf73b0477 sum=40ca6847c26b5f8e
active_users_per_day n=3 mean=4005555555555555 var=400c71c71c71c71d min=0000000000000000 max=4010000000000000 sum=4020000000000000
sequentiality[0] accesses=10000 whole=5000 seq=7500 bytes=85847500 whole_bytes=26727500 seq_bytes=52352500
sequentiality[1] accesses=0 whole=0 seq=0 bytes=0 whole_bytes=0 seq_bytes=0
sequentiality[2] accesses=0 whole=0 seq=0 bytes=0 whole_bytes=0 seq_bytes=0
runs.by_runs samples=12500 runs=6048 weight=40c86a0000000000
runs.by_bytes samples=12500 runs=6048 weight=419477b730000000
file_sizes.by_accesses samples=10000 runs=2501 weight=40c3880000000000
file_sizes.by_bytes samples=10000 runs=5000 weight=419477b730000000
open_times samples=10000 runs=2 weight=40c3880000000000
lifetimes.by_files samples=0 runs=0 weight=0000000000000000
lifetimes.by_bytes samples=0 runs=0 weight=0000000000000000
lifetimes new_files=0 deaths=0
)";
// clang-format on

// The pinned strings start with a newline so that they read as blocks.
std::string Pinned(const char* golden) { return std::string(golden).substr(1); }

TEST(AnalysisGolden, ProfileA5) {
  EXPECT_EQ(Fingerprint(SerialOf(ProfileA5())), Pinned(kGoldenA5));
}

TEST(AnalysisGolden, ProfileE3) {
  EXPECT_EQ(Fingerprint(SerialOf(ProfileE3())), Pinned(kGoldenE3));
}

TEST(AnalysisGolden, ProfileC4) {
  EXPECT_EQ(Fingerprint(SerialOf(ProfileC4())), Pinned(kGoldenC4));
}

TEST(AnalysisGolden, FleetTwoA5PlusC4) {
  auto fleet = ParseFleetSpec("2xA5+C4");
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(1);
  options.base.seed = 27;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  EXPECT_EQ(Fingerprint(AnalyzeForTest(generated.value().trace)), Pinned(kGoldenFleet));
}

// A hand-built trace of the cases that dense user interning must get right:
//   * sparse ids: 0, 7, 2^31 and UINT32_MAX (the largest 32-bit id);
//   * users active with zero bytes in an interval (UINT32_MAX only execs);
//   * empty 10-second intervals between episodes, and a whole empty day;
//   * close and seek records whose open never appears, billed to the user id
//     the record carries (0);
//   * a user whose activity in later intervals, segments and snapshots is
//     only the close of an open made earlier, so the stitcher first sees
//     the user through that close's transfer (2^31).
// Long enough (~38 K records) that a 4-thread file analysis cuts it into
// four segments.
Trace InterningEdgeTrace() {
  constexpr UserId kHighBit = UserId{1} << 31;
  constexpr UserId kMaxId = std::numeric_limits<UserId>::max();
  TraceBuilder b;
  OpenId oid = 1;
  FileId file = 100;
  for (const int day : {0, 2}) {  // day 1 holds no record at all
    for (int i = 0; i < 2500; ++i) {
      const double t = day * 86400.0 + i * 31.0;
      b.WholeRead(t, t + 1.0, oid++, file, 4096 + i, /*user=*/7);
      b.Execve(t + 2.0, file + 1, 512, kMaxId);
      const OpenId held = oid++;
      b.Open(t + 3.0, held, file + 2, 1 << 16, AccessMode::kReadOnly, kHighBit);
      b.Seek(t + 3.5, 1'000'000'000 + i, file + 3, 100, 0);  // open never seen
      b.Close(t + 4.0, 2'000'000'000 + i, file + 3, 300, 300);  // open never seen
      if (i % 2 == 0) {
        b.Seek(t + 12.0, held, file + 2, 2000 + i, 100);
      }
      if (i % 3 == 0) {
        b.Unlink(t + 13.0, file + 4, /*user=*/0);
      }
      b.Close(t + 25.0, held, file + 2, 9000 + i, 1 << 16);
      file += 5;
    }
  }
  return b.Build();
}

TEST(AnalysisGolden, InterningEdgeCasesAgreeAcrossEngines) {
  const Trace trace = InterningEdgeTrace();
  const TraceAnalysis serial = AnalyzeForTest(trace);

  AnalyzeOptions rolling_options;
  TraceVectorSource source(trace);
  rolling_options.source = &source;
  rolling_options.snapshot_interval = Duration::Seconds(1);
  uint64_t snapshots = 0;
  rolling_options.on_snapshot = [&snapshots](const TraceAnalysis&, SimTime) { ++snapshots; };
  auto rolling = Analyze(rolling_options);
  ASSERT_TRUE(rolling.ok()) << rolling.status().message();
  EXPECT_GT(snapshots, 1000u);
  EXPECT_TRUE(AnalysisBitIdentical(serial, rolling.value()))
      << "rolling 1 s snapshots diverge from the serial analysis";

  const std::string path = TempPath("interning_edge.trc");
  TraceWriterOptions writer;
  writer.version = 4;
  writer.block_target_bytes = 4096;
  ASSERT_TRUE(SaveTrace(path, trace, writer).ok());
  AnalyzeOptions file_options;
  file_options.path = path;
  file_options.threads = 4;
  auto parallel = Analyze(file_options);
  std::remove(path.c_str());
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_EQ(parallel.value().segments_used, 4u);
  EXPECT_TRUE(AnalysisBitIdentical(serial, parallel.value()))
      << "4-thread file analysis diverges from the serial analysis";

  EXPECT_EQ(Fingerprint(serial, /*list_users=*/true), Pinned(kGoldenEdge));
}

}  // namespace
}  // namespace bsdtrace
