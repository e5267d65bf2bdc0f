#include "src/workload/generator.h"

#include <gtest/gtest.h>

#include "src/trace/validate.h"

namespace bsdtrace {
namespace {

GeneratorOptions ShortRun(double hours = 2.0, uint64_t seed = 42) {
  GeneratorOptions options;
  options.duration = Duration::Hours(hours);
  options.seed = seed;
  return options;
}

TEST(Generator, ProducesNonEmptyValidTrace) {
  const GenerationResult result = GenerateTrace(ProfileA5(), ShortRun());
  EXPECT_GT(result.trace.size(), 1000u);
  EXPECT_GT(result.tasks_executed, 50u);
  const ValidationResult v = ValidateTrace(result.trace);
  EXPECT_TRUE(v.ok()) << v.Summary();
}

TEST(Generator, RecordsAreTimeSortedAndClipped) {
  const GeneratorOptions options = ShortRun();
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  SimTime prev = SimTime::Origin();
  for (const TraceRecord& r : trace.records()) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
  }
  EXPECT_LE(trace.duration(), options.duration);
}

TEST(Generator, DeterministicForSeed) {
  const Trace a = GenerateTrace(ProfileA5(), ShortRun(1.0, 7)).trace;
  const Trace b = GenerateTrace(ProfileA5(), ShortRun(1.0, 7)).trace;
  EXPECT_EQ(a, b);
}

TEST(Generator, DifferentSeedsDiffer) {
  const Trace a = GenerateTrace(ProfileA5(), ShortRun(1.0, 7)).trace;
  const Trace b = GenerateTrace(ProfileA5(), ShortRun(1.0, 8)).trace;
  EXPECT_NE(a, b);
}

TEST(Generator, AllEventTypesPresent) {
  const Trace trace = GenerateTrace(ProfileA5(), ShortRun(4.0)).trace;
  uint64_t counts[8] = {};
  for (const TraceRecord& r : trace.records()) {
    counts[static_cast<size_t>(r.type)] += 1;
  }
  for (EventType type : {EventType::kOpen, EventType::kCreate, EventType::kClose,
                         EventType::kSeek, EventType::kUnlink, EventType::kExecve}) {
    EXPECT_GT(counts[static_cast<size_t>(type)], 0u) << EventTypeName(type);
  }
}

TEST(Generator, DaemonRewritesEveryPeriod) {
  // In 30 simulated minutes each host file is rewritten ~10 times.
  MachineProfile profile = ProfileA5();
  const GenerationResult result = GenerateTrace(profile, ShortRun(0.5));
  // Count creates by the daemon user (user id 0).
  uint64_t daemon_creates = 0;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.type == EventType::kCreate && r.user_id == 0) {
      ++daemon_creates;
    }
  }
  const double expected = profile.daemon_host_count * 10.0;
  EXPECT_GT(daemon_creates, expected * 0.6);
  EXPECT_LT(daemon_creates, expected * 1.6);
}

TEST(Generator, HeaderDescribesTrace) {
  const Trace trace = GenerateTrace(ProfileE3(), ShortRun(0.2)).trace;
  EXPECT_EQ(trace.header().machine, "ucbernie");
  EXPECT_NE(trace.header().description.find("E3"), std::string::npos);
}

TEST(Generator, KernelCountersConsistentWithTrace) {
  const GenerationResult result = GenerateTrace(ProfileA5(), ShortRun(1.0));
  uint64_t execves = 0;
  for (const TraceRecord& r : result.trace.records()) {
    execves += r.type == EventType::kExecve ? 1 : 0;
  }
  // Counters include events clipped from the trace tail, so >=.
  EXPECT_GE(result.kernel_counters.execves, execves);
  EXPECT_GT(result.kernel_counters.bytes_read, 0u);
  EXPECT_GT(result.kernel_counters.bytes_written, 0u);
}

TEST(Generator, AllThreeProfilesGenerate) {
  for (const MachineProfile& profile : {ProfileA5(), ProfileE3(), ProfileC4()}) {
    const GenerationResult result = GenerateTrace(profile, ShortRun(0.5));
    EXPECT_GT(result.trace.size(), 100u) << profile.trace_name;
    const ValidationResult v = ValidateTrace(result.trace);
    EXPECT_TRUE(v.ok()) << profile.trace_name << "\n" << v.Summary();
  }
}

TEST(Generator, FsSurvivesWithoutExhaustion) {
  const GenerationResult result = GenerateTrace(ProfileA5(), ShortRun(2.0));
  EXPECT_GT(result.fs_stats.free_bytes, result.fs_stats.allocated_bytes);
}

TEST(Generator, IntensityScalesActivity) {
  MachineProfile calm = ProfileA5();
  MachineProfile busy = ProfileA5();
  busy.intensity = 2.5;
  const Trace a = GenerateTrace(calm, ShortRun(2.0, 3)).trace;
  const Trace b = GenerateTrace(busy, ShortRun(2.0, 3)).trace;
  // Busier machine: clearly more records (not necessarily exactly 2.5x —
  // sessions saturate), and still a valid trace.
  EXPECT_GT(b.size(), a.size() * 3 / 2);
  EXPECT_TRUE(ValidateTrace(b).ok());
}

TEST(ProfileByName, ResolvesAllNames) {
  EXPECT_EQ(ProfileByName("A5").machine, "ucbarpa");
  EXPECT_EQ(ProfileByName("E3").machine, "ucbernie");
  EXPECT_EQ(ProfileByName("C4").machine, "ucbcad");
  EXPECT_EQ(ProfileByName("ucbcad").machine, "ucbcad");
  // The lenient legacy wrapper still falls back to A5 (GenerateStandardTrace
  // and the examples rely on it); user-facing entry points use the
  // error-returning lookup below instead.
  EXPECT_EQ(ProfileByName("unknown").machine, "ucbarpa");
}

TEST(ProfileByNameOrError, UnknownNamesErrorListingValidOnes) {
  EXPECT_TRUE(ProfileByNameOrError("a5").ok());
  EXPECT_TRUE(ProfileByNameOrError("ucbernie").ok());
  const auto bad = ProfileByNameOrError("B9");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("B9"), std::string::npos);
  EXPECT_NE(bad.status().message().find("A5"), std::string::npos);
  EXPECT_NE(bad.status().message().find("E3"), std::string::npos);
  EXPECT_NE(bad.status().message().find("C4"), std::string::npos);
}

TEST(PopulationScale, RescalesMachineWideKnobsOnly) {
  MachineProfile profile = ProfileA5();
  const MachineProfile base = profile;
  profile.scale.users = base.user_population * 4;
  const MachineProfile scaled = ApplyPopulationScale(profile);
  EXPECT_EQ(scaled.user_population, base.user_population * 4);
  // Machine-wide arrival means shrink by the factor so per-user rates hold;
  // daemon fleet grows with the machine.
  EXPECT_NEAR(scaled.mail_delivery_mean.seconds(),
              base.mail_delivery_mean.seconds() / 4.0, 1e-9);
  EXPECT_EQ(scaled.daemon_host_count, base.daemon_host_count * 4);
  // Per-user behavior knobs are untouched.
  EXPECT_EQ(scaled.intensity, base.intensity);
  EXPECT_EQ(scaled.mix.compile, base.mix.compile);
  // Resolved profiles are fixed points: applying again changes nothing.
  const MachineProfile twice = ApplyPopulationScale(scaled);
  EXPECT_EQ(twice.user_population, scaled.user_population);
  EXPECT_EQ(twice.daemon_host_count, scaled.daemon_host_count);
}

TEST(PopulationScale, IdentityWhenUnsetOrEqual) {
  const MachineProfile base = ProfileA5();
  MachineProfile same = base;
  same.scale.users = base.user_population;
  EXPECT_EQ(ApplyPopulationScale(base).user_population, base.user_population);
  EXPECT_EQ(ApplyPopulationScale(same).mail_delivery_mean.micros(),
            base.mail_delivery_mean.micros());
}

}  // namespace
}  // namespace bsdtrace
