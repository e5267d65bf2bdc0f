#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/workload/apps.h"
#include "src/workload/scheduler.h"
#include "src/workload/system_image.h"

namespace bsdtrace {
namespace {

// The clock starts at 08:00 of day one, so traces begin in the morning ramp.
constexpr double kStartHourOfDay = 8.0;

// Diurnal activity multiplier in [night_activity, 1]: a smooth bump peaking
// mid-afternoon (the traces were gathered during the busiest weekdays).
double DiurnalIntensity(SimTime t, double night_activity) {
  const double hour = std::fmod(kStartHourOfDay + t.seconds() / 3600.0, 24.0);
  // Raised-cosine bump over the 08:00-22:00 working window, peak ~14:30.
  double bump = 0.0;
  if (hour > 8.0 && hour < 22.0) {
    bump = 0.5 * (1.0 - std::cos(2.0 * M_PI * (hour - 8.0) / 14.0));
  }
  return night_activity + (1.0 - night_activity) * bump;
}

// Shared generation state plumbed through task closures.
struct GenState {
  const MachineProfile* profile = nullptr;
  const SystemImage* image = nullptr;
  TracedKernel* kernel = nullptr;
  EventScheduler* scheduler = nullptr;
  SimTime end;
  std::vector<UserState> users;
  // Global user indices incoming mail may target (the shard's own users) and
  // the inter-arrival mean multiplier compensating for the narrowed set.
  const std::vector<int>* mail_recipients = nullptr;
  double mail_scale = 1.0;
};

WorkloadContext MakeContext(GenState& gs, Rng* rng, SimTime start) {
  return WorkloadContext(gs.kernel, gs.profile, rng, start, gs.scheduler);
}

// Picks a task by the profile mix and runs it.
void RunOneTask(GenState& gs, UserState& user, WorkloadContext& ctx) {
  const TaskMix& mix = gs.profile->mix;
  const std::vector<double> weights = {mix.compile, mix.edit, mix.mail, mix.shell,
                                       mix.format, mix.admin, mix.cad};
  switch (user.rng.WeightedIndex(weights)) {
    case 0:
      RunCompileTask(ctx, user, *gs.image);
      break;
    case 1:
      RunEditTask(ctx, user, *gs.image);
      break;
    case 2:
      RunMailTask(ctx, user, *gs.image);
      break;
    case 3:
      RunShellTask(ctx, user, *gs.image);
      break;
    case 4:
      RunFormatTask(ctx, user, *gs.image);
      break;
    case 5:
      RunAdminTask(ctx, user, *gs.image);
      break;
    default:
      RunCadTask(ctx, user, *gs.image);
      break;
  }
}

void ScheduleNextLogin(GenState& gs, size_t user_index, SimTime from);

// One session: login activity, then a think/task loop until the session
// length is exhausted, then schedule the next login.
void RunSessionTask(GenState& gs, size_t user_index, SimTime start) {
  UserState& user = gs.users[user_index];
  const MachineProfile& prof = *gs.profile;
  const Duration session_len =
      Duration::Seconds(user.rng.Exponential(prof.mean_session_length.seconds()));
  const SimTime session_end = start + session_len;

  WorkloadContext ctx = MakeContext(gs, &user.rng, start);
  RunLoginActivity(ctx, user, *gs.image);

  // Task loop.  The whole session runs as one atomic task on the user's
  // private timeline; the merged trace is re-sorted afterwards.
  const Duration think = prof.mean_think_time * (1.0 / std::max(prof.intensity, 0.05));
  while (ctx.now() < session_end && ctx.now() < gs.end) {
    ctx.AdvanceExp(think);
    if (ctx.now() >= session_end || ctx.now() >= gs.end) {
      break;
    }
    RunOneTask(gs, user, ctx);
  }

  ScheduleNextLogin(gs, user_index, ctx.now());
}

// Schedules the user's next login via thinning against the diurnal curve.
void ScheduleNextLogin(GenState& gs, size_t user_index, SimTime from) {
  UserState& user = gs.users[user_index];
  const MachineProfile& prof = *gs.profile;
  // Mean gap between logins if the machine were busy all day.
  const double mean_gap_s = 24.0 * 3600.0 /
                            std::max(prof.day_login_rate * prof.intensity, 0.05) * 0.55;
  SimTime t = from;
  for (int guard = 0; guard < 200; ++guard) {
    t += Duration::Seconds(user.rng.Exponential(mean_gap_s));
    if (t >= gs.end) {
      return;  // no more logins within the trace
    }
    if (user.rng.NextDouble() < DiurnalIntensity(t, prof.night_activity)) {
      GenState* gsp = &gs;
      gs.scheduler->At(t, [gsp, user_index](SimTime start) {
        RunSessionTask(*gsp, user_index, start);
      });
      return;
    }
  }
}

// Self-rescheduling daemon tick for one host file.
void ScheduleDaemon(GenState& gs, int host, SimTime when, uint64_t rng_seed) {
  if (when >= gs.end) {
    return;
  }
  GenState* gsp = &gs;
  gs.scheduler->At(when, [gsp, host, rng_seed](SimTime start) {
    Rng rng(rng_seed);
    WorkloadContext ctx = MakeContext(*gsp, &rng, start);
    RunDaemonTick(ctx, *gsp->image, host);
    // Re-arm: packets arrive every period with a little network jitter.
    const Duration period = gsp->profile->daemon_period;
    const Duration jitter = Duration::Millis(static_cast<int64_t>(rng.UniformInt(-400, 400)));
    ScheduleDaemon(*gsp, host, start + period + jitter, rng.NextU64());
  });
}

// Self-rescheduling background system activity (cron/syslog/getty).
void ScheduleSystemTick(GenState& gs, SimTime when, uint64_t rng_seed) {
  if (when >= gs.end) {
    return;
  }
  GenState* gsp = &gs;
  gs.scheduler->At(when, [gsp, rng_seed](SimTime start) {
    Rng rng(rng_seed);
    WorkloadContext ctx = MakeContext(*gsp, &rng, start);
    RunSystemTick(ctx, *gsp->image);
    const double mean = gsp->profile->system_tick_mean.seconds() /
                        std::max(gsp->profile->intensity, 0.05);
    ScheduleSystemTick(*gsp, start + Duration::Seconds(rng.Exponential(mean)), rng.NextU64());
  });
}

// Self-rescheduling incoming-mail delivery, thinned by the diurnal curve
// (people send mail during the day).  Recipients are drawn from the shard's
// own users; the full plan draws over the whole population, and its draw is
// bit-identical to the historical uniform-over-home_dirs draw.
void ScheduleMailDelivery(GenState& gs, SimTime when, uint64_t rng_seed) {
  if (when >= gs.end) {
    return;
  }
  GenState* gsp = &gs;
  gs.scheduler->At(when, [gsp, rng_seed](SimTime start) {
    Rng rng(rng_seed);
    WorkloadContext ctx = MakeContext(*gsp, &rng, start);
    const std::vector<int>& recipients = *gsp->mail_recipients;
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(recipients.size()) - 1));
    DeliverMail(ctx, *gsp->image, static_cast<size_t>(recipients[pick]));
    const double mean = gsp->profile->mail_delivery_mean.seconds() * gsp->mail_scale;
    const double intensity =
        std::max(0.25, DiurnalIntensity(start, gsp->profile->night_activity));
    ScheduleMailDelivery(*gsp, start + Duration::Seconds(rng.Exponential(mean / intensity)),
                         rng.NextU64());
  });
}

std::string TraceDescription(const MachineProfile& profile, const GeneratorOptions& options) {
  return "synthetic " + profile.trace_name + " trace, " + options.duration.ToString() +
         ", seed " + std::to_string(options.seed);
}

}  // namespace

namespace internal {

ShardPlan FullPlan(const MachineProfile& profile) {
  ShardPlan plan;
  plan.users.reserve(static_cast<size_t>(profile.user_population));
  for (int u = 0; u < profile.user_population; ++u) {
    plan.users.push_back(u);
  }
  plan.daemon_hosts.reserve(static_cast<size_t>(profile.daemon_host_count));
  for (int h = 0; h < profile.daemon_host_count; ++h) {
    plan.daemon_hosts.push_back(h);
  }
  return plan;
}

GenerationResult RunShard(const MachineProfile& profile, const GeneratorOptions& options,
                          const ShardPlan& plan) {
  auto fs = std::make_unique<FileSystem>(options.fs_options);
  Trace trace(TraceHeader{.machine = profile.machine,
                          .description = TraceDescription(profile, options)});
  TracedKernel kernel(fs.get(), &trace);

  // Every shard builds the shared system tree from the same root stream, so
  // shared FileIds agree across replicas; only owned homes are materialized.
  Rng root(options.seed);
  std::vector<bool> owned(static_cast<size_t>(profile.user_population), false);
  for (int u : plan.users) {
    owned[static_cast<size_t>(u)] = true;
  }
  const SystemImage image = BuildSystemImage(*fs, profile, root, &owned);

  // Activity randomness: shard 0 continues the root stream (so the full plan
  // reproduces the serial path draw-for-draw); other shards switch to an
  // independent counter-derived stream of the same seed family.
  Rng activity = plan.shard_index == 0 ? std::move(root)
                                       : Rng::Stream(options.seed, static_cast<uint64_t>(plan.shard_index));

  EventScheduler scheduler;
  // Steady state keeps roughly one pending task per user (the next login or
  // the session's next step) plus one per daemon host and the machine-wide
  // timers; double the user count covers login-burst overlap.
  scheduler.Reserve(2 * plan.users.size() + plan.daemon_hosts.size() + 8);
  GenState gs;
  gs.profile = &profile;
  gs.image = &image;
  gs.kernel = &kernel;
  gs.scheduler = &scheduler;
  gs.end = SimTime::Origin() + options.duration;
  gs.mail_recipients = &plan.users;
  gs.mail_scale = plan.mail_scale;

  // Users.  Ids start at 2 (0 = network daemon, 1 = printer daemon) and are
  // global, so /tmp scratch names never collide across shards.
  gs.users.reserve(plan.users.size());
  for (int u : plan.users) {
    UserState user;
    user.id = static_cast<UserId>(u + 2);
    user.home = image.home_dirs[static_cast<size_t>(u)];
    user.mailbox = image.mail_dir + "/user" + std::to_string(u);
    user.rng = activity.Fork();
    for (int i = 0; i < 6; ++i) {
      user.sources.push_back(user.home + "/src" + std::to_string(i) + ".c");
    }
    for (int i = 0; i < 3; ++i) {
      user.docs.push_back(user.home + "/doc" + std::to_string(i));
    }
    if (profile.mix.cad > 0) {
      for (int i = 0; i < 3; ++i) {
        user.decks.push_back(user.home + "/deck" + std::to_string(i));
      }
    }
    gs.users.push_back(std::move(user));
  }

  // Kick off the shard's daemon hosts (staggered by global host index) and
  // machine-wide background activity where the plan assigns it.
  for (int h : plan.daemon_hosts) {
    const Duration stagger =
        profile.daemon_period * (static_cast<double>(h) /
                                 std::max(profile.daemon_host_count, 1));
    ScheduleDaemon(gs, h, SimTime::Origin() + stagger, activity.NextU64());
  }
  if (plan.run_system_tick) {
    ScheduleSystemTick(gs, SimTime::Origin() + Duration::Seconds(5), activity.NextU64());
  }
  if (plan.run_mail && !plan.users.empty()) {
    ScheduleMailDelivery(gs, SimTime::Origin() + Duration::Seconds(30), activity.NextU64());
  }
  for (size_t u = 0; u < gs.users.size(); ++u) {
    ScheduleNextLogin(gs, u, SimTime::Origin());
  }

  GenerationResult result;
  result.tasks_executed = scheduler.Run(gs.end);

  // Merge the per-user timelines: stable sort by timestamp.
  std::stable_sort(trace.records().begin(), trace.records().end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  // Tasks may run a little past the horizon; clip trailing records so the
  // trace duration matches the request.
  while (!trace.records().empty() && trace.records().back().time > gs.end) {
    trace.records().pop_back();
  }

  result.kernel_counters = kernel.counters();
  result.fs_stats = fs->Statistics();
  result.fsck = CheckFileSystem(*fs);
  result.shared_image_watermark = image.shared_tree_watermark;
  result.trace = std::move(trace);
  return result;
}

}  // namespace internal

GenerationResult GenerateTrace(const MachineProfile& profile, const GeneratorOptions& options) {
  // Resolve any pending PopulationScale target first, so the serial path and
  // every sharded/fleet path simulate the same resolved machine.
  const MachineProfile resolved = ApplyPopulationScale(profile);
  return internal::RunShard(resolved, options, internal::FullPlan(resolved));
}

}  // namespace bsdtrace
