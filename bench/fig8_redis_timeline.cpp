// Figure 8 reproduction: Redis (minikv) throughput over a 70-second
// timeline while DynaCut disables the SET command at t≈18 s and re-enables
// it at t≈48 s, compared against an unmodified server.
//
// A guest benchmark client (kvbench) loops GET requests and counts
// completed replies in guest memory; the host samples the counter once per
// virtual second. The customization window freezes the server, so the dip
// in the affected bucket is emergent, not scripted.
#include <cstdio>

#include "apps/minikv.hpp"
#include "bench_common.hpp"
#include "core/dynacut.hpp"
#include "obs/bus.hpp"
#include "obs/timeline.hpp"

namespace {

using namespace dynacut;
using bench::run_until;

constexpr int kSeconds = 70;
constexpr int kDisableAt = 18;
constexpr int kReenableAt = 48;
constexpr uint64_t kTick = 1'000'000'000;  // 1 virtual second

struct Timeline {
  std::vector<double> kreq_per_s;
  core::CustomizeReport disable_rep;
  core::CustomizeReport reenable_rep;
  /// Toggle markers as observed on the event bus (not scripted): the
  /// TimelineRecorder derives them from committed txn.commit events.
  std::vector<obs::TimelineRecorder::Toggle> toggles;
  uint64_t start = 0;
};

uint64_t read_ops(const os::Os& vos, int client) {
  const os::Process* c = vos.process(client);
  const os::LoadedModule* m = c->module_named("kvbench");
  uint64_t ops = 0;
  c->mem.peek(m->base + m->binary->find_symbol("ops")->value, &ops, 8);
  return ops;
}

Timeline run_timeline(bool with_dynacut) {
  // Calibrated per-syscall cost so one virtual second holds a realistic
  // number of request round-trips without an impractically slow simulation.
  os::Os vos;
  vos.costs().base = 20'000;  // 20 µs per syscall

  auto kv = apps::build_minikv();
  int server = vos.spawn(kv, {apps::build_libc()});
  run_until(vos, [&] { return vos.has_listener(apps::kMinikvPort); });
  int client = vos.spawn(apps::build_kvbench(), {apps::build_libc()});

  // Feature discovery (offline, like the paper's profiling step).
  core::FeatureSpec set_spec;
  if (with_dynacut) {
    // The wanted trace must cover the GET-hit path without using SET, or
    // tracediff over-eliminates shared lookup code (paper §3.2.3) — here
    // SETRANGE populates the key the wanted GET then finds.
    set_spec = bench::discover_feature(
        "SET", kv, apps::kMinikvPort, "minikv",
        {"SET k v\n", "GET k\n", "PING\n"},
        {"SETRANGE k 0 hello\n", "GET k\n", "GET miss\n", "PING\n",
         "DEL k\n"},
        "dispatch_err");
  }

  // The toggle timeline is consumed from the obs layer, not kept by hand:
  // the recorder sees only committed customizations.
  obs::EventBus bus;
  obs::TimelineRecorder recorder(bus);
  vos.set_event_bus(&bus);

  core::DynaCut dc(vos, server);
  dc.set_observer(&bus);
  Timeline out;
  uint64_t prev_ops = 0;
  const uint64_t start = vos.now();
  out.start = start;
  for (int t = 0; t < kSeconds; ++t) {
    if (with_dynacut && t == kDisableAt) {
      // Cold toggle: no baseline yet, so the dump is full.
      out.disable_rep =
          dc.disable_feature({.feature = set_spec,
                              .removal = core::RemovalPolicy::kBlockFirstByte,
                              .trap = core::TrapPolicy::kRedirect});
    }
    if (with_dynacut && t == kReenableAt) {
      // Warm toggle: 30 virtual seconds of serving dirtied the working
      // set; the incremental dump shares the rest from the baseline.
      out.reenable_rep = dc.restore_feature("SET");
    }
    // Absolute schedule: the rewrite window (which advanced the clock while
    // the server was frozen) eats into its bucket — the throughput dip.
    uint64_t deadline = start + static_cast<uint64_t>(t + 1) * kTick;
    if (deadline > vos.now()) vos.run_ticks(deadline - vos.now());
    uint64_t ops = read_ops(vos, client);
    out.kreq_per_s.push_back(static_cast<double>(ops - prev_ops) / 1000.0);
    prev_ops = ops;
  }
  out.toggles = recorder.toggles();
  return out;
}

}  // namespace

int main() {
  bench::Report report;
  bench::banner(
      "Figure 8: minikv throughput under DynaCut — disable SET at t=18s,\n"
      "re-enable at t=48s (guest GET-loop client; counter sampled per\n"
      "virtual second)");

  Timeline vanilla = run_timeline(false);
  Timeline dyna = run_timeline(true);

  // Toggle markers come from the obs timeline, bucketed onto the virtual-
  // second grid — the recorder observed the commits, nothing is scripted.
  std::vector<std::string> markers(kSeconds);
  for (const auto& tg : dyna.toggles) {
    int bucket = static_cast<int>((tg.vclock - dyna.start) / kTick);
    if (bucket < 0 || bucket >= kSeconds) continue;
    markers[bucket] += "  <- ";
    markers[bucket] += tg.disabled ? "disable " : "re-enable ";
    markers[bucket] += tg.feature;
  }

  std::printf("\n%6s %14s %14s\n", "t_s", "vanilla_kreq/s", "dynacut_kreq/s");
  for (int t = 0; t < kSeconds; ++t) {
    std::printf("%6d %14.2f %14.2f%s\n", t, vanilla.kreq_per_s[t],
                dyna.kreq_per_s[t], markers[t].c_str());
  }

  auto avg = [](const std::vector<double>& v, int from, int to) {
    double s = 0;
    for (int i = from; i < to; ++i) s += v[i];
    return s / (to - from);
  };
  double steady = avg(dyna.kreq_per_s, 5, kDisableAt);
  double during = dyna.kreq_per_s[kDisableAt];
  double after = avg(dyna.kreq_per_s, kDisableAt + 2, kReenableAt);
  std::printf(
      "\nservice interruption: disable rewrite %.3f s, re-enable rewrite "
      "%.3f s\n",
      dyna.disable_rep.timing.total_seconds(),
      dyna.reenable_rep.timing.total_seconds());

  // Freeze-window breakdown: the disable pays a full dump (no baseline),
  // the re-enable rides the incremental path.
  std::printf("\n%-12s %8s %8s %9s %8s %8s %9s %10s\n", "toggle", "dump_s",
              "patch_s", "restore_s", "total_s", "pg_dump", "pg_share",
              "pg_restore");
  for (const auto& [name, rep] :
       {std::pair<const char*, const core::CustomizeReport*>{
            "disable", &dyna.disable_rep},
        {"re-enable", &dyna.reenable_rep}}) {
    const auto& tm = rep->timing;
    std::printf("%-12s %8.3f %8.3f %9.3f %8.3f %8llu %8llu %9llu\n", name,
                tm.checkpoint_ns / 1e9, tm.code_update_ns / 1e9,
                tm.restore_ns / 1e9, tm.total_seconds(),
                static_cast<unsigned long long>(rep->edits.pages_dumped),
                static_cast<unsigned long long>(rep->edits.pages_shared),
                static_cast<unsigned long long>(rep->edits.pages_restored));
  }
  std::printf(
      "steady %.2f kreq/s -> dip bucket %.2f kreq/s -> recovered %.2f "
      "kreq/s\n",
      steady, during, after);
  std::printf(
      "Shape checks: no termination, a sub-second dip at both rewrite\n"
      "points, and full recovery to the vanilla level — as in the paper.\n");

  // The obs-derived toggle timeline must agree with the schedule the bench
  // drove: one disable in the t=18 bucket, one re-enable in the t=48 bucket.
  if (report.gate(
          "obs_timeline_matches_schedule",
          dyna.toggles.size() == 2 &&
              static_cast<int>((dyna.toggles[0].vclock - dyna.start) /
                               kTick) == kDisableAt &&
              dyna.toggles[0].disabled &&
              static_cast<int>((dyna.toggles[1].vclock - dyna.start) /
                               kTick) == kReenableAt &&
              !dyna.toggles[1].disabled,
          "the obs toggle timeline must show one disable at t=18 and one "
          "re-enable at t=48")) {
    std::printf("obs timeline: %zu toggles, buckets match the schedule\n",
                dyna.toggles.size());
  }

  // The incremental path must shrink the freeze window (checkpoint +
  // restore) of the warm toggle by at least 5x against the cold one.
  double cold_freeze = (dyna.disable_rep.timing.checkpoint_ns +
                        dyna.disable_rep.timing.restore_ns) /
                       1e9;
  double warm_freeze = (dyna.reenable_rep.timing.checkpoint_ns +
                        dyna.reenable_rep.timing.restore_ns) /
                       1e9;
  if (report.gate("warm_freeze_5x", warm_freeze * 5 <= cold_freeze,
                  "the warm freeze window must be >= 5x below the cold one")) {
    std::printf("freeze window: cold %.3f s -> warm %.3f s (%.1fx)\n",
                cold_freeze, warm_freeze, cold_freeze / warm_freeze);
  }
  return report.finish();
}
