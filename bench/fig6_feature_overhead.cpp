// Figure 6 reproduction: DynaCut's overhead for dynamically customizing
// code features — per-application breakdown into checkpoint, int3 code
// disable, signal-handler library insertion, and restore.
//
// Workload (as in the paper): disable the WebDAV PUT+DELETE methods of the
// two web servers and the SET command of the key-value store, with the
// fault handler redirecting blocked requests to the app's own error path.
//
// A second phase measures the steady-state price of a denied request under
// both entry-denial mechanisms: trap (int3 + signal round-trip per probe)
// vs stub (callsite redirected into the error path, one branch). Gates —
// written to BENCH_cut.json (--out=PATH) — require the stub's per-request
// overhead to sit within noise of the enabled baseline and at least 5x
// below the trap's, with zero SIGTRAPs delivered on the stub path.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "bench_common.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "melf/builder.hpp"

namespace {

using namespace dynacut;
using bench::run_until;

struct Row {
  std::string label;
  std::string key;  ///< summary key: the guest's name
  double image_mb = 0;
  core::CustomizeReport rep;
  /// The warm re-enable toggle: rides the per-pid baseline, so its dump is
  /// dirty-only and its restore in-place.
  core::CustomizeReport warm;
  double paper_total_s = 0;
};

Row customize(const std::string& label,
              std::shared_ptr<const melf::Binary> bin, uint16_t port,
              const std::string& module,
              const std::vector<std::string>& undesired_reqs,
              const std::vector<std::string>& wanted_reqs,
              const std::string& redirect_symbol, double paper_total_s,
              const std::string& check_blocked_req,
              const std::string& expect_blocked_reply) {
  // Offline profiling runs (paper §3.1): one trace exercising the unwanted
  // feature, one exercising only wanted features; tracediff their coverage.
  const core::FeatureSpec spec =
      bench::discover_feature("unwanted", bin, port, module, undesired_reqs,
                              wanted_reqs, redirect_symbol);

  // Production instance.
  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  run_until(vos, [&] { return vos.has_listener(port); });
  auto conn = vos.connect(port);
  bench::request(vos, conn, wanted_reqs[0]);  // warm the serving path

  core::DynaCut dc(vos, pid);
  Row row;
  row.label = label;
  row.key = module;
  row.rep = dc.disable_feature({spec, core::RemovalPolicy::kBlockFirstByte,
                               core::TrapPolicy::kRedirect});
  row.image_mb = bench::mb(row.rep.edits.image_pages * kPageSize);
  row.paper_total_s = paper_total_s;

  // Functional check: the blocked feature now answers via the error path.
  std::string got = bench::request(vos, conn, check_blocked_req);
  if (got != expect_blocked_reply) {
    std::printf("!! %s: blocked request answered '%s' (expected '%s')\n",
                label.c_str(), got.c_str(), expect_blocked_reply.c_str());
  }

  // Warm toggle: the requests above dirtied the serving path's working
  // set; everything else of the image rides the baseline from the first
  // customization.
  row.warm = dc.restore_feature("unwanted");
  return row;
}

// --- steady-state mechanism comparison -----------------------------------

struct SteadyRow {
  std::string label;
  std::string key;  ///< summary key: the guest's name
  double enabled = 0;  ///< virtual ns per natively-denied request
  double trap = 0;     ///< per denied request, trap mechanism
  double stub = 0;     ///< per denied request, stub mechanism
  uint64_t trap_signals = 0;
  uint64_t stub_signals = 0;
  size_t callsites_stubbed = 0;
};

/// Lets the server group drain back to its accept/recv loop so the cut
/// never freezes a process mid-feature (where the int3 net would fire
/// once on resume regardless of mechanism).
void park(os::Os& vos) { vos.run(400'000); }

/// The strict-gate microprobe: a spin loop calling a two-instruction
/// feature with a same-function deny path, one probe per iteration. The
/// enabled baseline and the denied paths differ only by mechanism, so the
/// columns isolate the signal round-trip vs the one-branch stub detour.
SteadyRow micro_steady(bench::Report& report) {
  namespace sys = os::sys;
  melf::ProgramBuilder b("probe");
  b.func("feat").mov_ri(0, 7).ret();
  auto& m = b.func("main");
  // The deny arm rejoins at "after", and a never-taken compare keeps it
  // statically reachable so CC003 accepts it as a redirect target.
  m.label("spin")
      .mark("arm")
      .call("feat")
      .label("after")
      .mov_sym(3, "iters")
      .load(4, 3, 0)
      .add_ri(4, 1)
      .store(3, 0, 4)
      .cmp_ri(4, -1)
      .je("deny")
      .mov_ri(1, 50)
      .sys(sys::kNanosleep)
      .jmp("spin")
      .label("deny")
      .mark("err_path")
      .jmp("after");
  b.bss("iters", 8);
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  uint64_t iters_addr = kAppBase + bin->find_symbol("iters")->value;
  auto iters = [&] {
    auto bytes = vos.process(pid)->mem.peek_bytes(iters_addr, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[i];
    return v;
  };

  const melf::Symbol* feat = bin->find_symbol("feat");
  core::FeatureSpec spec;
  spec.name = "unwanted";
  spec.blocks = {
      analysis::CovBlock{"probe", feat->value,
                         static_cast<uint32_t>(feat->size)},
      analysis::CovBlock{"probe", bin->find_symbol("arm")->value, 5}};
  spec.redirect_module = "probe";
  spec.redirect_offset = bin->find_symbol("err_path")->value;

  constexpr uint64_t kIters = 256;
  auto measure = [&](double* per_iter, uint64_t* signals) {
    uint64_t c0 = iters();
    uint64_t t0 = vos.now();
    uint64_t s0 = vos.total_sigtraps();
    while (iters() < c0 + kIters) vos.run(2000);
    *per_iter = static_cast<double>(vos.now() - t0) /
                static_cast<double>(iters() - c0);
    *signals = vos.total_sigtraps() - s0;
  };

  SteadyRow row;
  row.label = "microprobe";
  row.key = "microprobe";
  vos.run(20'000);  // warm
  uint64_t ignore_sig = 0;
  measure(&row.enabled, &ignore_sig);

  core::DynaCut dc(vos, pid);
  park(vos);
  dc.disable_feature({.feature = spec,
                      .removal = core::RemovalPolicy::kBlockFirstByte,
                      .trap = core::TrapPolicy::kRedirect,
                      .mechanism = core::CutMechanism::kTrap});
  measure(&row.trap, &row.trap_signals);
  dc.restore_feature("unwanted");

  park(vos);
  core::CustomizeReport rep =
      dc.disable_feature({.feature = spec,
                          .removal = core::RemovalPolicy::kBlockFirstByte,
                          .trap = core::TrapPolicy::kRedirect,
                          .mechanism = core::CutMechanism::kStub});
  row.callsites_stubbed = rep.edits.callsites_stubbed;
  measure(&row.stub, &row.stub_signals);

  report.gate("microprobe.callsite_stubbed", row.callsites_stubbed >= 1,
              "the stub cut must redirect a callsite");
  report.gate("microprobe.trap_sigtraps", row.trap_signals >= kIters,
              "the trap mechanism must deliver a SIGTRAP per probe");
  report.gate("microprobe.stub_no_sigtraps", row.stub_signals == 0,
              "the stub mechanism must deliver no SIGTRAP");
  double trap_over = row.trap - row.enabled;
  double stub_over = row.stub - row.enabled;
  report.gate("microprobe.stub_within_10pct", stub_over <= 0.10 * row.enabled,
              "a stub-denied probe must cost within 10% of the baseline");
  report.gate("microprobe.trap_5x_stub",
              trap_over >= 5.0 * std::max(stub_over, 2.0),
              "the trap round-trip must cost >= 5x the stub overhead");
  return row;
}

SteadyRow steady_state(bench::Report& report, const std::string& label,
                       std::shared_ptr<const melf::Binary> bin, uint16_t port,
                       const std::string& module,
                       const std::vector<std::string>& undesired_reqs,
                       const std::vector<std::string>& wanted_reqs,
                       const std::string& redirect_symbol,
                       const std::string& dispatcher,
                       const std::vector<std::string>& handler_funcs,
                       const std::string& probe_req,
                       const std::string& baseline_req,
                       const std::string& expect_blocked_reply) {
  core::FeatureSpec spec =
      bench::discover_feature("unwanted", bin, port, module, undesired_reqs,
                              wanted_reqs, redirect_symbol);

  // One cut plan, two mechanisms. The plan cuts the handler functions
  // plus the dispatcher's `call handler` arm blocks; the method-compare
  // blocks stay live, so a denied probe walks the same dispatcher path as
  // the natively-denied baseline before hitting the mechanism. Under trap
  // the arm callsite's int3 costs a signal round-trip per probe; under
  // stub the callsite is retargeted at the error path (skip_trap — the
  // redirect IS the denial) and costs one branch.
  auto in_handler = [&](const analysis::CovBlock& b) {
    for (const std::string& fn : handler_funcs) {
      const melf::Symbol* s = bin->find_symbol(fn);
      if (b.offset >= s->value && b.offset + b.size <= s->value + s->size) {
        return true;
      }
    }
    return false;
  };
  std::set<uint64_t> arm_calls;
  for (const analysis::CovBlock& c :
       bench::calls_into(*bin, module, dispatcher, handler_funcs)) {
    arm_calls.insert(c.offset);
  }
  std::erase_if(spec.blocks, [&](const analysis::CovBlock& b) {
    return !in_handler(b) && arm_calls.count(b.offset) == 0;
  });

  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  run_until(vos, [&] { return vos.has_listener(port); });
  auto conn = vos.connect(port);
  bench::request(vos, conn, wanted_reqs[0]);
  bench::request(vos, conn, probe_req);     // warm the feature path
  bench::request(vos, conn, baseline_req);  // warm the native error path

  constexpr int kReqs = 32;
  auto measure = [&](const char* phase, const std::string& send,
                     const std::string& expect_reply, double* per_req,
                     uint64_t* signals) {
    uint64_t t0 = vos.now();
    uint64_t s0 = vos.total_sigtraps();
    std::string got = expect_reply;
    for (int i = 0; i < kReqs && got == expect_reply; ++i) {
      // Fine-grained driving: a coarse run() budget would quantize the
      // per-request delta (the multi-process server keeps a poller
      // runnable, so run() burns its whole budget before returning).
      conn.send(send);
      run_until(vos, [&] { return conn.pending() > 0; }, 20000, 250);
      got = conn.recv_all();
    }
    report.gate(module + "." + phase + "_replies", got == expect_reply,
                label + ": probe answered '" + got + "' (expected '" +
                    expect_reply + "')");
    *per_req = static_cast<double>(vos.now() - t0) / kReqs;
    *signals = vos.total_sigtraps() - s0;
  };

  SteadyRow row;
  row.label = label;
  row.key = module;
  // Baseline: a request the app denies natively — the same error-path
  // reply a cut probe produces, with no mechanism in the way.
  uint64_t ignore_sig = 0;
  measure("baseline", baseline_req, expect_blocked_reply, &row.enabled,
          &ignore_sig);

  core::DynaCut dc(vos, pid);
  park(vos);
  dc.disable_feature({.feature = spec,
                      .removal = core::RemovalPolicy::kBlockFirstByte,
                      .trap = core::TrapPolicy::kRedirect,
                      .expand_to_slice = true,
                      .mechanism = core::CutMechanism::kTrap});
  measure("trap", probe_req, expect_blocked_reply, &row.trap,
          &row.trap_signals);
  dc.restore_feature("unwanted");

  park(vos);
  core::CustomizeReport rep =
      dc.disable_feature({.feature = spec,
                          .removal = core::RemovalPolicy::kBlockFirstByte,
                          .trap = core::TrapPolicy::kRedirect,
                          .expand_to_slice = true,
                          .mechanism = core::CutMechanism::kStub});
  row.callsites_stubbed = rep.edits.callsites_stubbed;
  measure("stub", probe_req, expect_blocked_reply, &row.stub,
          &row.stub_signals);

  report.gate(module + ".callsite_stubbed", row.callsites_stubbed >= 1,
              "the stub cut must redirect a callsite");
  report.gate(module + ".trap_sigtraps", row.trap_signals >= kReqs,
              "the trap mechanism must deliver a SIGTRAP per probe");
  report.gate(module + ".stub_no_sigtraps", row.stub_signals == 0,
              "the stub mechanism must deliver no SIGTRAP");
  // The server columns are informational: the native-deny baseline walks
  // a slightly different strcmp path than the probe and the multi-process
  // server's sleep-pollers ride the clock, so the strict 5x gate lives on
  // the microprobe row where the three paths are identical up to the
  // mechanism.
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("cut", argc, argv);
  bench::banner(
      "Figure 6: overhead of dynamic feature customization\n"
      "(disable web PUT+DELETE / kv SET; redirect to app error path)");

  std::vector<Row> rows;
  rows.push_back(customize(
      "Lighttpd (minihttpd)", apps::build_minihttpd(), apps::kMinihttpdPort,
      "minihttpd", {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
      {"GET /index\n", "HEAD /index\n"}, "http_403", 0.274, "PUT /b y\n",
      "403 Forbidden\n"));
  rows.push_back(customize(
      "Nginx (miniweb)", apps::build_miniweb(), apps::kMiniwebPort,
      "miniweb", {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
      {"GET /index\n", "HEAD /index\n"}, "dav_403", 0.560, "PUT /b y\n",
      "403 Forbidden\n"));
  rows.push_back(customize(
      "Redis (minikv)", apps::build_minikv(), apps::kMinikvPort, "minikv",
      {"SET k v\n", "GET k\n", "PING\n"}, {"GET k\n", "PING\n", "DEL k\n"},
      "dispatch_err", 0.290, "SET k v2\n",
      "-ERR unknown or disabled command\n"));

  std::printf(
      "\n%-22s %9s %7s %12s %11s %9s %9s %8s %8s %8s %12s\n", "application",
      "image_MB", "procs", "insert_sig_s", "int3_s", "ckpt_s", "restore_s",
      "stage_s", "commit_s", "total_s", "paper_total_s");
  for (const auto& r : rows) {
    const auto& t = r.rep.timing;
    // Two-phase split: stage = everything done on frozen images
    // (checkpoint + int3 patching + library insertion); commit = restoring
    // the rewritten images. stage_s + commit_s == total_s — the
    // transactional protocol reorders the work but adds no extra cost.
    double stage_s =
        (t.checkpoint_ns + t.code_update_ns + t.inject_ns) / 1e9;
    double commit_s = t.restore_ns / 1e9;
    std::printf(
        "%-22s %9.2f %7zu %12.3f %11.3f %9.3f %9.3f %8.3f %8.3f %8.3f "
        "%12.3f\n",
        r.label.c_str(), r.image_mb, r.rep.edits.processes,
        t.inject_ns / 1e9, t.code_update_ns / 1e9, t.checkpoint_ns / 1e9,
        t.restore_ns / 1e9, stage_s, commit_s, t.total_seconds(),
        r.paper_total_s);
    for (const auto& [kind, tm] :
         {std::pair{"cold", &t}, {"warm", &r.warm.timing}}) {
      const std::string key = "breakdown." + r.key + "." + kind + ".";
      report.value(key + "inject_ns", tm->inject_ns);
      report.value(key + "code_update_ns", tm->code_update_ns);
      report.value(key + "checkpoint_ns", tm->checkpoint_ns);
      report.value(key + "restore_ns", tm->restore_ns);
    }
  }
  std::printf(
      "\nShape checks: totals sub-second for all three apps; Nginx costs the\n"
      "most (two processes to snapshot); per-app cost dominated by\n"
      "checkpoint+restore, int3 patching nearly constant — as in the paper.\n"
      "stage_s+commit_s equals total_s: staged commit adds no overhead.\n");

  // Freeze-window breakdown of the warm (incremental) re-enable toggle:
  // dirty-only dump + in-place restore against the cold toggle above.
  std::printf(
      "\n%-22s %8s %8s %9s %8s %8s %9s %9s %8s\n", "warm re-enable",
      "dump_s", "patch_s", "restore_s", "total_s", "pg_dump", "pg_share",
      "pg_restore", "cold_x");
  for (const auto& r : rows) {
    const auto& t = r.warm.timing;
    double cold_x = static_cast<double>(r.rep.timing.checkpoint_ns +
                                        r.rep.timing.restore_ns) /
                    static_cast<double>(t.checkpoint_ns + t.restore_ns);
    std::printf("%-22s %8.3f %8.3f %9.3f %8.3f %8llu %8llu %9llu %7.1fx\n",
                r.label.c_str(), t.checkpoint_ns / 1e9,
                t.code_update_ns / 1e9, t.restore_ns / 1e9,
                t.total_seconds(),
                static_cast<unsigned long long>(r.warm.edits.pages_dumped),
                static_cast<unsigned long long>(r.warm.edits.pages_shared),
                static_cast<unsigned long long>(r.warm.edits.pages_restored),
                cold_x);
  }
  std::printf(
      "\nShape check: the warm toggle's freeze window (dump+restore) is a\n"
      "small multiple of the dirty working set, not of the image — the\n"
      "incremental checkpoint path.\n");

  // Steady-state per-request cost of a denied feature probe, by mechanism.
  bench::banner(
      "Steady state: denied-probe cost, trap vs stub mechanism\n"
      "(virtual ns per request; 1 tick ~ 1ns)");
  std::vector<SteadyRow> steady;
  steady.push_back(micro_steady(report));
  steady.push_back(steady_state(
      report, "Lighttpd (minihttpd)", apps::build_minihttpd(),
      apps::kMinihttpdPort, "minihttpd",
      {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
      {"GET /index\n", "HEAD /index\n"}, "http_403", "http_dispatch",
      {"serve_put", "serve_delete"}, "PUT /b y\n", "PATCH /b y\n",
      "403 Forbidden\n"));
  steady.push_back(steady_state(
      report, "Nginx (miniweb)", apps::build_miniweb(), apps::kMiniwebPort,
      "miniweb", {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
      {"GET /index\n", "HEAD /index\n"}, "dav_403", "dav_handler",
      {"do_put", "do_delete"}, "PUT /b y\n", "PATCH /b y\n",
      "403 Forbidden\n"));
  steady.push_back(steady_state(
      report, "Redis (minikv)", apps::build_minikv(), apps::kMinikvPort,
      "minikv", {"SET k v\n", "GET k\n", "PING\n"},
      {"GET k\n", "PING\n", "DEL k\n"}, "dispatch_err", "dispatch_command",
      {"cmd_set"}, "SET k v2\n", "BLAH k v\n",
      "-ERR unknown or disabled command\n"));

  std::printf("\n%-22s %10s %10s %10s %10s %10s %7s %7s %6s\n",
              "application", "baseline", "trap", "stub", "trap_over",
              "stub_over", "trapsig", "stubsig", "stubs");
  for (const auto& s : steady) {
    std::printf(
        "%-22s %10.1f %10.1f %10.1f %10.1f %10.1f %7llu %7llu %6zu\n",
        s.label.c_str(), s.enabled, s.trap, s.stub, s.trap - s.enabled,
        s.stub - s.enabled, static_cast<unsigned long long>(s.trap_signals),
        static_cast<unsigned long long>(s.stub_signals),
        s.callsites_stubbed);
    const std::string key = "steady_state." + s.key + ".";
    report.value(key + "baseline_ns", s.enabled);
    report.value(key + "trap_ns", s.trap);
    report.value(key + "stub_ns", s.stub);
    report.value(key + "trap_overhead", s.trap - s.enabled);
    report.value(key + "stub_overhead", s.stub - s.enabled);
    report.value(key + "trap_signals", s.trap_signals);
    report.value(key + "stub_signals", s.stub_signals);
    report.value(key + "callsites_stubbed", s.callsites_stubbed);
  }
  std::printf(
      "\nShape checks: the stub column sits at the enabled baseline (the\n"
      "denied probe branches straight to the app's error path), the trap\n"
      "column pays a signal round-trip per probe (>=5x the stub overhead),\n"
      "and the stub rows deliver zero SIGTRAPs.\n");

  return report.finish();
}
