// perfbench: one command runs a seeded workload, checks every output and
// prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) by name with its unit. See perfbench/README.md.
//
//   perfbench --workload serve_mix|toggle_walk|scale_out --seed N
//             --seconds S --trace 0|1
//
// S fixes the amount of work, not a deadline: each phase runs
// Phase::units_for(S) units, calibrated so that a run measures about S
// seconds on a 4-core x86-64 host. Every run of a seed therefore does the
// same work, so two commits are compared on identical inputs and the
// virtual-clock metrics repeat exactly.
//
// --trace 0: the untraced run (set-up, then the measured window), then a
// same-seed replay of every phase's first units, which must reproduce the
// virtual-clock observations bit for bit, and a replay under one more seed,
// printed beside the main one. setup_s is the median of seven set-ups (those
// three and four more).
//
// --trace 1: the window untraced, then again with spans; the per-layer
// metrics come from the traced run, whose virtual-clock observations must
// equal the untraced run's.
//
// A wrong reply, a failed customization or a divergence prints the result
// with "correct": false and exits 1.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "image/block_store.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* kind_name(Phase::Kind k) {
  switch (k) {
    case Phase::Kind::kServe: return "serve";
    case Phase::Kind::kWalk: return "walk";
    case Phase::Kind::kScale: return "scale";
  }
  return "?";
}

struct PhaseResult {
  Phase::Kind kind;
  Obs guard, end;  ///< after the guard units / after every unit
  Work work;
  LayerCounts delta;
};

struct Run {
  double setup_s = 0;
  double window_s = 0;  ///< host time of every phase's units
  std::vector<PhaseResult> phases;
  dynacut::image::BlockStore::Stats blockstore;  ///< window delta

  const PhaseResult& primary() const { return phases.back(); }
  const PhaseResult* find(Phase::Kind k) const {
    for (const auto& p : phases) {
      if (p.kind == k) return &p;
    }
    return nullptr;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& p : phases) n += p.end.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& p : phases) n += p.end.failed;
    return n;
  }
};

void print_errors(const Run& run) {
  for (const auto& p : run.phases) {
    for (const auto& e : p.end.errors) {
      std::printf("  FAILED (%s): %s\n", kind_name(p.kind), e.c_str());
    }
  }
}

/// Phases run interleaved in this many rounds, so every metric samples the
/// host across the whole run rather than one slice of it.
constexpr size_t kRounds = 10;

/// Sets up `w` and runs its measured window: every phase's units for
/// `seconds`, or only the first of the kRounds rounds (`guard_only`), with
/// spans on if given.
Run execute(const Workload& w, uint64_t seed, int seconds, bool guard_only,
            Spans* spans, Spans* standalone) {
  Run run;
  const auto t_setup = Clock::now();
  std::vector<std::unique_ptr<Phase>> phases = w.setup(seed);
  run.setup_s = seconds_since(t_setup);

  std::vector<LayerCounts> c0;
  std::vector<size_t> target;
  run.phases.resize(phases.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    Phase& p = *phases[i];
    if (standalone != nullptr) {
      p.set_spans(standalone);
      p.standalone_analysis();
    }
    p.set_spans(spans);
    c0.push_back(p.counts());
    target.push_back(p.units_for(seconds));
    run.phases[i].kind = p.kind();
  }

  auto& bs = dynacut::image::BlockStore::global();
  const auto bs0 = bs.stats();
  const auto t0 = Clock::now();
  // A replay runs exactly the first round. Phases share one process-wide
  // image::BlockStore, so a phase's dedup results depend on the blocks the
  // other phases hold; replaying the same schedule reproduces them.
  const size_t rounds = guard_only ? 1 : kRounds;
  for (size_t r = 1; r <= rounds; ++r) {
    for (size_t i = 0; i < phases.size(); ++i) {
      Phase& p = *phases[i];
      while (p.obs.units < target[i] * r / kRounds) {
        p.step();
        if (p.obs.units == p.guard_units) run.phases[i].guard = p.obs;
      }
    }
  }
  for (auto& p : phases) {
    if (!guard_only) p->finish();
  }
  run.window_s = seconds_since(t0);
  const auto bs1 = bs.stats();
  run.blockstore.lookups = bs1.lookups - bs0.lookups;
  run.blockstore.dedup_hits = bs1.dedup_hits - bs0.dedup_hits;
  for (size_t i = 0; i < phases.size(); ++i) {
    run.phases[i].end = phases[i]->obs;
    run.phases[i].work = phases[i]->work;
    run.phases[i].delta = phases[i]->counts().minus(c0[i]);
  }
  return run;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

Value pct(const std::vector<double>& v, double p, const std::string& what,
          double scale = 1.0) {
  return {tail_percentile(v, p, what) * scale, v.size()};
}

Results end_to_end(const Run& run, const std::vector<double>& setups) {
  Results r;
  const PhaseResult& prim = run.primary();
  const PhaseResult* walk = run.find(Phase::Kind::kWalk);
  const PhaseResult* scale = run.find(Phase::Kind::kScale);
  r["setup_s"] = {median(setups), setups.size()};
  r["host_req_per_s"] = {ratio(prim.end.completed, prim.end.host_s), 0};
  r["guest_mips"] = {ratio(prim.end.retired, prim.end.host_s) / 1e6, 0};
  r["vreq_per_vms"] = {ratio(prim.end.completed, prim.end.vticks / 1e6), 0};
  r["latency_p50_vticks"] = pct(prim.end.latency, 50, "latency");
  r["latency_p99_vticks"] = pct(prim.end.latency, 99, "latency");
  r["apply_host_ms_p50"] = pct(walk->end.apply_ms, 50, "apply");
  r["apply_host_ms_p99"] = pct(walk->end.apply_ms, 99, "apply");
  r["freeze_vms_p50"] = pct(walk->end.freeze_ns, 50, "freeze", 1e-6);
  r["freeze_vms_p99"] = pct(walk->end.freeze_ns, 99, "freeze", 1e-6);
  r["spawn_host_us_p50"] = pct(scale->end.spawn_us, 50, "spawn");
  r["spawn_host_us_p99"] = pct(scale->end.spawn_us, 99, "spawn");
  r["resident_kb_per_worker"] = {
      sum(scale->end.resident_kb) / static_cast<double>(scale->end.resident_kb.size()),
      scale->end.resident_kb.size()};
  return r;
}

Results per_layer(const Run& run, const Spans& spans, const Spans& standalone,
                  double untraced_window_s) {
  LayerCounts c;
  Work w;
  uint64_t tx = 0, rx = 0;
  for (const auto& p : run.phases) {
    c.add(p.delta);
    w.add(p.work);
    tx += p.end.bytes_tx;
    rx += p.end.bytes_rx;
  }
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto d = [](uint64_t v) { return Value{static_cast<double>(v), 0}; };
  auto to_double = [](const std::vector<int64_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  Results r;
  const auto& run_span = spans.total(SpanName::kOsRun);
  r["vm.instrs"] = d(c.retired);
  r["vm.host_ns_per_instr"] = {ratio(run_span.self_ns, c.retired), 0};
  r["vm.sb_instr_share"] = {ratio(c.sb_instrs, c.retired), 0};
  r["vm.sb_entries"] = d(c.sb_entries);
  r["vm.instrs_per_sb_entry"] = {ratio(c.sb_instrs, c.sb_entries), 0};
  r["vm.sb_builds"] = d(c.sb_builds);
  r["vm.sb_retires"] = d(c.sb_retires);
  r["vm.sb_deopts"] = d(c.sb_deopts);
  r["vm.dcache_hit_ratio"] = {ratio(c.dc_hits, c.dc_hits + c.dc_misses), 0};
  r["vm.dcache_invalidations"] = d(c.dc_invalidations);

  std::vector<double> per_core;
  for (const auto& [retired, clock] : c.cores) {
    if (clock > 0) per_core.push_back(ratio(retired, clock));
  }
  r["os.run_host_ms"] = {ms(run_span.self_ns), run_span.calls};
  r["os.retired_per_vtick_mean"] = {sum(per_core) / per_core.size(), per_core.size()};
  r["os.retired_per_vtick_min"] = {percentile(per_core, 0), per_core.size()};
  r["os.steals"] = d(c.steals);
  r["os.sigtraps"] = d(c.sigtraps);
  const auto& sock = spans.total(SpanName::kOsSock);
  r["os.sock_host_ms"] = {ms(sock.self_ns), sock.calls};
  r["os.sock_bytes_tx"] = d(tx);
  r["os.sock_bytes_rx"] = d(rx);

  const auto pre = to_double(spans.durations(SpanName::kPreflight));
  r["analysis.preflight_host_ms_p50"] = pct(pre, 50, "preflight", 1e-6);
  r["analysis.preflight_host_ms_p99"] = pct(pre, 99, "preflight", 1e-6);
  for (auto [name, span] : {std::pair{"analysis.cfg_host_ms", SpanName::kCfg},
                            std::pair{"analysis.slice_model_host_ms", SpanName::kSliceModel},
                            std::pair{"analysis.gadget_scan_host_ms", SpanName::kGadgetScan}}) {
    r[name] = {ms(standalone.total(span).self_ns), standalone.total(span).calls};
  }
  r["analysis.analysis_vms"] = {w.timing.analysis_ns / 1e6, 0};
  r["analysis.findings"] = d(w.findings);

  r["core.apply_rest_host_ms_p50"] =
      pct(to_double(spans.self_times(SpanName::kApply)), 50, "apply", 1e-6);
  r["core.checkpoint_vms"] = {w.timing.checkpoint_ns / 1e6, 0};
  r["core.code_update_vms"] = {w.timing.code_update_ns / 1e6, 0};
  r["core.inject_vms"] = {w.timing.inject_ns / 1e6, 0};
  r["core.restore_vms"] = {w.timing.restore_ns / 1e6, 0};
  r["core.processes_customized"] = d(w.edits.processes);

  r["rewriter.blocks_patched"] = d(w.edits.blocks_patched);
  r["rewriter.bytes_patched"] = d(w.edits.bytes_patched);
  r["rewriter.pages_touched"] = d(w.edits.pages_touched);
  r["rewriter.callsites_stubbed"] = d(w.edits.callsites_stubbed);
  r["rewriter.got_slots_stubbed"] = d(w.edits.got_slots_stubbed);

  r["image.pages_dumped"] = d(w.edits.pages_dumped + w.ckpt_pages_dumped);
  r["image.pages_shared"] = d(w.edits.pages_shared + w.ckpt_pages_shared);
  r["image.pages_restored"] = d(w.edits.pages_restored);
  r["image.store_bytes"] = d(w.store_bytes);
  r["image.checkpoint_host_us_p50"] = pct(w.checkpoint_us, 50, "checkpoint");
  r["image.blockstore_lookups"] = d(run.blockstore.lookups);
  r["image.blockstore_dedup_hits"] = d(run.blockstore.dedup_hits);
  r["image.dedup_ratio"] = {ratio(run.blockstore.dedup_hits, run.blockstore.lookups), 0};
  r["image.resident_mb_peak"] = {w.resident_peak / 1048576.0, 0};

  uint64_t events = 0, txn = 0, sb = 0, ckpt = 0;
  for (const auto& [type, n] : c.events) {
    events += n;
    if (type.rfind("txn.", 0) == 0) txn += n;
    if (type.rfind("sb.", 0) == 0) sb += n;
    if (type.rfind("checkpoint.", 0) == 0) ckpt += n;
  }
  auto count_of = [&](const char* type) {
    auto it = c.events.find(type);
    return it == c.events.end() ? uint64_t{0} : it->second;
  };
  r["obs.events"] = d(events);
  r["obs.events.trap_hit"] = d(count_of("trap.hit"));
  r["obs.events.stub_hit"] = d(count_of("stub.hit"));
  r["obs.events.txn"] = d(txn);
  r["obs.events.sb"] = d(sb);
  r["obs.events.checkpoint"] = d(ckpt);
  r["obs.trap_hit_share"] = {ratio(count_of("trap.hit"), events), 0};

  r["driver.host_ms"] = {run.window_s * 1e3 - ms(spans.root_ns()), 0};
  r["trace.overhead_frac"] = {run.window_s / untraced_window_s - 1.0, 0};
  return r;
}

/// Same-seed replays must agree on every virtual-clock observation.
bool same_virtual(const Obs& a, const Obs& b) {
  return a.digest.value() == b.digest.value() && a.units == b.units &&
         a.completed == b.completed && a.failed == b.failed &&
         a.retired == b.retired && a.vticks == b.vticks &&
         a.latency == b.latency && a.freeze_ns == b.freeze_ns &&
         a.resident_kb == b.resident_kb;
}

/// Virtual-clock figures of a run's guard prefix, for the seed table.
std::vector<std::pair<std::string, double>> prefix_figures(const Run& run) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& p : run.phases) {
    const std::string k = kind_name(p.kind);
    const Obs& o = p.guard;
    out.push_back({k + " requests", static_cast<double>(o.completed)});
    out.push_back({k + " guest instrs", static_cast<double>(o.retired)});
    out.push_back({k + " vms", o.vticks / 1e6});
    if (!o.latency.empty()) out.push_back({k + " latency p50 ticks", median(o.latency)});
    if (!o.freeze_ns.empty()) out.push_back({k + " freeze p50 ms", median(o.freeze_ns) / 1e6});
    if (!o.resident_kb.empty()) {
      out.push_back({k + " resident KB/worker", sum(o.resident_kb) / o.resident_kb.size()});
    }
  }
  return out;
}

std::string out_dir() {
  const char* d = std::getenv("PERFBENCH_OUT");
  return d != nullptr && *d != '\0' ? d : ".bench_build/perfbench";
}

int traced(const Workload& w, const Args& args) {
  const Run base = execute(w, args.seed, args.seconds, false, nullptr, nullptr);
  Spans spans, standalone;
  const Run run = execute(w, args.seed, args.seconds, false, &spans, &standalone);

  bool correct = run.failed() == 0 && base.failed() == 0;
  print_errors(base);
  print_errors(run);
  // The kOff-after-preflight split must do exactly what the untraced
  // kEnforce apply did: every report and every later observation match.
  for (size_t i = 0; i < run.phases.size(); ++i) {
    const bool same = same_virtual(base.phases[i].end, run.phases[i].end);
    std::printf("traced %s phase vs untraced: %s (digest %016" PRIx64 ")\n",
                kind_name(run.phases[i].kind), same ? "identical" : "DIVERGED",
                run.phases[i].end.digest.value());
    correct = correct && same;
  }

  const Results r = per_layer(run, spans, standalone, base.window_s);
  std::printf("\nper-layer self time (traced run, %.3f s window, %.3f s untraced)\n",
              run.window_s, base.window_s);
  std::string summary;
  for (int n = 0; n < static_cast<int>(SpanName::kCount); ++n) {
    const auto name = static_cast<SpanName>(n);
    const Spans& s = (name == SpanName::kCfg || name == SpanName::kSliceModel ||
                      name == SpanName::kGadgetScan)
                         ? standalone
                         : spans;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-22s calls %10" PRIu64 "  self %10.3f ms  total %10.3f ms\n",
                  span_name(name), s.total(name).calls, s.total(name).self_ns / 1e6,
                  s.total(name).total_ns / 1e6);
    summary += line;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-22s %45.3f ms\n", "driver (outside spans)",
                r.at("driver.host_ms").v);
  summary += line;
  std::fputs(summary.c_str(), stdout);

  const std::string stem = out_dir() + "/trace-" + w.name + "-" + std::to_string(args.seed);
  if (spans.write_chrome(stem + ".json")) {
    std::printf("span dump: %s.json (%" PRIu64 " spans kept, %" PRIu64 " beyond the cap)\n",
                stem.c_str(), spans.recorded(), spans.dropped());
    if (std::FILE* f = std::fopen((stem + "-summary.txt").c_str(), "w")) {
      std::fputs(summary.c_str(), f);
      std::fclose(f);
    }
  } else {
    std::printf("span dump: could not write %s.json\n", stem.c_str());
  }

  std::printf("\n%s", result_table(r, true).c_str());
  std::printf("%s\n", result_json(correct, run.attempted(), run.failed(), r, true).c_str());
  return correct ? 0 : 1;
}

int untraced(const Workload& w, const Args& args) {
  const Run run = execute(w, args.seed, args.seconds, false, nullptr, nullptr);
  const Run guard = execute(w, args.seed, args.seconds, true, nullptr, nullptr);
  const uint64_t alt_seed = args.seed ^ 0x5DEECE66DULL;
  const Run alt = execute(w, alt_seed, args.seconds, true, nullptr, nullptr);

  bool correct = run.failed() == 0 && guard.failed() == 0 && alt.failed() == 0;
  print_errors(run);
  print_errors(guard);
  print_errors(alt);

  // Determinism: the replay's prefix must match the main run's prefix.
  for (size_t i = 0; i < run.phases.size(); ++i) {
    const bool same = same_virtual(run.phases[i].guard, guard.phases[i].guard);
    std::printf("same-seed replay, %s phase (%zu units): %s (digest %016" PRIx64 ")\n",
                kind_name(run.phases[i].kind), run.phases[i].guard.units,
                same ? "identical" : "DIVERGED", guard.phases[i].guard.digest.value());
    correct = correct && same;
  }
  std::printf("\nprefix figures, seed %" PRIu64 " vs held-out seed %" PRIu64 ":\n",
              args.seed, alt_seed);
  const auto a = prefix_figures(run), b = prefix_figures(alt);
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    std::printf("  %-28s %16.6g %16.6g\n", a[i].first.c_str(), a[i].second, b[i].second);
  }

  // Four more set-ups, so setup_s is a median of seven.
  std::vector<double> setups = {run.setup_s, guard.setup_s, alt.setup_s};
  for (int i = 0; i < 4; ++i) {
    const auto t0 = Clock::now();
    const auto phases = w.setup(args.seed);
    setups.push_back(seconds_since(t0));
  }
  const Results r = end_to_end(run, setups);
  // Latency resolution: a poll interval above a tenth of the p50 would
  // quantize the percentiles it reports.
  const double p50 = r.at("latency_p50_vticks").v;
  const double poll = static_cast<double>(kPollTicks);
  if (poll > p50 / 10) {
    std::printf("FAIL: poll interval %.0f ticks exceeds p50/10 (p50 %.0f)\n", poll, p50);
    correct = false;
  }
  const double error_rate = ratio(run.failed(), run.attempted());
  std::printf("\n%s workload, seed %" PRIu64 ", %.2f s measured; error_rate %.6g (%" PRIu64
              " of %" PRIu64 ")\n%s",
              w.name.c_str(), args.seed, run.window_s, error_rate, run.failed(),
              run.attempted(), result_table(r, false).c_str());
  std::printf("%s\n", result_json(correct, run.attempted(), run.failed(), r, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string err;
  const auto args = parse_args(std::vector<std::string>(argv + 1, argv + argc), &err);
  if (!args) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  const Workload* w = find_workload(args->workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  try {
    return args->trace ? traced(*w, *args) : untraced(*w, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
