// Observability smoke (CI gate): drives a full customization scenario —
// disable, trap hits, restore, and a fault-injected abort — with the obs
// layer attached, then checks the event-trace contract end to end:
//
//   * every JSONL line the sink wrote is valid JSON (RFC 8259 grammar),
//   * every customization is bracketed by exactly one txn.commit, or by
//     txn.abort + txn.rollback with all staged events retracted,
//   * an aborted customization leaks no rewrite.*/checkpoint.* events to
//     sinks and charges no success counters,
//   * the registry snapshot is valid JSON.
//
// Writes a summary to BENCH_obs.json (or --out=PATH): event counts by type,
// the delivered and retracted counts, the metrics snapshot and the toggle
// timeline. The raw JSONL trace goes next to it, to BENCH_obs.jsonl.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "bench_common.hpp"
#include "core/dynacut.hpp"
#include "core/txn.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "obs/timeline.hpp"

namespace {

using namespace dynacut;
using core::CustomizeError;
using core::DynaCut;
using core::FaultPlan;
using core::FaultStage;
using core::FeatureSpec;
using core::RemovalPolicy;
using core::TrapPolicy;

/// A two-process guest whose workers call feat() in a loop, so a disabled
/// feature actually takes trap hits.
std::shared_ptr<const melf::Binary> guest() {
  static std::shared_ptr<const melf::Binary> bin = [] {
    namespace sys = os::sys;
    melf::ProgramBuilder b("grp");
    auto& f = b.func("feat");
    for (int i = 0; i < 64; ++i) f.nop();
    f.mov_ri(0, 7).ret();
    f.label("err").mark("feat_err").mov_ri(0, 1).ret();
    auto& m = b.func("main");
    m.sys(sys::kFork);
    m.label("loop")
        .call("feat")
        .mov_ri(1, 500)
        .sys(sys::kNanosleep)
        .jmp("loop");
    b.set_entry("main");
    return std::make_shared<melf::Binary>(b.link());
  }();
  return bin;
}

FeatureSpec feat_spec() {
  auto bin = guest();
  FeatureSpec s;
  s.name = "feat";
  s.blocks = {analysis::CovBlock{"grp", bin->find_symbol("feat")->value, 64}};
  s.redirect_module = "grp";
  s.redirect_offset = bin->find_symbol("feat_err")->value;
  return s;
}

size_t count_prefix(const obs::RingBufferSink& ring, const char* prefix) {
  size_t n = 0;
  for (const auto& e : ring.events()) {
    if (e.type.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("obs", argc, argv);
  const std::string trace_path =
      report.path() + (report.path().ends_with(".json") ? "l" : ".jsonl");

  bench::banner(
      "obs smoke: event-trace contract over disable / trap / restore /\n"
      "fault-injected abort (JSONL validity, txn bracketing, retraction)");

  os::Os vos;
  int pid = vos.spawn(guest());
  vos.run(3000);

  obs::EventBus bus;
  obs::RingBufferSink ring;
  obs::JsonlSink jsonl_sink(trace_path);
  obs::TimelineRecorder recorder(bus);
  bus.add_sink(&ring);
  bus.add_sink(&jsonl_sink);
  vos.set_event_bus(&bus);

  obs::Registry reg;
  DynaCut dc(vos, pid, {}, core::CheckMode::kOff);
  dc.set_observer(&bus, &reg);
  const FeatureSpec spec = feat_spec();

  // --- 1. a committed disable, with trap traffic -------------------------
  auto rep = dc.disable_feature({.feature = spec,
                                 .removal = RemovalPolicy::kBlockFirstByte,
                                 .trap = TrapPolicy::kRedirect,
                                 .tags = {{"scenario", "smoke"}}});
  report.gate("committed disable carries a bus txn id", rep.obs.txn != 0);
  report.gate("committed disable delivered staged events", rep.obs.events > 0);
  report.gate("one txn.commit after disable",
              ring.count(obs::ev::kTxnCommit) == 1);
  report.gate("rewrite events committed", count_prefix(ring, "rewrite.") > 0);
  report.gate("checkpoint events committed",
              count_prefix(ring, "checkpoint.") > 0);

  vos.run(60'000);  // workers keep calling feat() -> redirected trap hits
  size_t trap_events = ring.count(obs::ev::kTrapHit);
  report.gate("trap.hit events observed after disable", trap_events > 0);
  report.gate("trap.hits counter matches trap.hit events",
              reg.counter("trap.hits") == trap_events);
  bool annotated = true;
  for (const obs::Event* e : ring.of_type(obs::ev::kTrapHit)) {
    annotated = annotated && e->attr_str("feature") == "feat" &&
                !e->attr_str("policy").empty();
  }
  report.gate("every trap.hit annotated with feature + policy", annotated);

  // --- 2. a committed restore --------------------------------------------
  dc.restore_feature("feat");
  report.gate("one txn.commit after restore",
              ring.count(obs::ev::kTxnCommit) == 2);
  report.gate("timeline recorder saw disable + restore toggles",
              recorder.toggles().size() == 2 &&
                  !recorder.toggles()[1].disabled);
  report.gate("recorder disabled-set empty after restore",
              recorder.disabled_features().empty());

  // --- 3. a fault-injected abort: staged events must be retracted --------
  size_t rewrites_before = count_prefix(ring, "rewrite.");
  size_t checkpoints_before = count_prefix(ring, "checkpoint.");
  uint64_t commits_before = reg.counter("txn.commits");
  FaultPlan plan = FaultPlan::fail_at(FaultStage::kRestore, 0);
  dc.set_fault_plan(&plan);
  bool aborted = false;
  try {
    dc.disable_feature({.feature = spec,
                        .removal = RemovalPolicy::kBlockFirstByte,
                        .trap = TrapPolicy::kTerminate});
  } catch (const CustomizeError&) {
    aborted = true;
  }
  dc.set_fault_plan(nullptr);
  report.gate("injected restore fault aborted the customization", aborted);
  report.gate("abort emitted txn.abort", ring.count(obs::ev::kTxnAbort) == 1);
  report.gate("abort emitted txn.rollback",
              ring.count(obs::ev::kTxnRollback) == 1);
  report.gate("no rewrite event of the aborted txn reached a sink",
              count_prefix(ring, "rewrite.") == rewrites_before);
  report.gate("no checkpoint event of the aborted txn reached a sink",
              count_prefix(ring, "checkpoint.") == checkpoints_before);
  report.gate("staged events were retracted", bus.events_retracted() > 0);
  report.gate("aborted txn charged no commit counter",
              reg.counter("txn.commits") == commits_before);
  report.gate("aborted txn charged txn.aborts", reg.counter("txn.aborts") == 1);
  report.gate("aborted txn added no timeline toggle",
              recorder.toggles().size() == 2);

  // --- 4. every JSONL line and the registry snapshot are valid JSON -----
  jsonl_sink.flush();
  size_t lines = 0;
  std::string line, bad;
  std::ifstream in(trace_path);
  while (std::getline(in, line)) {
    ++lines;
    std::string why;
    if (bad.empty() && !obs::json_valid(line, &why)) {
      bad = "line " + std::to_string(lines) + " (" + why + "): " + line;
    }
  }
  report.gate("every JSONL line is valid JSON", bad.empty(), bad);
  report.gate("sink line count matches stream", lines == jsonl_sink.lines());
  report.gate("one JSONL line per delivered event",
              lines == bus.events_delivered());
  std::string snapshot = reg.snapshot_json();
  report.gate("registry snapshot is valid JSON",
              obs::json_valid(snapshot, nullptr));
  report.gate("timeline json is valid JSON",
              obs::json_valid(recorder.json(), nullptr));

  // --- 5. summary ---------------------------------------------------------
  report.gate("the ring kept every event",
              ring.total() == ring.events().size());
  std::map<std::string, size_t> by_type;
  for (const obs::Event& e : ring.events()) ++by_type[e.type];
  for (const auto& [type, n] : by_type) report.value("events." + type, n);
  report.value("events_delivered", bus.events_delivered());
  report.value("events_retracted", bus.events_retracted());
  report.raw("metrics", snapshot);
  report.raw("timeline", recorder.json());

  std::printf(
      "%zu events delivered, %zu retracted, %zu JSONL lines validated, "
      "%zu trap hits\nraw trace: %s\n",
      static_cast<size_t>(bus.events_delivered()),
      static_cast<size_t>(bus.events_retracted()), lines, trap_events,
      trace_path.c_str());
  return report.finish();
}
