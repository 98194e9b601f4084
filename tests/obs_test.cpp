// Tests for the observability layer (DESIGN.md §9): event bus semantics
// (stamping, transactions, retraction-on-abort, re-entrant sinks), JSON
// validity of every serialized surface, registry determinism, the timeline
// recorder, and the CutRequest-driven DynaCut integration — including the
// fault-injection matrix proving aborted customizations are invisible to
// observers.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "core/handler_lib.hpp"
#include "core/txn.hpp"
#include "obs/bus.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "obs/timeline.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut {
namespace {

using core::CustomizeError;
using core::CustomizeReport;
using core::CutRequest;
using core::DynaCut;
using core::FaultPlan;
using core::FaultStage;
using core::FeatureSpec;
using core::RemovalPolicy;
using core::TrapPolicy;
using obs::Attr;
using obs::Event;
using obs::EventBus;
using obs::JsonlSink;
using obs::Registry;
using obs::RingBufferSink;
using obs::TimelineRecorder;
namespace ev = obs::ev;

// --- JSON validator ------------------------------------------------------

TEST(JsonValid, AcceptsCanonicalDocuments) {
  EXPECT_TRUE(obs::json_valid("{}", nullptr));
  EXPECT_TRUE(obs::json_valid("[]", nullptr));
  EXPECT_TRUE(obs::json_valid("{\"a\":1,\"b\":[true,false,null]}", nullptr));
  EXPECT_TRUE(obs::json_valid("{\"s\":\"x\\n\\\"\\u00e9\"}", nullptr));
  EXPECT_TRUE(obs::json_valid("-1.5e-3", nullptr));
  EXPECT_TRUE(obs::json_valid("\"just a string\"", nullptr));
}

TEST(JsonValid, RejectsMalformedDocuments) {
  std::string why;
  EXPECT_FALSE(obs::json_valid("", &why));
  EXPECT_FALSE(obs::json_valid("{", nullptr));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}", nullptr));
  EXPECT_FALSE(obs::json_valid("{\"a\" 1}", nullptr));
  EXPECT_FALSE(obs::json_valid("[1,2] trailing", nullptr));
  EXPECT_FALSE(obs::json_valid("{\"a\":01}", nullptr));
  EXPECT_FALSE(obs::json_valid("\"bad escape \\q\"", nullptr));
  EXPECT_FALSE(obs::json_valid("nan", nullptr));
  EXPECT_FALSE(obs::json_valid("'single'", nullptr));
}

TEST(JsonValid, RejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(obs::json_valid(deep, nullptr));
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_TRUE(obs::json_valid(ok, nullptr));
}

// --- Event ---------------------------------------------------------------

TEST(EventTest, JsonHasStableKeyOrderAndEscaping) {
  Event e(ev::kRewritePatch, 7);
  e.seq = 3;
  e.vclock = 42;
  e.txn = 2;
  e.with("addr", uint64_t{4096}).with("kind", "a\"b");
  EXPECT_EQ(e.json(),
            "{\"seq\":3,\"t\":42,\"type\":\"rewrite.patch\",\"pid\":7,"
            "\"txn\":2,\"addr\":4096,\"kind\":\"a\\\"b\"}");
  EXPECT_TRUE(obs::json_valid(e.json(), nullptr));
}

TEST(EventTest, AttrAccessors) {
  Event e(ev::kTrapHit);
  e.with("addr", uint64_t{10}).with("action", "kill");
  EXPECT_EQ(e.attr_u64("addr"), 10u);
  EXPECT_EQ(e.attr_str("action"), "kill");
  EXPECT_EQ(e.attr_u64("missing", 99), 99u);
  EXPECT_EQ(e.attr_str("addr"), "");  // numeric attr is not a string
}

// --- EventBus ------------------------------------------------------------

TEST(EventBus, StampsSequenceAndClock) {
  EventBus bus;
  uint64_t t = 100;
  bus.set_clock([&] { return t; });
  RingBufferSink ring;
  bus.add_sink(&ring);
  bus.emit(Event(ev::kWarning));
  t = 200;
  bus.emit(Event(ev::kWarning));
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events()[0].seq, 1u);
  EXPECT_EQ(ring.events()[0].vclock, 100u);
  EXPECT_EQ(ring.events()[1].seq, 2u);
  EXPECT_EQ(ring.events()[1].vclock, 200u);
}

TEST(EventBus, AnnotatorEnrichesBeforeDelivery) {
  EventBus bus;
  bus.set_annotator([](Event& e) {
    if (e.type == ev::kTrapHit) e.with("feature", "F");
  });
  RingBufferSink ring;
  bus.add_sink(&ring);
  bus.emit(Event(ev::kTrapHit));
  bus.emit(Event(ev::kWarning));
  EXPECT_EQ(ring.events()[0].attr_str("feature"), "F");
  EXPECT_EQ(ring.events()[1].find("feature"), nullptr);
}

TEST(EventBus, CommitFlushesStagedInOrderWithOriginalStamps) {
  EventBus bus;
  uint64_t t = 10;
  bus.set_clock([&] { return t; });
  RingBufferSink ring;
  bus.add_sink(&ring);

  uint64_t id = bus.begin_txn("feat", {Attr::s("action", "disable")});
  EXPECT_TRUE(bus.in_txn());
  EXPECT_EQ(bus.current_txn(), id);
  t = 20;
  bus.emit(Event(ev::kCheckpointDump, 1));
  t = 30;
  bus.emit(Event(ev::kRewritePatch, 1));
  // Only the stage marker is visible while the transaction is open.
  EXPECT_EQ(ring.events().size(), 1u);
  EXPECT_EQ(ring.events()[0].type, ev::kTxnStage);

  t = 40;
  size_t flushed = bus.commit_txn({Attr::u("blocks", 2)});
  EXPECT_EQ(flushed, 2u);
  EXPECT_FALSE(bus.in_txn());
  ASSERT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.events()[1].type, ev::kCheckpointDump);
  EXPECT_EQ(ring.events()[1].vclock, 20u);  // original stamp, not flush time
  EXPECT_EQ(ring.events()[1].txn, id);
  EXPECT_EQ(ring.events()[2].type, ev::kRewritePatch);
  EXPECT_EQ(ring.events()[2].vclock, 30u);
  EXPECT_EQ(ring.events()[3].type, ev::kTxnCommit);
  EXPECT_EQ(ring.events()[3].attr_str("label"), "feat");
  EXPECT_EQ(ring.events()[3].attr_u64("staged"), 2u);
  EXPECT_EQ(ring.events()[3].attr_u64("blocks"), 2u);
}

TEST(EventBus, AbortRetractsStagedEvents) {
  EventBus bus;
  RingBufferSink ring;
  bus.add_sink(&ring);

  bus.begin_txn("feat");
  bus.emit(Event(ev::kRewritePatch, 1));
  bus.emit(Event(ev::kRewriteWipe, 1));
  bus.abort_txn("injected fault");

  EXPECT_EQ(ring.count(ev::kRewritePatch), 0u);
  EXPECT_EQ(ring.count(ev::kRewriteWipe), 0u);
  ASSERT_EQ(ring.events().size(), 3u);  // stage, abort, rollback
  EXPECT_EQ(ring.events()[1].type, ev::kTxnAbort);
  EXPECT_EQ(ring.events()[1].attr_str("why"), "injected fault");
  EXPECT_EQ(ring.events()[1].attr_u64("retracted"), 2u);
  EXPECT_EQ(ring.events()[2].type, ev::kTxnRollback);
  EXPECT_EQ(bus.events_retracted(), 2u);

  // Blind abort with no open transaction is a no-op.
  bus.abort_txn("again");
  EXPECT_EQ(ring.events().size(), 3u);
}

TEST(EventBus, CommitWithNoTxnIsNoop) {
  EventBus bus;
  EXPECT_EQ(bus.commit_txn(), 0u);
}

namespace {
/// A sink that emits a follow-up event when it sees a trap.hit.
struct ReactiveSink : obs::Sink {
  EventBus& bus;
  explicit ReactiveSink(EventBus& b) : bus(b) {}
  void on_event(const Event& e) override {
    if (e.type == ev::kTrapHit) {
      bus.emit(Event(ev::kWarning).with("from", "sink"));
    }
  }
};
}  // namespace

TEST(EventBus, ReentrantEmitFromSinkIsQueued) {
  EventBus bus;
  ReactiveSink reactive(bus);
  RingBufferSink ring;
  bus.add_sink(&reactive);
  bus.add_sink(&ring);
  bus.emit(Event(ev::kTrapHit));
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events()[0].type, ev::kTrapHit);
  EXPECT_EQ(ring.events()[1].type, ev::kWarning);
  EXPECT_GT(ring.events()[1].seq, ring.events()[0].seq);
}

// --- Sinks ---------------------------------------------------------------

TEST(Sinks, RingBufferEvictsOldestBeyondCapacity) {
  RingBufferSink ring(2);
  EventBus bus;
  bus.add_sink(&ring);
  bus.emit(Event("a"));
  bus.emit(Event("b"));
  bus.emit(Event("c"));
  EXPECT_EQ(ring.total(), 3u);
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events()[0].type, "b");
  EXPECT_EQ(ring.events()[1].type, "c");
}

TEST(Sinks, JsonlWritesOneValidLinePerEvent) {
  std::ostringstream out;
  JsonlSink sink(out);
  EventBus bus;
  bus.add_sink(&sink);
  bus.emit(Event(ev::kTrapHit, 3).with("addr", uint64_t{0x1000}));
  bus.emit(Event(ev::kWarning).with("what", "w"));
  EXPECT_EQ(sink.lines(), 2u);
  std::istringstream in(out.str());
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    EXPECT_TRUE(obs::json_valid(line, nullptr)) << line;
  }
  EXPECT_EQ(n, 2u);
}

// --- Registry ------------------------------------------------------------

TEST(RegistryTest, HistogramPowerOfTwoBuckets) {
  obs::Histogram h;
  h.observe(0);     // bucket 0
  h.observe(1);     // bucket 1
  h.observe(2);     // bucket 2
  h.observe(3);     // bucket 2
  h.observe(1024);  // bucket 11
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[11], 1u);
  EXPECT_TRUE(obs::json_valid(h.json(), nullptr));
}

TEST(RegistryTest, SnapshotIsSortedDeterministicValidJson) {
  Registry a;
  a.add("z.counter", 3);
  a.add("a.counter");
  a.set_gauge("live_pct", 62.5);
  a.histogram("lat").observe(7);

  Registry b;  // same content, charged in a different order
  b.histogram("lat").observe(7);
  b.set_gauge("live_pct", 62.5);
  b.add("a.counter");
  b.add("z.counter", 2);
  b.add("z.counter");

  EXPECT_EQ(a.snapshot_json(), b.snapshot_json());
  EXPECT_TRUE(obs::json_valid(a.snapshot_json(), nullptr));
  EXPECT_LT(a.snapshot_json().find("a.counter"),
            a.snapshot_json().find("z.counter"));
  EXPECT_EQ(a.counter("z.counter"), 3u);
  EXPECT_EQ(a.counter("never"), 0u);
}

// --- TimelineRecorder ----------------------------------------------------

TEST(Timeline, DerivesTogglesFromCommittedTxns) {
  EventBus bus;
  uint64_t t = 5;
  bus.set_clock([&] { return t; });
  TimelineRecorder rec(bus);

  bus.begin_txn("SET", {Attr::s("action", "disable")});
  t = 6;
  bus.commit_txn({Attr::s("action", "disable")});
  EXPECT_EQ(rec.disabled_features(), std::vector<std::string>{"SET"});

  // An aborted transaction adds no toggle.
  bus.begin_txn("GET", {Attr::s("action", "disable")});
  bus.abort_txn("fault");
  EXPECT_EQ(rec.toggles().size(), 1u);
  EXPECT_EQ(rec.disabled_features(), std::vector<std::string>{"SET"});

  t = 9;
  bus.begin_txn("SET", {Attr::s("action", "restore")});
  bus.commit_txn({Attr::s("action", "restore")});
  ASSERT_EQ(rec.toggles().size(), 2u);
  EXPECT_EQ(rec.toggles()[0].vclock, 6u);
  EXPECT_TRUE(rec.toggles()[0].disabled);
  EXPECT_FALSE(rec.toggles()[1].disabled);
  EXPECT_TRUE(rec.disabled_features().empty());

  rec.set_live_probe([] { return 42.0; });
  t = 11;
  const TimelineRecorder::Sample& s = rec.sample();
  EXPECT_EQ(s.vclock, 11u);
  EXPECT_DOUBLE_EQ(s.live_pct, 42.0);
  EXPECT_TRUE(obs::json_valid(rec.json(), nullptr));
}

// --- DynaCut integration -------------------------------------------------

/// Boots toysrv, discovers feature B via trace-diff (as in dynacut_test),
/// and wires a full obs stack: bus + ring sink + registry + recorder.
struct ObsPipeline {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;
  FeatureSpec feature_b;
  os::HostConn conn;
  EventBus bus;
  RingBufferSink ring{1 << 16};
  Registry reg;
  TimelineRecorder recorder{bus};

  ObsPipeline() {
    bin = testing::build_toysrv();
    auto trace_requests = [&](const std::string& reqs) {
      os::Os prof;
      trace::Tracer tracer(prof);
      int p = prof.spawn(testing::build_toysrv(), {apps::build_libc()});
      prof.run();
      auto c = prof.connect(80);
      c.send(reqs);
      prof.run();
      return tracer.dump(p);
    };
    trace::TraceLog undesired = trace_requests("A\nB\nQ\n");
    trace::TraceLog wanted = trace_requests("A\nA\nQ\n");
    feature_b.name = "B";
    feature_b.blocks =
        analysis::feature_diff({undesired}, {wanted}, "toysrv").blocks();
    feature_b.redirect_module = "toysrv";
    feature_b.redirect_offset = bin->find_symbol("dispatch_err")->value;

    pid = vos.spawn(bin, {apps::build_libc()});
    vos.run();
    conn = vos.connect(80);
    bus.add_sink(&ring);
    vos.set_event_bus(&bus);
  }

  std::string request(const std::string& line) {
    conn.send(line);
    vos.run();
    return conn.recv_all();
  }

  size_t count_prefix(const char* prefix) const {
    size_t n = 0;
    for (const auto& e : ring.events()) {
      if (e.type.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }
};

TEST(ObsIntegration, CommittedDisableEmitsBracketedTrace) {
  ObsPipeline px;
  DynaCut dc(px.vos, px.pid, {}, core::CheckMode::kOff);
  dc.set_observer(&px.bus, &px.reg);

  CustomizeReport rep =
      dc.disable_feature({.feature = px.feature_b,
                          .removal = RemovalPolicy::kBlockFirstByte,
                          .trap = TrapPolicy::kRedirect});

  // Bracketing: txn.stage first, txn.commit last, staged events between.
  ASSERT_GE(px.ring.events().size(), 4u);
  EXPECT_EQ(px.ring.events().front().type, ev::kTxnStage);
  EXPECT_EQ(px.ring.events().back().type, ev::kTxnCommit);
  EXPECT_EQ(px.ring.count(ev::kTxnCommit), 1u);
  EXPECT_EQ(px.ring.count(ev::kTxnAbort), 0u);
  EXPECT_GE(px.ring.count(ev::kCheckpointDump), 1u);
  EXPECT_GE(px.ring.count(ev::kCheckpointRestore), 1u);
  EXPECT_GE(px.ring.count(ev::kRewritePatch), 1u);
  EXPECT_GE(px.ring.count(ev::kRewriteInject), 1u);

  // Every staged event carries the transaction id of the bracket.
  uint64_t txn = px.ring.events().front().seq;
  for (const auto& e : px.ring.events()) {
    if (e.type == ev::kTxnStage) continue;
    EXPECT_EQ(e.txn, txn) << e.type;
  }

  // The report's obs summary matches the bus's view.
  EXPECT_EQ(rep.obs.label, "B");
  EXPECT_EQ(rep.obs.txn, txn);
  EXPECT_GT(rep.obs.events, 0u);
  const Event* commit = px.ring.of_type(ev::kTxnCommit)[0];
  EXPECT_EQ(commit->attr_u64("staged"), rep.obs.events);
  EXPECT_EQ(commit->attr_u64("blocks_patched"), rep.edits.blocks_patched);

  // Success metrics charged.
  EXPECT_EQ(px.reg.counter("txn.commits"), 1u);
  EXPECT_EQ(px.reg.counter("cut.blocks_patched"), rep.edits.blocks_patched);
  EXPECT_EQ(px.reg.find_histogram("cut.stage_ns")->count, 1u);
}

TEST(ObsIntegration, PreflightEmitsCutcheckFindings) {
  ObsPipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&px.bus, &px.reg);
  auto report = dc.preflight({.feature = px.feature_b,
                              .removal = RemovalPolicy::kBlockFirstByte,
                              .trap = TrapPolicy::kRedirect});
  EXPECT_EQ(px.ring.count(ev::kCutcheckFinding), report.diags.size());
  if (!report.diags.empty()) {
    const Event* f = px.ring.of_type(ev::kCutcheckFinding)[0];
    EXPECT_EQ(f->attr_str("feature"), "B");
    EXPECT_FALSE(f->attr_str("rule").empty());
    EXPECT_FALSE(f->attr_str("severity").empty());
  }
}

TEST(ObsIntegration, TrapHitsAreAnnotatedWithFeatureAndPolicy) {
  ObsPipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&px.bus, &px.reg);
  dc.disable_feature({.feature = px.feature_b,
                      .removal = RemovalPolicy::kBlockFirstByte,
                      .trap = TrapPolicy::kRedirect});

  EXPECT_EQ(px.request("B\n"), "err\n");
  ASSERT_GE(px.ring.count(ev::kTrapHit), 1u);
  const Event* hit = px.ring.of_type(ev::kTrapHit)[0];
  EXPECT_EQ(hit->pid, px.pid);
  EXPECT_EQ(hit->attr_str("feature"), "B");
  EXPECT_EQ(hit->attr_str("policy"), "redirect");
  EXPECT_EQ(hit->attr_str("action"), "handler");
  EXPECT_GT(hit->attr_u64("addr"), 0u);
  EXPECT_EQ(px.reg.counter("trap.hits"), px.ring.count(ev::kTrapHit));
  EXPECT_EQ(px.reg.counter("trap.hits.B"), px.ring.count(ev::kTrapHit));

  // After restore the trap sites are forgotten: no stale annotation.
  dc.restore_feature("B");
  EXPECT_EQ(px.request("B\n"), "beta\n");
}

TEST(ObsIntegration, AbortedTxnIsInvisibleToObservers) {
  // First pass: count the fault points of every stage for this scenario.
  std::array<size_t, kNumFaultStages> totals{};
  {
    ObsPipeline px;
    DynaCut dc(px.vos, px.pid, {}, core::CheckMode::kOff);
    FaultPlan counter;
    dc.set_fault_plan(&counter);
    dc.disable_feature({.feature = px.feature_b,
                        .removal = RemovalPolicy::kBlockFirstByte,
                        .trap = TrapPolicy::kRedirect});
    for (size_t s = 0; s < kNumFaultStages; ++s) {
      totals[s] = counter.count(static_cast<FaultStage>(s));
    }
  }

  // Matrix: abort at the first fault point of every stage that has one;
  // observers must see txn.abort + txn.rollback and nothing else.
  for (size_t si = 0; si < kNumFaultStages; ++si) {
    if (totals[si] == 0) continue;
    const auto fstage = static_cast<FaultStage>(si);
    SCOPED_TRACE(fault_stage_name(fstage));

    ObsPipeline px;
    DynaCut dc(px.vos, px.pid, {}, core::CheckMode::kOff);
    dc.set_observer(&px.bus, &px.reg);
    FaultPlan plan = FaultPlan::fail_at(fstage, 0);
    dc.set_fault_plan(&plan);
    EXPECT_THROW(
        dc.disable_feature({.feature = px.feature_b,
                            .removal = RemovalPolicy::kBlockFirstByte,
                            .trap = TrapPolicy::kRedirect}),
        CustomizeError);

    EXPECT_EQ(px.ring.count(ev::kTxnStage), 1u);
    EXPECT_EQ(px.ring.count(ev::kTxnAbort), 1u);
    EXPECT_EQ(px.ring.count(ev::kTxnRollback), 1u);
    EXPECT_EQ(px.ring.count(ev::kTxnCommit), 0u);
    // No staged work leaked to sinks: observers never saw the rolled-back
    // customization as applied.
    EXPECT_EQ(px.count_prefix("rewrite."), 0u);
    EXPECT_EQ(px.count_prefix("checkpoint."), 0u);
    // Success counters not charged; the abort is.
    EXPECT_EQ(px.reg.counter("txn.commits"), 0u);
    EXPECT_EQ(px.reg.counter("cut.blocks_patched"), 0u);
    EXPECT_EQ(px.reg.counter("txn.aborts"), 1u);
    // The recorder's disabled set never flickered.
    EXPECT_TRUE(px.recorder.disabled_features().empty());
    EXPECT_TRUE(px.recorder.toggles().empty());

    // A clean retry after the abort produces a normal committed trace.
    dc.set_fault_plan(nullptr);
    dc.disable_feature({.feature = px.feature_b,
                        .removal = RemovalPolicy::kBlockFirstByte,
                        .trap = TrapPolicy::kRedirect});
    EXPECT_EQ(px.ring.count(ev::kTxnCommit), 1u);
    EXPECT_EQ(px.reg.counter("txn.commits"), 1u);
    EXPECT_EQ(px.recorder.disabled_features(),
              std::vector<std::string>{"B"});
  }
}

TEST(ObsIntegration, RegistrySnapshotIdenticalAcrossIdenticalRuns) {
  auto run_scenario = [] {
    ObsPipeline px;
    DynaCut dc(px.vos, px.pid);
    dc.set_observer(&px.bus, &px.reg);
    dc.disable_feature({.feature = px.feature_b,
                        .removal = RemovalPolicy::kBlockFirstByte,
                        .trap = TrapPolicy::kRedirect});
    px.request("B\n");
    px.request("A\n");
    dc.restore_feature("B");
    return px.reg.snapshot_json();
  };
  std::string first = run_scenario();
  std::string second = run_scenario();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(obs::json_valid(first, nullptr));
}

TEST(ObsIntegration, VerifierLogHealsAndClampWarning) {
  ObsPipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&px.bus, &px.reg);
  dc.disable_feature({.feature = px.feature_b,
                      .removal = RemovalPolicy::kBlockFirstByte,
                      .trap = TrapPolicy::kVerify});

  // The verifier heals the wrongly-removed block in place; reading the log
  // surfaces each newly seen heal exactly once.
  EXPECT_EQ(px.request("B\n"), "beta\n");
  std::vector<uint64_t> healed = dc.verifier_log(px.pid);
  ASSERT_GE(healed.size(), 1u);
  EXPECT_EQ(px.ring.count(ev::kVerifierHeal), healed.size());
  EXPECT_EQ(px.reg.counter("verifier.heals"), healed.size());
  dc.verifier_log(px.pid);  // same entries again: no new events
  EXPECT_EQ(px.ring.count(ev::kVerifierHeal), healed.size());

  // A guest that scribbles an absurd log_count must not drive an over-read:
  // the count is clamped to the table capacity and surfaced as a warning.
  os::Process* p = px.vos.process(px.pid);
  const os::LoadedModule* lib = p->module_named(core::kVerifyLibName);
  ASSERT_NE(lib, nullptr);
  uint64_t huge = 1ull << 40;
  p->mem.poke(lib->base + lib->binary->find_symbol("log_count")->value,
              &huge, 8);
  std::vector<uint64_t> clamped = dc.verifier_log(px.pid);
  const melf::Symbol* buf = lib->binary->find_symbol("log_buf");
  EXPECT_LE(clamped.size(), buf->size / 8);
  ASSERT_EQ(px.ring.count(ev::kWarning), 1u);
  const Event* warn = px.ring.of_type(ev::kWarning)[0];
  EXPECT_EQ(warn->attr_u64("raw_count"), huge);
  EXPECT_EQ(warn->attr_u64("capacity"), buf->size / 8);

  // The stub table's count is guest memory too: poll_stub_hits clamps a
  // scribbled stub_count the same way.
  dc.restore_feature("B");
  CustomizeReport rep =
      dc.disable_feature({.feature = px.feature_b,
                          .removal = RemovalPolicy::kBlockFirstByte,
                          .check = core::CheckMode::kOff,
                          .mechanism = core::CutMechanism::kStub});
  ASSERT_GE(rep.edits.callsites_stubbed, 1u);
  const os::LoadedModule* stub_lib = p->module_named(core::kStubLibName);
  ASSERT_NE(stub_lib, nullptr);
  p->mem.poke(stub_lib->base +
                  stub_lib->binary->find_symbol("stub_count")->value,
              &huge, 8);
  const uint64_t slots =
      stub_lib->binary->find_symbol("stub_slots")->size / core::kStubSlotBytes;
  EXPECT_EQ(dc.poll_stub_hits(), 0u);  // no probe yet: nothing new
  ASSERT_EQ(px.ring.count(ev::kWarning), 2u);
  warn = px.ring.of_type(ev::kWarning)[1];
  EXPECT_EQ(warn->attr_u64("raw_count"), huge);
  EXPECT_EQ(warn->attr_u64("capacity"), slots);
}

// --- CutRequest ----------------------------------------------------------

TEST(CutRequestTest, PerRequestCheckOverride) {
  os::Os vos;
  auto bin = testing::build_toysrv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  DynaCut dc(vos, pid);  // instance-wide kEnforce

  FeatureSpec skewed;
  skewed.name = "skewed";
  skewed.blocks = {{"toysrv", bin->find_symbol("dispatch")->value + 1, 1}};

  // Enforced by default: the mid-instruction plan is rejected.
  EXPECT_THROW(dc.disable_feature({.feature = skewed}), StateError);
  // The same plan applies when this one request opts out of checking.
  dc.disable_feature(
      {.feature = skewed, .check = core::CheckMode::kOff});
  EXPECT_TRUE(dc.feature_disabled("skewed"));
  dc.restore_feature("skewed");
  EXPECT_EQ(dc.check_mode(), core::CheckMode::kEnforce);  // unchanged
}

TEST(CutRequestTest, LabelAndTagsRideOnTheCommitEvent) {
  ObsPipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&px.bus, &px.reg);
  CustomizeReport rep =
      dc.disable_feature({.feature = px.feature_b,
                          .removal = RemovalPolicy::kBlockFirstByte,
                          .trap = TrapPolicy::kRedirect,
                          .label = "cve-2026-0001",
                          .tags = {{"ticket", "SEC-42"}}});
  EXPECT_EQ(rep.obs.label, "cve-2026-0001");
  const Event* commit = px.ring.of_type(ev::kTxnCommit)[0];
  EXPECT_EQ(commit->attr_str("label"), "cve-2026-0001");
  EXPECT_EQ(commit->attr_str("ticket"), "SEC-42");
  EXPECT_EQ(commit->attr_str("action"), "disable");
  // The recorder tracks the obs label, not the feature name.
  EXPECT_EQ(px.recorder.disabled_features(),
            std::vector<std::string>{"cve-2026-0001"});
  // Feature bookkeeping still uses the feature name.
  EXPECT_TRUE(dc.feature_disabled("B"));
  dc.restore_feature("B");
}

}  // namespace
}  // namespace dynacut
