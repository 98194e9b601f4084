// Stub cuts (Mechanism::kStub/kAuto): callsite/PLT redirection to an
// injected deny stub must serve disabled-feature probes without a single
// SIGTRAP, flip to and from the trap mechanism under GroupTxn, survive the
// full fault-injection matrix with bit-identical rollback, and carry the
// same feature/policy observability as trap hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <tuple>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "core/handler_lib.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut::core {
namespace {

using analysis::CovBlock;

// ---------------------------------------------------------------------------
// Rig: toysrv with the feature spec narrowed to the callee function, so the
// deny is purely the redirected `call handle_b` (the dispatcher arm stays
// live and its continuation runs after the stub returns).
// ---------------------------------------------------------------------------

struct StubPipeline {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;
  FeatureSpec handle_b_spec;
  os::HostConn conn;

  StubPipeline() {
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

    const melf::Symbol* hb = bin->find_symbol("handle_b");
    handle_b_spec.name = "B";
    for (const auto& b :
         analysis::feature_diff({undesired}, {wanted}, "toysrv").blocks()) {
      if (b.offset >= hb->value && b.offset < hb->value + hb->size) {
        handle_b_spec.blocks.push_back(b);
      }
    }

    pid = vos.spawn(bin, {apps::build_libc()});
    vos.run();
    conn = vos.connect(80);
  }

  std::string request(const std::string& line) {
    conn.send(line);
    vos.run();
    return conn.recv_all();
  }

  CutRequest stub_request(TrapPolicy trap = TrapPolicy::kTerminate) {
    return CutRequest{.feature = handle_b_spec,
                      .removal = RemovalPolicy::kBlockFirstByte,
                      .trap = trap,
                      .check = CheckMode::kWarn,
                      .mechanism = CutMechanism::kStub};
  }
};

TEST(StubCut, DeniesWithoutAnySignal) {
  StubPipeline px;
  EXPECT_EQ(px.request("B\n"), "beta\n");  // enabled baseline

  DynaCut dc(px.vos, px.pid);
  CustomizeReport rep = dc.disable_feature(px.stub_request());
  EXPECT_GE(rep.edits.callsites_stubbed, 1u);
  EXPECT_GT(rep.edits.blocks_patched, 0u);  // int3 net still installed

  const uint64_t traps_before = px.vos.total_sigtraps();
  // The denied probe costs one branch: the dispatcher's continuation runs
  // (returning 0, writing nothing) and the server stays up — no SIGTRAP,
  // even though the trap policy is kTerminate.
  EXPECT_EQ(px.request("B\n"), "");
  EXPECT_EQ(px.request("B\n"), "");
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);
  EXPECT_EQ(px.vos.total_sigtraps(), traps_before);
  EXPECT_EQ(px.request("A\n"), "alpha\n");  // other features unaffected

  // The safety net is real: handle_b's entry byte is a trap.
  const os::Process* p = px.vos.process(px.pid);
  const os::LoadedModule* app = p->module_named("toysrv");
  uint64_t entry = app->base + px.bin->find_symbol("handle_b")->value;
  EXPECT_EQ(p->mem.peek_bytes(entry, 1)[0], 0xCC);

  // The two denied probes were counted by the stub's guest-side slot.
  EXPECT_GE(dc.poll_stub_hits(), 2u);
  EXPECT_EQ(dc.poll_stub_hits(), 0u);  // second poll: nothing new
}

TEST(StubCut, HitEventsCarryFeatureAndPolicy) {
  StubPipeline px;
  obs::EventBus bus;
  obs::RingBufferSink ring{1 << 14};
  obs::Registry reg;
  bus.add_sink(&ring);
  px.vos.set_event_bus(&bus);

  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&bus, &reg);
  dc.disable_feature(px.stub_request());

  EXPECT_EQ(px.request("B\n"), "");
  EXPECT_EQ(px.request("B\n"), "");
  EXPECT_EQ(dc.poll_stub_hits(), 2u);

  // stub.hit is enriched exactly like trap.hit, so fig8/fig10 timelines
  // stay mechanism-agnostic.
  ASSERT_GE(ring.count(obs::ev::kStubHit), 1u);
  const obs::Event* hit = ring.of_type(obs::ev::kStubHit)[0];
  EXPECT_EQ(hit->pid, px.pid);
  EXPECT_EQ(hit->attr_str("feature"), "B");
  EXPECT_EQ(hit->attr_str("policy"), "terminate");
  EXPECT_GT(hit->attr_u64("addr"), 0u);
  EXPECT_EQ(hit->attr_u64("hits"), 2u);
  EXPECT_EQ(reg.counter("cut.stub_hits"), 2u);
  EXPECT_EQ(reg.counter("cut.stub_hits.B"), 2u);
  EXPECT_EQ(ring.count(obs::ev::kTrapHit), 0u);
  EXPECT_EQ(reg.counter("trap.hits"), 0u);
  EXPECT_GE(reg.counter("cut.callsites_stubbed"), 1u);
}

TEST(StubCut, RewriteStubEventsEmittedUnderTxn) {
  StubPipeline px;
  obs::EventBus bus;
  obs::RingBufferSink ring{1 << 14};
  bus.add_sink(&ring);

  DynaCut dc(px.vos, px.pid);
  dc.set_observer(&bus, nullptr);
  dc.disable_feature(px.stub_request());

  ASSERT_GE(ring.count(obs::ev::kRewriteStub), 1u);
  const obs::Event* e = ring.of_type(obs::ev::kRewriteStub)[0];
  EXPECT_EQ(e->attr_str("kind"), "branch");
  EXPECT_GT(e->attr_u64("target"), 0u);
  // Staged inside the disable transaction like every other rewrite event.
  EXPECT_NE(e->txn, 0u);
}

TEST(StubCut, MechanismFlipStubToTrapAndBack) {
  StubPipeline px;
  DynaCut dc(px.vos, px.pid);

  // Only code and GOT are patched; bss holds request buffers that serving
  // legitimately mutates, so bit-identity is asserted on text+got.
  auto text_bytes = [&] {
    const os::Process* p = px.vos.process(px.pid);
    const os::LoadedModule* app = p->module_named("toysrv");
    std::vector<uint8_t> out;
    for (auto kind : {melf::SectionKind::kText, melf::SectionKind::kPlt,
                      melf::SectionKind::kGot}) {
      const melf::Section* sec = px.bin->section(kind);
      if (sec == nullptr || sec->size == 0) continue;
      auto part = p->mem.peek_bytes(app->base + sec->offset, sec->size);
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  const auto pristine = text_bytes();

  // Round 1: stub mechanism. Undo must be bit-identical so the flip to
  // trap starts from pristine bytes.
  dc.disable_feature(px.stub_request());
  EXPECT_EQ(px.request("B\n"), "");
  dc.restore_feature("B");
  EXPECT_EQ(text_bytes(), pristine);
  EXPECT_EQ(px.request("B\n"), "beta\n");

  // Round 2: trap mechanism on the same spec — the probe now costs a
  // SIGTRAP (kTerminate kills, proving the signal path is back).
  CutRequest trap_req = px.stub_request();
  trap_req.mechanism = CutMechanism::kTrap;
  dc.disable_feature(trap_req);
  const uint64_t traps_before = px.vos.total_sigtraps();
  px.conn.send("B\n");
  px.vos.run();
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, os::sig::kSigTrap);
  EXPECT_GT(px.vos.total_sigtraps(), traps_before);
}

TEST(StubCut, DecodeCachesInvalidatedWhenStubLandsMidTrace) {
  // Warm the B path so its blocks sit in the decode cache / superblock
  // tier, then stub it: the very next probe must see the redirected call,
  // not a stale cached target.
  StubPipeline px;
  EXPECT_EQ(px.request("B\n"), "beta\n");
  EXPECT_EQ(px.request("B\n"), "beta\n");  // hot

  DynaCut dc(px.vos, px.pid);
  dc.disable_feature(px.stub_request());
  EXPECT_EQ(px.request("B\n"), "");  // stale trace would print "beta\n"
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);

  dc.restore_feature("B");
  EXPECT_EQ(px.request("B\n"), "beta\n");  // and back
}

TEST(StubCut, StubWithUnmapPolicyThrows) {
  StubPipeline px;
  DynaCut dc(px.vos, px.pid);
  CutRequest req = px.stub_request();
  req.removal = RemovalPolicy::kUnmapPages;
  EXPECT_THROW(dc.disable_feature(req), StateError);
}

// ---------------------------------------------------------------------------
// kAuto: address-taken entries keep the trap mechanism.
// ---------------------------------------------------------------------------

TEST(StubCut, AutoDemotesAddressTakenEntryToTrap) {
  namespace sys = os::sys;
  melf::ProgramBuilder b("autog");
  b.func("feat_taken").mov_ri(0, 1).ret();
  b.func("feat_plain").mov_ri(0, 2).ret();
  auto& m = b.func("main");
  m.label("spin");
  m.mark("site_taken").call("feat_taken");
  m.mark("site_plain").call("feat_plain");
  m.mov_sym(5, "feat_taken");  // the address escapes (kAbs64 reloc)
  m.mov_ri(1, 500).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin);
  vos.run(3000);

  const melf::Symbol* taken = bin->find_symbol("feat_taken");
  const melf::Symbol* plain = bin->find_symbol("feat_plain");
  FeatureSpec spec;
  spec.name = "both";
  spec.blocks = {
      CovBlock{"autog", taken->value, static_cast<uint32_t>(taken->size)},
      CovBlock{"autog", plain->value, static_cast<uint32_t>(plain->size)}};

  const os::Process* p = vos.process(pid);
  const uint64_t site_taken =
      kAppBase + bin->find_symbol("site_taken")->value;
  const uint64_t site_plain =
      kAppBase + bin->find_symbol("site_plain")->value;
  const auto taken_before = p->mem.peek_bytes(site_taken, 5);

  DynaCut dc(vos, pid, {}, CheckMode::kOff);
  CustomizeReport rep = dc.disable_feature(
      {.feature = spec,
       .removal = RemovalPolicy::kBlockFirstByte,
       .trap = TrapPolicy::kTerminate,
       .mechanism = CutMechanism::kAuto});

  // Only the provably callsite-only entry was stubbed.
  EXPECT_EQ(rep.edits.callsites_stubbed, 1u);
  p = vos.process(pid);

  // The call at the address-taken entry's callsite is untouched (its entry
  // keeps the int3 mechanism); the plain one's rel32 now leaves the module.
  EXPECT_EQ(p->mem.peek_bytes(site_taken, 5), taken_before);
  auto rel = p->mem.peek_bytes(site_plain + 1, 4);
  int32_t disp = static_cast<int32_t>(
      static_cast<uint32_t>(rel[0]) | (static_cast<uint32_t>(rel[1]) << 8) |
      (static_cast<uint32_t>(rel[2]) << 16) |
      (static_cast<uint32_t>(rel[3]) << 24));
  uint64_t target = site_plain + 5 + static_cast<uint64_t>(disp);
  EXPECT_NE(target, kAppBase + plain->value);
  const os::LoadedModule* stub_lib = p->module_at(target);
  ASSERT_NE(stub_lib, nullptr);
  EXPECT_EQ(stub_lib->name, kStubLibName);

  // Both entries still carry the safety net.
  EXPECT_EQ(p->mem.peek_bytes(kAppBase + taken->value, 1)[0], 0xCC);
  EXPECT_EQ(p->mem.peek_bytes(kAppBase + plain->value, 1)[0], 0xCC);
}

// ---------------------------------------------------------------------------
// PLT/GOT half: cross-module imports of a stubbed export.
// ---------------------------------------------------------------------------

struct GotRig {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> app;
  std::shared_ptr<const melf::Binary> lib;

  GotRig() {
    namespace sys = os::sys;
    melf::ProgramBuilder lb("featlib");
    lb.func("gadget").mov_ri(0, 9).ret();
    lib = std::make_shared<melf::Binary>(lb.link());

    melf::ProgramBuilder ab("plapp");
    ab.bss("res", 8);
    auto& m = ab.func("main");
    m.label("spin")
        .call_import("gadget")
        .mov_sym(1, "res")
        .store(1, 0, 0)
        .mov_ri(1, 200)
        .sys(sys::kNanosleep)
        .jmp("spin");
    ab.set_entry("main");
    app = std::make_shared<melf::Binary>(ab.link());

    pid = vos.spawn(app, {lib});
    vos.run(4000);
    // Park the process in its nanosleep before cutting: a raw instruction
    // budget can strand the ip at the gadget entry mid-call, where the
    // int3 safety net (correctly) fires on resume regardless of mechanism.
    while (vos.process(pid)->state != os::Process::State::kBlocked) {
      vos.run(1);
    }
  }

  uint64_t result() {
    const os::Process* p = vos.process(pid);
    uint64_t res_addr =
        kAppBase + app->find_symbol("res")->value;
    auto bytes = p->mem.peek_bytes(res_addr, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[i];
    return v;
  }
};

TEST(StubCut, GotSlotRedirectDeniesCrossModuleImport) {
  GotRig rig;
  EXPECT_EQ(rig.result(), 9u);  // enabled: the import returns 9

  const melf::Symbol* gadget = rig.lib->find_symbol("gadget");
  FeatureSpec spec;
  spec.name = "gadget";
  spec.blocks = {CovBlock{"featlib", gadget->value,
                          static_cast<uint32_t>(gadget->size)}};

  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  CustomizeReport rep = dc.disable_feature(
      {.feature = spec,
       .removal = RemovalPolicy::kBlockFirstByte,
       .trap = TrapPolicy::kTerminate,
       .mechanism = CutMechanism::kStub});
  EXPECT_EQ(rep.edits.got_slots_stubbed, 1u);

  const uint64_t traps_before = rig.vos.total_sigtraps();
  rig.vos.run(6000);
  // The import now lands in the deny stub: the caller sees 403, keeps
  // running, and no signal was delivered.
  EXPECT_EQ(rig.result(), kStubDenyResult);
  EXPECT_EQ(rig.vos.process(rig.pid)->term_signal, 0);
  EXPECT_EQ(rig.vos.total_sigtraps(), traps_before);
  EXPECT_GE(dc.poll_stub_hits(), 1u);

  // Restore rewires the GOT slot to the original export.
  dc.restore_feature("gadget");
  rig.vos.run(6000);
  EXPECT_EQ(rig.result(), 9u);
}

// ---------------------------------------------------------------------------
// Fault matrix: every stub patch / inject / undo point must roll back
// bit-identically (the txn_test harness, narrowed to mechanism=kStub).
// ---------------------------------------------------------------------------

std::shared_ptr<const melf::Binary> stub_group_guest() {
  static std::shared_ptr<const melf::Binary> bin = [] {
    namespace sys = os::sys;
    melf::ProgramBuilder b("grp");
    b.func("feat").mov_ri(0, 7).ret();
    auto& m = b.func("main");
    m.sys(sys::kFork);
    m.label("spin")
        .call("feat")
        .mov_ri(1, 500)
        .sys(sys::kNanosleep)
        .jmp("spin");
    b.set_entry("main");
    return std::make_shared<melf::Binary>(b.link());
  }();
  return bin;
}

struct Snap {
  std::map<uint64_t, std::vector<uint8_t>> pages;
  std::vector<std::tuple<uint64_t, uint64_t, uint32_t, std::string>> vmas;
  std::vector<std::pair<std::string, uint64_t>> modules;

  static Snap of(const os::Process& p) {
    Snap s;
    for (uint64_t page : p.mem.populated_pages()) {
      auto bytes = p.mem.page_bytes(page);
      s.pages.emplace(page, std::vector<uint8_t>(bytes.begin(), bytes.end()));
    }
    for (const auto& [start, v] : p.mem.vmas()) {
      s.vmas.emplace_back(v.start, v.end, v.prot, v.name);
    }
    for (const auto& m : p.modules) s.modules.emplace_back(m.name, m.base);
    return s;
  }

  bool operator==(const Snap&) const = default;
};

CutRequest group_stub_request() {
  auto bin = stub_group_guest();
  const melf::Symbol* feat = bin->find_symbol("feat");
  FeatureSpec spec;
  spec.name = "feat";
  spec.blocks = {
      CovBlock{"grp", feat->value, static_cast<uint32_t>(feat->size)}};
  return CutRequest{.feature = spec,
                    .removal = RemovalPolicy::kBlockFirstByte,
                    .trap = TrapPolicy::kTerminate,
                    .mechanism = CutMechanism::kStub};
}

TEST(StubTxnMatrix, DisableAbortsRollBackBitIdentically) {
  const CutRequest req = group_stub_request();

  // Count the fault points of one clean stubbed disable.
  std::array<size_t, kNumFaultStages> totals{};
  {
    os::Os vos;
    int pid = vos.spawn(stub_group_guest());
    vos.run(3000);
    DynaCut dc(vos, pid, {}, CheckMode::kOff);
    FaultPlan counter;
    dc.set_fault_plan(&counter);
    CustomizeReport rep = dc.disable_feature(req);
    ASSERT_GE(rep.edits.callsites_stubbed, 1u);
    for (size_t s = 0; s < kNumFaultStages; ++s) {
      totals[s] = counter.count(static_cast<FaultStage>(s));
    }
  }
  // Stub cuts add rewrite points (the rel32 patches) and inject points
  // (the stub lib) on top of the base matrix.
  ASSERT_GE(totals[static_cast<size_t>(FaultStage::kRewrite)], 2u);
  ASSERT_GE(totals[static_cast<size_t>(FaultStage::kInject)], 1u);

  size_t faulted_runs = 0;
  for (size_t si = 0; si < kNumFaultStages; ++si) {
    const auto fstage = static_cast<FaultStage>(si);
    for (size_t i = 0; i < totals[si]; ++i, ++faulted_runs) {
      SCOPED_TRACE(std::string(fault_stage_name(fstage)) + " #" +
                   std::to_string(i));
      os::Os vos;
      int pid = vos.spawn(stub_group_guest());
      vos.run(3000);
      std::vector<int> group = vos.process_group(pid);
      ASSERT_EQ(group.size(), 2u);
      std::map<int, Snap> before;
      for (int p : group) before[p] = Snap::of(*vos.process(p));

      DynaCut dc(vos, pid, {}, CheckMode::kOff);
      FaultPlan plan = FaultPlan::fail_at(fstage, i);
      dc.set_fault_plan(&plan);
      EXPECT_THROW(dc.disable_feature(req), CustomizeError);

      EXPECT_FALSE(dc.feature_disabled("feat"));
      for (int p : group) {
        const os::Process* proc = vos.process(p);
        ASSERT_NE(proc, nullptr);
        EXPECT_NE(proc->state, os::Process::State::kFrozen);
        EXPECT_TRUE(Snap::of(*proc) == before[p])
            << "pid " << p << " not rolled back bit-identically";
      }
      vos.run(2000);  // the group still executes

      dc.set_fault_plan(nullptr);
      CustomizeReport rep = dc.disable_feature(req);
      EXPECT_EQ(rep.edits.processes, 2u);
      EXPECT_GE(rep.edits.callsites_stubbed, 2u);  // one per pid
    }
  }
  EXPECT_GT(faulted_runs, 0u);
}

TEST(StubTxnMatrix, RestoreAbortsKeepStubbedStateThenUndoBitIdentically) {
  const CutRequest req = group_stub_request();

  // Count the restore-side fault points once.
  std::array<size_t, kNumFaultStages> totals{};
  {
    os::Os vos;
    int pid = vos.spawn(stub_group_guest());
    vos.run(3000);
    DynaCut dc(vos, pid, {}, CheckMode::kOff);
    dc.disable_feature(req);
    FaultPlan counter;
    dc.set_fault_plan(&counter);
    dc.restore_feature("feat");
    for (size_t s = 0; s < kNumFaultStages; ++s) {
      totals[s] = counter.count(static_cast<FaultStage>(s));
    }
  }
  ASSERT_GE(totals[static_cast<size_t>(FaultStage::kRewrite)], 2u);

  for (size_t si = 0; si < kNumFaultStages; ++si) {
    const auto fstage = static_cast<FaultStage>(si);
    for (size_t i = 0; i < totals[si]; ++i) {
      SCOPED_TRACE(std::string(fault_stage_name(fstage)) + " #" +
                   std::to_string(i));
      os::Os vos;
      int pid = vos.spawn(stub_group_guest());
      vos.run(3000);
      std::vector<int> group = vos.process_group(pid);
      std::map<int, Snap> pristine;
      for (int p : group) pristine[p] = Snap::of(*vos.process(p));

      DynaCut dc(vos, pid, {}, CheckMode::kOff);
      dc.disable_feature(req);
      std::map<int, Snap> stubbed;
      for (int p : group) stubbed[p] = Snap::of(*vos.process(p));

      FaultPlan plan = FaultPlan::fail_at(fstage, i);
      dc.set_fault_plan(&plan);
      EXPECT_THROW(dc.restore_feature("feat"), CustomizeError);

      // Aborted restore: still disabled, still the stubbed bytes.
      EXPECT_TRUE(dc.feature_disabled("feat"));
      for (int p : group) {
        EXPECT_TRUE(Snap::of(*vos.process(p)) == stubbed[p])
            << "pid " << p << " not left in the stubbed state";
      }

      // Clean retry: every patched byte heals; only the injected lib's
      // pages (never patched, content untouched) distinguish the images,
      // so compare the app module's bytes against pristine.
      dc.set_fault_plan(nullptr);
      dc.restore_feature("feat");
      for (int p : group) {
        const os::Process* proc = vos.process(p);
        const os::LoadedModule* mod = proc->module_named("grp");
        auto now = proc->mem.peek_bytes(mod->base, mod->size);
        auto& pages = pristine[p].pages;
        std::vector<uint8_t> was;
        for (uint64_t off = 0; off < mod->size; off += kPageSize) {
          auto it = pages.find(mod->base + off);
          ASSERT_NE(it, pages.end());
          was.insert(was.end(), it->second.begin(), it->second.end());
        }
        was.resize(mod->size);
        EXPECT_TRUE(now == was)
            << "pid " << p << " module bytes not bit-identical after undo";
      }
      vos.run(2000);
    }
  }
}

}  // namespace
}  // namespace dynacut::core
