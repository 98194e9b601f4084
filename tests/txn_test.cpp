// Transactional customization: group-atomicity under deterministic fault
// injection. For every fault point a customization passes through
// (checkpoint / rewrite / inject / restore, per pid) and every
// RemovalPolicy × TrapPolicy combination, an aborted disable_feature must
// leave every process of the group bit-identical to its pre-call state
// (.text bytes, VMA list, sigaction table), feature_disabled() must stay
// false, and a retry without the fault must succeed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "core/handler_lib.hpp"
#include "core/txn.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut::core {
namespace {

using analysis::CovBlock;
using analysis::CoverageGraph;

// ---------------------------------------------------------------------------
// Rig: an nginx-style master+worker pair with a removable function.
// ---------------------------------------------------------------------------

/// "grp": main forks a worker, both spin in nanosleep. Function "feat"
/// spans >2 pages of nops (so kUnmapPages drops whole pages) and carries an
/// error mark "feat_err" in the same function but outside the removed range
/// (so kRedirect passes the same-function restriction).
std::shared_ptr<const melf::Binary> group_guest() {
  static std::shared_ptr<const melf::Binary> bin = [] {
    namespace sys = os::sys;
    melf::ProgramBuilder b("grp");
    auto& f = b.func("feat");
    for (size_t i = 0; i < 2 * kPageSize + 128; ++i) f.nop();
    f.mov_ri(0, 7).ret();
    f.label("err").mark("feat_err").mov_ri(0, 1).ret();
    auto& m = b.func("main");
    m.sys(sys::kFork);
    m.label("spin").mov_ri(1, 500).sys(sys::kNanosleep).jmp("spin");
    b.set_entry("main");
    return std::make_shared<melf::Binary>(b.link());
  }();
  return bin;
}

struct GroupRig {
  os::Os vos;
  int pid = 0;

  GroupRig() {
    pid = vos.spawn(group_guest());
    vos.run(3000);
  }
  std::vector<int> group() { return vos.process_group(pid); }
};

/// Feature spec covering two full pages of "feat", redirectable to
/// "feat_err" (same function, outside the removed range).
FeatureSpec matrix_spec() {
  auto bin = group_guest();
  FeatureSpec s;
  s.name = "feat";
  s.blocks = {CovBlock{"grp", bin->find_symbol("feat")->value,
                       static_cast<uint32_t>(2 * kPageSize)}};
  s.redirect_module = "grp";
  s.redirect_offset = bin->find_symbol("feat_err")->value;
  return s;
}

// ---------------------------------------------------------------------------
// Bit-exact process snapshots (the rollback invariant).
// ---------------------------------------------------------------------------

struct Snap {
  std::map<uint64_t, std::vector<uint8_t>> pages;
  std::vector<std::tuple<uint64_t, uint64_t, uint32_t, std::string>> vmas;
  std::vector<std::pair<uint64_t, uint64_t>> sigactions;
  std::vector<std::pair<std::string, uint64_t>> modules;
  uint64_t ip = 0;

  static Snap of(const os::Process& p) {
    Snap s;
    for (uint64_t page : p.mem.populated_pages()) {
      auto bytes = p.mem.page_bytes(page);
      s.pages.emplace(page, std::vector<uint8_t>(bytes.begin(), bytes.end()));
    }
    for (const auto& [start, v] : p.mem.vmas()) {
      s.vmas.emplace_back(v.start, v.end, v.prot, v.name);
    }
    for (const auto& sa : p.sigactions) {
      s.sigactions.emplace_back(sa.handler, sa.restorer);
    }
    for (const auto& m : p.modules) s.modules.emplace_back(m.name, m.base);
    s.ip = p.cpu.ip;
    return s;
  }

  bool operator==(const Snap&) const = default;
};

std::map<int, Snap> snapshot_group(os::Os& vos, const std::vector<int>& pids) {
  std::map<int, Snap> out;
  for (int p : pids) out[p] = Snap::of(*vos.process(p));
  return out;
}

// ---------------------------------------------------------------------------
// The fault matrix.
// ---------------------------------------------------------------------------

/// Counts the fault points one clean disable_feature passes through.
std::array<size_t, kNumFaultStages> count_fault_points(const FeatureSpec& spec,
                                                       RemovalPolicy removal,
                                                       TrapPolicy trap) {
  GroupRig rig;
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  FaultPlan counter;
  dc.set_fault_plan(&counter);
  dc.disable_feature({spec, removal, trap});
  std::array<size_t, kNumFaultStages> totals{};
  for (size_t s = 0; s < kNumFaultStages; ++s) {
    totals[s] = counter.count(static_cast<FaultStage>(s));
  }
  return totals;
}

/// For every fault point of the (removal, trap) scenario: inject the fault,
/// require a rolled-back CustomizeError with bit-identical processes, then
/// retry without the fault and require success.
void run_abort_matrix(RemovalPolicy removal, TrapPolicy trap) {
  const FeatureSpec spec = matrix_spec();
  const auto totals = count_fault_points(spec, removal, trap);
  ASSERT_GE(totals[static_cast<size_t>(FaultStage::kCheckpoint)], 2u);
  ASSERT_GE(totals[static_cast<size_t>(FaultStage::kRestore)], 2u);

  size_t faulted_runs = 0;
  for (size_t si = 0; si < kNumFaultStages; ++si) {
    const auto fstage = static_cast<FaultStage>(si);
    for (size_t i = 0; i < totals[si]; ++i, ++faulted_runs) {
      SCOPED_TRACE(std::string(fault_stage_name(fstage)) + " #" +
                   std::to_string(i));
      GroupRig rig;
      std::vector<int> group = rig.group();
      ASSERT_EQ(group.size(), 2u);
      auto before = snapshot_group(rig.vos, group);

      DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
      FaultPlan plan = FaultPlan::fail_at(fstage, i);
      dc.set_fault_plan(&plan);
      bool threw = false;
      try {
        dc.disable_feature({spec, removal, trap});
      } catch (const CustomizeError& e) {
        threw = true;
        EXPECT_EQ(e.feature(), spec.name);
        EXPECT_EQ(e.stage(), fstage);
        EXPECT_NE(std::find(group.begin(), group.end(), e.pid()),
                  group.end())
            << "error names pid " << e.pid() << " outside the group";
      }
      ASSERT_TRUE(threw) << "fault did not surface as CustomizeError";

      // Rolled back: nothing recorded, nobody frozen, every process
      // bit-identical to its pre-call state.
      EXPECT_FALSE(dc.feature_disabled(spec.name));
      for (int p : group) {
        const os::Process* proc = rig.vos.process(p);
        ASSERT_NE(proc, nullptr);
        EXPECT_NE(proc->state, os::Process::State::kFrozen)
            << "pid " << p << " left frozen";
        EXPECT_TRUE(Snap::of(*proc) == before[p])
            << "pid " << p << " not rolled back bit-identically";
      }
      rig.vos.run(2000);  // the group still executes

      // Retry without the fault succeeds end to end.
      dc.set_fault_plan(nullptr);
      CustomizeReport rep = dc.disable_feature({spec, removal, trap});
      EXPECT_EQ(rep.edits.processes, 2u);
      EXPECT_TRUE(dc.feature_disabled(spec.name));
    }
  }
  EXPECT_GT(faulted_runs, 0u);
}

TEST(TxnMatrix, FirstByteTerminate) {
  run_abort_matrix(RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate);
}
TEST(TxnMatrix, FirstByteRedirect) {
  run_abort_matrix(RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect);
}
TEST(TxnMatrix, FirstByteVerify) {
  run_abort_matrix(RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify);
}
TEST(TxnMatrix, WipeTerminate) {
  run_abort_matrix(RemovalPolicy::kWipeBlocks, TrapPolicy::kTerminate);
}
TEST(TxnMatrix, WipeRedirect) {
  run_abort_matrix(RemovalPolicy::kWipeBlocks, TrapPolicy::kRedirect);
}
TEST(TxnMatrix, UnmapTerminate) {
  run_abort_matrix(RemovalPolicy::kUnmapPages, TrapPolicy::kTerminate);
}
TEST(TxnMatrix, UnmapRedirect) {
  run_abort_matrix(RemovalPolicy::kUnmapPages, TrapPolicy::kRedirect);
}

// ---------------------------------------------------------------------------
// Restore-phase rollback (the re-staging path) and restore_feature faults.
// ---------------------------------------------------------------------------

TEST(Txn, RestorePhaseFailureRestagesAlreadyPatchedProcesses) {
  // Fail the *second* restore of the commit phase: the first process is
  // already running patched code and must be re-frozen and re-staged from
  // its saved pristine image.
  GroupRig rig;
  std::vector<int> group = rig.group();
  ASSERT_EQ(group.size(), 2u);
  auto before = snapshot_group(rig.vos, group);

  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  FaultPlan plan = FaultPlan::fail_at(FaultStage::kRestore, 1);
  dc.set_fault_plan(&plan);
  FeatureSpec spec = matrix_spec();
  bool threw = false;
  try {
    dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                       TrapPolicy::kTerminate});
  } catch (const CustomizeError& e) {
    threw = true;
    EXPECT_EQ(e.stage(), FaultStage::kRestore);
    EXPECT_EQ(e.pid(), group[1]);
  }
  ASSERT_TRUE(threw);

  // The pristine images went through the tmpfs store during staging.
  for (int p : group) {
    EXPECT_TRUE(
        dc.store().contains(image::ImageKey{p, image::ImageKey::kPreTag}));
  }
  for (int p : group) {
    EXPECT_TRUE(Snap::of(*rig.vos.process(p)) == before[p]) << "pid " << p;
  }
  EXPECT_FALSE(dc.feature_disabled("feat"));
}

TEST(Txn, AbortedRestoreFeatureKeepsFeatureDisabled) {
  const FeatureSpec spec = matrix_spec();

  // Count restore_feature's fault points on a clean rig.
  std::array<size_t, kNumFaultStages> totals{};
  {
    GroupRig rig;
    DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
    dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                       TrapPolicy::kTerminate});
    FaultPlan counter;
    dc.set_fault_plan(&counter);
    dc.restore_feature("feat");
    for (size_t s = 0; s < kNumFaultStages; ++s) {
      totals[s] = counter.count(static_cast<FaultStage>(s));
    }
  }

  uint64_t feat_addr = kAppBase + group_guest()->find_symbol("feat")->value;
  for (size_t si = 0; si < kNumFaultStages; ++si) {
    const auto fstage = static_cast<FaultStage>(si);
    for (size_t i = 0; i < totals[si]; ++i) {
      SCOPED_TRACE(std::string(fault_stage_name(fstage)) + " #" +
                   std::to_string(i));
      GroupRig rig;
      DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
      dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                         TrapPolicy::kTerminate});
      std::vector<int> group = rig.group();
      auto patched = snapshot_group(rig.vos, group);

      FaultPlan plan = FaultPlan::fail_at(fstage, i);
      dc.set_fault_plan(&plan);
      EXPECT_THROW(dc.restore_feature("feat"), CustomizeError);

      // Aborted restore: the feature stays fully disabled, processes keep
      // their patched-but-consistent state.
      EXPECT_TRUE(dc.feature_disabled("feat"));
      for (int p : group) {
        EXPECT_TRUE(Snap::of(*rig.vos.process(p)) == patched[p])
            << "pid " << p;
      }

      // Clean retry fully re-enables.
      dc.set_fault_plan(nullptr);
      dc.restore_feature("feat");
      EXPECT_FALSE(dc.feature_disabled("feat"));
      for (int p : group) {
        EXPECT_EQ(rig.vos.process(p)->mem.peek_bytes(feat_addr, 1)[0], 0x90)
            << "pid " << p;
      }
    }
  }
}

TEST(Txn, FreezeGroupIsAllOrNothing) {
  GroupRig rig;
  std::vector<int> pids = rig.group();
  pids.push_back(4242);  // no such process
  EXPECT_THROW(rig.vos.freeze_group(pids), StateError);
  for (int p : rig.group()) {
    EXPECT_NE(rig.vos.process(p)->state, os::Process::State::kFrozen);
  }
}

// ---------------------------------------------------------------------------
// Aborted customization on a live server: connection survival + retry.
// ---------------------------------------------------------------------------

struct ServerRig {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;
  FeatureSpec feature_b;
  os::HostConn conn;

  ServerRig() {
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
  }

  std::string request(const std::string& line) {
    conn.send(line);
    vos.run();
    return conn.recv_all();
  }
};

TEST(Txn, AbortedDisableKeepsServiceAndConnection) {
  ServerRig srv;
  EXPECT_EQ(srv.request("B\n"), "beta\n");

  DynaCut dc(srv.vos, srv.pid);
  FaultPlan plan = FaultPlan::fail_at(FaultStage::kInject, 0);
  dc.set_fault_plan(&plan);
  EXPECT_THROW(dc.disable_feature({srv.feature_b,
                                  RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               CustomizeError);

  // Rolled back: the feature still answers, over the same connection
  // (TCP_REPAIR-style survival), and nothing was recorded.
  EXPECT_FALSE(dc.feature_disabled("B"));
  EXPECT_EQ(srv.request("B\n"), "beta\n");

  // The exact same customization succeeds once the fault is gone.
  dc.set_fault_plan(nullptr);
  dc.disable_feature({srv.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  EXPECT_EQ(srv.request("B\n"), "err\n");
  EXPECT_EQ(srv.request("A\n"), "alpha\n");
}

TEST(Txn, CustomizeErrorIsAStateError) {
  // Callers written against the pre-transactional API catch StateError.
  GroupRig rig;
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  FaultPlan plan = FaultPlan::fail_at(FaultStage::kCheckpoint, 0);
  dc.set_fault_plan(&plan);
  EXPECT_THROW(dc.disable_feature({matrix_spec(),
                                  RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kTerminate}),
               StateError);
}

// ---------------------------------------------------------------------------
// Satellite regressions.
// ---------------------------------------------------------------------------

TEST(Txn, RestoreFeatureChargesPerPidDeltas) {
  // Two processes, one patched block each: restore must charge exactly
  // 2 × patch_cost(1 block); the old cumulative accounting charged the
  // second process for the first one's undo as well (3 blocks total).
  GroupRig rig;
  auto bin = group_guest();
  FeatureSpec spec;
  spec.name = "one";
  spec.blocks = {CovBlock{"grp", bin->find_symbol("feat")->value, 1}};
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kTerminate});

  CustomizeReport rep = dc.restore_feature("one");
  EXPECT_EQ(rep.edits.processes, 2u);
  EXPECT_EQ(rep.edits.blocks_patched, 2u);
  CostModel model;
  EXPECT_EQ(rep.timing.code_update_ns, 2 * model.patch_cost(1, 0));
}

TEST(Txn, SecondVerifyFeatureMergesIntoExistingVerifier) {
  ServerRig srv;
  const melf::Symbol* ha = srv.bin->find_symbol("handle_a");
  const melf::Symbol* hb = srv.bin->find_symbol("handle_b");
  FeatureSpec fa{"A_over", {CovBlock{"toysrv", ha->value, 1}}, "", 0};
  FeatureSpec fb{"B_over", {CovBlock{"toysrv", hb->value, 1}}, "", 0};

  DynaCut dc(srv.vos, srv.pid);
  dc.disable_feature({fa, RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify});
  dc.disable_feature({fb, RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify});

  // One verifier library, not two: the second feature merged its originals.
  const os::Process* p = srv.vos.process(srv.pid);
  size_t verifier_modules = 0;
  for (const auto& m : p->modules) {
    if (m.name == kVerifyLibName) ++verifier_modules;
  }
  EXPECT_EQ(verifier_modules, 1u);

  // Both over-removed features heal on first touch.
  EXPECT_EQ(srv.request("A\n"), "alpha\n");
  EXPECT_EQ(srv.request("B\n"), "beta\n");
  EXPECT_EQ(dc.verifier_log(srv.pid).size(), 2u);
}

TEST(Txn, ScribbledTableCountFailsTheNextDisableCleanly) {
  // Each injected table's count lives in guest memory. Whatever the guest
  // writes there, the next append must fail before it writes anything: a
  // count of UINT64_MAX must not wrap the capacity check, and a full table
  // must not take one more record.
  struct Case {
    GuestTable table;
    TrapPolicy trap;
    CutMechanism mechanism;
  };
  for (const Case& c :
       {Case{kRedirectTable, TrapPolicy::kRedirect, CutMechanism::kTrap},
        Case{kOrigTable, TrapPolicy::kVerify, CutMechanism::kTrap},
        Case{kStubSlots, TrapPolicy::kTerminate, CutMechanism::kStub}}) {
    SCOPED_TRACE(c.table.count_sym);
    ServerRig srv;
    DynaCut dc(srv.vos, srv.pid, {}, CheckMode::kOff);
    const CutRequest req{.feature = srv.feature_b,
                         .removal = RemovalPolicy::kBlockFirstByte,
                         .trap = c.trap,
                         .mechanism = c.mechanism};
    // One disable→restore leaves the library injected with a used table.
    dc.disable_feature(req);
    dc.restore_feature("B");
    os::Process* p = srv.vos.process(srv.pid);
    const os::LoadedModule* lib = p->module_named(c.table.lib);
    ASSERT_NE(lib, nullptr);
    const uint64_t count_addr =
        lib->base + lib->binary->find_symbol(c.table.count_sym)->value;
    const uint64_t capacity =
        lib->binary->find_symbol(c.table.records_sym)->size /
        c.table.record_bytes;

    for (uint64_t scribbled : {~uint64_t{0}, capacity}) {
      SCOPED_TRACE(scribbled);
      p->mem.poke(count_addr, &scribbled, 8);
      const Snap before = Snap::of(*p);
      EXPECT_THROW(dc.disable_feature(req), CustomizeError);
      EXPECT_TRUE(Snap::of(*p) == before);
      EXPECT_FALSE(dc.feature_disabled("B"));
      EXPECT_EQ(srv.request("B\n"), "beta\n");
    }
  }
}

TEST(Txn, DoubleInitTrimRemainsFullyRestorable) {
  GroupRig rig;
  auto bin = group_guest();
  uint64_t off = bin->find_symbol("feat")->value;
  uint64_t addr = kAppBase + off;

  CoverageGraph round1;
  round1.insert(CovBlock{"grp", off, 1});
  CoverageGraph round2;  // overlaps round 1 and adds a new block
  round2.insert(CovBlock{"grp", off, 1});
  round2.insert(CovBlock{"grp", off + 1, 1});

  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  dc.remove_init_code(round1, RemovalPolicy::kBlockFirstByte);
  dc.remove_init_code(round2, RemovalPolicy::kBlockFirstByte);
  EXPECT_TRUE(dc.feature_disabled("__init__"));
  for (int p : rig.group()) {
    auto bytes = rig.vos.process(p)->mem.peek_bytes(addr, 2);
    EXPECT_EQ(bytes[0], 0xCC);
    EXPECT_EQ(bytes[1], 0xCC);
  }

  // A single restore undoes *both* rounds (the second trim merged its edit
  // records instead of overwriting the first round's stashed bytes).
  dc.restore_feature("__init__");
  EXPECT_FALSE(dc.feature_disabled("__init__"));
  for (int p : rig.group()) {
    auto bytes = rig.vos.process(p)->mem.peek_bytes(addr, 2);
    EXPECT_EQ(bytes[0], 0x90) << "pid " << p;
    EXPECT_EQ(bytes[1], 0x90) << "pid " << p;
  }
}

TEST(Txn, FaultPlanCountsAndFiresDeterministically) {
  FaultPlan counter;
  counter.fire(FaultStage::kCheckpoint);
  counter.fire(FaultStage::kCheckpoint);
  counter.fire(FaultStage::kRewrite);
  EXPECT_EQ(counter.count(FaultStage::kCheckpoint), 2u);
  EXPECT_EQ(counter.count(FaultStage::kRewrite), 1u);
  EXPECT_EQ(counter.count(FaultStage::kRestore), 0u);

  FaultPlan armed = FaultPlan::fail_at(FaultStage::kRewrite, 1);
  EXPECT_NO_THROW(armed.fire(FaultStage::kRewrite));     // #0
  EXPECT_NO_THROW(armed.fire(FaultStage::kCheckpoint));  // other stage
  EXPECT_THROW(armed.fire(FaultStage::kRewrite), InjectedFault);  // #1
  EXPECT_NO_THROW(armed.fire(FaultStage::kRewrite));     // #2: past it
}

}  // namespace
}  // namespace dynacut::core
