// Tests for the process-wide analysis memo (slicer::model_for) and the
// windowed CC006 gadget delta it makes cheap: the shared model equals a
// fresh slicer::analyze on every guest app, a second lookup shares the
// first one's model, a new binary at a dead binary's address gets its own
// model, results are identical with the memo cold and warm, and the
// windowed gadget delta equals two whole-module scans on seeded plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "analysis/gadget.hpp"
#include "analysis/slicer/slicer.hpp"
#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "common/constants.hpp"
#include "common/rng.hpp"
#include "core/dynacut.hpp"
#include "isa/isa.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "rewriter/rewriter.hpp"
#include "test_guests.hpp"

namespace dynacut {
namespace {

namespace slicer = analysis::slicer;
namespace cutcheck = analysis::cutcheck;
using cutcheck::CheckReport;
using cutcheck::CutPlan;
using cutcheck::Mechanism;
using cutcheck::Removal;
using cutcheck::Trap;
using Builder = std::function<std::shared_ptr<const melf::Binary>()>;

const std::vector<Builder>& app_builders() {
  static const std::vector<Builder> kApps = {
      [] { return apps::build_minikv(); }, [] { return apps::build_miniweb(); },
      [] { return apps::build_minihttpd(); }};
  return kApps;
}

void expect_same_model(const slicer::SliceModel& a,
                       const slicer::SliceModel& b) {
  EXPECT_EQ(a.bin, b.bin);
  EXPECT_TRUE(a.cfg == b.cfg);
  EXPECT_TRUE(a.funcs == b.funcs);
  EXPECT_EQ(a.deps.idom, b.deps.idom);
  EXPECT_TRUE(a.indirect == b.indirect);
  EXPECT_EQ(a.deps.callers, b.deps.callers);
  EXPECT_EQ(a.direct_calls, b.direct_calls);
  EXPECT_EQ(a.deps.address_taken, b.deps.address_taken);
  EXPECT_EQ(a.deps.data_deps, b.deps.data_deps);
  EXPECT_EQ(a.all_indirect_resolved, b.all_indirect_resolved);
  EXPECT_EQ(a.pinned_functions, b.pinned_functions);
}

/// A seeded plan over `bin`'s code shaped to stress the CC006 windows:
/// whole blocks, adjacent and overlapping ranges whose windows merge, a
/// range running past the end of .text (the clamped fill) and, under
/// kUnmapPages, a whole page (dropped) plus a page named as two duplicate
/// halves (kept mapped: only half of it is named).
CutPlan random_plan(const std::shared_ptr<const melf::Binary>& bin,
                    const analysis::StaticCfg& cfg, Removal removal,
                    Mechanism mechanism, uint64_t seed) {
  Rng rng(seed);
  std::vector<const analysis::CfgBlock*> blocks;
  for (const auto& [off, b] : cfg.blocks) blocks.push_back(&b);
  const melf::Section* text = bin->section(melf::SectionKind::kText);
  const uint64_t text_end = text->offset + text->bytes.size();

  CutPlan p;
  p.feature = "random";
  p.module = bin->name;
  p.binary = bin;
  p.removal = removal;
  p.mechanism = mechanism;
  auto add = [&](uint64_t off, uint64_t size) {
    p.blocks.push_back({bin->name, off, static_cast<uint32_t>(size)});
  };
  for (int i = 0; i < 6; ++i) {
    const analysis::CfgBlock* b = blocks[rng.below(blocks.size())];
    add(b->offset, b->size);
    if (rng.chance(1, 2)) add(b->offset + b->size, rng.range(1, 40));
    if (rng.chance(1, 2)) add(b->offset + rng.below(b->size), rng.range(1, 80));
  }
  add(text_end - rng.range(1, 30), rng.range(31, 200));
  if (removal == Removal::kUnmapPages) {
    add(page_floor(text->offset + rng.below(text->bytes.size())), kPageSize);
    const uint64_t halves =
        page_floor(text->offset + rng.below(text->bytes.size()));
    add(halves, kPageSize / 2);
    add(halves, kPageSize / 2);
  }
  return p;
}

/// The pages kUnmapPages drops for `plan`.
std::vector<uint64_t> dropped_pages(const CutPlan& plan) {
  cutcheck::ByteSet named;
  for (const auto& [off, size] : plan.ranges()) named.add(off, off + size);
  return cutcheck::covered_pages(named);
}

/// The whole module's gadget starts before and after `plan`, from two
/// scan_gadgets passes over its simulated rewrite — CC006 without windows.
std::pair<uint64_t, uint64_t> full_scans(const CutPlan& plan) {
  vm::AddressSpace mem = analysis::code_space(*plan.binary);
  const uint64_t before = analysis::scan_gadgets(mem).gadget_starts;
  for (const auto& sec : plan.binary->sections) {
    if ((melf::section_prot(sec.kind) & kProtExec) == 0) continue;
    const uint64_t eb = sec.offset, ee = sec.offset + sec.bytes.size();
    for (const auto& [off, size] : plan.ranges()) {
      const uint64_t len = plan.removal == Removal::kBlockFirstByte ? 1 : size;
      const uint64_t lo = std::max(off, eb), hi = std::min(off + len, ee);
      if (lo >= hi) continue;
      mem.poke_bytes(kAppBase + lo,
                     std::vector<uint8_t>(hi - lo, static_cast<uint8_t>(
                                                       isa::Op::kTrap)));
    }
  }
  if (plan.removal == Removal::kUnmapPages) {
    for (uint64_t page : dropped_pages(plan)) {
      const vm::Vma* v = mem.vma_at(kAppBase + page);
      if (v != nullptr && v->contains(kAppBase + page + kPageSize - 1)) {
        mem.unmap(kAppBase + page, kPageSize);
      }
    }
  }
  return {before, analysis::scan_gadgets(mem).gadget_starts};
}

// --- the memo --------------------------------------------------------------

TEST(ModelMemoTest, CachedModelEqualsFreshAnalysisOnEveryGuestApp) {
  std::vector<Builder> builders = app_builders();
  builders.push_back([] { return apps::build_libc(); });
  for (const Builder& build : builders) {
    const auto bin = build();
    SCOPED_TRACE(bin->name);
    const auto cached = slicer::model_for(bin);
    expect_same_model(*cached, slicer::analyze(*bin));
    EXPECT_TRUE(std::is_sorted(cached->gadget_starts.begin(),
                               cached->gadget_starts.end()));
    EXPECT_EQ(cached->gadget_starts.size(),
              analysis::scan_gadgets(analysis::code_space(*bin)).gadget_starts);
  }
}

TEST(ModelMemoTest, SecondLookupReturnsTheSameModel) {
  const auto bin = dynacut::testing::build_toysrv();
  const slicer::ModelMemoStats before = slicer::model_memo_stats();
  const auto first = slicer::model_for(bin);
  const auto second = slicer::model_for(bin);
  EXPECT_EQ(first.get(), second.get());
  const slicer::ModelMemoStats after = slicer::model_memo_stats();
  EXPECT_EQ(after.lookups - before.lookups, 2u);
  EXPECT_EQ(after.analyses - before.analyses, 1u);
}

TEST(ModelMemoTest, NewBinaryAtADeadBinarysAddressGetsItsOwnModel) {
  // Both binaries live in one slot of storage, as when the allocator hands
  // a freed binary's memory to the next one: the memo's key matches, and
  // only the expired weak reference tells the entries apart.
  alignas(melf::Binary) unsigned char slot[sizeof(melf::Binary)];
  auto place = [&](const std::shared_ptr<const melf::Binary>& src) {
    const melf::Binary* p = new (slot) melf::Binary(*src);
    return std::shared_ptr<const melf::Binary>(
        p, [](const melf::Binary* b) { b->~Binary(); });
  };
  std::shared_ptr<const slicer::SliceModel> dead_model;
  {
    const auto toysrv = place(dynacut::testing::build_toysrv());
    dead_model = slicer::model_for(toysrv);
  }
  const auto kv = place(apps::build_minikv());
  ASSERT_EQ(static_cast<const void*>(kv.get()),
            static_cast<const void*>(slot));
  const uint64_t analyses = slicer::model_memo_stats().analyses;
  const auto model = slicer::model_for(kv);
  EXPECT_EQ(slicer::model_memo_stats().analyses, analyses + 1);
  EXPECT_NE(model.get(), dead_model.get());
  expect_same_model(*model, slicer::analyze(*kv));
}

TEST(ModelMemoTest, ChecksAndExpansionsMatchColdAndWarm) {
  uint64_t seed = 100;
  for (const Builder& build : app_builders()) {
    for (Removal removal : {Removal::kBlockFirstByte, Removal::kWipeBlocks,
                            Removal::kUnmapPages}) {
      for (Mechanism mech :
           {Mechanism::kTrap, Mechanism::kStub, Mechanism::kAuto}) {
        // A fresh binary: its first lookup analyses, the second hits.
        const auto bin = build();
        const CutPlan plan = random_plan(bin, analysis::recover_cfg(*bin),
                                         removal, mech, ++seed);
        SCOPED_TRACE(bin->name + " seed " + std::to_string(seed));
        std::vector<CutPlan> cold_plans = {plan};
        std::vector<CutPlan> warm_plans = {plan};
        const uint64_t analyses = slicer::model_memo_stats().analyses;

        const CheckReport cold = cutcheck::check_plans(cold_plans);
        const CheckReport warm = cutcheck::check_plans(warm_plans);
        EXPECT_EQ(cold.format(), warm.format());
        EXPECT_EQ(cold.gadget_delta, warm.gadget_delta);

        const rw::SliceExpansion cold_exp =
            rw::expand_plans_to_slice(cold_plans);
        const rw::SliceExpansion warm_exp =
            rw::expand_plans_to_slice(warm_plans);
        EXPECT_EQ(slicer::model_memo_stats().analyses, analyses + 1);
        EXPECT_EQ(std::tie(cold_exp.seeds, cold_exp.expanded,
                           cold_exp.witnesses),
                  std::tie(warm_exp.seeds, warm_exp.expanded,
                           warm_exp.witnesses));
        auto extents = [](const CutPlan& p) {
          std::vector<std::pair<uint64_t, uint32_t>> out;
          for (const auto& b : p.blocks) out.emplace_back(b.offset, b.size);
          return out;
        };
        EXPECT_EQ(extents(cold_plans[0]), extents(warm_plans[0]));
      }
    }
  }
}

/// toysrv booted with libc: the world one toggle sequence runs in.
struct World {
  os::Os vos;
  std::shared_ptr<const melf::Binary> bin = dynacut::testing::build_toysrv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  World() { vos.run(); }
};

std::string describe(const core::CustomizeReport& r) {
  std::string out;
  for (uint64_t v :
       {r.timing.checkpoint_ns, r.timing.code_update_ns, r.timing.inject_ns,
        r.timing.restore_ns, r.timing.analysis_ns,
        uint64_t{r.edits.processes}, uint64_t{r.edits.blocks_patched},
        uint64_t{r.edits.pages_unmapped}, uint64_t{r.edits.bytes_patched},
        r.edits.image_pages, r.edits.pages_dumped, r.edits.pages_shared,
        r.edits.pages_restored, r.edits.pages_touched,
        uint64_t{r.edits.callsites_stubbed},
        uint64_t{r.edits.got_slots_stubbed}, uint64_t{r.obs.events}}) {
    out += std::to_string(v) + " ";
  }
  return out;
}

/// preflight, then disable -> restore -> disable of the slice-closed,
/// stubbed feature A: every consumer of the memo runs.
std::vector<std::string> toggle_sequence(World& w) {
  core::DynaCut dc(w.vos, w.pid);
  const uint64_t handle_a = w.bin->find_symbol("handle_a")->value;
  const analysis::StaticCfg cfg = analysis::recover_cfg(*w.bin);
  const uint64_t arm = analysis::call_sites(cfg, *w.bin).at(handle_a).front();
  core::CutRequest req{
      .feature = {.name = "A",
                  .blocks = {{"toysrv", arm, cfg.block_at(arm)->size}},
                  .redirect_module = "toysrv",
                  .redirect_offset = w.bin->find_symbol("dispatch_err")->value},
      .trap = core::TrapPolicy::kRedirect,
      .expand_to_slice = true,
      .mechanism = core::CutMechanism::kStub};
  std::vector<std::string> out = {dc.preflight(req).format()};
  out.push_back(describe(dc.disable_feature(req)));
  out.push_back(describe(dc.restore_feature("A")));
  out.push_back(describe(dc.disable_feature(req)));
  return out;
}

TEST(ModelMemoTest, ToggleSequenceIsIdenticalColdAndWarm) {
  World cold, warm;
  slicer::model_for(warm.bin);  // analysed before its first request
  const uint64_t analyses = slicer::model_memo_stats().analyses;
  const std::vector<std::string> cold_run = toggle_sequence(cold);
  EXPECT_EQ(slicer::model_memo_stats().analyses, analyses + 1);
  const std::vector<std::string> warm_run = toggle_sequence(warm);
  EXPECT_EQ(slicer::model_memo_stats().analyses, analyses + 1);
  EXPECT_EQ(cold_run, warm_run);
}

// --- CC006 windows ---------------------------------------------------------

TEST(WindowedGadgetDeltaTest, EqualsTwoWholeModuleScans) {
  uint64_t seed = 1;
  for (const Builder& build : app_builders()) {
    const auto bin = build();
    const analysis::StaticCfg cfg = analysis::recover_cfg(*bin);
    for (Removal removal : {Removal::kBlockFirstByte, Removal::kWipeBlocks,
                            Removal::kUnmapPages}) {
      for (int i = 0; i < 4; ++i, ++seed) {
        const CutPlan plan =
            random_plan(bin, cfg, removal, Mechanism::kTrap, seed);
        SCOPED_TRACE(bin->name + " " + cutcheck::removal_name(removal) +
                     " seed " + std::to_string(seed));
        if (removal == Removal::kUnmapPages) {
          EXPECT_FALSE(dropped_pages(plan).empty());
        }
        const auto [before, after] = full_scans(plan);
        const int64_t delta =
            static_cast<int64_t>(after) - static_cast<int64_t>(before);
        const CheckReport r = cutcheck::check_plan(plan);
        EXPECT_EQ(r.gadget_delta, delta);
        const auto found = r.by_rule(cutcheck::kRuleGadget);
        ASSERT_EQ(found.size(), 1u);
        const std::string counts =
            std::to_string(before) + " -> " + std::to_string(after);
        EXPECT_EQ(found[0]->message,
                  delta > 0 ? "the cut adds " + std::to_string(delta) +
                                  " ROP gadget start(s) (" + counts + ")"
                            : "gadget starts " + counts + " (delta " +
                                  std::to_string(delta) + ")");
      }
    }
  }
}

TEST(WindowedGadgetDeltaTest, CutRetKillsGadgetsStartingFortyBytesBefore) {
  // Four 10-byte movs fall through into a ret that is its own block (a
  // branch target): the gadget starting at the first mov reads the ret 40
  // bytes later, so trapping the ret must remove it too.
  melf::ProgramBuilder b("reach");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("tail");
  for (int i = 0; i < 4; ++i) f.mov_ri(2, 0x1122334455667788);
  f.label("tail").ret();
  b.set_entry("f");
  const auto bin = std::make_shared<const melf::Binary>(b.link());
  const analysis::StaticCfg cfg = analysis::recover_cfg(*bin);
  const uint64_t entry = bin->find_symbol("f")->value;
  const uint64_t movs = cfg.block_at(entry)->succs.back();
  const uint64_t tail = movs + 40;
  ASSERT_NE(cfg.block_at(tail), nullptr);

  for (Removal removal : {Removal::kBlockFirstByte, Removal::kWipeBlocks}) {
    CutPlan plan;
    plan.module = "reach";
    plan.binary = bin;
    plan.blocks = {{"reach", tail, 1}};
    plan.removal = removal;
    const auto [before, after] = full_scans(plan);
    const CheckReport r = cutcheck::check_plan(plan);
    EXPECT_EQ(r.gadget_delta,
              static_cast<int64_t>(after) - static_cast<int64_t>(before));
    EXPECT_LE(r.gadget_delta, -5);  // the ret and the four movs before it
  }
}

}  // namespace
}  // namespace dynacut
