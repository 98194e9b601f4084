// Incremental checkpoint/restore: generation-based dirty tracking on the
// address space, COW aliasing safety between live memory and images, delta
// restores that are bit-identical to full rebuilds, and the DynaCut
// incremental engine (per-pid baselines, dirty-only dumps, in-place
// restores) being observably equivalent to the always-full baseline.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/dynacut.hpp"
#include "core/txn.hpp"
#include "image/checkpoint.hpp"
#include "image/image.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "obs/sinks.hpp"
#include "os/os.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::core {
namespace {

namespace sys = os::sys;
using analysis::CovBlock;
using melf::Binary;
using melf::ProgramBuilder;

// ---------------------------------------------------------------------------
// Address-space dirty tracking (the soft-dirty-bit analogue)
// ---------------------------------------------------------------------------

std::set<uint64_t> dirty_set(const vm::AddressSpace& mem,
                             const vm::MemEpoch& since) {
  auto dirty = mem.dirty_pages_since(since);
  EXPECT_TRUE(dirty.has_value());
  return dirty ? std::set<uint64_t>(dirty->begin(), dirty->end())
               : std::set<uint64_t>{};
}

TEST(DirtyTracking, PokesStampOnlyWrittenPages) {
  vm::AddressSpace mem;
  mem.map(0x1000, 4 * kPageSize, kProtRead | kProtWrite, "rw");
  uint64_t v = 7;
  mem.poke(0x1000, &v, 8);
  mem.poke(0x3000, &v, 8);

  vm::MemEpoch e = mem.snapshot_epoch();
  EXPECT_TRUE(dirty_set(mem, e).empty());

  mem.poke(0x2008, &v, 8);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x2000}));

  // Re-writing an already-dirty page does not add anything.
  mem.poke(0x2010, &v, 8);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x2000}));
}

TEST(DirtyTracking, ProtectIsCleanUnmapInstallDropAreDirty) {
  vm::AddressSpace mem;
  mem.map(0x1000, 4 * kPageSize, kProtRead | kProtWrite, "rw");
  uint64_t v = 1;
  mem.poke(0x1000, &v, 8);
  mem.poke(0x2000, &v, 8);
  vm::PageRef keep = mem.page_block(0x2000);

  vm::MemEpoch e = mem.snapshot_epoch();

  // Permission changes leave page contents alone: not dirty.
  mem.protect(0x1000, kPageSize, kProtRead);
  EXPECT_TRUE(dirty_set(mem, e).empty());

  // Unmapping a populated page must dirty it, or an incremental dump would
  // keep serving the stale baseline copy.
  mem.unmap(0x2000, kPageSize);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x2000}));

  // install_page_block = new content; adopt_page_block = identical bytes
  // re-shared (decode-cache-preserving), so only install stamps.
  mem.map(0x2000, kPageSize, kProtRead | kProtWrite, "back");
  mem.install_page_block(0x3000, keep);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x2000, 0x3000}));
  mem.adopt_page_block(0x3000, keep);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x2000, 0x3000}));

  mem.drop_page(0x1000);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x1000, 0x2000, 0x3000}));
}

TEST(DirtyTracking, FastPathWriteAfterEpochRestamps) {
  vm::AddressSpace mem;
  mem.map(0x1000, kPageSize, kProtRead | kProtWrite, "rw");
  uint64_t v = 1;
  // Two writes to the same page establish the cached write fast path.
  mem.poke(0x1000, &v, 8);
  mem.poke(0x1008, &v, 8);

  vm::MemEpoch e = mem.snapshot_epoch();
  // The fast path must not survive the epoch: this write needs a new stamp.
  mem.poke(0x1010, &v, 8);
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x1000}));
}

TEST(DirtyTracking, ForeignAndInvalidEpochsRejected) {
  vm::AddressSpace mem;
  mem.map(0x1000, kPageSize, kProtRead | kProtWrite, "rw");
  vm::MemEpoch e = mem.snapshot_epoch();

  EXPECT_FALSE(mem.dirty_pages_since(vm::MemEpoch{}).has_value());

  // Copies take a fresh asid: an epoch taken on the source is meaningless
  // on the copy and must force a full dump.
  vm::AddressSpace copy = mem;
  EXPECT_FALSE(copy.dirty_pages_since(e).has_value());
  EXPECT_TRUE(mem.dirty_pages_since(e).has_value());

  // An epoch from the future (e.g. recorded against a rebuilt space that
  // recycled nothing) is equally untrustworthy.
  vm::MemEpoch future = e;
  future.epoch += 100;
  EXPECT_FALSE(mem.dirty_pages_since(future).has_value());
}

TEST(DirtyTracking, CowWriteThroughSharedBlockStampsAndClones) {
  vm::AddressSpace mem;
  mem.map(0x1000, kPageSize, kProtRead | kProtWrite, "rw");
  uint64_t v = 0x11;
  mem.poke(0x1000, &v, 8);

  vm::PageRef shared = mem.page_block(0x1000);
  std::vector<uint8_t> before = *shared;
  vm::MemEpoch e = mem.snapshot_epoch();

  uint64_t w = 0x22;
  mem.poke(0x1000, &w, 8);

  // The live write went to a private clone: the shared block (an image's
  // view of the page) is untouched, and the page is dirty.
  EXPECT_EQ(*shared, before);
  EXPECT_NE(mem.page_block(0x1000).get(), shared.get());
  EXPECT_EQ(dirty_set(mem, e), (std::set<uint64_t>{0x1000}));
  uint64_t r = 0;
  mem.peek(0x1000, &r, 8);
  EXPECT_EQ(r, 0x22u);
}

// ---------------------------------------------------------------------------
// Rigs
// ---------------------------------------------------------------------------

/// "mut": a single process with a removable >2-page function "feat" (error
/// mark "feat_err" for kRedirect) whose main loop dirties two data pages of
/// a 16-page bss buffer per iteration, then sleeps.
std::shared_ptr<const Binary> mut_guest() {
  static std::shared_ptr<const Binary> bin = [] {
    ProgramBuilder b("mut");
    b.bss("buf", 16 * kPageSize);
    auto& f = b.func("feat");
    for (size_t i = 0; i < 2 * kPageSize + 128; ++i) f.nop();
    f.mov_ri(0, 7).ret();
    f.label("err").mark("feat_err").mov_ri(0, 1).ret();
    auto& m = b.func("main");
    m.label("loop")
        .mov_sym(1, "buf")
        .add_ri(3, 1)
        .store(1, 0, 3)
        .store(1, 2 * int32_t(kPageSize), 3)
        .mov_ri(1, 500)
        .sys(sys::kNanosleep)
        .jmp("loop");
    b.set_entry("main");
    return std::make_shared<Binary>(b.link());
  }();
  return bin;
}

/// "grp": mut plus a forked worker — the group case.
std::shared_ptr<const Binary> grp_guest() {
  static std::shared_ptr<const Binary> bin = [] {
    ProgramBuilder b("grp");
    b.bss("buf", 4 * kPageSize);
    auto& f = b.func("feat");
    for (size_t i = 0; i < 2 * kPageSize + 128; ++i) f.nop();
    f.mov_ri(0, 7).ret();
    f.label("err").mark("feat_err").mov_ri(0, 1).ret();
    auto& m = b.func("main");
    m.sys(sys::kFork);
    m.label("loop")
        .mov_sym(1, "buf")
        .add_ri(3, 1)
        .store(1, 0, 3)
        .mov_ri(1, 500)
        .sys(sys::kNanosleep)
        .jmp("loop");
    b.set_entry("main");
    return std::make_shared<Binary>(b.link());
  }();
  return bin;
}

template <typename GuestFn>
struct Rig {
  os::Os vos;
  int pid = 0;

  explicit Rig(GuestFn guest) {
    pid = vos.spawn(guest());
    vos.run(3000);
  }
};

FeatureSpec mut_spec() {
  auto bin = mut_guest();
  FeatureSpec s;
  s.name = "feat";
  s.blocks = {CovBlock{"mut", bin->find_symbol("feat")->value,
                       static_cast<uint32_t>(2 * kPageSize)}};
  s.redirect_module = "mut";
  s.redirect_offset = bin->find_symbol("feat_err")->value;
  return s;
}

/// Cost model with every term zeroed: both checkpoint modes then charge the
/// virtual clock identically (nothing), so two rigs driven through
/// different modes keep identical clocks and stay comparable bit-for-bit.
CostModel zero_costs() {
  CostModel m;
  m.checkpoint_base_ns = m.checkpoint_per_page_ns = 0;
  m.restore_base_ns = m.restore_per_page_ns = 0;
  m.checkpoint_delta_base_ns = m.restore_delta_base_ns = 0;
  m.patch_per_block_ns = m.unmap_per_page_ns = 0;
  m.inject_base_ns = m.inject_per_reloc_ns = 0;
  return m;
}

/// Bit-exact process state (mirrors txn_test's rollback invariant).
struct Snap {
  std::map<uint64_t, std::vector<uint8_t>> pages;
  std::vector<std::tuple<uint64_t, uint64_t, uint32_t, std::string>> vmas;
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
    s.ip = p.cpu.ip;
    return s;
  }

  bool operator==(const Snap&) const = default;
};

// ---------------------------------------------------------------------------
// COW aliasing between live memory and images
// ---------------------------------------------------------------------------

TEST(CowAliasing, LiveWritesAndImageEditsAreIsolated) {
  Rig rig(mut_guest);
  image::ProcessImage img = image::checkpoint(rig.vos, {.pid = rig.pid}).img;

  os::Process* p = rig.vos.process(rig.pid);
  uint64_t buf = p->module_named("mut")->binary->find_symbol("buf")->value +
                 p->module_named("mut")->base;
  std::vector<uint8_t> img_page = img.mem.peek_bytes(buf & ~(kPageSize - 1),
                                                 kPageSize);

  // Let the guest run: it keeps writing its buffer through pages that the
  // image currently shares. The image must not see any of it.
  image::restore(rig.vos, {.pid = rig.pid, .img = &img});
  rig.vos.run(4000);
  EXPECT_EQ(img.mem.peek_bytes(buf & ~(kPageSize - 1), kPageSize), img_page);

  // And the reverse: editing the image must not write through to the
  // process it was dumped from.
  std::vector<uint8_t> live_before(kPageSize);
  p->mem.peek(buf & ~(kPageSize - 1), live_before.data(), kPageSize);
  const uint64_t scribble = 0xdeadbeefULL;
  img.mem.poke(buf, &scribble, 8);
  std::vector<uint8_t> live_after(kPageSize);
  p->mem.peek(buf & ~(kPageSize - 1), live_after.data(), kPageSize);
  EXPECT_EQ(live_after, live_before);
}

TEST(CowAliasing, ImageStoreSharesBlocksAcrossCopies) {
  Rig rig(mut_guest);
  image::ProcessImage img = image::checkpoint(rig.vos, {.pid = rig.pid}).img;
  image::restore(rig.vos, {.pid = rig.pid, .img = &img});

  image::ImageStore store;
  store.put(image::ImageKey{1, "a"}, img);
  const uint64_t one_copy = store.resident_bytes();
  store.put(image::ImageKey{1, "b"}, img);
  EXPECT_EQ(store.bytes_used(), 2 * img.pages_bytes());
  // Both stored copies alias the same blocks: the second put() copies
  // metadata only, adding zero resident bytes. Resident for one copy can
  // itself sit below logical — the content-addressed BlockStore interns
  // identical pages (e.g. zero-fill) within a single image too.
  EXPECT_EQ(store.resident_bytes(), one_copy);
  EXPECT_LE(one_copy, img.pages_bytes());
  EXPECT_GT(one_copy, 0u);
}

// ---------------------------------------------------------------------------
// Delta restore ≡ full restore
// ---------------------------------------------------------------------------

TEST(DeltaRestore, BitIdenticalToFullRebuild) {
  // Two identical deterministic rigs; same image, restored via the delta
  // path on one and the full rebuild on the other.
  Rig a(mut_guest);
  Rig b(mut_guest);
  ASSERT_EQ(a.pid, b.pid);

  image::ProcessImage img_a = image::checkpoint(a.vos, {.pid = a.pid}).img;
  image::ProcessImage img_b = image::checkpoint(b.vos, {.pid = b.pid}).img;
  ASSERT_EQ(img_a.encode(), img_b.encode());

  uint64_t asid_a = a.vos.process(a.pid)->mem.asid();
  image::RestoreStats ra = image::restore(
      a.vos,
      {.pid = a.pid, .img = &img_a, .mode = image::RestoreMode::kDelta});
  image::RestoreStats rb = image::restore(
      b.vos, {.pid = b.pid, .img = &img_b, .mode = image::RestoreMode::kFull});
  EXPECT_TRUE(ra.in_place);
  EXPECT_FALSE(rb.in_place);
  // Nothing diverged between dump and restore: the delta path writes no
  // pages at all, the full path rebuilds everything.
  EXPECT_EQ(ra.pages_restored, 0u);
  EXPECT_EQ(ra.pages_kept, ra.pages_total);
  EXPECT_EQ(rb.pages_restored, rb.pages_total);

  // In-place restore keeps the address-space identity (decode caches stay
  // valid); the rebuild deliberately gets a fresh one.
  EXPECT_EQ(a.vos.process(a.pid)->mem.asid(), asid_a);

  EXPECT_EQ(Snap::of(*a.vos.process(a.pid)), Snap::of(*b.vos.process(b.pid)));

  // Run both onward: identical trajectories.
  a.vos.run(4000);
  b.vos.run(4000);
  EXPECT_EQ(Snap::of(*a.vos.process(a.pid)), Snap::of(*b.vos.process(b.pid)));
}

TEST(DeltaRestore, ReconcilesDivergedMemoryAndVmas) {
  Rig rig(mut_guest);
  image::ProcessImage img = image::checkpoint(rig.vos, {.pid = rig.pid}).img;
  os::Process* p = rig.vos.process(rig.pid);
  Snap before = Snap::of(*p);

  // Diverge the frozen process behind the image's back: dirty a page the
  // image holds, populate a page the image lacks (inside a matching VMA),
  // and map a whole stray VMA.
  uint64_t buf = p->module_named("mut")->binary->find_symbol("buf")->value +
                 p->module_named("mut")->base;
  uint64_t base = buf & ~(kPageSize - 1);
  uint64_t junk = 0x5151;
  p->mem.poke(base, &junk, 8);
  p->mem.poke(base + 5 * kPageSize, &junk, 8);
  uint64_t stray = p->mem.find_free(0x10000, 2 * kPageSize);
  p->mem.map(stray, 2 * kPageSize, kProtRead | kProtWrite, "stray");
  p->mem.poke(stray, &junk, 8);

  image::RestoreStats st =
      image::restore(rig.vos, {.pid = rig.pid, .img = &img});
  EXPECT_TRUE(st.in_place);
  EXPECT_EQ(Snap::of(*p), before);
  // Exactly the diverged page was written back, the image-absent page was
  // dropped, and only the stray VMA changed (its page vanished with it).
  EXPECT_EQ(st.pages_restored, 1u);
  EXPECT_EQ(st.pages_dropped, 1u);
  EXPECT_EQ(st.vmas_changed, 1u);
  EXPECT_EQ(st.pages_kept, st.pages_total - st.pages_restored);
}

TEST(DeltaRestore, EpochInvalidatedByRebuildAndRestoreNew) {
  Rig rig(mut_guest);
  image::ProcessImage img = image::checkpoint(rig.vos, {.pid = rig.pid}).img;
  vm::MemEpoch e = rig.vos.mem_epoch(rig.pid);
  EXPECT_TRUE(rig.vos.dirty_pages_since(rig.pid, e).has_value());

  // A clone restored as a *new* process must not honor the donor's epoch.
  int np = image::spawn_from_image(rig.vos, img);
  EXPECT_NE(np, rig.pid);
  EXPECT_FALSE(rig.vos.dirty_pages_since(np, e).has_value());

  // A full rebuild of the original discards its dirty history too.
  image::restore(rig.vos, {.pid = rig.pid,
                           .img = &img,
                           .mode = image::RestoreMode::kFull});
  EXPECT_FALSE(rig.vos.dirty_pages_since(rig.pid, e).has_value());
}

// ---------------------------------------------------------------------------
// The incremental engine (DynaCut baselines)
// ---------------------------------------------------------------------------

TEST(Incremental, FirstDumpFullSecondDumpSharesEverything) {
  Rig rig(mut_guest);
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);
  ASSERT_EQ(dc.ckpt_mode(), CkptMode::kIncremental);

  CustomizeReport rep1 = dc.disable_feature(
      {mut_spec(), RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  // No baseline yet: the first dump captures the whole image.
  EXPECT_EQ(rep1.edits.pages_dumped, rep1.edits.image_pages);
  EXPECT_EQ(rep1.edits.pages_shared, 0u);

  // Toggle straight back without letting the guest run: nothing is dirty,
  // so the dump shares every page from the baseline in O(1). kBlockFirstByte
  // + kTerminate injects no handler library, so the restore writes back
  // exactly the pages the rewriter touched — the freeze-window bound.
  CustomizeReport rep2 = dc.restore_feature("feat");
  EXPECT_EQ(rep2.edits.pages_dumped, 0u);
  EXPECT_EQ(rep2.edits.pages_shared, rep2.edits.image_pages);
  EXPECT_GT(rep2.edits.pages_touched, 0u);
  EXPECT_LE(rep2.edits.pages_restored, rep2.edits.pages_touched);
  EXPECT_FALSE(dc.feature_disabled("feat"));
}

TEST(Incremental, GuestWritesBoundTheSecondDump) {
  Rig rig(mut_guest);
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);

  dc.disable_feature(
      {mut_spec(), RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  rig.vos.run(4000);

  CustomizeReport rep = dc.restore_feature("feat");
  // The guest's working set is its two buffer pages (plus at most a stack
  // page); everything else rides the baseline. This is the paper's claim:
  // the dump is bounded by what ran, not by the image.
  EXPECT_GT(rep.edits.pages_dumped, 0u);
  EXPECT_LE(rep.edits.pages_dumped, 3u);
  EXPECT_LT(rep.edits.pages_dumped, rep.edits.image_pages);
  EXPECT_EQ(rep.edits.pages_dumped + rep.edits.pages_shared,
            rep.edits.image_pages);
}

TEST(Incremental, ObservablyIdenticalToFullMode) {
  // Property: a workload driven through incremental checkpointing is
  // bit-identical to the same workload under full dumps + rebuilds. The
  // zeroed cost model keeps the two virtual clocks in lockstep.
  Rig inc(mut_guest);
  Rig full(mut_guest);
  DynaCut dci(inc.vos, inc.pid, zero_costs(), CheckMode::kOff);
  DynaCut dcf(full.vos, full.pid, zero_costs(), CheckMode::kOff);
  dcf.set_ckpt_mode(CkptMode::kFull);

  for (DynaCut* dc : {&dci, &dcf}) {
    dc->disable_feature(
        {mut_spec(), RemovalPolicy::kUnmapPages, TrapPolicy::kRedirect});
  }
  inc.vos.run(2500);
  full.vos.run(2500);
  for (DynaCut* dc : {&dci, &dcf}) dc->restore_feature("feat");
  inc.vos.run(2500);
  full.vos.run(2500);
  for (DynaCut* dc : {&dci, &dcf}) {
    dc->disable_feature(
        {mut_spec(), RemovalPolicy::kWipeBlocks, TrapPolicy::kTerminate});
  }

  EXPECT_EQ(Snap::of(*inc.vos.process(inc.pid)),
            Snap::of(*full.vos.process(full.pid)));
  EXPECT_EQ(image::checkpoint(inc.vos, {.pid = inc.pid}).img.encode(),
            image::checkpoint(full.vos, {.pid = full.pid}).img.encode());
}

TEST(Incremental, RollbackDropsBaselinesAndRetrySucceeds) {
  Rig rig(mut_guest);
  DynaCut dc(rig.vos, rig.pid, {}, CheckMode::kOff);

  dc.disable_feature(
      {mut_spec(), RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  rig.vos.run(2000);
  Snap patched = Snap::of(*rig.vos.process(rig.pid));

  // Fail the restore with a warm baseline in play: the rollback must land
  // exactly on the patched pre-call state.
  FaultPlan plan = FaultPlan::fail_at(FaultStage::kRestore, 0);
  dc.set_fault_plan(&plan);
  EXPECT_THROW(dc.restore_feature("feat"), CustomizeError);
  EXPECT_EQ(Snap::of(*rig.vos.process(rig.pid)), patched);
  EXPECT_TRUE(dc.feature_disabled("feat"));

  // The rollback invalidated the baseline, so the retry re-baselines with
  // a full dump — and succeeds.
  dc.set_fault_plan(nullptr);
  CustomizeReport rep = dc.restore_feature("feat");
  EXPECT_EQ(rep.edits.pages_dumped, rep.edits.image_pages);
  EXPECT_FALSE(dc.feature_disabled("feat"));
}

TEST(Incremental, GroupCheckpointUsesPerMemberBaselines) {
  Rig rig(grp_guest);
  std::vector<int> group = rig.vos.process_group(rig.pid);
  ASSERT_EQ(group.size(), 2u);

  // Round 1: full group dump seeds the per-pid baselines.
  std::vector<image::ProcessImage> imgs;
  for (int pid : group) {
    imgs.push_back(image::checkpoint(rig.vos, {.pid = pid}).img);
  }
  image::BaselineMap baselines;
  for (const auto& img : imgs) {
    baselines[img.core.pid] =
        image::Baseline{img, rig.vos.mem_epoch(img.core.pid)};
  }
  for (const auto& img : imgs) {
    image::restore(rig.vos, {.pid = img.core.pid, .img = &img});
  }
  rig.vos.run(3000);

  // Round 2: every member dumps incrementally against its own baseline,
  // fires its own checkpoint fault point and emits its own dump event.
  FaultPlan counter;
  obs::EventBus bus;
  obs::RingBufferSink ring;
  bus.add_sink(&ring);
  std::vector<image::CkptStats> stats;
  imgs.clear();
  for (int pid : group) {
    image::CkptReport rep = image::checkpoint(
        rig.vos, {.pid = pid, .faults = &counter, .bus = &bus,
                  .baselines = &baselines});
    imgs.push_back(std::move(rep.img));
    stats.push_back(rep.stats);
  }
  ASSERT_EQ(imgs.size(), 2u);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(counter.count(FaultStage::kCheckpoint), 2u);
  EXPECT_EQ(ring.count(obs::ev::kCheckpointDump), 2u);
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_TRUE(stats[i].incremental);
    EXPECT_LT(stats[i].pages_dumped, stats[i].pages_total);
    EXPECT_EQ(stats[i].pages_dumped + stats[i].pages_shared,
              stats[i].pages_total);
    EXPECT_EQ(ring.of_type(obs::ev::kCheckpointDump)[i]->attr_u64(
                  "incremental"),
              1u);
  }
  for (const auto& img : imgs) {
    image::restore(rig.vos, {.pid = img.core.pid, .img = &img});
  }
}

TEST(Incremental, DeltaToggleShrinksTheFreezeWindow) {
  Rig rig(mut_guest);
  CostModel model;  // the calibrated defaults
  DynaCut dc(rig.vos, rig.pid, model, CheckMode::kOff);

  CustomizeReport rep1 = dc.disable_feature(
      {mut_spec(), RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  rig.vos.run(2000);
  CustomizeReport rep2 = dc.restore_feature("feat");

  // The first toggle pays the full dump; the warm toggle's whole freeze
  // window (dirty dump + in-place restore) beats just the *checkpoint*
  // side of the cold one by 5x.
  uint64_t cold = rep1.timing.checkpoint_ns;
  uint64_t warm = rep2.timing.checkpoint_ns + rep2.timing.restore_ns;
  EXPECT_GE(cold, 5 * rep2.timing.checkpoint_ns);
  EXPECT_GT(cold, warm);
  EXPECT_LT(rep2.timing.checkpoint_ns, model.checkpoint_base_ns);
  EXPECT_LT(rep2.timing.restore_ns, model.restore_base_ns);
}

}  // namespace
}  // namespace dynacut::core
