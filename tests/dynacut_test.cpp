// End-to-end tests of the DynaCut facade: the full trace → diff → disable →
// redirect/verify/restore lifecycle on a live server, including virtual-time
// accounting — the paper's §3 pipeline in miniature.
#include <gtest/gtest.h>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "core/handler_lib.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut::core {
namespace {

using analysis::CoverageGraph;
using analysis::CovBlock;

/// Boots toysrv, runs a wanted-only and an undesired trace pass offline,
/// then exposes the running server plus the discovered feature-B spec.
struct Pipeline {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;
  FeatureSpec feature_b;
  os::HostConn conn;

  Pipeline() {
    bin = testing::build_toysrv();

    // Offline profiling runs (separate OS instances, like profiling rigs).
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

    // The production instance under customization.
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

TEST(DynaCut, DisableWithRedirectReturnsErrorPath) {
  Pipeline px;
  EXPECT_EQ(px.request("B\n"), "beta\n");  // enabled initially

  DynaCut dc(px.vos, px.pid);
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect});
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_EQ(rep.edits.processes, 1u);
  EXPECT_TRUE(dc.feature_disabled("B"));

  // Disabled feature answers through the app's own error path, service
  // stays up (paper Figure 5's 403-Forbidden behaviour).
  EXPECT_EQ(px.request("B\n"), "err\n");
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);
  // Other features unaffected.
  EXPECT_EQ(px.request("A\n"), "alpha\n");
}

TEST(DynaCut, RestoreFeatureReenables) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  EXPECT_EQ(px.request("B\n"), "err\n");

  CustomizeReport rep = dc.restore_feature("B");
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_FALSE(dc.feature_disabled("B"));
  EXPECT_EQ(px.request("B\n"), "beta\n");  // bidirectional customization
  EXPECT_EQ(px.request("A\n"), "alpha\n");
}

TEST(DynaCut, DisableRestoreCycleIsRepeatable) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  for (int round = 0; round < 3; ++round) {
    dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                       TrapPolicy::kRedirect});
    EXPECT_EQ(px.request("B\n"), "err\n") << "round " << round;
    dc.restore_feature("B");
    EXPECT_EQ(px.request("B\n"), "beta\n") << "round " << round;
  }
}

TEST(DynaCut, WipePolicyAlsoRedirects) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kWipeBlocks, TrapPolicy::kRedirect});
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_EQ(px.request("B\n"), "err\n");
  // Wipe is reversible too.
  dc.restore_feature("B");
  EXPECT_EQ(px.request("B\n"), "beta\n");
}

TEST(DynaCut, WipedBlocksContainOnlyTraps) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kWipeBlocks,
                     TrapPolicy::kRedirect});
  // Inspect live memory: every byte of handle_b's traced blocks is 0xCC
  // (no ROP gadgets left inside the wiped feature).
  const os::Process* p = px.vos.process(px.pid);
  const os::LoadedModule* app = p->module_named("toysrv");
  const melf::Symbol* hb = px.bin->find_symbol("handle_b");
  for (const auto& b : px.feature_b.blocks) {
    if (b.offset < hb->value || b.offset >= hb->value + hb->size) continue;
    auto bytes = p->mem.peek_bytes(app->base + b.offset, b.size);
    for (uint8_t byte : bytes) EXPECT_EQ(byte, 0xCC);
  }
}

TEST(DynaCut, TerminatePolicyKillsOnAccess) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kTerminate});
  EXPECT_EQ(px.request("A\n"), "alpha\n");  // alive until touched
  px.conn.send("B\n");
  px.vos.run();
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, os::sig::kSigTrap);
}

TEST(DynaCut, VerifyModeHealsAndLogsFalsePositives) {
  // Deliberately over-remove: mark feature-A blocks as undesired, run A
  // requests, and watch the verifier restore them on the fly (§3.2.3).
  Pipeline px;
  FeatureSpec bad;
  bad.name = "A_overremoved";
  const melf::Symbol* ha = px.bin->find_symbol("handle_a");
  bad.blocks = {CovBlock{"toysrv", ha->value, 1}};

  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({bad, RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify});

  // First A request trips the verifier, which heals the byte and retries.
  EXPECT_EQ(px.request("A\n"), "alpha\n");
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);

  auto log = dc.verifier_log(px.pid);
  const os::LoadedModule* app = px.vos.process(px.pid)->module_named("toysrv");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], app->base + ha->value);

  // Healed: subsequent requests don't trap again (log stays at 1).
  EXPECT_EQ(px.request("A\n"), "alpha\n");
  EXPECT_EQ(dc.verifier_log(px.pid).size(), 1u);
}

TEST(DynaCut, VerifyRequiresFirstBytePolicy) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({px.feature_b, RemovalPolicy::kWipeBlocks,
                                  TrapPolicy::kVerify}),
               StateError);
}

TEST(DynaCut, DoubleDisableThrows) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  EXPECT_THROW(dc.disable_feature({px.feature_b,
                                  RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, SecondTrapHandlerPolicyOnGroupThrows) {
  // A process has one SIGTRAP handler, and the redirect and verify handlers
  // each find only their own policy's sites: a kRedirect and a kVerify cut
  // cannot share a group, in either order.
  for (bool redirect_first : {true, false}) {
    Pipeline px;
    FeatureSpec heal;
    heal.name = "A_overremoved";
    heal.blocks = {
        CovBlock{"toysrv", px.bin->find_symbol("handle_a")->value, 1}};
    const CutRequest redirect{px.feature_b, RemovalPolicy::kBlockFirstByte,
                              TrapPolicy::kRedirect};
    const CutRequest verify{heal, RemovalPolicy::kBlockFirstByte,
                            TrapPolicy::kVerify};
    DynaCut dc(px.vos, px.pid);
    dc.disable_feature(redirect_first ? redirect : verify);
    EXPECT_THROW(dc.disable_feature(redirect_first ? verify : redirect),
                 StateError);
    EXPECT_EQ(dc.disabled_features().size(), 1u);

    // The first cut still answers as before.
    EXPECT_EQ(px.request(redirect_first ? "B\n" : "A\n"),
              redirect_first ? "err\n" : "alpha\n");
    EXPECT_EQ(px.request("A\n"), "alpha\n");
    EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);
  }
}

TEST(DynaCut, RestoreUnknownFeatureThrows) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.restore_feature("never_disabled"), StateError);
}

// Feature names become ImageKey feature-set tags: the reserved pre-rewrite
// tag would overwrite the pristine rollback image's key, '+' is the tag
// separator, and an empty name yields ambiguous tags — all rejected before
// any process is touched.
TEST(DynaCut, ReservedOrSeparatorFeatureNamesThrow) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  for (const char* bad : {"pre", "a+b", ""}) {
    FeatureSpec spec = px.feature_b;
    spec.name = bad;
    EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                    TrapPolicy::kRedirect}),
                 StateError)
        << "feature name '" << bad << "' must be rejected";
  }
  EXPECT_TRUE(dc.disabled_features().empty());
}

TEST(DynaCut, RedirectOutsideAnyFunctionThrows) {
  Pipeline px;
  FeatureSpec spec = px.feature_b;
  spec.redirect_offset = 0xfffff;  // not inside any function
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, RedirectWithNoSameFunctionBlockThrows) {
  // All blocks in handle_b (not dispatch) + target in dispatch => the
  // same-function restriction rejects the redirect.
  Pipeline px;
  FeatureSpec spec;
  spec.name = "only_handler_blocks";
  const melf::Symbol* hb = px.bin->find_symbol("handle_b");
  spec.blocks = {CovBlock{"toysrv", hb->value, 1}};
  spec.redirect_module = "toysrv";
  spec.redirect_offset = px.bin->find_symbol("dispatch_err")->value;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, ServiceInterruptionChargedToClock) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  uint64_t before = px.vos.now();
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect});
  uint64_t elapsed = px.vos.now() - before;
  EXPECT_GE(elapsed, rep.timing.total_ns());
  EXPECT_GT(rep.timing.checkpoint_ns, 0u);
  EXPECT_GT(rep.timing.code_update_ns, 0u);
  EXPECT_GT(rep.timing.inject_ns, 0u);
  EXPECT_GT(rep.timing.restore_ns, 0u);
  // Feature blocking is sub-second on server-sized images (paper Fig. 6).
  EXPECT_LT(rep.timing.total_seconds(), 1.0);
}

TEST(DynaCut, ImageStoreHoldsRewrittenImage) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  // Committed images file under the typed key {pid, feature_set_tag}; the
  // pristine pre-image sits beside it under the reserved "pre" tag.
  const image::ImageKey key = dc.image_key(px.pid);
  EXPECT_EQ(key.feature_set_tag, px.feature_b.name);
  ASSERT_TRUE(dc.store().contains(key));
  ASSERT_TRUE(dc.store().contains(
      image::ImageKey{px.pid, image::ImageKey::kPreTag}));
  image::ProcessImage img = dc.store().get(key);
  // The stored image is the rewritten one: the handler library is present.
  EXPECT_NE(img.module_named(kSigLibName), nullptr);
}

TEST(DynaCut, InitCodeRemovalTrapsInitOnlyBlocks) {
  // Collect init/serving phases online with the nudge, remove init-only
  // blocks, confirm the server still serves and the init code is gone.
  os::Os vos;
  trace::Tracer tracer(vos);
  auto bin = testing::build_toysrv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  trace::TraceLog init_log = tracer.dump_and_reset(pid);
  auto conn = vos.connect(80);
  conn.send("A\nB\n");
  vos.run();
  trace::TraceLog serving_log = tracer.dump(pid);
  conn.recv_all();  // drain the profiling replies

  CoverageGraph init_blocks =
      analysis::init_only(init_log, serving_log, "toysrv");
  ASSERT_FALSE(init_blocks.empty());

  DynaCut dc(vos, pid);
  CustomizeReport rep =
      dc.remove_init_code(init_blocks, RemovalPolicy::kWipeBlocks);
  EXPECT_EQ(rep.edits.blocks_patched, init_blocks.size());

  conn.send("A\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");  // serving path intact

  // The init function's entry byte is now a trap in live memory.
  const os::Process* p = vos.process(pid);
  const os::LoadedModule* app = p->module_named("toysrv");
  uint64_t init_addr = app->base + bin->find_symbol("init")->value;
  EXPECT_EQ(p->mem.peek_bytes(init_addr, 1)[0], 0xCC);
}

TEST(DynaCut, UnmapPolicyRemovesWholePagesAndRestores) {
  // Build a guest with a page-sized removable function so the unmap path
  // (not just the wipe fallback) is exercised.
  namespace sys = os::sys;
  melf::ProgramBuilder b("bigfeat");
  auto& big = b.func("big_feature");
  for (int i = 0; i < 600; ++i) big.nop();  // straight-line filler
  big.mov_ri(0, 7).ret();
  auto& f = b.func("main");
  f.label("spin").mov_ri(1, 1000).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin);
  vos.run(3000);

  const melf::Symbol* feat = bin->find_symbol("big_feature");
  // Cover two full pages worth of the function plus slack.
  FeatureSpec spec;
  spec.name = "big";
  spec.blocks = {CovBlock{"bigfeat", feat->value,
                          static_cast<uint32_t>(2 * kPageSize)}};
  // Map the whole feature span as one block: ensure VMA is large enough.
  DynaCut dc(vos, pid);
  CustomizeReport rep =
      dc.disable_feature({spec, RemovalPolicy::kUnmapPages,
                         TrapPolicy::kTerminate});
  EXPECT_GT(rep.edits.pages_unmapped, 0u);

  const os::Process* p = vos.process(pid);
  uint64_t page = page_ceil(kAppBase + feat->value);  // first full page
  EXPECT_EQ(p->mem.vma_at(page), nullptr);

  // Restore brings the pages and their bytes back.
  dc.restore_feature("big");
  const os::Process* p2 = vos.process(pid);
  ASSERT_NE(p2->mem.vma_at(page), nullptr);
  auto bytes = p2->mem.peek_bytes(kAppBase + feat->value, 4);
  EXPECT_EQ(bytes[0], 0x90);  // the nop filler is back
}

/// toysrv's A/B protocol with feature B laid out as exactly the first half
/// of .text's first page: handle_b comes first, padded to 2048 bytes, so
/// handle_a and the serving loop share the page's second half.
std::shared_ptr<const melf::Binary> build_half_page_server() {
  namespace sys = os::sys;
  melf::ProgramBuilder b("halfpage");
  b.rodata_str("alpha_msg", "alpha\n");
  b.rodata_str("beta_msg", "beta\n");
  b.bss("buf", 128);
  auto& hb = b.func("handle_b");
  hb.mov_rr(1, 13).mov_sym(2, "beta_msg").call_import("write_str").ret();
  while (hb.size() < kPageSize / 2) hb.nop();
  b.func("handle_a")
      .mov_rr(1, 13)
      .mov_sym(2, "alpha_msg")
      .call_import("write_str")
      .ret();
  auto& m = b.func("main");
  m.sys(sys::kSocket).mov_rr(12, 0);
  m.mov_rr(1, 12).mov_ri(2, 80).sys(sys::kBind);
  m.mov_rr(1, 12).sys(sys::kListen);
  m.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  m.label("top")
      .mov_rr(1, 13)
      .mov_sym(2, "buf")
      .mov_ri(3, 128)
      .call_import("recv_line")
      .cmp_ri(0, 0)
      .je("done")
      .mov_sym(6, "buf")
      .loadb(7, 6, 0)
      .cmp_ri(7, 'A')
      .jne("not_a")
      .call("handle_a")
      .jmp("top")
      .label("not_a")
      .cmp_ri(7, 'B')
      .jne("top")
      .call("handle_b")
      .jmp("top")
      .label("done")
      .mov_ri(1, 0)
      .sys(sys::kExit);
  b.set_entry("main");
  return std::make_shared<melf::Binary>(b.link());
}

TEST(DynaCut, DuplicateHalfPageBlocksKeepThePageMapped) {
  // Two copies of feature B's half-page block add up to a page, but they
  // name only half of it. kUnmapPages drops only pages the plan's bytes
  // cover, so the page stays mapped, B's half is wiped, and A — served
  // from the other half — keeps working even with cutcheck off.
  auto bin = build_half_page_server();
  ASSERT_EQ(bin->find_symbol("handle_b")->value, 0u);
  ASSERT_EQ(bin->find_symbol("handle_a")->value, kPageSize / 2);
  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  os::HostConn conn = vos.connect(80);
  conn.send("A\n");
  vos.run();
  ASSERT_EQ(conn.recv_all(), "alpha\n");

  FeatureSpec spec;
  spec.name = "B";
  spec.blocks = {CovBlock{"halfpage", 0, kPageSize / 2},
                 CovBlock{"halfpage", 0, kPageSize / 2}};
  DynaCut dc(vos, pid, {}, CheckMode::kOff);
  CustomizeReport rep = dc.disable_feature(
      {spec, RemovalPolicy::kUnmapPages, TrapPolicy::kTerminate});
  EXPECT_EQ(rep.edits.pages_unmapped, 0u);
  const os::Process* p = vos.process(pid);
  ASSERT_NE(p->mem.vma_at(kAppBase), nullptr);
  EXPECT_EQ(p->mem.peek_bytes(kAppBase, 1)[0], 0xCC);  // B's half: traps
  EXPECT_EQ(p->mem.peek_bytes(kAppBase + kPageSize / 2, 1)[0],
            bin->section(melf::SectionKind::kText)->bytes[kPageSize / 2]);

  conn.send("A\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");
  EXPECT_EQ(vos.process(pid)->term_signal, 0);
}

/// Disables feature B of a fresh half-page server with `blocks` under
/// `removal`/`trap` (cutcheck off); returns the report and the verifier's
/// (block addr, original byte) rows.
struct HalfPageCut {
  CustomizeReport rep;
  std::vector<std::pair<uint64_t, uint64_t>> orig_rows;
};
HalfPageCut cut_half_page_server(const std::vector<CovBlock>& blocks,
                                 RemovalPolicy removal, TrapPolicy trap) {
  os::Os vos;
  int pid = vos.spawn(build_half_page_server(), {apps::build_libc()});
  vos.run();
  FeatureSpec spec;
  spec.name = "B";
  spec.blocks = blocks;
  DynaCut dc(vos, pid, {}, CheckMode::kOff);
  HalfPageCut out{dc.disable_feature({spec, removal, trap}), {}};
  const os::Process* p = vos.process(pid);
  const TableRead rows = read_table(*p, kOrigTable);
  if (const os::LoadedModule* lib = p->module_named(kOrigTable.lib)) {
    const uint64_t table =
        lib->base + lib->binary->find_symbol(kOrigTable.records_sym)->value;
    for (size_t i = 0; i < rows.heads.size(); ++i) {
      uint64_t original = 0;
      p->mem.peek(table + i * kOrigTable.record_bytes + 8, &original, 8);
      out.orig_rows.emplace_back(rows.heads[i], original);
    }
  }
  return out;
}

TEST(DynaCut, DuplicateBlocksArePatchedOnce) {
  // A block listed twice is one block: it is patched, counted and charged
  // once, and the verifier keeps one row with the block's true first byte
  // (a second patch would have stashed the first patch's 0xCC).
  const CovBlock b{"halfpage", 0, kPageSize / 2};
  const uint8_t first_byte =
      build_half_page_server()->section(melf::SectionKind::kText)->bytes[0];
  for (auto [removal, trap] :
       {std::pair{RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify},
        std::pair{RemovalPolicy::kUnmapPages, TrapPolicy::kTerminate}}) {
    SCOPED_TRACE(static_cast<int>(removal));
    const HalfPageCut once = cut_half_page_server({b}, removal, trap);
    const HalfPageCut twice = cut_half_page_server({b, b}, removal, trap);
    EXPECT_EQ(twice.rep.edits.blocks_patched, 1u);
    EXPECT_EQ(twice.rep.edits.bytes_patched, once.rep.edits.bytes_patched);
    EXPECT_EQ(twice.rep.timing.code_update_ns,
              once.rep.timing.code_update_ns);
    EXPECT_EQ(twice.orig_rows, once.orig_rows);
  }
  const HalfPageCut verify = cut_half_page_server(
      {b, b}, RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify);
  EXPECT_EQ(verify.rep.edits.bytes_patched, 1u);
  ASSERT_EQ(verify.orig_rows.size(), 1u);
  EXPECT_EQ(verify.orig_rows[0],
            std::make_pair(uint64_t{kAppBase}, uint64_t{first_byte}));
  const HalfPageCut unmap = cut_half_page_server(
      {b, b}, RemovalPolicy::kUnmapPages, TrapPolicy::kTerminate);
  EXPECT_EQ(unmap.rep.edits.bytes_patched, kPageSize / 2);
}

TEST(DynaCut, MultiProcessGroupCustomizedTogether) {
  // A master+worker pair (nginx-style): both processes get the patch.
  namespace sys = os::sys;
  melf::ProgramBuilder b("master");
  b.func("victim").mov_ri(0, 1).ret();
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.label("spin").mov_ri(1, 500).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin);
  vos.run(3000);
  ASSERT_EQ(vos.process_group(pid).size(), 2u);

  FeatureSpec spec;
  spec.name = "victim";
  spec.blocks = {CovBlock{"master", bin->find_symbol("victim")->value, 1}};
  DynaCut dc(vos, pid);
  CustomizeReport rep = dc.disable_feature({
      spec, RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  EXPECT_EQ(rep.edits.processes, 2u);
  EXPECT_EQ(rep.edits.blocks_patched, 2u);

  uint64_t addr = kAppBase + bin->find_symbol("victim")->value;
  for (int p : vos.process_group(pid)) {
    EXPECT_EQ(vos.process(p)->mem.peek_bytes(addr, 1)[0], 0xCC)
        << "pid " << p;
  }
}

TEST(DynaCut, ConstructorRejectsUnknownPid) {
  os::Os vos;
  EXPECT_THROW(DynaCut(vos, 4242), StateError);
}

}  // namespace
}  // namespace dynacut::core
