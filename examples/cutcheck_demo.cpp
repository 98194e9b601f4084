// cutcheck demo: the static cut-plan verifier rejecting malformed
// customizations before any byte of the running process is touched, then
// accepting the repaired plan.
//
//   1. boot a tiny server and tracediff an unwanted feature (as quickstart)
//   2. try three broken plans; each is rejected by a different rule:
//        a. block starting mid-instruction            -> CC001-boundary
//        b. unmapping a page of PLT stubs that live
//           code still calls                          -> CC005-page-safety
//        c. redirect target in a different function   -> CC003-redirect
//   3. preflight + apply the repaired plan, watch the feature answer
//      through the error path, and re-enable it
//   4. coverage seed -> closed slice: the tracediff seed misses a branch
//      of the feature that never ran while profiling; CC008-partial-slice
//      flags the dead-but-reachable remainder, and expand_to_slice grows
//      the cut to the full static feature slice before applying it
//
// Build & run:  cmake --build build && ./build/examples/cutcheck_demo
#include <cstdio>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "common/error.hpp"
#include "core/dynacut.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "trace/trace.hpp"

using namespace dynacut;

// Same shape as the quickstart server ("A" -> "alpha", "B" -> "beta",
// other -> "err").
std::shared_ptr<const melf::Binary> build_demo_server() {
  namespace sys = os::sys;
  melf::ProgramBuilder b("demo");
  b.rodata_str("alpha", "alpha\n");
  b.rodata_str("beta", "beta\n");
  b.rodata_str("err", "err\n");
  b.bss("buf", 64);

  // B's handler has a branch ("B!") no profiling run ever takes: coverage
  // alone will seed a cut that misses it, which is what step 4 is about.
  auto& hb = b.func("handle_b");
  hb.mov_sym(6, "buf").loadb(7, 6, 1);
  hb.cmp_ri(7, '!').je("loud");
  hb.mov_sym(2, "beta").ret();
  hb.label("loud").mov_sym(2, "beta").ret();

  auto& d = b.func("dispatch");
  d.mov_sym(6, "buf").loadb(7, 6, 0);
  d.cmp_ri(7, 'A').je("a").cmp_ri(7, 'B').je("b").jmp("e");
  d.label("a").mov_sym(2, "alpha").jmp("send");
  d.label("b").call("handle_b").jmp("send");
  d.label("e").mark("error_path").mov_sym(2, "err");
  d.label("send").mov_rr(1, 13).call_import("write_str").ret();

  auto& m = b.func("main");
  m.sys(sys::kSocket).mov_rr(12, 0);
  m.mov_rr(1, 12).mov_ri(2, 7777).sys(sys::kBind);
  m.mov_rr(1, 12).sys(sys::kListen);
  m.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  m.label("loop")
      .mov_rr(1, 13)
      .mov_sym(2, "buf")
      .mov_ri(3, 64)
      .call_import("recv_line")
      .cmp_ri(0, 0)
      .je("done")
      .call("dispatch")
      .jmp("loop");
  m.label("done").mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  return std::make_shared<melf::Binary>(b.link());
}

trace::TraceLog profile(std::shared_ptr<const melf::Binary> bin,
                        const char* requests) {
  os::Os vos;
  trace::Tracer tracer(vos);
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  auto conn = vos.connect(7777);
  conn.send(requests);
  vos.run();
  return tracer.dump(pid);
}

// Applies the plan and reports whether the enforcing verifier let it pass.
bool attempt(core::DynaCut& dc, const char* what,
             const core::FeatureSpec& spec, core::RemovalPolicy removal,
             core::TrapPolicy trap) {
  std::printf("--- attempt: %s\n", what);
  try {
    dc.disable_feature({spec, removal, trap});
    std::printf("    accepted\n\n");
    return true;
  } catch (const StateError& e) {
    std::printf("    REJECTED:\n%s\n", e.what());
    return false;
  }
}

int main() {
  auto bin = build_demo_server();

  trace::TraceLog with_b = profile(bin, "A\nB\n");
  trace::TraceLog without_b = profile(bin, "A\nA\n");
  std::vector<analysis::CovBlock> feature_blocks =
      analysis::feature_diff({with_b}, {without_b}, "demo").blocks();
  std::printf("tracediff found %zu blocks unique to feature B\n\n",
              feature_blocks.size());

  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  auto conn = vos.connect(7777);
  auto ask = [&](const char* line) {
    conn.send(line);
    vos.run();
    return conn.recv_all();
  };

  core::DynaCut dc(vos, pid);  // CheckMode::kEnforce by default

  // (a) Off-by-one offset: the patch would land inside an instruction's
  // encoding, corrupting whatever still executes around it.
  core::FeatureSpec skewed;
  skewed.name = "B-skewed";
  skewed.blocks = feature_blocks;
  skewed.blocks.front().offset += 1;
  attempt(dc, "feature blocks with an off-by-one offset", skewed,
          core::RemovalPolicy::kBlockFirstByte, core::TrapPolicy::kTerminate);

  // (b) Unmapping the page that holds the import stubs: dispatch and main
  // still call recv_line and write_str through them.
  core::FeatureSpec plt_page;
  plt_page.name = "plt-page";
  plt_page.blocks = {{"demo", bin->section(melf::SectionKind::kPlt)->offset,
                      static_cast<uint32_t>(kPageSize)}};
  attempt(dc, "unmapping the page of live PLT stubs", plt_page,
          core::RemovalPolicy::kUnmapPages, core::TrapPolicy::kTerminate);

  // (c) Redirecting feature B's traps into main: the handler would rewrite
  // the IP across a call frame.
  core::FeatureSpec cross;
  cross.name = "B-cross";
  cross.blocks = feature_blocks;
  cross.redirect_module = "demo";
  cross.redirect_offset = bin->find_symbol("main")->value;
  attempt(dc, "redirect target outside the cut function", cross,
          core::RemovalPolicy::kBlockFirstByte, core::TrapPolicy::kRedirect);

  // Repaired plan: correct offsets, no page unmapping, same-function
  // redirect. preflight() shows what apply() will see, then the real run.
  core::FeatureSpec good;
  good.name = "B";
  good.blocks = feature_blocks;
  good.redirect_module = "demo";
  good.redirect_offset = bin->find_symbol("error_path")->value;
  auto report = dc.preflight({good, core::RemovalPolicy::kBlockFirstByte,
                             core::TrapPolicy::kRedirect});
  std::printf("--- repaired plan preflight: %zu error(s), %zu warning(s), "
              "%zu note(s), gadget delta %lld\n",
              report.errors(), report.warnings(), report.notes(),
              (long long)report.gadget_delta);

  std::printf("before:   B -> %s", ask("B\n").c_str());
  dc.disable_feature({good, core::RemovalPolicy::kBlockFirstByte,
                     core::TrapPolicy::kRedirect});
  std::printf("disabled: B -> %s", ask("B\n").c_str());
  std::printf("          A -> %s", ask("A\n").c_str());
  dc.restore_feature("B");
  std::printf("restored: B -> %s", ask("B\n").c_str());

  // (4) Coverage seed -> closed slice. The profiling runs above never sent
  // "B!", so handle_b's loud branch has no coverage: the seeded cut leaves
  // it dead-but-reachable and CC008-partial-slice says so. Setting
  // expand_to_slice closes the plan over the static feature slice
  // (dominated blocks + exclusively-called callees) before the rewrite.
  core::CutRequest seeded{good, core::RemovalPolicy::kBlockFirstByte,
                          core::TrapPolicy::kRedirect};
  seeded.feature.name = "B-slice";
  auto seed_pf = dc.preflight(seeded);
  std::printf("\n--- coverage-seeded plan, CC008:\n");
  for (const auto* diag :
       seed_pf.by_rule(analysis::cutcheck::kRulePartialSlice)) {
    std::printf("    %s\n", diag->format().c_str());
  }
  seeded.expand_to_slice = true;
  auto closed_pf = dc.preflight(seeded);
  std::printf("--- slice-closed plan, CC008 findings: %zu\n",
              closed_pf.by_rule(analysis::cutcheck::kRulePartialSlice).size());

  auto cut = dc.disable_feature(seeded);
  std::printf("expanded cut patched %zu blocks from a %zu-block seed\n",
              cut.edits.blocks_patched, feature_blocks.size());
  std::printf("disabled: B! -> %s", ask("B!\n").c_str());
  dc.restore_feature("B-slice");
  std::printf("restored: B! -> %s", ask("B!\n").c_str());

  std::printf("\ncutcheck_demo complete: three malformed plans rejected "
              "before any\nrewrite, the repaired plan verified and applied "
              "live, and the\ncoverage seed closed over the static feature "
              "slice.\n");
  return 0;
}
