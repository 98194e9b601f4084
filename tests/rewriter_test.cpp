// Tests for the image rewriter: byte patches + undo, trap insertion, page
// unmapping, sigaction rewriting and PI library injection with GOT/PLT
// relocation.
#include <gtest/gtest.h>

#include "apps/libc.hpp"
#include "core/handler_lib.hpp"
#include "image/checkpoint.hpp"
#include "isa/isa.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "rewriter/rewriter.hpp"
#include "test_guests.hpp"

namespace dynacut::rw {
namespace {

using melf::Binary;

/// Boots toysrv to its steady state and checkpoints it.
struct Fixture {
  os::Os vos;
  int pid = 0;
  image::ProcessImage img;
  std::shared_ptr<const Binary> bin;

  Fixture() {
    bin = testing::build_toysrv();
    pid = vos.spawn(bin, {apps::build_libc()});
    vos.run();
    img = image::checkpoint(vos, {.pid = pid}).img;
  }

  uint64_t app_base() const { return img.module_named("toysrv")->base; }
  uint64_t sym(const std::string& name) const {
    return app_base() + bin->find_symbol(name)->value;
  }
  uint8_t u8(uint64_t addr) const { return img.mem.peek_bytes(addr, 1)[0]; }
  uint64_t u64(uint64_t addr) const {
    uint64_t v = 0;
    img.mem.peek(addr, &v, 8);
    return v;
  }
  void put_u64(uint64_t addr, uint64_t v) { img.mem.poke(addr, &v, 8); }
};

TEST(Rewriter, WriteBytesRecordsOriginal) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t addr = fx.sym("handle_b");
  std::vector<uint8_t> before = fx.img.mem.peek_bytes(addr, 4);
  std::vector<uint8_t> patch{1, 2, 3, 4};
  PatchRecord rec = rw.write_bytes(addr, patch);
  EXPECT_EQ(rec.vaddr, addr);
  EXPECT_EQ(rec.original, before);
  EXPECT_EQ(fx.img.mem.peek_bytes(addr, 4), patch);
  rw.undo(rec);
  EXPECT_EQ(fx.img.mem.peek_bytes(addr, 4), before);
}

TEST(Rewriter, BlockFirstByteInsertsTrap) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t addr = fx.sym("handle_b");
  PatchRecord rec = rw.block_first_byte(addr);
  EXPECT_EQ(fx.u8(addr), 0xCC);
  EXPECT_EQ(rec.original.size(), 1u);
  EXPECT_NE(rec.original[0], 0xCC);
  // Bytes after the first are untouched.
  EXPECT_EQ(fx.img.mem.peek_bytes(addr + 1, 2),
            std::vector<uint8_t>(
                {fx.bin->section(melf::SectionKind::kText)
                     ->bytes[fx.bin->find_symbol("handle_b")->value + 1],
                 fx.bin->section(melf::SectionKind::kText)
                     ->bytes[fx.bin->find_symbol("handle_b")->value + 2]}));
}

TEST(Rewriter, WipeFillsWholeRangeWithTraps) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t addr = fx.sym("handle_b");
  uint64_t size = fx.bin->find_symbol("handle_b")->size;
  PatchRecord rec = rw.wipe(addr, size);
  for (uint64_t i = 0; i < size; ++i) {
    EXPECT_EQ(fx.u8(addr + i), 0xCC);
  }
  rw.undo(rec);
  EXPECT_NE(fx.u8(addr), 0xCC);
}

TEST(Rewriter, UndoDoesNotInflatePatchStats) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t addr = fx.sym("handle_b");
  PatchRecord rec = rw.wipe(addr, 16);
  EXPECT_EQ(rw.bytes_patched(), 16u);
  EXPECT_EQ(rw.bytes_restored(), 0u);
  rw.undo(rec);
  // Undos accumulate in their own counter; a patch/undo cycle must not
  // read as 32 bytes of customization.
  EXPECT_EQ(rw.bytes_patched(), 16u);
  EXPECT_EQ(rw.bytes_restored(), 16u);
}

TEST(Rewriter, PagesTouchedDedupesSamePage) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t addr = fx.sym("handle_b");
  rw.block_first_byte(addr);
  rw.block_first_byte(addr + 2);
  rw.wipe(addr + 4, 8);
  // Three edits on one page: one distinct page touched.
  EXPECT_EQ(rw.pages_touched(), 1u);
  // A zero-length patch touches no page at all.
  rw.write_bytes(addr + 1, {});
  EXPECT_EQ(rw.pages_touched(), 1u);
}

TEST(Rewriter, PatchOutsideVmaThrows) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  EXPECT_THROW(rw.block_first_byte(0x1), StateError);
}

TEST(Rewriter, UnmapPagesDropsRange) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t text = fx.app_base();  // .text VMA start
  ASSERT_NE(fx.img.mem.vma_at(text), nullptr);
  rw.unmap_pages(text, kPageSize);
  EXPECT_EQ(fx.img.mem.vma_at(text), nullptr);
  EXPECT_GT(rw.pages_touched(), 0u);
}

TEST(Rewriter, SetSigactionUpdatesCore) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  rw.set_sigaction(os::sig::kSigTrap, 0x1234, 0x5678);
  EXPECT_EQ(fx.img.core.sigactions[os::sig::kSigTrap].handler, 0x1234u);
  EXPECT_EQ(fx.img.core.sigactions[os::sig::kSigTrap].restorer, 0x5678u);
  EXPECT_THROW(rw.set_sigaction(99, 0, 0), StateError);
}

TEST(Rewriter, InjectLibraryCreatesVmasAndModule) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  uint64_t vmas_before = fx.img.mem.vma_count();
  auto lib = core::build_redirect_lib(8);
  uint64_t base = rw.inject_library(lib);
  EXPECT_NE(base, 0u);
  EXPECT_EQ(base % kPageSize, 0u);
  EXPECT_GT(fx.img.mem.vma_count(), vmas_before);
  ASSERT_NE(fx.img.module_named(core::kSigLibName), nullptr);
  // Code bytes are in place.
  uint64_t handler = rw.symbol_addr(core::kSigLibName, "dynacut_handler");
  EXPECT_NE(fx.u8(handler), 0u);
  // The chosen base does not collide with existing modules.
  EXPECT_NE(fx.img.mem.vma_at(base), nullptr);
}

TEST(Rewriter, InjectAtExplicitBase) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  auto lib = core::build_redirect_lib(8);
  uint64_t base = rw.inject_library(lib, 0x7000000000);
  EXPECT_EQ(base, 0x7000000000u);
  EXPECT_THROW(rw.inject_library(core::build_verifier_lib(1, 1), 0x123),
               StateError);  // unaligned
}

TEST(Rewriter, InjectTwiceThrows) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  rw.inject_library(core::build_redirect_lib(8));
  EXPECT_THROW(rw.inject_library(core::build_redirect_lib(8)), StateError);
}

TEST(Rewriter, InjectResolvesGotAgainstLoadedLibc) {
  // A PIC library importing strlen gets its GOT slot filled with libc's
  // strlen address — the paper's PLT relocation flow.
  Fixture fx;
  melf::ProgramBuilder lb("libuser.so");
  lb.func("use_strlen").call_import("strlen").ret();
  auto lib = std::make_shared<Binary>(lb.link());

  ImageRewriter rw(fx.img);
  uint64_t base = rw.inject_library(lib);
  uint64_t got_addr = base + lib->got_slot_offset(0);
  uint64_t strlen_addr = fx.u64(got_addr);

  const image::ModuleImage* libc = fx.img.module_named("libc.so");
  ASSERT_NE(libc, nullptr);
  EXPECT_EQ(strlen_addr,
            libc->base + libc->binary->find_symbol("strlen")->value);
  EXPECT_GT(rw.relocs_applied(), 0u);
}

TEST(Rewriter, InjectUnresolvedImportThrows) {
  Fixture fx;
  melf::ProgramBuilder lb("libbad.so");
  lb.func("f").call_import("no_such_fn").ret();
  auto lib = std::make_shared<Binary>(lb.link());
  ImageRewriter rw(fx.img);
  EXPECT_THROW(rw.inject_library(lib), StateError);
}

TEST(Rewriter, UnloadLibraryRemovesVmasAndModule) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  auto lib = core::build_redirect_lib(8);
  uint64_t base = rw.inject_library(lib);
  uint64_t vmas_with = fx.img.mem.vma_count();
  rw.unload_library(core::kSigLibName);
  EXPECT_EQ(fx.img.module_named(core::kSigLibName), nullptr);
  EXPECT_LT(fx.img.mem.vma_count(), vmas_with);
  EXPECT_EQ(fx.img.mem.vma_at(base), nullptr);
  EXPECT_THROW(rw.unload_library("gone"), StateError);
}

TEST(Rewriter, SymbolAddrErrors) {
  Fixture fx;
  ImageRewriter rw(fx.img);
  EXPECT_THROW(rw.symbol_addr("nomod", "x"), StateError);
  EXPECT_THROW(rw.symbol_addr("toysrv", "nosym"), StateError);
  EXPECT_EQ(rw.symbol_addr("toysrv", "dispatch"), fx.sym("dispatch"));
}

TEST(Rewriter, PatchedImageExecutesTrapAfterRestore) {
  // End-to-end of the primitive: patch handle_b's first byte, restore, send
  // "B" — the process must die with SIGTRAP (no handler installed).
  Fixture fx;
  ImageRewriter rw(fx.img);
  rw.block_first_byte(fx.sym("handle_b"));
  image::restore(fx.vos, {.pid = fx.pid, .img = &fx.img});

  auto conn = fx.vos.connect(80);
  conn.send("A\n");
  fx.vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");  // feature A unaffected

  conn.send("B\n");
  fx.vos.run();
  EXPECT_EQ(fx.vos.process(fx.pid)->term_signal, os::sig::kSigTrap);
}

TEST(Rewriter, InjectedRedirectLibWorksInGuest) {
  // Manual wiring of what DynaCut::disable_feature automates: trap on the
  // dispatch arm for B and redirect to dispatch_err.
  Fixture fx;
  ImageRewriter rw(fx.img);

  // Find the arm_b block: it is the call-site block inside dispatch. We
  // patch handle_b's entry instead and redirect to dispatch_err — different
  // functions — to confirm the mechanism is offset-agnostic at this layer.
  uint64_t trap_addr = fx.sym("handle_b");
  uint64_t target = fx.sym("dispatch_err");
  rw.block_first_byte(trap_addr);

  uint64_t base = rw.inject_library(core::build_redirect_lib(4));
  (void)base;
  uint64_t count = rw.symbol_addr(core::kSigLibName, "redirect_count");
  uint64_t table = rw.symbol_addr(core::kSigLibName, "redirect_table");
  fx.put_u64(table, trap_addr);
  fx.put_u64(table + 8, target);
  fx.put_u64(count, 1);
  rw.set_sigaction(os::sig::kSigTrap,
                   rw.symbol_addr(core::kSigLibName, "dynacut_handler"),
                   rw.symbol_addr(core::kSigLibName, "dynacut_restorer"));
  image::restore(fx.vos, {.pid = fx.pid, .img = &fx.img});

  auto conn = fx.vos.connect(80);
  conn.send("B\n");
  fx.vos.run();
  // Redirected into the error path: "err" instead of "beta", still alive.
  EXPECT_EQ(conn.recv_all(), "err\n");
  EXPECT_EQ(fx.vos.process(fx.pid)->term_signal, 0);
  conn.send("A\nQ\n");
  fx.vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");
  EXPECT_TRUE(fx.vos.all_exited());
}

}  // namespace
}  // namespace dynacut::rw
