// Tests for crsim: checkpoint/restore fidelity, image addressing, VMA
// surgery, serialization, TCP_REPAIR-style socket survival, ImageStore.
#include <gtest/gtest.h>

#include "apps/libc.hpp"
#include "image/checkpoint.hpp"
#include "image/image.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"

namespace dynacut::image {
namespace {

namespace sys = os::sys;
using melf::Binary;
using melf::ProgramBuilder;

// ---------------------------------------------------------------------------
// ProcessImage addressing primitives
// ---------------------------------------------------------------------------

ProcessImage blank_image() {
  ProcessImage img;
  img.add_vma(0x1000, 0x2000, kProtRead | kProtWrite, "test");
  return img;
}

TEST(ProcessImage, ReadOfUnpopulatedPageIsZero) {
  ProcessImage img = blank_image();
  EXPECT_EQ(img.read_u64(0x1100), 0u);
  EXPECT_TRUE(img.pages.empty());
}

TEST(ProcessImage, WriteReadRoundtripAcrossPageBoundary) {
  ProcessImage img = blank_image();
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i);
  img.write_bytes(0x1fd0, data);
  EXPECT_EQ(img.read_bytes(0x1fd0, 100), data);
  EXPECT_EQ(img.pages.size(), 2u);
}

TEST(ProcessImage, AccessOutsideVmaThrows) {
  ProcessImage img = blank_image();
  EXPECT_THROW(img.read_bytes(0x3000, 1), StateError);
  EXPECT_THROW(img.read_bytes(0x2ff0, 0x20), StateError);  // straddles end
  uint8_t b = 0;
  EXPECT_THROW(img.write_bytes(0x0ff8, std::span(&b, 1)), StateError);
}

TEST(ProcessImage, AddVmaRejectsOverlap) {
  ProcessImage img = blank_image();
  EXPECT_THROW(img.add_vma(0x2000, 0x1000, 0, "x"), StateError);
  img.add_vma(0x4000, 0x1000, 0, "ok");
  EXPECT_NE(img.vma_at(0x4000), nullptr);
}

TEST(ProcessImage, DropRangeRemovesPagesAndSplits) {
  ProcessImage img = blank_image();
  img.write_u64(0x1000, 1);
  img.write_u64(0x2000, 2);
  img.drop_range(0x1000, 0x1000);
  EXPECT_EQ(img.vma_at(0x1000), nullptr);
  EXPECT_NE(img.vma_at(0x2000), nullptr);
  EXPECT_EQ(img.pages.count(0x1000), 0u);
  EXPECT_EQ(img.read_u64(0x2000), 2u);
  EXPECT_THROW(img.drop_range(0x7000, 0x1000), StateError);
}

TEST(ProcessImage, GrowVma) {
  ProcessImage img = blank_image();
  img.grow_vma(0x1000, 0x1000);
  EXPECT_NE(img.vma_at(0x3500), nullptr);
  img.add_vma(0x5000, 0x1000, 0, "wall");
  EXPECT_THROW(img.grow_vma(0x1000, 0x2000), StateError);  // hits the wall
  EXPECT_THROW(img.grow_vma(0x9000, 0x1000), StateError);  // no such VMA
}

TEST(ProcessImage, FindFreeSkipsVmas) {
  ProcessImage img = blank_image();  // [0x1000, 0x3000)
  EXPECT_EQ(img.find_free(0x1000, 0x1000), 0x3000u);
  EXPECT_EQ(img.find_free(0x1000, 0x8000), 0x8000u);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore semantics
// ---------------------------------------------------------------------------

TEST(Checkpoint, FreezesAndCapturesState) {
  ProgramBuilder b("counter");
  b.data_u64("n", 0);
  auto& f = b.func("main");
  f.mov_sym(6, "n")
      .label("loop")
      .load(7, 6, 0)
      .add_ri(7, 1)
      .store(6, 0, 7)
      .mov_ri(1, 5)
      .sys(sys::kNanosleep)
      .jmp("loop");
  b.set_entry("main");

  os::Os vos;
  int pid = vos.spawn(std::make_shared<Binary>(b.link()));
  vos.run(5000);

  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  EXPECT_EQ(vos.process(pid)->state, os::Process::State::kFrozen);
  EXPECT_EQ(img.core.proc_name, "counter");
  EXPECT_EQ(img.core.pid, pid);
  EXPECT_GT(img.pages.size(), 0u);
  EXPECT_GE(img.vmas.size(), 3u);  // text + data/got + stack at minimum
  EXPECT_FALSE(img.modules.empty());

  // Restore and verify the process resumes counting where it left off.
  const melf::Symbol* n = img.modules.back().binary->find_symbol("n");
  uint64_t base = img.modules.back().base;
  uint64_t count_at_dump = img.read_u64(base + n->value);
  restore(vos, {.pid = pid, .img = &img});
  vos.run(5000);
  uint64_t count_later = 0;
  vos.process(pid)->mem.peek(base + n->value, &count_later, 8);
  EXPECT_GT(count_later, count_at_dump);
}

TEST(Checkpoint, RestoreRequiresFrozenProcess) {
  ProgramBuilder b("idle");
  b.func("main").label("s").jmp("s");
  b.set_entry("main");
  os::Os vos;
  int pid = vos.spawn(std::make_shared<Binary>(b.link()));
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  restore(vos, {.pid = pid, .img = &img});
  EXPECT_THROW(restore(vos, {.pid = pid, .img = &img}), StateError);  // no longer frozen
}

TEST(Checkpoint, ImageEditVisibleAfterRestore) {
  // The DynaCut flow: dump, mutate image memory, restore, observe change.
  ProgramBuilder b("mutate");
  b.data_u64("flag", 1);
  auto& f = b.func("main");
  f.label("wait")
      .mov_sym(6, "flag")
      .load(7, 6, 0)
      .cmp_ri(7, 1)
      .je("sleepon")
      .mov_ri(1, 42)
      .sys(sys::kExit)
      .label("sleepon")
      .mov_ri(1, 50)
      .sys(sys::kNanosleep)
      .jmp("wait");
  b.set_entry("main");

  os::Os vos;
  int pid = vos.spawn(std::make_shared<Binary>(b.link()));
  vos.run(2000);
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  const melf::Symbol* flag = img.modules.back().binary->find_symbol("flag");
  img.write_u64(img.modules.back().base + flag->value, 0);
  restore(vos, {.pid = pid, .img = &img});
  vos.run();
  ASSERT_TRUE(vos.all_exited());
  EXPECT_EQ(vos.process(pid)->exit_code, 42);
}

TEST(Checkpoint, SocketsSurviveCheckpointRestore) {
  // TCP_REPAIR analogue: a connected client keeps working after the server
  // was dumped and restored mid-connection.
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();
  auto conn = vos.connect(80);
  conn.send("A\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");

  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  // In-flight bytes arriving while frozen must not be lost.
  conn.send("B\n");
  restore(vos, {.pid = pid, .img = &img});
  vos.run();
  EXPECT_EQ(conn.recv_all(), "beta\n");
  conn.send("Q\n");
  vos.run();
  EXPECT_TRUE(vos.all_exited());
}

TEST(Checkpoint, GroupCapturesWholeTree) {
  ProgramBuilder b("family");
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.label("spin").mov_ri(1, 100).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  os::Os vos;
  int pid = vos.spawn(std::make_shared<Binary>(b.link()));
  vos.run(2000);
  auto images = checkpoint_group(vos, pid);
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0].core.pid, pid);
  EXPECT_EQ(images[1].core.ppid, pid);
  for (const auto& img : images) {
    restore(vos, {.pid = img.core.pid, .img = &img});
  }
}

TEST(Checkpoint, FdTableCapturesSocketState) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();
  auto conn = vos.connect(80);
  vos.run();
  // Queue a request that stays buffered while we dump.
  conn.send("A\n");
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  bool saw_listen = false, saw_stream_with_bytes = false;
  for (const auto& fd : img.fds) {
    if (fd.sock_kind == 1) saw_listen = true;
    if (fd.sock_kind == 2 && !fd.rx_bytes.empty()) {
      saw_stream_with_bytes = true;
      EXPECT_EQ(std::string(fd.rx_bytes.begin(), fd.rx_bytes.end()), "A\n");
    }
  }
  EXPECT_TRUE(saw_listen);
  EXPECT_TRUE(saw_stream_with_bytes);
  restore(vos, {.pid = pid, .img = &img});
}

TEST(Checkpoint, RestoreNewBootsFromStoredImage) {
  // Paper footnote 5: restoring a post-init image replaces rerunning init.
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();  // init complete, listening
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  vos.kill(pid);

  int pid2 = spawn_from_image(vos, img);
  EXPECT_NE(pid2, pid);
  vos.run();
  // The listener was re-registered; a fresh client can connect and the
  // server must NOT re-run init (stdout of the new process stays empty).
  auto conn = vos.connect(80);
  conn.send("A\nQ\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");
  EXPECT_EQ(vos.process(pid2)->stdout_buf, "");  // no second "ready"
}

// ---------------------------------------------------------------------------
// Serialization + store
// ---------------------------------------------------------------------------

TEST(ImageFormat, EncodeDecodeRoundtrip) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  ProcessImage back = ProcessImage::decode(img.encode());

  EXPECT_EQ(back.core.proc_name, img.core.proc_name);
  EXPECT_EQ(back.core.cpu.ip, img.core.cpu.ip);
  EXPECT_EQ(back.core.cpu.regs, img.core.cpu.regs);
  ASSERT_EQ(back.vmas.size(), img.vmas.size());
  for (size_t i = 0; i < img.vmas.size(); ++i) {
    EXPECT_EQ(back.vmas[i].start, img.vmas[i].start);
    EXPECT_EQ(back.vmas[i].end, img.vmas[i].end);
    EXPECT_EQ(back.vmas[i].prot, img.vmas[i].prot);
    EXPECT_EQ(back.vmas[i].name, img.vmas[i].name);
  }
  ASSERT_EQ(back.pages.size(), img.pages.size());
  for (const auto& [addr, block] : img.pages) {
    ASSERT_TRUE(back.pages.count(addr));
    EXPECT_EQ(back.pages.at(addr), *block);
  }
  ASSERT_EQ(back.fds.size(), img.fds.size());
  ASSERT_EQ(back.modules.size(), img.modules.size());
  for (size_t i = 0; i < img.modules.size(); ++i) {
    EXPECT_EQ(back.modules[i].name, img.modules[i].name);
    EXPECT_EQ(back.modules[i].base, img.modules[i].base);
    EXPECT_EQ(back.modules[i].binary->encode(),
              img.modules[i].binary->encode());
  }
  restore(vos, {.pid = pid, .img = &img});
}

TEST(ImageFormat, DecodeRejectsGarbage) {
  std::vector<uint8_t> junk(16, 0x41);
  EXPECT_THROW(ProcessImage::decode(junk), DecodeError);
}

TEST(ImageStore, PutGetRoundtrip) {
  ProcessImage img = blank_image();
  img.core.proc_name = "stored";
  img.write_u64(0x1000, 0xfeed);
  ImageStore store;
  const ImageKey key{7, "SET+TTL"};
  EXPECT_FALSE(store.contains(key));
  store.put(key, img);
  EXPECT_TRUE(store.contains(key));
  ProcessImage back = store.get(key);
  EXPECT_EQ(back.core.proc_name, "stored");
  EXPECT_EQ(back.read_u64(0x1000), 0xfeedu);
  EXPECT_GT(store.bytes_used(), 0u);
  EXPECT_THROW(store.get(ImageKey{7, "missing"}), StateError);
  EXPECT_THROW(store.get(ImageKey{8, "SET+TTL"}), StateError);
}

TEST(ImageStore, ListAndEraseTypedKeys) {
  ProcessImage img = blank_image();
  ImageStore store;
  store.put(ImageKey{1, ImageKey::kPreTag}, img);
  store.put(ImageKey{1, "SET"}, img);
  store.put(ImageKey{2, ImageKey::kPreTag}, img);
  std::vector<ImageKey> keys = store.list();
  ASSERT_EQ(keys.size(), 3u);
  // list() is ordered: by pid, then by feature-set tag.
  EXPECT_EQ(keys[0], (ImageKey{1, "SET"}));
  EXPECT_EQ(keys[1], (ImageKey{1, ImageKey::kPreTag}));
  EXPECT_EQ(keys[2], (ImageKey{2, ImageKey::kPreTag}));
  EXPECT_EQ(store.erase(ImageKey{1, "SET"}), 1u);
  EXPECT_EQ(store.erase(ImageKey{1, "SET"}), 0u);
  EXPECT_FALSE(store.contains(ImageKey{1, "SET"}));
  EXPECT_EQ(store.list().size(), 2u);
}

TEST(ImageStore, DeserializedImageRestoresProcess) {
  // Full fidelity: serialize the image, decode it, restore the live process
  // from the decoded copy.
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();
  ProcessImage img = checkpoint(vos, {.pid = pid}).img;
  ImageStore store;
  const ImageKey key{pid, ImageKey::kPreTag};
  store.put(key, img);
  ProcessImage loaded = store.get(key);
  // Live socket handles don't survive serialization; splice them back the
  // way CRIU's TCP repair re-attaches connections.
  for (size_t i = 0; i < loaded.fds.size(); ++i) {
    loaded.fds[i].live = img.fds[i].live;
  }
  restore(vos, {.pid = pid, .img = &loaded});
  auto conn = vos.connect(80);
  conn.send("A\nQ\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");
  EXPECT_TRUE(vos.all_exited());
}

}  // namespace
}  // namespace dynacut::image
