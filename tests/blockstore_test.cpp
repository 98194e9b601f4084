// The fleet-wide content-addressed BlockStore: dedup across pids and Os
// instances, refcount-aware accounting (weak entries die with their last
// holder), the full-byte compare that guards hash collisions, and the two
// consumers built on top of it — image::spawn_from_image (instant scale-out
// bit-identical to a replayed boot) and the seen-threaded resident-bytes
// accounting that counts a shared block once machine-wide.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/libc.hpp"
#include "image/block_store.hpp"
#include "image/checkpoint.hpp"
#include "image/image.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::image {
namespace {

vm::PageRef page_of(uint8_t fill) {
  auto p = std::make_shared<std::vector<uint8_t>>(kPageSize, fill);
  return p;
}

// ---------------------------------------------------------------------------
// Interning primitives
// ---------------------------------------------------------------------------

TEST(BlockStore, InternDedupsIdenticalBytes) {
  BlockStore& bs = BlockStore::global();
  vm::PageRef a = page_of(0x5a);
  vm::PageRef canon = bs.intern(a);
  EXPECT_EQ(canon.get(), a.get());  // first holder becomes canonical

  bs.reset_stats();
  vm::PageRef b = bs.intern(page_of(0x5a));
  EXPECT_EQ(b.get(), a.get());  // identical bytes -> the same block
  EXPECT_EQ(bs.stats().dedup_hits, 1u);

  vm::PageRef c = bs.intern_bytes(std::span<const uint8_t>(*a));
  EXPECT_EQ(c.get(), a.get());

  vm::PageRef d = bs.intern(page_of(0xa5));
  EXPECT_NE(d.get(), a.get());  // different bytes stay distinct
}

TEST(BlockStore, EntriesDieWithTheirLastHolder) {
  BlockStore& bs = BlockStore::global();
  const size_t base = bs.unique_blocks();
  const uint64_t base_bytes = bs.resident_bytes();
  {
    vm::PageRef a = bs.intern(page_of(0x11));
    vm::PageRef b = bs.intern(page_of(0x22));
    EXPECT_EQ(bs.unique_blocks(), base + 2);
    EXPECT_EQ(bs.resident_bytes(), base_bytes + 2 * kPageSize);
  }
  // The table holds weak refs only: both blocks are gone, and so is the
  // accounting for them.
  EXPECT_EQ(bs.unique_blocks(), base);
  EXPECT_EQ(bs.resident_bytes(), base_bytes);
}

TEST(BlockStore, FullByteCompareGuardsHashCollisions) {
  BlockStore& bs = BlockStore::global();
  // Constant hash: every page collides. Dedup must still be exact.
  bs.set_hash_for_test([](std::span<const uint8_t>) { return 42ull; });
  bs.reset_stats();

  vm::PageRef a = bs.intern(page_of(0x01));
  vm::PageRef b = bs.intern(page_of(0x02));
  EXPECT_NE(a.get(), b.get());  // collision did NOT merge distinct bytes
  EXPECT_GE(bs.stats().hash_collisions, 1u);

  vm::PageRef a2 = bs.intern(page_of(0x01));
  EXPECT_EQ(a2.get(), a.get());  // identical bytes still dedup
  EXPECT_EQ(bs.stats().dedup_hits, 1u);

  bs.set_hash_for_test(nullptr);
}

// Dedup can hand a live, sole-owned page block to a second holder behind
// its owning AddressSpace's back — while the owner's write fast-path raw
// pointer is still armed from an earlier legal in-place write. The
// share-epoch bump on every dedup hit must disarm that cache so the
// owner's next write COW-clones instead of corrupting the new holder.
TEST(BlockStore, DedupDisarmsOwnersWriteFastPath) {
  BlockStore& bs = BlockStore::global();
  vm::AddressSpace owner;
  owner.map(0x1000, kPageSize, kProtRead | kProtWrite, "data");
  std::vector<uint8_t> fill(kPageSize, 0x77);
  owner.poke_bytes(0x1000, fill);

  // Register the live block (an image shared it once), then drop that
  // holder: the owner is the sole holder again and may write in place.
  bs.intern(owner.page_block(0x1000));

  // A legal in-place write arms the owner's write fast-path raw pointer
  // (the block is uniquely owned, so no clone happens). Write the byte the
  // page already holds so the table entry stays byte-accurate.
  uint8_t same = 0x77;
  owner.poke(0x1000, &same, 1);

  // Another pid's checkpoint interns byte-identical content: dedup hands
  // the owner's live block to a second holder behind the owner's back.
  bs.reset_stats();
  vm::PageRef other = bs.intern_bytes(std::span<const uint8_t>(fill));
  ASSERT_EQ(bs.stats().dedup_hits, 1u);  // the hazardous path was taken

  // The owner's next write must not scribble into the now-shared block.
  uint8_t diff = 0x99;
  owner.poke(0x1000, &diff, 1);
  EXPECT_EQ((*other)[0], 0x77);                     // new holder unharmed
  EXPECT_EQ(owner.peek_bytes(0x1000, 1)[0], 0x99);  // owner's write landed
  EXPECT_NE(owner.page_block(0x1000).get(), other.get());  // COW split
}

// Same hazard through intern(PageRef): a second space's checkpoint dedups
// onto the armed owner's block.
TEST(BlockStore, InternPageRefAlsoDisarms) {
  BlockStore& bs = BlockStore::global();
  vm::AddressSpace owner;
  owner.map(0x2000, kPageSize, kProtRead | kProtWrite, "data");
  std::vector<uint8_t> fill(kPageSize, 0x3c);
  owner.poke_bytes(0x2000, fill);
  bs.intern(owner.page_block(0x2000));
  uint8_t same = 0x3c;
  owner.poke(0x2000, &same, 1);  // arm the fast path

  vm::PageRef other = bs.intern(page_of(0x3c));
  uint8_t diff = 0x11;
  owner.poke(0x2000, &diff, 1);
  EXPECT_EQ((*other)[0], 0x3c);
  EXPECT_EQ(owner.peek_bytes(0x2000, 1)[0], 0x11);
}

// Every armed TLB entry checks its own share epoch: after dedup hits on two
// armed pages, re-arming the first must not make the second look current.
TEST(BlockStore, DedupDisarmsEveryArmedEntry) {
  BlockStore& bs = BlockStore::global();
  vm::AddressSpace owner;
  owner.map(0x1000, 2 * kPageSize, kProtRead | kProtWrite, "data");
  std::vector<uint8_t> fill_a(kPageSize, 0x6b);
  std::vector<uint8_t> fill_b(kPageSize, 0x6c);
  owner.poke_bytes(0x1000, fill_a);
  owner.poke_bytes(0x2000, fill_b);
  bs.intern(owner.page_block(0x1000));
  bs.intern(owner.page_block(0x2000));
  uint8_t same_a = 0x6b;
  uint8_t same_b = 0x6c;
  owner.poke(0x1000, &same_a, 1);  // arm both pages in place
  owner.poke(0x2000, &same_b, 1);

  bs.reset_stats();
  vm::PageRef other_a = bs.intern_bytes(std::span<const uint8_t>(fill_a));
  vm::PageRef other_b = bs.intern_bytes(std::span<const uint8_t>(fill_b));
  ASSERT_EQ(bs.stats().dedup_hits, 2u);

  uint8_t diff = 0x99;
  owner.poke(0x1000, &diff, 1);  // COW, then re-armed at the new epoch
  owner.poke(0x2000, &diff, 1);
  EXPECT_EQ((*other_a)[0], 0x6b);
  EXPECT_EQ((*other_b)[0], 0x6c);
  EXPECT_EQ(owner.peek_bytes(0x1000, 1)[0], 0x99);
  EXPECT_EQ(owner.peek_bytes(0x2000, 1)[0], 0x99);
}

// ---------------------------------------------------------------------------
// Fleet dedup: images of different pids share resident blocks
// ---------------------------------------------------------------------------

TEST(BlockStore, ImagesOfDifferentPidsShareBlocks) {
  os::Os vos;
  auto libc = apps::build_libc();
  int pa = vos.spawn(testing::build_toysrv(80), {libc});
  int pb = vos.spawn(testing::build_toysrv(81), {libc});
  vos.run();

  ProcessImage img_a = checkpoint(vos, {.pid = pa}).img;
  ProcessImage img_b = checkpoint(vos, {.pid = pb}).img;

  ImageStore store;
  store.put(ImageKey{pa, ImageKey::kPreTag}, img_a);
  const uint64_t one = store.resident_bytes();
  store.put(ImageKey{pb, ImageKey::kPreTag}, img_b);
  const uint64_t both = store.resident_bytes();

  // The two processes run the same binary (only the port immediate
  // differs), so the second image adds a small delta, not a full copy.
  EXPECT_EQ(store.bytes_used(), img_a.pages_bytes() + img_b.pages_bytes());
  EXPECT_LT(both - one, img_b.pages_bytes() / 2);
  EXPECT_LT(both, store.bytes_used());
}

// ---------------------------------------------------------------------------
// spawn_from_image
// ---------------------------------------------------------------------------

TEST(SpawnFromImage, BitIdenticalToReplayedBoot) {
  auto bin = testing::build_toysrv();
  auto libc = apps::build_libc();

  // Donor: boot to the listener, checkpoint.
  os::Os donor;
  int dp = donor.spawn(bin, {libc});
  donor.run();
  ProcessImage img = checkpoint(donor, {.pid = dp}).img;

  // Clone: fork a fresh Os's first process from the image — no guest
  // instruction runs. Replay: the same boot re-executed from the binary.
  os::Os cloned;
  int cp = spawn_from_image(cloned, img);
  os::Os replayed;
  int rp = replayed.spawn(bin, {libc});
  replayed.run();
  ASSERT_EQ(cp, rp);

  ProcessImage ci = checkpoint(cloned, {.pid = cp}).img;
  ProcessImage ri = checkpoint(replayed, {.pid = rp}).img;
  EXPECT_EQ(ci.encode(), ri.encode());

  // And the clone is a live server, not just matching bytes (the restore
  // thaws the comparison checkpoint's freeze).
  restore(cloned, {.pid = cp, .img = &ci});
  auto conn = cloned.connect(80);
  conn.send("A\nQ\n");
  cloned.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");
  EXPECT_EQ(cloned.process(cp)->stdout_buf, "");  // init never re-ran
}

TEST(SpawnFromImage, MixedFleetSameSeedIsDeterministic) {
  auto bin = testing::build_toysrv();
  auto run_fleet = [&] {
    os::Os vos;
    vos.set_seed(5);
    vos.set_cores(2);
    auto libc = apps::build_libc();
    int tp = vos.spawn(bin, {libc});
    vos.run();
    ProcessImage img = checkpoint(vos, {.pid = tp}).img;
    // Mixed fleet: two workers forked from the image onto fresh ports,
    // one booted from the binary the ordinary way.
    int w1 = spawn_from_image(vos, img, {.listen_port = 81});
    int w2 = spawn_from_image(vos, img, {.listen_port = 82});
    int w3 = vos.spawn(testing::build_toysrv(83), {libc});
    vos.run();
    std::string out;
    for (uint16_t port : {uint16_t{81}, uint16_t{82}, uint16_t{83}}) {
      auto conn = vos.connect(port);
      conn.send("A\nB\nQ\n");
      vos.run();
      out += conn.recv_all();
    }
    (void)w1;
    (void)w2;
    (void)w3;
    return std::make_pair(vos.total_retired(), out);
  };
  auto a = run_fleet();
  auto b = run_fleet();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second, "alpha\nbeta\nalpha\nbeta\nalpha\nbeta\n");
}

// ---------------------------------------------------------------------------
// Machine-wide seen-threaded accounting
// ---------------------------------------------------------------------------

TEST(ResidentBytes, SeenSetCountsSharedBlocksOnce) {
  os::Os vos;
  int tp = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  vos.run();
  ProcessImage img = checkpoint(vos, {.pid = tp}).img;
  ImageStore store;
  store.put(ImageKey{tp, ImageKey::kPreTag}, img);
  for (int i = 0; i < 3; ++i) {
    spawn_from_image(vos, img,
                     {.listen_port = static_cast<uint16_t>(81 + i)});
  }

  const uint64_t solo = vos.process(tp)->mem.resident_bytes();
  // Naive per-holder sums double-count every shared block...
  uint64_t naive = store.resident_bytes();
  for (int pid : {tp, tp + 1, tp + 2, tp + 3}) {
    naive += vos.process(pid)->mem.resident_bytes();
  }
  // ...the seen set threads through all holders and counts each once.
  std::set<const void*> seen;
  const uint64_t fleet =
      vos.resident_pages_bytes(&seen) + store.resident_bytes(&seen);
  EXPECT_LT(fleet, naive / 2);
  // O(1 image + deltas): the whole 4-process fleet plus the stored image
  // fits well inside two copies of one process.
  EXPECT_LT(fleet, 2 * solo);
  EXPECT_GE(fleet, solo);
}

}  // namespace
}  // namespace dynacut::image
