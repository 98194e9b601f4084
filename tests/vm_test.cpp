// Tests for the VM substrate: address-space semantics (VMAs, pages,
// protections, faults) and the VX64 executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <unordered_map>

#include "common/constants.hpp"
#include "isa/encode.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"
#include "vm/superblock.hpp"

namespace dynacut::vm {
namespace {

using isa::Encoder;
using isa::Op;

// ---------------------------------------------------------------------------
// AddressSpace
// ---------------------------------------------------------------------------

TEST(AddressSpace, MapAndQuery) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "test");
  const Vma* v = as.vma_at(0x1500);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->start, 0x1000u);
  EXPECT_EQ(v->end, 0x3000u);
  EXPECT_EQ(v->name, "test");
  EXPECT_EQ(as.vma_at(0x0fff), nullptr);
  EXPECT_EQ(as.vma_at(0x3000), nullptr);
}

TEST(AddressSpace, MapRoundsSizeToPage) {
  AddressSpace as;
  as.map(0x1000, 1, kProtRead, "tiny");
  EXPECT_NE(as.vma_at(0x1fff), nullptr);
}

TEST(AddressSpace, OverlappingMapThrows) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead, "a");
  EXPECT_THROW(as.map(0x2000, 0x1000, kProtRead, "b"), StateError);
  EXPECT_THROW(as.map(0x0000, 0x2000, kProtRead, "c"), StateError);
  as.map(0x3000, 0x1000, kProtRead, "ok");  // adjacent is fine
}

TEST(AddressSpace, MapEmptyThrows) {
  AddressSpace as;
  EXPECT_THROW(as.map(0x1000, 0, kProtRead, "none"), StateError);
}

TEST(AddressSpace, ReadOfUnwrittenPagesIsZero) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "z");
  uint64_t v = 123;
  ASSERT_TRUE(as.read(0x1100, &v, 8, kProtRead).ok);
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(as.populated_pages().empty());  // reads don't populate
}

TEST(AddressSpace, WriteReadRoundtripAcrossPages) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead | kProtWrite, "rw");
  std::vector<uint8_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
  ASSERT_TRUE(as.write(0x1ffc, data.data(), data.size(), kProtWrite).ok);
  std::vector<uint8_t> back(5000);
  ASSERT_TRUE(as.read(0x1ffc, back.data(), back.size(), kProtRead).ok);
  EXPECT_EQ(back, data);
  EXPECT_EQ(as.populated_pages().size(), 3u);  // touched 3 pages
}

TEST(AddressSpace, ProtectionViolationFaults) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "ro");
  uint8_t b = 1;
  Access a = as.write(0x1000, &b, 1, kProtWrite);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.fault_addr, 0x1000u);
  // Host pokes bypass protection.
  as.poke(0x1000, &b, 1);
  uint8_t out = 0;
  as.peek(0x1000, &out, 1);
  EXPECT_EQ(out, 1);
}

TEST(AddressSpace, UnmappedAccessFaultsAtExactAddress) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "a");
  std::vector<uint8_t> buf(0x2000);
  Access a = as.read(0x1800, buf.data(), 0x1000, kProtRead);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.fault_addr, 0x2000u);  // first byte outside the VMA
}

TEST(AddressSpace, UnmapWholeRegionDiscardsPages) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "gone");
  uint64_t v = 42;
  as.write(0x1000, &v, 8, kProtWrite);
  as.unmap(0x1000, 0x2000);
  EXPECT_EQ(as.vma_at(0x1000), nullptr);
  EXPECT_TRUE(as.populated_pages().empty());
  // Remapping the range sees zeros, not stale data.
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "fresh");
  uint64_t out = 99;
  as.read(0x1000, &out, 8, kProtRead);
  EXPECT_EQ(out, 0u);
}

TEST(AddressSpace, PartialUnmapSplitsVma) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead, "big");
  as.unmap(0x2000, 0x1000);
  EXPECT_NE(as.vma_at(0x1000), nullptr);
  EXPECT_EQ(as.vma_at(0x2000), nullptr);
  EXPECT_NE(as.vma_at(0x3000), nullptr);
  EXPECT_EQ(as.vma_count(), 2u);
}

TEST(AddressSpace, UnmapUnmappedThrows) {
  AddressSpace as;
  EXPECT_THROW(as.unmap(0x5000, 0x1000), StateError);
}

TEST(AddressSpace, ProtectSplitsAndApplies) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead | kProtWrite, "rw");
  as.protect(0x2000, 0x1000, kProtRead);
  uint8_t b = 1;
  EXPECT_TRUE(as.write(0x1000, &b, 1, kProtWrite).ok);
  EXPECT_FALSE(as.write(0x2000, &b, 1, kProtWrite).ok);
  EXPECT_TRUE(as.write(0x3000, &b, 1, kProtWrite).ok);
}

TEST(AddressSpace, FindFreeSkipsMappedRegions) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "a");
  as.map(0x3000, 0x1000, kProtRead, "b");
  EXPECT_EQ(as.find_free(0x1000, 0x1000), 0x2000u);
  EXPECT_EQ(as.find_free(0x2000, 0x1000), 0x4000u);  // 0x2000 gap too small
  EXPECT_EQ(as.find_free(0x1000, 0x5000), 0x5000u);
}

TEST(AddressSpace, InstallAndReadPage) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "p");
  std::vector<uint8_t> page(kPageSize, 0x5a);
  as.install_page(0x1000, page);
  auto bytes = as.page_bytes(0x1000);
  EXPECT_EQ(bytes[0], 0x5a);
  EXPECT_EQ(bytes[kPageSize - 1], 0x5a);
  EXPECT_THROW(as.page_bytes(0x2000), StateError);
}

// ---------------------------------------------------------------------------
// Guest TLB invalidation rules
// ---------------------------------------------------------------------------

uint8_t byte_at(const AddressSpace& as, uint64_t addr) {
  uint8_t b = 0;
  EXPECT_TRUE(as.read(addr, &b, 1, kProtRead).ok);
  return b;
}

bool store_byte(AddressSpace& as, uint64_t addr, uint8_t b) {
  return as.write(addr, &b, 1, kProtWrite).ok;
}

TEST(GuestTlb, CowOfPageHeldReadOnly) {
  // A read caches the page; a checkpoint shares its block; a write that
  // straddles into the next page clones it (COW) without re-arming. The
  // cached entry must not keep serving the shared block.
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "rw");
  std::vector<uint8_t> fill(kPageSize, 0x11);
  as.poke_bytes(0x1000, fill);
  PageRef snap = as.page_block(0x1000);
  ASSERT_EQ(byte_at(as, 0x1ffe), 0x11);  // fills the entry read-only
  const uint8_t wide[4] = {0x22, 0x22, 0x22, 0x22};
  ASSERT_TRUE(as.write(0x1ffe, wide, sizeof wide, kProtWrite).ok);
  EXPECT_EQ(byte_at(as, 0x1ffe), 0x22);
  EXPECT_EQ((*snap)[0xffe], 0x11);  // the snapshot kept its bytes
  EXPECT_NE(as.page_block(0x1000).get(), snap.get());
}

TEST(GuestTlb, PageBlockOnOneOfTwoArmedPages) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "rw");
  ASSERT_TRUE(store_byte(as, 0x1000, 0xAA));  // both pages armed
  ASSERT_TRUE(store_byte(as, 0x2000, 0xBB));
  const uint8_t* second = as.page_bytes(0x2000).data();
  PageRef snap = as.page_block(0x1000);
  ASSERT_TRUE(store_byte(as, 0x1000, 0xCC));
  ASSERT_TRUE(store_byte(as, 0x2000, 0xDD));
  EXPECT_EQ((*snap)[0], 0xAA);  // the shared block is untouched
  EXPECT_EQ(byte_at(as, 0x1000), 0xCC);
  EXPECT_EQ(byte_at(as, 0x2000), 0xDD);
  EXPECT_NE(as.page_bytes(0x1000).data(), snap->data());  // COW split
  EXPECT_EQ(as.page_bytes(0x2000).data(), second);  // sole owner: in place
}

TEST(GuestTlb, ProtectAndUnmapOfCachedPages) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "rw");
  ASSERT_TRUE(store_byte(as, 0x1000, 1));
  ASSERT_TRUE(store_byte(as, 0x2000, 2));
  ASSERT_EQ(byte_at(as, 0x2000), 2);

  as.protect(0x1000, 0x1000, kProtRead);
  Access w = as.write(0x1000, "x", 1, kProtWrite);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault_addr, 0x1000u);
  EXPECT_EQ(byte_at(as, 0x1000), 1);

  ASSERT_TRUE(store_byte(as, 0x2000, 2));  // cache and arm it again
  as.unmap(0x2000, 0x1000);
  uint8_t b = 0;
  Access r = as.read(0x2000, &b, 1, kProtRead);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault_addr, 0x2000u);
  EXPECT_FALSE(store_byte(as, 0x2000, 3));
}

TEST(GuestTlb, SnapshotEpochBetweenAlternatingPageWrites) {
  // Both pages are armed when the epoch advances; the next write to each
  // must stamp it again.
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "rw");
  ASSERT_TRUE(store_byte(as, 0x1000, 1));
  ASSERT_TRUE(store_byte(as, 0x2000, 2));
  ASSERT_TRUE(store_byte(as, 0x1000, 3));
  MemEpoch e = as.snapshot_epoch();
  ASSERT_TRUE(store_byte(as, 0x1000, 4));
  ASSERT_TRUE(store_byte(as, 0x2000, 5));
  auto dirty = as.dirty_pages_since(e);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(*dirty, (std::vector<uint64_t>{0x1000, 0x2000}));
}

TEST(GuestTlb, ZeroLengthAccessOnCachedPage) {
  // Callers pass empty buffers (data() may be null) for zero-length I/O.
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "rw");
  ASSERT_TRUE(store_byte(as, 0x1000, 7));  // cache and arm the page
  EXPECT_TRUE(as.read(0x1010, nullptr, 0, kProtRead).ok);
  EXPECT_TRUE(as.write(0x1010, nullptr, 0, kProtWrite).ok);
  EXPECT_EQ(byte_at(as, 0x1000), 7);
}

TEST(GuestTlb, ConflictingPagesKeepTheirOwnBytes) {
  // Pages 16 apart share a direct-mapped slot: every access evicts the
  // other, and each must still see its own block.
  AddressSpace as;
  as.map(0x10000, 0x20000, kProtRead | kProtWrite, "rw");
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(store_byte(as, 0x10000 + i * kPageSize + round,
                             static_cast<uint8_t>(i + round)));
    }
  }
  for (uint64_t i = 0; i < 32; ++i) {
    for (uint64_t round = 0; round < 3; ++round) {
      EXPECT_EQ(byte_at(as, 0x10000 + i * kPageSize + round), i + round);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct Machine {
  AddressSpace mem;
  Cpu cpu;

  explicit Machine(const std::vector<uint8_t>& code) {
    mem.map(0x1000, page_ceil(code.size()), kProtRead | kProtExec, "code");
    mem.poke(0x1000, code.data(), code.size());
    mem.map(0x8000, 0x1000, kProtRead | kProtWrite, "stack");
    cpu.ip = 0x1000;
    cpu.sp() = 0x9000;
  }

  /// Steps until a non-kOk result or `limit` instructions.
  StepResult run(int limit = 10000) {
    StepResult r;
    for (int i = 0; i < limit; ++i) {
      r = step(mem, cpu);
      if (r.kind != StepKind::kOk) return r;
    }
    return r;
  }
};

std::vector<uint8_t> assemble(const std::function<void(Encoder&)>& gen) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  gen(enc);
  return code;
}

TEST(Exec, ArithmeticAndSyscall) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 20);
    e.mov_ri(2, 22);
    e.add_rr(1, 2);   // r1 = 42
    e.mov_ri(3, 7);
    e.mul_rr(3, 1);   // r3 = 294
    e.sub_ri(3, 94);  // r3 = 200
    e.mov_ri(4, 8);
    e.div_rr(3, 4);   // r3 = 25
    e.syscall();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[1], 42u);
  EXPECT_EQ(m.cpu.regs[3], 25u);
}

TEST(Exec, BitwiseAndShifts) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0xf0);
    e.mov_ri(2, 0x0f);
    e.or_rr(1, 2);    // 0xff
    e.mov_ri(3, 0xff);
    e.and_rr(3, 1);   // 0xff
    e.xor_rr(3, 2);   // 0xf0
    e.shl_ri(3, 4);   // 0xf00
    e.shr_ri(3, 8);   // 0xf
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 0xfu);
}

TEST(Exec, ConditionalBranchesSignedUnsigned) {
  // r1 = -1 (unsigned huge), r2 = 1. Signed: r1 < r2. Unsigned: r1 > r2.
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, static_cast<uint64_t>(-1));
    e.mov_ri(2, 1);
    e.cmp_rr(1, 2);
    e.branch(Op::kJlt, 11);  // taken (signed): skip mov r5,1 (10B) + 1 trap
    e.mov_ri(5, 1);
    e.trap();
    e.cmp_rr(1, 2);
    e.branch(Op::kJb, 11);  // NOT taken (unsigned): falls through
    e.mov_ri(6, 7);
    e.syscall();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[5], 0u);  // skipped
  EXPECT_EQ(m.cpu.regs[6], 7u);  // executed
}

TEST(Exec, LoopSumsToTen) {
  // for (r1=0, r2=0; r1<5; r1++) r2 += r1;  => r2 = 10
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0);
    e.mov_ri(2, 0);
    size_t loop = e.offset();
    e.add_rr(2, 1);
    e.add_ri(1, 1);
    e.cmp_ri(1, 5);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(loop) -
                         static_cast<int32_t>(j + 5));
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[2], 10u);
}

TEST(Exec, CallRetUsesStack) {
  auto code = assemble([](Encoder& e) {
    e.branch(Op::kCall, 6);  // call over the next syscall (1B) + nops
    e.syscall();             // returns here
    e.nop();                 // padding
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    // callee:
    e.mov_ri(4, 77);
    e.ret();
  });
  Machine m(code);
  uint64_t sp0 = m.cpu.sp();
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[4], 77u);
  EXPECT_EQ(m.cpu.sp(), sp0);  // balanced
}

TEST(Exec, PushPopRoundtrip) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 111);
    e.mov_ri(2, 222);
    e.push(1);
    e.push(2);
    e.pop(3);
    e.pop(4);
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 222u);
  EXPECT_EQ(m.cpu.regs[4], 111u);
}

TEST(Exec, LoadStoreByteAndWord) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x8000);
    e.mov_ri(2, 0x1122334455667788ULL);
    e.store(1, 0, 2);
    e.load(3, 1, 0);
    e.loadb(4, 1, 1);  // second byte = 0x77
    e.mov_ri(5, 0xfe);
    e.storeb(1, 0, 5);
    e.loadb(6, 1, 0);
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 0x1122334455667788ULL);
  EXPECT_EQ(m.cpu.regs[4], 0x77u);
  EXPECT_EQ(m.cpu.regs[6], 0xfeu);
}

TEST(Exec, LeaComputesIpRelative) {
  auto code = assemble([](Encoder& e) {
    e.lea(1, 10);  // r1 = 0x1000 + 6 + 10
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[1], 0x1000u + 6 + 10);
}

TEST(Exec, IndirectCallAndJump) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x1000 + 10 + 2 + 1 + 5);  // address of callee
    e.callr(1);
    e.syscall();
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    // callee at 0x1000+18:
    e.mov_ri(4, 5);
    e.ret();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[4], 5u);
}

TEST(Exec, TrapReportsAddressWithoutAdvancing) {
  auto code = assemble([](Encoder& e) {
    e.nop();
    e.trap();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1001u);
  EXPECT_EQ(m.cpu.ip, 0x1001u);  // ip parked on the 0xCC byte
}

TEST(Exec, DivideByZeroFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 5);
    e.mov_ri(2, 0);
    e.div_rr(1, 2);
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kFpe);
}

TEST(Exec, InvalidOpcodeFaultsIll) {
  std::vector<uint8_t> code{0x00};
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kIll);
  EXPECT_EQ(r.fault_addr, 0x1000u);
}

TEST(Exec, ExecuteNonExecutableFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x8000);
    e.jmpr(1);  // jump into the RW stack region
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kSegv);
  EXPECT_EQ(r.fault_addr, 0x8000u);
}

TEST(Exec, LoadFromUnmappedFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x500000);
    e.load(2, 1, 0);
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kSegv);
  EXPECT_EQ(r.fault_addr, 0x500000u);
}

TEST(Exec, BlockEndFlagOnTerminators) {
  auto code = assemble([](Encoder& e) {
    e.nop();
    e.branch(Op::kJmp, 0);
    e.syscall();
  });
  Machine m(code);
  StepResult r1 = step(m.mem, m.cpu);
  EXPECT_FALSE(r1.block_end);  // nop
  StepResult r2 = step(m.mem, m.cpu);
  EXPECT_TRUE(r2.block_end);  // jmp
}

TEST(Exec, BlockAtMeasuresBasicBlock) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 1);   // 10 bytes
    e.add_ri(1, 2);   // 6 bytes
    e.branch(Op::kJmp, 0);  // 5 bytes, terminator
    e.nop();
  });
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 21u);
  EXPECT_EQ(info.instr_count, 3u);
  EXPECT_TRUE(info.terminated);
}

TEST(Exec, BlockAtOnTrapIsOneByte) {
  std::vector<uint8_t> code{0xCC};
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 1u);
  EXPECT_EQ(info.instr_count, 1u);
  EXPECT_TRUE(info.terminated);
}

TEST(Exec, BlockAtOnInvalidByteIsEmpty) {
  std::vector<uint8_t> code{0x00};
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 0u);
  EXPECT_EQ(info.instr_count, 0u);
  EXPECT_FALSE(info.terminated);
}

TEST(Exec, BlockAtReportsTermination) {
  // A scan capped by max_bytes is a partial prefix, not a block: consumers
  // like the superblock builder must be able to tell the two apart.
  auto code = assemble([](Encoder& e) {
    for (int i = 0; i < 8; ++i) e.nop();
    e.trap();
  });
  Machine m(code);
  BlockInfo full = block_at(m.mem, 0x1000);
  EXPECT_TRUE(full.terminated);
  EXPECT_EQ(full.instr_count, 9u);
  BlockInfo capped = block_at(m.mem, 0x1000, 4);
  EXPECT_FALSE(capped.terminated);
  EXPECT_EQ(capped.instr_count, 4u);
  EXPECT_EQ(capped.size, 4u);
}


// ---------------------------------------------------------------------------
// Page generations + decode cache
// ---------------------------------------------------------------------------

TEST(PageGeneration, ExecWritesBumpDataWritesDont) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec, "wx");
  as.map(0x8000, 0x1000, kProtRead | kProtWrite, "data");
  uint64_t g0 = as.page_generation(0x1000);

  uint8_t b = 0x90;
  ASSERT_TRUE(as.write(0x1010, &b, 1, kProtWrite).ok);
  EXPECT_GT(as.page_generation(0x1000), g0);

  uint64_t gd = as.page_generation(0x8000);
  ASSERT_TRUE(as.write(0x8010, &b, 1, kProtWrite).ok);
  EXPECT_EQ(as.page_generation(0x8000), gd);  // data page: no bump
}

TEST(PageGeneration, MapProtectUnmapBump) {
  AddressSpace as;
  uint64_t g0 = as.page_generation(0x1000);
  as.map(0x1000, 0x2000, kProtRead | kProtExec, "code");
  uint64_t g1 = as.page_generation(0x1000);
  EXPECT_GT(g1, g0);
  as.protect(0x1000, 0x1000, kProtRead);
  uint64_t g2 = as.page_generation(0x1000);
  EXPECT_GT(g2, g1);
  EXPECT_EQ(as.page_generation(0x2000), g1 - g0 + as.page_generation(0x3000));
  as.unmap(0x1000, 0x2000);
  EXPECT_GT(as.page_generation(0x1000), g2);
}

TEST(PageGeneration, SlotPointerTracksLiveCounter) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec, "wx");
  const uint64_t* slot = as.page_generation_slot(0x1000);
  uint64_t before = *slot;
  uint8_t b = 0x90;
  ASSERT_TRUE(as.write(0x1000, &b, 1, kProtWrite).ok);
  EXPECT_EQ(*slot, before + 1);
}

TEST(DecodeCache, CachedExecutionMatchesUncached) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 3);
    e.mov_ri(2, 4);
    size_t top = e.offset();
    e.add_rr(1, 2);
    e.mul_rr(2, 1);
    e.add_ri(0, 1);
    e.cmp_ri(0, 5);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top - (j + 5)));
    e.trap();
  });
  Machine plain(code);
  StepResult rp = plain.run();

  Machine cached(code);
  DecodeCache cache;
  StepResult rc;
  for (int i = 0; i < 10000; ++i) {
    rc = step(cached.mem, cached.cpu, &cache);
    if (rc.kind != StepKind::kOk) break;
  }
  EXPECT_EQ(rc.kind, rp.kind);
  EXPECT_EQ(cached.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(cached.cpu.regs, plain.cpu.regs);
  EXPECT_GT(cache.hits(), 0u);  // the loop re-executed cached decodes
}

TEST(DecodeCache, PokedTrapObservedOnVeryNextStep) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(0, 1);
    e.nop();
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, static_cast<int32_t>(top - (j + 5)));
  });
  Machine m(code);
  DecodeCache cache;
  // Warm the cache through several loop iterations.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(step(m.mem, m.cpu, &cache).kind, StepKind::kOk);
  }
  ASSERT_GT(cache.hits(), 0u);

  // Patch the instruction the cpu is about to execute (host poke, like the
  // rewriter applying an int3 block). The very next step must trap — a
  // stale cached decode here would execute the dead instruction.
  uint8_t trap = 0xCC;
  m.mem.poke(m.cpu.ip, &trap, 1);
  StepResult r = step(m.mem, m.cpu, &cache);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, m.cpu.ip);
}

TEST(DecodeCache, GuestSelfModifyObservedMidBlock) {
  // The guest stores a TRAP byte over a later instruction of its own
  // straight-line block; run_block must take the trap, not the stale decode.
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(1, 0);        // r1 = store target (fixed up below)
  e.mov_ri(2, 0xCC);     // r2 = TRAP byte
  e.storeb(1, 0, 2);     // mem8[r1] = 0xCC  — patches `nop` below
  e.nop();               // decoded before the store lands
  size_t victim = e.offset();
  e.nop();               // the store targets this byte
  e.nop();
  e.trap();
  // Fix the store target now that the layout is known.
  std::vector<uint8_t> fixed;
  Encoder e2(fixed);
  e2.mov_ri(1, 0x1000 + victim);
  e2.mov_ri(2, 0xCC);
  e2.storeb(1, 0, 2);
  e2.nop();
  e2.nop();
  e2.nop();
  e2.trap();

  Machine m(fixed);
  // Code page must be writable for the guest store.
  m.mem.protect(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec);
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, retired);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1000u + victim);
  EXPECT_EQ(retired, 5u);  // movri, movri, storeb, nop, trap-attempt
}

TEST(DecodeCache, RunBlockStopsAtTerminatorAndBudget) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 1);
    e.add_rr(1, 1);
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, 0);  // fall through to next instruction
    e.nop();
    e.trap();
  });
  Machine m(code);
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, retired);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_TRUE(r.block_end);  // stopped at the jmp terminator
  EXPECT_EQ(retired, 3u);

  // Budget smaller than the block: stops mid-block with exact accounting.
  Machine m2(code);
  DecodeCache cache2;
  retired = 0;
  r = run_block(m2.mem, m2.cpu, &cache2, nullptr, 2, retired);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_FALSE(r.block_end);
  EXPECT_EQ(retired, 2u);
}

TEST(DecodeCache, InstructionStraddlingPageBoundary) {
  // Place a 10-byte mov_ri so it crosses the 0x1000/0x2000 page edge; the
  // cache must execute it correctly via the uncached path.
  std::vector<uint8_t> prefix;
  Encoder e(prefix);
  while (prefix.size() < kPageSize - 5) e.nop();
  size_t mov_at = e.offset();
  e.mov_ri(7, 0x1122334455667788ull);  // bytes [kPageSize-5, kPageSize+5)
  e.trap();

  AddressSpace mem;
  mem.map(0x1000, page_ceil(prefix.size()), kProtRead | kProtExec, "code");
  mem.poke(0x1000, prefix.data(), prefix.size());
  Cpu cpu;
  cpu.ip = 0x1000;
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(mem, cpu, &cache, nullptr, 2 * kPageSize, retired);
  ASSERT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(cpu.regs[7], 0x1122334455667788ull);
  EXPECT_EQ(r.fault_addr, 0x1000 + mov_at + 10);
}

TEST(DecodeCache, CopyAssignedAddressSpaceInvalidatesByAsid) {
  auto code = assemble([](Encoder& e) {
    e.add_ri(0, 1);
    e.trap();
  });
  Machine m(code);
  DecodeCache cache;
  ASSERT_EQ(step(m.mem, m.cpu, &cache).kind, StepKind::kOk);
  ASSERT_GT(cache.cached_pages(), 0u);

  // Rebuild the address space via copy-assign (what checkpoint restore
  // does): the fresh asid must force the cache to drop everything.
  AddressSpace rebuilt;
  rebuilt.map(0x1000, 0x1000, kProtRead | kProtExec, "code2");
  uint8_t trap = 0xCC;
  rebuilt.poke(0x1000, &trap, 1);
  m.mem = rebuilt;
  m.cpu.ip = 0x1000;
  StepResult r = step(m.mem, m.cpu, &cache);
  EXPECT_EQ(r.kind, StepKind::kTrap);
}

TEST(DecodeCache, StatsInvariantAcrossFaultMatrix) {
  // Every cache-served fetch attempt must count exactly one hit or miss —
  // hits() + misses() == attempted instructions. The fast path used to
  // double-count a miss when its slot fill failed (non-executable fetch):
  // the no-progress fallback re-entered DecodeCache::fetch, which counted
  // the same attempt again.
  {
    // Warm loop, then a jump into the non-executable stack: the faulting
    // fetch at 0x8000 is one attempt and must be exactly one miss.
    auto code = assemble([](Encoder& e) {
      size_t top = e.offset();
      e.add_ri(0, 1);
      e.cmp_ri(0, 20);
      size_t j = e.branch(Op::kJlt, 0);
      e.patch_rel32(j,
                    static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
      e.mov_ri(1, 0x8000);
      e.jmpr(1);
    });
    Machine m(code);
    DecodeCache cache;
    uint64_t attempts = 0;
    StepResult r{};
    for (int i = 0; i < 1000 && r.kind == StepKind::kOk; ++i) {
      uint64_t n = 0;
      r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, n);
      attempts += n;
    }
    EXPECT_EQ(r.kind, StepKind::kFault);
    EXPECT_EQ(r.fault_addr, 0x8000u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
  {
    // Undecodable byte: the first attempt fills a kBad slot (one miss);
    // repeated attempts are cache-served SIGILLs (hits).
    std::vector<uint8_t> code{0x00};
    Machine m(code);
    DecodeCache cache;
    uint64_t attempts = 0;
    for (int i = 0; i < 3; ++i) {
      uint64_t n = 0;
      StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10, n);
      EXPECT_EQ(r.kind, StepKind::kFault);
      EXPECT_EQ(r.fault, FaultType::kIll);
      attempts += n;
    }
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
  {
    // Page-straddling instruction: never cached, one miss per attempt.
    std::vector<uint8_t> code;
    Encoder e(code);
    while (code.size() < kPageSize - 5) e.nop();
    e.mov_ri(7, 1);  // straddles the page edge
    e.trap();
    AddressSpace mem;
    mem.map(0x1000, page_ceil(code.size()), kProtRead | kProtExec, "code");
    mem.poke(0x1000, code.data(), code.size());
    Cpu cpu;
    cpu.ip = 0x1000;
    DecodeCache cache;
    uint64_t attempts = 0;
    StepResult r{};
    while (r.kind == StepKind::kOk) {
      uint64_t n = 0;
      r = run_block(mem, cpu, &cache, nullptr, 100000, n);
      attempts += n;
    }
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(cpu.regs[7], 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
}

TEST(DecodeCache, RunBlockObservesPokeAtBlockEntry) {
  // A generation bump between run_block rounds invalidates the cached page
  // even though the slot array still holds the stale decode: the fast path
  // re-checks the live generation and must take the trap with exactly one
  // attempted instruction.
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(0, 1);
    e.nop();
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  });
  Machine m(code);
  DecodeCache cache;
  for (int i = 0; i < 10; ++i) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &cache, nullptr, 3, n).kind,
              StepKind::kOk);
  }
  ASSERT_GT(cache.hits(), 0u);
  uint8_t trap = 0xCC;
  m.mem.poke(m.cpu.ip, &trap, 1);
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 100, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, m.cpu.ip);
  EXPECT_EQ(n, 1u);
}

// ---------------------------------------------------------------------------
// Superblock cache
// ---------------------------------------------------------------------------

/// Drives the superblock-aware run_block the way the scheduler does: the
/// run_block calls of one quantum share its budget, lifecycle events are
/// drained after every call, and it stops at a non-kOk result or `limit`
/// total attempts. Without draining, events stay pending and no exit ever
/// follows a link: an unchained reference run.
StepResult run_sb(Machine& m, DecodeCache& dc, SuperblockCache& sbc,
                  uint64_t quantum, uint64_t limit, uint64_t& attempts,
                  bool drain = true) {
  StepResult r{};
  attempts = 0;
  while (attempts < limit) {
    const uint64_t quota = std::min(quantum, limit - attempts);
    uint64_t done = 0;
    while (done < quota) {
      uint64_t n = 0;
      r = run_block(m.mem, m.cpu, &dc, &sbc, quota - done, n);
      done += n;
      if (drain) sbc.take_events();
      if (r.kind != StepKind::kOk || n == 0) break;
    }
    attempts += done;
    if (r.kind != StepKind::kOk || done == 0) break;
  }
  return r;
}

TEST(Superblock, MatchesInterpreterOnServingLoop) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.add_rr(2, 1);
    e.cmp_ri(1, 500);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine plain(code);
  StepResult rp = plain.run(100000);

  Machine fused(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult rf = run_sb(fused, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(rf.kind, rp.kind);
  EXPECT_EQ(rf.kind, StepKind::kTrap);
  EXPECT_EQ(fused.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(fused.cpu.regs, plain.cpu.regs);
  EXPECT_EQ(attempts, 2001u);  // 500 iterations x 4 + the trap attempt
  EXPECT_GT(sbc.builds(), 0u);
  EXPECT_GT(sbc.sb_instrs(), 0u);
}

TEST(Superblock, MatchesInterpreterAcrossCallRet) {
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(1, 0);
  size_t top = e.offset();
  size_t c = e.branch(Op::kCall, 0);
  e.add_ri(1, 1);
  e.cmp_ri(1, 50);
  size_t j = e.branch(Op::kJlt, 0);
  e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  e.syscall();
  size_t callee = e.offset();
  e.add_ri(2, 3);
  e.ret();
  e.patch_rel32(c, static_cast<int32_t>(callee) - static_cast<int32_t>(c + 5));

  Machine plain(code);
  StepResult rp = plain.run(100000);
  Machine fused(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult rf = run_sb(fused, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(rf.kind, StepKind::kSyscall);
  EXPECT_EQ(rf.kind, rp.kind);
  EXPECT_EQ(fused.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(fused.cpu.regs, plain.cpu.regs);
  EXPECT_EQ(fused.cpu.sp(), plain.cpu.sp());
}

TEST(Superblock, BuildsAfterThreshold) {
  auto code = assemble([](Encoder& e) {
    e.add_ri(1, 1);
    e.nop();
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (uint32_t i = 0; i < SuperblockCache::kHotThreshold + 2; ++i) {
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
    ASSERT_EQ(r.kind, StepKind::kTrap);
    ASSERT_EQ(n, 3u);
    if (i + 1 < SuperblockCache::kHotThreshold) {
      EXPECT_EQ(sbc.builds(), 0u);  // still warming
    }
  }
  EXPECT_EQ(sbc.builds(), 1u);
  EXPECT_EQ(sbc.superblocks(), 1u);
  EXPECT_GT(sbc.entries(), 0u);
}

TEST(Superblock, TrapChargedOncePerAttemptOnBudgetBoundary) {
  // Six nops then a trap. With budget 6 the trap is NOT attempted (kOk, ip
  // parked on it, six charged); re-entry charges the trap exactly once.
  // Must hold identically on the interpreter and superblock paths.
  auto code = assemble([](Encoder& e) {
    for (int i = 0; i < 6; ++i) e.nop();
    e.trap();
  });
  {
    Machine m(code);
    DecodeCache dc;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, nullptr, 6, n);
    EXPECT_EQ(r.kind, StepKind::kOk);
    EXPECT_EQ(n, 6u);
    EXPECT_EQ(m.cpu.ip, 0x1006u);
    r = run_block(m.mem, m.cpu, &dc, nullptr, 100, n);
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.fault_addr, 0x1006u);
    EXPECT_EQ(n, 1u);
  }
  {
    Machine m(code);
    DecodeCache dc;
    SuperblockCache sbc;
    for (uint32_t i = 0; i < SuperblockCache::kHotThreshold + 1; ++i) {
      m.cpu.ip = 0x1000;
      uint64_t n = 0;
      ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind,
                StepKind::kTrap);
    }
    ASSERT_GT(sbc.superblocks(), 0u);
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 6, n);
    EXPECT_EQ(r.kind, StepKind::kOk);
    EXPECT_EQ(n, 6u);
    EXPECT_EQ(m.cpu.ip, 0x1006u);  // budget exit mid-trace
    r = run_block(m.mem, m.cpu, &dc, &sbc, 100, n);  // re-enters mid-trace
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.fault_addr, 0x1006u);
    EXPECT_EQ(n, 1u);
  }
}

TEST(Superblock, PatchRetiresTraceBeforeNextInstruction) {
  // The acceptance contract: patch a page a hot trace spans (the rewriter's
  // int3 poke) and the patch must be visible on the very next executed
  // instruction — the stale trace retires instead of running.
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.cmp_ri(1, 1000000);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int q = 0; q < 20; ++q) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind, StepKind::kOk);
  }
  ASSERT_GT(sbc.builds(), 0u);
  ASSERT_GT(sbc.sb_instrs(), 0u);

  uint64_t retires_before = sbc.retires();
  uint8_t trap = 0xCC;
  uint64_t target = m.cpu.ip;  // mid-loop, inside the trace
  m.mem.poke(target, &trap, 1);
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, target);
  EXPECT_EQ(n, 1u);  // nothing retired from the stale trace
  EXPECT_EQ(sbc.retires(), retires_before + 1);
}

TEST(Superblock, SelfModifyingStoreDeoptsMidTrace) {
  // The guest patches an instruction of its own hot loop; the store retires
  // inside the trace, then dispatch must deoptimize so the interpreter
  // refetches the patched byte as the very next instruction.
  constexpr uint64_t kPatchIter = SuperblockCache::kHotThreshold + 2;
  std::vector<uint8_t> probe;
  Encoder pe(probe);
  pe.mov_ri(2, 0);
  pe.mov_ri(3, 0xCC);
  size_t top = pe.offset();
  pe.add_ri(1, 1);
  pe.cmp_ri(1, kPatchIter);
  size_t skip = pe.branch(Op::kJne, 0);
  pe.storeb(2, 0, 3);  // patches the nop below on iteration kPatchIter
  size_t victim = pe.offset();
  pe.patch_rel32(skip,
                 static_cast<int32_t>(victim) - static_cast<int32_t>(skip + 5));
  pe.nop();
  pe.cmp_ri(1, 1000000);
  size_t back = pe.branch(Op::kJlt, 0);
  pe.patch_rel32(back,
                 static_cast<int32_t>(top) - static_cast<int32_t>(back + 5));
  pe.trap();
  // Second pass with the store target resolved.
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(2, 0x1000 + victim);
  e.mov_ri(3, 0xCC);
  e.add_ri(1, 1);
  e.cmp_ri(1, kPatchIter);
  size_t skip2 = e.branch(Op::kJne, 0);
  e.storeb(2, 0, 3);
  e.patch_rel32(skip2,
                static_cast<int32_t>(victim) - static_cast<int32_t>(skip2 + 5));
  e.nop();
  e.cmp_ri(1, 1000000);
  size_t back2 = e.branch(Op::kJlt, 0);
  e.patch_rel32(back2,
                static_cast<int32_t>(top) - static_cast<int32_t>(back2 + 5));
  e.trap();

  Machine m(code);
  m.mem.protect(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 1000000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1000 + victim);
  EXPECT_EQ(m.cpu.regs[1], kPatchIter);  // stopped on the patching iteration
  EXPECT_GT(sbc.builds(), 0u);
  EXPECT_EQ(sbc.deopts(), 1u);
}

TEST(Superblock, TraceSpansPageStraddlingInstruction) {
  // A hot loop whose body straddles the page boundary: the builder fuses
  // across the straddling instruction (the decode cache never serves it)
  // and the trace depends on BOTH spanned pages' generations.
  std::vector<uint8_t> code;
  Encoder e(code);
  size_t j0 = e.branch(Op::kJmp, 0);
  while (code.size() < kPageSize - 20) e.nop();
  size_t top = e.offset();
  e.patch_rel32(j0, static_cast<int32_t>(top) - static_cast<int32_t>(j0 + 5));
  e.add_ri(1, 1);                       // [P-20, P-14)
  e.cmp_ri(1, 40);                      // [P-14, P-8)
  e.mov_ri(7, 0x1122334455667788ull);   // [P-8, P+2): straddles the edge
  size_t j = e.branch(Op::kJlt, 0);
  e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  size_t trap_at = e.offset();
  e.trap();

  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(m.cpu.regs[1], 40u);
  EXPECT_EQ(m.cpu.regs[7], 0x1122334455667788ull);
  ASSERT_EQ(sbc.superblocks(), 1u);

  // A write to the SECOND page alone must invalidate the trace.
  uint64_t retires_before = sbc.retires();
  uint8_t trap = 0xCC;
  m.mem.poke(0x1000 + trap_at, &trap, 1);  // page 2; same byte, still a write
  m.cpu.ip = 0x1000 + top;
  m.cpu.regs[1] = 0;
  r = run_sb(m, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(m.cpu.regs[1], 40u);
  EXPECT_EQ(sbc.retires(), retires_before + 1);
}

TEST(Superblock, RefusesUnterminatedEntry) {
  // A page of nops with no terminator: the block scan comes back
  // unterminated and the builder must refuse to fuse the partial prefix.
  std::vector<uint8_t> code(kPageSize, 0x90);
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int i = 0; i < 20; ++i) {
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 100000, n);
    ASSERT_EQ(r.kind, StepKind::kFault);  // ran off the mapping
  }
  EXPECT_EQ(sbc.builds(), 0u);
  EXPECT_EQ(sbc.superblocks(), 0u);
}

TEST(Superblock, AddressSpaceRebuildDropsTraces) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.cmp_ri(1, 1000000);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int q = 0; q < 20; ++q) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind, StepKind::kOk);
  }
  ASSERT_GT(sbc.superblocks(), 0u);

  // Rebuild the address space via copy-assign (checkpoint restore): the
  // fresh asid must drop every trace before anything dereferences stale
  // generation-slot pointers.
  AddressSpace rebuilt;
  rebuilt.map(0x1000, 0x1000, kProtRead | kProtExec, "code2");
  uint8_t trap = 0xCC;
  rebuilt.poke(0x1000, &trap, 1);
  m.mem = rebuilt;
  m.cpu.ip = 0x1000;
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(sbc.superblocks(), 0u);
}

// ---------------------------------------------------------------------------
// Superblock chaining
// ---------------------------------------------------------------------------

/// Two traces on separate pages that hand control to each other through
/// indirect jumps, so both exits are links: A (0x1000, four ops) counts r1
/// up and jumps to r5; B (0x2000, two ops) bumps r2 and jumps to r6. An
/// optional third page holds C = {r9 = 0xBAD; trap}.
constexpr uint64_t kPingA = 0x1000;
constexpr uint64_t kPingB = 0x2000;
constexpr uint64_t kPingC = 0x3000;

std::vector<uint8_t> ping_pong_code() {
  std::vector<uint8_t> code;
  Encoder e(code);
  e.add_ri(1, 1);
  e.cmp_ri(1, 1000000);
  size_t out = e.branch(Op::kJge, 0);
  e.jmpr(5);
  e.patch_rel32(out, static_cast<int32_t>(e.offset() - (out + 5)));
  e.trap();
  while (code.size() < kPingB - kPingA) e.nop();
  e.add_ri(2, 1);
  e.jmpr(6);
  while (code.size() < kPingC - kPingA) e.nop();
  e.mov_ri(9, 0xBAD);
  e.trap();
  return code;
}

Machine ping_pong_machine() {
  Machine m(ping_pong_code());
  m.cpu.regs[5] = kPingB;
  m.cpu.regs[6] = kPingA;
  return m;
}

/// Runs the ping-pong until both traces exist and their links were taken.
void warm_ping_pong(Machine& m, DecodeCache& dc, SuperblockCache& sbc) {
  uint64_t attempts = 0;
  ASSERT_EQ(run_sb(m, dc, sbc, 256, 2000, attempts).kind, StepKind::kOk);
  ASSERT_EQ(sbc.superblocks(), 2u);
  ASSERT_GT(sbc.chained(), 0u);
}

TEST(SuperblockChain, PatchedLinkTargetTrapsOnNextTraversal) {
  Machine m = ping_pong_machine();
  DecodeCache dc;
  SuperblockCache sbc;
  warm_ping_pong(m, dc, sbc);

  // Patch B only: A stays valid and its exit link to B is current, so the
  // next traversal reaches B through the link, whose page check must
  // refuse the stale trace.
  m.cpu.ip = kPingA;
  const uint64_t r1 = m.cpu.regs[1];
  const uint8_t trap = 0xCC;
  m.mem.poke(kPingB, &trap, 1);
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 1000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, kPingB);
  EXPECT_EQ(m.cpu.regs[1], r1 + 1);
  EXPECT_EQ(attempts, 5u);  // A's four ops, then the trap attempt
  EXPECT_EQ(sbc.retires(), 1u);
}

TEST(SuperblockChain, RetireThenRebuildLeavesOldLinkDead) {
  Machine m = ping_pong_machine();
  DecodeCache dc;
  SuperblockCache sbc;
  warm_ping_pong(m, dc, sbc);

  // Retire B (its page changed) through run_block's entry check.
  const uint8_t same = m.mem.peek_bytes(kPingB, 1)[0];
  m.mem.poke(kPingB, &same, 1);
  m.cpu.ip = kPingB;
  uint64_t n = 0;
  ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 1, n).kind, StepKind::kOk);
  ASSERT_EQ(sbc.retires(), 1u);
  // Build C next: the allocator typically hands it the memory B's trace
  // just freed, so A's old link {B, idx 0} would now name C.
  for (uint32_t i = 0; i < SuperblockCache::kHotThreshold; ++i) {
    m.cpu.ip = kPingC;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind,
              StepKind::kTrap);
  }
  sbc.take_events();
  ASSERT_EQ(sbc.builds(), 3u);
  m.cpu.regs[9] = 0;

  // A's exit must refill its link (B gets rebuilt at the same address)
  // and never run C's code through the dead one.
  m.cpu.ip = kPingA;
  const uint64_t r1 = m.cpu.regs[1];
  const uint64_t r2 = m.cpu.regs[2];
  const uint64_t chained = sbc.chained();
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 600, attempts);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_EQ(m.cpu.regs[9], 0u);
  EXPECT_EQ(m.cpu.regs[1] - r1, 100u);  // 600 attempts = 100 x (4 + 2)
  EXPECT_EQ(m.cpu.regs[2] - r2, 100u);
  EXPECT_EQ(sbc.builds(), 4u);  // B rebuilt
  EXPECT_GT(sbc.chained(), chained);
}

TEST(SuperblockChain, RetLinkWithTwoReturnSites) {
  // f is its own trace, entered by callr from two sites; its ret link has
  // to follow the return address, not the site it resolved first.
  std::vector<uint8_t> code;
  Encoder e(code);
  size_t top = e.offset();
  e.callr(5);
  e.add_ri(3, 1);
  e.callr(5);
  e.add_ri(4, 1);
  e.add_ri(1, 1);
  e.cmp_ri(1, 100);
  size_t j = e.branch(Op::kJlt, 0);
  e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  e.trap();
  const uint64_t f = 0x1000 + e.offset();
  e.add_ri(2, 1);
  e.ret();

  Machine plain(code);
  plain.cpu.regs[5] = f;
  StepResult rp = plain.run(100000);
  Machine fused(code);
  fused.cpu.regs[5] = f;
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult rf = run_sb(fused, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(rf.kind, StepKind::kTrap);
  EXPECT_EQ(rf.kind, rp.kind);
  EXPECT_EQ(fused.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(fused.cpu.regs, plain.cpu.regs);
  EXPECT_EQ(fused.cpu.regs[2], 200u);
  EXPECT_EQ(fused.cpu.regs[3], 100u);
  EXPECT_EQ(fused.cpu.regs[4], 100u);
  EXPECT_GT(sbc.chained(), 0u);
}

TEST(SuperblockChain, PendingEventsStopChaining) {
  // The scheduler stamps sb events when it drains them after run_block
  // returns; an exit must not chain past a queued event.
  Machine m = ping_pong_machine();
  DecodeCache dc;
  SuperblockCache sbc;
  warm_ping_pong(m, dc, sbc);
  for (uint32_t i = 0; i < SuperblockCache::kHotThreshold; ++i) {
    m.cpu.ip = kPingC;  // builds C: a kBuild event stays queued
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind,
              StepKind::kTrap);
  }
  ASSERT_TRUE(sbc.events_pending());
  m.cpu.ip = kPingA;
  const uint64_t chained = sbc.chained();
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
  EXPECT_TRUE(r.block_end);
  EXPECT_EQ(n, 4u);  // returned at A's exit, its link to B unused
  EXPECT_EQ(m.cpu.ip, kPingB);
  EXPECT_EQ(sbc.chained(), chained);
}

TEST(SuperblockChain, ChainedExitAtBudgetMatchesUnchainedRun) {
  {
    // A is exactly four ops: its exit link is current, but the budget is
    // spent, so run_block returns at the exit instead of entering B.
    Machine m = ping_pong_machine();
    DecodeCache dc;
    SuperblockCache sbc;
    warm_ping_pong(m, dc, sbc);
    m.cpu.ip = kPingA;
    const uint64_t entries = sbc.entries();
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 4, n);
    EXPECT_EQ(r.kind, StepKind::kOk);
    EXPECT_TRUE(r.block_end);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(m.cpu.ip, kPingB);
    EXPECT_EQ(sbc.entries(), entries + 1);
  }
  // Whole runs: every quantum splits the six-op cycle differently, so some
  // exits land exactly on a budget boundary.
  for (uint64_t quantum : {3u, 4u, 5u, 6u, 7u, 10u, 256u}) {
    SCOPED_TRACE(quantum);
    Machine chained = ping_pong_machine();
    Machine unchained = ping_pong_machine();
    DecodeCache dc[2];
    SuperblockCache sbc[2];
    uint64_t attempts[2] = {0, 0};
    run_sb(chained, dc[0], sbc[0], quantum, 5000, attempts[0]);
    run_sb(unchained, dc[1], sbc[1], quantum, 5000, attempts[1],
           /*drain=*/false);
    EXPECT_GT(sbc[0].chained(), 0u);
    EXPECT_EQ(sbc[1].chained(), 0u);
    EXPECT_EQ(attempts[0], attempts[1]);
    EXPECT_EQ(sbc[0].entries(), sbc[1].entries());
    EXPECT_EQ(sbc[0].builds(), sbc[1].builds());
    EXPECT_EQ(sbc[0].sb_instrs(), sbc[1].sb_instrs());
    EXPECT_EQ(chained.cpu.ip, unchained.cpu.ip);
    EXPECT_EQ(chained.cpu.regs, unchained.cpu.regs);
  }
}

// ---------------------------------------------------------------------------
// Shared decoded pages (DecodedPageRegistry)
// ---------------------------------------------------------------------------

/// Runs `m` through `dc` (no superblocks) until an event surfaces.
StepResult run_cached(Machine& m, DecodeCache& dc) {
  uint64_t retired = 0;
  for (int i = 0; i < 100; ++i) {
    const StepResult r = run_block(m.mem, m.cpu, &dc, nullptr, 1000, retired);
    if (r.kind != StepKind::kOk) return r;
  }
  return {};
}

/// A block that, when r5 != 0, stores a TRAP byte over its own `victim` nop
/// further down, then sets r9 = 7 and traps at its end.
struct SelfPatchingCode {
  std::vector<uint8_t> bytes;
  uint64_t victim = 0;
  uint64_t end_trap = 0;
};
SelfPatchingCode self_patching_code() {
  SelfPatchingCode c;
  for (int pass = 0; pass < 2; ++pass) {  // the store needs the layout
    c.bytes.clear();
    Encoder e(c.bytes);
    e.cmp_ri(5, 0);
    const size_t skip = e.branch(Op::kJe, 0);
    e.mov_ri(1, c.victim);
    e.mov_ri(2, 0xCC);
    e.storeb(1, 0, 2);
    e.patch_rel32(skip, static_cast<int32_t>(e.offset() - (skip + 5)));
    e.nop();
    c.victim = 0x1000 + e.nop();
    e.mov_ri(9, 7);
    c.end_trap = 0x1000 + e.trap();
  }
  return c;
}

TEST(SharedDecode, SelfPatchingSiblingRebindsAlone) {
  // Two processes with the same W+X code page share one decoded page: the
  // second runs entirely on the first's fills. When the first patches its
  // own page with a guest store, it rebinds alone: it traps on the patched
  // byte, while the sibling keeps executing its own, unpatched bytes.
  DecodedPageRegistry registry;
  const SelfPatchingCode code = self_patching_code();
  Machine a(code.bytes);
  Machine b(code.bytes);
  DecodeCache da;
  DecodeCache db;
  for (Machine* m : {&a, &b}) {
    m->mem.protect(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec);
  }
  da.attach(registry);
  db.attach(registry);
  ASSERT_EQ(run_cached(a, da).fault_addr, code.end_trap);
  ASSERT_EQ(run_cached(b, db).fault_addr, code.end_trap);
  EXPECT_EQ(db.misses(), 0u);  // every fetch was a's fill
  EXPECT_GT(db.hits(), 0u);

  for (Machine* m : {&a, &b}) {
    m->cpu.ip = 0x1000;
    m->cpu.regs[9] = 0;
  }
  a.cpu.regs[5] = 1;
  const StepResult ra = run_cached(a, da);
  EXPECT_EQ(ra.kind, StepKind::kTrap);
  EXPECT_EQ(ra.fault_addr, code.victim);
  EXPECT_EQ(a.cpu.regs[9], 0u);
  const StepResult rb = run_cached(b, db);
  EXPECT_EQ(rb.kind, StepKind::kTrap);
  EXPECT_EQ(rb.fault_addr, code.end_trap);
  EXPECT_EQ(b.cpu.regs[9], 7u);
  EXPECT_EQ(da.invalidations(), 1u);
  EXPECT_EQ(db.invalidations(), 0u);
}

TEST(SharedDecode, NonExecutableTwinStillFaults) {
  // Identical bytes in a non-executable mapping fault even after a sibling
  // decoded that content: a shared slot skips the fetch's protection
  // check, so only executable mappings may bind one.
  DecodedPageRegistry registry;
  const auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 5);
    e.trap();
  });
  Machine exec(code);
  Machine data(code);
  data.mem.protect(0x1000, 0x1000, kProtRead | kProtWrite);
  DecodeCache de;
  DecodeCache dd;
  de.attach(registry);
  dd.attach(registry);
  ASSERT_EQ(run_cached(exec, de).kind, StepKind::kTrap);

  for (const StepResult& r :
       {run_cached(data, dd), step(data.mem, data.cpu, &dd)}) {
    EXPECT_EQ(r.kind, StepKind::kFault);
    EXPECT_EQ(r.fault, FaultType::kSegv);
    EXPECT_EQ(r.fault_addr, 0x1000u);
  }
  EXPECT_EQ(data.cpu.regs[1], 0u);
  // Every fetch from that page faults, so it holds no decoded page.
  EXPECT_EQ(dd.cached_pages(), 0u);

  // Made executable, the same bytes run on the sibling's decode.
  data.mem.protect(0x1000, 0x1000, kProtRead | kProtExec);
  const uint64_t misses = dd.misses();
  EXPECT_EQ(run_cached(data, dd).kind, StepKind::kTrap);
  EXPECT_EQ(data.cpu.regs[1], 5u);
  EXPECT_EQ(dd.misses(), misses);
}

TEST(SharedDecode, RegistrySweepsDeadPages) {
  // A page dies with its last holder. A stream of one-off contents (a
  // guest rewriting its own code) leaves dead entries behind, and the
  // registry sweeps them before they outnumber twice the live pages.
  DecodedPageRegistry registry;
  std::vector<uint8_t> bytes(kPageSize);
  const auto attach = [&registry, &bytes](uint32_t content) {
    std::memcpy(bytes.data(), &content, sizeof content);
    return registry.attach(bytes);
  };
  const std::shared_ptr<DecodedPage> kept = attach(~0u);
  for (uint32_t i = 0; i < 1000; ++i) {
    attach(i);  // dropped at once
    EXPECT_LE(registry.entries(), 2 + DecodedPageRegistry::kSweepFloor);
  }
  EXPECT_EQ(attach(~0u), kept);  // a live page survives every sweep
}

// ---------------------------------------------------------------------------
// IpMap (the superblock cache's flat ip table)
// ---------------------------------------------------------------------------

TEST(IpMap, MatchesUnorderedMapAcrossWrappingClusters) {
  // Most keys home on the last slot of a 16-slot table — on the last
  // sixteenth at any size — so they form one probe run that wraps past the
  // table's end, and erases must shift it back across the wrap. Random
  // inserts, overwrites, erases, finds and clears agree with unordered_map.
  std::vector<uint64_t> cluster;
  for (uint64_t k = 0; cluster.size() < 40; ++k) {
    if (IpMap<uint64_t>::home(k, 16) == 15) cluster.push_back(k);
  }
  IpMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  std::mt19937_64 rng(7);
  bool wrapped = false;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key =
        rng() % 4 != 0 ? cluster[rng() % cluster.size()] : rng() % 64;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        const uint64_t v = rng();
        map[key] = v;
        ref[key] = v;
        break;
      }
      case 3:
      case 4:
      case 5:
        ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
        break;
      case 6: {
        const uint64_t* v = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      default:
        if (rng() % 64 == 0) {
          map.clear();
          ref.clear();
        }
    }
    ASSERT_EQ(map.size(), ref.size());
    // The cluster homes on the last capacity/16 slots: more keys than that
    // run past the end.
    const auto present = std::count_if(
        cluster.begin(), cluster.end(),
        [&ref](uint64_t k) { return ref.count(k) != 0; });
    if (map.capacity() != 0 &&
        static_cast<size_t>(present) > map.capacity() / 16) {
      wrapped = true;
    }
    if (i % 16 == 0) {
      std::unordered_map<uint64_t, uint64_t> held;
      map.for_each([&held](uint64_t k, uint64_t v) { held.emplace(k, v); });
      ASSERT_EQ(held, ref);
    }
  }
  EXPECT_TRUE(wrapped);
}

}  // namespace
}  // namespace dynacut::vm
