// VX64 semantics: one force-inlined function per VX64_OPS row (isa.hpp).
//
// Both execution tiers expand these same functions: the interpreter's
// execute() (exec.cpp) and the superblock tier's direct-threaded handlers
// (superblock.cpp). A tier adds only control: where execution continues,
// when a trace must re-validate, how events surface. The static slicer
// folds constants through alu() below, so a folded value is the value the
// VM computes.
//
// The signature follows the op's class:
//   alu, nop                Fault f(Cpu&, u64* r, const I&)
//   load, store, push, pop  Fault f(AddressSpace&, u64* r, const I&)
//   cond branch, jump       bool f(const Cpu&)  -- taken?
//   call, callr, ret, jmpr  Fault f(AddressSpace&, Cpu&, u64* r, const I&,
//                                   u64& to)
//   syscall, trap           none: they change no state; tiers raise events
// `r` is cpu.regs.data(), taken once by the caller (an unoptimized build
// would call std::array::operator[] on every register access). `I` is the
// operand source: an isa::Instr executing at cpu.ip, or a superblock
// ThreadedOp, which carries its own ip and resolved target.
// A faulting op leaves every effect it made before the fault (a call whose
// return-address push faults keeps SP decremented).
#pragma once

#include <type_traits>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"

#define VX_INLINE __attribute__((always_inline)) inline

namespace dynacut::vm::ops {

/// The guest fault an op raised; type kNone when it retired.
struct Fault {
  FaultType type = FaultType::kNone;
  uint64_t addr = 0;
  VX_INLINE explicit operator bool() const {
    return type != FaultType::kNone;
  }
};

template <class I>
VX_INLINE uint64_t ip_of([[maybe_unused]] const Cpu& cpu,
                         [[maybe_unused]] const I& o) {
  if constexpr (std::is_same_v<I, isa::Instr>) {
    return cpu.ip;
  } else {
    return o.ip;
  }
}

/// Static target of a rel32 transfer or lea.
template <class I>
VX_INLINE uint64_t target_of([[maybe_unused]] const Cpu& cpu, const I& o) {
  if constexpr (std::is_same_v<I, isa::Instr>) {
    return o.target(cpu.ip);
  } else {
    return o.target;
  }
}

VX_INLINE Fault segv(const Access& a) {
  return {FaultType::kSegv, a.fault_addr};
}

/// Flags from cmp a, b: zf equal, lt_s signed <, lt_u unsigned <.
VX_INLINE void set_flags(Cpu& cpu, uint64_t a, uint64_t b) {
  cpu.zf = a == b;
  cpu.lt_u = a < b;
  cpu.lt_s = static_cast<int64_t>(a) < static_cast<int64_t>(b);
}

#define VX_ALU(name)                                 \
  template <class I>                                 \
  VX_INLINE Fault name([[maybe_unused]] Cpu& cpu,    \
                       [[maybe_unused]] uint64_t* r, \
                       [[maybe_unused]] const I& o)
#define VX_MEM(name) \
  template <class I> \
  VX_INLINE Fault name(AddressSpace& mem, uint64_t* r, const I& o)
#define VX_COND(name) VX_INLINE bool name([[maybe_unused]] const Cpu& cpu)
#define VX_XFER(name)                                          \
  template <class I>                                           \
  VX_INLINE Fault name([[maybe_unused]] AddressSpace& mem,     \
                       [[maybe_unused]] Cpu& cpu, uint64_t* r, \
                       [[maybe_unused]] const I& o, uint64_t& to)

// --- alu: r1 = r1 <op> r2 | imm; cmp sets the flags ----------------------
VX_ALU(kMovRI) { r[o.r1] = static_cast<uint64_t>(o.imm); return {}; }
VX_ALU(kMovRR) { r[o.r1] = r[o.r2]; return {}; }
VX_ALU(kAddRR) { r[o.r1] += r[o.r2]; return {}; }
VX_ALU(kAddRI) { r[o.r1] += static_cast<uint64_t>(o.imm); return {}; }
VX_ALU(kSubRR) { r[o.r1] -= r[o.r2]; return {}; }
VX_ALU(kSubRI) { r[o.r1] -= static_cast<uint64_t>(o.imm); return {}; }
VX_ALU(kMulRR) { r[o.r1] *= r[o.r2]; return {}; }
/// Unsigned divide; divisor 0 raises SIGFPE.
VX_ALU(kDivRR) {
  if (r[o.r2] == 0) return {FaultType::kFpe, ip_of(cpu, o)};
  r[o.r1] /= r[o.r2];
  return {};
}
VX_ALU(kAndRR) { r[o.r1] &= r[o.r2]; return {}; }
VX_ALU(kOrRR) { r[o.r1] |= r[o.r2]; return {}; }
VX_ALU(kXorRR) { r[o.r1] ^= r[o.r2]; return {}; }
/// Shift amounts wrap at 64, as on x86-64.
VX_ALU(kShlRI) { r[o.r1] <<= (o.imm & 63); return {}; }
VX_ALU(kShrRI) { r[o.r1] >>= (o.imm & 63); return {}; }
VX_ALU(kCmpRR) { set_flags(cpu, r[o.r1], r[o.r2]); return {}; }
VX_ALU(kCmpRI) {
  set_flags(cpu, r[o.r1], static_cast<uint64_t>(o.imm));
  return {};
}
/// r1 = ip_after + rel32 (PIC address formation).
VX_ALU(kLea) { r[o.r1] = target_of(cpu, o); return {}; }
VX_ALU(kNop) { return {}; }

// --- memory: r1 = mem[r2 + disp32]; mem[r1 + disp32] = r2 ---------------
VX_MEM(kLoad) {
  uint64_t v;
  Access a = mem.read(r[o.r2] + o.imm, &v, 8, kProtRead);
  if (!a.ok) return segv(a);
  r[o.r1] = v;
  return {};
}
VX_MEM(kStore) {
  Access a = mem.write(r[o.r1] + o.imm, &r[o.r2], 8, kProtWrite);
  return a.ok ? Fault{} : segv(a);
}
/// Zero-extending byte load.
VX_MEM(kLoadB) {
  uint8_t v;
  Access a = mem.read(r[o.r2] + o.imm, &v, 1, kProtRead);
  if (!a.ok) return segv(a);
  r[o.r1] = v;
  return {};
}
/// Stores the low byte of r2.
VX_MEM(kStoreB) {
  uint8_t v = static_cast<uint8_t>(r[o.r2]);
  Access a = mem.write(r[o.r1] + o.imm, &v, 1, kProtWrite);
  return a.ok ? Fault{} : segv(a);
}
VX_MEM(kPush) {
  uint64_t& sp = r[isa::kSpReg];
  sp -= 8;
  Access a = mem.write(sp, &r[o.r1], 8, kProtWrite);
  return a.ok ? Fault{} : segv(a);
}
VX_MEM(kPop) {
  uint64_t& sp = r[isa::kSpReg];
  uint64_t v;
  Access a = mem.read(sp, &v, 8, kProtRead);
  if (!a.ok) return segv(a);
  sp += 8;
  r[o.r1] = v;
  return {};
}

// --- branch conditions: jlt..jge signed, jb/jae unsigned -----------------
VX_COND(kJmp) { return true; }
VX_COND(kJe) { return cpu.zf; }
VX_COND(kJne) { return !cpu.zf; }
VX_COND(kJlt) { return cpu.lt_s; }
VX_COND(kJle) { return cpu.lt_s || cpu.zf; }
VX_COND(kJgt) { return !cpu.lt_s && !cpu.zf; }
VX_COND(kJge) { return !cpu.lt_s; }
VX_COND(kJb) { return cpu.lt_u; }
VX_COND(kJae) { return !cpu.lt_u; }

// --- transfers: `to` is where execution continues ------------------------
VX_XFER(kCall) {
  const uint64_t ra = ip_of(cpu, o) + o.length;
  uint64_t& sp = r[isa::kSpReg];
  sp -= 8;
  Access a = mem.write(sp, &ra, 8, kProtWrite);
  if (!a.ok) return segv(a);
  to = target_of(cpu, o);
  return {};
}
VX_XFER(kCallR) {
  const uint64_t ra = ip_of(cpu, o) + o.length;
  uint64_t& sp = r[isa::kSpReg];
  sp -= 8;
  Access a = mem.write(sp, &ra, 8, kProtWrite);
  if (!a.ok) return segv(a);
  to = r[o.r1];
  return {};
}
VX_XFER(kRet) {
  uint64_t& sp = r[isa::kSpReg];
  uint64_t ra;
  Access a = mem.read(sp, &ra, 8, kProtRead);
  if (!a.ok) return segv(a);
  sp += 8;
  to = ra;
  return {};
}
VX_XFER(kJmpR) {
  to = r[o.r1];
  return {};
}

#undef VX_ALU
#undef VX_MEM
#undef VX_COND
#undef VX_XFER

// Run-time dispatch over one class. Templates, so that the calls of the
// rows the `if constexpr` discards (other signatures) are never checked.

/// Whether the relative branch `op` is taken; the superblock tier's shared
/// branch handler.
template <class C>
VX_INLINE bool taken(const C& cpu, isa::Op op) {
  switch (op) {
#define VX_COND_CASE(name, byte, mn, fmt, cls, ...)                 \
  case isa::Op::name:                                               \
    if constexpr (isa::OpClass::cls == isa::OpClass::kCondBranch || \
                  isa::OpClass::cls == isa::OpClass::kJump) {       \
      return name(cpu);                                             \
    }                                                               \
    break;
    VX64_OPS(VX_COND_CASE)
#undef VX_COND_CASE
  }
  return true;
}

/// Executes the alu-class instruction `ins` on `cpu`; returns kIll for any
/// other class. The slicer's constant folder.
template <class I>
Fault alu(Cpu& cpu, const I& ins) {
  switch (ins.op) {
#define VX_ALU_CASE(name, byte, mn, fmt, cls, ...)           \
  case isa::Op::name:                                        \
    if constexpr (isa::OpClass::cls == isa::OpClass::kAlu) { \
      return name(cpu, cpu.regs.data(), ins);                \
    }                                                        \
    break;
    VX64_OPS(VX_ALU_CASE)
#undef VX_ALU_CASE
  }
  return {FaultType::kIll, 0};
}

}  // namespace dynacut::vm::ops
