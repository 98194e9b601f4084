// VX64: the small 64-bit variable-length ISA executed by the simulator.
//
// VX64 stands in for x86-64 in this reproduction. It keeps the three
// properties DynaCut's mechanism depends on:
//   * variable-length encoding (so disassembly/BB recovery is non-trivial),
//   * a one-byte trap instruction TRAP = 0xCC (the int3 analogue),
//   * IP-relative control flow and addressing (so code is position
//     independent and injectable as a shared library).
//
// Registers: r0..r15, 64-bit. r15 doubles as the stack pointer (SP).
// By convention r0 holds syscall numbers / return values and r1..r5 carry
// syscall/function arguments.
//
// The whole instruction set is the VX64_OPS table below. The decoder, the
// disassembler, CFG recovery, the slicer and both VM tiers read it; the
// per-op semantics live in vm/ops.hpp, one function per row.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace dynacut::isa {

inline constexpr int kNumRegs = 16;
inline constexpr int kSpReg = 15;  ///< r15 is the stack pointer.

/// Calling convention: arguments in r1..r5; a call clobbers r0..r11 (r11 is
/// the PLT scratch register).
inline constexpr uint16_t kArgRegs = 0x003E;
inline constexpr uint16_t kCallerSaved = 0x0FFF;

/// Operand layouts. Every field after the opcode byte is one register byte
/// (low nibble) or a little-endian immediate, so the encoded length follows
/// from the format.
enum class Format : uint8_t {
  kNone,      ///< op
  kReg,       ///< op r1
  kRegReg,    ///< op r1, r2
  kRegImm8,   ///< op r1, imm8 (shift amount)
  kRegImm32,  ///< op r1, simm32
  kRegRel32,  ///< op r1, rel32 (target = ip_after + rel32)
  kRegImm64,  ///< op r1, imm64
  kRegMem,    ///< op r1, [r2 + disp32]
  kMemReg,    ///< op [r1 + disp32], r2
  kRel32,     ///< op rel32 (target = ip_after + rel32)
};

constexpr uint8_t format_length(Format f) {
  switch (f) {
    case Format::kNone: return 1;
    case Format::kReg: return 2;
    case Format::kRegReg:
    case Format::kRegImm8: return 3;
    case Format::kRel32: return 5;
    case Format::kRegImm32:
    case Format::kRegRel32: return 6;
    case Format::kRegMem:
    case Format::kMemReg: return 7;
    case Format::kRegImm64: return 10;
  }
  return 0;
}

/// What an op does to control flow and memory. Execution tiers choose their
/// control code (successors, deopt checks, events) by class.
enum class OpClass : uint8_t {
  kAlu,         ///< registers and flags only
  kLoad,        ///< reads guest memory
  kStore,       ///< writes guest memory
  kCondBranch,  ///< direct, falls through when not taken
  kJump,        ///< direct, unconditional
  kCall,        ///< direct; pushes the return address
  kCallR,       ///< through a register; pushes the return address
  kRet,
  kJmpR,  ///< through a register
  kPush,
  kPop,
  kSyscall,
  kTrap,
  kNop,
};

/// Register sets in the table: fixed registers in the low 16 bits, plus the
/// instruction's r1/r2 operands. Calls follow the calling convention; the
/// SP update of push/pop/call/ret is not listed (see sp_delta).
inline constexpr uint32_t kOpR1 = 1u << 16;
inline constexpr uint32_t kOpR2 = 1u << 17;
inline constexpr uint32_t kR0 = 1u << 0;

// clang-format off
/// X(name, opcode byte, mnemonic, format, class, defs, uses). Opcode bytes
/// are part of the binary format; do not renumber.
#define VX64_OPS(X)                                                                    \
  X(kMovRI,   0x01, "mov",     kRegImm64, kAlu,        kOpR1,        0)                \
  X(kMovRR,   0x02, "mov",     kRegReg,   kAlu,        kOpR1,        kOpR2)            \
  X(kLoad,    0x03, "load",    kRegMem,   kLoad,       kOpR1,        kOpR2)            \
  X(kStore,   0x04, "store",   kMemReg,   kStore,      0,            kOpR1 | kOpR2)    \
  X(kLoadB,   0x05, "loadb",   kRegMem,   kLoad,       kOpR1,        kOpR2)            \
  X(kStoreB,  0x06, "storeb",  kMemReg,   kStore,      0,            kOpR1 | kOpR2)    \
  X(kAddRR,   0x07, "add",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kAddRI,   0x08, "add",     kRegImm32, kAlu,        kOpR1,        kOpR1)            \
  X(kSubRR,   0x09, "sub",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kSubRI,   0x0A, "sub",     kRegImm32, kAlu,        kOpR1,        kOpR1)            \
  X(kMulRR,   0x0B, "mul",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kDivRR,   0x0C, "div",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kAndRR,   0x0D, "and",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kOrRR,    0x0E, "or",      kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kXorRR,   0x0F, "xor",     kRegReg,   kAlu,        kOpR1,        kOpR1 | kOpR2)    \
  X(kShlRI,   0x10, "shl",     kRegImm8,  kAlu,        kOpR1,        kOpR1)            \
  X(kShrRI,   0x11, "shr",     kRegImm8,  kAlu,        kOpR1,        kOpR1)            \
  X(kCmpRR,   0x12, "cmp",     kRegReg,   kAlu,        0,            kOpR1 | kOpR2)    \
  X(kCmpRI,   0x13, "cmp",     kRegImm32, kAlu,        0,            kOpR1)            \
  X(kJmp,     0x14, "jmp",     kRel32,    kJump,       0,            0)                \
  X(kJe,      0x15, "je",      kRel32,    kCondBranch, 0,            0)                \
  X(kJne,     0x16, "jne",     kRel32,    kCondBranch, 0,            0)                \
  X(kJlt,     0x17, "jlt",     kRel32,    kCondBranch, 0,            0)                \
  X(kJle,     0x18, "jle",     kRel32,    kCondBranch, 0,            0)                \
  X(kJgt,     0x19, "jgt",     kRel32,    kCondBranch, 0,            0)                \
  X(kJge,     0x1A, "jge",     kRel32,    kCondBranch, 0,            0)                \
  X(kJb,      0x1B, "jb",      kRel32,    kCondBranch, 0,            0)                \
  X(kJae,     0x1C, "jae",     kRel32,    kCondBranch, 0,            0)                \
  X(kCall,    0x1D, "call",    kRel32,    kCall,       kCallerSaved, kArgRegs)         \
  X(kRet,     0x1E, "ret",     kNone,     kRet,        0,            kR0)              \
  X(kCallR,   0x1F, "callr",   kReg,      kCallR,      kCallerSaved, kOpR1 | kArgRegs) \
  X(kJmpR,    0x20, "jmpr",    kReg,      kJmpR,       0,            kOpR1 | kArgRegs) \
  X(kPush,    0x21, "push",    kReg,      kPush,       0,            kOpR1)            \
  X(kPop,     0x22, "pop",     kReg,      kPop,        kOpR1,        0)                \
  X(kSyscall, 0x23, "syscall", kNone,     kSyscall,    kR0,          kR0 | kArgRegs)   \
  X(kLea,     0x24, "lea",     kRegRel32, kAlu,        kOpR1,        0)                \
  X(kNop,     0x90, "nop",     kNone,     kNop,        0,            0)                \
  X(kTrap,    0xCC, "trap",    kNone,     kTrap,       0,            0)
// clang-format on

/// One-byte opcodes, one per VX64_OPS row.
enum class Op : uint8_t {
#define VX64_ENUM(name, byte, ...) name = byte,
  VX64_OPS(VX64_ENUM)
#undef VX64_ENUM
};

/// One VX64_OPS row. `length` 0 marks an unassigned opcode byte.
struct OpInfo {
  const char* mnemonic = nullptr;
  Format format = Format::kNone;
  OpClass cls = OpClass::kNop;
  uint8_t length = 0;
  uint32_t defs = 0;
  uint32_t uses = 0;
};

/// VX64_OPS indexed by opcode byte.
inline constexpr std::array<OpInfo, 256> kOpTable = [] {
  std::array<OpInfo, 256> t{};
#define VX64_ROW(name, byte, mn, fmt, cls, defs, uses)                \
  t[byte] = {mn, Format::fmt, OpClass::cls, format_length(Format::fmt), \
             defs, uses};
  VX64_OPS(VX64_ROW)
#undef VX64_ROW
  return t;
}();

constexpr const OpInfo& op_info(Op op) {
  return kOpTable[static_cast<uint8_t>(op)];
}
constexpr OpClass op_class(Op op) { return op_info(op).cls; }

/// Longest encoding in the table (kMovRI: opcode + reg + imm64). Fetchers
/// and decode caches size speculative reads and page-edge checks with this.
inline constexpr uint8_t kMaxInstrLength = [] {
  uint8_t m = 0;
  for (const OpInfo& i : kOpTable) m = i.length > m ? i.length : m;
  return m;
}();

/// A decoded instruction. `imm` holds imm64, simm32, disp32, rel32 or the
/// shift amount depending on the opcode.
struct Instr {
  Op op = Op::kNop;
  uint8_t r1 = 0;
  uint8_t r2 = 0;
  int64_t imm = 0;
  uint8_t length = 1;  ///< encoded size in bytes

  /// Branch/call target for IP-relative transfers, given the instruction's
  /// own address.
  uint64_t target(uint64_t addr) const {
    return addr + length + static_cast<uint64_t>(imm);
  }
};
// Decode-cache slots hold one Instr per code byte; keep it small.
static_assert(sizeof(Instr) <= 24);

/// True if the opcode byte names a valid VX64 instruction.
constexpr bool valid_opcode(uint8_t byte) { return kOpTable[byte].length != 0; }

/// Encoded length of an instruction starting with this opcode byte, or 0 if
/// the opcode is invalid.
constexpr uint8_t instr_length(uint8_t opcode_byte) {
  return kOpTable[opcode_byte].length;
}

/// Instructions that end a basic block (any control transfer, syscalls and
/// traps) — the same block boundaries drcov observes.
constexpr bool is_terminator(Op op) {
  switch (op_class(op)) {
    case OpClass::kAlu:
    case OpClass::kLoad:
    case OpClass::kStore:
    case OpClass::kPush:
    case OpClass::kPop:
    case OpClass::kNop:
      return false;
    default:
      return true;
  }
}

/// Conditional branches (terminators with fall-through successors).
constexpr bool is_cond_branch(Op op) {
  return op_class(op) == OpClass::kCondBranch;
}

/// Direct IP-relative transfers whose static target is recoverable.
constexpr bool is_direct_transfer(Op op) {
  return op_info(op).format == Format::kRel32;
}

/// True when execution may continue at the next instruction: every
/// non-terminator, a branch not taken, and the return point of a call or
/// syscall (exit aside, which is not known statically).
constexpr bool falls_through(Op op) {
  switch (op_class(op)) {
    case OpClass::kJump:
    case OpClass::kRet:
    case OpClass::kJmpR:
    case OpClass::kTrap:
      return false;
    default:
      return true;
  }
}

/// Registers `ins` reads / writes per its VX64_OPS row, as masks (bit i =
/// r_i).
constexpr uint16_t reg_mask(uint32_t set, const Instr& ins) {
  return static_cast<uint16_t>((set & 0xFFFF) |
                               ((set & kOpR1) ? 1u << ins.r1 : 0) |
                               ((set & kOpR2) ? 1u << ins.r2 : 0));
}
constexpr uint16_t uses(const Instr& ins) {
  return reg_mask(op_info(ins.op).uses, ins);
}
constexpr uint16_t defs(const Instr& ins) {
  return reg_mask(op_info(ins.op).defs, ins);
}

/// SP change made by `ins`: push -8, pop +8, add/sub sp, imm ±imm, 0 for
/// everything that leaves SP alone (calls count as balanced by their ret).
/// std::nullopt when `ins` assigns SP any other way.
std::optional<int64_t> sp_delta(const Instr& ins);

/// Decodes one instruction at the start of `code`. Returns std::nullopt on
/// an invalid opcode or truncated encoding (the executor raises SIGILL).
std::optional<Instr> try_decode(std::span<const uint8_t> code);

/// Decoding that throws DecodeError instead; for host-side tooling.
Instr decode(std::span<const uint8_t> code);

/// Mnemonic of an opcode ("mov", "jne", "trap", ...).
std::string mnemonic(Op op);

}  // namespace dynacut::isa
