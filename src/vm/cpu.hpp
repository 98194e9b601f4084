// CPU register state of one VX64 hardware thread.
#pragma once

#include <array>
#include <cstdint>

#include "isa/isa.hpp"

namespace dynacut::vm {

struct Cpu {
  std::array<uint64_t, isa::kNumRegs> regs{};
  uint64_t ip = 0;

  // Comparison flags, set by cmp. zf: equal; lt_s: signed less-than;
  // lt_u: unsigned less-than.
  bool zf = false;
  bool lt_s = false;
  bool lt_u = false;

  uint64_t& sp() { return regs[isa::kSpReg]; }
  uint64_t sp() const { return regs[isa::kSpReg]; }

  /// Flags packed into one word for signal frames / checkpoints.
  uint64_t pack_flags() const {
    return (zf ? 1u : 0u) | (lt_s ? 2u : 0u) | (lt_u ? 4u : 0u);
  }
  void unpack_flags(uint64_t f) {
    zf = f & 1;
    lt_s = f & 2;
    lt_u = f & 4;
  }
};

}  // namespace dynacut::vm
