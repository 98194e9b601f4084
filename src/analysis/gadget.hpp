// Code-reuse gadget scanner for the BROP/ROP case study (paper §4.2):
// counts ret-terminated instruction sequences reachable at any byte offset
// of the executable VMAs — the attacker's raw material. Wiping blocks with
// TRAP bytes and unmapping pages removes gadgets, which this scanner makes
// measurable.
#pragma once

#include <cstdint>
#include <vector>

#include "melf/binary.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::analysis {

/// Instructions a gadget may span, its RET included.
inline constexpr int kGadgetMaxInstrs = 5;

struct GadgetStats {
  uint64_t gadget_starts = 0;    ///< distinct addresses beginning a gadget
  uint64_t executable_bytes = 0; ///< total bytes in executable VMAs
};

/// Scans every executable VMA: an address starts a gadget if decoding at
/// most `max_instrs` instructions from it reaches a RET without hitting an
/// invalid byte, a TRAP, or a non-executable boundary.
GadgetStats scan_gadgets(const vm::AddressSpace& mem,
                         int max_instrs = kGadgetMaxInstrs);

/// Same scan restricted to the address window [lo, hi) — used to measure a
/// specific module's surface while ignoring injected helper libraries.
GadgetStats scan_gadgets(const vm::AddressSpace& mem, uint64_t lo,
                         uint64_t hi, int max_instrs = kGadgetMaxInstrs);

/// `bin`'s executable sections alone, mapped read+exec at kAppBase plus
/// their offsets: the module memory cutcheck's CC006 rewrites and scans.
vm::AddressSpace code_space(const melf::Binary& bin);

/// Module-relative offsets of every gadget start in code_space(bin),
/// ascending — the addresses scan_gadgets counts there.
std::vector<uint64_t> pristine_gadget_starts(const melf::Binary& bin);

}  // namespace dynacut::analysis
