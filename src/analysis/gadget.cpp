#include "analysis/gadget.hpp"

#include "common/constants.hpp"
#include "isa/isa.hpp"
#include "vm/exec.hpp"
#include <algorithm>
#include <cstdint>

namespace dynacut::analysis {

namespace {

bool gadget_at(const vm::AddressSpace& mem, uint64_t addr, int max_instrs) {
  uint64_t cur = addr;
  isa::Instr ins;
  for (int i = 0; i < max_instrs; ++i) {
    if (vm::fetch(mem, cur, ins).kind != vm::StepKind::kOk) return false;
    if (ins.op == isa::Op::kRet) return true;
    // Any other terminator (a trap: wiped / blocked code) diverts control
    // away from the sequence.
    if (isa::is_terminator(ins.op)) return false;
    cur += ins.length;
  }
  return false;
}

}  // namespace

GadgetStats scan_gadgets(const vm::AddressSpace& mem, int max_instrs) {
  return scan_gadgets(mem, 0, UINT64_MAX, max_instrs);
}

GadgetStats scan_gadgets(const vm::AddressSpace& mem, uint64_t lo,
                         uint64_t hi, int max_instrs) {
  GadgetStats stats;
  for (const auto& [start, vma] : mem.vmas()) {
    if ((vma.prot & kProtExec) == 0) continue;
    uint64_t from = std::max(vma.start, lo);
    uint64_t to = std::min(vma.end, hi);
    if (from >= to) continue;
    stats.executable_bytes += to - from;
    for (uint64_t addr = from; addr < to; ++addr) {
      if (gadget_at(mem, addr, max_instrs)) ++stats.gadget_starts;
    }
  }
  return stats;
}

vm::AddressSpace code_space(const melf::Binary& bin) {
  vm::AddressSpace mem;
  for (const auto& sec : bin.sections) {
    if ((melf::section_prot(sec.kind) & kProtExec) == 0 || sec.bytes.empty()) {
      continue;
    }
    uint64_t start = kAppBase + sec.offset;
    mem.map(start, page_ceil(sec.bytes.size()), kProtRead | kProtExec,
            bin.name + ":" + melf::section_name(sec.kind));
    mem.poke_bytes(start, sec.bytes);
  }
  return mem;
}

std::vector<uint64_t> pristine_gadget_starts(const melf::Binary& bin) {
  const vm::AddressSpace mem = code_space(bin);
  std::vector<uint64_t> out;
  for (const auto& [start, vma] : mem.vmas()) {
    for (uint64_t addr = vma.start; addr < vma.end; ++addr) {
      if (gadget_at(mem, addr, kGadgetMaxInstrs)) {
        out.push_back(addr - kAppBase);
      }
    }
  }
  return out;
}

}  // namespace dynacut::analysis
