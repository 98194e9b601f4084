#include "vm/exec.hpp"

#include <algorithm>
#include <cstring>

#include "vm/superblock.hpp"

namespace dynacut::vm {

namespace {

using isa::Instr;
using isa::Op;

/// Fetches and decodes the instruction at `ip` from raw page bytes. Returns
/// fault info on unmapped/non-executable memory or an invalid encoding.
StepResult fetch(const AddressSpace& mem, uint64_t ip, Instr& out) {
  // Fast path: speculatively read a maximal instruction in one go — almost
  // always hits the cached page.
  uint8_t fast[isa::kMaxInstrLength];
  if (mem.read(ip, fast, sizeof fast, kProtExec).ok) {
    auto ins = isa::try_decode(fast);
    if (!ins) return {StepKind::kFault, FaultType::kIll, ip, false};
    out = *ins;
    return {StepKind::kOk, FaultType::kNone, 0, false};
  }

  uint8_t opcode;
  Access a = mem.read(ip, &opcode, 1, kProtExec);
  if (!a.ok) return {StepKind::kFault, FaultType::kSegv, a.fault_addr, false};
  uint8_t len = isa::instr_length(opcode);
  if (len == 0) return {StepKind::kFault, FaultType::kIll, ip, false};
  uint8_t buf[16];
  buf[0] = opcode;
  if (len > 1) {
    a = mem.read(ip + 1, buf + 1, len - 1, kProtExec);
    if (!a.ok) {
      return {StepKind::kFault, FaultType::kSegv, a.fault_addr, false};
    }
  }
  auto ins = isa::try_decode({buf, len});
  if (!ins) return {StepKind::kFault, FaultType::kIll, ip, false};
  out = *ins;
  return {StepKind::kOk, FaultType::kNone, 0, false};
}

// set_flags / branch_taken live in cpu.hpp, shared with the superblock
// dispatcher so the two engines can never disagree on branch semantics.

/// Executes one already-decoded instruction at cpu.ip. Force-inlined into
/// the step/run_block loops: the call overhead is measurable at the
/// instructions-per-second scale even in unoptimized builds.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline StepResult
execute(AddressSpace& mem, Cpu& cpu, const Instr& ins) {
  const uint64_t next_ip = cpu.ip + ins.length;
  auto& r = cpu.regs;
  StepResult result;
  result.block_end = isa::is_terminator(ins.op);

  auto segv = [&](uint64_t addr) {
    return StepResult{StepKind::kFault, FaultType::kSegv, addr, false};
  };

  switch (ins.op) {
    case Op::kMovRI:
      r[ins.r1] = static_cast<uint64_t>(ins.imm);
      break;
    case Op::kMovRR:
      r[ins.r1] = r[ins.r2];
      break;
    case Op::kLoad: {
      uint64_t v;
      Access a = mem.read(r[ins.r2] + ins.imm, &v, 8, kProtRead);
      if (!a.ok) return segv(a.fault_addr);
      r[ins.r1] = v;
      break;
    }
    case Op::kStore: {
      Access a = mem.write(r[ins.r1] + ins.imm, &r[ins.r2], 8, kProtWrite);
      if (!a.ok) return segv(a.fault_addr);
      break;
    }
    case Op::kLoadB: {
      uint8_t v;
      Access a = mem.read(r[ins.r2] + ins.imm, &v, 1, kProtRead);
      if (!a.ok) return segv(a.fault_addr);
      r[ins.r1] = v;
      break;
    }
    case Op::kStoreB: {
      uint8_t v = static_cast<uint8_t>(r[ins.r2]);
      Access a = mem.write(r[ins.r1] + ins.imm, &v, 1, kProtWrite);
      if (!a.ok) return segv(a.fault_addr);
      break;
    }
    case Op::kAddRR:
      r[ins.r1] += r[ins.r2];
      break;
    case Op::kAddRI:
      r[ins.r1] += static_cast<uint64_t>(ins.imm);
      break;
    case Op::kSubRR:
      r[ins.r1] -= r[ins.r2];
      break;
    case Op::kSubRI:
      r[ins.r1] -= static_cast<uint64_t>(ins.imm);
      break;
    case Op::kMulRR:
      r[ins.r1] *= r[ins.r2];
      break;
    case Op::kDivRR:
      if (r[ins.r2] == 0) {
        return {StepKind::kFault, FaultType::kFpe, cpu.ip, false};
      }
      r[ins.r1] /= r[ins.r2];
      break;
    case Op::kAndRR:
      r[ins.r1] &= r[ins.r2];
      break;
    case Op::kOrRR:
      r[ins.r1] |= r[ins.r2];
      break;
    case Op::kXorRR:
      r[ins.r1] ^= r[ins.r2];
      break;
    case Op::kShlRI:
      r[ins.r1] <<= (ins.imm & 63);
      break;
    case Op::kShrRI:
      r[ins.r1] >>= (ins.imm & 63);
      break;
    case Op::kCmpRR:
      set_flags(cpu, r[ins.r1], r[ins.r2]);
      break;
    case Op::kCmpRI:
      set_flags(cpu, r[ins.r1], static_cast<uint64_t>(ins.imm));
      break;
    case Op::kJmp:
    case Op::kJe:
    case Op::kJne:
    case Op::kJlt:
    case Op::kJle:
    case Op::kJgt:
    case Op::kJge:
    case Op::kJb:
    case Op::kJae:
      cpu.ip = branch_taken(cpu, ins.op) ? ins.target(cpu.ip) : next_ip;
      return result;
    case Op::kCall: {
      uint64_t ra = next_ip;
      cpu.sp() -= 8;
      Access a = mem.write(cpu.sp(), &ra, 8, kProtWrite);
      if (!a.ok) return segv(a.fault_addr);
      cpu.ip = ins.target(cpu.ip);
      return result;
    }
    case Op::kCallR: {
      uint64_t ra = next_ip;
      cpu.sp() -= 8;
      Access a = mem.write(cpu.sp(), &ra, 8, kProtWrite);
      if (!a.ok) return segv(a.fault_addr);
      cpu.ip = r[ins.r1];
      return result;
    }
    case Op::kRet: {
      uint64_t ra;
      Access a = mem.read(cpu.sp(), &ra, 8, kProtRead);
      if (!a.ok) return segv(a.fault_addr);
      cpu.sp() += 8;
      cpu.ip = ra;
      return result;
    }
    case Op::kJmpR:
      cpu.ip = r[ins.r1];
      return result;
    case Op::kPush: {
      cpu.sp() -= 8;
      Access a = mem.write(cpu.sp(), &r[ins.r1], 8, kProtWrite);
      if (!a.ok) return segv(a.fault_addr);
      break;
    }
    case Op::kPop: {
      uint64_t v;
      Access a = mem.read(cpu.sp(), &v, 8, kProtRead);
      if (!a.ok) return segv(a.fault_addr);
      cpu.sp() += 8;
      r[ins.r1] = v;
      break;
    }
    case Op::kSyscall:
      cpu.ip = next_ip;
      result.kind = StepKind::kSyscall;
      return result;
    case Op::kTrap:
      // ip intentionally NOT advanced: the signal frame records the trap
      // address so a handler can patch/redirect and re-execute.
      result.kind = StepKind::kTrap;
      result.fault_addr = cpu.ip;
      return result;
    case Op::kLea:
      r[ins.r1] = ins.target(cpu.ip);
      break;
    case Op::kNop:
      break;
  }

  cpu.ip = next_ip;
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// DecodeCache
// ---------------------------------------------------------------------------

void DecodeCache::clear() {
  pages_.clear();
  last_page_ = ~0ull;
  last_entry_ = nullptr;
}

void DecodeCache::sync(const AddressSpace& mem) {
  if (asid_ != mem.asid()) {
    clear();
    asid_ = mem.asid();
  }
}

DecodeCache::PageEntry* DecodeCache::entry_for(const AddressSpace& mem,
                                               uint64_t page_addr) {
  PageEntry* e;
  if (page_addr == last_page_) {
    e = last_entry_;
  } else {
    auto [it, inserted] = pages_.try_emplace(page_addr);
    e = &it->second;
    if (inserted) {
      e->live_gen = mem.page_generation_slot(page_addr);
      e->gen = *e->live_gen;
      e->slots.resize(kPageSize);
    }
    last_page_ = page_addr;
    last_entry_ = e;
  }
  if (*e->live_gen != e->gen) {
    // The page (or its mapping) changed since the slots were decoded: wipe
    // and adopt the new generation. Slots refill lazily against the new
    // bytes.
    std::fill(e->slots.begin(), e->slots.end(), Slot{});
    e->gen = *e->live_gen;
    ++invalidations_;
  }
  return e;
}

bool DecodeCache::fill_slot(const AddressSpace& mem, uint64_t ip, Slot& s) {
  uint8_t buf[isa::kMaxInstrLength];
  if (!mem.read(ip, buf, sizeof buf, kProtExec).ok) return false;
  auto ins = isa::try_decode(buf);
  if (!ins) {
    s.state = kBad;
  } else {
    s.ins = *ins;
    s.state = kValid;
  }
  return true;
}

StepResult DecodeCache::fetch(AddressSpace& mem, uint64_t ip,
                              isa::Instr& out) {
  sync(mem);
  const uint64_t page = page_floor(ip);
  const uint64_t off = ip - page;
  if (off + isa::kMaxInstrLength > kPageSize) {
    // Possible page-straddler: serve uncached (its decode would also depend
    // on the next page's generation).
    ++misses_;
    return vm::fetch(mem, ip, out);
  }
  PageEntry* e = entry_for(mem, page);
  Slot& s = e->slots[off];
  if (s.state == kUnknown) {
    ++misses_;
    if (!fill_slot(mem, ip, s)) {
      return vm::fetch(mem, ip, out);  // not executable: precise fault
    }
  } else {
    ++hits_;
  }
  if (s.state == kBad) return {StepKind::kFault, FaultType::kIll, ip, false};
  out = s.ins;
  return {StepKind::kOk, FaultType::kNone, 0, false};
}

size_t DecodeCache::warm(AddressSpace& mem, uint64_t start, uint64_t end) {
  size_t decoded = 0;
  uint64_t ip = start;
  while (ip < end) {
    isa::Instr ins;
    if (fetch(mem, ip, ins).kind == StepKind::kFault) {
      ++ip;  // undecodable/pad byte: resync one byte forward
      continue;
    }
    ip += ins.length;
    ++decoded;
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

StepResult step(AddressSpace& mem, Cpu& cpu, DecodeCache* cache) {
  Instr ins;
  StepResult fr = cache != nullptr ? cache->fetch(mem, cpu.ip, ins)
                                   : fetch(mem, cpu.ip, ins);
  if (fr.kind != StepKind::kOk) return fr;
  return execute(mem, cpu, ins);
}

StepResult DecodeCache::run(AddressSpace& mem, Cpu& cpu, uint64_t max_instr,
                            uint64_t& retired) {
  sync(mem);
  StepResult r{};
  uint64_t n = 0;     // local retired counter (flushed on every exit)
  uint64_t hits = 0;  // local stats accumulator — off the per-instr path
  bool stop = false;
  while (!stop) {
    const uint64_t page = page_floor(cpu.ip);
    PageEntry* e = cpu.ip - page + isa::kMaxInstrLength <= kPageSize
                       ? entry_for(mem, page)
                       : nullptr;
    const uint64_t n_at_entry = n;
    if (e != nullptr) {
      // Straight-line fast path: stay on this page's decoded array. One
      // generation dereference per instruction keeps self-modifying stores
      // (e.g. the verifier handler healing its own page) precise.
      const uint64_t* live_gen = e->live_gen;
      const uint64_t gen = e->gen;
      Slot* slots = e->slots.data();
      while (n < max_instr && *live_gen == gen) {
        const uint64_t off = cpu.ip - page;
        if (off + isa::kMaxInstrLength > kPageSize) break;  // page edge
        Slot& s = slots[off];
        if (s.state == kValid) {
          ++hits;
        } else {
          if (s.state == kUnknown) {
            // Count the miss only if the fill succeeds: on a failed fill the
            // slot stays kUnknown and the no-progress fallback step() below
            // re-enters fetch(), which counts that same attempt exactly
            // once (and faults precisely).
            if (!fill_slot(mem, cpu.ip, s)) break;  // fault: slow path
            ++misses_;
          } else {
            ++hits;  // a known-bad slot is still a cache-served fetch
          }
          if (s.state == kBad) {
            r = {StepKind::kFault, FaultType::kIll, cpu.ip, false};
            ++n;
            stop = true;
            break;
          }
        }
        r = execute(mem, cpu, s.ins);
        ++n;
        if (r.kind != StepKind::kOk || r.block_end) {
          stop = true;
          break;
        }
      }
    }
    if (stop || n >= max_instr) break;
    if (n == n_at_entry) {  // fast path made no progress this round
      // Page-edge instruction, non-executable fetch, or a generation bump
      // raced the entry lookup: take the generic single-step path so the
      // loop always advances.
      r = step(mem, cpu, this);
      ++n;
      if (r.kind != StepKind::kOk || r.block_end || n >= max_instr) break;
    }
  }
  hits_ += hits;
  retired = n;
  return r;
}

StepResult run_block(AddressSpace& mem, Cpu& cpu, DecodeCache* cache,
                     SuperblockCache* sbc, uint64_t max_instr,
                     uint64_t& retired) {
  retired = 0;
  StepResult r{};
  if (max_instr == 0) return r;

  // One interpreter round: until a terminator retires, an event surfaces
  // or `budget` attempts were made.
  auto interpret = [&](uint64_t budget, uint64_t& sub) {
    if (cache != nullptr) return cache->run(mem, cpu, budget, sub);
    StepResult s{};
    sub = 0;
    while (sub < budget) {
      s = step(mem, cpu);
      ++sub;
      if (s.kind != StepKind::kOk || s.block_end) break;
    }
    return s;
  };
  if (sbc == nullptr) return interpret(max_instr, retired);

  uint64_t n = 0;
  while (n < max_instr) {
    SuperblockCache::Ref ref = sbc->lookup(mem, cpu.ip);
    if (ref.sb != nullptr) {
      SbExit why = SbExit::kBranch;
      r = sbc->dispatch(mem, cpu, ref, max_instr - n, n, why);
      if (why == SbExit::kBudget) break;
      if (why != SbExit::kDeopt) {
        // kEvent / kBranch: surface exactly like the interpreter path would.
        retired = n;
        return r;
      }
      // kDeopt: the trace went stale mid-dispatch. cpu.ip is at the next
      // unstarted instruction; finish the round on the interpreter path,
      // which re-fetches (and so re-validates) precisely.
      if (n >= max_instr) break;
    }
    uint64_t sub = 0;
    r = interpret(max_instr - n, sub);
    n += sub;
    if (r.kind != StepKind::kOk || r.block_end) {
      retired = n;
      return r;
    }
    // kOk without block_end: the interpreter round spent the remaining
    // budget; the loop condition ends us.
  }
  retired = n;
  return r;
}

BlockInfo block_at(const AddressSpace& mem, uint64_t addr,
                   uint64_t max_bytes) {
  BlockInfo info;
  uint64_t cur = addr;
  while (cur - addr < max_bytes) {
    uint8_t buf[16];
    Access a = mem.read(cur, buf, 1, kProtExec);
    if (!a.ok) break;
    uint8_t len = isa::instr_length(buf[0]);
    if (len == 0) break;
    if (len > 1 && !mem.read(cur + 1, buf + 1, len - 1, kProtExec).ok) break;
    auto ins = isa::try_decode({buf, len});
    if (!ins) break;
    info.size = cur + len - addr;
    info.instr_count += 1;
    if (isa::is_terminator(ins->op)) {
      info.terminated = true;
      break;
    }
    cur += len;
  }
  return info;
}

}  // namespace dynacut::vm
