#include "vm/superblock.hpp"

#include <algorithm>
#include <set>

namespace dynacut::vm {

namespace {

using isa::Instr;
using isa::Op;

/// Decodes the instruction at `ip` for the trace builder. Requires every
/// byte to be readable as code; the builder never fuses past a byte the
/// executor could not fetch.
bool decode_at(const AddressSpace& mem, uint64_t ip, Instr& out) {
  uint8_t buf[isa::kMaxInstrLength];
  if (mem.read(ip, buf, sizeof buf, kProtExec).ok) {
    auto ins = isa::try_decode(buf);
    if (!ins) return false;
    out = *ins;
    return true;
  }
  uint8_t opcode;
  if (!mem.read(ip, &opcode, 1, kProtExec).ok) return false;
  uint8_t len = isa::instr_length(opcode);
  if (len == 0) return false;
  uint8_t full[16];
  full[0] = opcode;
  if (len > 1 && !mem.read(ip + 1, full + 1, len - 1, kProtExec).ok) {
    return false;
  }
  auto ins = isa::try_decode({full, len});
  if (!ins) return false;
  out = *ins;
  return true;
}

/// Dense dispatch-table index for an opcode. The jump table in dispatch()
/// lists its handlers in exactly this order — keep the two in sync.
constexpr uint8_t dense_index(Op op) {
  if (op == Op::kNop) return 0x24;
  if (op == Op::kTrap) return 0x25;
  return static_cast<uint8_t>(static_cast<uint8_t>(op) - 1);  // 0x01..0x24
}

}  // namespace

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

void SuperblockCache::clear() {
  entry_points_.clear();
  blocks_.clear();
  heat_.clear();
  ++link_epoch_;
}

void SuperblockCache::sync(const AddressSpace& mem) {
  if (asid_ != mem.asid()) {
    clear();
    asid_ = mem.asid();
  }
}

void SuperblockCache::push_event(SbEvent::Kind kind, uint64_t entry,
                                 uint64_t detail) {
  // Bounded: callers that never drain (raw vm benches) must not leak.
  if (events_.size() < 4096) events_.push_back({kind, entry, detail});
}

void SuperblockCache::retire(Superblock* sb, bool deopt, uint64_t resume_ip) {
  for (const auto& o : sb->ops_) {
    auto it = entry_points_.find(o.ip);
    if (it != entry_points_.end() && it->second.sb == sb) {
      entry_points_.erase(it);
    }
  }
  ++link_epoch_;  // links into `sb` (or anywhere) must not be followed
  ++retires_;
  push_event(SbEvent::kRetire, sb->entry_, sb->instr_count());
  if (deopt) {
    ++deopts_;
    push_event(SbEvent::kDeopt, sb->entry_, resume_ip);
  }
  blocks_.erase(sb);
}

// ---------------------------------------------------------------------------
// Trace selection + threading
// ---------------------------------------------------------------------------

SuperblockCache::Ref SuperblockCache::lookup(const AddressSpace& mem,
                                             uint64_t ip) {
  sync(mem);
  auto it = entry_points_.find(ip);
  if (it != entry_points_.end()) {
    Ref ref = it->second;
    if (!ref.sb->pages_valid()) {
      // A spanned page changed (int3 patch, wipe, unmap, heal) since the
      // trace last ran: retire before anything executes from it. The
      // interpreter path re-fetches and sees the new bytes immediately.
      retire(ref.sb, /*deopt=*/false, 0);
      return {};
    }
    return ref;
  }
  if (blocks_.size() >= kMaxSuperblocks) return {};
  if (heat_.size() > (1u << 16)) heat_.clear();  // runaway-workload bound
  if (++heat_[ip] < kHotThreshold) return {};
  heat_.erase(ip);
  Superblock* sb = build(mem, ip);
  if (sb == nullptr) return {};
  return {sb, 0};
}

Superblock* SuperblockCache::build(const AddressSpace& mem, uint64_t entry) {
  auto owned = std::make_unique<Superblock>();
  Superblock* sb = owned.get();
  sb->entry_ = entry;
  std::unordered_map<uint64_t, int32_t> index_of;
  std::set<uint64_t> pages;

  // Walk whole basic blocks across fallthrough and direct-branch edges.
  // Only complete, terminated blocks are appended: a scan that ran into an
  // undecodable byte or the byte limit without reaching a terminator
  // (BlockInfo::terminated == false) is never fused — a trace must know
  // where every one of its paths exits.
  uint64_t ip = entry;
  while (true) {
    BlockInfo bi = block_at(mem, ip, kMaxBlockBytes);
    if (!bi.terminated) break;
    if (sb->ops_.size() + bi.instr_count > kMaxOps) break;

    std::set<uint64_t> block_pages;
    for (uint64_t page = page_floor(ip); page < ip + bi.size;
         page += kPageSize) {
      if (pages.count(page) == 0) block_pages.insert(page);
    }
    if (pages.size() + block_pages.size() > kMaxPages) break;

    uint64_t cur = ip;
    for (uint32_t i = 0; i < bi.instr_count; ++i) {
      Instr ins;
      if (!decode_at(mem, cur, ins)) return nullptr;  // disagrees with the
      // block scan — cannot happen single-threaded, but a half-threaded
      // block must never be registered.
      Superblock::ThreadedOp op;
      op.op = ins.op;
      op.r1 = ins.r1;
      op.r2 = ins.r2;
      op.length = ins.length;
      op.hidx = dense_index(ins.op);
      op.imm = ins.imm;
      op.ip = cur;
      op.target = ins.target(cur);  // resolved once, never recomputed
      index_of.emplace(cur, static_cast<int32_t>(sb->ops_.size()));
      sb->ops_.push_back(op);
      cur += ins.length;
    }
    pages.insert(block_pages.begin(), block_pages.end());

    const Superblock::ThreadedOp& last = sb->ops_.back();
    uint64_t next_ip;
    if (last.op == Op::kJmp || last.op == Op::kCall) {
      next_ip = last.target;  // fuse through the direct transfer
    } else if (isa::is_cond_branch(last.op)) {
      next_ip = last.ip + last.length;  // fuse along the fallthrough
    } else {
      break;  // ret/callr/jmpr/syscall/trap: trace ends here
    }
    if (index_of.count(next_ip) != 0) break;  // loop closed inside the trace
    ip = next_ip;
  }
  if (sb->ops_.empty()) return nullptr;

  // Thread the ops: successors become trace indices where the target is
  // inside the trace; every successor that leaves it gets its own link
  // slot (the precomputed address or, for ret/callr/jmpr, the run-time
  // one is the exit's target).
  uint32_t exits = 0;
  auto index_or_exit = [&](uint64_t at) {
    auto f = index_of.find(at);
    return f == index_of.end() ? Superblock::exit_via(exits++) : f->second;
  };
  for (size_t i = 0; i < sb->ops_.size(); ++i) {
    Superblock::ThreadedOp& o = sb->ops_[i];
    if (!isa::is_terminator(o.op)) {
      o.next = static_cast<int32_t>(i + 1);  // same block, always present
    } else if (o.op == Op::kJmp || o.op == Op::kCall) {
      o.taken = index_or_exit(o.target);
    } else if (isa::is_cond_branch(o.op)) {
      o.taken = index_or_exit(o.target);
      o.next = index_or_exit(o.ip + o.length);
    } else if (o.op == Op::kRet || o.op == Op::kCallR || o.op == Op::kJmpR) {
      o.taken = Superblock::exit_via(exits++);
    }
    // syscall/trap: no successor, they exit as events.
  }
  sb->links_.resize(exits);

  for (uint64_t page : pages) {
    sb->pages_.emplace_back(mem.page_generation_slot(page),
                            mem.page_generation(page));
  }

  for (const auto& [op_ip, idx] : index_of) {
    // First trace wins: an ip already claimed by a live superblock keeps
    // its mapping (the overlap executes identically either way).
    entry_points_.try_emplace(op_ip, Ref{sb, idx});
  }
  blocks_.emplace(sb, std::move(owned));
  ++builds_;
  push_event(SbEvent::kBuild, entry, sb->instr_count());
  return sb;
}

// ---------------------------------------------------------------------------
// Threaded-code dispatch
// ---------------------------------------------------------------------------
//
// With GNU extensions (GCC/Clang) the dispatch is direct-threaded: every
// handler ends in its own computed goto through the dense jump table, so the
// branch predictor sees one indirect-jump site per handler instead of a
// single shared switch site, and straight-line successors are a register
// increment (build invariant: next == idx + 1 for every non-terminator)
// rather than a loaded index — no pointer chase on the critical path.
// Elsewhere the same handler bodies compile as a plain switch loop.

#if defined(__GNUC__) || defined(__clang__)
#define DYNACUT_DIRECT_THREADING 1
#endif

#if DYNACUT_DIRECT_THREADING
#define VX_OP(name) h_##name:
// The budget is re-checked before entering the next handler; replicating
// the check keeps it a predictable not-taken branch at every site.
#define VX_DISPATCH()                     \
  do {                                    \
    if (n >= max_instr) goto budget_exit; \
    goto* jt[code[idx].hidx];             \
  } while (0)
#else
#define VX_OP(name) case Op::name:
#define VX_DISPATCH() goto loop_top
#endif
// Straight-line epilogue: charge the op, advance to the next trace slot.
#define VX_NEXT()    \
  do {               \
    ++n;             \
    ++idx;           \
    VX_DISPATCH();   \
  } while (0)

// Chaining lives in this loop rather than inside run_trace: with a trace
// pointer that changes mid-loop, GCC 12 merged the handlers' computed
// gotos into a few shared dispatch sites (9 instead of 18), which undoes
// direct threading.
StepResult SuperblockCache::dispatch(AddressSpace& mem, Cpu& cpu,
                                     const Ref& ref, uint64_t max_instr,
                                     uint64_t& attempted, SbExit& why) {
  Ref at = ref;
  uint64_t n = 0;
  StepResult res;
  while (true) {
    ++entries_;
    uint32_t slot = 0;
    res = run_trace(mem, cpu, at, max_instr, n, why, slot);
    if (why != SbExit::kBranch) break;
    // A terminator retired and left the trace through link `slot`; cpu.ip
    // is its target. Follow the link only where run_block's lookup would
    // dispatch the same trace right now: budget remains, no lifecycle
    // event waits to be drained (the kernel stamps them at this point on
    // its clock), the link is current and the target's pages are
    // unchanged. Otherwise return.
    if (n >= max_instr || !events_.empty()) break;
    Superblock::Link& l = at.sb->links_[slot];
    if (l.epoch != link_epoch_ || l.ip != cpu.ip) {
      auto it = entry_points_.find(cpu.ip);
      if (it == entry_points_.end()) break;  // lookup counts heat
      l = {it->second.sb, cpu.ip, link_epoch_, it->second.idx};
    }
    if (!l.sb->pages_valid()) break;  // lookup retires it
    ++chained_;
    at = {l.sb, l.idx};
  }
  sb_instrs_ += n;
  attempted += n;
  return res;
}

StepResult SuperblockCache::run_trace(AddressSpace& mem, Cpu& cpu, Ref at,
                                      uint64_t max_instr, uint64_t& executed,
                                      SbExit& why, uint32_t& slot) {
  Superblock* const sb = at.sb;
  const Superblock::ThreadedOp* const code = sb->ops_.data();
  uint64_t* const r = cpu.regs.data();
  int32_t idx = at.idx;
  uint64_t n = executed;
  StepResult res{};

  // Exit helpers. Every path out of the handlers leaves cpu.ip at the exact
  // address the interpreter would: retired transfers land on their target,
  // faults/traps stay on the instruction, budget stops point at the first
  // instruction not attempted.
  auto fault = [&](const Superblock::ThreadedOp& o, FaultType t,
                   uint64_t addr) {
    cpu.ip = o.ip;
    ++n;
    res = {StepKind::kFault, t, addr, false};
    why = SbExit::kEvent;
  };
  // Re-validation after a guest store: a write that landed on a spanned
  // executable page (self-modifying code, verifier heal) makes the rest of
  // the trace stale. The store itself retired; execution resumes at the
  // next architectural instruction on the interpreter path.
  auto deopt_check = [&](uint64_t resume_ip) {
    if (sb->pages_valid()) return false;
    cpu.ip = resume_ip;
    retire(sb, /*deopt=*/true, resume_ip);
    why = SbExit::kDeopt;
    res = StepResult{};
    return true;
  };

#if DYNACUT_DIRECT_THREADING
  // Handler order mirrors dense_index(): 0x00..0x23 are kMovRI..kLea in
  // opcode order, then kNop, kTrap. All nine relative branches share one
  // handler (it reads o.op for the condition).
  static const void* const jt[] = {
      &&h_kMovRI,   // 0x00
      &&h_kMovRR,   // 0x01
      &&h_kLoad,    // 0x02
      &&h_kStore,   // 0x03
      &&h_kLoadB,   // 0x04
      &&h_kStoreB,  // 0x05
      &&h_kAddRR,   // 0x06
      &&h_kAddRI,   // 0x07
      &&h_kSubRR,   // 0x08
      &&h_kSubRI,   // 0x09
      &&h_kMulRR,   // 0x0A
      &&h_kDivRR,   // 0x0B
      &&h_kAndRR,   // 0x0C
      &&h_kOrRR,    // 0x0D
      &&h_kXorRR,   // 0x0E
      &&h_kShlRI,   // 0x0F
      &&h_kShrRI,   // 0x10
      &&h_kCmpRR,   // 0x11
      &&h_kCmpRI,   // 0x12
      &&h_branch,   // 0x13 kJmp
      &&h_branch,   // 0x14 kJe
      &&h_branch,   // 0x15 kJne
      &&h_branch,   // 0x16 kJlt
      &&h_branch,   // 0x17 kJle
      &&h_branch,   // 0x18 kJgt
      &&h_branch,   // 0x19 kJge
      &&h_branch,   // 0x1A kJb
      &&h_branch,   // 0x1B kJae
      &&h_kCall,    // 0x1C
      &&h_kRet,     // 0x1D
      &&h_kCallR,   // 0x1E
      &&h_kJmpR,    // 0x1F
      &&h_kPush,    // 0x20
      &&h_kPop,     // 0x21
      &&h_kSyscall, // 0x22
      &&h_kLea,     // 0x23
      &&h_kNop,     // 0x24
      &&h_kTrap,    // 0x25
  };
  VX_DISPATCH();
#else
loop_top:
  if (n >= max_instr) goto budget_exit;
  switch (code[idx].op) {
#endif

  VX_OP(kMovRI) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] = static_cast<uint64_t>(o.imm);
    VX_NEXT();
  }
  VX_OP(kMovRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] = r[o.r2];
    VX_NEXT();
  }
  VX_OP(kLoad) {
    const Superblock::ThreadedOp& o = code[idx];
    uint64_t v;
    Access a = mem.read(r[o.r2] + o.imm, &v, 8, kProtRead);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    r[o.r1] = v;
    VX_NEXT();
  }
  VX_OP(kStore) {
    const Superblock::ThreadedOp& o = code[idx];
    Access a = mem.write(r[o.r1] + o.imm, &r[o.r2], 8, kProtWrite);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    ++n;
    if (deopt_check(o.ip + o.length)) goto exit;
    ++idx;
    VX_DISPATCH();
  }
  VX_OP(kLoadB) {
    const Superblock::ThreadedOp& o = code[idx];
    uint8_t v;
    Access a = mem.read(r[o.r2] + o.imm, &v, 1, kProtRead);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    r[o.r1] = v;
    VX_NEXT();
  }
  VX_OP(kStoreB) {
    const Superblock::ThreadedOp& o = code[idx];
    uint8_t v = static_cast<uint8_t>(r[o.r2]);
    Access a = mem.write(r[o.r1] + o.imm, &v, 1, kProtWrite);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    ++n;
    if (deopt_check(o.ip + o.length)) goto exit;
    ++idx;
    VX_DISPATCH();
  }
  VX_OP(kAddRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] += r[o.r2];
    VX_NEXT();
  }
  VX_OP(kAddRI) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] += static_cast<uint64_t>(o.imm);
    VX_NEXT();
  }
  VX_OP(kSubRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] -= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kSubRI) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] -= static_cast<uint64_t>(o.imm);
    VX_NEXT();
  }
  VX_OP(kMulRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] *= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kDivRR) {
    const Superblock::ThreadedOp& o = code[idx];
    if (r[o.r2] == 0) {
      fault(o, FaultType::kFpe, o.ip);
      goto exit;
    }
    r[o.r1] /= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kAndRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] &= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kOrRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] |= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kXorRR) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] ^= r[o.r2];
    VX_NEXT();
  }
  VX_OP(kShlRI) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] <<= (o.imm & 63);
    VX_NEXT();
  }
  VX_OP(kShrRI) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] >>= (o.imm & 63);
    VX_NEXT();
  }
  VX_OP(kCmpRR) {
    const Superblock::ThreadedOp& o = code[idx];
    set_flags(cpu, r[o.r1], r[o.r2]);
    VX_NEXT();
  }
  VX_OP(kCmpRI) {
    const Superblock::ThreadedOp& o = code[idx];
    set_flags(cpu, r[o.r1], static_cast<uint64_t>(o.imm));
    VX_NEXT();
  }

#if DYNACUT_DIRECT_THREADING
h_branch:
#else
  case Op::kJmp:
  case Op::kJe:
  case Op::kJne:
  case Op::kJlt:
  case Op::kJle:
  case Op::kJgt:
  case Op::kJge:
  case Op::kJb:
  case Op::kJae:
#endif
  {
    const Superblock::ThreadedOp& o = code[idx];
    const bool taken = branch_taken(cpu, o.op);
    ++n;
    const int32_t nx = taken ? o.taken : o.next;
    if (nx < 0) {
      cpu.ip = taken ? o.target : o.ip + o.length;
      slot = Superblock::exit_slot(nx);
      goto branch_exit;
    }
    idx = nx;  // branch resolved to a trace index: the loop stays hot
    VX_DISPATCH();
  }

  VX_OP(kCall) {
    const Superblock::ThreadedOp& o = code[idx];
    uint64_t ra = o.ip + o.length;
    cpu.sp() -= 8;
    // On a push fault sp stays decremented — the interpreter's execute()
    // behaves identically, and deopt consistency depends on matching it.
    Access a = mem.write(cpu.sp(), &ra, 8, kProtWrite);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    ++n;
    if (o.taken < 0) {
      cpu.ip = o.target;
      slot = Superblock::exit_slot(o.taken);
      goto branch_exit;
    }
    if (deopt_check(o.target)) goto exit;  // the ra push may hit a W+X page
    idx = o.taken;
    VX_DISPATCH();
  }
  VX_OP(kCallR) {
    const Superblock::ThreadedOp& o = code[idx];
    uint64_t ra = o.ip + o.length;
    cpu.sp() -= 8;
    Access a = mem.write(cpu.sp(), &ra, 8, kProtWrite);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    ++n;
    cpu.ip = r[o.r1];
    slot = Superblock::exit_slot(o.taken);
    goto branch_exit;
  }
  VX_OP(kRet) {
    const Superblock::ThreadedOp& o = code[idx];
    uint64_t ra;
    Access a = mem.read(cpu.sp(), &ra, 8, kProtRead);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    cpu.sp() += 8;
    cpu.ip = ra;
    ++n;
    slot = Superblock::exit_slot(o.taken);
    goto branch_exit;
  }
  VX_OP(kJmpR) {
    const Superblock::ThreadedOp& o = code[idx];
    cpu.ip = r[o.r1];
    ++n;
    slot = Superblock::exit_slot(o.taken);
    goto branch_exit;
  }
  VX_OP(kPush) {
    const Superblock::ThreadedOp& o = code[idx];
    cpu.sp() -= 8;
    Access a = mem.write(cpu.sp(), &r[o.r1], 8, kProtWrite);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    ++n;
    if (deopt_check(o.ip + o.length)) goto exit;
    ++idx;
    VX_DISPATCH();
  }
  VX_OP(kPop) {
    const Superblock::ThreadedOp& o = code[idx];
    uint64_t v;
    Access a = mem.read(cpu.sp(), &v, 8, kProtRead);
    if (!a.ok) {
      fault(o, FaultType::kSegv, a.fault_addr);
      goto exit;
    }
    cpu.sp() += 8;
    r[o.r1] = v;
    VX_NEXT();
  }
  VX_OP(kSyscall) {
    const Superblock::ThreadedOp& o = code[idx];
    cpu.ip = o.ip + o.length;
    ++n;
    res.kind = StepKind::kSyscall;
    res.block_end = true;
    why = SbExit::kEvent;
    goto exit;
  }
  VX_OP(kTrap) {
    const Superblock::ThreadedOp& o = code[idx];
    // ip intentionally NOT advanced (same contract as the interpreter):
    // the signal frame records the trap address for patch/re-execute.
    cpu.ip = o.ip;
    ++n;
    res.kind = StepKind::kTrap;
    res.fault_addr = o.ip;
    res.block_end = true;
    why = SbExit::kEvent;
    goto exit;
  }
  VX_OP(kLea) {
    const Superblock::ThreadedOp& o = code[idx];
    r[o.r1] = o.target;
    VX_NEXT();
  }
  VX_OP(kNop) {
    VX_NEXT();
  }

#if !DYNACUT_DIRECT_THREADING
  }
  goto loop_top;  // unreachable: every handler ends in a jump
#endif

branch_exit:
  // A terminator retired and left the trace through link `slot`.
  res.block_end = true;
  why = SbExit::kBranch;
  goto exit;

budget_exit:
  cpu.ip = code[idx].ip;
  why = SbExit::kBudget;
exit:
  executed = n;
  return res;
}

#undef VX_OP
#undef VX_DISPATCH
#undef VX_NEXT

}  // namespace dynacut::vm
