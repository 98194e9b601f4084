#include "vm/superblock.hpp"

#include <algorithm>
#include <array>

#include "vm/ops.hpp"

namespace dynacut::vm {

namespace {

using isa::Instr;
using isa::OpClass;

/// Dense dispatch-table index of each opcode byte: its VX64_OPS row, the
/// order run_trace's jump table lists its handlers in.
constexpr std::array<uint8_t, 256> kDenseIndex = [] {
  std::array<uint8_t, 256> t{};
  uint8_t i = 0;
#define SB_INDEX(name, byte, ...) t[byte] = i++;
  VX64_OPS(SB_INDEX)
#undef SB_INDEX
  return t;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

void SuperblockCache::clear() {
  ips_.clear();
  heat_rows_ = 0;
  blocks_.clear();
  ++link_epoch_;
}

void SuperblockCache::clear_heat() {
  IpMap<IpRow> traced;
  ips_.for_each([&traced](uint64_t ip, const IpRow& row) {
    if (row.sb != nullptr) traced[ip] = {row.sb, row.idx, 0};
  });
  ips_ = std::move(traced);
  heat_rows_ = 0;
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
    IpRow* row = ips_.find(o.ip);
    if (row == nullptr || row->sb != sb) continue;
    if (row->heat == 0) {
      ips_.erase(o.ip);
    } else {
      row->sb = nullptr;
    }
  }
  ++link_epoch_;  // links into `sb` (or anywhere) must not be followed
  ++retires_;
  push_event(SbEvent::kRetire, sb->entry_, sb->instr_count());
  if (deopt) {
    ++deopts_;
    push_event(SbEvent::kDeopt, sb->entry_, resume_ip);
  }
  const size_t at = sb->slot_;
  std::swap(blocks_[at], blocks_.back());
  blocks_[at]->slot_ = at;
  blocks_.pop_back();  // frees sb
}

// ---------------------------------------------------------------------------
// Trace selection + threading
// ---------------------------------------------------------------------------

SuperblockCache::Ref SuperblockCache::lookup(const AddressSpace& mem,
                                             uint64_t ip) {
  sync(mem);
  if (const IpRow* row = ips_.find(ip); row != nullptr && row->sb != nullptr) {
    const Ref ref{row->sb, row->idx};
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
  if (heat_rows_ > (1u << 16)) clear_heat();  // runaway-workload bound
  IpRow& row = ips_[ip];
  if (row.heat++ == 0) ++heat_rows_;
  if (row.heat < kHotThreshold) return {};
  ips_.erase(ip);  // no trace covers ip: its row was heat only
  --heat_rows_;
  Superblock* sb = build(mem, ip);
  if (sb == nullptr) return {};
  return {sb, 0};
}

Superblock* SuperblockCache::build(const AddressSpace& mem, uint64_t entry) {
  auto owned = std::make_unique<Superblock>();
  Superblock* sb = owned.get();
  sb->entry_ = entry;
  std::vector<uint64_t> pages;  // spanned so far
  auto spanned = [&pages](uint64_t page) {
    return std::find(pages.begin(), pages.end(), page) != pages.end();
  };

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

    size_t new_pages = 0;
    for (uint64_t page = page_floor(ip); page < ip + bi.size;
         page += kPageSize) {
      if (!spanned(page)) ++new_pages;
    }
    if (pages.size() + new_pages > kMaxPages) break;

    uint64_t cur = ip;
    for (uint32_t i = 0; i < bi.instr_count; ++i) {
      Instr ins;
      if (fetch(mem, cur, ins).kind != StepKind::kOk) return nullptr;
      // ^ disagrees with the block scan — cannot happen single-threaded,
      // but a half-threaded block must never be registered.
      Superblock::ThreadedOp op;
      op.op = ins.op;
      op.r1 = ins.r1;
      op.r2 = ins.r2;
      op.length = ins.length;
      op.hidx = kDenseIndex[static_cast<uint8_t>(ins.op)];
      op.imm = ins.imm;
      op.ip = cur;
      op.target = ins.target(cur);  // resolved once, never recomputed
      sb->ops_.push_back(op);
      cur += ins.length;
    }
    for (uint64_t page = page_floor(ip); page < ip + bi.size;
         page += kPageSize) {
      if (!spanned(page)) pages.push_back(page);
    }

    const Superblock::ThreadedOp& last = sb->ops_.back();
    uint64_t next_ip;
    if (isa::is_cond_branch(last.op)) {
      next_ip = last.ip + last.length;  // fuse along the fallthrough
    } else if (isa::is_direct_transfer(last.op)) {
      next_ip = last.target;  // fuse through jmp / call
    } else {
      break;  // ret/callr/jmpr/syscall/trap: trace ends here
    }
    if (std::any_of(sb->ops_.begin(), sb->ops_.end(),
                    [next_ip](const auto& o) { return o.ip == next_ip; })) {
      break;  // loop closed inside the trace
    }
    ip = next_ip;
  }
  if (sb->ops_.empty()) return nullptr;

  // (ip, index) of every op, ascending; an ip the trace holds twice (blocks
  // overlapping at a misaligned entry) resolves to its first op.
  std::vector<std::pair<uint64_t, int32_t>> index_of;
  index_of.reserve(sb->ops_.size());
  for (size_t i = 0; i < sb->ops_.size(); ++i) {
    index_of.emplace_back(sb->ops_[i].ip, static_cast<int32_t>(i));
  }
  std::sort(index_of.begin(), index_of.end());
  index_of.erase(std::unique(index_of.begin(), index_of.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 index_of.end());

  // Thread the ops: successors become trace indices where the target is
  // inside the trace; every successor that leaves it gets its own link
  // slot (the precomputed address or, for ret/callr/jmpr, the run-time
  // one is the exit's target).
  uint32_t exits = 0;
  auto index_or_exit = [&](uint64_t at) {
    auto f = std::lower_bound(
        index_of.begin(), index_of.end(), at,
        [](const auto& entry, uint64_t a) { return entry.first < a; });
    return f == index_of.end() || f->first != at
               ? Superblock::exit_via(exits++)
               : f->second;
  };
  for (size_t i = 0; i < sb->ops_.size(); ++i) {
    Superblock::ThreadedOp& o = sb->ops_[i];
    switch (isa::op_class(o.op)) {
      case OpClass::kCondBranch:
        o.taken = index_or_exit(o.target);
        o.next = index_or_exit(o.ip + o.length);
        break;
      case OpClass::kJump:
      case OpClass::kCall:
        o.taken = index_or_exit(o.target);
        break;
      case OpClass::kCallR:
      case OpClass::kRet:
      case OpClass::kJmpR:
        o.taken = Superblock::exit_via(exits++);
        break;
      case OpClass::kSyscall:
      case OpClass::kTrap:
        break;  // no successor: they exit as events
      default:
        o.next = static_cast<int32_t>(i + 1);  // same block, always present
    }
  }
  sb->links_.resize(exits);

  for (uint64_t page : pages) {
    sb->pages_.emplace_back(mem.page_generation_slot(page),
                            mem.page_generation(page));
  }

  for (const auto& [op_ip, idx] : index_of) {
    // First trace wins: an ip already claimed by a live superblock keeps
    // its mapping (the overlap executes identically either way). Its heat
    // stays with the row.
    IpRow& row = ips_[op_ip];
    if (row.sb == nullptr) {
      row.sb = sb;
      row.idx = idx;
    }
  }
  sb->slot_ = blocks_.size();
  blocks_.push_back(std::move(owned));
  ++builds_;
  push_event(SbEvent::kBuild, entry, sb->instr_count());
  return sb;
}

// ---------------------------------------------------------------------------
// Threaded-code dispatch
// ---------------------------------------------------------------------------
//
// The dispatch is direct-threaded: every handler ends in its own computed
// goto through the dense jump table, so the branch predictor sees one
// indirect-jump site per handler instead of a single shared switch site,
// and straight-line successors are a register increment (build invariant:
// next == idx + 1 for every non-terminator) rather than a loaded index — no
// pointer chase on the critical path.

#if !defined(__GNUC__)
#error "superblock dispatch needs computed goto (GCC or Clang)"
#endif

// The budget is re-checked before entering the next handler; replicating
// the check keeps it a predictable not-taken branch at every site.
#define VX_DISPATCH()                     \
  do {                                    \
    if (n >= max_instr) goto budget_exit; \
    goto* jt[code[idx].hidx];             \
  } while (0)
// Straight-line epilogue: charge the op, advance to the next trace slot.
#define VX_NEXT()  \
  do {             \
    ++n;           \
    ++idx;         \
    VX_DISPATCH(); \
  } while (0)
// A faulting op retires as a kFault event, ip on the op.
#define VX_FAULT(call)             \
  if (const ops::Fault f = call) { \
    fault(o, f);                   \
    goto exit;                     \
  }

// Trace control per op class (VX64_OPS); `o` is the op at code[idx].
#define SB_kAlu(name) VX_FAULT(ops::name(cpu, r, o)) VX_NEXT();
#define SB_kNop SB_kAlu
#define SB_kLoad(name) VX_FAULT(ops::name(mem, r, o)) VX_NEXT();
#define SB_kPop SB_kLoad
// A guest store may land on a page the trace spans: re-validate before the
// next op. The store itself retired.
#define SB_kStore(name)                        \
  VX_FAULT(ops::name(mem, r, o))               \
  ++n;                                         \
  if (deopt_check(o.ip + o.length)) goto exit; \
  ++idx;                                       \
  VX_DISPATCH();
#define SB_kPush SB_kStore
// All relative branches share one handler, `branch` in run_trace.
#define SB_kCondBranch(name) goto branch;
#define SB_kJump SB_kCondBranch
// A call continues into its callee when the callee is in the trace; the
// return-address push may hit a W+X page, so it re-validates like a store.
#define SB_kCall(name)                     \
  VX_FAULT(ops::name(mem, cpu, r, o, to))  \
  ++n;                                     \
  if (o.taken < 0) {                       \
    cpu.ip = to;                           \
    slot = Superblock::exit_slot(o.taken); \
    goto branch_exit;                      \
  }                                        \
  if (deopt_check(to)) goto exit;          \
  idx = o.taken;                           \
  VX_DISPATCH();
// ret / callr / jmpr always leave the trace through their link slot.
#define SB_kRet(name)                     \
  VX_FAULT(ops::name(mem, cpu, r, o, to)) \
  ++n;                                    \
  cpu.ip = to;                            \
  slot = Superblock::exit_slot(o.taken);  \
  goto branch_exit;
#define SB_kCallR SB_kRet
#define SB_kJmpR SB_kRet
#define SB_kSyscall(name)        \
  cpu.ip = o.ip + o.length;      \
  ++n;                           \
  res.kind = StepKind::kSyscall; \
  res.block_end = true;          \
  why = SbExit::kEvent;          \
  goto exit;
// ip intentionally NOT advanced (same contract as the interpreter): the
// signal frame records the trap address for patch/re-execute.
#define SB_kTrap(name)        \
  cpu.ip = o.ip;              \
  ++n;                        \
  res.kind = StepKind::kTrap; \
  res.fault_addr = o.ip;      \
  res.block_end = true;       \
  why = SbExit::kEvent;       \
  goto exit;

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
      const IpRow* row = ips_.find(cpu.ip);
      if (row == nullptr || row->sb == nullptr) break;  // lookup counts heat
      l = {row->sb, cpu.ip, link_epoch_, row->idx};
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
  uint64_t to = 0;  // a transfer's destination

  // Exit helpers. Every path out of the handlers leaves cpu.ip at the exact
  // address the interpreter would: retired transfers land on their target,
  // faults/traps stay on the instruction, budget stops point at the first
  // instruction not attempted.
  auto fault = [&](const Superblock::ThreadedOp& o, ops::Fault f) {
    cpu.ip = o.ip;
    ++n;
    res = {StepKind::kFault, f.type, f.addr, false};
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

  // One handler per VX64_OPS row, in kDenseIndex order.
  static const void* const jt[] = {
#define SB_LABEL(name, ...) &&h_##name,
      VX64_OPS(SB_LABEL)
#undef SB_LABEL
  };
  VX_DISPATCH();

#define SB_HANDLER(name, byte, mn, fmt, cls, ...)                 \
  h_##name : {                                                    \
    [[maybe_unused]] const Superblock::ThreadedOp& o = code[idx]; \
    SB_##cls(name)                                                \
  }
  VX64_OPS(SB_HANDLER)
#undef SB_HANDLER

branch: {
  // The condition is chosen here by one switch on the op, not in each
  // row's handler: that keeps GCC 12 from cross-jumping the handlers'
  // dispatch sites together (7 sites instead of 18 at -O2 and -O3).
  const Superblock::ThreadedOp& o = code[idx];
  const bool taken = ops::taken(cpu, o.op);
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

#undef VX_DISPATCH
#undef VX_NEXT
#undef VX_FAULT

}  // namespace dynacut::vm
