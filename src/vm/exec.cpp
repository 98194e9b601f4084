#include "vm/exec.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "vm/ops.hpp"
#include "vm/superblock.hpp"

namespace dynacut::vm {

using isa::Instr;
using isa::Op;

StepResult fetch(const AddressSpace& mem, uint64_t ip, Instr& out) {
  // Fast path: speculatively read a maximal instruction in one go — almost
  // always hits the cached page.
  uint8_t buf[isa::kMaxInstrLength];
  uint8_t len = sizeof buf;
  if (!mem.read(ip, buf, len, kProtExec).ok) {
    // Near an unreadable page: the opcode, then exactly the rest.
    Access a = mem.read(ip, buf, 1, kProtExec);
    if (a.ok) {
      len = isa::instr_length(buf[0]);
      if (len == 0) return {StepKind::kFault, FaultType::kIll, ip, false};
      if (len > 1) a = mem.read(ip + 1, buf + 1, len - 1, kProtExec);
    }
    if (!a.ok) return {StepKind::kFault, FaultType::kSegv, a.fault_addr, false};
  }
  auto ins = isa::try_decode({buf, len});
  if (!ins) return {StepKind::kFault, FaultType::kIll, ip, false};
  out = *ins;
  return {};
}

namespace {

VX_INLINE StepResult retire(Cpu& cpu, const Instr& ins, ops::Fault f) {
  if (f) return {StepKind::kFault, f.type, f.addr, false};
  cpu.ip += ins.length;
  return {};
}

VX_INLINE StepResult transfer(Cpu& cpu, ops::Fault f, uint64_t to) {
  if (f) return {StepKind::kFault, f.type, f.addr, false};
  cpu.ip = to;
  return {StepKind::kOk, FaultType::kNone, 0, true};
}

// Interpreter control per op class: where ip goes once the op's semantic
// function ran, and which results end a basic block.
#define EX_kAlu(name) return retire(cpu, ins, ops::name(cpu, r, ins));
#define EX_kNop EX_kAlu
#define EX_kLoad(name) return retire(cpu, ins, ops::name(mem, r, ins));
#define EX_kStore EX_kLoad
#define EX_kPush EX_kLoad
#define EX_kPop EX_kLoad
#define EX_kCondBranch(name)                                          \
  cpu.ip = ops::name(cpu) ? ins.target(cpu.ip) : cpu.ip + ins.length; \
  return {StepKind::kOk, FaultType::kNone, 0, true};
#define EX_kJump EX_kCondBranch
#define EX_kCall(name)                                  \
  const ops::Fault f = ops::name(mem, cpu, r, ins, to); \
  return transfer(cpu, f, to);
#define EX_kCallR EX_kCall
#define EX_kRet EX_kCall
#define EX_kJmpR EX_kCall
#define EX_kSyscall(name) \
  cpu.ip += ins.length;   \
  return {StepKind::kSyscall, FaultType::kNone, 0, true};
// ip intentionally NOT advanced: the signal frame records the trap address
// so a handler can patch/redirect and re-execute.
#define EX_kTrap(name) return {StepKind::kTrap, FaultType::kNone, cpu.ip, true};

/// Executes one already-decoded instruction at cpu.ip. Force-inlined into
/// the step/run_block loops: the call overhead is measurable at the
/// instructions-per-second scale even in unoptimized builds.
VX_INLINE StepResult execute(AddressSpace& mem, Cpu& cpu, const Instr& ins) {
  uint64_t* const r = cpu.regs.data();
  uint64_t to = 0;
  switch (ins.op) {
#define EX_CASE(name, byte, mn, fmt, cls, ...) \
  case Op::name: {                             \
    EX_##cls(name)                             \
  }
    VX64_OPS(EX_CASE)
#undef EX_CASE
  }
  return {StepKind::kFault, FaultType::kIll, cpu.ip, false};
}

}  // namespace

// ---------------------------------------------------------------------------
// DecodeCache
// ---------------------------------------------------------------------------

std::shared_ptr<DecodedPage> DecodedPageRegistry::attach(
    std::span<const uint8_t> bytes) {
  DYNACUT_ASSERT(bytes.size() == kPageSize);
  if (entries_ >= 2 * live_at_sweep_ + kSweepFloor) sweep();
  auto& bucket = buckets_[page_hash(bytes)];
  for (auto it = bucket.begin(); it != bucket.end();) {
    std::shared_ptr<DecodedPage> candidate = it->lock();
    if (candidate == nullptr) {
      it = bucket.erase(it);
      --entries_;
      continue;
    }
    // Full compare: a hash hit alone never shares decodes.
    if (std::equal(bytes.begin(), bytes.end(), candidate->bytes.begin())) {
      return candidate;
    }
    ++it;
  }
  // A separate control block: the 132 KiB page is freed with its last
  // process, not with the registry's last weak reference.
  std::shared_ptr<DecodedPage> page(new DecodedPage);
  std::copy(bytes.begin(), bytes.end(), page->bytes.begin());
  bucket.push_back(page);
  ++entries_;
  return page;
}

void DecodedPageRegistry::sweep() {
  entries_ = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& bucket = it->second;
    std::erase_if(bucket, [](const auto& page) { return page.expired(); });
    entries_ += bucket.size();
    it = bucket.empty() ? buckets_.erase(it) : std::next(it);
  }
  live_at_sweep_ = entries_;
}

void DecodeCache::attach(DecodedPageRegistry& registry) {
  registry_ = &registry;
  clear();
}

size_t DecodeCache::cached_pages() const {
  size_t n = 0;
  for (const auto& [addr, e] : pages_) n += e.page != nullptr ? 1 : 0;
  return n;
}

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
      bind(mem, page_addr, *e);
    }
    last_page_ = page_addr;
    last_entry_ = e;
  }
  if (*e->live_gen != e->gen) {
    // The page (or its mapping) changed since the slots were decoded:
    // rebind to the new content. Slots refill lazily against the new bytes.
    bind(mem, page_addr, *e);
    ++invalidations_;
  }
  return e->page != nullptr ? e : nullptr;
}

void DecodeCache::bind(const AddressSpace& mem, uint64_t page_addr,
                       PageEntry& e) {
  e.gen = *e.live_gen;
  const Vma* v = mem.vma_at(page_addr);
  if (v == nullptr || (v->prot & kProtExec) == 0) {
    e.page.reset();  // every fetch here faults: nothing to decode
  } else if (registry_ != nullptr && mem.page_live(page_addr)) {
    // Sharing needs an executable mapping: a sibling's slots were decoded
    // under one, and a hit skips the fetch's protection check.
    e.page = registry_->attach(mem.page_bytes(page_addr));
  } else {
    e.page.reset(new DecodedPage);
  }
}

bool DecodeCache::fill_slot(const AddressSpace& mem, uint64_t ip, Slot& s) {
  const StepResult f = vm::fetch(mem, ip, s.ins);
  if (f.fault == FaultType::kSegv) return false;
  s.state = f.kind == StepKind::kOk ? kValid : kBad;
  return true;
}

StepResult DecodeCache::fetch(AddressSpace& mem, uint64_t ip,
                              isa::Instr& out) {
  sync(mem);
  const uint64_t page = page_floor(ip);
  const uint64_t off = ip - page;
  PageEntry* e = off + isa::kMaxInstrLength <= kPageSize ? entry_for(mem, page)
                                                         : nullptr;
  if (e == nullptr) {
    // A possible page-straddler (its decode would also depend on the next
    // page's generation) or a page with no executable mapping: uncached.
    ++misses_;
    return vm::fetch(mem, ip, out);
  }
  Slot& s = e->page->slots[off];
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
      Slot* slots = e->page->slots.data();
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
      // Page-edge instruction, non-executable page or fetch, or a
      // generation bump raced the entry lookup: take the generic
      // single-step path so the loop always advances.
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
  Instr ins;
  while (cur - addr < max_bytes &&
         fetch(mem, cur, ins).kind == StepKind::kOk) {
    cur += ins.length;
    info.size = cur - addr;
    info.instr_count += 1;
    if (isa::is_terminator(ins.op)) {
      info.terminated = true;
      break;
    }
  }
  return info;
}

}  // namespace dynacut::vm
