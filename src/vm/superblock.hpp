// Superblock translation cache: JIT-style threaded-code execution for hot
// VX64 paths (DESIGN.md §12).
//
// The decode cache (exec.hpp) removed fetch+decode from the hot loop but
// still dispatches one instruction at a time, paying a page lookup, a slot
// consult and a generation dereference per instruction. This layer goes one
// step further, the way DBI engines (DynamoRIO, Pin) do: once a block entry
// gets hot, the straight-line chain reachable from it across fallthrough
// and *direct* branches is fused into a superblock — a trace of pre-resolved
// "threaded code" ops (opcode + register indices + immediate + precomputed
// branch target) executed by a tight dispatch loop. Branches whose target
// lies inside the trace re-enter it by index, so a serving loop runs
// entirely inside one superblock with no per-iteration cache traffic.
//
// Correctness contract (same invariant currency as the decode cache):
//   * a superblock records the `(generation-slot, generation)` pair of every
//     page it spans; it is validated against all of them at dispatch entry
//     and re-validated after every instruction that writes guest memory.
//     Any mismatch retires the superblock and *deoptimizes*: dispatch stops
//     at a consistent architectural state (every instruction either fully
//     retired or not started) and the caller resumes on the interpreter
//     path, which re-fetches precisely. int3 patches, verifier byte-heals,
//     wipes and unmaps therefore take effect on the very next fetched
//     instruction, exactly as they do under the decode cache.
//   * traps, faults and syscalls inside a trace surface as ordinary
//     StepResults with the interpreter's ip semantics (trap/fault: ip on
//     the instruction; syscall: ip after it).
//   * the whole cache drops on an asid change (address space rebuilt).
//   * indirect transfers (ret / callr / jmpr) and syscalls end traces;
//     unterminated block scans (BlockInfo::terminated == false) are never
//     fused.
//
// Chaining: every exit of a trace owns one link slot remembering the trace
// position its last target resolved to. An exit whose link is current
// (same link epoch, same target ip) and whose target's pages are valid
// continues straight into that trace — the trace-linking step of DBI code
// caches — instead of returning to run_block for a hash lookup. A stale
// link is refilled from the entry-point table. Every retire and clear()
// bumps the cache's link epoch, so a link can never reach a freed trace.
// Links are not followed while lifecycle events are pending or once the
// budget is spent: each chained entry happens exactly where run_block's
// lookup would have dispatched it, so heat, builds, entries() and event
// timestamps are the same with or without links.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"

namespace dynacut::vm {

/// Why a superblock dispatch returned to run_block.
enum class SbExit : uint8_t {
  kEvent,   ///< trap/syscall/fault surfaced; see the StepResult
  kBranch,  ///< a terminator retired with a target outside the trace and
            ///< no live linked trace to continue in
  kBudget,  ///< instruction budget exhausted; cpu.ip at the next instruction
  kDeopt,   ///< a spanned page's generation bumped mid-trace; superblock
            ///< retired, caller resumes on the interpreter path
};

/// One fused trace in threaded-code form. Built and owned by
/// SuperblockCache; immutable after construction.
class Superblock {
 public:
  /// Successor encoding in ThreadedOp::taken/next: a value >= 0 is a trace
  /// index; a negative value leaves the trace through link slot
  /// exit_slot(value). kNone marks a successor the op does not have.
  static constexpr int32_t kNone = INT32_MIN;
  static constexpr int32_t exit_via(uint32_t slot) {
    return -1 - static_cast<int32_t>(slot);
  }
  static constexpr uint32_t exit_slot(int32_t succ) {
    return static_cast<uint32_t>(-1 - succ);
  }

  /// A pre-resolved instruction: everything the dispatch loop needs, with
  /// no decode, no operand resolution and no target arithmetic at run time.
  struct ThreadedOp {
    isa::Op op = isa::Op::kNop;
    uint8_t r1 = 0;
    uint8_t r2 = 0;
    uint8_t length = 1;  ///< encoded size (ip advance / syscall resume)
    uint8_t hidx = 0;    ///< dense dispatch-table index (superblock.cpp)
    int32_t taken = kNone;  ///< successor when the transfer is taken
    int32_t next = kNone;   ///< fallthrough successor
    int64_t imm = 0;        ///< immediate / displacement / shift amount
    uint64_t ip = 0;        ///< architectural address of this instruction
    uint64_t target = 0;    ///< precomputed static transfer / lea target
  };

  uint64_t entry() const { return entry_; }
  uint32_t instr_count() const { return static_cast<uint32_t>(ops_.size()); }
  uint32_t page_count() const { return static_cast<uint32_t>(pages_.size()); }

 private:
  friend class SuperblockCache;

  /// True while every spanned page still has the generation the trace was
  /// decoded against.
  bool pages_valid() const {
    for (const auto& [slot, gen] : pages_) {
      if (*slot != gen) return false;
    }
    return true;
  }

  /// One exit's chaining slot: where its target `ip` resolved to, valid
  /// while `epoch` equals the owning cache's link epoch.
  struct Link {
    Superblock* sb = nullptr;
    uint64_t ip = 0;
    uint64_t epoch = 0;
    int32_t idx = 0;
  };

  uint64_t entry_ = 0;
  size_t slot_ = 0;  ///< index in SuperblockCache::blocks_
  std::vector<ThreadedOp> ops_;
  /// One slot per exiting successor, assigned at build time (ret, callr
  /// and jmpr exits included; syscall and trap exits are events).
  std::vector<Link> links_;
  /// (live generation-slot pointer, generation at build time) per page the
  /// trace's instruction bytes span. Slot pointers are stable for the
  /// address space's lifetime (AddressSpace::page_generation_slot).
  std::vector<std::pair<const uint64_t*, uint64_t>> pages_;
};
// The dispatch loop streams these; keep one op within 40 bytes.
static_assert(sizeof(Superblock::ThreadedOp) <= 40);

/// A hash map from guest ip to a small value in one flat array: linear
/// probing over a power-of-two table, backward-shift erase (no
/// tombstones). A worker's trace tables are a few heap chunks, not a node
/// per ip.
template <class V>
class IpMap {
 public:
  /// The slot `ip`'s probe starts at in a table of `capacity` slots (a
  /// power of two >= 2): the top bits of a Fibonacci hash.
  static size_t home(uint64_t ip, size_t capacity) {
    return static_cast<size_t>((ip * 0x9E3779B97F4A7C15ull) >>
                               (64 - std::countr_zero(capacity)));
  }

  /// The value at `ip`, or nullptr. Valid until the next insert or erase.
  V* find(uint64_t ip) {
    if (size_ == 0) return nullptr;
    for (size_t i = home(ip, slots_.size());; i = next(i)) {
      if (!slots_[i].used) return nullptr;
      if (slots_[i].ip == ip) return &slots_[i].value;
    }
  }

  /// The value at `ip`, inserted value-initialized if absent.
  V& operator[](uint64_t ip) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    size_t i = home(ip, slots_.size());
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].ip == ip) return slots_[i].value;
    }
    slots_[i] = Slot{ip, V{}, true};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `ip`; false if it was absent.
  bool erase(uint64_t ip) {
    if (size_ == 0) return false;
    size_t hole = home(ip, slots_.size());
    for (; slots_[hole].ip != ip || !slots_[hole].used; hole = next(hole)) {
      if (!slots_[hole].used) return false;
    }
    // Backward shift: each later member of the probe run moves into the
    // hole when the hole lies between its home and its slot (cyclically),
    // so every key stays reachable from its home without tombstones.
    const size_t mask = slots_.size() - 1;
    for (size_t j = next(hole); slots_[j].used; j = next(j)) {
      if (((j - home(slots_[j].ip, slots_.size())) & mask) >=
          ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drops every entry and the table.
  void clear() {
    slots_ = std::vector<Slot>();
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// Calls f(ip, value) for every entry, in table order.
  template <class F>
  void for_each(F f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.ip, s.value);
    }
  }

 private:
  struct Slot {
    uint64_t ip = 0;
    V value{};
    bool used = false;
  };

  size_t next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Doubles the table (16 slots at first) and re-homes every entry.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (!s.used) continue;
      size_t i = home(s.ip, slots_.size());
      while (slots_[i].used) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// Per-process superblock cache. One per guest CPU, owned next to the
/// DecodeCache (os::Process); pass it to run_block. Non-copyable for the
/// same reason the decode cache is: traces hold generation-slot pointers
/// into one specific AddressSpace.
class SuperblockCache {
 public:
  /// Dispatch entries into a trace before it is built. Low enough that a
  /// serving loop compiles within its first scheduler quantum, high enough
  /// that straight-through init code is never traced.
  static constexpr uint32_t kHotThreshold = 8;
  /// Trace limits: whole blocks are appended until one of these trips.
  static constexpr size_t kMaxOps = 512;
  static constexpr size_t kMaxPages = 8;
  static constexpr uint64_t kMaxBlockBytes = 4096;
  static constexpr size_t kMaxSuperblocks = 4096;

  SuperblockCache() = default;
  SuperblockCache(const SuperblockCache&) = delete;
  SuperblockCache& operator=(const SuperblockCache&) = delete;

  /// Drops every trace and heat counter (stats are kept) and kills every
  /// link. Called by checkpoint restore; also self-triggers on an asid
  /// change.
  void clear();

  // --- stats -------------------------------------------------------------
  uint64_t builds() const { return builds_; }
  uint64_t retires() const { return retires_; }
  uint64_t deopts() const { return deopts_; }
  /// Number of dispatch entries (trace activations), chained ones included.
  uint64_t entries() const { return entries_; }
  /// Trace activations reached through an exit's link, without a return
  /// to run_block.
  uint64_t chained() const { return chained_; }
  /// Instructions retired inside superblock dispatch.
  uint64_t sb_instrs() const { return sb_instrs_; }
  size_t superblocks() const { return blocks_.size(); }

  // --- lifecycle events for the observability layer ----------------------
  // The vm layer must not depend on obs, so build/retire/deopt are queued
  // here as plain records; os::run_quantum drains them onto the event bus
  // (sb.build / sb.retire / sb.deopt) after every run_block call.
  struct SbEvent {
    enum Kind : uint8_t { kBuild, kRetire, kDeopt } kind;
    uint64_t entry = 0;   ///< trace entry address
    uint64_t detail = 0;  ///< build/retire: instr count; deopt: resume ip
  };
  bool events_pending() const { return !events_.empty(); }
  std::vector<SbEvent> take_events() { return std::move(events_); }

  // --- execution interface (used by run_block) ---------------------------
  /// A dispatchable position inside a trace (sb == nullptr: no trace).
  struct Ref {
    Superblock* sb = nullptr;
    int32_t idx = 0;
  };

  /// Returns a validated trace position covering `ip`, or counts heat and
  /// (at kHotThreshold) builds one. A trace whose pages went stale is
  /// retired here — before anything executes from it.
  Ref lookup(const AddressSpace& mem, uint64_t ip);

  /// Executes the trace from `ref` — and the live traces its exits link
  /// to — until an exit (see SbExit). Appends the number of attempted
  /// instructions to `attempted`; cpu is left at a consistent architectural
  /// state for every exit kind.
  StepResult dispatch(AddressSpace& mem, Cpu& cpu, const Ref& ref,
                      uint64_t max_instr, uint64_t& attempted, SbExit& why);

 private:
  /// Resets the cache if `mem` is not the address space it was built from.
  void sync(const AddressSpace& mem);

  /// Traces and threads a superblock starting at `entry`. Returns nullptr
  /// if nothing fusable starts there (unterminated scan, undecodable entry,
  /// cache full).
  Superblock* build(const AddressSpace& mem, uint64_t entry);

  /// Executes one trace from `at` until it exits; `slot` names the link of
  /// a kBranch exit. `executed` counts attempted instructions across the
  /// chained traces of one dispatch (the budget applies to the total).
  StepResult run_trace(AddressSpace& mem, Cpu& cpu, Ref at,
                       uint64_t max_instr, uint64_t& executed, SbExit& why,
                       uint32_t& slot);

  /// Unregisters and frees one trace and kills every link. `deopt` marks a
  /// mid-dispatch exit (counted separately; entry-check retirements are
  /// plain retires).
  void retire(Superblock* sb, bool deopt, uint64_t resume_ip);

  void push_event(SbEvent::Kind kind, uint64_t entry, uint64_t detail);

  /// Forgets every ip's heat, keeping the traced ips.
  void clear_heat();

  /// One ip's row: the trace position covering it (sb == nullptr: none;
  /// the first trace to cover an ip keeps it) and its dispatch heat while
  /// no trace starts there. A row with neither is erased.
  struct IpRow {
    Superblock* sb = nullptr;
    int32_t idx = 0;
    uint32_t heat = 0;
  };
  IpMap<IpRow> ips_;
  size_t heat_rows_ = 0;  ///< rows with heat > 0
  /// Every live trace; Superblock::slot_ is its index (swap-remove).
  std::vector<std::unique_ptr<Superblock>> blocks_;
  std::vector<SbEvent> events_;
  uint64_t asid_ = 0;
  /// Links filled at another epoch are dead. Starts above a fresh Link's 0.
  uint64_t link_epoch_ = 1;

  uint64_t builds_ = 0;
  uint64_t retires_ = 0;
  uint64_t deopts_ = 0;
  uint64_t entries_ = 0;
  uint64_t chained_ = 0;
  uint64_t sb_instrs_ = 0;
};

}  // namespace dynacut::vm
