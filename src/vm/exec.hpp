// The VX64 executor: single-steps a CPU over an address space.
//
// The executor is policy-free: syscalls, traps and faults are reported to
// the caller (the OS simulator), which implements kernel behaviour.
//
// Hot-loop execution goes through a DecodeCache: per-page arrays of decoded
// instructions keyed by (page address, page generation). AddressSpace bumps
// a page's generation on every byte write to executable memory and on every
// map/protect/unmap over it, so live rewrites — int3 patches, trap-handler
// byte heals, block wipes, unmaps — take effect on the very next fetched
// instruction; there is no window where a stale decode can execute.
//
// The decoded arrays of executable code are shared machine-wide: a
// DecodedPageRegistry (one per os::Os) keys them by page content, so a
// worker forked from an image attaches to what its siblings decoded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"

namespace dynacut::vm {

enum class StepKind : uint8_t {
  kOk,       ///< instruction retired normally
  kSyscall,  ///< SYSCALL executed; ip already advanced past it
  kTrap,     ///< TRAP (0xCC) reached; ip still points at the trap byte
  kFault,    ///< SIGSEGV/SIGILL/SIGFPE condition; ip unchanged
};

struct StepResult {
  StepKind kind = StepKind::kOk;
  FaultType fault = FaultType::kNone;
  uint64_t fault_addr = 0;
  bool block_end = false;  ///< the retired instruction was a BB terminator
};

class DecodeCache;
class SuperblockCache;

/// Reads and decodes the instruction at `ip` from executable memory: one
/// kMaxInstrLength read, else the opcode byte and then exactly the rest (an
/// instruction may end right before an unreadable page). kFault with kSegv
/// at the first unreadable byte, or kIll on an invalid encoding. Every
/// decoder of guest memory (both VM tiers, block scans, the decode cache
/// and the gadget scanner) reads through here.
StepResult fetch(const AddressSpace& mem, uint64_t ip, isa::Instr& out);

/// Executes exactly one instruction. Never throws on guest misbehaviour —
/// all guest errors surface as kFault/kTrap results. With a cache, the
/// fetch+decode is served from (and fills) the cache; without one it reads
/// raw page bytes every time.
StepResult step(AddressSpace& mem, Cpu& cpu, DecodeCache* cache = nullptr);

/// Executes guest instructions and returns at the first of:
///   * an event: a syscall, trap or fault surfaced (see StepResult);
///   * the budget: `max_instr` instructions have been attempted (kOk, ip at
///     the first instruction not attempted);
///   * an exit with no live linked trace: a basic-block terminator retired
///     (kOk, block_end) and execution cannot continue inside a superblock.
/// `retired` returns the number of attempts (faulting/trapping instructions
/// count once, matching the per-step accounting of the OS scheduler).
///
/// Both caches are optional. `cache` serves fetch+decode on the
/// interpreter path: straight-line spans inside one cached page run off
/// the decoded array with a single generation check per instruction.
/// `sbc` runs hot entries as fused threaded-code traces
/// (vm/superblock.hpp): internal branches re-enter the trace, and an exit
/// whose target starts a live trace follows that trace's link without
/// returning — so one call may retire many basic blocks. Without `sbc`
/// every retired terminator is an exit with no live linked trace. A
/// mid-trace deoptimization (page generation bump) resumes on the
/// interpreter path within the same call.
StepResult run_block(AddressSpace& mem, Cpu& cpu, DecodeCache* cache,
                     SuperblockCache* sbc, uint64_t max_instr,
                     uint64_t& retired);

/// One page of decoded instructions: a slot per byte offset. A page the
/// registry shares also owns a snapshot of the 4 KiB it decodes, so it pins
/// no page block and never sees a later write to any process's page.
/// Pages are never re-keyed: a rebind replaces the entry's page.
struct DecodedPage {
  struct Slot {
    isa::Instr ins;
    uint8_t state = 0;  ///< kUnknown / kValid / kBad
  };
  static constexpr uint8_t kUnknown = 0;  ///< offset not decoded yet
  static constexpr uint8_t kValid = 1;    ///< ins holds the decode
  static constexpr uint8_t kBad = 2;      ///< undecodable: fetch is SIGILL

  std::array<Slot, kPageSize> slots;
  std::array<uint8_t, kPageSize> bytes;  ///< the snapshot (shared pages)
};

/// The machine's decoded code pages, keyed by content (vm::page_hash). One
/// per os::Os, handed to the DecodeCache of every process it runs. Holds
/// weak references only: a page dies with its last process.
class DecodedPageRegistry {
 public:
  /// The shared page decoding `bytes` (one page): an existing one whose
  /// snapshot equals them byte for byte, else a new one, registered.
  std::shared_ptr<DecodedPage> attach(std::span<const uint8_t> bytes);

  /// Registered pages, dead ones not yet swept included: at most twice
  /// the pages live at the last sweep, plus kSweepFloor.
  size_t entries() const { return entries_; }

  static constexpr size_t kSweepFloor = 64;

 private:
  /// Drops every dead entry. A guest that keeps rewriting its own code
  /// leaves one dead entry per content it ran; sweeping once the entries
  /// double keeps them bounded at O(1) amortized cost per attach.
  void sweep();

  /// hash -> pages; more than one live entry only under a collision. Dead
  /// entries are also pruned on every bucket walk.
  std::unordered_map<uint64_t, std::vector<std::weak_ptr<DecodedPage>>>
      buckets_;
  size_t entries_ = 0;
  size_t live_at_sweep_ = 0;
};

/// Per-page decoded-instruction cache. One per guest CPU/process; pass it
/// to step()/run_block(). Correctness contract:
///   * an entry is valid only while AddressSpace::page_generation(page)
///     equals the generation recorded when it was bound (checked per
///     fetch); a changed generation rebinds the entry;
///   * the whole cache resets when it observes a different asid — the
///     process memory was rebuilt, e.g. by checkpoint restore;
///   * instructions that could straddle a page boundary (offset within
///     kMaxInstrLength of the page end) are never cached;
///   * a page with no executable VMA binds no decoded page (every fetch
///     from it faults), so its fetches take the uncached path;
///   * with a registry, an entry binds the registry's page for its content
///     only while the page is populated and its VMA executable; any other
///     executable page gets a private array. A shared slot holds the decode
///     of the snapshot's bytes, which equal this process's bytes until its
///     generation moves, and only executable mappings reach it.
class DecodeCache {
 public:
  DecodeCache() = default;
  // Non-copyable: entries hold generation-slot pointers into a specific
  // AddressSpace and are meaningless for any other process image.
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Shares executable pages through `registry` from now on (os::Os does
  /// this for every process it starts). Drops the pages cached so far.
  void attach(DecodedPageRegistry& registry);

  /// Drops every cached page (stats are kept). Called by checkpoint restore;
  /// also self-triggers on an asid change.
  void clear();

  /// A fetch served from a decoded slot is a hit, whoever decoded it: with
  /// a registry, a sibling's fill is a hit here.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Entries rebound because their page's generation moved.
  uint64_t invalidations() const { return invalidations_; }
  /// Entries holding a decoded page (a non-executable page holds none).
  size_t cached_pages() const;

 private:
  friend StepResult step(AddressSpace&, Cpu&, DecodeCache*);
  friend StepResult run_block(AddressSpace&, Cpu&, DecodeCache*,
                              SuperblockCache*, uint64_t, uint64_t&);

  using Slot = DecodedPage::Slot;
  static constexpr uint8_t kUnknown = DecodedPage::kUnknown;
  static constexpr uint8_t kValid = DecodedPage::kValid;
  static constexpr uint8_t kBad = DecodedPage::kBad;

  struct PageEntry {
    const uint64_t* live_gen = nullptr;  ///< the page's generation counter
    uint64_t gen = 0;                    ///< generation the slots decode
    std::shared_ptr<DecodedPage> page;   ///< private or registry-shared
  };

  /// Resets the cache if `mem` is not the address space it was filled from.
  void sync(const AddressSpace& mem);

  /// Returns the validated entry for a page, (re)bound if it is new or its
  /// generation moved; nullptr if the page has no decoded page to serve.
  PageEntry* entry_for(const AddressSpace& mem, uint64_t page_addr);

  /// Binds `e` to the page's current generation and content: no page when
  /// the page is not mapped executable, the registry's page when it is
  /// populated, else a new private one.
  void bind(const AddressSpace& mem, uint64_t page_addr, PageEntry& e);

  /// Decodes the instruction at `ip` into `s`. False if the bytes are not
  /// readable as code (caller falls back to the uncached fetch for the
  /// precise fault address).
  bool fill_slot(const AddressSpace& mem, uint64_t ip, Slot& s);

  /// Cache-served fetch+decode of the instruction at `ip`.
  StepResult fetch(AddressSpace& mem, uint64_t ip, isa::Instr& out);

  /// The interpreter path of run_block: executes until a terminator retires,
  /// an event surfaces or `max_instr` attempts were made.
  StepResult run(AddressSpace& mem, Cpu& cpu, uint64_t max_instr,
                 uint64_t& retired);

  std::unordered_map<uint64_t, PageEntry> pages_;
  DecodedPageRegistry* registry_ = nullptr;  ///< see attach()
  uint64_t asid_ = 0;  ///< address space the entries were filled from
  uint64_t last_page_ = ~0ull;      // one-entry lookup memo for hot pages
  PageEntry* last_entry_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
};

/// Decodes the basic block starting at `addr`: its byte size (distance to
/// the end of its terminator) and instruction count. Walks at most
/// `max_bytes`. Returns 0 size if the first instruction is undecodable.
/// `terminated` distinguishes a complete block (the walk retired a real
/// terminator) from a scan that stopped at `max_bytes`, an undecodable
/// byte, or unreadable memory — a partial prefix that consumers like the
/// superblock builder must refuse to treat as a block.
struct BlockInfo {
  uint64_t size = 0;
  uint32_t instr_count = 0;
  bool terminated = false;
};
BlockInfo block_at(const AddressSpace& mem, uint64_t addr,
                   uint64_t max_bytes = 4096);

}  // namespace dynacut::vm
