// Per-process virtual address space: a VMA list plus sparse 4 KiB pages.
//
// This is the object CRIU-style checkpointing serializes (mm + pagemap +
// pages) and the process rewriter mutates. Pages are populated lazily on
// first write; reads inside a VMA of an unpopulated page observe zeros —
// mirroring anonymous-memory semantics, and giving the checkpointer the
// same "dump only populated pages" behaviour the paper relies on.
//
// Pages are refcounted blocks (PageRef): checkpointing shares the live
// block into the image instead of copying it, and the first write after a
// share clones the block (copy-on-write). A block referenced by more than
// one owner is immutable by contract — every mutation path goes through
// writable_page(), which clones a shared block before touching it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace dynacut::vm {

/// One refcounted 4 KiB page block, shared between live address spaces and
/// checkpoint images. Shared blocks (use_count > 1) are never mutated.
using PageRef = std::shared_ptr<std::vector<uint8_t>>;

/// Machine-wide share epoch. Every path that hands a block to a new holder
/// *with the owner's involvement* (page_block, a whole-space copy) disarms
/// that owner's write fast path directly. Content-addressed dedup
/// (image::BlockStore::intern) is the one path that shares a live block
/// *behind its owner's back* — it cannot reach the owning space, so it
/// bumps this epoch instead, and AddressSpace::write() re-validates each
/// armed TLB entry against it before every fast-path store. A mismatch
/// forces one writable_page() walk, which sees the new use_count and
/// clones (COW) before mutating.
namespace detail {
inline std::atomic<uint64_t> g_share_epoch{1};
}  // namespace detail
inline uint64_t share_epoch() {
  return detail::g_share_epoch.load(std::memory_order_relaxed);
}
inline void bump_share_epoch() {
  detail::g_share_epoch.fetch_add(1, std::memory_order_relaxed);
}

/// A virtual memory area (page-aligned [start, end) range).
struct Vma {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t prot = 0;
  std::string name;  ///< "miniweb:.text", "[stack]", "[heap]", ...

  uint64_t size() const { return end - start; }
  bool contains(uint64_t addr) const { return addr >= start && addr < end; }
};

enum class FaultType : uint8_t {
  kNone = 0,
  kSegv,  ///< unmapped address or protection violation
  kIll,   ///< undecodable instruction
  kFpe,   ///< divide by zero
};

/// Outcome of a checked memory access.
struct Access {
  bool ok = true;
  uint64_t fault_addr = 0;
};

/// A checkpoint epoch: a point on one address space's modification clock.
/// The soft-dirty-bit analogue — dirty_pages_since(epoch) names every page
/// modified after the epoch was taken. The asid pins the epoch to the
/// address-space *instance*: a rebuilt space (full restore, spawn_from_image,
/// copy-assignment) restarts its clock, so a stale epoch must never be
/// trusted there — asid mismatch invalidates it.
struct MemEpoch {
  uint64_t asid = 0;
  uint64_t epoch = 0;
  bool valid() const { return asid != 0; }
};

class AddressSpace {
 public:
  AddressSpace() = default;
  // Copies/moves must not carry TLB pointers into another object's pages.
  // Copies take a fresh asid (decode caches keyed to the source must not
  // trust the copy); moves keep the source's asid because the map nodes —
  // and thus any generation-slot pointers handed out — move along with it.
  // A copy shares every page block with the source, so the source's TLB
  // must drop its raw pointers (the blocks are no longer unique).
  AddressSpace(const AddressSpace& o)
      : vmas_(o.vmas_),
        pages_(o.pages_),
        page_gens_(o.page_gens_),
        page_stamps_(o.page_stamps_),
        epoch_(o.epoch_) {
    o.invalidate_caches();
  }
  AddressSpace& operator=(const AddressSpace& o) {
    vmas_ = o.vmas_;
    pages_ = o.pages_;
    page_gens_ = o.page_gens_;
    page_stamps_ = o.page_stamps_;
    epoch_ = o.epoch_;
    asid_ = next_asid();
    invalidate_caches();
    o.invalidate_caches();
    return *this;
  }
  AddressSpace(AddressSpace&& o) noexcept
      : vmas_(std::move(o.vmas_)),
        pages_(std::move(o.pages_)),
        page_gens_(std::move(o.page_gens_)),
        page_stamps_(std::move(o.page_stamps_)),
        epoch_(o.epoch_),
        asid_(o.asid_) {
    o.invalidate_caches();
  }
  AddressSpace& operator=(AddressSpace&& o) noexcept {
    vmas_ = std::move(o.vmas_);
    pages_ = std::move(o.pages_);
    page_gens_ = std::move(o.page_gens_);
    page_stamps_ = std::move(o.page_stamps_);
    epoch_ = o.epoch_;
    asid_ = o.asid_;
    invalidate_caches();
    o.invalidate_caches();
    return *this;
  }

  /// Maps a new VMA. Throws StateError if it overlaps an existing one.
  void map(uint64_t start, uint64_t size, uint32_t prot,
           const std::string& name);

  /// Unmaps [start, start+size); partial unmaps split VMAs. Pages in the
  /// range are discarded. Throws StateError if the range touches no VMA.
  void unmap(uint64_t start, uint64_t size);

  /// Changes protection of [start, start+size), splitting VMAs as needed.
  void protect(uint64_t start, uint64_t size, uint32_t prot);

  const Vma* vma_at(uint64_t addr) const;
  const std::map<uint64_t, Vma>& vmas() const { return vmas_; }

  /// Finds a free gap of `size` bytes at or above `hint` (page aligned).
  uint64_t find_free(uint64_t size, uint64_t hint) const;

  // --- checked guest accesses (return faults, never throw) -------------
  // An access inside one page the TLB holds is a tag compare, a prot test
  // and a memcpy; everything else takes the out-of-line walk.
  Access read(uint64_t addr, void* out, uint64_t n, uint32_t need_prot) const {
    const uint64_t page = page_floor(addr);
    const TlbEntry& e = tlb_entry(page);
    if (e.page == page && n != 0 && page_floor(addr + n - 1) == page &&
        (e.prot & need_prot) == need_prot) {
      std::memcpy(out, e.bytes + (addr - page), n);
      return {true, 0};
    }
    return read_slow(addr, out, n, need_prot);
  }
  Access write(uint64_t addr, const void* src, uint64_t n,
               uint32_t need_prot) {
    const uint64_t page = page_floor(addr);
    TlbEntry& e = tlb_entry(page);
    // Only an armed entry (uniquely owned block, stamped this epoch, and
    // no dedup since arming) takes raw stores; writes to executable pages
    // go the slow way, which bumps the page generation.
    if (e.page == page && e.writable && n != 0 &&
        page_floor(addr + n - 1) == page &&
        (e.prot & (need_prot | kProtExec)) == need_prot &&
        e.share_epoch == share_epoch()) {
      std::memcpy(e.bytes + (addr - page), src, n);
      return {true, 0};
    }
    return write_slow(addr, src, n, need_prot);
  }

  // --- host/debugger accesses (ignore protections, throw on unmapped) --
  void peek(uint64_t addr, void* out, uint64_t n) const;
  void poke(uint64_t addr, const void* src, uint64_t n);
  std::vector<uint8_t> peek_bytes(uint64_t addr, uint64_t n) const;
  void poke_bytes(uint64_t addr, std::span<const uint8_t> bytes);

  /// Addresses of populated (written-to) pages, ascending. This is what the
  /// checkpointer dumps.
  std::vector<uint64_t> populated_pages() const;

  /// Raw content of one populated page; throws if not populated.
  std::span<const uint8_t> page_bytes(uint64_t page_addr) const;

  /// Payload bytes of blocks this space holds that are not yet counted in
  /// `seen` (dedup by block identity). Thread one `seen` set across every
  /// address space and image store on the machine to measure true resident
  /// bytes under COW/content-addressed sharing; nullptr dedups within this
  /// space only.
  uint64_t resident_bytes(std::set<const void*>* seen = nullptr) const;

  /// Whether one page is populated AND still inside a VMA — the per-page
  /// form of the populated_pages() filter, used when re-checking a dirty
  /// set (dirty pages may have been dropped or unmapped since stamping).
  bool page_live(uint64_t page_addr) const {
    return pages_.count(page_addr) != 0 && vma_at(page_addr) != nullptr;
  }

  /// Installs page content directly (used by restore). Copies the bytes and
  /// bumps the page generation (content changed).
  void install_page(uint64_t page_addr, std::span<const uint8_t> bytes);

  // --- copy-on-write block sharing (checkpoint/restore hot path) --------
  /// Shares out the refcounted block of one populated page (O(1), no copy);
  /// throws if not populated. The block becomes shared: the next write to
  /// the page clones it first, so holders see an immutable snapshot.
  PageRef page_block(uint64_t page_addr) const;

  /// Installs a shared block as the page's content in O(1). Counts as a
  /// content change: bumps the page generation and dirty-stamps the page.
  void install_page_block(uint64_t page_addr, PageRef block);

  /// Re-shares a block whose bytes are identical to the page's current
  /// content (delta restore re-canonicalizing identity against the staged
  /// image). No generation bump — decoded code stays valid — and no dirty
  /// stamp: the page is byte-for-byte what the new baseline says it is.
  void adopt_page_block(uint64_t page_addr, PageRef block);

  /// Depopulates one page (reads observe zeros again). Bumps the page
  /// generation and dirty-stamps the page. No-op if not populated.
  void drop_page(uint64_t page_addr);

  uint64_t vma_count() const { return vmas_.size(); }

  // --- checkpoint epochs (dirty tracking) --------------------------------
  /// Takes a checkpoint epoch: every later page modification is "dirty
  /// since" the returned epoch. The soft-dirty analogue of CRIU's pre-copy.
  MemEpoch snapshot_epoch();

  /// Pages modified after `since` was taken, ascending. Returns nullopt if
  /// the epoch belongs to another address-space instance (asid mismatch —
  /// the space was rebuilt and its clock restarted), in which case callers
  /// must fall back to a full dump. The dirty set may include pages that
  /// were since depopulated or unmapped — callers re-check liveness.
  std::optional<std::vector<uint64_t>> dirty_pages_since(
      const MemEpoch& since) const;

  // --- code-cache support ----------------------------------------------
  /// Identity of this address-space instance. Decode caches record the asid
  /// they indexed; a mismatch (the process memory was copy-assigned or
  /// rebuilt by checkpoint restore) means every cached decode is stale.
  uint64_t asid() const { return asid_; }

  /// Monotonic modification counter for one page, the invalidation key of
  /// decoded-instruction caches. Bumped by byte writes landing on pages of
  /// executable VMAs, by install_page, and by map/protect/unmap over the
  /// page (protection flips and re-mapping both change what a fetch sees).
  /// Counters are never removed, so decoded entries keyed (page, gen) go
  /// stale — they can never be revived by a counter reset.
  uint64_t page_generation(uint64_t page_addr) const;

  /// Stable pointer to the page's generation counter (created at 0 on first
  /// use). Valid for this object's lifetime — entries are never erased and
  /// std::map nodes don't move — letting caches poll invalidation with one
  /// dereference per executed instruction.
  const uint64_t* page_generation_slot(uint64_t page_addr) const;

 private:
  using Page = std::vector<uint8_t>;  // always kPageSize long

  /// The page's block, uniquely owned: creates a zero page if absent,
  /// clones if shared (copy-on-write), and dirty-stamps it. Every byte
  /// mutation funnels through here.
  Page& writable_page(uint64_t page_addr);
  const Page* find_page(uint64_t page_addr) const;

  /// One guest TLB entry: a populated page lying wholly inside one VMA.
  /// `writable` arms the write fast path: the block is uniquely owned AND
  /// already dirty-stamped at the current epoch, as of `share_epoch`.
  struct TlbEntry {
    uint64_t page = ~0ull;  ///< tag; ~0 = empty
    uint8_t* bytes = nullptr;
    uint64_t share_epoch = 0;
    uint32_t prot = 0;  ///< the VMA's protection
    bool writable = false;
  };
  static constexpr size_t kTlbSize = 16;  // direct-mapped, by page number

  TlbEntry& tlb_entry(uint64_t page) const {
    return tlb_[(page / kPageSize) % kTlbSize];
  }
  /// Drops every TLB entry. O(1) when nothing was filled since the last
  /// drop (install_page_block calls this once per page on spawn/restore).
  void invalidate_caches() const {
    if (!tlb_filled_) return;
    tlb_.fill(TlbEntry{});
    tlb_filled_ = false;
  }
  Access read_slow(uint64_t addr, void* out, uint64_t n,
                   uint32_t need_prot) const;
  Access write_slow(uint64_t addr, const void* src, uint64_t n,
                    uint32_t need_prot);

  /// Checks [addr, addr+n) lies inside VMAs with `need_prot`; returns the
  /// faulting address otherwise.
  Access check_range(uint64_t addr, uint64_t n, uint32_t need_prot) const;

  static uint64_t next_asid();

  /// Bumps the generation of every page overlapping [start, end) — used by
  /// the VMA-layout mutators, which change what an instruction fetch sees
  /// without necessarily touching page bytes.
  void bump_generations(uint64_t start, uint64_t end);

  /// Bumps generations for a byte write to [addr, addr+n) if it lands on
  /// executable VMAs (data-page writes don't concern instruction caches).
  void bump_exec_generations(uint64_t addr, uint64_t n);

  std::map<uint64_t, Vma> vmas_;      // keyed by start
  std::map<uint64_t, PageRef> pages_;  // keyed by page address

  // Page modification counters (see page_generation). Bump-only; mutable so
  // page_generation_slot can register a zero entry from const readers.
  mutable std::map<uint64_t, uint64_t> page_gens_;

  // Dirty tracking: the epoch each page was last modified in. Stamps are
  // written at the current epoch_ by every content mutation (first write
  // per page per epoch, install, drop, unmap-discard) and compared against
  // snapshot_epoch() marks. Entries are never erased — a page that vanished
  // is precisely one the delta dump must notice.
  std::map<uint64_t, uint64_t> page_stamps_;
  uint64_t epoch_ = 1;

  uint64_t asid_ = next_asid();

  // Guest TLB (guest execution alternates between stack, heap and data
  // pages). Page blocks never move while held, so an entry stays valid
  // until its block is replaced or its VMA changes: map/protect/unmap,
  // epochs, installs and copies drop every entry (invalidate_caches), the
  // COW branch of writable_page drops the cloned page's entry, and
  // page_block disarms the shared page's entry. Sharing behind this
  // space's back (BlockStore dedup) bumps the global share_epoch(), which
  // every armed entry is checked against.
  mutable std::array<TlbEntry, kTlbSize> tlb_{};
  mutable bool tlb_filled_ = false;
};

}  // namespace dynacut::vm
