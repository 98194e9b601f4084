// Fleet-wide content-addressed page-block store.
//
// PR 5 made page blocks refcounted *within* one pid's baseline chain: a
// checkpoint shares the live block, every downstream copy shares it again,
// and the first write clones (COW). This store generalizes the sharing
// across the whole fleet: every page that enters an image is interned by
// content (hash of its bytes), so 100 identical minikv workers hold one
// resident copy of .text and a fleet-wide toggle's patched pages are stored
// once, not 100 times.
//
// The table holds weak references only — it never keeps a block alive.
// When the last image/address-space drops a block, the entry dies with it
// and resident_bytes() stops counting it (refcount-aware accounting).
//
// Correctness does not depend on entries staying fresh: a block that is
// uniquely owned (use_count == 1) may legally be mutated in place by its
// owner, leaving its table entry describing stale bytes. Every lookup
// therefore re-validates candidates with a full byte compare — the same
// compare that guards against hash collisions — so a stale entry can only
// cost a missed dedup, never a wrong share. Once intern() hands a block to
// a second holder, use_count > 1 and the clone-on-shared choke point
// (AddressSpace::writable_page) keeps it immutable.
//
// One hazard needs more than the use_count contract: a dedup hit can give
// a *live, sole-owned* page block a second holder behind its owning
// AddressSpace's back, while that owner's write fast path still holds an
// armed raw pointer into the block (legal when it was uniquely owned).
// intern() cannot reach that cache, so every dedup hit bumps the global
// vm::share_epoch(); AddressSpace::write() re-validates its armed cache
// against the epoch before each fast-path store, forcing the owner's next
// write through writable_page(), which sees the new use_count and clones.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/constants.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::image {

using vm::PageRef;

class BlockStore {
 public:
  /// The fleet-wide store every checkpoint interns through. One per host
  /// (process images from different Os instances dedup against each other,
  /// exactly like images on one machine's tmpfs).
  static BlockStore& global();

  /// Returns the canonical block for `block`'s bytes: an existing live
  /// block with identical content when one is known (dedup), otherwise
  /// `block` itself, registered as the new canonical entry. O(1) expected;
  /// hash hits are confirmed with a full byte compare (collision guard).
  PageRef intern(PageRef block);

  /// intern() for raw bytes: returns an existing identical block or a
  /// fresh copy of `bytes`. `bytes` must be exactly one page.
  PageRef intern_bytes(std::span<const uint8_t> bytes);

  struct Stats {
    uint64_t lookups = 0;          ///< intern calls
    uint64_t dedup_hits = 0;       ///< an existing identical block was reused
    uint64_t hash_collisions = 0;  ///< hash matched but bytes did not
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Unique live blocks / their payload bytes. Dead entries (every holder
  /// gone) are pruned as a side effect and not counted.
  size_t unique_blocks();
  uint64_t resident_bytes();

  using HashFn = std::function<uint64_t(std::span<const uint8_t>)>;
  /// Test hook: replaces the hash (nullptr restores vm::page_hash) and
  /// clears the table, so tests can force deterministic hash collisions and
  /// prove the full-bytes compare keeps dedup sound.
  void set_hash_for_test(HashFn fn);

 private:
  uint64_t hash(std::span<const uint8_t> bytes) const {
    return hash_ ? hash_(bytes) : vm::page_hash(bytes);
  }

  using WeakRef = std::weak_ptr<std::vector<uint8_t>>;
  /// hash -> candidate blocks. More than one live entry per hash only under
  /// a genuine collision; dead entries are pruned on every bucket walk.
  std::unordered_map<uint64_t, std::vector<WeakRef>> buckets_;
  HashFn hash_;
  Stats stats_;
};

}  // namespace dynacut::image
