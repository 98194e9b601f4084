#include "image/block_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dynacut::image {

BlockStore& BlockStore::global() {
  static BlockStore store;
  return store;
}

PageRef BlockStore::intern(PageRef block) {
  DYNACUT_ASSERT(block != nullptr && block->size() == kPageSize);
  ++stats_.lookups;
  auto& bucket = buckets_[hash(*block)];
  bool collided = false;
  for (auto it = bucket.begin(); it != bucket.end();) {
    PageRef candidate = it->lock();
    if (candidate == nullptr) {
      it = bucket.erase(it);
      continue;
    }
    if (candidate == block) return block;  // already the canonical block
    // Full byte compare: guards hash collisions and entries gone stale via
    // in-place mutation of a uniquely-owned block (see header).
    if (*candidate == *block) {
      ++stats_.dedup_hits;
      // The candidate gains a holder behind its owner's back: a live
      // address space that still owns it uniquely may have its write
      // fast-path raw pointer armed, and we cannot reach that cache from
      // here. Bumping the share epoch disarms every armed cache, so the
      // owner's next write re-checks use_count and COW-clones.
      vm::bump_share_epoch();
      return candidate;
    }
    collided = true;
    ++it;
  }
  if (collided) ++stats_.hash_collisions;
  bucket.push_back(block);
  return block;
}

PageRef BlockStore::intern_bytes(std::span<const uint8_t> bytes) {
  DYNACUT_ASSERT(bytes.size() == kPageSize);
  ++stats_.lookups;
  auto& bucket = buckets_[hash(bytes)];
  bool collided = false;
  for (auto it = bucket.begin(); it != bucket.end();) {
    PageRef candidate = it->lock();
    if (candidate == nullptr) {
      it = bucket.erase(it);
      continue;
    }
    if (std::equal(candidate->begin(), candidate->end(), bytes.begin(),
                   bytes.end())) {
      ++stats_.dedup_hits;
      // Same as intern(): sharing behind the owner's back must disarm any
      // armed write fast-path cache (see there).
      vm::bump_share_epoch();
      return candidate;
    }
    collided = true;
    ++it;
  }
  if (collided) ++stats_.hash_collisions;
  auto block =
      std::make_shared<std::vector<uint8_t>>(bytes.begin(), bytes.end());
  bucket.push_back(block);
  return block;
}

size_t BlockStore::unique_blocks() {
  size_t live = 0;
  for (auto& [h, bucket] : buckets_) {
    for (auto it = bucket.begin(); it != bucket.end();) {
      if (it->expired()) {
        it = bucket.erase(it);
      } else {
        ++live;
        ++it;
      }
    }
  }
  return live;
}

uint64_t BlockStore::resident_bytes() { return unique_blocks() * kPageSize; }

void BlockStore::set_hash_for_test(HashFn fn) {
  hash_ = std::move(fn);
  buckets_.clear();  // existing entries are bucketed under the old hash
}

}  // namespace dynacut::image
