#include "vm/addrspace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hex.hpp"

namespace dynacut::vm {

uint64_t page_hash(std::span<const uint8_t> bytes) {
  // Four independent multiply-xorshift lanes over 8-byte words: the lanes'
  // multiplies overlap, so a page takes 512 of them instead of the 4096
  // dependent ones of a byte-at-a-time hash.
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  auto mix = [](uint64_t h, uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  };
  uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                      0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= sizeof lane; p += sizeof lane, n -= sizeof lane) {
    for (size_t k = 0; k < 4; ++k) {
      uint64_t w;
      std::memcpy(&w, p + 8 * k, 8);
      lane[k] = mix(lane[k], w);
    }
  }
  uint64_t h = bytes.size();
  for (uint64_t l : lane) h = mix(h, l);
  for (; n > 0; ++p, --n) h = mix(h, *p);  // a tail shorter than 32 bytes
  return h;
}

uint64_t AddressSpace::next_asid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

uint64_t AddressSpace::page_generation(uint64_t page_addr) const {
  const uint64_t page = page_floor(page_addr);
  auto it = pages_.find(page);
  if (it != pages_.end()) return it->second.gen;
  const Vma* v = vma_at(page);
  return v == nullptr ? 0 : v->gen;
}

const uint64_t* AddressSpace::page_generation_slot(uint64_t page_addr) const {
  return &slot(page_floor(page_addr)).gen;
}

AddressSpace::PageSlot& AddressSpace::slot(uint64_t page) const {
  auto [it, fresh] = pages_.try_emplace(page);
  if (fresh) {
    // A new slot takes over the generation its VMA kept for it.
    const Vma* v = vma_at(page);
    it->second.gen = v == nullptr ? 0 : v->gen;
  }
  return it->second;
}

void AddressSpace::bump_slots(uint64_t start, uint64_t end) {
  for (auto it = pages_.lower_bound(start);
       it != pages_.end() && it->first < end; ++it) {
    ++it->second.gen;
  }
}

void AddressSpace::bump_exec_generations(uint64_t addr, uint64_t n) {
  uint64_t end = addr + n;
  uint64_t cur = addr;
  while (cur < end) {
    const Vma* v = vma_at(cur);
    // vma_at never misses here: callers bump only after a checked write.
    uint64_t vma_end = v == nullptr ? end : v->end;
    if (v != nullptr && (v->prot & kProtExec) != 0) {
      bump_slots(page_floor(cur), std::min(end, vma_end));
    }
    cur = std::max(cur + 1, std::min(end, vma_end));
  }
}

MemEpoch AddressSpace::snapshot_epoch() {
  // The write fast path stamps a page only when it arms its TLB entry;
  // crossing an epoch boundary must force a fresh stamp.
  invalidate_caches();
  return MemEpoch{asid_, epoch_++};
}

std::optional<std::vector<uint64_t>> AddressSpace::dirty_pages_since(
    const MemEpoch& since) const {
  if (!since.valid() || since.asid != asid_ || since.epoch >= epoch_) {
    return std::nullopt;
  }
  std::vector<uint64_t> out;
  for (const auto& [page, slot] : pages_) {
    if (slot.stamp > since.epoch) out.push_back(page);
  }
  return out;
}

void AddressSpace::map(uint64_t start, uint64_t size, uint32_t prot,
                       const std::string& name) {
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  if (size == 0) throw StateError("map of empty region");
  uint64_t end = start + size;
  // Overlap check against neighbours.
  auto it = vmas_.upper_bound(start);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > start) {
      throw StateError("map overlaps existing VMA " + prev->second.name +
                       " at " + hex_addr(start));
    }
  }
  if (it != vmas_.end() && it->second.start < end) {
    throw StateError("map overlaps existing VMA " + it->second.name + " at " +
                     hex_addr(it->second.start));
  }
  vmas_[start] = Vma{start, end, prot, name, 1};
  bump_slots(start, end);
  invalidate_caches();
}

void AddressSpace::unmap(uint64_t start, uint64_t size) {
  invalidate_caches();
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  uint64_t end = start + size;

  // Collect affected VMAs, then rewrite them.
  std::vector<Vma> affected;
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    const Vma& v = it->second;
    if (v.end <= start || v.start >= end) {
      ++it;
      continue;
    }
    affected.push_back(v);
    it = vmas_.erase(it);
  }
  if (affected.empty()) {
    throw StateError("unmap of unmapped range at " + hex_addr(start));
  }
  for (const Vma& v : affected) {
    if (v.start < start) {
      vmas_[v.start] = Vma{v.start, start, v.prot, v.name, v.gen};
    }
    if (v.end > end) {
      vmas_[end] = Vma{end, v.end, v.prot, v.name, v.gen};
    }
    // Every unmapped page gets a slot, so its generation keeps counting
    // up when the range is mapped again. Discarding a page is a content
    // change the next delta dump must see.
    for (uint64_t p = std::max(v.start, start); p < std::min(v.end, end);
         p += kPageSize) {
      auto [it, fresh] = pages_.try_emplace(p);
      PageSlot& s = it->second;
      s.gen = (fresh ? v.gen : s.gen) + 1;
      if (s.block != nullptr) {
        s.block.reset();
        s.stamp = epoch_;
      }
    }
  }
}

void AddressSpace::protect(uint64_t start, uint64_t size, uint32_t prot) {
  invalidate_caches();
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  uint64_t end = start + size;
  bump_slots(start, end);

  std::vector<Vma> affected;
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    const Vma& v = it->second;
    if (v.end <= start || v.start >= end) {
      ++it;
      continue;
    }
    affected.push_back(v);
    it = vmas_.erase(it);
  }
  if (affected.empty()) {
    throw StateError("protect of unmapped range at " + hex_addr(start));
  }
  for (const Vma& v : affected) {
    if (v.start < start) {
      vmas_[v.start] = Vma{v.start, start, v.prot, v.name, v.gen};
    }
    uint64_t mid_start = std::max(v.start, start);
    uint64_t mid_end = std::min(v.end, end);
    vmas_[mid_start] = Vma{mid_start, mid_end, prot, v.name, v.gen + 1};
    if (v.end > end) vmas_[end] = Vma{end, v.end, v.prot, v.name, v.gen};
  }
}

const Vma* AddressSpace::vma_at(uint64_t addr) const {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return it->second.contains(addr) ? &it->second : nullptr;
}

uint64_t AddressSpace::find_free(uint64_t size, uint64_t hint) const {
  size = page_ceil(size);
  uint64_t candidate = page_floor(hint);
  for (const auto& [start, v] : vmas_) {
    if (start >= candidate + size) break;  // gap before this VMA fits
    if (v.end > candidate) candidate = v.end;
  }
  return candidate;
}

AddressSpace::PageSlot& AddressSpace::writable_page(uint64_t page_addr) {
  PageSlot& s = slot(page_addr);
  if (s.block == nullptr) {
    s.block = std::make_shared<Page>(kPageSize, 0);
  } else if (s.block.use_count() > 1) {
    // Copy-on-write: the block is visible through a checkpoint image (or a
    // copied address space) — clone before mutating. A TLB entry still
    // points into the shared block; drop it.
    if (TlbEntry& e = tlb_entry(page_addr); e.page == page_addr) {
      e = TlbEntry{};
    }
    s.block = std::make_shared<Page>(*s.block);
  }
  s.stamp = epoch_;
  return s;
}

const AddressSpace::Page* AddressSpace::find_page(uint64_t page_addr) const {
  auto it = pages_.find(page_addr);
  return it == pages_.end() ? nullptr : it->second.block.get();
}

Access AddressSpace::check_range(uint64_t addr, uint64_t n,
                                 uint32_t need_prot) const {
  uint64_t cur = addr;
  uint64_t end = addr + n;
  while (cur < end) {
    const Vma* v = vma_at(cur);
    if (v == nullptr || (v->prot & need_prot) != need_prot) {
      return {false, cur};
    }
    cur = v->end;
  }
  return {true, 0};
}

Access AddressSpace::read_slow(uint64_t addr, void* out, uint64_t n,
                               uint32_t need_prot) const {
  const uint64_t page = page_floor(addr);
  if (n > 0 && page_floor(addr + n - 1) == page) {
    // One page, TLB miss. VMAs are page-aligned, so the VMA holding `addr`
    // holds the whole access; a populated page fills its TLB entry.
    const Vma* v = vma_at(addr);
    if (v == nullptr || (v->prot & need_prot) != need_prot) {
      return {false, addr};
    }
    auto it = pages_.find(page);
    if (it == pages_.end() || it->second.block == nullptr) {
      std::memset(out, 0, n);
      return {true, 0};
    }
    TlbEntry& e = tlb_entry(page);
    e = TlbEntry{page, it->second.block->data(), 0, v->prot, false};
    tlb_filled_ = true;
    std::memcpy(out, e.bytes + (addr - page), n);
    return {true, 0};
  }

  Access a = check_range(addr, n, need_prot);
  if (!a.ok) return a;
  auto* dst = static_cast<uint8_t*>(out);
  uint64_t cur = addr;
  while (n > 0) {
    uint64_t pg = page_floor(cur);
    uint64_t off = cur - pg;
    uint64_t chunk = std::min<uint64_t>(n, kPageSize - off);
    if (const Page* p = find_page(pg)) {
      std::memcpy(dst, p->data() + off, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    cur += chunk;
    n -= chunk;
  }
  return {true, 0};
}

Access AddressSpace::write_slow(uint64_t addr, const void* src, uint64_t n,
                                uint32_t need_prot) {
  const uint64_t page = page_floor(addr);
  if (n > 0 && page_floor(addr + n - 1) == page) {
    // One page: take the COW/stamp step once and arm the page's entry —
    // until the next epoch, share or VMA change, stores go straight in.
    const Vma* v = vma_at(addr);
    if (v == nullptr || (v->prot & need_prot) != need_prot) {
      return {false, addr};
    }
    PageSlot& s = writable_page(page);
    TlbEntry& e = tlb_entry(page);
    e = TlbEntry{page, s.block->data(), share_epoch(), v->prot, true};
    tlb_filled_ = true;
    std::memcpy(e.bytes + (addr - page), src, n);
    if ((v->prot & kProtExec) != 0) ++s.gen;
    return {true, 0};
  }

  Access a = check_range(addr, n, need_prot);
  if (!a.ok) return a;
  const auto* s = static_cast<const uint8_t*>(src);
  uint64_t cur = addr;
  while (n > 0) {
    uint64_t pg = page_floor(cur);
    uint64_t off = cur - pg;
    uint64_t chunk = std::min<uint64_t>(n, kPageSize - off);
    std::memcpy(writable_page(pg).block->data() + off, s, chunk);
    s += chunk;
    cur += chunk;
    n -= chunk;
  }
  bump_exec_generations(addr, cur - addr);
  return {true, 0};
}

void AddressSpace::peek(uint64_t addr, void* out, uint64_t n) const {
  Access a = check_range(addr, n, 0);
  if (!a.ok) {
    throw StateError("peek of unmapped address " + hex_addr(a.fault_addr));
  }
  Access r = read(addr, out, n, 0);
  DYNACUT_ASSERT(r.ok);
}

void AddressSpace::poke(uint64_t addr, const void* src, uint64_t n) {
  Access a = check_range(addr, n, 0);
  if (!a.ok) {
    throw StateError("poke of unmapped address " + hex_addr(a.fault_addr));
  }
  Access w = write(addr, src, n, 0);
  DYNACUT_ASSERT(w.ok);
}

std::vector<uint8_t> AddressSpace::peek_bytes(uint64_t addr,
                                              uint64_t n) const {
  std::vector<uint8_t> out(n);
  peek(addr, out.data(), n);
  return out;
}

void AddressSpace::poke_bytes(uint64_t addr, std::span<const uint8_t> bytes) {
  poke(addr, bytes.data(), bytes.size());
}

std::vector<uint64_t> AddressSpace::populated_pages() const {
  std::vector<uint64_t> out;
  for (const auto& [addr, slot] : pages_) {
    // Only report pages still inside a VMA.
    if (slot.block != nullptr && vma_at(addr) != nullptr) out.push_back(addr);
  }
  return out;
}

std::map<uint64_t, AddressSpace::PageSlot> AddressSpace::populated_slots()
    const {
  std::map<uint64_t, PageSlot> out;
  for (const auto& [addr, slot] : pages_) {
    if (slot.block != nullptr) {
      out.emplace_hint(out.end(), addr, PageSlot{slot.block});
    }
  }
  return out;
}

uint64_t AddressSpace::resident_bytes(std::set<const void*>* seen) const {
  std::set<const void*> local;
  std::set<const void*>& s = seen != nullptr ? *seen : local;
  uint64_t total = 0;
  for (const auto& [addr, slot] : pages_) {
    if (slot.block != nullptr && s.insert(slot.block.get()).second) {
      total += slot.block->size();
    }
  }
  return total;
}

std::span<const uint8_t> AddressSpace::page_bytes(uint64_t page_addr) const {
  const Page* p = find_page(page_addr);
  if (p == nullptr) {
    throw StateError("page not populated: " + hex_addr(page_addr));
  }
  return {p->data(), p->size()};
}

void AddressSpace::install_page(uint64_t page_addr,
                                std::span<const uint8_t> bytes) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(bytes.size() == kPageSize);
  PageSlot& s = writable_page(page_addr);
  std::copy(bytes.begin(), bytes.end(), s.block->begin());
  ++s.gen;
}

PageRef AddressSpace::page_block(uint64_t page_addr) const {
  auto it = pages_.find(page_addr);
  if (it == pages_.end() || it->second.block == nullptr) {
    throw StateError("page not populated: " + hex_addr(page_addr));
  }
  // The block is shared from here on: the write fast path must not keep
  // scribbling into it through its raw pointer.
  if (TlbEntry& e = tlb_entry(page_addr); e.page == page_addr) {
    e.writable = false;
  }
  return it->second.block;
}

void AddressSpace::install_page_block(uint64_t page_addr, PageRef block) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(block != nullptr && block->size() == kPageSize);
  invalidate_caches();
  PageSlot& s = slot(page_addr);
  s.block = std::move(block);
  s.stamp = epoch_;
  ++s.gen;
}

void AddressSpace::adopt_page_block(uint64_t page_addr, PageRef block) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(block != nullptr && block->size() == kPageSize);
  invalidate_caches();
  slot(page_addr).block = std::move(block);
  // No generation bump, no dirty stamp: bytes are unchanged by contract.
}

void AddressSpace::drop_page(uint64_t page_addr) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  auto it = pages_.find(page_addr);
  if (it == pages_.end() || it->second.block == nullptr) return;
  invalidate_caches();
  it->second.block.reset();
  it->second.stamp = epoch_;
  ++it->second.gen;
}

}  // namespace dynacut::vm
