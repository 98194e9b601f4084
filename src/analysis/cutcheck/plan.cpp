#include "analysis/cutcheck/plan.hpp"

#include <algorithm>

#include "common/constants.hpp"

namespace dynacut::analysis::cutcheck {

const char* removal_name(Removal r) {
  switch (r) {
    case Removal::kBlockFirstByte:
      return "block-first-byte";
    case Removal::kWipeBlocks:
      return "wipe-blocks";
    case Removal::kUnmapPages:
      return "unmap-pages";
  }
  return "?";
}

const char* trap_name(Trap t) {
  switch (t) {
    case Trap::kTerminate:
      return "terminate";
    case Trap::kRedirect:
      return "redirect";
    case Trap::kVerify:
      return "verify";
  }
  return "?";
}

const char* mechanism_name(Mechanism m) {
  switch (m) {
    case Mechanism::kTrap:
      return "trap";
    case Mechanism::kStub:
      return "stub";
    case Mechanism::kAuto:
      return "auto";
  }
  return "?";
}

std::vector<std::pair<uint64_t, uint64_t>> CutPlan::ranges() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(blocks.size());
  for (const auto& b : blocks) {
    out.emplace_back(b.offset, b.size == 0 ? 1 : b.size);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t CutPlan::total_bytes() const {
  uint64_t sum = 0;
  for (const auto& b : blocks) sum += b.size == 0 ? 1 : b.size;
  return sum;
}

void ByteSet::add(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  // Absorb every interval overlapping or touching [begin, end).
  auto it = iv_.upper_bound(begin);
  if (it != iv_.begin()) {
    --it;
    if (it->second < begin) ++it;
  }
  while (it != iv_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = iv_.erase(it);
  }
  iv_[begin] = end;
}

bool ByteSet::contains(uint64_t off) const {
  auto it = iv_.upper_bound(off);
  if (it == iv_.begin()) return false;
  --it;
  return off < it->second;
}

std::vector<uint64_t> covered_pages(const ByteSet& bytes) {
  // Touching intervals are merged, so a page is covered entirely only
  // inside one interval.
  std::vector<uint64_t> pages;
  for (const auto& [begin, end] : bytes.intervals()) {
    for (uint64_t p = page_ceil(begin); p + kPageSize <= end; p += kPageSize) {
      pages.push_back(p);
    }
  }
  return pages;
}

}  // namespace dynacut::analysis::cutcheck
