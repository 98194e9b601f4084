#include "rewriter/rewriter.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "isa/isa.hpp"

namespace dynacut::rw {

namespace {
/// Default injection region: high, away from app/libc/stack — stands in for
/// the paper's "randomized but unused location".
constexpr uint64_t kInjectHint = 0x7f1d00000000;
}  // namespace

void ImageRewriter::touch_pages(uint64_t vaddr, uint64_t size) {
  if (size == 0) return;  // page_ceil would over-count an empty edit
  for (uint64_t p = page_floor(vaddr); p < vaddr + size; p += kPageSize) {
    touched_pages_.insert(p);
  }
}

PatchRecord ImageRewriter::apply_bytes(uint64_t vaddr,
                                       std::span<const uint8_t> bytes) {
  FaultPlan::fire(faults_, FaultStage::kRewrite);
  PatchRecord rec;
  rec.vaddr = vaddr;
  rec.original = img_.mem.peek_bytes(vaddr, bytes.size());
  img_.mem.poke_bytes(vaddr, bytes);
  bytes_patched_ += bytes.size();
  touch_pages(vaddr, bytes.size());
  return rec;
}

PatchRecord ImageRewriter::write_bytes(uint64_t vaddr,
                                       std::span<const uint8_t> bytes) {
  PatchRecord rec = apply_bytes(vaddr, bytes);
  emit(obs::Event(obs::ev::kRewritePatch, img_.core.pid)
           .with("addr", vaddr)
           .with("bytes", static_cast<uint64_t>(bytes.size())));
  return rec;
}

PatchRecord ImageRewriter::block_first_byte(uint64_t vaddr) {
  const uint8_t trap = static_cast<uint8_t>(isa::Op::kTrap);
  PatchRecord rec = apply_bytes(vaddr, std::span(&trap, 1));
  emit(obs::Event(obs::ev::kRewritePatch, img_.core.pid)
           .with("addr", vaddr)
           .with("bytes", uint64_t{1})
           .with("kind", std::string("block")));
  return rec;
}

PatchRecord ImageRewriter::wipe(uint64_t vaddr, uint64_t size) {
  std::vector<uint8_t> traps(size, static_cast<uint8_t>(isa::Op::kTrap));
  PatchRecord rec = apply_bytes(vaddr, traps);
  emit(obs::Event(obs::ev::kRewriteWipe, img_.core.pid)
           .with("addr", vaddr)
           .with("bytes", size));
  return rec;
}

PatchRecord ImageRewriter::redirect_branch(uint64_t vaddr, uint64_t target) {
  uint8_t op = 0;
  img_.mem.peek(vaddr, &op, 1);
  if (op != static_cast<uint8_t>(isa::Op::kCall) &&
      op != static_cast<uint8_t>(isa::Op::kJmp)) {
    throw StateError("redirect_branch: not a direct call/jmp at " +
                     hex_addr(vaddr));
  }
  const uint8_t len = isa::instr_length(op);
  const int64_t rel = static_cast<int64_t>(target) -
                      static_cast<int64_t>(vaddr + len);
  if (rel < INT32_MIN || rel > INT32_MAX) {
    throw StateError("redirect_branch: target " + hex_addr(target) +
                     " out of rel32 range from " + hex_addr(vaddr));
  }
  const auto rel32 = static_cast<int32_t>(rel);
  uint8_t bytes[4];
  std::memcpy(bytes, &rel32, 4);
  PatchRecord rec = apply_bytes(vaddr + 1, std::span<const uint8_t>(bytes, 4));
  emit(obs::Event(obs::ev::kRewriteStub, img_.core.pid)
           .with("addr", vaddr)
           .with("target", target)
           .with("kind", std::string("branch")));
  return rec;
}

PatchRecord ImageRewriter::redirect_got(uint64_t slot_vaddr, uint64_t target) {
  uint8_t bytes[8];
  std::memcpy(bytes, &target, 8);
  PatchRecord rec = apply_bytes(slot_vaddr,
                                std::span<const uint8_t>(bytes, 8));
  emit(obs::Event(obs::ev::kRewriteStub, img_.core.pid)
           .with("addr", slot_vaddr)
           .with("target", target)
           .with("kind", std::string("got")));
  return rec;
}

void ImageRewriter::undo(const PatchRecord& rec) {
  FaultPlan::fire(faults_, FaultStage::kRewrite);
  img_.mem.poke_bytes(rec.vaddr, rec.original);
  // An undo is not a new customization: it must not inflate bytes_patched
  // (the cost model would double-charge every patch/undo cycle).
  bytes_restored_ += rec.original.size();
  touch_pages(rec.vaddr, rec.original.size());
  emit(obs::Event(obs::ev::kRewritePatch, img_.core.pid)
           .with("addr", rec.vaddr)
           .with("bytes", static_cast<uint64_t>(rec.original.size()))
           .with("kind", std::string("undo")));
}

void ImageRewriter::unmap_pages(uint64_t vaddr, uint64_t size) {
  FaultPlan::fire(faults_, FaultStage::kRewrite);
  uint64_t start = page_floor(vaddr);
  uint64_t end = page_ceil(vaddr + size);
  img_.mem.unmap(start, end - start);
  touch_pages(start, end - start);
  emit(obs::Event(obs::ev::kRewriteUnmap, img_.core.pid)
           .with("addr", start)
           .with("bytes", end - start));
}

void ImageRewriter::set_sigaction(int signo, uint64_t handler,
                                  uint64_t restorer) {
  if (signo < 0 || signo >= os::sig::kNumSignals) {
    throw StateError("set_sigaction: bad signal " + std::to_string(signo));
  }
  img_.core.sigactions[static_cast<size_t>(signo)] =
      os::SigAction{handler, restorer};
}

uint64_t ImageRewriter::inject_library(
    std::shared_ptr<const melf::Binary> lib, uint64_t base) {
  FaultPlan::fire(faults_, FaultStage::kInject);
  if (img_.module_named(lib->name) != nullptr) {
    throw StateError("inject_library: module already present: " + lib->name);
  }
  if (base == 0) {
    base = img_.mem.find_free(lib->image_size(), kInjectHint);
  }
  if (base != page_floor(base)) {
    throw StateError("inject_library: base not page aligned");
  }

  // Create VMAs and page content for every section — the mm/pagemap/pages
  // edits of paper §3.3.
  for (const auto& sec : lib->sections) {
    if (sec.size == 0) continue;
    img_.mem.map(base + sec.offset, sec.size, melf::section_prot(sec.kind),
                 lib->name + ":" + melf::section_name(sec.kind));
    if (!sec.bytes.empty()) {
      img_.mem.poke_bytes(base + sec.offset, sec.bytes);
      touch_pages(base + sec.offset, sec.bytes.size());
    }
  }

  // Register the module before relocating so self-exports resolve.
  img_.modules.push_back(
      image::ModuleImage{lib->name, base, lib->image_size(), lib});

  for (const auto& rel : lib->relocs) {
    uint64_t value = 0;
    switch (rel.kind) {
      case melf::RelocKind::kAbs64:
        // "Global data relocations are performed by adding the VMA base
        // address of the library to the st_value field of the symbol."
        value = base + static_cast<uint64_t>(rel.addend);
        break;
      case melf::RelocKind::kGotEntry: {
        // "Find the external libc function symbol offset from the libc
        // binary; add the runtime VMA base address of libc; write the new
        // address to the GOT of the signal handler library."
        // Resolution is tracked with an explicit flag: a symbol can
        // legitimately resolve to address 0 (st_value 0 in the module
        // mapped at base 0 — the main executable).
        bool found = false;
        for (const auto& m : img_.modules) {
          const melf::Symbol* s = m.binary->find_symbol(rel.symbol);
          if (s != nullptr && s->global) {
            value = m.base + s->value;
            found = true;
            break;
          }
        }
        if (!found) {
          throw StateError("inject_library: unresolved import '" +
                           rel.symbol + "'");
        }
        break;
      }
    }
    img_.mem.poke(base + rel.offset, &value, 8);
    ++relocs_applied_;
  }
  emit(obs::Event(obs::ev::kRewriteInject, img_.core.pid)
           .with("lib", lib->name)
           .with("base", base)
           .with("bytes", lib->image_size())
           .with("relocs", static_cast<uint64_t>(lib->relocs.size())));
  return base;
}

void ImageRewriter::unload_library(const std::string& name) {
  const image::ModuleImage* m = img_.module_named(name);
  if (m == nullptr) throw StateError("unload_library: no module " + name);
  uint64_t base = m->base;
  uint64_t size = m->size;
  img_.modules.erase(
      std::remove_if(img_.modules.begin(), img_.modules.end(),
                     [&](const image::ModuleImage& mi) {
                       return mi.name == name;
                     }),
      img_.modules.end());
  // Drop each VMA of the module individually (sections are not contiguous
  // at page granularity but all live inside [base, base+size)).
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (const auto& [start, v] : img_.mem.vmas()) {
    if (v.start >= base && v.end <= base + size) {
      ranges.emplace_back(v.start, v.size());
    }
  }
  for (const auto& [start, len] : ranges) img_.mem.unmap(start, len);
}

uint64_t ImageRewriter::symbol_addr(const std::string& module_name,
                                    const std::string& symbol) const {
  const image::ModuleImage* m = img_.module_named(module_name);
  if (m == nullptr) throw StateError("symbol_addr: no module " + module_name);
  const melf::Symbol* s = m->binary->find_symbol(symbol);
  if (s == nullptr) {
    throw StateError("symbol_addr: no symbol " + symbol + " in " +
                     module_name);
  }
  return m->base + s->value;
}

std::vector<analysis::cutcheck::CutPlan> extract_plans(
    const std::vector<ModuleRef>& modules, const std::string& feature,
    const std::vector<analysis::CovBlock>& blocks,
    analysis::cutcheck::Removal removal, analysis::cutcheck::Trap trap,
    const std::string& redirect_module, uint64_t redirect_offset,
    analysis::cutcheck::Mechanism mechanism) {
  auto module_binary =
      [&](const std::string& name) -> std::shared_ptr<const melf::Binary> {
    for (const auto& m : modules) {
      if (m.name == name) return m.binary;
    }
    return nullptr;
  };

  std::vector<analysis::cutcheck::CutPlan> plans;
  auto plan_for =
      [&](const std::string& module) -> analysis::cutcheck::CutPlan& {
    for (auto& p : plans) {
      if (p.module == module) return p;
    }
    analysis::cutcheck::CutPlan p;
    p.feature = feature;
    p.module = module;
    p.binary = module_binary(module);
    p.removal = removal;
    p.trap = trap;
    p.mechanism = mechanism;
    plans.push_back(std::move(p));
    return plans.back();
  };

  for (const auto& b : blocks) plan_for(b.module).blocks.push_back(b);
  if (trap == analysis::cutcheck::Trap::kRedirect &&
      !redirect_module.empty()) {
    analysis::cutcheck::CutPlan& p = plan_for(redirect_module);
    p.has_redirect = true;
    p.redirect_offset = redirect_offset;
  }
  return plans;
}

SliceExpansion expand_plans_to_slice(
    std::vector<analysis::cutcheck::CutPlan>& plans,
    const analysis::slicer::SliceOptions& opts) {
  SliceExpansion total;
  for (auto& plan : plans) {
    analysis::slicer::PlanExpansion e = analysis::slicer::expand_plan(plan,
                                                                      opts);
    total.seeds += e.seed_blocks;
    total.expanded += e.slice_blocks;
    total.witnesses += e.witnesses;
  }
  return total;
}

}  // namespace dynacut::rw
