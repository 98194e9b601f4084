// The DynaCut process rewriter (paper §3.2.1/§3.3): mutates a checkpointed
// ProcessImage between dump and restore.
//
// Supported transforms — the same list the paper's CRIT extension provides:
//   * update memory contents (arbitrary byte patches),
//   * replace the first byte of a basic block with TRAP (int3 blocking),
//   * wipe whole blocks with TRAP bytes (anti-ROP variant),
//   * unmap code pages,
//   * inject a position-independent shared library (ELF-walk, page
//     creation, global-data + GOT/PLT relocation against loaded modules),
//   * rewrite the SIGTRAP sigaction to point into the injected library,
//     with the library's own restorer stub.
//
// Every code edit records the original bytes so features can be restored
// ("bidirectional" customization).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/cutcheck/plan.hpp"
#include "analysis/slicer/slicer.hpp"
#include "common/fault.hpp"
#include "image/image.hpp"
#include "melf/binary.hpp"
#include "obs/bus.hpp"

namespace dynacut::rw {

/// A loaded module as the plan extractor needs it. Both image::ModuleImage
/// and os::LoadedModule convert trivially.
struct ModuleRef {
  std::string name;
  std::shared_ptr<const melf::Binary> binary;
};

/// Splits a feature's blocks into per-module cut plans — the unit the
/// cutcheck verifier lints and the exact inputs remove_blocks will act on.
/// Modules named by blocks but absent from `modules` yield a plan with a
/// null binary (the rewriter would silently skip them; the checker warns).
/// Under Trap::kRedirect the redirect module always gets a plan, so
/// redirect validity is checked even when no block lands in it.
std::vector<analysis::cutcheck::CutPlan> extract_plans(
    const std::vector<ModuleRef>& modules, const std::string& feature,
    const std::vector<analysis::CovBlock>& blocks,
    analysis::cutcheck::Removal removal, analysis::cutcheck::Trap trap,
    const std::string& redirect_module = {}, uint64_t redirect_offset = 0,
    analysis::cutcheck::Mechanism mechanism =
        analysis::cutcheck::Mechanism::kTrap);

/// Aggregate of slicer::expand_plan over a feature's per-module plans.
struct SliceExpansion {
  size_t seeds = 0;      ///< blocks the plans named before expansion
  size_t expanded = 0;   ///< blocks after expansion
  size_t witnesses = 0;  ///< non-seed inclusions across all plans
};

/// Grows every loaded-module plan in place to its static feature slice
/// (analysis::slicer::expand_plan); plans with a null binary pass through
/// untouched. `opts.keep_functions` typically carries the imports of the
/// *other* loaded modules, so cross-module entry points survive closure.
SliceExpansion expand_plans_to_slice(
    std::vector<analysis::cutcheck::CutPlan>& plans,
    const analysis::slicer::SliceOptions& opts = {});

/// Undo record for one code edit.
struct PatchRecord {
  uint64_t vaddr = 0;
  std::vector<uint8_t> original;
};

class ImageRewriter {
 public:
  /// `faults` is the deterministic fault-injection hook: every code edit
  /// (patch/wipe/undo/unmap) fires FaultStage::kRewrite before mutating the
  /// image, and inject_library fires FaultStage::kInject — each *before*
  /// its mutation, so an injected failure leaves the image consistent.
  /// `bus` (optional) receives a `rewrite.*` event after each successful
  /// edit; under an open bus transaction those events are staged and
  /// retracted if the customization aborts.
  explicit ImageRewriter(image::ProcessImage& img, FaultPlan* faults = nullptr,
                         obs::EventBus* bus = nullptr)
      : img_(img), faults_(faults), bus_(bus) {}

  // --- raw memory edits -------------------------------------------------
  /// Patches bytes and returns an undo record.
  PatchRecord write_bytes(uint64_t vaddr, std::span<const uint8_t> bytes);

  /// Blocks the basic block at `vaddr` by replacing its first byte with
  /// TRAP (0xCC). Returns the undo record.
  PatchRecord block_first_byte(uint64_t vaddr);

  /// Wipes [vaddr, vaddr+size) entirely with TRAP bytes — prevents gadget
  /// reuse inside the block. Returns the undo record.
  PatchRecord wipe(uint64_t vaddr, uint64_t size);

  /// Reverts a previous edit.
  void undo(const PatchRecord& rec);

  // --- VMA surgery --------------------------------------------------------
  /// Unmaps the page range fully covering [vaddr, vaddr+size).
  void unmap_pages(uint64_t vaddr, uint64_t size);

  // --- stub redirection (Mechanism::kStub/kAuto) --------------------------
  /// Retargets the direct kCall/kJmp at `vaddr` to `target` by patching its
  /// rel32 — the trap-free deny: one branch into the stub instead of a
  /// SIGTRAP round-trip. Validates the opcode and that `target` is in rel32
  /// range (throws StateError otherwise). Returns the undo record.
  PatchRecord redirect_branch(uint64_t vaddr, uint64_t target);

  /// Points the 8-byte GOT slot at `slot_vaddr` to `target` — the PLT-slot
  /// half of the stub mechanism. Returns the undo record.
  PatchRecord redirect_got(uint64_t slot_vaddr, uint64_t target);

  // --- signal plumbing -----------------------------------------------------
  void set_sigaction(int signo, uint64_t handler, uint64_t restorer);

  // --- library injection ----------------------------------------------------
  /// Injects `lib` as a new module. If base==0, picks an unused address from
  /// `hint` (default: a high randomized-looking region). Applies kAbs64
  /// relocations against the chosen base and kGotEntry relocations against
  /// the image's loaded modules. Returns the load base.
  uint64_t inject_library(std::shared_ptr<const melf::Binary> lib,
                          uint64_t base = 0);

  /// Removes a previously injected module and its VMAs.
  void unload_library(const std::string& name);

  /// Absolute address of `symbol` exported by module `module_name` in the
  /// image; throws StateError if missing.
  uint64_t symbol_addr(const std::string& module_name,
                       const std::string& symbol) const;

  /// Counters consumed by the cost model. bytes_patched counts forward
  /// edits only; undos accumulate in bytes_restored. pages_touched is the
  /// number of *distinct* pages any edit landed on.
  size_t bytes_patched() const { return bytes_patched_; }
  size_t bytes_restored() const { return bytes_restored_; }
  size_t pages_touched() const { return touched_pages_.size(); }
  size_t relocs_applied() const { return relocs_applied_; }

 private:
  /// Records the pages covered by an edit of `size` bytes at `vaddr`.
  /// Zero-length edits touch nothing.
  void touch_pages(uint64_t vaddr, uint64_t size);

  /// The byte-edit core shared by write_bytes/block_first_byte/wipe; fires
  /// the rewrite fault point and mutates the image but emits nothing (the
  /// public wrappers each emit their own taxonomy type).
  PatchRecord apply_bytes(uint64_t vaddr, std::span<const uint8_t> bytes);

  void emit(obs::Event e) {
    if (bus_ != nullptr) bus_->emit(std::move(e));
  }

  image::ProcessImage& img_;
  FaultPlan* faults_ = nullptr;
  obs::EventBus* bus_ = nullptr;
  size_t bytes_patched_ = 0;
  size_t bytes_restored_ = 0;
  std::set<uint64_t> touched_pages_;
  size_t relocs_applied_ = 0;
};

}  // namespace dynacut::rw
