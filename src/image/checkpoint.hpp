// Checkpoint/restore between live osim processes and ProcessImages — the
// `criu dump` / `criu restore` analogue, including the paper's modification
// of dumping executable/file-backed pages (§3.3) and TCP_REPAIR-style
// connection survival.
//
// Two optimizations shrink the freeze window on repeated customizations:
//
//   Incremental dump  — every dump is a COW copy of the live address space
//   (O(pages) pointer shares); given a Baseline (the previous image plus
//   the memory epoch it was taken at), checkpoint() interns only the pages
//   the soft-dirty analogue (vm::AddressSpace::dirty_pages_since) reports
//   as modified. CRIU's pre-copy/soft-dirty trick.
//
//   Delta restore     — restore() diffs the image against live memory and
//   writes back only pages that actually differ, preserving the address
//   space instance (asid) and every decoded-instruction cache entry for
//   untouched pages. The full-rebuild path remains available and
//   observably equivalent (RestoreMode::kFull).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "image/image.hpp"
#include "obs/bus.hpp"
#include "os/os.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::image {

/// A dump baseline for incremental checkpointing: the image of a process
/// plus the epoch its address space was at when the image was authoritative
/// (sampled right after the image was restored or dumped). COW page blocks
/// keep the pair O(metadata): unmodified live pages still share the
/// baseline's blocks.
struct Baseline {
  ProcessImage img;
  vm::MemEpoch epoch;
};

/// Per-pid baselines a customization engine keeps between toggles.
using BaselineMap = std::map<int, Baseline>;

/// What one checkpoint dump did (cost accounting + observability).
struct CkptStats {
  uint64_t pages_total = 0;    ///< pages in the resulting image
  uint64_t pages_dumped = 0;   ///< pages captured from live memory
  uint64_t pages_shared = 0;   ///< pages shared from the baseline in O(1)
  uint64_t pages_dropped = 0;  ///< baseline pages no longer live
  bool incremental = false;    ///< the dirty-tracking path was taken
};

/// One checkpoint dump, described as data — the options struct consumed by
/// checkpoint(). Designed for designated initializers, mirroring
/// core::CutRequest:
///
///   auto [img, stats] = image::checkpoint(os, {.pid = pid,
///                                              .baselines = &baselines,
///                                              .label = "pre-toggle"});
struct CkptRequest {
  int pid = 0;
  /// Deterministic fault-injection hook (FaultStage::kCheckpoint fires
  /// before anything is touched).
  FaultPlan* faults = nullptr;
  /// Receives a `checkpoint.dump` event once the dump succeeds.
  obs::EventBus* bus = nullptr;
  /// Incremental-dump baselines, consulted by pid. May be null.
  const BaselineMap* baselines = nullptr;
  /// Obs labelling: attached to the `checkpoint.dump` event as string
  /// attributes (label, then each tag pair).
  std::string label;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// What checkpoint() returns: the image plus what the dump did.
struct CkptReport {
  ProcessImage img;
  CkptStats stats;
};

/// Freezes `req.pid` (a no-op if the group transaction already froze it)
/// and dumps its full state. The process stays frozen (and thus makes no
/// progress) until restore() — that window is DynaCut's
/// service-interruption time.
///
/// With a baseline whose epoch still matches the live address space, the
/// dump is incremental: only pages dirtied since the baseline epoch are
/// captured, everything else is shared from the baseline image. A stale or
/// missing baseline (rebuilt address space, restarted clock) silently falls
/// back to a full dump — the result is identical either way.
CkptReport checkpoint(os::Os& os, const CkptRequest& req);

enum class RestoreMode {
  kDelta,  ///< write back only pages that differ from live memory
  kFull,   ///< rebuild the address space from scratch (new asid, cold caches)
};

/// What one restore did (cost accounting + observability).
struct RestoreStats {
  uint64_t pages_total = 0;     ///< pages in the restored image
  uint64_t pages_restored = 0;  ///< pages whose content actually changed
  uint64_t pages_kept = 0;      ///< live pages already identical (kept warm)
  uint64_t pages_dropped = 0;   ///< live-only pages depopulated
  uint64_t vmas_changed = 0;    ///< VMAs mapped/unmapped/re-protected
  bool in_place = false;        ///< delta path: asid and caches preserved
};

/// One restore, described as data — the options struct consumed by
/// restore(). Designed for designated initializers:
///
///   image::restore(os, {.pid = pid, .img = &img,
///                       .mode = image::RestoreMode::kFull});
struct RestoreRequest {
  int pid = 0;
  const ProcessImage* img = nullptr;  ///< required: the image to install
  RestoreMode mode = RestoreMode::kDelta;
  /// Deterministic fault-injection hook (FaultStage::kRestore fires after
  /// validation but before any mutation, so an injected failure leaves the
  /// process frozen and untouched).
  FaultPlan* faults = nullptr;
  /// Receives a `checkpoint.restore` event on success.
  obs::EventBus* bus = nullptr;
  /// Obs labelling: attached to the `checkpoint.restore` event as string
  /// attributes (label, then each tag pair).
  std::string label;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Replaces the frozen process's state with `*req.img` and thaws it. Live
/// socket objects referenced by the image's fd table are re-attached
/// (TCP_REPAIR).
///
/// RestoreMode::kDelta (the default) reconciles the image against live
/// memory in place: VMAs are mapped/unmapped/re-protected to match, and
/// only pages whose bytes differ are written back — pages the rewrite never
/// touched keep their page generation, so the decode cache stays warm. The
/// observable process state is identical to RestoreMode::kFull.
RestoreStats restore(os::Os& os, const RestoreRequest& req);

/// Options for spawn_from_image().
struct SpawnOpts {
  /// Process name; empty keeps the image's proc_name.
  std::string name;
  /// Rebind every listening socket of the image to this port (scale-out:
  /// each worker forked from one template image serves its own port).
  std::optional<uint16_t> listen_port;
};

/// CRIU restore-as-template: forks a brand-new serving process on `os`
/// directly from a (possibly customized) stored image. The worker gets a
/// fresh pid/asid/fd table; its memory is a copy of the image's address
/// space that *shares* the image's content-addressed blocks (O(pages)
/// pointer shares), so 100 workers cost one resident image plus their
/// private write sets, and its code runs on the decoded pages its siblings
/// on `os` already filled (Os::adopt). Listening
/// sockets are re-created (rebound to `opts.listen_port` when set) and
/// registered; established connections come back detached with their
/// buffered bytes. Returns the new pid.
///
/// A free function of the image layer (not an Os member): it consumes
/// image::ProcessImage, which sits above the OS in the link order.
int spawn_from_image(os::Os& os, const ProcessImage& img,
                     const SpawnOpts& opts = {});

}  // namespace dynacut::image
