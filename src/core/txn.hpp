// Transactional customization: the two-phase (stage/commit) protocol that
// makes every DynaCut customization atomic across a whole process group.
//
// The paper's safety argument (§3.2) — rewriting happens on a frozen image
// between dump and restore, so a process never observes half-edited code —
// holds per process. GroupTxn extends it to the group:
//
//   stage phase   freeze *all* processes, checkpoint each one (the pristine
//                 image is kept for rollback and filed in the tmpfs store
//                 under ImageKey{pid, "pre"}), rewrite each image. No live
//                 process is touched; any failure aborts by thawing the
//                 untouched group.
//   commit phase  restore every staged image in order. If a restore fails,
//                 the already-restored (patched) processes are re-frozen
//                 and re-staged from their saved pristine images, so the
//                 group comes back exactly as it was before the call.
//
// Failures surface as CustomizeError naming the feature, the failing stage
// and the pid — the structured contract callers (and retry logic) key on.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "image/checkpoint.hpp"
#include "image/image.hpp"
#include "obs/bus.hpp"
#include "os/os.hpp"

namespace dynacut::core {

using ::dynacut::FaultPlan;
using ::dynacut::FaultStage;
using ::dynacut::fault_stage_name;
using ::dynacut::InjectedFault;
using ::dynacut::kNumFaultStages;

/// A customization failed part-way and was rolled back: no process of the
/// group retains any of its edits. Derives from StateError so call sites
/// that predate the transactional protocol keep catching what they caught.
class CustomizeError : public StateError {
 public:
  CustomizeError(const std::string& feature, FaultStage stage, int pid,
                 const std::string& why)
      : StateError("customize '" + feature + "' failed at " +
                   fault_stage_name(stage) + " of pid " +
                   std::to_string(pid) + " (rolled back): " + why),
        feature_(feature),
        stage_(stage),
        pid_(pid) {}

  const std::string& feature() const { return feature_; }
  FaultStage stage() const { return stage_; }
  int pid() const { return pid_; }

 private:
  std::string feature_;
  FaultStage stage_;
  int pid_;
};

/// One stage/commit transaction over a fixed set of pids. Freezes the whole
/// group on construction; the destructor aborts (thaw-back, no edits) if
/// commit() was never reached.
class GroupTxn {
 public:
  /// Freezes every pid (all-or-nothing). `store` receives the pristine
  /// images at dump() time and the rewritten images at commit() time.
  ///
  /// `bus` (optional) mirrors the transaction onto the observability layer:
  /// construction opens a bus transaction (emitting `txn.stage` labelled
  /// `label`, with `action` = "disable"/"restore"), every event emitted
  /// during staging is buffered, and abort/rollback retracts them and emits
  /// `txn.abort` + `txn.rollback`. A successful commit() leaves the bus
  /// transaction open so the caller can close it via
  /// EventBus::commit_txn with the final edit statistics attached.
  ///
  /// `baselines` (optional, non-owning) switches the transaction to
  /// incremental checkpointing: dump() consults the per-pid baseline for a
  /// dirty-only dump, and commit() refreshes each entry with the restored
  /// image plus a fresh memory epoch. Rollback erases the touched entries
  /// (the group is back on its pristine images; the next dump re-baselines
  /// with a full dump). `mode` selects delta (default) or full restores at
  /// commit time — rollback always restores pristine images via the delta
  /// path, which is observably identical and keeps the group warm.
  ///
  /// `commit_tag` is the feature_set_tag committed images are filed under
  /// in `store` (image::ImageKey{pid, commit_tag}) — the sorted
  /// '+'-joined disabled-feature set the group runs after this commit;
  /// empty means the pristine baseline set.
  GroupTxn(os::Os& os, std::vector<int> pids, image::ImageStore& store,
           obs::EventBus* bus = nullptr, const std::string& label = {},
           const std::string& action = {},
           image::BaselineMap* baselines = nullptr,
           image::RestoreMode mode = image::RestoreMode::kDelta,
           std::string commit_tag = {});
  ~GroupTxn();
  GroupTxn(const GroupTxn&) = delete;
  GroupTxn& operator=(const GroupTxn&) = delete;

  const std::vector<int>& pids() const { return pids_; }

  /// Checkpoints `pid` (already frozen by the constructor), keeps the
  /// pristine image for rollback, files it under
  /// ImageKey{pid, ImageKey::kPreTag}, and returns a working copy for the
  /// rewriter. The dump is incremental when the transaction has a valid
  /// baseline for `pid`; `stats` (optional) receives what the dump did.
  image::ProcessImage dump(int pid, FaultPlan* faults,
                           image::CkptStats* stats = nullptr);

  /// Records the rewritten image to install for `pid` at commit time.
  void stage(int pid, image::ProcessImage img);

  /// Per-restore accounting callback: what one restore just did.
  using RestoredFn = std::function<void(const image::RestoreStats&)>;

  /// Restores every staged image (in staging order) and thaws the group.
  /// `on_restored` is invoked after each successful per-process restore
  /// (cost-model accounting). Each restore refreshes the pid's baseline
  /// (when attached) and emits a `checkpoint.delta` event pairing the dump
  /// and restore page counts. On any failure the whole group is rolled
  /// back to its pristine images and CustomizeError is thrown.
  void commit(const std::string& feature, FaultPlan* faults,
              const RestoredFn& on_restored = nullptr);

  /// Aborts a transaction whose staging failed: thaws every process the
  /// constructor froze. Memory was never touched (rewrites happen on
  /// images), so thawing alone restores the pre-call world. Idempotent.
  void abort();

  bool finished() const { return finished_; }

 private:
  struct Entry {
    int pid;
    image::ProcessImage pristine;
    image::CkptStats ckpt;
    std::optional<image::ProcessImage> staged;
  };

  Entry* entry(int pid);
  /// Commit failed after `restored` processes were already running patched
  /// code: re-freeze them and re-stage their pristine images; everything
  /// not yet restored is still frozen and untouched, so re-stage those
  /// pristine images too (covers a restore that died mid-installation).
  void rollback(size_t restored);

  os::Os& os_;
  image::ImageStore& store_;
  obs::EventBus* bus_ = nullptr;
  image::BaselineMap* baselines_ = nullptr;
  image::RestoreMode mode_ = image::RestoreMode::kDelta;
  std::string commit_tag_;
  std::vector<int> pids_;
  std::vector<Entry> entries_;
  bool finished_ = false;
};

}  // namespace dynacut::core
