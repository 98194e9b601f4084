#include "core/txn.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "image/checkpoint.hpp"

namespace dynacut::core {

GroupTxn::GroupTxn(os::Os& os, std::vector<int> pids,
                   image::ImageStore& store, obs::EventBus* bus,
                   const std::string& label, const std::string& action,
                   image::BaselineMap* baselines, image::RestoreMode mode,
                   std::string commit_tag)
    : os_(os),
      store_(store),
      bus_(bus),
      baselines_(baselines),
      mode_(mode),
      commit_tag_(std::move(commit_tag)),
      pids_(std::move(pids)) {
  os_.freeze_group(pids_);
  if (bus_ != nullptr) {
    bus_->begin_txn(label,
                    {obs::Attr::s("action", action),
                     obs::Attr::u("pids", static_cast<uint64_t>(pids_.size()))});
  }
}

GroupTxn::~GroupTxn() { abort(); }

GroupTxn::Entry* GroupTxn::entry(int pid) {
  for (auto& e : entries_) {
    if (e.pid == pid) return &e;
  }
  return nullptr;
}

image::ProcessImage GroupTxn::dump(int pid, FaultPlan* faults,
                                   image::CkptStats* stats) {
  DYNACUT_ASSERT(!finished_ && entry(pid) == nullptr);
  image::CkptReport rep = image::checkpoint(
      os_, image::CkptRequest{
               .pid = pid, .faults = faults, .bus = bus_,
               .baselines = baselines_});
  if (stats != nullptr) *stats = rep.stats;
  store_.put(image::ImageKey{pid, image::ImageKey::kPreTag}, rep.img);
  entries_.push_back(Entry{pid, rep.img, rep.stats, std::nullopt});
  return std::move(rep.img);
}

void GroupTxn::stage(int pid, image::ProcessImage img) {
  Entry* e = entry(pid);
  DYNACUT_ASSERT(e != nullptr && !e->staged.has_value());
  e->staged = std::move(img);
}

void GroupTxn::commit(const std::string& feature, FaultPlan* faults,
                      const RestoredFn& on_restored) {
  DYNACUT_ASSERT(!finished_);
  size_t restored = 0;
  try {
    for (auto& e : entries_) {
      DYNACUT_ASSERT(e.staged.has_value());
      store_.put(image::ImageKey{e.pid, commit_tag_}, *e.staged);
      image::RestoreStats rst = image::restore(
          os_, image::RestoreRequest{.pid = e.pid,
                                     .img = &*e.staged,
                                     .mode = mode_,
                                     .faults = faults,
                                     .bus = bus_});
      if (baselines_ != nullptr) {
        // The staged image is now the process's authoritative state; the
        // epoch is sampled *after* the restore so the pages the restore
        // installed are clean against the new baseline — only what the
        // guest writes from here on is dirty at the next dump.
        (*baselines_)[e.pid] =
            image::Baseline{*e.staged, os_.mem_epoch(e.pid)};
      }
      if (bus_ != nullptr) {
        bus_->emit(
            obs::Event(obs::ev::kCheckpointDelta, e.pid)
                .with("pages_dumped", e.ckpt.pages_dumped)
                .with("pages_shared", e.ckpt.pages_shared)
                .with("pages_restored", rst.pages_restored)
                .with("pages_kept", rst.pages_kept)
                .with("incremental", static_cast<uint64_t>(e.ckpt.incremental))
                .with("in_place", static_cast<uint64_t>(rst.in_place)));
      }
      if (on_restored) on_restored(rst);
      ++restored;
    }
  } catch (const Error& err) {
    int pid = restored < entries_.size() ? entries_[restored].pid : -1;
    rollback(restored);
    if (bus_ != nullptr) bus_->abort_txn(err.what());
    finished_ = true;
    throw CustomizeError(feature, FaultStage::kRestore, pid, err.what());
  }
  // The bus transaction stays open: the caller closes it with the final
  // edit statistics once its own bookkeeping is done.
  finished_ = true;
}

void GroupTxn::rollback(size_t restored) {
  log_warn("customize rollback: re-staging " + std::to_string(restored) +
           " restored process(es) from pristine images");
  for (auto& e : entries_) {
    // The baseline may already point at a staged image this rollback is
    // about to overwrite; dirty tracking would still catch the rewrites
    // (restores stamp every page they change), but a fresh full dump next
    // time is the simpler invariant to reason about after a failure.
    if (baselines_ != nullptr) baselines_->erase(e.pid);
    os::Process* p = os_.process(e.pid);
    if (p == nullptr || p->state == os::Process::State::kExited) continue;
    if (p->state != os::Process::State::kFrozen) os_.freeze(e.pid);
    // No fault plan here: rollback must not itself be injectable, or an
    // aborted customization could be made to strand the group.
    image::restore(os_, image::RestoreRequest{.pid = e.pid,
                                              .img = &e.pristine});
  }
  // Pids frozen by the constructor but never dumped stay untouched; thaw.
  os_.thaw_group(pids_);
}

void GroupTxn::abort() {
  if (finished_) return;
  os_.thaw_group(pids_);
  if (bus_ != nullptr) bus_->abort_txn("staging aborted");
  finished_ = true;
}

}  // namespace dynacut::core
