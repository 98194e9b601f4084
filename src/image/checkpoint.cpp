#include "image/checkpoint.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "image/block_store.hpp"

namespace dynacut::image {

namespace {

FdImage dump_fd(int fd, const os::FileDesc& desc) {
  FdImage out;
  out.fd = fd;
  out.kind = desc.kind;
  out.live = desc.sock;
  if (desc.kind == os::FileDesc::Kind::kSocket && desc.sock != nullptr) {
    const os::Socket& s = *desc.sock;
    out.sock_kind = static_cast<uint8_t>(s.kind);
    out.port = s.port;
    if (s.kind == os::Socket::Kind::kStream && s.end.conn != nullptr) {
      const auto& rx = s.end.rx();
      const auto& tx = s.end.tx();
      out.rx_bytes.assign(rx.begin(), rx.end());
      out.tx_bytes.assign(tx.begin(), tx.end());
    }
  }
  return out;
}

/// Reconciles the live address space with the image in place instead of
/// rebuilding it: the asid survives, untouched pages keep their blocks and
/// generation counters, and only real differences cost work.
void delta_restore_mem(vm::AddressSpace& mem, const ProcessImage& img,
                       RestoreStats& st) {
  // --- VMA reconcile ----------------------------------------------------
  // Targets keyed by start; a live VMA with the same extent and name is
  // kept (re-protected if needed), anything else is unmapped, then missing
  // targets are mapped. Unmapping discards the covered pages — the page
  // pass below re-installs whatever the image holds there.
  std::map<uint64_t, vm::Vma> targets = img.mem.vmas();

  std::vector<vm::Vma> live;
  live.reserve(mem.vmas().size());
  for (const auto& [start, v] : mem.vmas()) live.push_back(v);

  for (const vm::Vma& v : live) {
    auto it = targets.find(v.start);
    if (it != targets.end() && it->second.end == v.end &&
        it->second.name == v.name) {
      if (it->second.prot != v.prot) {
        mem.protect(v.start, v.size(), it->second.prot);
        ++st.vmas_changed;
      }
      targets.erase(it);  // consumed: an exact-extent match
    } else {
      mem.unmap(v.start, v.size());
      ++st.vmas_changed;
    }
  }
  for (const auto& [start, v] : targets) {
    mem.map(v.start, v.size(), v.prot, v.name);
    ++st.vmas_changed;
  }

  // --- Page reconcile ---------------------------------------------------
  // Snapshot the live set before installing anything, then walk the image:
  // same block pointer — nothing to do (the common case after an
  // incremental dump, where the image shares live blocks); same bytes under
  // a different identity — re-share the image's block without a generation
  // bump (decoded code stays valid); different bytes — install, which bumps
  // the generation so the decode cache drops exactly that page.
  std::vector<uint64_t> live_pages = mem.populated_pages();
  for (uint64_t addr : img.mem.populated_pages()) {
    vm::PageRef block = img.mem.page_block(addr);
    if (mem.page_live(addr)) {
      vm::PageRef cur = mem.page_block(addr);
      if (cur == block) {
        ++st.pages_kept;
      } else if (*cur == *block) {
        mem.adopt_page_block(addr, block);
        ++st.pages_kept;
      } else {
        mem.install_page_block(addr, block);
        ++st.pages_restored;
      }
    } else {
      mem.install_page_block(addr, block);
      ++st.pages_restored;
    }
  }
  for (uint64_t addr : live_pages) {
    if (!img.mem.page_live(addr)) {
      mem.drop_page(addr);
      ++st.pages_dropped;
    }
  }
}

/// The request's baseline for its pid, or null (a full dump).
const Baseline* find_baseline(const CkptRequest& req) {
  if (req.baselines == nullptr) return nullptr;
  auto it = req.baselines->find(req.pid);
  return it == req.baselines->end() ? nullptr : &it->second;
}

/// Replaces the image's block for `page` by its BlockStore-canonical twin:
/// identical bytes already held anywhere on the host share one block.
void intern_page(vm::AddressSpace& mem, uint64_t page) {
  mem.adopt_page_block(page, BlockStore::global().intern(mem.page_block(page)));
}

obs::Event& label_event(obs::Event& e, const std::string& label,
                        const std::vector<std::pair<std::string, std::string>>&
                            tags) {
  if (!label.empty()) e.with("label", label);
  for (const auto& [k, v] : tags) e.with(k, v);
  return e;
}

}  // namespace

CkptReport checkpoint(os::Os& os, const CkptRequest& req) {
  const int pid = req.pid;
  FaultPlan* faults = req.faults;
  obs::EventBus* bus = req.bus;
  const Baseline* baseline = find_baseline(req);
  FaultPlan::fire(faults, FaultStage::kCheckpoint);
  os::Process* p = os.process(pid);
  if (p == nullptr || p->state == os::Process::State::kExited) {
    throw StateError("checkpoint: no live process " + std::to_string(pid));
  }
  if (p->state != os::Process::State::kFrozen) os.freeze(pid);

  ProcessImage img;
  img.core.proc_name = p->name;
  img.core.pid = p->pid;
  img.core.ppid = p->ppid;
  img.core.cpu = p->cpu;
  img.core.sigactions = p->sigactions;
  img.core.signal_frames = p->signal_frames;

  // Unlike stock CRIU we also dump file-backed executable pages — the
  // paper's criu/mem.c modification — which in this substrate simply means
  // dumping every populated page. The image is a COW copy of the live
  // space: it shares every block in O(pages), and the next live write to a
  // page clones it. "Dumping" a page interns its block in the BlockStore.
  img.mem = p->mem;
  CkptStats st;
  std::optional<std::vector<uint64_t>> dirty;
  if (baseline != nullptr) {
    dirty = p->mem.dirty_pages_since(baseline->epoch);
  }
  if (dirty.has_value()) {
    // Incremental: every page the baseline already holds is the live block
    // (restore installed it); only the dirty set is interned anew. Dirty
    // pages that are no longer live (dropped or unmapped since the
    // baseline) left the image with the copy.
    st.incremental = true;
    for (uint64_t page : *dirty) {
      if (img.mem.page_live(page)) {
        intern_page(img.mem, page);
        ++st.pages_dumped;
      } else if (baseline->img.mem.page_live(page)) {
        ++st.pages_dropped;
      }
    }
    st.pages_total = img.mem.page_count();
    st.pages_shared = st.pages_total - st.pages_dumped;
  } else {
    for (uint64_t page : img.mem.populated_pages()) intern_page(img.mem, page);
    st.pages_total = st.pages_dumped = img.mem.page_count();
  }

  for (const auto& [fd, desc] : p->fds) {
    img.fds.push_back(dump_fd(fd, desc));
  }
  for (const auto& m : p->modules) {
    img.modules.push_back(ModuleImage{m.name, m.base, m.size, m.binary});
  }
  if (bus != nullptr) {
    obs::Event e(obs::ev::kCheckpointDump, pid);
    e.with("pages", st.pages_total)
        .with("pages_dumped", st.pages_dumped)
        .with("pages_shared", st.pages_shared)
        .with("incremental", static_cast<uint64_t>(st.incremental))
        .with("vmas", img.mem.vma_count())
        .with("modules", static_cast<uint64_t>(img.modules.size()));
    bus->emit(std::move(label_event(e, req.label, req.tags)));
  }
  return CkptReport{std::move(img), st};
}

RestoreStats restore(os::Os& os, const RestoreRequest& req) {
  DYNACUT_ASSERT(req.img != nullptr);
  const int pid = req.pid;
  const ProcessImage& img = *req.img;
  FaultPlan* faults = req.faults;
  obs::EventBus* bus = req.bus;
  const RestoreMode mode = req.mode;
  os::Process* p = os.process(pid);
  if (p == nullptr || p->state != os::Process::State::kFrozen) {
    throw StateError("restore: process not frozen: " + std::to_string(pid));
  }
  FaultPlan::fire(faults, FaultStage::kRestore);

  RestoreStats st;
  st.pages_total = img.mem.page_count();
  if (mode == RestoreMode::kFull) {
    // Assigning the image's space shares every block and takes a fresh
    // asid: the first write after restore clones the page.
    p->mem = img.mem;
    // The whole address space was rebuilt: every decoded instruction the
    // process cached is stale (the asid check would also catch this, but
    // the explicit clear frees the dead pages immediately).
    p->dcache.clear();
    // Fused traces hold generation-slot pointers into the old address
    // space; drop them with it.
    p->sbcache.clear();
    st.pages_restored = st.pages_total;
    st.vmas_changed = img.mem.vma_count();
  } else {
    // In-place delta: the asid survives, so decode-cache entries for pages
    // the image didn't change stay valid — no dcache.clear(). Superblocks
    // likewise retire lazily: any trace spanning a page the delta rewrote
    // fails its generation check at the next lookup/dispatch.
    delta_restore_mem(p->mem, img, st);
    st.in_place = true;
  }
  p->cpu = img.core.cpu;
  p->sigactions = img.core.sigactions;
  p->signal_frames = img.core.signal_frames;
  p->name = img.core.proc_name;

  // Re-attach fds: live sockets carried in the image resume untouched
  // (TCP_REPAIR); the serialized queues are authoritative only for detached
  // restores.
  p->fds.clear();
  int max_fd = 2;
  for (const auto& f : img.fds) {
    os::FileDesc desc;
    desc.kind = f.kind;
    desc.sock = f.live;
    p->fds[f.fd] = desc;
    max_fd = std::max(max_fd, f.fd);
  }
  p->next_fd = max_fd + 1;

  p->modules.clear();
  for (const auto& m : img.modules) {
    p->modules.push_back(os::LoadedModule{m.name, m.base, m.size, m.binary});
  }

  p->at_block_start = true;
  os.thaw(pid);
  if (bus != nullptr) {
    obs::Event e(obs::ev::kCheckpointRestore, pid);
    e.with("pages", st.pages_total)
        .with("pages_restored", st.pages_restored)
        .with("pages_kept", st.pages_kept)
        .with("in_place", static_cast<uint64_t>(st.in_place));
    bus->emit(std::move(label_event(e, req.label, req.tags)));
  }
  return st;
}

int spawn_from_image(os::Os& os, const ProcessImage& img,
                     const SpawnOpts& opts) {
  auto p = std::make_unique<os::Process>();
  p->name = opts.name.empty() ? img.core.proc_name : opts.name;
  p->ppid = 0;
  p->mem = img.mem;
  p->cpu = img.core.cpu;
  p->sigactions = img.core.sigactions;
  p->signal_frames = img.core.signal_frames;
  p->at_block_start = true;

  int max_fd = 2;
  for (const auto& f : img.fds) {
    os::FileDesc desc;
    desc.kind = f.kind;
    if (f.kind == os::FileDesc::Kind::kSocket) {
      auto sock = std::make_shared<os::Socket>();
      sock->kind = static_cast<os::Socket::Kind>(f.sock_kind);
      sock->port = f.port;
      if (sock->kind == os::Socket::Kind::kListen && opts.listen_port) {
        // Scale-out rebind: the guest's bind already ran before the image
        // was dumped, so the new port takes effect at socket re-creation.
        sock->port = *opts.listen_port;
      }
      if (sock->kind == os::Socket::Kind::kStream) {
        // Recreate the connection with its buffered inbound bytes; the old
        // peer is gone, so mark the remote side closed.
        auto conn = std::make_shared<os::Conn>();
        conn->to_b.assign(f.rx_bytes.begin(), f.rx_bytes.end());
        conn->a_open = false;
        sock->end = os::SockEnd{conn, /*side_a=*/false};
      }
      desc.sock = sock;
      if (sock->kind == os::Socket::Kind::kListen) {
        os.register_listener(sock);
      }
    }
    p->fds[f.fd] = desc;
    max_fd = std::max(max_fd, f.fd);
  }
  p->next_fd = max_fd + 1;

  for (const auto& m : img.modules) {
    p->modules.push_back(os::LoadedModule{m.name, m.base, m.size, m.binary});
  }
  return os.adopt(std::move(p));
}

}  // namespace dynacut::image
