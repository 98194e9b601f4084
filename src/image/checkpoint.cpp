#include "image/checkpoint.hpp"

#include <algorithm>

#include "common/error.hpp"

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

vm::AddressSpace build_address_space(const ProcessImage& img) {
  vm::AddressSpace mem;
  for (const auto& v : img.vmas) {
    mem.map(v.start, v.end - v.start, v.prot, v.name);
  }
  for (const auto& [addr, block] : img.pages) {
    // Share the image's block; the first write after restore clones it.
    mem.install_page_block(addr, block);
  }
  return mem;
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
  std::map<uint64_t, const VmaImage*> targets;
  for (const auto& v : img.vmas) targets.emplace(v.start, &v);

  std::vector<vm::Vma> live;
  live.reserve(mem.vmas().size());
  for (const auto& [start, v] : mem.vmas()) live.push_back(v);

  for (const vm::Vma& v : live) {
    auto it = targets.find(v.start);
    if (it != targets.end() && it->second->end == v.end &&
        it->second->name == v.name) {
      if (it->second->prot != v.prot) {
        mem.protect(v.start, v.size(), it->second->prot);
        ++st.vmas_changed;
      }
      targets.erase(it);  // consumed: an exact-extent match
    } else {
      mem.unmap(v.start, v.size());
      ++st.vmas_changed;
    }
  }
  for (const auto& [start, v] : targets) {
    mem.map(v->start, v->end - v->start, v->prot, v->name);
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
  for (const auto& [addr, block] : img.pages) {
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
    if (img.pages.count(addr) == 0) {
      mem.drop_page(addr);
      ++st.pages_dropped;
    }
  }
}

/// Resolves the request's effective baseline: an explicit one wins, then
/// the per-pid map; null means a full dump.
const Baseline* effective_baseline(const CkptRequest& req) {
  if (req.baseline != nullptr) return req.baseline;
  if (req.baselines != nullptr) {
    auto it = req.baselines->find(req.pid);
    if (it != req.baselines->end()) return &it->second;
  }
  return nullptr;
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
  const Baseline* baseline = effective_baseline(req);
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

  for (const auto& [start, vma] : p->mem.vmas()) {
    img.vmas.push_back(VmaImage{vma.start, vma.end, vma.prot, vma.name});
  }

  // Unlike stock CRIU we also dump file-backed executable pages — the
  // paper's criu/mem.c modification — which in this substrate simply means
  // dumping every populated page. "Dumping" a page shares its refcounted
  // block into the image (O(1)); the next live write clones it (COW).
  CkptStats st;
  std::optional<std::vector<uint64_t>> dirty;
  if (baseline != nullptr) {
    dirty = p->mem.dirty_pages_since(baseline->epoch);
  }
  if (dirty.has_value()) {
    // Incremental: start from the baseline's page table (pointer shares),
    // then overlay just the dirty set. Dirty pages that are no longer live
    // (dropped or unmapped since the baseline) leave the image too.
    st.incremental = true;
    img.pages = baseline->img.pages;
    for (uint64_t page : *dirty) {
      if (p->mem.page_live(page)) {
        img.pages.put(page, p->mem.page_block(page));
        ++st.pages_dumped;
      } else {
        st.pages_dropped += img.pages.erase(page);
      }
    }
    st.pages_shared = img.pages.size() - st.pages_dumped;
  } else {
    for (uint64_t page : p->mem.populated_pages()) {
      img.pages.put(page, p->mem.page_block(page));
    }
    st.pages_dumped = img.pages.size();
  }
  st.pages_total = img.pages.size();

  for (const auto& [fd, desc] : p->fds) {
    img.fds.push_back(dump_fd(fd, desc));
  }
  for (const auto& m : p->modules) {
    img.modules.push_back(ModuleImage{m.name, m.base, m.size, m.binary});
  }
  if (bus != nullptr) {
    obs::Event e(obs::ev::kCheckpointDump, pid);
    e.with("pages", static_cast<uint64_t>(img.pages.size()))
        .with("pages_dumped", st.pages_dumped)
        .with("pages_shared", st.pages_shared)
        .with("incremental", static_cast<uint64_t>(st.incremental))
        .with("vmas", static_cast<uint64_t>(img.vmas.size()))
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
  st.pages_total = img.pages.size();
  if (mode == RestoreMode::kFull) {
    p->mem = build_address_space(img);
    // The whole address space was rebuilt: every decoded instruction the
    // process cached is stale (the asid check would also catch this, but
    // the explicit clear frees the dead pages immediately).
    p->dcache.clear();
    // Fused traces hold generation-slot pointers into the old address
    // space; drop them with it.
    p->sbcache.clear();
    st.pages_restored = img.pages.size();
    st.vmas_changed = img.vmas.size();
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
    e.with("pages", static_cast<uint64_t>(img.pages.size()))
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
  p->mem = build_address_space(img);
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

  if (opts.warm_code) {
    for (const auto& [start, vma] : p->mem.vmas()) {
      if ((vma.prot & kProtExec) != 0) {
        p->dcache.warm(p->mem, vma.start, vma.end);
      }
    }
  }
  return os.adopt(std::move(p));
}

std::vector<ProcessImage> checkpoint_group(os::Os& os, int root_pid,
                                           FaultPlan* faults,
                                           obs::EventBus* bus,
                                           const BaselineMap* baselines,
                                           std::vector<CkptStats>* stats) {
  std::vector<ProcessImage> out;
  for (int pid : os.process_group(root_pid)) {
    CkptReport rep = checkpoint(os, CkptRequest{.pid = pid,
                                                .faults = faults,
                                                .bus = bus,
                                                .baselines = baselines});
    out.push_back(std::move(rep.img));
    if (stats != nullptr) stats->push_back(rep.stats);
  }
  return out;
}

}  // namespace dynacut::image
