#include "core/dynacut.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/log.hpp"
#include "core/handler_lib.hpp"

namespace dynacut::core {

namespace {

/// kRedirect's table rows for one image: flattened (trap addr, error-path
/// addr) pairs. Same-function restriction (paper §3.2.2): only removed
/// blocks in the error handler's own function are redirected; the others
/// fall through to terminate.
std::vector<uint64_t> redirect_rows(const image::ProcessImage& img,
                                    const FeatureSpec& f) {
  const image::ModuleImage* m = img.module_named(f.redirect_module);
  if (m == nullptr) {
    throw StateError("redirect: module not loaded: " + f.redirect_module);
  }
  const melf::Symbol* target_fn =
      m->binary->symbol_containing(f.redirect_offset);
  if (target_fn == nullptr) {
    throw StateError("redirect: target offset " + hex_addr(f.redirect_offset) +
                     " is not inside any function of " + f.redirect_module);
  }
  std::vector<uint64_t> rows;
  for (const auto& b : f.blocks) {
    if (b.module == f.redirect_module &&
        m->binary->symbol_containing(b.offset) == target_fn) {
      rows.insert(rows.end(),
                  {m->base + b.offset, m->base + f.redirect_offset});
    }
  }
  if (rows.empty()) {
    throw StateError(
        "redirect: no removed block shares a function with the error "
        "handler (offset " +
        hex_addr(f.redirect_offset) + " in " + target_fn->name + ")");
  }
  return rows;
}

/// read_table() plus the one `obs.warning` for a guest-scribbled count.
TableRead read_and_warn(const os::Process& p, const GuestTable& t,
                        obs::EventBus* bus) {
  TableRead read = read_table(p, t);
  if (read.clamped() && bus != nullptr) {
    bus->emit(obs::Event(obs::ev::kWarning, p.pid)
                  .with("what", std::string(t.count_sym) + " exceeds " +
                                    t.records_sym + " capacity")
                  .with("raw_count", read.raw_count)
                  .with("capacity", read.capacity));
  }
  return read;
}

}  // namespace

DynaCut::DynaCut(os::Os& os, int root_pid, CostModel model, CheckMode check)
    : os_(os), root_pid_(root_pid), model_(model), check_mode_(check) {
  if (os_.process(root_pid) == nullptr) {
    throw StateError("DynaCut: no process " + std::to_string(root_pid));
  }
}

DynaCut::~DynaCut() {
  // The annotator closure captures `this`; leaving it installed would make
  // the bus call into a dead object on the next trap.
  if (bus_ != nullptr) bus_->set_annotator(nullptr);
}

void DynaCut::set_observer(obs::EventBus* bus, obs::Registry* metrics) {
  if (bus_ != nullptr && bus_ != bus) bus_->set_annotator(nullptr);
  bus_ = bus;
  metrics_ = metrics;
  if (bus_ != nullptr) {
    if (!bus_->has_clock()) {
      bus_->set_clock([this] { return os_.now(); });
    }
    bus_->set_annotator([this](obs::Event& e) { annotate(e); });
  }
}

void DynaCut::annotate(obs::Event& e) {
  // trap.hit and stub.hit get identical feature/policy enrichment, so
  // timeline consumers (fig8/fig10) stay mechanism-agnostic. A stub.hit
  // aggregates a polled delta; a trap.hit is always one delivery.
  const bool is_trap = e.type == obs::ev::kTrapHit;
  const bool is_stub = e.type == obs::ev::kStubHit;
  if (!is_trap && !is_stub) return;
  const uint64_t count = is_stub ? e.attr_u64("hits") : 1;
  if (metrics_ != nullptr) {
    metrics_->add(is_trap ? "trap.hits" : "cut.stub_hits", count);
  }
  const auto& sites = is_trap ? trap_sites_ : stub_sites_;
  auto it = sites.find({e.pid, e.attr_u64("addr")});
  if (it == sites.end()) return;
  e.with("feature", it->second.feature).with("policy", it->second.policy);
  if (metrics_ != nullptr) {
    metrics_->add(std::string(is_trap ? "trap.hits." : "cut.stub_hits.") +
                      it->second.feature,
                  count);
  }
}

std::vector<analysis::cutcheck::CutPlan> DynaCut::plans_for(
    const CutRequest& req) const {
  std::vector<rw::ModuleRef> mods;
  if (const os::Process* proc = os_.process(root_pid_)) {
    mods.reserve(proc->modules.size());
    for (const auto& m : proc->modules) mods.push_back({m.name, m.binary});
  }
  return rw::extract_plans(mods, req.feature.name, req.feature.blocks,
                           req.removal, req.trap, req.feature.redirect_module,
                           req.feature.redirect_offset, req.mechanism);
}

CutRequest DynaCut::expanded_request(const CutRequest& req,
                                     rw::SliceExpansion* stats) const {
  if (!req.expand_to_slice) return req;

  auto plans = plans_for(req);

  // A module's functions imported by any other loaded module are entered
  // from outside its CFG; pin them against call closure.
  analysis::slicer::SliceOptions sopts;
  if (const os::Process* proc = os_.process(root_pid_)) {
    for (const auto& m : proc->modules) {
      if (m.binary == nullptr) continue;
      for (const auto& imp : m.binary->imports) {
        sopts.keep_functions.insert(imp);
      }
    }
  }

  rw::SliceExpansion exp = rw::expand_plans_to_slice(plans, sopts);
  if (stats != nullptr) *stats = exp;

  CutRequest out = req;
  out.expand_to_slice = false;
  out.feature.blocks.clear();
  for (const auto& plan : plans) {
    out.feature.blocks.insert(out.feature.blocks.end(), plan.blocks.begin(),
                              plan.blocks.end());
  }
  return out;
}

DynaCut::StubPlans DynaCut::plan_stub_redirection(const CutRequest& req) const {
  StubPlans out;
  if (req.mechanism == CutMechanism::kTrap) return out;
  for (const auto& plan : plans_for(req)) {
    if (plan.binary == nullptr || plan.blocks.empty()) continue;
    analysis::slicer::StubPlan sp = analysis::slicer::plan_stubs(
        *analysis::slicer::model_for(plan.binary), plan);
    if (!sp.entries.empty()) out.emplace(plan.module, std::move(sp));
  }
  return out;
}

analysis::cutcheck::CheckReport DynaCut::preflight(
    const CutRequest& req) const {
  auto report = analysis::cutcheck::check_plans(
      plans_for(expanded_request(req)), req.check_options);
  if (bus_ != nullptr) {
    for (const auto& d : report.diags) {
      bus_->emit(obs::Event(obs::ev::kCutcheckFinding)
                     .with("feature", req.feature.name)
                     .with("rule", d.rule)
                     .with("severity",
                           analysis::cutcheck::severity_name(d.severity))
                     .with("module", d.module)
                     .with("offset", d.offset));
    }
  }
  return report;
}

void DynaCut::preflight_or_throw(const CutRequest& req) const {
  CheckMode mode = req.check.value_or(check_mode_);
  if (mode == CheckMode::kOff) return;
  auto report = preflight(req);
  for (const auto& d : report.diags) {
    using analysis::cutcheck::Severity;
    if (d.severity == Severity::kNote) {
      log_debug("cutcheck: " + d.format());
    } else {
      log_warn("cutcheck: " + d.format());
    }
  }
  if (report.ok()) return;
  if (mode == CheckMode::kEnforce) {
    throw StateError("cutcheck rejected plan '" + req.feature.name + "':\n" +
                     report.format());
  }
  log_warn("cutcheck: plan '" + req.feature.name + "' has " +
           std::to_string(report.errors()) +
           " error(s); applying anyway (warn mode)");
}

CustomizeReport DynaCut::disable_feature(const CutRequest& req) {
  if (applied_.count(req.feature.name) != 0) {
    throw StateError("feature already disabled: " + req.feature.name);
  }
  if (req.trap == TrapPolicy::kVerify &&
      req.removal != RemovalPolicy::kBlockFirstByte) {
    throw StateError("verify mode requires the first-byte removal policy");
  }
  if (req.mechanism != CutMechanism::kTrap &&
      req.removal == RemovalPolicy::kUnmapPages) {
    throw StateError(
        "stub mechanism requires mapped code for its int3 safety net; "
        "unmapped residual reachability would SIGSEGV (use first-byte or "
        "wipe removal)");
  }
  return apply(req);
}

CustomizeReport DynaCut::remove_init_code(
    const analysis::CoverageGraph& init_blocks, RemovalPolicy removal) {
  return apply(CutRequest{
      .feature = FeatureSpec{.name = "__init__",
                             .blocks = init_blocks.blocks()},
      .removal = removal,
      .trap = TrapPolicy::kTerminate,
      .label = "__init__"});
}

bool DynaCut::feature_disabled(const std::string& name) const {
  return applied_.count(name) != 0;
}

std::vector<std::string> DynaCut::disabled_features() const {
  std::vector<std::string> out;
  out.reserve(applied_.size());
  for (const auto& [name, edits] : applied_) out.push_back(name);
  return out;
}

std::string DynaCut::tag_with(const std::string& add,
                              const std::string& remove) const {
  std::set<std::string> names;
  for (const auto& [name, edits] : applied_) names.insert(name);
  if (!add.empty()) names.insert(add);
  if (!remove.empty()) names.erase(remove);
  std::string tag;
  for (const auto& name : names) {
    if (!tag.empty()) tag += '+';
    tag += name;
  }
  return tag;
}

std::string DynaCut::feature_set_tag() const { return tag_with({}, {}); }

std::vector<int> DynaCut::live_pids(const PerPidEdits* subset) const {
  std::vector<int> out;
  for (int pid : os_.process_group(root_pid_)) {
    if (subset != nullptr && subset->count(pid) == 0) continue;
    const os::Process* proc = os_.process(pid);
    if (proc != nullptr && proc->state != os::Process::State::kExited) {
      out.push_back(pid);
    }
  }
  return out;
}

CustomizeReport DynaCut::transact(
    const std::string& feature, const std::string& label,
    const std::string& action, const std::vector<int>& pids,
    std::string commit_tag,
    const std::vector<std::pair<std::string, std::string>>& tags,
    const RewriteFn& rewrite, const std::function<void()>& committed) {
  const bool incremental = ckpt_mode_ == CkptMode::kIncremental;
  GroupTxn txn(os_, pids, store_, bus_, label, action,
               incremental ? &baselines_ : nullptr,
               incremental ? image::RestoreMode::kDelta
                           : image::RestoreMode::kFull,
               std::move(commit_tag));
  CustomizeReport report;
  FaultStage stage = FaultStage::kCheckpoint;
  int cur_pid = root_pid_;
  try {
    // Stage phase: checkpoint and rewrite every image of the frozen group.
    // No live process is touched yet, so a failure here only thaws it.
    for (int pid : pids) {
      cur_pid = pid;
      stage = FaultStage::kCheckpoint;
      image::CkptStats ckpt;
      image::ProcessImage img = txn.dump(pid, faults_, &ckpt);
      report.timing.checkpoint_ns +=
          ckpt.incremental ? model_.checkpoint_delta_cost(ckpt.pages_dumped)
                           : model_.checkpoint_cost(ckpt.pages_total);
      report.edits.image_pages += img.pages.size();
      report.edits.pages_dumped += ckpt.pages_dumped;
      report.edits.pages_shared += ckpt.pages_shared;

      stage = FaultStage::kRewrite;
      rw::ImageRewriter rewriter(img, faults_, bus_);
      const size_t patched_before = report.edits.blocks_patched;
      const size_t unmapped_before = report.edits.pages_unmapped;
      rewrite(pid, rewriter, img, report, stage);
      // Charge the per-pid delta, not the running totals: cumulative counts
      // would over-charge code_update_ns for every process after the first.
      report.timing.code_update_ns +=
          model_.patch_cost(report.edits.blocks_patched - patched_before,
                            report.edits.pages_unmapped - unmapped_before);
      report.edits.pages_touched += rewriter.pages_touched();
      txn.stage(pid, std::move(img));
      ++report.edits.processes;
    }
    // Commit phase: restore every staged image; on failure commit() itself
    // rolls the group back to its pristine images.
    txn.commit(feature, faults_,
               [&](const image::ProcessImage& img, const image::CkptStats&,
                   const image::RestoreStats& rst) {
                 report.timing.restore_ns +=
                     rst.in_place
                         ? model_.restore_delta_cost(rst.pages_restored)
                         : model_.restore_cost(img.pages.size());
                 report.edits.pages_restored += rst.pages_restored;
               });
  } catch (const Error& e) {
    txn.abort();  // a no-op once commit() has rolled back
    if (metrics_ != nullptr) metrics_->add("txn.aborts");
    if (dynamic_cast<const CustomizeError*>(&e) != nullptr) throw;
    const auto* fault = dynamic_cast<const InjectedFault*>(&e);
    throw CustomizeError(feature, fault != nullptr ? fault->stage() : stage,
                         cur_pid, e.what());
  }

  committed();
  // The rewrite window is billed to the freeze set: on a multi-core osim
  // only the customized processes stall while the rest of the fleet keeps
  // serving; with one core the whole machine stalls (historical fig8
  // semantics). Charged before finalize_obs, which stamps txn.commit.
  os_.charge_downtime(pids, report.timing.total_ns());
  finalize_obs(report, label, action, tags);
  return report;
}

void DynaCut::finalize_obs(
    CustomizeReport& report, const std::string& label,
    const std::string& action,
    const std::vector<std::pair<std::string, std::string>>& tags) {
  report.obs.label = label;
  if (bus_ != nullptr && bus_->in_txn()) {
    report.obs.txn = bus_->current_txn();
    std::vector<obs::Attr> attrs{
        obs::Attr::s("action", action),
        obs::Attr::u("processes", report.edits.processes),
        obs::Attr::u("blocks_patched", report.edits.blocks_patched),
        obs::Attr::u("pages_unmapped", report.edits.pages_unmapped),
        obs::Attr::u("bytes_patched", report.edits.bytes_patched),
        obs::Attr::u("image_pages", report.edits.image_pages),
        obs::Attr::u("pages_dumped", report.edits.pages_dumped),
        obs::Attr::u("pages_shared", report.edits.pages_shared),
        obs::Attr::u("pages_restored", report.edits.pages_restored),
        obs::Attr::u("pages_touched", report.edits.pages_touched),
        obs::Attr::u("callsites_stubbed", report.edits.callsites_stubbed),
        obs::Attr::u("got_slots_stubbed", report.edits.got_slots_stubbed),
        obs::Attr::u("interruption_ns", report.timing.total_ns())};
    for (const auto& [k, v] : tags) attrs.push_back(obs::Attr::s(k, v));
    report.obs.events = bus_->commit_txn(std::move(attrs));
  }
  if (metrics_ != nullptr) {
    metrics_->add("txn.commits");
    metrics_->add("cut." + action + "s");
    metrics_->add("cut.blocks_patched", report.edits.blocks_patched);
    metrics_->add("cut.pages_unmapped", report.edits.pages_unmapped);
    metrics_->add("cut.bytes_patched", report.edits.bytes_patched);
    if (report.edits.callsites_stubbed != 0) {
      metrics_->add("cut.callsites_stubbed", report.edits.callsites_stubbed);
    }
    if (report.edits.got_slots_stubbed != 0) {
      metrics_->add("cut.got_slots_stubbed", report.edits.got_slots_stubbed);
    }
    metrics_->histogram("cut.stage_ns")
        .observe(report.timing.checkpoint_ns + report.timing.code_update_ns +
                 report.timing.inject_ns);
    metrics_->histogram("cut.commit_ns").observe(report.timing.restore_ns);
    metrics_->histogram("cut.pages_dumped").observe(report.edits.pages_dumped);
  }
}

CustomizeReport DynaCut::apply(const CutRequest& request) {
  // Feature names feed ImageKey feature-set tags (tag_with joins the
  // applied set with '+'): the reserved pre-rewrite tag would overwrite
  // the pristine rollback image's key, and a '+' inside a name makes tags
  // ambiguous ("a+b" vs the set {a, b}). Reject both up front.
  const std::string& requested_name = request.feature.name;
  if (requested_name.empty()) {
    throw StateError("invalid feature name: empty");
  }
  if (requested_name == image::ImageKey::kPreTag) {
    throw StateError("invalid feature name '" + requested_name +
                     "': reserved for pre-rewrite images");
  }
  if (requested_name.find('+') != std::string::npos) {
    throw StateError("invalid feature name '" + requested_name +
                     "': '+' is the feature-set tag separator");
  }

  rw::SliceExpansion slice;
  const CutRequest req = expanded_request(request, &slice);
  preflight_or_throw(req);

  const std::string& feature_name = req.feature.name;

  // Stub planning is offline analysis over the static binaries — done once
  // before the group freezes, not per pid. skip_trap blocks start with a
  // redirected call/jmp: the redirect is the denial, so remove_blocks must
  // leave their bytes alone.
  const StubPlans stub_plans = plan_stub_redirection(req);
  std::map<std::string, std::set<uint64_t>> skip_blocks;
  for (const auto& [mod, sp] : stub_plans) {
    if (!sp.skip_trap_blocks.empty()) skip_blocks[mod] = sp.skip_trap_blocks;
  }

  if (request.expand_to_slice && bus_ != nullptr) {
    bus_->emit(obs::Event(obs::ev::kSliceExpand)
                   .with("feature", feature_name)
                   .with("seed_blocks", static_cast<uint64_t>(slice.seeds))
                   .with("slice_blocks", static_cast<uint64_t>(slice.expanded))
                   .with("witnesses", static_cast<uint64_t>(slice.witnesses)));
  }

  PerPidEdits per_pid;
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> per_pid_slots;
  auto rewrite = [&](int pid, rw::ImageRewriter& rewriter,
                     image::ProcessImage& img, CustomizeReport& report,
                     FaultStage& stage) {
    std::vector<AppliedEdit>& edits = per_pid[pid];
    std::vector<uint64_t> orig_rows;
    remove_blocks(rewriter, img, req.feature.blocks, req.removal, edits,
                  orig_rows, report,
                  skip_blocks.empty() ? nullptr : &skip_blocks);
    if (!stub_plans.empty()) {
      stage = FaultStage::kInject;
      install_stubs(rewriter, img, stub_plans, req, edits,
                    per_pid_slots[pid], report);
    }
    if (!edits.empty() && req.trap != TrapPolicy::kTerminate) {
      stage = FaultStage::kInject;
      install_handler(rewriter, img, req.trap,
                      req.trap == TrapPolicy::kRedirect
                          ? redirect_rows(img, req.feature)
                          : orig_rows,
                      report);
    }
  };

  // Record the edits only after commit, merging with any earlier rounds of
  // the same feature (remove_init_code can trim repeatedly): replacing the
  // record wholesale would leak the earlier rounds' stashed original bytes
  // and leave the feature only partially restorable.
  auto record = [&] {
    PerPidEdits& dst = applied_[feature_name];
    const char* policy = analysis::cutcheck::trap_name(req.trap);
    for (auto& [pid, edits] : per_pid) {
      for (const AppliedEdit& e : edits) {
        // Stub edits (rel32/GOT redirects) never trap — registering them
        // would misattribute an unrelated int3 landing on those bytes.
        if (!e.unmapped && !e.stub) {
          trap_sites_[{pid, e.patch.vaddr}] = TrapSite{feature_name, policy};
        }
      }
      auto& vec = dst[pid];
      vec.insert(vec.end(), std::make_move_iterator(edits.begin()),
                 std::make_move_iterator(edits.end()));
    }
    for (const auto& [pid, slots] : per_pid_slots) {
      for (const auto& [slot, entry_addr] : slots) {
        stub_slots_[{pid, slot}] = StubSlotMeta{feature_name, entry_addr, 0};
        stub_sites_[{pid, entry_addr}] = TrapSite{feature_name, policy};
      }
    }
  };

  CustomizeReport report =
      transact(feature_name, req.obs_label(), "disable", live_pids(),
               tag_with(feature_name, {}), req.tags, rewrite, record);
  if (request.expand_to_slice) {
    // Offline work before the group froze: charged outside total_ns().
    report.timing.analysis_ns += model_.slice_cost(slice.expanded);
  }
  log_info("disabled '" + feature_name + "': " +
           std::to_string(report.edits.blocks_patched) +
           " blocks patched, " +
           std::to_string(report.edits.pages_unmapped) +
           " pages unmapped across " +
           std::to_string(report.edits.processes) + " processes");
  return report;
}

void DynaCut::remove_blocks(
    rw::ImageRewriter& rewriter, const image::ProcessImage& img,
    const std::vector<analysis::CovBlock>& blocks, RemovalPolicy removal,
    std::vector<AppliedEdit>& edits, std::vector<uint64_t>& orig_rows,
    CustomizeReport& report,
    const std::map<std::string, std::set<uint64_t>>* skip) {
  // Resolve blocks to absolute ranges; skip modules absent from this image.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (addr, size)
  for (const auto& b : blocks) {
    const image::ModuleImage* m = img.module_named(b.module);
    if (m == nullptr) continue;
    if (skip != nullptr) {
      auto sit = skip->find(b.module);
      if (sit != skip->end() && sit->second.count(b.offset) != 0) {
        continue;  // the callsite redirect denies this block (skip_trap)
      }
    }
    uint64_t size = b.size == 0 ? 1 : b.size;
    ranges.emplace_back(m->base + b.offset, size);
  }

  switch (removal) {
    case RemovalPolicy::kBlockFirstByte:
      for (const auto& [addr, size] : ranges) {
        AppliedEdit e;
        e.patch = rewriter.block_first_byte(addr);
        orig_rows.insert(orig_rows.end(), {addr, e.patch.original[0]});
        report.edits.bytes_patched += e.patch.original.size();
        edits.push_back(std::move(e));
        ++report.edits.blocks_patched;
      }
      return;

    case RemovalPolicy::kWipeBlocks:
      for (const auto& [addr, size] : ranges) {
        AppliedEdit e;
        e.patch = rewriter.wipe(addr, size);
        report.edits.bytes_patched += e.patch.original.size();
        edits.push_back(std::move(e));
        ++report.edits.blocks_patched;
      }
      return;

    case RemovalPolicy::kUnmapPages: {
      // Pages entirely covered by removed blocks can be dropped wholesale;
      // partially covered pages get their covered bytes wiped instead.
      std::map<uint64_t, uint64_t> covered;  // page -> covered bytes
      for (const auto& [addr, size] : ranges) {
        uint64_t cur = addr;
        uint64_t end = addr + size;
        while (cur < end) {
          uint64_t page = page_floor(cur);
          uint64_t chunk = std::min(end, page + kPageSize) - cur;
          covered[page] += chunk;
          cur += chunk;
        }
      }
      auto page_full = [&](uint64_t page) {
        auto it = covered.find(page);
        return it != covered.end() && it->second >= kPageSize;
      };

      // Wipe the partial-page fragments of every block.
      for (const auto& [addr, size] : ranges) {
        uint64_t cur = addr;
        uint64_t end = addr + size;
        bool patched = false;
        while (cur < end) {
          uint64_t page = page_floor(cur);
          uint64_t chunk = std::min(end, page + kPageSize) - cur;
          if (!page_full(page)) {
            AppliedEdit e;
            e.patch = rewriter.wipe(cur, chunk);
            report.edits.bytes_patched += e.patch.original.size();
            edits.push_back(std::move(e));
            patched = true;
          }
          cur += chunk;
        }
        if (patched) ++report.edits.blocks_patched;
      }

      // Drop the fully covered pages (content saved for re-enable).
      for (const auto& [page, bytes] : covered) {
        if (bytes < kPageSize) continue;
        const image::VmaImage* vma = img.vma_at(page);
        if (vma == nullptr) continue;
        AppliedEdit e;
        e.unmapped = true;
        e.vma_prot = vma->prot;
        e.vma_name = vma->name;
        e.patch.vaddr = page;
        e.patch.original = img.read_bytes(page, kPageSize);
        rewriter.unmap_pages(page, kPageSize);
        edits.push_back(std::move(e));
        ++report.edits.pages_unmapped;
      }
      return;
    }
  }
}

void DynaCut::inject_once(
    rw::ImageRewriter& rewriter, const image::ProcessImage& img,
    const char* name,
    const std::function<std::shared_ptr<const melf::Binary>()>& build,
    CustomizeReport& report, uint64_t hint) {
  if (img.module_named(name) != nullptr) return;
  std::shared_ptr<const melf::Binary> lib = build();
  const size_t relocs_before = rewriter.relocs_applied();
  rewriter.inject_library(
      lib, hint == 0 ? 0 : img.find_free(lib->image_size(), hint));
  report.timing.inject_ns +=
      model_.inject_cost(rewriter.relocs_applied() - relocs_before);
}

void DynaCut::install_handler(rw::ImageRewriter& rewriter,
                              image::ProcessImage& img, TrapPolicy trap,
                              const std::vector<uint64_t>& rows,
                              CustomizeReport& report) {
  const bool verify = trap == TrapPolicy::kVerify;
  const GuestTable& table = verify ? kOrigTable : kRedirectTable;
  // A later feature appends its rows to the table injected here, so the
  // first injection leaves headroom.
  auto build = [&] {
    return verify ? build_verifier_lib(std::max<size_t>(rows.size() / 2, 256),
                                       /*log_capacity=*/1024)
                  : build_redirect_lib(/*capacity=*/256);
  };
  inject_once(rewriter, img, table.lib, build, report);
  append_records(img, table, rows, 2);
  // The verifier heals code in place: its handler mprotects the page
  // writable itself, so the code pages only have to stay mapped.
  rewriter.set_sigaction(
      os::sig::kSigTrap,
      rewriter.symbol_addr(table.lib, verify ? "dynacut_verify_handler"
                                             : "dynacut_handler"),
      rewriter.symbol_addr(table.lib, "dynacut_restorer"));
}

void DynaCut::install_stubs(
    rw::ImageRewriter& rewriter, image::ProcessImage& img,
    const StubPlans& plans, const CutRequest& req,
    std::vector<AppliedEdit>& edits,
    std::vector<std::pair<uint64_t, uint64_t>>& slots,
    CustomizeReport& report) {
  // The stub lib must sit within rel32 range of every redirected callsite;
  // the default inject hint deliberately is not (it mimics high mmap
  // randomization), so place it in the low gap above libc instead.
  inject_once(
      rewriter, img, kStubLibName,
      [] { return build_stub_lib(/*capacity=*/256); }, report,
      /*hint=*/0x70000000);

  // kRedirect's same-function restriction carries over: only callsites in
  // the error handler's own function may branch to it (pop the call return
  // address first for a call, plain tail jump otherwise); everything else
  // deny-returns kStubDenyResult.
  const image::ModuleImage* rmod = nullptr;
  const melf::Symbol* redirect_fn = nullptr;
  if (req.trap == TrapPolicy::kRedirect) {
    rmod = img.module_named(req.feature.redirect_module);
    if (rmod != nullptr) {
      redirect_fn =
          rmod->binary->symbol_containing(req.feature.redirect_offset);
    }
  }

  // Plan every redirect before allocating: one slot per distinct (entry,
  // mode, value), so every callsite of the same cut entry shares a slot
  // and its hit counter aggregates per feature entry. A new slot's record
  // is {hits = 0, mode, value}.
  struct Redirect {
    uint64_t at;    // callsite, or GOT slot when `got`
    bool got;
    uint64_t slot;  // index among this call's new slots
  };
  std::vector<Redirect> redirects;
  std::vector<uint64_t> records;
  std::vector<uint64_t> entries;  // stubbed entry per new slot
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, uint64_t> slot_for;
  auto plan = [&](uint64_t at, bool got, uint64_t entry, uint64_t mode,
                  uint64_t value) {
    auto [it, fresh] =
        slot_for.try_emplace({entry, mode, value}, entries.size());
    if (fresh) {
      records.insert(records.end(), {0, mode, value});
      entries.push_back(entry);
    }
    redirects.push_back(Redirect{at, got, it->second});
  };
  for (const auto& [mod_name, sp] : plans) {
    const image::ModuleImage* m = img.module_named(mod_name);
    if (m == nullptr) continue;
    for (const auto& site : sp.sites) {
      uint64_t mode = kStubModeDenyRet;
      uint64_t value = kStubDenyResult;
      if (redirect_fn != nullptr && rmod == m &&
          m->binary->symbol_containing(site.instr) == redirect_fn) {
        mode = site.is_call ? kStubModePopJmp : kStubModeTailJmp;
        value = rmod->base + req.feature.redirect_offset;
      }
      plan(m->base + site.instr, false, m->base + site.entry, mode, value);
    }
    // PLT half: cross-module imports of a stubbed export go through the
    // importer's GOT slot — repoint the slot and the importer's existing
    // PLT stub becomes the branch into the deny stub.
    for (const auto& [name, entry] : sp.exports) {
      for (const auto& other : img.modules) {
        if (other.name == mod_name || other.name == kStubLibName) continue;
        if (other.binary == nullptr) continue;
        for (size_t i = 0; i < other.binary->imports.size(); ++i) {
          if (other.binary->imports[i] != name) continue;
          plan(other.base + other.binary->got_slot_offset(i), true,
               m->base + entry, kStubModeDenyRet, kStubDenyResult);
        }
      }
    }
  }

  const uint64_t first = append_records(img, kStubSlots, records, 3);
  for (size_t i = 0; i < entries.size(); ++i) {
    slots.emplace_back(first + i, entries[i]);
  }
  for (const Redirect& r : redirects) {
    const uint64_t stub = rewriter.symbol_addr(
        kStubLibName, "dynacut_stub_" + std::to_string(first + r.slot));
    AppliedEdit e;
    e.stub = true;
    e.patch = r.got ? rewriter.redirect_got(r.at, stub)
                    : rewriter.redirect_branch(r.at, stub);
    report.edits.bytes_patched += e.patch.original.size();
    edits.push_back(std::move(e));
    ++(r.got ? report.edits.got_slots_stubbed
             : report.edits.callsites_stubbed);
  }
}

CustomizeReport DynaCut::restore_feature(const std::string& name) {
  auto it = applied_.find(name);
  if (it == applied_.end()) {
    throw StateError("feature not disabled: " + name);
  }
  const PerPidEdits& recorded = it->second;

  auto undo = [&](int pid, rw::ImageRewriter& rewriter,
                  image::ProcessImage& img, CustomizeReport& report,
                  FaultStage&) {
    const std::vector<AppliedEdit>& edits = recorded.at(pid);
    for (auto e = edits.rbegin(); e != edits.rend(); ++e) {
      if (e->unmapped) {
        img.add_vma(e->patch.vaddr, e->patch.original.size(), e->vma_prot,
                    e->vma_name);
        img.write_bytes(e->patch.vaddr, e->patch.original);
        ++report.edits.pages_unmapped;
      } else {
        rewriter.undo(e->patch);
        report.edits.bytes_patched += e->patch.original.size();
        ++report.edits.blocks_patched;
      }
    }
  };

  // The traps are gone from the code; stop attributing hits to them. Stub
  // slots likewise: the callsite/GOT redirects were undone, so their guest
  // counters can never advance again (the injected lib itself stays — a
  // later disable continues from the same slot cursor).
  auto forget = [&] {
    for (const auto& [pid, edits] : recorded) {
      for (const AppliedEdit& e : edits) {
        if (!e.unmapped) trap_sites_.erase({pid, e.patch.vaddr});
      }
    }
    for (auto sit = stub_slots_.begin(); sit != stub_slots_.end();) {
      if (sit->second.feature == name) {
        stub_sites_.erase({sit->first.first, sit->second.entry_addr});
        sit = stub_slots_.erase(sit);
      } else {
        ++sit;
      }
    }
    applied_.erase(it);
  };

  CustomizeReport report = transact(name, name, "restore",
                                    live_pids(&recorded), tag_with({}, name),
                                    {}, undo, forget);
  log_info("restored feature '" + name + "'");
  return report;
}

std::vector<uint64_t> DynaCut::verifier_log(int pid) const {
  const os::Process* p = os_.process(pid);
  if (p == nullptr) throw StateError("verifier_log: no process");
  std::vector<uint64_t> addrs = read_and_warn(*p, kHealLog, bus_).heads;
  // Surface entries not seen by a previous read as verifier.heal events.
  uint64_t& seen = heals_seen_[pid];
  for (uint64_t i = seen; i < addrs.size(); ++i) {
    if (bus_ != nullptr) {
      bus_->emit(
          obs::Event(obs::ev::kVerifierHeal, pid).with("addr", addrs[i]));
    }
    if (metrics_ != nullptr) metrics_->add("verifier.heals");
  }
  seen = std::max<uint64_t>(seen, addrs.size());
  return addrs;
}

uint64_t DynaCut::poll_stub_hits() {
  uint64_t total_new = 0;
  int cur_pid = -1;
  std::vector<uint64_t> hits;
  // stub_slots_ is keyed (pid, slot) so one guest read serves all of a
  // pid's slots; an exited pid reads as no hits.
  for (auto& [key, meta] : stub_slots_) {
    const auto& [pid, slot] = key;
    if (pid != cur_pid) {
      cur_pid = pid;
      const os::Process* p = os_.process(pid);
      hits = p != nullptr && p->state != os::Process::State::kExited
                 ? read_and_warn(*p, kStubSlots, bus_).heads
                 : std::vector<uint64_t>{};
    }
    if (slot >= hits.size() || hits[slot] <= meta.seen_hits) continue;
    const uint64_t delta = hits[slot] - meta.seen_hits;
    meta.seen_hits = hits[slot];
    total_new += delta;
    if (bus_ != nullptr) {
      // The annotator enriches the event with feature/policy and charges
      // the cut.stub_hits counters, exactly like a trap.hit delivery.
      bus_->emit(obs::Event(obs::ev::kStubHit, pid)
                     .with("addr", meta.entry_addr)
                     .with("hits", delta)
                     .with("total", hits[slot]));
    } else if (metrics_ != nullptr) {
      metrics_->add("cut.stub_hits", delta);
    }
  }
  return total_new;
}

}  // namespace dynacut::core
