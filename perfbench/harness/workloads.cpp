#include "harness/workloads.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "analysis/cfg.hpp"
#include "analysis/coverage.hpp"
#include "analysis/gadget.hpp"
#include "analysis/slicer/slicer.hpp"
#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "common/error.hpp"
#include "core/handler_lib.hpp"
#include "image/checkpoint.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

using namespace dynacut;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kSmallHeapKb = 64;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Costs scaled for 64 KB minikv instances (the calibrated model charges a
/// 30 ms CRIU setup per toggle, sized for a 4 MB image); the same shape as
/// fleet_bench's model.
core::CostModel small_cost_model() {
  core::CostModel m;
  m.checkpoint_base_ns = 200'000;
  m.restore_base_ns = 200'000;
  m.checkpoint_delta_base_ns = 50'000;
  m.restore_delta_base_ns = 50'000;
  m.checkpoint_per_page_ns = 2'000;
  m.restore_per_page_ns = 2'000;
  m.patch_per_block_ns = 20'000;
  m.inject_base_ns = 500'000;
  m.inject_per_reloc_ns = 5'000;
  return m;
}

template <typename Pred>
bool run_until(os::Os& vos, Pred done, int rounds = 400) {
  for (int i = 0; i < rounds && !done(); ++i) vos.run(200'000);
  return done();
}

void boot(os::Os& vos, const std::vector<Server>& servers) {
  const bool up = run_until(vos, [&] {
    return std::all_of(servers.begin(), servers.end(), [&](const Server& s) {
      return vos.has_listener(s.port);
    });
  });
  if (!up) throw StateError("perfbench: servers failed to boot");
}

/// The paper's tracediff (§3.1): trace one run exercising the unwanted
/// feature and one exercising only wanted requests, and keep the app
/// blocks only the first covered.
core::FeatureSpec profile_feature(const std::string& name,
                                  std::shared_ptr<const melf::Binary> bin,
                                  uint16_t port,
                                  const std::vector<std::string>& undesired,
                                  const std::vector<std::string>& wanted,
                                  const std::string& redirect_symbol) {
  auto serving_log = [&](const std::vector<std::string>& requests) {
    os::Os vos;
    trace::Tracer tracer(vos);
    const int pid = vos.spawn(bin, {apps::build_libc()});
    run_until(vos, [&] { return vos.has_listener(port); });
    tracer.dump_and_reset(pid);
    auto conn = vos.connect(port);
    for (const auto& r : requests) {
      conn.send(r);
      run_until(vos, [&] { return conn.pending() > 0; });
      conn.recv_all();
    }
    // Multi-process servers answer from a worker: keep the busiest log.
    trace::TraceLog best = tracer.dump(pid);
    for (int gp : vos.process_group(pid)) {
      trace::TraceLog log = tracer.dump(gp);
      if (log.blocks.size() > best.blocks.size()) best = std::move(log);
    }
    return best;
  };
  core::FeatureSpec spec;
  spec.name = name;
  spec.blocks = analysis::feature_diff({serving_log(undesired)},
                                       {serving_log(wanted)}, bin->name)
                    .blocks();
  spec.redirect_module = bin->name;
  spec.redirect_offset = bin->find_symbol(redirect_symbol)->value;
  return spec;
}

core::FeatureSpec kv_set_feature(uint16_t port, uint32_t heap_kb) {
  return profile_feature(
      "SET", apps::build_minikv(port, heap_kb), port,
      {"SET k v\n", "GET k\n", "PING\n"},
      {"SETRANGE k 0 hello\n", "GET k\n", "GET miss\n", "PING\n", "DEL k\n"},
      "dispatch_err");
}

core::FeatureSpec dav_feature(std::shared_ptr<const melf::Binary> bin,
                              uint16_t port, const std::string& redirect) {
  // The wanted run looks up missing paths too, so fs_find's scan loop is
  // covered there and stays out of the cut.
  return profile_feature(
      "DAV", std::move(bin), port, {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
      {"GET /index\n", "HEAD /index\n", "GET /miss\n", "HEAD /miss\n"}, redirect);
}

void add_edits(core::EditStats& a, const core::EditStats& b) {
  a.processes += b.processes;
  a.blocks_patched += b.blocks_patched;
  a.pages_unmapped += b.pages_unmapped;
  a.bytes_patched += b.bytes_patched;
  a.image_pages += b.image_pages;
  a.pages_dumped += b.pages_dumped;
  a.pages_shared += b.pages_shared;
  a.pages_restored += b.pages_restored;
  a.pages_touched += b.pages_touched;
  a.callsites_stubbed += b.callsites_stubbed;
  a.got_slots_stubbed += b.got_slots_stubbed;
}

void mix_report(Digest& d, const core::CustomizeReport& r) {
  for (uint64_t v : {r.timing.checkpoint_ns, r.timing.code_update_ns,
                     r.timing.inject_ns, r.timing.restore_ns,
                     r.timing.analysis_ns, static_cast<uint64_t>(r.obs.events)}) {
    d.mix(v);
  }
  const auto& e = r.edits;
  for (uint64_t v : {e.processes, e.blocks_patched, e.pages_unmapped,
                     e.bytes_patched, e.callsites_stubbed, e.got_slots_stubbed}) {
    d.mix(v);
  }
  for (uint64_t v : {e.image_pages, e.pages_dumped, e.pages_shared,
                     e.pages_restored, e.pages_touched}) {
    d.mix(v);
  }
}

/// Adds the per-process vm counters of `vos` (every pid, live or exited).
void add_process_counts(const os::Os& vos, LayerCounts& c) {
  for (int pid : vos.pids()) {
    const os::Process* p = vos.process(pid);
    c.sb_instrs += p->sbcache.sb_instrs();
    c.sb_entries += p->sbcache.entries();
    c.sb_builds += p->sbcache.builds();
    c.sb_retires += p->sbcache.retires();
    c.sb_deopts += p->sbcache.deopts();
    c.dc_hits += p->dcache.hits();
    c.dc_misses += p->dcache.misses();
    c.dc_invalidations += p->dcache.invalidations();
  }
}

void add_machine_counts(const os::Os& vos, LayerCounts& c) {
  c.retired += vos.total_retired();
  c.sigtraps += vos.total_sigtraps();
  c.cores.resize(std::max(c.cores.size(), vos.num_cores()));
  for (size_t i = 0; i < vos.num_cores(); ++i) {
    const auto cs = vos.core_stats(i);
    c.steals += cs.steals;
    c.cores[i].first += cs.retired;
    c.cores[i].second += cs.clock;
  }
}

// ---------------------------------------------------------------------------
// serve_mix: a 16-server minikv fleet plus miniweb and minihttpd, 72
// closed-loop clients, SET disabled on 8 servers (4 trap, 4 stub) at set-up.
// ---------------------------------------------------------------------------

class ServePhase : public Phase {
 public:
  static constexpr int kKvServers = 16;
  static constexpr int kClientsPerServer = 4;

  explicit ServePhase(uint64_t seed) : Phase(Kind::kServe, seed) {
    auto libc = apps::build_libc();
    for (int i = 0; i < kKvServers; ++i) {
      const uint16_t port = static_cast<uint16_t>(7100 + i);
      const int pid =
          os_->spawn(apps::build_minikv(port, kSmallHeapKb), {libc}, "minikv");
      fleet_.servers.push_back({App::kKv, port, pid});
    }
    fleet_.servers.push_back(
        {App::kWeb, apps::kMiniwebPort, os_->spawn(apps::build_miniweb(), {libc})});
    fleet_.servers.push_back({App::kWeb, apps::kMinihttpdPort,
                              os_->spawn(apps::build_minihttpd(), {libc})});
    boot(*os_, fleet_.servers);

    const core::FeatureSpec set = kv_set_feature(7100, kSmallHeapKb);
    for (int i = 0; i < 8; ++i) {
      auto dc = std::make_unique<core::DynaCut>(
          *os_, fleet_.servers[static_cast<size_t>(i)].pid, small_cost_model());
      dc->set_observer(&bus_, &registry_);
      dc->disable_feature(
          {.feature = set,
           .removal = core::RemovalPolicy::kBlockFirstByte,
           .trap = core::TrapPolicy::kRedirect,
           .mechanism = i < 4 ? core::CutMechanism::kTrap
                              : core::CutMechanism::kStub});
      fleet_.servers[static_cast<size_t>(i)].denied = true;
      cuts_.push_back(std::move(dc));
    }
    int id = 0;
    for (size_t s = 0; s < fleet_.servers.size(); ++s) {
      for (int k = 0; k < kClientsPerServer; ++k) {
        Fleet::Client c;
        c.server = s;
        c.model.emplace(fleet_.servers[s].app, id++, seed, true);
        fleet_.clients.push_back(std::move(c));
      }
    }
    // Let the set-up cuts' charged downtime pass and the caches warm.
    Obs warm;
    for (int i = 0; i < 400; ++i) fleet_.poll(true, warm);
    if (warm.failed != 0) throw StateError("perfbench: warm-up failed: " + warm.errors[0]);
  }

  void unit() override { fleet_.poll(true, obs); }

  void finish() override {
    fleet_.drain(obs);
    for (auto& dc : cuts_) dc->poll_stub_hits();
    account_stores(cuts_);
  }

 private:
  std::vector<std::unique_ptr<core::DynaCut>> cuts_;
};

// ---------------------------------------------------------------------------
// The walk: disable_feature / restore_feature across servers in a seeded
// order, each call followed by a serving interval and a denial probe.
// ---------------------------------------------------------------------------

class WalkPhase : public Phase {
 public:
  WalkPhase(uint64_t seed, const WalkConfig& cfg)
      : Phase(Kind::kWalk, seed), cfg_(cfg), rng_(seed * 31 + 7) {
    libc_ = apps::build_libc();
    // Every minikv build shares one block layout (only the port differs).
    const core::FeatureSpec set = kv_set_feature(7200, cfg.kv_heap_kb);
    for (int i = 0; i < cfg.kv_servers; ++i) {
      const uint16_t port = static_cast<uint16_t>(7200 + i);
      add_server(App::kKv, port, apps::build_minikv(port, cfg.kv_heap_kb), set);
    }
    if (cfg.web) {
      auto web = apps::build_miniweb();
      auto httpd = apps::build_minihttpd();
      add_server(App::kWeb, apps::kMiniwebPort, web,
                 dav_feature(web, apps::kMiniwebPort, "dav_403"));
      add_server(App::kWeb, apps::kMinihttpdPort, httpd,
                 dav_feature(httpd, apps::kMinihttpdPort, "http_403"));
    }
    boot(*os_, fleet_.servers);
    for (size_t s = 0; s < fleet_.servers.size(); ++s) attach(s);
    Obs warm;
    for (int i = 0; i < 200; ++i) fleet_.poll(true, warm);
    fleet_.drain(warm);
    if (warm.failed != 0) throw StateError("perfbench: warm-up failed: " + warm.errors[0]);
  }

  /// One walk step: disable the feature on the next server, serve, probe
  /// for the denial; restore it, serve, probe for service again.
  void unit() override {
    const uint64_t step = obs.units;
    if (step % fleet_.servers.size() == 0) shuffle_order();
    const size_t s = order_[step % order_.size()];
    if (redirect_room(s) < kRedirectHeadroom) restart(s);

    // Shapes cycle {trap, stub, auto} x {observed blocks, slice-closed}.
    static constexpr core::CutMechanism kMechs[] = {
        core::CutMechanism::kTrap, core::CutMechanism::kStub,
        core::CutMechanism::kAuto};
    const core::CutRequest req{.feature = features_[s],
                               .removal = core::RemovalPolicy::kBlockFirstByte,
                               .trap = core::TrapPolicy::kRedirect,
                               .expand_to_slice = (step / 3) % 2 == 1,
                               .mechanism = kMechs[step % 3]};
    double host_ms = 0;
    uint64_t freeze_ns = 0;
    bool ok = customize(s, &req, step, host_ms, freeze_ns);
    serve_and_probe(s, 2 * step);
    if (ok) {
      ok = customize(s, nullptr, step, host_ms, freeze_ns);
      serve_and_probe(s, 2 * step + 1);
    }
    if (ok) {
      obs.apply_ms.push_back(host_ms);
      obs.freeze_ns.push_back(static_cast<double>(freeze_ns));
    }
  }

  void finish() override {
    fleet_.drain(obs);
    account_stores(cuts_);
  }

  void standalone_analysis() override {
    std::set<std::string> seen;
    for (size_t i = 0; i < fleet_.servers.size(); ++i) {
      const os::Process* p = os_->process(fleet_.servers[i].pid);
      const os::LoadedModule* m = p->module_named(features_[i].redirect_module);
      if (m == nullptr || !seen.insert(m->name).second) continue;
      {
        Scope sp(spans_, SpanName::kCfg);
        analysis::recover_cfg(*m->binary);
      }
      {
        Scope sp(spans_, SpanName::kSliceModel);
        analysis::slicer::analyze(*m->binary);
      }
      {
        Scope sp(spans_, SpanName::kGadgetScan);
        analysis::scan_gadgets(p->mem);
      }
    }
  }

 private:
  /// Redirect entries one disable may add to the injected handler library's
  /// table (at most 13 observed, on miniweb with the slice-closed plan).
  static constexpr uint64_t kRedirectHeadroom = 32;
  /// Serving polls after each customization call.
  static constexpr int kIntervalPolls = 8;

  void add_server(App app, uint16_t port, std::shared_ptr<const melf::Binary> bin,
                  core::FeatureSpec feature) {
    fleet_.servers.push_back({app, port, os_->spawn(bin, {libc_}, bin->name)});
    bins_.push_back(std::move(bin));
    features_.push_back(std::move(feature));
    cuts_.push_back(nullptr);
    Fleet::Client c;
    c.server = fleet_.servers.size() - 1;
    fleet_.clients.push_back(std::move(c));
  }

  /// A fresh DynaCut and client model for server `s` (generation-seeded, so
  /// a restarted server's client starts from an empty model).
  void attach(size_t s) {
    const core::CostModel model =
        cfg_.paper_costs ? core::CostModel{} : small_cost_model();
    cuts_[s] = std::make_unique<core::DynaCut>(*os_, fleet_.servers[s].pid, model);
    cuts_[s]->set_observer(&bus_, &registry_);
    fleet_.clients[s].model.emplace(fleet_.servers[s].app, static_cast<int>(s),
                                    seed_ + 1000003 * restarts_, false);
  }

  /// Free slots in the redirect table DynaCut injected into server `s`.
  /// restore_feature never removes entries, so repeated toggles fill it.
  uint64_t redirect_room(size_t s) const {
    uint64_t room = ~0ull;
    for (int pid : os_->process_group(fleet_.servers[s].pid)) {
      const os::Process* p = os_->process(pid);
      const os::LoadedModule* lib = p->module_named(core::kSigLibName);
      if (lib == nullptr) continue;
      const uint64_t capacity = lib->binary->find_symbol("redirect_table")->size / 16;
      const auto b = p->mem.peek_bytes(
          lib->base + lib->binary->find_symbol("redirect_count")->value, 8);
      uint64_t used = 0;
      for (int i = 7; i >= 0; --i) used = (used << 8) | b[static_cast<size_t>(i)];
      room = std::min(room, capacity - std::min(used, capacity));
    }
    return room;
  }

  /// Replaces server `s` with a freshly booted instance (a rolling restart):
  /// its redirect table is nearly full. The new instance's listen() takes
  /// over the port; it is up once it blocks in accept.
  void restart(size_t s) {
    ++restarts_;
    for (int pid : os_->process_group(fleet_.servers[s].pid)) os_->kill(pid);
    const int pid = os_->spawn(bins_[s], {libc_}, bins_[s]->name);
    fleet_.servers[s].pid = pid;
    fleet_.servers[s].denied = false;
    const bool up = run_until(*os_, [&] {
      for (int gp : os_->process_group(pid)) {
        const os::Process* p = os_->process(gp);
        if (p->state == os::Process::State::kBlocked &&
            p->block_kind == os::Process::BlockKind::kAccept) {
          return true;
        }
      }
      return false;
    });
    if (!up) obs.fail("restart of port " + std::to_string(fleet_.servers[s].port));
    attach(s);
  }

  /// disable_feature(*req) on server `s`, or restore_feature when `req` is
  /// null. Adds the call's host time and charged freeze to the step's sums.
  bool customize(size_t s, const core::CutRequest* req, uint64_t step,
                 double& host_ms, uint64_t& freeze_ns) {
    core::DynaCut& dc = *cuts_[s];
    ++obs.attempted;
    try {
      core::CustomizeReport rep;
      const auto t0 = Clock::now();
      {
        Scope apply(spans_, SpanName::kApply, step + 1);
        if (req == nullptr) {
          rep = dc.restore_feature(features_[s].name);
        } else if (spans_ == nullptr) {
          rep = dc.disable_feature(*req);
        } else {
          // Traced: preflight on its own span, enforce its verdict, then
          // apply without re-checking — the same work as the untraced
          // kEnforce path, split so the analysis self time shows.
          analysis::cutcheck::CheckReport pre;
          {
            Scope p(spans_, SpanName::kPreflight, step + 1);
            pre = dc.preflight(*req);
          }
          work.findings += pre.diags.size();
          if (!pre.ok()) throw StateError("cutcheck rejected:\n" + pre.format());
          core::CutRequest unchecked = *req;
          unchecked.check = core::CheckMode::kOff;
          rep = dc.disable_feature(unchecked);
        }
      }
      host_ms += ms_since(t0);
      freeze_ns += rep.timing.total_ns();
      fleet_.servers[s].denied = req != nullptr;
      mix_report(obs.digest, rep);
      work.timing += rep.timing;
      add_edits(work.edits, rep.edits);
      return true;
    } catch (const std::exception& e) {
      obs.fail(std::string(req != nullptr ? "disable" : "restore") + " on port " +
               std::to_string(fleet_.servers[s].port) + ": " + e.what());
      return false;
    }
  }

  /// A short serving interval, then the feature probe: it must get the
  /// app's own denial while the feature is disabled and be served after.
  void serve_and_probe(size_t s, uint64_t n) {
    for (int i = 0; i < kIntervalPolls; ++i) fleet_.poll(true, obs);
    const Server& srv = fleet_.servers[s];
    fleet_.probe(s, feature_probe(srv.app, srv.denied, n), obs);
  }

  void shuffle_order() {
    order_.resize(fleet_.servers.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    }
  }

  WalkConfig cfg_;
  Rng rng_;
  std::shared_ptr<const melf::Binary> libc_;
  std::vector<std::shared_ptr<const melf::Binary>> bins_;
  std::vector<core::FeatureSpec> features_;
  uint64_t restarts_ = 0;
  std::vector<std::unique_ptr<core::DynaCut>> cuts_;
  std::vector<size_t> order_;
};

// ---------------------------------------------------------------------------
// Scale-out: batches of workers forked from one customized template image.
// ---------------------------------------------------------------------------

class ScalePhase : public Phase {
 public:
  static constexpr int kBatch = 50;
  static constexpr uint16_t kTemplatePort = 9000;

  explicit ScalePhase(uint64_t seed) : Phase(Kind::kScale, seed) {
    auto libc = apps::build_libc();
    const int tpid = os_->spawn(apps::build_minikv(kTemplatePort, kSmallHeapKb),
                                {libc}, "minikv");
    boot(*os_, {{App::kKv, kTemplatePort, tpid}});
    template_ = std::make_unique<core::DynaCut>(*os_, tpid, small_cost_model());
    template_->set_observer(&bus_, &registry_);
    template_->disable_feature({.feature = kv_set_feature(kTemplatePort, kSmallHeapKb),
                                .removal = core::RemovalPolicy::kBlockFirstByte,
                                .trap = core::TrapPolicy::kRedirect});
    image_ = template_->store().get(template_->image_key(tpid));
  }

  void unit() override {
    // A fresh machine per batch: osim keeps exited processes (and their
    // caches) for the machine's lifetime, so one machine would grow
    // without bound.
    os::Os vos;
    vos.set_seed(seed_ + obs.units);
    vos.set_cores(4);
    vos.set_event_bus(&bus_);
    Fleet fleet(vos);
    fleet.set_spans(spans_);
    Rng rng(seed_ * 131 + obs.units);
    for (int i = 0; i < kBatch; ++i) {
      const uint16_t port = static_cast<uint16_t>(10000 + i);
      ++obs.attempted;
      const auto t0 = Clock::now();
      int pid = 0;
      {
        Scope s(spans_, SpanName::kSpawn, obs.units + 1);
        pid = image::spawn_from_image(vos, image_, {.listen_port = port});
      }
      obs.spawn_us.push_back(ms_since(t0) * 1e3);
      fleet.servers.push_back({App::kKv, port, pid, true});
      fleet.clients.push_back(script_client(fleet.servers.size() - 1, rng));
    }
    const uint64_t r0 = vos.total_retired();
    while (!fleet.idle() || std::any_of(fleet.clients.begin(), fleet.clients.end(),
                                        [](const Fleet::Client& c) {
                                          return !c.script.empty();
                                        })) {
      fleet.poll(true, obs);
      if (vos.now() > 2'000'000'000ull) {
        obs.fail("scale-out scripts did not finish");
        break;
      }
    }

    std::vector<image::ProcessImage> dumps;
    for (const Server& s : fleet.servers) {
      const auto t0 = Clock::now();
      image::CkptReport rep;
      {
        Scope sc(spans_, SpanName::kCheckpoint, obs.units + 1);
        rep = image::checkpoint(vos, {.pid = s.pid, .bus = &bus_});
      }
      work.checkpoint_us.push_back(ms_since(t0) * 1e3);
      work.ckpt_pages_dumped += rep.stats.pages_dumped;
      work.ckpt_pages_shared += rep.stats.pages_shared;
      dumps.push_back(std::move(rep.img));
    }
    // Batch peak: the template's store counted first, so every block the
    // workers share with it is charged to the template, not to them.
    std::set<const void*> seen;
    const uint64_t base = template_->store().resident_bytes(&seen);
    uint64_t added = vos.resident_pages_bytes(&seen);
    for (const auto& img : dumps) added += img.resident_pages_bytes(&seen);
    work.resident_peak = std::max(work.resident_peak, base + added);
    const double kb = static_cast<double>(added) / 1024.0 / kBatch;
    obs.resident_kb.push_back(kb);
    obs.digest.mix(added);
    obs.digest.mix(vos.total_retired());
    obs.digest.mix(vos.now());
    obs.retired += vos.total_retired() - r0;
    obs.vticks += vos.now();
    add_process_counts(vos, dead_);
    add_machine_counts(vos, dead_);
    for (const Server& s : fleet.servers) vos.kill(s.pid);
    vos.set_event_bus(nullptr);
  }

 private:
  /// GET, PING and SETRANGE writes (which dirty the worker's own pages)
  /// around one SET probe the customized image must deny.
  Fleet::Client script_client(size_t server, Rng& rng) {
    Fleet::Client c;
    c.server = server;
    auto word = [&](size_t n) {
      std::string s;
      for (size_t i = 0; i < n; ++i) s += static_cast<char>('a' + rng.below(26));
      return s;
    };
    const std::string v1 = word(rng.range(4, 20));
    const std::string v2 = word(rng.range(1, 8));
    const size_t off = rng.below(v1.size() + 1);
    const std::string v = v1.substr(0, off) + v2;
    std::vector<Request> s = {
        {"PING\n", "+PONG\n"},
        {"SETRANGE w 0 " + v1 + "\n", ":" + std::to_string(v1.size()) + "\n"},
        {"GET w\n", "$" + v1 + "\n"},
        {"SETRANGE w " + std::to_string(off) + " " + v2 + "\n",
         ":" + std::to_string(v.size()) + "\n"},
        {"GET w\n", "$" + v + "\n"},
        {"GET miss\n", "$-1\n"},
    };
    s.insert(s.begin() + static_cast<long>(1 + rng.below(s.size())),
             {"SET w " + word(3) + "\n", kKvDenied});
    c.script.assign(s.begin(), s.end());
    return c;
  }

  void finish() override { work.store_bytes = template_->store().bytes_used(); }

 private:
  std::unique_ptr<core::DynaCut> template_;
  image::ProcessImage image_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The small walk every workload without its own runs: 4 minikv servers
/// (64 KB heaps), the scaled cost model.
constexpr WalkConfig kSmallWalk{.kv_servers = 4,
                                .kv_heap_kb = kSmallHeapKb,
                                .web = false,
                                .paper_costs = false};

std::vector<std::unique_ptr<Phase>> setup_serve_mix(uint64_t seed) {
  std::vector<std::unique_ptr<Phase>> p;
  p.push_back(make_walk(seed, kSmallWalk, 0));
  p.push_back(make_scale(seed, 0));
  p.push_back(make_serve(seed));
  return p;
}

std::vector<std::unique_ptr<Phase>> setup_toggle_walk(uint64_t seed) {
  std::vector<std::unique_ptr<Phase>> p;
  p.push_back(make_scale(seed, 0));
  p.push_back(make_walk(seed, WalkConfig{}, 50));
  return p;
}

std::vector<std::unique_ptr<Phase>> setup_scale_out(uint64_t seed) {
  std::vector<std::unique_ptr<Phase>> p;
  p.push_back(make_walk(seed, kSmallWalk, 0));
  p.push_back(make_scale(seed, 14));
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------

LayerCounts LayerCounts::minus(const LayerCounts& s) const {
  LayerCounts d = *this;
  d.retired -= s.retired;
  d.sb_instrs -= s.sb_instrs;
  d.sb_entries -= s.sb_entries;
  d.sb_builds -= s.sb_builds;
  d.sb_retires -= s.sb_retires;
  d.sb_deopts -= s.sb_deopts;
  d.dc_hits -= s.dc_hits;
  d.dc_misses -= s.dc_misses;
  d.dc_invalidations -= s.dc_invalidations;
  d.steals -= s.steals;
  d.sigtraps -= s.sigtraps;
  for (size_t i = 0; i < std::min(d.cores.size(), s.cores.size()); ++i) {
    d.cores[i].first -= s.cores[i].first;
    d.cores[i].second -= s.cores[i].second;
  }
  for (const auto& [k, v] : s.events) d.events[k] -= v;
  return d;
}

void LayerCounts::add(const LayerCounts& o) {
  retired += o.retired;
  sb_instrs += o.sb_instrs;
  sb_entries += o.sb_entries;
  sb_builds += o.sb_builds;
  sb_retires += o.sb_retires;
  sb_deopts += o.sb_deopts;
  dc_hits += o.dc_hits;
  dc_misses += o.dc_misses;
  dc_invalidations += o.dc_invalidations;
  steals += o.steals;
  sigtraps += o.sigtraps;
  cores.insert(cores.end(), o.cores.begin(), o.cores.end());
  for (const auto& [k, v] : o.events) events[k] += v;
}

void Work::add(const Work& o) {
  timing += o.timing;
  add_edits(edits, o.edits);
  findings += o.findings;
  ckpt_pages_dumped += o.ckpt_pages_dumped;
  ckpt_pages_shared += o.ckpt_pages_shared;
  checkpoint_us.insert(checkpoint_us.end(), o.checkpoint_us.begin(),
                       o.checkpoint_us.end());
  resident_peak = std::max(resident_peak, o.resident_peak);
  store_bytes += o.store_bytes;
}

Phase::Phase(Kind kind, uint64_t seed)
    : kind_(kind), seed_(seed), os_(std::make_unique<os::Os>()), fleet_(*os_) {
  os_->set_seed(seed);
  os_->set_cores(4);
  bus_.add_sink(&sink_);
  os_->set_event_bus(&bus_);
}

void Phase::account_stores(
    const std::vector<std::unique_ptr<core::DynaCut>>& cuts) {
  std::set<const void*> seen;
  uint64_t resident = os_->resident_pages_bytes(&seen);
  work.store_bytes = 0;
  for (const auto& dc : cuts) {
    resident += dc->store().resident_bytes(&seen);
    work.store_bytes += dc->store().bytes_used();
  }
  work.resident_peak = std::max(work.resident_peak, resident);
}

void Phase::step() {
  const uint64_t r0 = os_->total_retired();
  const uint64_t v0 = os_->now();
  const auto t0 = Clock::now();
  unit();
  obs.host_s += ms_since(t0) / 1e3;
  obs.retired += os_->total_retired() - r0;
  obs.vticks += os_->now() - v0;
  ++obs.units;
  obs.digest.mix(os_->total_retired());
  obs.digest.mix(os_->now());
}

LayerCounts Phase::counts() const {
  LayerCounts c;
  add_process_counts(*os_, c);
  add_machine_counts(*os_, c);
  // Scale-out batches run on machines of their own, folded into dead_.
  c.retired += dead_.retired;
  c.sb_instrs += dead_.sb_instrs;
  c.sb_entries += dead_.sb_entries;
  c.sb_builds += dead_.sb_builds;
  c.sb_retires += dead_.sb_retires;
  c.sb_deopts += dead_.sb_deopts;
  c.dc_hits += dead_.dc_hits;
  c.dc_misses += dead_.dc_misses;
  c.dc_invalidations += dead_.dc_invalidations;
  c.steals += dead_.steals;
  c.sigtraps += dead_.sigtraps;
  for (size_t i = 0; i < dead_.cores.size() && i < c.cores.size(); ++i) {
    c.cores[i].first += dead_.cores[i].first;
    c.cores[i].second += dead_.cores[i].second;
  }
  c.events = sink_.counts;
  return c;
}

std::unique_ptr<Phase> make_serve(uint64_t seed) {
  auto p = std::make_unique<ServePhase>(seed);
  p->min_units = 150000;
  p->units_per_second = 36000;
  p->guard_units = 2000;
  return p;
}

std::unique_ptr<Phase> make_walk(uint64_t seed, const WalkConfig& cfg,
                                 double units_per_second) {
  auto p = std::make_unique<WalkPhase>(seed, cfg);
  p->min_units = 1000;
  p->units_per_second = units_per_second;
  p->guard_units = 12;
  return p;
}

std::unique_ptr<Phase> make_scale(uint64_t seed, double units_per_second) {
  auto p = std::make_unique<ScalePhase>(seed);
  p->min_units = 100;
  p->units_per_second = units_per_second;
  p->guard_units = 2;
  return p;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"serve_mix",
       "closed-loop traffic over 16 minikv servers, miniweb and minihttpd: "
       "host time goes to the vm tiers and os",
       &setup_serve_mix},
      {"toggle_walk",
       "disable/restore walked over 4 MB minikv and both web servers: host "
       "time goes to analysis, checkpoint and rewrite",
       &setup_toggle_walk},
      {"scale_out",
       "workers forked from a customized image, scripted, checkpointed: host "
       "time goes to spawn, BlockStore and checkpoint",
       &setup_scale_out},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
