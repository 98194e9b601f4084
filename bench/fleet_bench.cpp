// Fleet-scale serving benchmark (fig8 "fleet mode"): hundreds of minikv
// server processes on a multi-core osim, customized one-by-one with a
// rolling DynaCut toggle while the rest of the fleet keeps serving.
//
// Three phases, each with a CI gate, all written to BENCH_fleet.json:
//
//   1. scaling     — aggregate retired instructions per virtual second on
//                    a loaded minikv fleet at 1/2/4(/8) virtual cores.
//                    Gate: >= 3x at 4 cores vs 1.
//   2. toggle      — 112 servers, one host connection each; a rolling
//                    disable+re-enable of the SET feature walks the fleet
//                    while every connection keeps a PING outstanding.
//                    Gates: p99 request latency inside the toggle window
//                    stays within the poll quantum (the frozen servers are
//                    < 1% of requests), per-step reply ratio never drops
//                    below 0.9 and aggregate throughput stays >= 0.5x the
//                    steady-state rate — no global stall.
//   3. determinism — the same seeded scenario (4 cores, guest load, two
//                    toggles) twice; per-core retired-instruction counts
//                    and the obs event digest must match bit-for-bit.
//   4. spawn storm — one template minikv is booted, customized (SET
//                    disabled) and its image filed in the store; 100
//                    workers (24 in --light) are then forked from that
//                    image via image::spawn_from_image and each answers a
//                    PING. Gates: machine-wide resident bytes stay at
//                    ~one shared image plus a small per-pid delta (the
//                    content-addressed BlockStore dedups identical
//                    pages; dedup ratio >= 3x), host-side spawn latency
//                    beats a full spawn+boot+customize replay, and the
//                    whole storm run twice same-seed is bit-identical.
//   5. probe storm — half the fleet has SET disabled and every client
//                    probes the disabled command once per request slice,
//                    once under the trap mechanism and once under stub
//                    callsite redirection. Gates: the trap run pays one
//                    SIGTRAP per denied probe while the stub run pays
//                    zero, every probe is denied with the app's own
//                    error reply, the enabled half keeps serving, and
//                    the stub run's denied-probe tail (p99) does not
//                    exceed the trap run's.
//
// Latency is measured in virtual ticks and quantized at the poll slice:
// the host observes replies only between run_ticks() calls, so a healthy
// request reads as one slice. What the gates pin down is the *tail*: a
// frozen server parks its reply for the whole charged rewrite window
// (p_max ~ downtime), and nobody else does.
//
// --light shrinks the toggle walk and the scaling window for the
// sanitizer CI job; --out=PATH overrides the JSON destination.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/minikv.hpp"
#include "bench_common.hpp"
#include "core/dynacut.hpp"
#include "obs/bus.hpp"

namespace {

using namespace dynacut;
using bench::run_until;

constexpr uint16_t kFleetBasePort = 7100;
constexpr int kFleetSize = 112;      // >= 100 per the acceptance gate
constexpr uint32_t kFleetHeapKb = 64;  // tiny heap: fleet instances boot fast
constexpr uint64_t kSlice = 500'000;   // poll quantum, virtual ticks

/// Costs scaled for small fleet instances (the full CRIU-calibrated model
/// charges a 30 ms setup per toggle — appropriate for a 4 MB redis image,
/// 200x the whole working set of a 64 KB fleet instance). Coefficients keep
/// the model's *shape*: per-page and per-block terms dominate.
core::CostModel fleet_cost_model() {
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

// --------------------------------------------------------------------------
// Phase 1: throughput vs cores
// --------------------------------------------------------------------------

struct ScalePoint {
  size_t cores = 0;
  uint64_t steps = 0;
  uint64_t vticks = 0;
  double steps_per_vtick() const {
    return vticks == 0 ? 0.0 : static_cast<double>(steps) / vticks;
  }
};

ScalePoint run_scaling(size_t cores, uint64_t window, int pairs) {
  os::Os vos;
  vos.set_seed(42);
  vos.set_cores(cores);
  auto libc = apps::build_libc();
  // Server/client pairs, each pair on its own port: the kvbench guests
  // drive a GET loop forever, so every core always has runnable work.
  std::vector<uint16_t> ports;
  for (int i = 0; i < pairs; ++i) {
    uint16_t port = static_cast<uint16_t>(kFleetBasePort + i);
    ports.push_back(port);
    vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc});
  }
  run_until(vos, [&] {
    for (uint16_t port : ports) {
      if (!vos.has_listener(port)) return false;
    }
    return true;
  });
  for (uint16_t port : ports) vos.spawn(apps::build_kvbench(port), {libc});
  vos.run_ticks(window / 4);  // warm-up: clients connect, caches build

  ScalePoint out;
  out.cores = cores;
  const uint64_t r0 = vos.total_retired();
  const uint64_t t0 = vos.now();
  vos.run_ticks(window);
  out.steps = vos.total_retired() - r0;
  out.vticks = vos.now() - t0;
  return out;
}

// --------------------------------------------------------------------------
// Phase 2: rolling toggle across the fleet
// --------------------------------------------------------------------------

struct FleetConn {
  os::HostConn conn;
  uint64_t sent_at = 0;
  bool in_flight = false;
};

struct LatencyStats {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  size_t n = 0;
};

LatencyStats percentiles(std::vector<uint64_t> lat) {
  LatencyStats s;
  s.n = lat.size();
  if (lat.empty()) return s;
  std::sort(lat.begin(), lat.end());
  s.p50 = lat[lat.size() / 2];
  s.p99 = lat[(lat.size() * 99) / 100];
  s.max = lat.back();
  return s;
}

struct ToggleResult {
  LatencyStats steady;
  LatencyStats window;  ///< inside the rolling-toggle window
  double steady_rate = 0.0;   ///< replies per slice, before any toggle
  double window_rate = 0.0;   ///< replies per slice, during the walk
  double min_step_ratio = 1.0;  ///< worst per-step replies/active-servers
  int toggles = 0;
  size_t connections = 0;
  uint64_t max_downtime_ns = 0;  ///< largest charged rewrite window
  bool ok = true;
  std::string why;
};

/// Sends a PING on every idle connection, advances one slice, then collects
/// replies. Returns the number of replies and appends their latencies.
size_t drive_slice(os::Os& vos, std::vector<FleetConn>& conns,
                   std::vector<uint64_t>* latencies) {
  for (auto& fc : conns) {
    if (!fc.in_flight) {
      fc.conn.send("PING\n");
      fc.sent_at = vos.now();
      fc.in_flight = true;
    }
  }
  vos.run_ticks(kSlice);
  size_t replies = 0;
  for (auto& fc : conns) {
    if (fc.in_flight && !fc.conn.recv_line().empty()) {
      fc.in_flight = false;
      ++replies;
      if (latencies != nullptr) latencies->push_back(vos.now() - fc.sent_at);
    }
  }
  return replies;
}

ToggleResult run_toggle(const core::FeatureSpec& set_spec, size_t cores,
                        int toggles) {
  ToggleResult out;
  os::Os vos;
  vos.set_seed(42);
  vos.set_cores(cores);
  obs::EventBus bus;
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();

  std::vector<int> server_pids;
  for (int i = 0; i < kFleetSize; ++i) {
    uint16_t port = static_cast<uint16_t>(kFleetBasePort + i);
    server_pids.push_back(
        vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc}));
  }
  if (!run_until(vos, [&] {
        for (int i = 0; i < kFleetSize; ++i) {
          if (!vos.has_listener(static_cast<uint16_t>(kFleetBasePort + i))) {
            return false;
          }
        }
        return true;
      })) {
    out.ok = false;
    out.why = "fleet failed to boot";
    return out;
  }

  std::vector<FleetConn> conns(kFleetSize);
  for (int i = 0; i < kFleetSize; ++i) {
    conns[i].conn = vos.connect(static_cast<uint16_t>(kFleetBasePort + i));
  }
  out.connections = conns.size();

  // Steady state: latency and reply rate with no toggles in flight.
  constexpr int kSteadySlices = 8;
  std::vector<uint64_t> steady_lat;
  size_t steady_replies = 0;
  for (int s = 0; s < kSteadySlices; ++s) {
    steady_replies += drive_slice(vos, conns, &steady_lat);
  }
  out.steady = percentiles(std::move(steady_lat));
  out.steady_rate = static_cast<double>(steady_replies) / kSteadySlices;

  // The rolling walk: toggle (disable, slice, re-enable, slice) one server
  // per step. Each server keeps its own DynaCut (baselines make the
  // re-enable ride the incremental path, like a real fleet operator would).
  std::vector<uint64_t> window_lat;
  size_t window_replies = 0;
  size_t window_slices = 0;
  out.min_step_ratio = 1.0;
  for (int step = 0; step < toggles; ++step) {
    int victim = step % kFleetSize;
    core::DynaCut dc(vos, server_pids[victim], fleet_cost_model());
    dc.set_observer(&bus);
    core::CustomizeReport rep =
        dc.disable_feature({.feature = set_spec,
                            .removal = core::RemovalPolicy::kBlockFirstByte,
                            .trap = core::TrapPolicy::kRedirect});
    out.max_downtime_ns = std::max(out.max_downtime_ns,
                                   rep.timing.total_ns());
    size_t got = drive_slice(vos, conns, &window_lat);
    core::CustomizeReport rep2 = dc.restore_feature("SET");
    out.max_downtime_ns = std::max(out.max_downtime_ns,
                                   rep2.timing.total_ns());
    got += drive_slice(vos, conns, &window_lat);
    window_replies += got;
    window_slices += 2;
    out.toggles += 2;
    // Per-step serving floor: every non-frozen server should have answered
    // at least once across the step's two slices. `got` counts replies;
    // the gated victims (downtime spans several steps) are the only ones
    // allowed to be silent.
    double ratio = static_cast<double>(got) / (2.0 * kFleetSize);
    out.min_step_ratio = std::min(out.min_step_ratio, ratio);
  }
  // Drain: victims gated near the end of the walk are still serving their
  // charged rewrite window; give their parked replies time to land so the
  // tail statistics include every frozen request.
  const int drain =
      static_cast<int>(out.max_downtime_ns / kSlice) + 2;
  for (int s = 0; s < drain; ++s) drive_slice(vos, conns, &window_lat);
  out.window = percentiles(std::move(window_lat));
  out.window_rate =
      window_slices == 0 ? 0.0
                         : static_cast<double>(window_replies) / window_slices;
  return out;
}

// --------------------------------------------------------------------------
// Phase 3: determinism
// --------------------------------------------------------------------------

/// FNV-1a digest over every delivered event's identity: type, pid, vclock,
/// seq and numeric attributes. Two runs of the same seeded scenario must
/// produce the same digest — the obs timeline is part of the contract.
class DigestSink : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override {
    mix_str(e.type);
    mix(static_cast<uint64_t>(e.pid));
    mix(e.vclock);
    mix(e.seq);
    for (const auto& a : e.attrs) {
      mix_str(a.key);
      if (a.is_num) mix(a.num);
      else mix_str(a.str);
    }
    ++events_;
  }
  uint64_t digest() const { return h_; }
  uint64_t events() const { return events_; }

 private:
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_str(const std::string& s) {
    for (char ch : s) {
      h_ ^= static_cast<uint8_t>(ch);
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
  uint64_t events_ = 0;
};

struct DetRun {
  uint64_t total_retired = 0;
  std::vector<uint64_t> per_core_retired;
  uint64_t digest = 0;
  uint64_t events = 0;
};

DetRun run_deterministic(const core::FeatureSpec& spec, uint64_t window) {
  os::Os vos;
  vos.set_seed(7);
  vos.set_cores(4);
  obs::EventBus bus;
  DigestSink sink;
  bus.add_sink(&sink);
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();

  constexpr int kPairs = 8;
  std::vector<int> servers;
  for (int i = 0; i < kPairs; ++i) {
    uint16_t port = static_cast<uint16_t>(kFleetBasePort + i);
    servers.push_back(vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc}));
  }
  run_until(vos, [&] {
    for (int i = 0; i < kPairs; ++i) {
      if (!vos.has_listener(static_cast<uint16_t>(kFleetBasePort + i))) {
        return false;
      }
    }
    return true;
  });
  for (int i = 0; i < kPairs; ++i) {
    vos.spawn(apps::build_kvbench(static_cast<uint16_t>(kFleetBasePort + i)),
              {libc});
  }
  vos.run_ticks(window);

  core::DynaCut dc0(vos, servers[0], fleet_cost_model());
  dc0.set_observer(&bus);
  dc0.disable_feature({.feature = spec,
                       .removal = core::RemovalPolicy::kBlockFirstByte,
                       .trap = core::TrapPolicy::kRedirect});
  vos.run_ticks(window);
  dc0.restore_feature("SET");
  core::DynaCut dc3(vos, servers[3], fleet_cost_model());
  dc3.set_observer(&bus);
  dc3.disable_feature({.feature = spec,
                       .removal = core::RemovalPolicy::kBlockFirstByte,
                       .trap = core::TrapPolicy::kRedirect});
  vos.run_ticks(window);

  DetRun out;
  out.total_retired = vos.total_retired();
  for (size_t c = 0; c < vos.num_cores(); ++c) {
    out.per_core_retired.push_back(vos.core_stats(c).retired);
  }
  out.digest = sink.digest();
  out.events = sink.events();
  return out;
}

// --------------------------------------------------------------------------
// Phase 4: spawn storm — instant scale-out from a customized image
// --------------------------------------------------------------------------

constexpr uint16_t kStormBasePort = 7400;
constexpr int kReplaySample = 4;
/// Per-pid resident allowance after one served PING: the pages a worker
/// dirties on its own (stack, touched globals) plus slack. Everything else
/// must stay shared with the template image through the BlockStore.
constexpr uint64_t kDeltaCapPages = 24;

struct StormResult {
  int workers = 0;
  uint64_t image_logical_bytes = 0;   ///< one customized image, counted full
  uint64_t fleet_logical_bytes = 0;   ///< every worker's pages counted full
  uint64_t fleet_resident_bytes = 0;  ///< seen-threaded: store + live fleet
  double dedup_ratio = 0.0;
  double mean_spawn_ns = 0.0;    ///< host ns per image::spawn_from_image
  double mean_replay_ns = 0.0;   ///< host ns per spawn + boot + customize
  size_t pings_answered = 0;
  uint64_t total_retired = 0;
  uint64_t digest = 0;
  uint64_t events = 0;
  bool ok = true;
  std::string why;
};

double host_ns(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

StormResult run_storm(const core::FeatureSpec& spec, int workers) {
  StormResult out;
  out.workers = workers;
  os::Os vos;
  vos.set_seed(11);
  vos.set_cores(4);
  obs::EventBus bus;
  DigestSink sink;
  bus.add_sink(&sink);
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();

  // Template: boot one instance, disable SET, pull the committed image out
  // of the DynaCut store under its typed key {pid, "SET"}.
  int tpid = vos.spawn(apps::build_minikv(kStormBasePort, kFleetHeapKb), {libc});
  if (!run_until(vos, [&] { return vos.has_listener(kStormBasePort); })) {
    out.ok = false;
    out.why = "storm template failed to boot";
    return out;
  }
  core::DynaCut dc(vos, tpid, fleet_cost_model());
  dc.set_observer(&bus);
  dc.disable_feature({.feature = spec,
                      .removal = core::RemovalPolicy::kBlockFirstByte,
                      .trap = core::TrapPolicy::kRedirect});
  image::ProcessImage img = dc.store().get(dc.image_key(tpid));

  // The storm: fork the whole serving fleet from the stored image. No
  // guest instruction runs during the spawns — fresh pid/port, shared
  // pages.
  std::vector<int> wpids;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < workers; ++i) {
    wpids.push_back(image::spawn_from_image(
        vos, img,
        {.listen_port = static_cast<uint16_t>(kStormBasePort + 1 + i)}));
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.mean_spawn_ns = host_ns(t0, t1) / workers;

  // Every worker answers a PING: proof each fork is a live server, and the
  // realistic per-pid dirty delta the resident gate charges for.
  std::vector<os::HostConn> conns;
  for (int i = 0; i < workers; ++i) {
    conns.push_back(vos.connect(static_cast<uint16_t>(kStormBasePort + 1 + i)));
  }
  for (auto& c : conns) c.send("PING\n");
  std::vector<bool> got(static_cast<size_t>(workers), false);
  for (int s = 0; s < 200 && out.pings_answered < conns.size(); ++s) {
    vos.run_ticks(kSlice);
    for (size_t i = 0; i < conns.size(); ++i) {
      if (!got[i] && !conns[i].recv_line().empty()) {
        got[i] = true;
        ++out.pings_answered;
      }
    }
  }

  // Accounting while the Os holds exactly template + storm workers. The
  // `seen` set threads through every live address space and the image
  // store, so a content-addressed block counts once machine-wide.
  out.image_logical_bytes =
      vos.process(wpids[0])->mem.populated_pages().size() * kPageSize;
  out.fleet_logical_bytes = dc.store().bytes_used();
  for (int pid : wpids) {
    out.fleet_logical_bytes +=
        vos.process(pid)->mem.populated_pages().size() * kPageSize;
  }
  std::set<const void*> seen;
  out.fleet_resident_bytes =
      vos.resident_pages_bytes(&seen) + dc.store().resident_bytes(&seen);
  out.dedup_ratio =
      out.fleet_resident_bytes == 0
          ? 0.0
          : static_cast<double>(out.fleet_logical_bytes) /
                static_cast<double>(out.fleet_resident_bytes);

  // Replay baseline: what scale-out costs without the image — spawn from
  // the binary, boot to the listener, re-run the customization. Sampled on
  // a few workers; the gate compares host-side means.
  const auto t2 = std::chrono::steady_clock::now();
  for (int j = 0; j < kReplaySample; ++j) {
    uint16_t port = static_cast<uint16_t>(kStormBasePort + 1 + workers + j);
    int rp = vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc});
    if (!run_until(vos, [&] { return vos.has_listener(port); })) {
      out.ok = false;
      out.why = "replay-baseline worker failed to boot";
      return out;
    }
    core::DynaCut rdc(vos, rp, fleet_cost_model());
    rdc.set_observer(&bus);
    rdc.disable_feature({.feature = spec,
                         .removal = core::RemovalPolicy::kBlockFirstByte,
                         .trap = core::TrapPolicy::kRedirect});
  }
  const auto t3 = std::chrono::steady_clock::now();
  out.mean_replay_ns = host_ns(t2, t3) / kReplaySample;

  out.total_retired = vos.total_retired();
  out.digest = sink.digest();
  out.events = sink.events();
  return out;
}

// --------------------------------------------------------------------------
// Phase 5: probe storm — disabled-feature probes, trap vs stub mechanism
// --------------------------------------------------------------------------

constexpr uint16_t kProbeBasePort = 7700;

struct ProbeResult {
  LatencyStats denied_lat;   ///< latency of denied probes (disabled half)
  size_t denied = 0;         ///< probes answered with the error reply
  size_t served = 0;         ///< probes served by the enabled half
  uint64_t sigtraps = 0;     ///< SIGTRAPs delivered during the probe window
  bool ok = true;
  std::string why;
};

/// Boots `fleet` minikv servers, disables SET on the first half with the
/// given mechanism, then has every connection probe "SET k v" once per
/// slice. The cut spec is narrowed to cmd_set plus the dispatcher's arm
/// call so the probe path is identical under both mechanisms up to the
/// denial itself.
ProbeResult run_probe(int fleet, core::CutMechanism mech, int slices) {
  ProbeResult out;
  os::Os vos;
  vos.set_seed(42);
  vos.set_cores(4);
  auto libc = apps::build_libc();

  std::vector<int> pids;
  for (int i = 0; i < fleet; ++i) {
    uint16_t port = static_cast<uint16_t>(kProbeBasePort + i);
    pids.push_back(vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc}));
  }
  if (!run_until(vos, [&] {
        for (int i = 0; i < fleet; ++i) {
          if (!vos.has_listener(static_cast<uint16_t>(kProbeBasePort + i))) {
            return false;
          }
        }
        return true;
      })) {
    out.ok = false;
    out.why = "probe fleet failed to boot";
    return out;
  }

  // Narrowed spec from the shared binary layout: the cmd_set blocks plus
  // the dispatch_command block whose call targets it (stubbable callsite).
  auto proto = apps::build_minikv(kProbeBasePort, kFleetHeapKb);
  core::FeatureSpec spec;
  spec.name = "SET";
  spec.blocks =
      bench::handler_cut(*proto, "minikv", "dispatch_command", {"cmd_set"});
  spec.redirect_module = "minikv";
  spec.redirect_offset = proto->find_symbol("dispatch_err")->value;

  // Park the fleet (no ip stranded mid-call at a cut entry), then disable
  // SET on the first half. The DynaCut objects stay alive for the window.
  for (bool all = false; !all;) {
    all = true;
    for (int pid : pids) {
      if (vos.process(pid)->state == os::Process::State::kRunnable) {
        all = false;
      }
    }
    if (!all) vos.run(500);
  }
  const int half = fleet / 2;
  std::vector<std::unique_ptr<core::DynaCut>> cuts;
  for (int i = 0; i < half; ++i) {
    cuts.push_back(std::make_unique<core::DynaCut>(vos, pids[i],
                                                   fleet_cost_model()));
    cuts.back()->disable_feature(
        {.feature = spec,
         .removal = core::RemovalPolicy::kBlockFirstByte,
         .trap = core::TrapPolicy::kRedirect,
         .mechanism = mech});
  }

  std::vector<FleetConn> conns(static_cast<size_t>(fleet));
  for (int i = 0; i < fleet; ++i) {
    conns[static_cast<size_t>(i)].conn =
        vos.connect(static_cast<uint16_t>(kProbeBasePort + i));
  }

  // Warm-up: let the charged rewrite windows expire and land one probe on
  // every connection so the measured slices see only steady-state denials.
  vos.run_ticks(8 * kSlice);
  for (auto& fc : conns) {
    fc.conn.send("SET k v\n");
    fc.sent_at = vos.now();
    fc.in_flight = true;
  }
  for (int s = 0; s < 16; ++s) {
    vos.run_ticks(kSlice);
    bool pending = false;
    for (auto& fc : conns) {
      if (fc.in_flight && !fc.conn.recv_line().empty()) fc.in_flight = false;
      pending |= fc.in_flight;
    }
    if (!pending) break;
  }

  std::vector<uint64_t> denied_lat;
  const uint64_t traps0 = vos.total_sigtraps();
  for (int s = 0; s < slices; ++s) {
    for (auto& fc : conns) {
      if (!fc.in_flight) {
        fc.conn.send("SET k v\n");
        fc.sent_at = vos.now();
        fc.in_flight = true;
      }
    }
    vos.run_ticks(kSlice);
    for (size_t i = 0; i < conns.size(); ++i) {
      auto& fc = conns[i];
      if (!fc.in_flight) continue;
      std::string line = fc.conn.recv_line();
      if (line.empty()) continue;
      fc.in_flight = false;
      if (i < static_cast<size_t>(half)) {
        if (line.rfind("-ERR", 0) == 0) {
          ++out.denied;
          denied_lat.push_back(vos.now() - fc.sent_at);
        }
      } else if (line.rfind("+OK", 0) == 0) {
        ++out.served;
      }
    }
  }
  out.sigtraps = vos.total_sigtraps() - traps0;
  out.denied_lat = percentiles(std::move(denied_lat));
  return out;
}

std::string hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%" PRIx64, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool light = bench::flag(argc, argv, "--light").has_value();
  bench::Report rep("fleet", argc, argv);
  rep.value("light", light);

  bench::banner(
      "Fleet bench (fig8 fleet mode): multi-core osim scaling, rolling\n"
      "DynaCut toggle across a 112-process minikv fleet, same-seed\n"
      "determinism, and a spawn storm forked from one customized image.");

  // --- Phase 1: scaling ----------------------------------------------------
  const uint64_t scale_window = light ? 600'000 : 2'000'000;
  const int scale_pairs = 12;
  std::printf("\n%8s %14s %14s %16s\n", "cores", "steps", "vticks",
              "steps/vtick");
  double base_rate = 0.0, four_rate = 0.0;
  for (size_t cores : light ? std::vector<size_t>{1, 4}
                            : std::vector<size_t>{1, 2, 4, 8}) {
    const ScalePoint p = run_scaling(cores, scale_window, scale_pairs);
    if (p.cores == 1) base_rate = p.steps_per_vtick();
    if (p.cores == 4) four_rate = p.steps_per_vtick();
    std::printf("%8zu %14" PRIu64 " %14" PRIu64 " %16.3f\n", p.cores, p.steps,
                p.vticks, p.steps_per_vtick());
    const std::string key = "scaling." + std::to_string(cores) + "c.";
    rep.value(key + "steps", p.steps);
    rep.value(key + "vticks", p.vticks);
    rep.value(key + "steps_per_vtick", p.steps_per_vtick());
  }
  const double scaling_x = base_rate > 0 ? four_rate / base_rate : 0.0;
  std::printf("scaling at 4 cores: %.2fx over 1 core\n", scaling_x);
  rep.value("scaling.4c_over_1c", scaling_x);
  rep.gate("scaling.3x_at_4_cores", scaling_x >= 3.0,
           "aggregate steps/vtick at 4 cores must be >= 3x 1 core");

  // Feature discovery once, offline, on a representative instance — all
  // fleet binaries share the block layout (only the port immediate varies).
  const core::FeatureSpec set_spec = bench::discover_feature(
      "SET", apps::build_minikv(kFleetBasePort, kFleetHeapKb), kFleetBasePort,
      "minikv", {"SET k v\n", "GET k\n", "PING\n"},
      {"SETRANGE k 0 hello\n", "GET k\n", "GET miss\n", "PING\n", "DEL k\n"},
      "dispatch_err");

  // --- Phase 2: rolling toggle ----------------------------------------------
  const int toggles = light ? 24 : kFleetSize;
  ToggleResult tg = run_toggle(set_spec, /*cores=*/4, toggles);
  rep.value("toggle.fleet", kFleetSize);
  rep.value("toggle.connections", tg.connections);
  rep.value("toggle.toggles", tg.toggles);
  rep.value("toggle.requests_in_window", tg.window.n);
  rep.value("toggle.steady_p50_ticks", tg.steady.p50);
  rep.value("toggle.steady_p99_ticks", tg.steady.p99);
  rep.value("toggle.window_p50_ticks", tg.window.p50);
  rep.value("toggle.window_p99_ticks", tg.window.p99);
  rep.value("toggle.window_max_ticks", tg.window.max);
  rep.value("toggle.steady_replies_per_slice", tg.steady_rate);
  rep.value("toggle.window_replies_per_slice", tg.window_rate);
  rep.value("toggle.min_step_reply_ratio", tg.min_step_ratio);
  rep.value("toggle.max_downtime_ns", tg.max_downtime_ns);
  if (rep.gate("toggle.fleet_boots", tg.ok, tg.why)) {
    std::printf(
        "\nfleet of %d servers, %d toggles rolled; %zu requests in window\n",
        kFleetSize, tg.toggles, tg.window.n);
    std::printf("steady: p50 %" PRIu64 " p99 %" PRIu64 " max %" PRIu64
                " ticks, %.1f replies/slice\n",
                tg.steady.p50, tg.steady.p99, tg.steady.max, tg.steady_rate);
    std::printf("toggle window: p50 %" PRIu64 " p99 %" PRIu64 " max %" PRIu64
                " ticks, %.1f replies/slice (min step ratio %.2f)\n",
                tg.window.p50, tg.window.p99, tg.window.max, tg.window_rate,
                tg.min_step_ratio);
    std::printf("largest charged rewrite window: %.3f virtual ms\n",
                tg.max_downtime_ns / 1e6);
    // The frozen victims are < 1% of in-window requests, so a healthy p99
    // sits at the poll quantum; 3 slices of slack absorbs boundary effects.
    rep.gate("toggle.window_p99", tg.window.p99 <= 3 * kSlice,
             "toggle-window p99 must stay within 3 poll slices (" +
                 std::to_string(3 * kSlice) + " ticks): tail bounded");
    rep.gate("toggle.window_rate", tg.window_rate >= 0.5 * tg.steady_rate,
             "toggle-window throughput must be >= 0.5x steady: no global "
             "stall");
    rep.gate("toggle.min_step_ratio", tg.min_step_ratio >= 0.9,
             "every toggle step must see >= 0.9 of the fleet serving");
    // Sanity: the frozen server really did stall for its rewrite window —
    // otherwise the tail gates above test nothing.
    rep.gate("toggle.window_frozen", tg.window.max >= kSlice * 2,
             "max in-window latency must show a frozen request (>= 2 "
             "slices)");
  }

  // --- Phase 3: determinism --------------------------------------------------
  const uint64_t det_window = light ? 400'000 : 1'500'000;
  DetRun a = run_deterministic(set_spec, det_window);
  DetRun b = run_deterministic(set_spec, det_window);
  std::printf("\ndeterminism: run A retired %" PRIu64 " (digest %016" PRIx64
              ", %" PRIu64 " events), run B retired %" PRIu64
              " (digest %016" PRIx64 ", %" PRIu64 " events)\n",
              a.total_retired, a.digest, a.events, b.total_retired, b.digest,
              b.events);
  const bool det_ok = a.total_retired == b.total_retired &&
                      a.per_core_retired == b.per_core_retired &&
                      a.digest == b.digest && a.events == b.events;
  rep.value("determinism.retired_a", a.total_retired);
  rep.value("determinism.retired_b", b.total_retired);
  rep.value("determinism.digest_a", hex(a.digest));
  rep.value("determinism.digest_b", hex(b.digest));
  rep.value("determinism.events_a", a.events);
  rep.value("determinism.events_b", b.events);
  rep.value("determinism.identical", det_ok);
  rep.gate("determinism.same_seed", det_ok,
           "same-seed runs must match in retired counts per core and digest");

  // --- Phase 4: spawn storm --------------------------------------------------
  const int storm_workers = light ? 24 : 100;
  StormResult st = run_storm(set_spec, storm_workers);
  StormResult st2 = run_storm(set_spec, storm_workers);
  rep.value("storm.workers", st.workers);
  rep.value("storm.image_logical_bytes", st.image_logical_bytes);
  rep.value("storm.fleet_logical_bytes", st.fleet_logical_bytes);
  rep.value("storm.fleet_resident_bytes", st.fleet_resident_bytes);
  rep.value("storm.dedup_ratio", st.dedup_ratio);
  rep.value("storm.mean_spawn_ns", st.mean_spawn_ns, bench::Clock::kHost);
  rep.value("storm.mean_replay_ns", st.mean_replay_ns, bench::Clock::kHost);
  rep.value("storm.pings_answered", st.pings_answered);
  rep.value("storm.retired_a", st.total_retired);
  rep.value("storm.retired_b", st2.total_retired);
  rep.value("storm.digest_a", hex(st.digest));
  rep.value("storm.digest_b", hex(st2.digest));
  if (rep.gate("storm.boots", st.ok, st.why)) {
    std::printf(
        "\nspawn storm: %d workers forked from one customized image\n",
        st.workers);
    std::printf(
        "  fleet logical %.2f MB, resident %.2f MB (image %.2f MB) — "
        "dedup %.1fx, per-worker delta %.1f pages\n",
        st.fleet_logical_bytes / 1048576.0, st.fleet_resident_bytes / 1048576.0,
        st.image_logical_bytes / 1048576.0, st.dedup_ratio,
        st.fleet_resident_bytes <= st.image_logical_bytes
            ? 0.0
            : static_cast<double>(st.fleet_resident_bytes -
                                  st.image_logical_bytes) /
                  (kPageSize * st.workers));
    std::printf("  spawn_from_image %.0f ns/worker vs full replay %.0f "
                "ns/worker (host time)\n",
                st.mean_spawn_ns, st.mean_replay_ns);
    std::printf("  %zu/%d workers answered PING\n", st.pings_answered,
                st.workers);
    rep.gate("storm.pings",
             st.pings_answered == static_cast<size_t>(st.workers),
             "every spawned worker must serve a request");
    const uint64_t resid_cap =
        st.image_logical_bytes +
        static_cast<uint64_t>(st.workers + 1) * kDeltaCapPages * kPageSize;
    rep.gate("storm.resident_cap", st.fleet_resident_bytes <= resid_cap,
             "fleet resident bytes must stay within O(1 image + per-pid "
             "delta) = " + std::to_string(resid_cap));
    rep.gate("storm.dedup_3x", st.dedup_ratio >= 3.0,
             "dedup ratio must be >= 3x");
    rep.gate("storm.spawn_beats_replay", st.mean_spawn_ns < st.mean_replay_ns,
             "spawn_from_image must be faster than a full replay (host)");
    const bool storm_det = st.total_retired == st2.total_retired &&
                           st.digest == st2.digest && st.events == st2.events;
    std::printf("  same-seed storm runs: retired %" PRIu64 "/%" PRIu64
                ", digest %016" PRIx64 "/%016" PRIx64 " — %s\n",
                st.total_retired, st2.total_retired, st.digest, st2.digest,
                storm_det ? "identical" : "DIVERGED");
    rep.gate("storm.same_seed", storm_det,
             "same-seed storm runs must match in retired count and digest");
  }

  // --- Phase 5: probe storm ---------------------------------------------------
  const int probe_fleet = light ? 24 : kFleetSize;
  const int probe_slices = 8;
  ProbeResult pt = run_probe(probe_fleet, core::CutMechanism::kTrap,
                             probe_slices);
  ProbeResult ps = run_probe(probe_fleet, core::CutMechanism::kStub,
                             probe_slices);
  rep.value("probe_storm.fleet", probe_fleet);
  rep.value("probe_storm.disabled", probe_fleet / 2);
  for (const auto& [mech, r] : {std::pair{"trap", &pt}, {"stub", &ps}}) {
    const std::string key = std::string("probe_storm.") + mech + "_";
    rep.value(key + "denied", r->denied);
    rep.value(key + "denied_p50_ticks", r->denied_lat.p50);
    rep.value(key + "denied_p99_ticks", r->denied_lat.p99);
    rep.value(key + "served", r->served);
    rep.value(key + "sigtraps", r->sigtraps);
  }
  if (rep.gate("probe_storm.fleet_boots", pt.ok && ps.ok, pt.why + ps.why)) {
    std::printf(
        "\nprobe storm: %d servers, SET disabled on %d, one disabled-feature "
        "probe per request\n",
        probe_fleet, probe_fleet / 2);
    std::printf("  trap: %zu denied (p50 %" PRIu64 " p99 %" PRIu64
                " ticks), %zu served, %" PRIu64 " SIGTRAPs\n",
                pt.denied, pt.denied_lat.p50, pt.denied_lat.p99, pt.served,
                pt.sigtraps);
    std::printf("  stub: %zu denied (p50 %" PRIu64 " p99 %" PRIu64
                " ticks), %zu served, %" PRIu64 " SIGTRAPs\n",
                ps.denied, ps.denied_lat.p50, ps.denied_lat.p99, ps.served,
                ps.sigtraps);
    const size_t floor = static_cast<size_t>(probe_fleet / 2) *
                         (static_cast<size_t>(probe_slices) - 1);
    rep.gate("probe_storm.denied_floor",
             pt.denied >= floor && ps.denied >= floor,
             "denied probes must reach the serving floor " +
                 std::to_string(floor) + " under both mechanisms");
    rep.gate("probe_storm.served_floor",
             pt.served >= floor && ps.served >= floor,
             "the enabled half must keep serving during the probes");
    rep.gate("probe_storm.trap_sigtraps", pt.sigtraps >= pt.denied,
             "the trap run must deliver a SIGTRAP per denied probe");
    rep.gate("probe_storm.stub_no_sigtraps", ps.sigtraps == 0,
             "the stub run must deliver no SIGTRAP");
    rep.gate("probe_storm.stub_p99", ps.denied_lat.p99 <= pt.denied_lat.p99,
             "the stub denied-probe p99 must not exceed the trap run's");
  }
  return rep.finish();
}
