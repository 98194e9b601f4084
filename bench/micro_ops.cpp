// Microbenchmarks of DynaCut's primitive operations on realistically sized
// processes: checkpoint, restore, int3 patching, block wiping, library
// injection, trace diffing, image serialization, static CFG recovery and
// one guest request. These measure the *host* wall-clock cost of the
// framework itself (the simulator substrate), complementing the
// virtual-time figures: each case is the median of kReps timed loops.
//
//   micro_ops                   the primitive-operation table (host ns/op)
//   micro_ops --vm_steps[=N]    VM tier throughput, >=3x gate: BENCH_vm.json
//   micro_ops --ckpt_pages[=N]  incremental checkpoint, >=5x gate:
//                               BENCH_ckpt.json
// --out=PATH overrides either summary's destination.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "apps/minikv.hpp"
#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "core/handler_lib.hpp"
#include "image/checkpoint.hpp"
#include "isa/encode.hpp"
#include "rewriter/rewriter.hpp"
#include "trace/trace.hpp"
#include "vm/exec.hpp"
#include "vm/superblock.hpp"

namespace {

using namespace dynacut;

/// Keeps each timed call's result observable, so no call is optimized out.
volatile uint64_t g_sink = 0;

constexpr int kReps = 5;

/// Host ns per call of `timed`: the median over kReps loops of `iters`
/// calls. `untimed`, if given, runs before each call with the clock paused.
template <typename Timed, typename Untimed = std::nullptr_t>
double median_ns(int iters, Timed timed, Untimed untimed = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> runs;
  for (int r = 0; r < kReps; ++r) {
    Clock::duration spent{};
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      if constexpr (!std::is_null_pointer_v<Untimed>) {
        spent += Clock::now() - t0;
        untimed();
        t0 = Clock::now();
      }
      g_sink = g_sink + timed();
    }
    spent += Clock::now() - t0;
    runs.push_back(std::chrono::duration<double, std::nano>(spent).count() /
                   iters);
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

int run_primitives() {
  // One booted minikv instance, reused by every case.
  os::Os vos;
  const int pid = vos.spawn(apps::build_minikv(), {apps::build_libc()});
  bench::run_until(vos, [&] { return vos.has_listener(apps::kMinikvPort); });
  auto checkpoint = [&] {
    image::ProcessImage img = image::checkpoint(vos, {.pid = pid}).img;
    vos.thaw(pid);
    return img;
  };

  image::ProcessImage img = checkpoint();
  rw::ImageRewriter rewriter(img);
  const uint64_t set_addr = rewriter.symbol_addr("minikv", "cmd_set");
  const auto lib = core::build_redirect_lib(256);
  std::optional<image::ProcessImage> inject_img;
  std::optional<rw::ImageRewriter> inject_rw;
  auto kv = apps::build_minikv();
  const trace::TraceLog undesired =
      bench::profile_server(kv, apps::kMinikvPort,
                            {"SET k v\n", "GET k\n", "PING\n"})
          .serving_log;
  const trace::TraceLog wanted =
      bench::profile_server(
          kv, apps::kMinikvPort,
          {"SETRANGE k 0 h\n", "GET k\n", "PING\n", "DEL k\n"})
          .serving_log;

  std::vector<std::pair<const char*, double>> rows = {
      {"checkpoint (~4MB image)",
       median_ns(20, [&] { return checkpoint().mem.page_count(); })},
      {"checkpoint+restore", median_ns(20, [&] {
         image::ProcessImage snap =
             image::checkpoint(vos, {.pid = pid}).img;
         image::restore(vos, {.pid = pid, .img = &snap});
         return snap.mem.page_count();
       })},
      {"int3 patch+undo", median_ns(1000, [&] {
         rw::PatchRecord rec = rewriter.block_first_byte(set_addr);
         rewriter.undo(rec);
         return rec.vaddr;
       })},
      {"wipe 64B+undo", median_ns(1000, [&] {
         rw::PatchRecord rec = rewriter.wipe(set_addr, 64);
         rewriter.undo(rec);
         return rec.vaddr;
       })},
      {"inject handler library",
       median_ns(
           20, [&] { return inject_rw->inject_library(lib); },
           [&] {
             inject_rw.reset();
             inject_img = checkpoint();
             inject_rw.emplace(*inject_img);
           })},
      {"image encode+decode", median_ns(10, [&] {
         return image::ProcessImage::decode(img.encode()).mem.page_count();
       })},
      {"trace diff", median_ns(100, [&] {
         return analysis::feature_diff({undesired}, {wanted}, "minikv").size();
       })},
      {"static CFG recovery",
       median_ns(20, [&] { return analysis::total_block_count(*kv); })},
  };
  auto conn = vos.connect(apps::kMinikvPort);
  rows.emplace_back("guest PING round-trip", median_ns(200, [&] {
                      return bench::request(vos, conn, "PING\n").size();
                    }));
  std::printf("%-26s %14s\n", "operation (minikv)", "host ns/op");
  for (const auto& [name, ns] : rows) std::printf("%-26s %14.0f\n", name, ns);
  return 0;
}

// ---------------------------------------------------------------------------
// --vm_steps mode: raw guest execution throughput (steps/sec) across the
// three execution engines — bare interpreter, decode cache, superblock
// (fused-trace) cache — over a serving-style arithmetic loop, the workload
// where fetch/decode/dispatch elision shows up undiluted by syscalls or
// I/O. Gates CI on the superblock engine clearing >=3x over the decode
// cache (ROADMAP open item 1).
// ---------------------------------------------------------------------------

constexpr double kSbGateSpeedup = 3.0;

// Each engine is timed best-of-N with fresh caches per repetition:
// background load on a shared CI runner only ever slows a run down, so the
// max over repetitions is the least-noisy throughput estimate, and the
// gate ratio compares engines at their respective bests.
constexpr int kVmStepsReps = 3;

constexpr uint64_t kVmCodeBase = 0x1000;

/// Builds the benchmark guest: a loop of ~60 register-register ALU ops, a
/// counter increment, and a conditional back-edge; a TRAP byte terminates.
void build_vm_loop(vm::AddressSpace& mem, vm::Cpu& cpu) {
  std::vector<uint8_t> code;
  isa::Encoder e(code);
  const size_t loop_top = e.offset();
  for (int i = 0; i < 40; ++i) {
    e.add_rr(1, 2);
    e.xor_rr(3, 4);
    e.sub_rr(5, 6);
  }
  e.add_ri(0, 1);
  e.cmp_ri(0, INT32_MAX);  // never reached within any realistic budget
  const size_t back = e.branch(isa::Op::kJlt, 0);
  e.patch_rel32(back, static_cast<int32_t>(loop_top - (back + 5)));
  e.trap();

  mem.map(kVmCodeBase, page_ceil(code.size()), kProtRead | kProtExec,
          "bench:.text");
  mem.poke_bytes(kVmCodeBase, code);
  cpu = vm::Cpu{};
  cpu.ip = kVmCodeBase;
}

double measure_steps_per_sec(uint64_t steps, vm::DecodeCache* cache,
                             vm::SuperblockCache* sbc = nullptr) {
  vm::AddressSpace mem;
  vm::Cpu cpu;
  build_vm_loop(mem, cpu);

  const auto t0 = std::chrono::steady_clock::now();
  uint64_t retired = 0;
  while (retired < steps) {
    uint64_t n = 0;
    vm::StepResult r = vm::run_block(mem, cpu, cache, sbc, steps - retired, n);
    retired += n;
    if (r.kind != vm::StepKind::kOk) break;  // unexpected: trap/fault
    // Drain lifecycle events as the scheduler does: traces only chain
    // while none are pending.
    if (sbc != nullptr && sbc->events_pending()) sbc->take_events();
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(retired) / dt.count();
}

int run_vm_steps(uint64_t steps, bench::Report& report) {
  const bench::Clock host = bench::Clock::kHost;
  double off = 0, on = 0, sb = 0;
  for (int i = 0; i < kVmStepsReps; ++i) {
    off = std::max(off, measure_steps_per_sec(steps, nullptr));
  }
  for (int i = 0; i < kVmStepsReps; ++i) {
    vm::DecodeCache cache;
    const double s = measure_steps_per_sec(steps, &cache);
    // Cache behavior is deterministic per run (fresh cache, identical
    // guest), so the stats are identical across repetitions; keep the
    // best rep's for the report.
    if (s > on) {
      on = s;
      report.value("cache_hits", cache.hits());
      report.value("cache_misses", cache.misses());
      report.value("cache_invalidations", cache.invalidations());
      report.value("cached_pages", cache.cached_pages());
    }
  }
  // Superblock row: decode cache underneath (it serves the cold instructions
  // before the trace goes hot), fused-trace dispatch on top — the engine
  // stack the OS scheduler runs.
  for (int i = 0; i < kVmStepsReps; ++i) {
    vm::DecodeCache sb_dcache;
    vm::SuperblockCache sbcache;
    const double s = measure_steps_per_sec(steps, &sb_dcache, &sbcache);
    if (s > sb) {
      sb = s;
      report.value("sb_builds", sbcache.builds());
      report.value("sb_retires", sbcache.retires());
      report.value("sb_entries", sbcache.entries());
      report.value("sb_instrs", sbcache.sb_instrs());
    }
  }
  std::printf("vm_steps: %llu instructions/run\n",
              static_cast<unsigned long long>(steps));
  std::printf("  interpreter: %.3e steps/sec\n", off);
  std::printf("  decode cache: %.3e steps/sec (%.2fx)\n", on, on / off);
  std::printf("  superblock:  %.3e steps/sec (%.2fx, %.2fx vs cache)\n", sb,
              sb / off, sb / on);
  report.value("steps", steps);
  report.value("cache_off_steps_per_sec", off, host);
  report.value("cache_on_steps_per_sec", on, host);
  report.value("sb_steps_per_sec", sb, host);
  report.value("speedup", on / off, host);
  report.value("sb_speedup", sb / off, host);
  report.value("sb_speedup_vs_cache", sb / on, host);
  report.value("gate_min_sb_speedup", kSbGateSpeedup);
  report.gate("sb_3x_over_decode_cache", sb / on >= kSbGateSpeedup,
              "the superblock engine must run >= 3x the decode cache's "
              "steps/sec (host, best of 3)");
  return report.finish();
}

// ---------------------------------------------------------------------------
// --ckpt_pages mode: freeze-window comparison of the full checkpoint/restore
// cycle against the incremental one (dirty-only dump + in-place delta
// restore) on a minikv instance grown to N populated pages — the fig8 Redis
// workload at dataset scale. Gates CI on a >=5x freeze-window reduction.
// ---------------------------------------------------------------------------

constexpr double kCkptGateSpeedup = 5.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run_ckpt_bench(uint64_t extra_pages, bench::Report& report) {
  constexpr int kCycles = 5;
  constexpr uint64_t kDirtyPages = 16;  // per-cycle guest working set

  os::Os vos;
  int pid = vos.spawn(apps::build_minikv(), {apps::build_libc()});
  bench::run_until(vos, [&] { return vos.has_listener(apps::kMinikvPort); });

  // Grow the image to a realistic dataset size: one anonymous region,
  // every page touched so the dump actually captures it.
  os::Process* p = vos.process(pid);
  uint64_t heap = p->mem.find_free(0x10000, extra_pages * kPageSize);
  p->mem.map(heap, extra_pages * kPageSize, kProtRead | kProtWrite,
             "heap:bench");
  for (uint64_t i = 0; i < extra_pages; ++i) {
    p->mem.poke(heap + i * kPageSize, &i, sizeof(i));
  }

  auto dirty_working_set = [&] {
    for (uint64_t i = 0; i < kDirtyPages && i < extra_pages; ++i) {
      uint64_t v = i + 1;
      vos.process(pid)->mem.poke(heap + i * kPageSize, &v, sizeof(v));
    }
  };

  // Full cycles: every page dumped, whole address space rebuilt.
  image::CkptStats full_ckpt;
  image::RestoreStats full_rst;
  auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kCycles; ++k) {
    dirty_working_set();
    auto [img, st] = image::checkpoint(vos, {.pid = pid});
    full_ckpt = st;
    full_rst = image::restore(
        vos, {.pid = pid, .img = &img, .mode = image::RestoreMode::kFull});
  }
  double full_host_s = seconds_since(t0) / kCycles;

  // Seed the baseline (one more full dump), then incremental cycles: the
  // dump shares everything but the working set, the restore reconciles in
  // place. The baseline is not refreshed, so each cycle sees the same
  // dirty set — a steady-state toggle.
  image::ProcessImage base_img = image::checkpoint(vos, {.pid = pid}).img;
  const image::BaselineMap baselines{
      {pid, image::Baseline{base_img, vos.mem_epoch(pid)}}};
  image::restore(vos, {.pid = pid, .img = &base_img});

  image::CkptStats delta_ckpt;
  image::RestoreStats delta_rst;
  t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kCycles; ++k) {
    dirty_working_set();
    auto [img, st] =
        image::checkpoint(vos, {.pid = pid, .baselines = &baselines});
    delta_ckpt = st;
    delta_rst = image::restore(
        vos, {.pid = pid, .img = &img, .mode = image::RestoreMode::kDelta});
  }
  double delta_host_s = seconds_since(t0) / kCycles;

  // The virtual-clock freeze window (what fig6/fig8 charge the guest).
  core::CostModel m;
  double full_freeze_s =
      (m.checkpoint_cost(full_ckpt.pages_total) +
       m.restore_cost(full_rst.pages_total)) /
      1e9;
  double delta_freeze_s = (m.checkpoint_delta_cost(delta_ckpt.pages_dumped) +
                           m.restore_delta_cost(delta_rst.pages_restored)) /
                          1e9;

  // The gate is on the freeze window — the virtual-time service
  // interruption the guest observes (the paper's metric). Host wall-clock
  // must merely not regress: the delta cycle still pays an O(pages)
  // refcount-bump copy of the live page table, so its host win is
  // bounded by map-node vs page-copy cost, not by the dirty ratio.
  double host_speedup = full_host_s / delta_host_s;
  double virtual_speedup = full_freeze_s / delta_freeze_s;

  std::printf("ckpt_pages: minikv + %llu-page heap, %d cycles, %llu dirty "
              "pages/cycle\n",
              static_cast<unsigned long long>(extra_pages), kCycles,
              static_cast<unsigned long long>(kDirtyPages));
  std::printf("  full:  %.3f ms/cycle host, %.3f s freeze window, "
              "%llu pages dumped\n",
              full_host_s * 1e3, full_freeze_s,
              static_cast<unsigned long long>(full_ckpt.pages_dumped));
  std::printf("  delta: %.3f ms/cycle host, %.3f s freeze window, "
              "%llu pages dumped, %llu shared\n",
              delta_host_s * 1e3, delta_freeze_s,
              static_cast<unsigned long long>(delta_ckpt.pages_dumped),
              static_cast<unsigned long long>(delta_ckpt.pages_shared));
  std::printf("  speedup: %.1fx host, %.1fx freeze window (gate: freeze "
              ">=%.0fx, host >1x)\n",
              host_speedup, virtual_speedup, kCkptGateSpeedup);

  const bench::Clock host = bench::Clock::kHost;
  report.value("pages_total", full_ckpt.pages_total);
  report.value("dirty_pages_per_cycle", kDirtyPages);
  report.value("full_host_s_per_cycle", full_host_s, host);
  report.value("full_freeze_s", full_freeze_s);
  report.value("full_pages_dumped", full_ckpt.pages_dumped);
  report.value("delta_host_s_per_cycle", delta_host_s, host);
  report.value("delta_freeze_s", delta_freeze_s);
  report.value("delta_pages_dumped", delta_ckpt.pages_dumped);
  report.value("delta_pages_shared", delta_ckpt.pages_shared);
  report.value("delta_pages_restored", delta_rst.pages_restored);
  report.value("host_speedup", host_speedup, host);
  report.value("virtual_speedup", virtual_speedup);
  report.value("gate_min_speedup", kCkptGateSpeedup);
  report.gate("delta_is_incremental",
              delta_ckpt.incremental && delta_ckpt.pages_dumped > 0,
              "the delta cycle must take an incremental, non-empty dump");
  report.gate("freeze_window_5x", virtual_speedup >= kCkptGateSpeedup,
              "the incremental freeze window must be >= 5x shorter");
  report.gate("host_not_slower", host_speedup > 1.0,
              "the incremental cycle must not cost more host time");
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  if (auto steps = bench::flag(argc, argv, "--vm_steps")) {
    bench::Report report("vm", argc, argv);
    return run_vm_steps(steps->empty() ? 4'000'000 : std::stoull(*steps),
                        report);
  }
  if (auto pages = bench::flag(argc, argv, "--ckpt_pages")) {
    bench::Report report("ckpt", argc, argv);
    return run_ckpt_bench(pages->empty() ? 4096 : std::stoull(*pages), report);
  }
  return run_primitives();
}
