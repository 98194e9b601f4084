// Example: dropping initialization code from a long-running server after
// boot — the paper's temporal-debloating use case (§3.1, Figure 9), plus
// the fast-boot trick from footnote 5 (restore a stored post-init image
// instead of rerunning initialization).
//
// Build & run:  cmake --build build && ./build/examples/init_trim
#include <cstdio>

#include "analysis/coverage.hpp"
#include "analysis/gadget.hpp"
#include "analysis/plt.hpp"
#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "core/dynacut.hpp"
#include "image/checkpoint.hpp"
#include "os/os.hpp"
#include "trace/trace.hpp"

using namespace dynacut;

namespace {
template <typename Pred>
void run_until(os::Os& vos, Pred done) {
  for (int i = 0; i < 300 && !done(); ++i) vos.run(200'000);
}
}  // namespace

int main() {
  auto bin = apps::build_minihttpd();

  // --- phase-split profiling: nudge at ready, then serve -----------------
  os::Os prof;
  trace::Tracer tracer(prof);
  int ppid = prof.spawn(bin, {apps::build_libc()});
  run_until(prof, [&] { return prof.has_listener(apps::kMinihttpdPort); });
  trace::TraceLog init_log = tracer.dump_and_reset(ppid);  // the nudge
  // Two connections: the serving trace must cover accept/close paths too,
  // or tracediff would misclassify them as init-only (the over-elimination
  // pitfall of §3.2.3).
  for (int round = 0; round < 2; ++round) {
    auto pconn = prof.connect(apps::kMinihttpdPort);
    for (const char* r : {"GET /index\n", "HEAD /index\n", "GET /miss\n",
                          "PUT /f x\n", "DELETE /f\n", "PATCH /x\n"}) {
      pconn.send(r);
      run_until(prof, [&] { return pconn.pending() > 0; });
      pconn.recv_all();
    }
    pconn.close();
    prof.run(200'000);  // let the server observe EOF and re-enter accept
  }
  trace::TraceLog serving_log = tracer.dump(ppid);

  analysis::CoverageGraph init_only =
      analysis::init_only(init_log, serving_log, "minihttpd");
  analysis::CoverageGraph init_cov =
      analysis::CoverageGraph::from_log(init_log).only_module("minihttpd");
  std::printf("init phase executed %zu blocks; %zu of them (%.0f%%) never\n"
              "run again after initialization\n\n",
              init_cov.size(), init_only.size(),
              100.0 * init_only.size() / init_cov.size());

  // --- trim a live server --------------------------------------------------
  os::Os vos;
  int pid = vos.spawn(bin, {apps::build_libc()});
  run_until(vos, [&] { return vos.has_listener(apps::kMinihttpdPort); });

  analysis::GadgetStats before = analysis::scan_gadgets(vos.process(pid)->mem);
  core::DynaCut dc(vos, pid);
  core::CustomizeReport rep =
      dc.remove_init_code(init_only, core::RemovalPolicy::kWipeBlocks);
  analysis::GadgetStats after = analysis::scan_gadgets(vos.process(pid)->mem);

  std::printf("wiped %zu init-only blocks in %.3f virtual seconds\n",
              rep.edits.blocks_patched, rep.timing.total_seconds());
  std::printf("ROP gadget starts: %llu -> %llu\n",
              (unsigned long long)before.gadget_starts,
              (unsigned long long)after.gadget_starts);

  auto conn = vos.connect(apps::kMinihttpdPort);
  conn.send("GET /index\n");
  run_until(vos, [&] { return conn.pending() > 0; });
  std::printf("service after trim: GET /index -> %s\n",
              conn.recv_all().c_str());

  // --- footnote 5: boot the next instance from the trimmed image ----------
  image::ProcessImage img = image::checkpoint(vos, {.pid = pid}).img;
  image::ImageStore store;
  const image::ImageKey trimmed_key{pid, "trimmed"};
  store.put(trimmed_key, img);
  vos.kill(pid);
  std::printf("\nstored trimmed post-init image (%.2f MB) to the tmpfs store\n",
              static_cast<double>(store.bytes_used()) / (1024 * 1024));

  image::ProcessImage trimmed = store.get(trimmed_key);
  int pid2 = image::spawn_from_image(vos, trimmed);
  run_until(vos, [&] { return vos.has_listener(apps::kMinihttpdPort); });
  auto conn2 = vos.connect(apps::kMinihttpdPort);
  conn2.send("GET /index\n");
  run_until(vos, [&] { return conn2.pending() > 0; });
  std::printf("new instance (pid %d) restored WITHOUT rerunning init:\n"
              "  GET /index -> %s",
              pid2, conn2.recv_all().c_str());
  std::printf("  (its stdout is empty — no second 'ready' banner: %s)\n",
              vos.process(pid2)->stdout_buf.empty() ? "confirmed" : "NO");
  return 0;
}
