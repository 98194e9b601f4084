// Differential test of the superblock tier against the interpreter path.
// Seeded synthetic programs (hot loops, call chains, a PLT memset toucher
// over more bss pages than the guest TLB has slots) and a minikv serving
// run execute under Os::set_superblocks(true) and (false); retired counts,
// exit codes, replies, a per-page memory digest and the obs JSONL must be
// identical. The sb.* lifecycle events are the one expected difference:
// only the superblock tier emits them, so they are left out of the JSONL
// comparison.
//
// The same oracle checks shared decoded pages: workers spawned from one
// customized minikv image onto one machine (one decoded-page registry)
// must behave exactly like the same workers each on a machine of its own.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/libc.hpp"
#include "apps/minikv.hpp"
#include "apps/synth.hpp"
#include "core/dynacut.hpp"
#include "image/checkpoint.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "obs/sinks.hpp"
#include "os/os.hpp"
#include "os/syscall.hpp"
#include "vm/superblock.hpp"

namespace dynacut {
namespace {

constexpr uint64_t kBufPages = 24;  // > the TLB's 16 direct-mapped slots

/// FNV-1a over (address, bytes) of every populated page.
uint64_t memory_digest(const vm::AddressSpace& mem) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (uint64_t page : mem.populated_pages()) {
    for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(page >> (8 * i)));
    for (uint8_t b : mem.page_bytes(page)) mix(b);
  }
  return h;
}

/// The run's JSONL without the sb.* lifecycle events and without the bus
/// sequence numbers they take up.
std::string without_sb_events(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"sb.") != std::string::npos) continue;
    const size_t seq = line.find("\"seq\":");
    const size_t comma = line.find(',', seq);
    if (seq != std::string::npos && comma != std::string::npos) {
      line.erase(seq, comma + 1 - seq);
    }
    out += line + "\n";
  }
  return out;
}

/// A seeded program: `rounds` times, run a chain of synthetic functions
/// whose bodies loop past the hot threshold, memset one cache line of
/// every bss page through the PLT, then mix loads and stores between
/// pages 16 apart (they share a TLB slot). Exits with the accumulator.
std::shared_ptr<const melf::Binary> build_program(uint64_t seed) {
  melf::ProgramBuilder b(std::string("diff").append(std::to_string(seed)));
  b.bss("buf", kBufPages * kPageSize);
  apps::SynthSpec spec{"hot", 4 + static_cast<int>(seed % 4), 2, 6,
                       static_cast<int>(vm::SuperblockCache::kHotThreshold +
                                        seed % 8),
                       seed};
  apps::emit_call_chain(b, "chain", apps::emit_synth_funcs(b, spec));
  apps::emit_memory_toucher(b, "touch", "buf", kBufPages * kPageSize);

  auto& m = b.func("main");
  m.push(12).mov_ri(12, 3 + seed % 3).mov_ri(0, 0).mov_ri(4, 0);
  m.label("round")
      .cmp_ri(12, 0)
      .je("done")
      .call("chain")
      .add_rr(4, 0)
      .call("touch")
      .mov_ri(3, 0);
  m.label("mix")
      .cmp_ri(3, 8 * static_cast<int32_t>(kPageSize))
      .jae("mixed")
      .mov_sym(1, "buf")
      .add_rr(1, 3)
      .load(2, 1, 0)
      .add_rr(4, 2)
      .store(1, 16 * static_cast<int32_t>(kPageSize), 4)
      .load(2, 1, 16 * static_cast<int32_t>(kPageSize) + 8)
      .add_rr(4, 2)
      .store(1, 8, 4)
      .add_ri(3, static_cast<int32_t>(kPageSize))
      .jmp("mix");
  m.label("mixed").sub_ri(12, 1).jmp("round");
  m.label("done").pop(12).mov_rr(1, 4).sys(os::sys::kExit);
  b.set_entry("main");
  return std::make_shared<melf::Binary>(b.link());
}

struct Outcome {
  std::vector<uint64_t> retired;
  std::vector<int> exit_codes;
  std::vector<uint64_t> digests;
  std::vector<std::string> replies;
  std::string jsonl;
  uint64_t now = 0;
  uint64_t sb_instrs = 0;
  uint64_t chained = 0;
};

void record(const os::Os& vos, const std::vector<int>& pids, Outcome& out) {
  for (int pid : pids) {
    const os::Process* p = vos.process(pid);
    out.retired.push_back(p->instructions_retired);
    out.exit_codes.push_back(p->exit_code);
    out.digests.push_back(memory_digest(p->mem));
    out.sb_instrs += p->sbcache.sb_instrs();
    out.chained += p->sbcache.chained();
  }
  out.now = vos.now();
}

void expect_same(const Outcome& on, const Outcome& off) {
  EXPECT_EQ(on.retired, off.retired);
  EXPECT_EQ(on.exit_codes, off.exit_codes);
  EXPECT_EQ(on.digests, off.digests);
  EXPECT_EQ(on.replies, off.replies);
  EXPECT_EQ(without_sb_events(on.jsonl), without_sb_events(off.jsonl));
  EXPECT_EQ(on.now, off.now);
  // The superblock tier really ran, chained, and the reference did not.
  EXPECT_GT(on.sb_instrs, 0u);
  EXPECT_GT(on.chained, 0u);
  EXPECT_EQ(off.sb_instrs, 0u);
}

Outcome run_programs(uint64_t seed, bool superblocks) {
  obs::EventBus bus;
  std::ostringstream jsonl;
  obs::JsonlSink sink(jsonl);
  bus.add_sink(&sink);
  os::Os vos;
  vos.set_cores(2);
  vos.set_seed(seed);
  vos.set_superblocks(superblocks);
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();
  std::vector<int> pids;
  for (uint64_t k = 0; k < 3; ++k) {
    pids.push_back(vos.spawn(build_program(seed * 3 + k), {libc}));
  }
  vos.run();
  EXPECT_TRUE(vos.all_exited());
  Outcome out;
  record(vos, pids, out);
  out.jsonl = jsonl.str();
  return out;
}

TEST(SuperblockDiff, SynthProgramsMatchInterpreter) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Outcome on = run_programs(seed, true);
    Outcome off = run_programs(seed, false);
    expect_same(on, off);
    EXPECT_NE(without_sb_events(off.jsonl), "");  // the cores stole work
    for (int code : on.exit_codes) EXPECT_NE(code, 0);  // data-dependent
  }
}

/// Two minikv servers on two cores, answering alternating SET/GET
/// requests, one connection per request.
Outcome serve_minikv(bool superblocks) {
  constexpr uint16_t kPorts[2] = {6391, 6392};
  obs::EventBus bus;
  std::ostringstream jsonl;
  obs::JsonlSink sink(jsonl);
  bus.add_sink(&sink);
  os::Os vos;
  vos.set_cores(2);
  vos.set_seed(11);
  vos.set_superblocks(superblocks);
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();
  std::vector<int> pids;
  for (uint16_t port : kPorts) {
    pids.push_back(vos.spawn(apps::build_minikv(port, 64), {libc}));
  }
  for (int i = 0; i < 200 && !(vos.has_listener(kPorts[0]) &&
                               vos.has_listener(kPorts[1]));
       ++i) {
    vos.run(20'000);
  }
  Outcome out;
  for (int i = 0; i < 60; ++i) {
    // Appends only: GCC 12's -Wrestrict misfires on "literal" + string&&.
    std::string line = i % 3 == 0 ? "SET k" : "GET k";
    line += std::to_string(i % 7);
    if (i % 3 == 0) line.append(" v").append(std::to_string(i));
    line += '\n';
    os::HostConn conn = vos.connect(kPorts[i % 2]);
    conn.send(line);
    for (int r = 0; r < 200 && conn.pending() == 0; ++r) vos.run(5'000);
    out.replies.push_back(conn.recv_all());
    conn.close();
  }
  vos.run(50'000);
  record(vos, pids, out);
  out.jsonl = jsonl.str();
  return out;
}

// ---------------------------------------------------------------------------
// Workers spawned from one customized image
// ---------------------------------------------------------------------------

constexpr uint16_t kTemplatePort = 6390;

uint16_t worker_port(size_t k) { return static_cast<uint16_t>(6400 + k); }

/// minikv booted to its listener with SET's entry cut (kTerminate), as the
/// DynaCut store holds it after the cut.
image::ProcessImage customized_minikv() {
  os::Os vos;
  auto bin = apps::build_minikv(kTemplatePort, 64);
  const int pid = vos.spawn(bin, {apps::build_libc()});
  for (int i = 0; i < 200 && !vos.has_listener(kTemplatePort); ++i) {
    vos.run(20'000);
  }
  core::FeatureSpec set;
  set.name = "SET";
  set.blocks = {{"minikv", bin->find_symbol("cmd_set")->value, 1}};
  core::DynaCut dc(vos, pid);
  dc.disable_feature({.feature = set, .trap = core::TrapPolicy::kTerminate});
  return dc.store().get(dc.image_key(pid));
}

/// One request on a fresh connection; "" when no reply comes. Runs the
/// machine until every process parks again, so a worker's instruction
/// count does not depend on which siblings share its machine (a worker
/// that reached accept before its next connection arrived pays one more
/// accept attempt).
std::string request(os::Os& vos, uint16_t port, const std::string& line) {
  os::HostConn conn = vos.connect(port);
  conn.send(line);
  for (int r = 0; r < 200 && conn.pending() == 0; ++r) vos.run(5'000);
  std::string reply = conn.recv_all();
  conn.close();
  vos.run();
  return reply;
}

struct FleetRun {
  std::vector<uint64_t> retired;
  std::vector<uint64_t> digests;
  std::vector<std::string> replies;
  uint64_t misses = 0;
};

/// Four workers spawned from `img`, all on one machine or each on its own,
/// serving the same commands rotated per worker, so each one first runs
/// code a sibling decoded in another order.
FleetRun serve_spawned_fleet(const image::ProcessImage& img,
                             bool one_machine) {
  constexpr size_t kWorkers = 4;
  const std::vector<std::string> commands = {
      "PING\n", "SETRANGE w 0 abc\n", "GET w\n",          "DEL w\n",
      "GET miss\n", "SETRANGE w 2 xyz\n", "GET w\n"};
  std::vector<std::unique_ptr<os::Os>> machines;
  std::vector<std::pair<os::Os*, int>> workers;
  for (size_t k = 0; k < kWorkers; ++k) {
    if (!one_machine || machines.empty()) {
      machines.push_back(std::make_unique<os::Os>());
    }
    os::Os& vos = *machines.back();
    workers.emplace_back(&vos, image::spawn_from_image(
                                   vos, img, {.listen_port = worker_port(k)}));
    vos.run();  // parks in accept, as its siblings do
  }
  FleetRun out;
  for (size_t round = 0; round < commands.size(); ++round) {
    for (size_t k = 0; k < kWorkers; ++k) {
      out.replies.push_back(
          request(*workers[k].first, worker_port(k),
                  commands[(round + k) % commands.size()]));
    }
  }
  for (const auto& [vos, pid] : workers) {
    const os::Process* p = vos->process(pid);
    out.retired.push_back(p->instructions_retired);
    out.digests.push_back(memory_digest(p->mem));
    out.misses += p->dcache.misses();
  }
  return out;
}

TEST(SuperblockDiff, SpawnedFleetOnOneMachineMatchesSeparateMachines) {
  const image::ProcessImage img = customized_minikv();
  const FleetRun shared = serve_spawned_fleet(img, /*one_machine=*/true);
  const FleetRun alone = serve_spawned_fleet(img, /*one_machine=*/false);
  EXPECT_EQ(shared.retired, alone.retired);
  EXPECT_EQ(shared.replies, alone.replies);
  EXPECT_EQ(shared.digests, alone.digests);
  // The siblings really ran on each other's decodes.
  EXPECT_LT(shared.misses, alone.misses);
  ASSERT_EQ(shared.replies.size(), 28u);
  EXPECT_EQ(shared.replies[0], "+PONG\n");  // worker 0, round 0
  for (const std::string& reply : shared.replies) EXPECT_NE(reply, "");
}

TEST(SuperblockDiff, PatchedWorkerRunsItsOwnBytes) {
  // Three workers decode their identical PING path into shared pages. An
  // int3 poked into one worker's cmd_ping rebinds only that worker: it
  // takes the trap (no SIGTRAP handler: it dies), while its siblings and a
  // worker spawned after the patch still answer from the shared page.
  const image::ProcessImage img = customized_minikv();
  for (bool superblocks : {true, false}) {
    SCOPED_TRACE(superblocks);
    os::Os vos;
    vos.set_superblocks(superblocks);
    std::vector<int> pids;
    for (size_t k = 0; k < 3; ++k) {
      pids.push_back(
          image::spawn_from_image(vos, img, {.listen_port = worker_port(k)}));
    }
    for (int i = 0; i < 10; ++i) {  // past the superblock hot threshold
      for (size_t k = 0; k < 3; ++k) {
        ASSERT_EQ(request(vos, worker_port(k), "PING\n"), "+PONG\n");
      }
    }
    os::Process* victim = vos.process(pids[0]);
    const uint64_t ping =
        victim->module_named("minikv")->base +
        victim->module_named("minikv")->binary->find_symbol("cmd_ping")->value;
    const uint8_t int3 = 0xCC;
    victim->mem.poke(ping, &int3, 1);

    EXPECT_EQ(request(vos, worker_port(0), "PING\n"), "");
    EXPECT_EQ(vos.process(pids[0])->term_signal, os::sig::kSigTrap);
    EXPECT_EQ(request(vos, worker_port(1), "PING\n"), "+PONG\n");
    EXPECT_EQ(request(vos, worker_port(2), "PING\n"), "+PONG\n");
    const int late =
        image::spawn_from_image(vos, img, {.listen_port = worker_port(3)});
    EXPECT_EQ(request(vos, worker_port(3), "PING\n"), "+PONG\n");
    EXPECT_LT(vos.process(late)->dcache.misses(),
              vos.process(pids[0])->dcache.misses());
  }
}

TEST(SuperblockDiff, MinikvServingMatchesInterpreter) {
  Outcome on = serve_minikv(true);
  Outcome off = serve_minikv(false);
  expect_same(on, off);
  ASSERT_EQ(on.replies.size(), 60u);
  EXPECT_EQ(on.replies[0], "+OK\n");   // SET k0 v0 on the first server
  EXPECT_EQ(on.replies[1], "$-1\n");   // GET k1: not set yet
  EXPECT_EQ(on.replies[14], "$v0\n");  // GET k0 on the first server
  EXPECT_EQ(on.replies[7], "$-1\n");   // GET k0 on the second one
}

}  // namespace
}  // namespace dynacut
