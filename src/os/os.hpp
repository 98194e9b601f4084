// osim: the userspace OS simulator hosting guest processes.
//
// A deterministic multi-core scheduler with per-core virtual clocks (1 tick
// per retired instruction plus per-syscall costs). Each virtual core owns a
// rotating ready queue; cores advance in bounded-skew rounds so their clocks
// stay comparable, and idle cores steal work from the most loaded core
// (victim ties broken by a seeded RNG — the only scheduling decision that is
// not structurally forced, so one seed pins the whole schedule). Blocking
// syscalls park the process and transparently re-execute when the condition
// clears. Signals are delivered through guest-stack frames with an
// rt_sigreturn-style unwind — the substrate DynaCut's trap-handling and
// redirection run on. With one core (the default) the scheduler specializes
// to a single rotating ready queue: strict round-robin that keeps its
// position across run() calls, so budget-sliced driving cannot starve
// high-pid processes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "os/loader.hpp"
#include "os/process.hpp"
#include "os/socket.hpp"

namespace dynacut::obs {
class EventBus;
}

namespace dynacut::os {

/// Receives basic-block entry events (the drcov tracer implements this).
class BlockSink {
 public:
  virtual ~BlockSink() = default;
  virtual void on_block(const Process& p, uint64_t ip) = 0;
};

/// Per-syscall virtual-time costs (ticks; 1 tick ~ 1ns of the paper's
/// hardware). Exposed so benches can document the cost model.
struct SyscallCosts {
  uint64_t base = 60;
  uint64_t per_io_byte_div = 4;  ///< io adds len/div ticks
  uint64_t fork_extra = 20000;
  uint64_t accept_extra = 500;
};

class Os {
 public:
  Os() = default;
  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;

  // --- processes --------------------------------------------------------
  /// Loads libraries (at the libc region) and the application (at kAppBase),
  /// maps a stack and creates a runnable process. Returns its pid.
  int spawn(std::shared_ptr<const melf::Binary> app,
            std::vector<std::shared_ptr<const melf::Binary>> libs = {},
            const std::string& name = "");

  Process* process(int pid);
  const Process* process(int pid) const;
  std::vector<int> pids() const;
  /// `root` plus all live descendants (an Nginx-style master+workers group).
  std::vector<int> process_group(int root) const;
  void kill(int pid);

  // --- virtual cores -----------------------------------------------------
  /// Reconfigures the machine to `n` virtual cores (n >= 1; default 1).
  /// Live processes are re-sharded round-robin in pid order, every core
  /// clock starts at now(), and per-core counters reset. Deterministic:
  /// the same spawn/run/set_cores call sequence with the same seed always
  /// produces the same schedule.
  void set_cores(size_t n);
  size_t num_cores() const { return cores_.size(); }

  /// Seeds the work-stealing victim choice — the only scheduling decision
  /// not structurally forced. Same seed => bit-identical schedules, retired
  /// counts and obs timelines.
  void set_seed(uint64_t seed) { rng_ = Rng(seed); }

  /// Per-core scheduler counters (bench/obs surface).
  struct CoreStats {
    uint64_t clock = 0;    ///< this core's virtual clock
    uint64_t retired = 0;  ///< instructions retired on this core
    uint64_t steals = 0;   ///< pids stolen *into* this core
  };
  CoreStats core_stats(size_t core) const;
  /// Moves `pid` to `core` (takes effect at the next scheduling round).
  void pin(int pid, size_t core);
  /// Instructions retired machine-wide since construction.
  uint64_t total_retired() const;
  /// SIGTRAP deliveries machine-wide (sum of Process::sigtraps over live
  /// and exited processes).
  uint64_t total_sigtraps() const;

  // --- scheduling & time -------------------------------------------------
  /// Runs until every process is exited/blocked/frozen or `max_instr`
  /// instructions retire. Returns instructions retired.
  uint64_t run(uint64_t max_instr = ~0ull);

  /// Runs until every core's clock advances past now() + `ticks` (idle gaps
  /// with only sleepers skip forward; fully idle systems jump to the
  /// deadline). The deadline is honored per operation: a core stops issuing
  /// as soon as its clock reaches it, so the overshoot is bounded by one
  /// operation's cost (zero for pure compute), never a whole run() budget.
  void run_ticks(uint64_t ticks);

  bool all_exited() const;
  /// The virtual clock: the executing core's clock during execution (this
  /// is what the event bus stamps), otherwise the furthest core clock.
  uint64_t now() const;
  /// Charges DynaCut's rewrite window to exactly the processes that were
  /// frozen: each pid cannot run again before its core clock reaches
  /// now + ticks, while every other process keeps executing. With a single
  /// core the whole machine stalls instead (the lone core is busy doing the
  /// rewrite) — the historical fig8 semantics.
  void charge_downtime(const std::vector<int>& pids, uint64_t ticks);

  // --- checkpoint support -------------------------------------------------
  void freeze(int pid);
  void thaw(int pid);

  /// Takes a checkpoint epoch on `pid`'s address space — the soft-dirty
  /// analogue of `echo 4 > /proc/pid/clear_refs`. Throws StateError if the
  /// pid is not live.
  vm::MemEpoch mem_epoch(int pid);

  /// Pages of `pid` modified since `since` was taken, or nullopt when the
  /// epoch no longer matches the live address space (it was rebuilt and its
  /// clock restarted) — callers fall back to a full dump.
  std::optional<std::vector<uint64_t>> dirty_pages_since(
      int pid, const vm::MemEpoch& since) const;

  /// Freezes every pid in `pids` with the strong guarantee: if any freeze
  /// fails (dead pid, already frozen), the ones frozen so far are thawed
  /// back and the error rethrown. This is the stage window of DynaCut's
  /// transactional customization — the freeze set stops together while
  /// every process outside it keeps running.
  void freeze_group(const std::vector<int>& pids);
  /// Thaws every pid in `pids` that is currently frozen (exited or
  /// already-thawed pids are skipped, so abort paths can call it blindly).
  void thaw_group(const std::vector<int>& pids);

  // --- host networking -----------------------------------------------------
  /// Connects to a guest listener; throws StateError if no one listens.
  HostConn connect(uint16_t port);
  bool has_listener(uint16_t port) const;
  /// Registers a listening socket (used by process-image restore).
  void register_listener(const std::shared_ptr<Socket>& sock);

  /// Adopts an externally constructed process (image restore into a new
  /// process). Assigns and returns a fresh pid. This is the OS-level hook
  /// image::spawn_from_image (CRIU restore-as-template, defined in the
  /// image layer above this one) builds on.
  ///
  /// Every process this Os spawns, adopts or forks decodes its executable
  /// pages through one machine-wide vm::DecodedPageRegistry, so a worker
  /// forked from an image starts on the code its siblings decoded.
  int adopt(std::unique_ptr<Process> p);

  /// Payload bytes of page blocks held by live address spaces, deduped by
  /// block identity. Thread one `seen` set through this and
  /// image::ImageStore::resident_bytes to get true machine-wide resident
  /// bytes under content-addressed sharing — each shared block counts once,
  /// at whichever holder sees it first.
  uint64_t resident_pages_bytes(std::set<const void*>* seen = nullptr) const;

  // --- instrumentation ----------------------------------------------------
  void set_block_sink(BlockSink* sink) { sink_ = sink; }

  /// Enables/disables superblock (fused-trace) execution. On by default;
  /// automatically bypassed while a block sink is attached, because
  /// coverage tracing needs an event per basic block and a fused trace
  /// retires many blocks without surfacing. Tests that pin down pure
  /// interpreter/decode-cache behaviour turn it off explicitly.
  void set_superblocks(bool enabled) { superblocks_ = enabled; }

  /// Scheduler quantum in instructions — exposed for accounting tests
  /// (a trap on the quantum boundary must be charged once per attempt).
  static constexpr uint64_t kQuantum = 256;
  /// Bounded-skew window in ticks: per scheduling round, a core executes
  /// until its clock passes the round frontier (the minimum clock among
  /// cores with work) by this much. Keeps per-core clocks comparable so
  /// cross-core latencies are meaningful.
  static constexpr uint64_t kSkewWindow = kQuantum * 4;

  /// (pid, code) markers emitted by the kNudge syscall.
  const std::vector<std::pair<int, uint64_t>>& nudges() const {
    return nudges_;
  }
  /// Invoked synchronously when a guest issues kNudge — lets a tracer dump
  /// coverage at the exact init/serving boundary (the paper's DynamoRIO
  /// nudge extension).
  void set_nudge_hook(std::function<void(const Process&, uint64_t)> hook) {
    nudge_hook_ = std::move(hook);
  }

  /// Wires the observability event bus in (non-owning; nullptr detaches).
  /// The OS emits `trap.hit` for every SIGTRAP it dispatches — pid, address,
  /// owning core and whether a handler took it or the process was killed —
  /// and `sched.steal` for every work-stealing migration. If the bus has no
  /// clock source yet, it is given this OS's virtual clock (per-core during
  /// execution, so event timestamps are core-local).
  void set_event_bus(obs::EventBus* bus);

  SyscallCosts& costs() { return costs_; }

 private:
  /// One virtual core: its clock, rotating ready queue and counters.
  struct Core {
    uint64_t clock = 0;
    uint64_t retired = 0;
    uint64_t steals = 0;
    std::deque<int> ready;  ///< runnable pids, rotated per quantum
  };

  uint64_t run_bounded(uint64_t max_instr, uint64_t tick_deadline);
  void run_quantum(Process& p, uint64_t budget, uint64_t& retired,
                   uint64_t tick_deadline);
  void steal_work();
  size_t assign_core();
  uint64_t min_core_clock() const;
  void drain_sb_events(Process& p);
  void do_syscall(Process& p);
  void deliver_signal(Process& p, int signo, uint64_t fault_addr);
  void do_sigreturn(Process& p);
  bool try_unblock(Process& p);
  void block_on_fd(Process& p, Process::BlockKind kind, int fd);
  uint64_t do_fork(Process& p);

  /// Decoded code pages shared by every process of this Os (declared
  /// before procs_, so it outlives them).
  vm::DecodedPageRegistry decoded_pages_;
  std::map<int, std::unique_ptr<Process>> procs_;
  int next_pid_ = 100;
  std::vector<Core> cores_{1};
  int running_core_ = -1;  ///< core executing right now; -1 outside run
  size_t assign_next_ = 0;
  Rng rng_{0};
  /// Listener table, sharded by port hash so fleets with hundreds of
  /// listening servers don't funnel through one map.
  static constexpr size_t kNetShards = 16;
  std::map<uint16_t, std::weak_ptr<Socket>> listeners_[kNetShards];
  BlockSink* sink_ = nullptr;
  std::vector<std::pair<int, uint64_t>> nudges_;
  std::function<void(const Process&, uint64_t)> nudge_hook_;
  obs::EventBus* bus_ = nullptr;
  SyscallCosts costs_;
  bool yielded_ = false;
  bool superblocks_ = true;
};

}  // namespace dynacut::os
