// The osim process: address space, CPU, fds, signal state, loaded modules.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "melf/binary.hpp"
#include "os/socket.hpp"
#include "os/syscall.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"
#include "vm/superblock.hpp"

namespace dynacut::os {

/// A module mapped into a process (application, libc.so, injected handler
/// libraries). The drcov-style tracer keys coverage entries by module.
struct LoadedModule {
  std::string name;
  uint64_t base = 0;
  uint64_t size = 0;
  std::shared_ptr<const melf::Binary> binary;

  bool contains(uint64_t addr) const {
    return addr >= base && addr < base + size;
  }
};

/// Registered disposition for one signal. handler==0 means default action
/// (terminate the process).
struct SigAction {
  uint64_t handler = 0;
  uint64_t restorer = 0;
};

struct FileDesc {
  enum class Kind { kConsole, kSocket };
  Kind kind = Kind::kConsole;
  std::shared_ptr<Socket> sock;
};

struct Process {
  enum class State {
    kRunnable,
    kBlocked,  ///< parked in a blocking syscall; see `block`
    kFrozen,   ///< checkpointed by DynaCut; invisible to the scheduler
    kExited,
  };

  enum class BlockKind { kNone, kRecv, kAccept, kSleep };

  int pid = 0;
  int ppid = 0;
  std::string name;
  State state = State::kRunnable;

  vm::AddressSpace mem;
  vm::Cpu cpu;

  /// Per-process decoded-instruction cache. Invalidation is automatic
  /// (page generations + asid); checkpoint restore clears it explicitly
  /// since the whole address space is rebuilt. Its executable pages come
  /// from the owning Os's registry, shared with every other process there.
  vm::DecodeCache dcache;

  /// Per-process superblock (fused-trace) cache layered above the decode
  /// cache. Same invalidation currency; full restore clears it explicitly.
  /// Unused (no traces built) while a tracer sink is attached — coverage
  /// needs per-basic-block events.
  vm::SuperblockCache sbcache;

  std::map<int, FileDesc> fds;
  int next_fd = 3;

  std::array<SigAction, sig::kNumSignals> sigactions{};
  std::vector<uint64_t> signal_frames;  ///< kernel-side frame address stack

  std::vector<LoadedModule> modules;

  BlockKind block_kind = BlockKind::kNone;
  int block_fd = -1;
  uint64_t wake_at = 0;  ///< for kSleep

  /// Virtual core this process is scheduled on. Scheduler-owned; work
  /// stealing and Os::pin move it.
  size_t core = 0;
  /// True while the pid sits in a core's ready queue. Scheduler-owned —
  /// queue entries are removed only by popping, so this flag is the single
  /// source of truth for membership.
  bool queued = false;
  /// Earliest core-clock tick this process may run again. DynaCut charges
  /// its rewrite window here (Os::charge_downtime) so downtime is billed to
  /// the frozen set only, not the whole machine.
  uint64_t not_before = 0;

  std::string stdout_buf;  ///< bytes written to fd 1, host-observable

  int exit_code = 0;
  int term_signal = 0;  ///< non-zero if killed by a signal

  /// True right after process start, a control transfer, or a signal
  /// delivery/return — i.e. when cpu.ip is the first instruction of a basic
  /// block. Drives the tracer.
  bool at_block_start = true;

  uint64_t instructions_retired = 0;

  /// SIGTRAP deliveries since start. Benches diff this across a request to
  /// show a stub cut denies without any signal round-trip while a trap cut
  /// pays one per entry.
  uint64_t sigtraps = 0;

  const LoadedModule* module_at(uint64_t addr) const {
    for (const auto& m : modules) {
      if (m.contains(addr)) return &m;
    }
    return nullptr;
  }

  const LoadedModule* module_named(const std::string& module_name) const {
    for (const auto& m : modules) {
      if (m.name == module_name) return &m;
    }
    return nullptr;
  }
};

}  // namespace dynacut::os
