// Table 1 reproduction: Redis CVEs mitigated by DynaCut's feature blocking.
//
// minikv plants analogues of the paper's five CVEs:
//   CVE-2021-32625 / CVE-2021-29477  STRALGO LCS missing combined length
//                                    check -> clobbers the "secret" buffer
//   CVE-2019-10192 / CVE-2019-10193  SETRANGE unchecked offset -> corrupts
//                                    the adjacent key slot
//   CVE-2016-8339                    CONFIG SET value overflow -> flips the
//                                    adjacent "admin_mode" word
//
// Each exploit is fired twice: against a vanilla server (it must succeed)
// and against a server whose vulnerable command DynaCut disabled at runtime
// (it must be answered by the error path with all state intact).
#include <cstdio>

#include "apps/minikv.hpp"
#include "bench_common.hpp"
#include "core/dynacut.hpp"

namespace {

using namespace dynacut;
using bench::run_until;

struct KvInstance {
  os::Os vos;
  int pid = 0;
  os::HostConn conn;
  std::shared_ptr<const melf::Binary> bin;

  KvInstance() {
    bin = apps::build_minikv();
    pid = vos.spawn(bin, {apps::build_libc()});
    run_until(vos, [&] { return vos.has_listener(apps::kMinikvPort); });
    conn = vos.connect(apps::kMinikvPort);
  }

  std::string request(const std::string& line) {
    return bench::request(vos, conn, line);
  }

  uint64_t peek_u64(const std::string& symbol) {
    const os::Process* p = vos.process(pid);
    const os::LoadedModule* m = p->module_named("minikv");
    uint64_t v = 0;
    p->mem.peek(m->base + m->binary->find_symbol(symbol)->value, &v, 8);
    return v;
  }
};

struct Exploit {
  const char* cve;
  const char* description;
  std::string command;                       // vulnerable feature name
  std::vector<std::string> setup_requests;   // benign state preparation
  std::string attack_request;
  // Returns true if the attack corrupted the instance's state.
  bool (*corrupted)(KvInstance&);
};

bool secret_corrupted(KvInstance& kv) {
  return (kv.peek_u64("secret") & 0xff) != 0x5a;
}
bool victim_slot_corrupted(KvInstance& kv) {
  return kv.request("GET attacker\n") == "$-1\n";  // adjacent key destroyed
}
bool admin_mode_set(KvInstance& kv) { return kv.peek_u64("admin_mode") != 0; }

std::vector<Exploit> exploits() {
  std::string long40a(40, 'X'), long40b(40, 'Y');
  return {
      {"CVE-2021-32625", "STRALGO LCS integer overflow (6.0+)", "STRALGO",
       {},
       "STRALGO LCS " + long40a + " " + long40b + "\n",
       secret_corrupted},
      {"CVE-2021-29477", "STRALGO LCS integer overflow (6.0+)", "STRALGO",
       {},
       "STRALGO LCS " + long40b + " " + long40a + "\n",
       secret_corrupted},
      {"CVE-2019-10193", "SETRANGE stack-buffer overflow", "SETRANGE",
       {"SET victim precious\n", "SET attacker x\n"},
       "SETRANGE victim 72 HACKED\n",
       victim_slot_corrupted},
      {"CVE-2019-10192", "SETRANGE heap-buffer overflow", "SETRANGE",
       {"SET victim2 data\n", "SET attacker x\n"},
       "SETRANGE victim2 80 OWNED\n",
       victim_slot_corrupted},
      {"CVE-2016-8339", "CONFIG SET buffer overflow (3.2.x)", "CONFIG",
       {},
       "CONFIG SET maxmem 0123456789012345678999\n",
       admin_mode_set},
  };
}

/// tracediff-discovered blocks for one vulnerable command.
core::FeatureSpec feature_for(const std::string& command,
                              std::shared_ptr<const melf::Binary> bin) {
  std::vector<std::string> undesired_reqs, wanted_reqs = {
      "SETRANGE base 0 hello\n", "GET base\n", "GET miss\n", "PING\n",
      "SET k v\n", "DEL k\n"};
  if (command == "STRALGO") {
    undesired_reqs = {"STRALGO LCS ab cd\n", "PING\n"};
  } else if (command == "SETRANGE") {
    undesired_reqs = {"SETRANGE k 0 xy\n", "PING\n"};
    // The wanted profile must then avoid SETRANGE.
    wanted_reqs = {"SET k hello\n", "GET k\n", "GET miss\n", "PING\n",
                   "DEL k\n"};
  } else {  // CONFIG
    undesired_reqs = {"CONFIG SET maxmem 1\n", "PING\n"};
  }
  return bench::discover_feature(command, bin, apps::kMinikvPort, "minikv",
                                 undesired_reqs, wanted_reqs, "dispatch_err");
}

}  // namespace

int main() {
  bench::banner(
      "Table 1: Redis CVEs mitigated by DynaCut feature blocking\n"
      "(planted vulnerability analogues in minikv; exploit fired against a\n"
      "vanilla instance and a DynaCut-customized instance)");

  std::printf("\n%-16s %-38s %-10s %-22s %-22s\n", "CVE", "description",
              "command", "vanilla", "DynaCut-blocked");
  int mitigated = 0;
  for (auto& e : exploits()) {
    // Vanilla instance: the exploit must land.
    KvInstance vanilla;
    for (const auto& r : e.setup_requests) vanilla.request(r);
    vanilla.request(e.attack_request);
    bool vanilla_hit = e.corrupted(vanilla);

    // Customized instance: DynaCut disables the vulnerable command first.
    KvInstance guarded;
    for (const auto& r : e.setup_requests) guarded.request(r);
    core::DynaCut dc(guarded.vos, guarded.pid);
    dc.disable_feature({feature_for(e.command, guarded.bin),
                       core::RemovalPolicy::kBlockFirstByte,
                       core::TrapPolicy::kRedirect});
    std::string reply = guarded.request(e.attack_request);
    bool guarded_hit = e.corrupted(guarded);
    bool alive = guarded.request("PING\n") == "+PONG\n";
    bool ok = vanilla_hit && !guarded_hit && alive &&
              reply == "-ERR unknown or disabled command\n";
    if (ok) ++mitigated;

    std::printf("%-16s %-38s %-10s %-22s %-22s\n", e.cve, e.description,
                e.command.c_str(),
                vanilla_hit ? "EXPLOITED (state hit)" : "no effect (?)",
                !guarded_hit && alive ? "blocked, server alive"
                                      : "NOT MITIGATED");
  }
  std::printf("\n%d/5 CVEs mitigated by dynamic feature blocking (paper: 5/5)\n",
              mitigated);
  return 0;
}
