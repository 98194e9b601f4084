// Fault-injection smoke: drives the transactional customization protocol
// through every deterministic fault point of every RemovalPolicy ×
// TrapPolicy combination and checks the group-atomicity contract outside
// the unit-test harness (CI runs this under ASan/UBSan).
//
//   txn_smoke              one quick scenario per removal policy
//   txn_smoke --faults=all the full matrix (every stage × occurrence)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "bench_common.hpp"
#include "core/dynacut.hpp"
#include "core/txn.hpp"
#include "melf/builder.hpp"

namespace {

using namespace dynacut;
using core::CustomizeError;
using core::DynaCut;
using core::FaultPlan;
using core::FaultStage;
using core::FeatureSpec;
using core::RemovalPolicy;
using core::TrapPolicy;

std::shared_ptr<const melf::Binary> group_guest() {
  static std::shared_ptr<const melf::Binary> bin = [] {
    namespace sys = os::sys;
    melf::ProgramBuilder b("grp");
    auto& f = b.func("feat");
    for (size_t i = 0; i < 2 * kPageSize + 128; ++i) f.nop();
    f.mov_ri(0, 7).ret();
    f.label("err").mark("feat_err").mov_ri(0, 1).ret();
    auto& m = b.func("main");
    m.sys(sys::kFork);
    m.label("spin").mov_ri(1, 500).sys(sys::kNanosleep).jmp("spin");
    b.set_entry("main");
    return std::make_shared<melf::Binary>(b.link());
  }();
  return bin;
}

FeatureSpec matrix_spec() {
  auto bin = group_guest();
  FeatureSpec s;
  s.name = "feat";
  s.blocks = {analysis::CovBlock{"grp", bin->find_symbol("feat")->value,
                                 static_cast<uint32_t>(2 * kPageSize)}};
  s.redirect_module = "grp";
  s.redirect_offset = bin->find_symbol("feat_err")->value;
  return s;
}

/// Byte-level process fingerprint: page contents + VMAs + sigactions.
std::string fingerprint(const os::Process& p) {
  std::string out;
  for (uint64_t page : p.mem.populated_pages()) {
    auto bytes = p.mem.page_bytes(page);
    out.append(reinterpret_cast<const char*>(&page), sizeof(page));
    out.append(bytes.begin(), bytes.end());
  }
  for (const auto& [start, v] : p.mem.vmas()) {
    out += v.name + ":" + std::to_string(v.start) + "-" +
           std::to_string(v.end) + "/" + std::to_string(v.prot) + ";";
  }
  for (const auto& sa : p.sigactions) {
    out += std::to_string(sa.handler) + ",";
  }
  return out;
}

struct Combo {
  RemovalPolicy removal;
  TrapPolicy trap;
  const char* name;
};

constexpr Combo kCombos[] = {
    {RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate, "int3+term"},
    {RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect, "int3+redir"},
    {RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify, "int3+verify"},
    {RemovalPolicy::kWipeBlocks, TrapPolicy::kTerminate, "wipe+term"},
    {RemovalPolicy::kWipeBlocks, TrapPolicy::kRedirect, "wipe+redir"},
    {RemovalPolicy::kUnmapPages, TrapPolicy::kTerminate, "unmap+term"},
    {RemovalPolicy::kUnmapPages, TrapPolicy::kRedirect, "unmap+redir"},
};

/// Runs the (removal, trap) scenario: counts fault points, then (in full
/// mode) aborts at every one of them and checks rollback + clean retry.
void run_combo(bench::Report& report, const Combo& combo, bool all_faults) {
  const FeatureSpec spec = matrix_spec();

  std::array<size_t, kNumFaultStages> totals{};
  {
    os::Os vos;
    int pid = vos.spawn(group_guest());
    vos.run(3000);
    DynaCut dc(vos, pid, {}, core::CheckMode::kOff);
    FaultPlan counter;
    dc.set_fault_plan(&counter);
    dc.disable_feature({spec, combo.removal, combo.trap});
    for (size_t s = 0; s < kNumFaultStages; ++s) {
      totals[s] = counter.count(static_cast<FaultStage>(s));
    }
  }

  size_t points = 0, aborted = 0, rolled_back = 0, retried = 0;
  for (size_t si = 0; si < kNumFaultStages; ++si) {
    const auto fstage = static_cast<FaultStage>(si);
    size_t n = all_faults ? totals[si] : (totals[si] > 0 ? 1 : 0);
    for (size_t i = 0; i < n; ++i, ++points) {
      os::Os vos;
      int pid = vos.spawn(group_guest());
      vos.run(3000);
      std::vector<int> group = vos.process_group(pid);
      std::map<int, std::string> before;
      for (int p : group) before[p] = fingerprint(*vos.process(p));

      DynaCut dc(vos, pid, {}, core::CheckMode::kOff);
      FaultPlan plan = FaultPlan::fail_at(fstage, i);
      dc.set_fault_plan(&plan);
      std::string tag = std::string(combo.name) + " @" +
                        fault_stage_name(fstage) + "#" +
                        std::to_string(i);
      bool threw = false;
      try {
        dc.disable_feature({spec, combo.removal, combo.trap});
      } catch (const CustomizeError&) {
        threw = true;
        ++aborted;
      }
      report.gate(tag + ": aborts", threw,
                  "the injected fault must abort the customization");

      bool identical = !dc.feature_disabled(spec.name);
      for (int p : group) {
        identical = identical && fingerprint(*vos.process(p)) == before[p];
      }
      if (report.gate(tag + ": rolls back", identical,
                      "the group must roll back bit-identically")) {
        ++rolled_back;
      }

      dc.set_fault_plan(nullptr);
      std::string retry_error;
      try {
        dc.disable_feature({spec, combo.removal, combo.trap});
        ++retried;
      } catch (const Error& e) {
        retry_error = e.what();
      }
      report.gate(tag + ": clean retry",
                  retry_error.empty() && dc.feature_disabled(spec.name),
                  "a clean retry must succeed and be recorded" +
                      (retry_error.empty() ? "" : ": " + retry_error));
    }
  }
  std::printf("%-12s %8zu %8zu %12zu %8zu\n", combo.name, points, aborted,
              rolled_back, retried);
}

}  // namespace

int main(int argc, char** argv) {
  const bool all_faults = bench::flag(argc, argv, "--faults") == "all";
  bench::Report report;

  bench::banner(all_faults
                    ? "txn smoke: full fault-injection matrix"
                    : "txn smoke: one fault per stage (use --faults=all)");
  std::printf("%-12s %8s %8s %12s %8s\n", "combo", "faults", "aborted",
              "rolled_back", "retried");
  for (const auto& combo : kCombos) run_combo(report, combo, all_faults);

  if (report.failures() == 0) {
    std::printf("\nAll injected faults rolled back bit-identically; every "
                "clean retry succeeded.\n");
  }
  return report.finish();
}
