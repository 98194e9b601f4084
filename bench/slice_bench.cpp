// Slicer smoke + gate bench.
//
// Part 1 (static sweep): runs the interprocedural slicer and the full
// cutcheck rule set (CC001-CC012, uncut plan) over every src/apps guest.
// Hard requirements: every indirect transfer resolves (PLT stub, jump
// table or exact offset) and an uncut binary produces zero
// CC007-indirect-escape findings — the rule's false-positive bar.
//
// Part 2 (expansion gate): profiles the minikv SET command and the miniweb
// WebDAV writes the way the figure benches do (tracediff of an exercising
// run against a baseline run), plans a coverage-only cut, expands it to the
// static feature slice, and gates on the slice-closed plan removing >= 20%
// more blocks than observed coverage alone while both plans verify clean
// (no cutcheck errors).
//
// Writes BENCH_slice.json (or --out=PATH) with per-guest resolution stats,
// rule-check wall times, and the per-app observed/slice block counts.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "analysis/slicer/slicer.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "apps/specgen.hpp"
#include "bench_common.hpp"

namespace {

using namespace dynacut;
namespace cutcheck = analysis::cutcheck;
namespace slicer = analysis::slicer;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepRow {
  std::string name;
  size_t blocks = 0;
  size_t sites = 0;
  size_t plt = 0, table = 0, direct = 0, unresolved = 0;
  double analyze_ms = 0;
  double check_ms = 0;
  size_t cc007 = 0;
};

SweepRow sweep(std::shared_ptr<const melf::Binary> bin) {
  SweepRow row;
  row.name = bin->name;
  auto t0 = std::chrono::steady_clock::now();
  slicer::SliceModel m = slicer::analyze(*bin);
  row.analyze_ms = ms_since(t0);
  row.blocks = m.cfg.block_count();
  row.sites = m.indirect.size();
  for (const auto& s : m.indirect) {
    switch (s.kind) {
      case slicer::IndirectSite::Kind::kPltImport: ++row.plt; break;
      case slicer::IndirectSite::Kind::kTable: ++row.table; break;
      case slicer::IndirectSite::Kind::kDirect: ++row.direct; break;
      case slicer::IndirectSite::Kind::kUnresolved: ++row.unresolved; break;
    }
  }
  // Full rule set over the uncut binary: must stay silent on CC007.
  cutcheck::CutPlan plan;
  plan.feature = "uncut";
  plan.module = bin->name;
  plan.binary = bin;
  t0 = std::chrono::steady_clock::now();
  cutcheck::CheckReport r = cutcheck::check_plan(plan);
  row.check_ms = ms_since(t0);
  row.cc007 = r.by_rule(cutcheck::kRuleIndirect).size();
  return row;
}

struct GateRow {
  std::string name;
  size_t observed = 0;       ///< coverage-only plan blocks
  size_t slice = 0;          ///< slice-closed plan blocks
  double growth = 0;         ///< slice / observed
  bool observed_clean = false;
  bool slice_clean = false;
  double check_ms = 0;       ///< rule-check wall time, slice-closed plan
};

GateRow gate(const std::string& name,
             std::shared_ptr<const melf::Binary> bin, uint16_t port,
             const std::string& module,
             const std::vector<std::string>& undesired_reqs,
             const std::vector<std::string>& wanted_reqs) {
  const std::vector<analysis::CovBlock> observed =
      bench::discover_feature("unwanted", bin, port, module, undesired_reqs,
                              wanted_reqs)
          .blocks;

  cutcheck::CutPlan plan;
  plan.feature = "unwanted";
  plan.module = module;
  plan.binary = bin;
  plan.blocks = observed;

  GateRow row;
  row.name = name;
  row.observed = observed.size();
  row.observed_clean = cutcheck::check_plan(plan).ok();

  slicer::expand_plan(plan);
  row.slice = plan.blocks.size();
  row.growth = row.observed == 0
                   ? 0.0
                   : static_cast<double>(row.slice) /
                         static_cast<double>(row.observed);
  auto t0 = std::chrono::steady_clock::now();
  cutcheck::CheckReport r = cutcheck::check_plan(plan);
  row.check_ms = ms_since(t0);
  row.slice_clean = r.ok();
  if (!row.slice_clean) std::printf("%s", r.format().c_str());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("slice", argc, argv);
  const bench::Clock host = bench::Clock::kHost;

  bench::banner(
      "Slicer sweep (indirect resolution + CC001-CC012 over every guest)\n"
      "and the slice-closed vs coverage-only expansion gate");

  std::vector<std::shared_ptr<const melf::Binary>> guests = {
      apps::build_minikv(), apps::build_miniweb(), apps::build_minihttpd(),
      apps::build_kvbench(), apps::build_libc()};
  for (const auto& sb : apps::spec_suite()) guests.push_back(apps::build_spec(sb));

  std::printf("\n%-16s %8s %6s %5s %6s %7s %7s %11s %9s\n", "guest", "blocks",
              "sites", "plt", "table", "direct", "unres", "analyze_ms",
              "check_ms");
  std::vector<SweepRow> rows;
  for (const auto& bin : guests) {
    SweepRow row = sweep(bin);
    std::printf("%-16s %8zu %6zu %5zu %6zu %7zu %7zu %11.2f %9.2f\n",
                row.name.c_str(), row.blocks, row.sites, row.plt, row.table,
                row.direct, row.unresolved, row.analyze_ms, row.check_ms);
    const std::string key = "guests." + row.name + ".";
    report.value(key + "blocks", row.blocks);
    report.value(key + "indirect_sites", row.sites);
    report.value(key + "plt", row.plt);
    report.value(key + "table", row.table);
    report.value(key + "direct", row.direct);
    report.value(key + "unresolved", row.unresolved);
    report.value(key + "analyze_ms", row.analyze_ms, host);
    report.value(key + "rule_check_ms", row.check_ms, host);
    report.value(key + "cc007_uncut", row.cc007);
    rows.push_back(row);
  }
  for (const auto& row : rows) {
    report.gate(row.name + ".indirect_resolved", row.unresolved == 0,
                "every indirect site must resolve");
    report.gate(row.name + ".no_cc007_uncut", row.cc007 == 0,
                "an uncut binary must give no CC007 finding");
  }

  std::printf("\n");
  std::vector<GateRow> gates;
  gates.push_back(gate("minikv-SET", apps::build_minikv(), apps::kMinikvPort,
                       "minikv", {"SET k v\n", "GET k\n", "PING\n"},
                       {"GET k\n", "PING\n", "DEL k\n"}));
  gates.push_back(gate("miniweb-DAV", apps::build_miniweb(),
                       apps::kMiniwebPort, "miniweb",
                       {"GET /index\n", "PUT /a x\n", "DELETE /a\n"},
                       {"GET /index\n", "HEAD /index\n"}));

  std::printf("%-14s %9s %7s %8s %10s %9s\n", "feature", "observed", "slice",
              "growth", "check_ms", "clean");
  for (const auto& g : gates) {
    std::printf("%-14s %9zu %7zu %7.2fx %10.2f %9s\n", g.name.c_str(),
                g.observed, g.slice, g.growth, g.check_ms,
                g.slice_clean ? "yes" : "NO");
    const std::string key = "expansion." + g.name + ".";
    report.value(key + "observed_blocks", g.observed);
    report.value(key + "slice_blocks", g.slice);
    report.value(key + "growth", g.growth);
    report.value(key + "rule_check_ms", g.check_ms, host);
    report.value(key + "clean", g.slice_clean);
  }
  for (const auto& g : gates) {
    report.gate(g.name + ".observed_clean", g.observed_clean,
                "the coverage-only plan must verify clean");
    report.gate(g.name + ".slice_clean", g.slice_clean,
                "the slice-closed plan must verify clean");
    report.gate(g.name + ".slice_growth_20pct", g.growth >= 1.2,
                "the slice must remove >= 20% more blocks than coverage alone");
  }
  return report.finish();
}
