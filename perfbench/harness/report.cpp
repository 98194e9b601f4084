#include "harness/report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr ClockKind H = ClockKind::kHost;
constexpr ClockKind V = ClockKind::kVirtual;
constexpr ClockKind N = ClockKind::kCount;

std::string fmt(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) throw std::runtime_error("unprintable value");
  return std::string(buf, end);
}

const char* clock_name(ClockKind c) {
  switch (c) {
    case ClockKind::kHost: return "host";
    case ClockKind::kVirtual: return "virtual";
    case ClockKind::kCount: return "count";
  }
  return "?";
}

}  // namespace

std::optional<uint64_t> parse_seed(const std::string& s) {
  if (s.empty()) return std::nullopt;
  uint64_t v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string* err) {
  Args a;
  bool have_workload = false;
  for (size_t i = 0; i < argv.size(); ++i) {
    std::string key = argv[i], val;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argv.size()) {
      val = argv[++i];
    } else {
      *err = "missing value for " + key;
      return std::nullopt;
    }
    if (key == "--workload") {
      a.workload = val;
      have_workload = !val.empty();
    } else if (key == "--seed") {
      auto s = parse_seed(val);
      if (!s) {
        *err = "bad --seed '" + val + "'";
        return std::nullopt;
      }
      a.seed = *s;
    } else if (key == "--seconds") {
      auto s = parse_seed(val);
      if (!s || *s < 1 || *s > 600) {
        *err = "bad --seconds '" + val + "' (1..600)";
        return std::nullopt;
      }
      a.seconds = static_cast<int>(*s);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        *err = "bad --trace '" + val + "' (0 or 1)";
        return std::nullopt;
      }
      a.trace = val == "1";
    } else {
      *err = "unknown argument " + key;
      return std::nullopt;
    }
  }
  if (!have_workload) {
    *err = "--workload is required";
    return std::nullopt;
  }
  return a;
}

const std::vector<MetricDef>& catalog() {
  static const std::vector<MetricDef> kAll = {
      // End-to-end (untraced run).
      {"setup_s", "s", H, true},
      {"host_req_per_s", "req/s", H, true},
      {"guest_mips", "Minstr/s", H, true},
      {"vreq_per_vms", "req/ms", V, true},
      {"latency_p50_vticks", "ticks", V, true},
      {"latency_p99_vticks", "ticks", V, true},
      {"apply_host_ms_p50", "ms", H, true},
      {"apply_host_ms_p99", "ms", H, true},
      {"freeze_vms_p50", "vms", V, true},
      {"freeze_vms_p99", "vms", V, true},
      {"spawn_host_us_p50", "us", H, true},
      {"spawn_host_us_p99", "us", H, true},
      {"resident_kb_per_worker", "KB", V, true},
      // vm
      {"vm.instrs", "count", N, false},
      {"vm.host_ns_per_instr", "ns", H, false},
      {"vm.sb_instr_share", "fraction", N, false},
      {"vm.sb_entries", "count", N, false},
      {"vm.instrs_per_sb_entry", "count", N, false},
      {"vm.sb_builds", "count", N, false},
      {"vm.sb_retires", "count", N, false},
      {"vm.sb_deopts", "count", N, false},
      {"vm.dcache_hit_ratio", "fraction", N, false},
      {"vm.dcache_invalidations", "count", N, false},
      // os
      {"os.run_host_ms", "ms", H, false},
      {"os.retired_per_vtick_mean", "instr/tick", V, false},
      {"os.retired_per_vtick_min", "instr/tick", V, false},
      {"os.steals", "count", N, false},
      {"os.sigtraps", "count", N, false},
      {"os.sock_host_ms", "ms", H, false},
      {"os.sock_bytes_tx", "bytes", N, false},
      {"os.sock_bytes_rx", "bytes", N, false},
      // analysis
      {"analysis.preflight_host_ms_p50", "ms", H, false},
      {"analysis.preflight_host_ms_p99", "ms", H, false},
      {"analysis.cfg_host_ms", "ms", H, false},
      {"analysis.slice_model_host_ms", "ms", H, false},
      {"analysis.gadget_scan_host_ms", "ms", H, false},
      {"analysis.analysis_vms", "vms", V, false},
      {"analysis.findings", "count", N, false},
      // core
      {"core.apply_rest_host_ms_p50", "ms", H, false},
      {"core.checkpoint_vms", "vms", V, false},
      {"core.code_update_vms", "vms", V, false},
      {"core.inject_vms", "vms", V, false},
      {"core.restore_vms", "vms", V, false},
      {"core.processes_customized", "count", N, false},
      // rewriter
      {"rewriter.blocks_patched", "count", N, false},
      {"rewriter.bytes_patched", "bytes", N, false},
      {"rewriter.pages_touched", "count", N, false},
      {"rewriter.callsites_stubbed", "count", N, false},
      {"rewriter.got_slots_stubbed", "count", N, false},
      // image
      {"image.pages_dumped", "count", N, false},
      {"image.pages_shared", "count", N, false},
      {"image.pages_restored", "count", N, false},
      {"image.store_bytes", "bytes", N, false},
      {"image.checkpoint_host_us_p50", "us", H, false},
      {"image.blockstore_lookups", "count", N, false},
      {"image.blockstore_dedup_hits", "count", N, false},
      {"image.dedup_ratio", "fraction", N, false},
      {"image.resident_mb_peak", "MB", V, false},
      // obs
      {"obs.events", "count", N, false},
      {"obs.events.trap_hit", "count", N, false},
      {"obs.events.stub_hit", "count", N, false},
      {"obs.events.txn", "count", N, false},
      {"obs.events.sb", "count", N, false},
      {"obs.events.checkpoint", "count", N, false},
      {"obs.trap_hit_share", "fraction", N, false},
      // the benchmark itself
      {"driver.host_ms", "ms", H, false},
      {"trace.overhead_frac", "fraction", H, false},
  };
  return kAll;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto& m : catalog()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Results& results, bool per_layer) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& m : catalog()) {
    if (m.end_to_end == per_layer) continue;
    auto it = results.find(m.name);
    if (it == results.end()) {
      throw std::runtime_error(std::string("metric not measured: ") + m.name);
    }
    if (!std::isfinite(it->second.v)) {
      throw std::runtime_error(std::string("metric not finite: ") + m.name);
    }
    out += (first ? "\"" : ", \"") + std::string(m.name) +
           "\": {\"value\": " + fmt(it->second.v) + ", \"unit\": \"" + m.unit +
           "\"}";
    first = false;
  }
  return out + "}}";
}

std::string result_table(const Results& results, bool per_layer) {
  std::string out;
  char line[256];
  for (const auto& m : catalog()) {
    if (m.end_to_end == per_layer) continue;
    auto it = results.find(m.name);
    if (it == results.end()) continue;
    const std::string n = it->second.n == 0 ? "" : "n=" + std::to_string(it->second.n);
    std::snprintf(line, sizeof(line), "  %-32s %16.6g %-10s %-8s %s\n", m.name,
                  it->second.v, m.unit, clock_name(m.clock), n.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
