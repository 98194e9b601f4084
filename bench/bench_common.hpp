// The bench harness: phase-split profiling runs (the drcov + nudge
// workflow of paper §3.1) and the feature discovery built on them,
// bounded OS driving, table formatting, and the Report through which
// every gating bench records its values and gates and writes its
// BENCH_<name>.json summary.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "isa/isa.hpp"
#include "obs/json.hpp"
#include "os/os.hpp"
#include "trace/trace.hpp"

namespace dynacut::bench {

/// The value of `--name=VALUE` in argv, "" for a bare `--name`, nullopt
/// when the flag is absent.
inline std::optional<std::string> flag(int argc, char** argv,
                                       std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == name) return std::string();
    if (a.size() > name.size() && a.starts_with(name) &&
        a[name.size()] == '=') {
      return std::string(a.substr(name.size() + 1));
    }
  }
  return std::nullopt;
}

/// The clock a value was measured on. Virtual values (virtual time,
/// counts, pages, digests) are deterministic and are checked against the
/// committed summary; host (wall-clock) values are informational only.
enum class Clock { kVirtual, kHost };

/// One bench's results: each value with its clock and each gate with its
/// verdict. finish() writes them, when the report has a file, as
///   {"bench": name,
///    "values": {key: {"value": v, "clock": "virtual" | "host"}},
///    "gates": [{"name": n, "ok": b, "detail": d}],
///    "gate_failures": count}
/// with the keys sorted and doubles printed so that they round-trip.
class Report {
 public:
  /// A report that writes no file.
  Report() = default;
  /// A report written to --out=PATH, by default BENCH_<name>.json.
  Report(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        out_(flag(argc, argv, "--out").value_or("BENCH_" + name_ + ".json")) {}

  /// Records a bool, integer, floating-point or string value.
  template <typename T>
  void value(const std::string& key, const T& v,
             Clock clock = Clock::kVirtual) {
    values_[key] = {to_json(v), clock};
  }
  /// Records `json`, one JSON document, as the value at `key`.
  void raw(const std::string& key, std::string json) {
    values_[key] = {std::move(json), Clock::kVirtual};
  }

  /// Records gate `name`; prints a FAIL line with `detail` when it does
  /// not hold. Returns `ok`.
  bool gate(const std::string& name, bool ok, const std::string& detail = {}) {
    gates_.push_back({name, ok, detail});
    if (!ok) {
      ++failures_;
      std::printf("FAIL: %s%s%s\n", name.c_str(), detail.empty() ? "" : ": ",
                  detail.c_str());
    }
    return ok;
  }
  size_t failures() const { return failures_; }
  /// The summary's path ("" when the report writes no file).
  const std::string& path() const { return out_; }

  /// Writes the summary (if the report has a file) and returns the exit
  /// code: 0 iff every gate held and the summary was written.
  int finish() {
    if (out_.empty()) {
      if (failures_ != 0) std::printf("\n%zu gate(s) FAILED\n", failures_);
      return failures_ == 0 ? 0 : 1;
    }
    std::string doc =
        "{\n  \"bench\": " + to_json(name_) + ",\n  \"values\": {";
    const char* sep = "\n";
    for (const auto& [key, v] : values_) {
      doc += sep + ("    " + to_json(key)) + ": {\"value\": " + v.json +
             ", \"clock\": " +
             (v.clock == Clock::kHost ? "\"host\"" : "\"virtual\"") + "}";
      sep = ",\n";
    }
    doc += "\n  },\n  \"gates\": [";
    sep = "\n";
    for (const Gate& g : gates_) {
      doc += sep + ("    {\"name\": " + to_json(g.name)) +
             ", \"ok\": " + to_json(g.ok) + ", \"detail\": " +
             to_json(g.detail) + "}";
      sep = ",\n";
    }
    doc += "\n  ],\n  \"gate_failures\": " + to_json(failures_) + "\n}\n";

    std::string why;
    if (!obs::json_valid(doc, &why)) {
      std::printf("FAIL: summary is not valid JSON (%s)\n", why.c_str());
      return 1;
    }
    std::ofstream out(out_);
    out << doc;
    out.close();
    if (!out) {
      std::printf("FAIL: cannot write %s\n", out_.c_str());
      return 1;
    }
    std::printf("\nWrote %s (gate_failures=%zu)\n", out_.c_str(), failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  struct Value {
    std::string json;
    Clock clock = Clock::kVirtual;
  };
  struct Gate {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  template <typename T>
  static std::string to_json(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
      return buf;  // a non-finite value fails the JSON check in finish()
    } else {
      std::string out(1, '"');
      out += obs::json_escape(v);
      return out += '"';
    }
  }

  std::string name_;
  std::string out_;
  std::map<std::string, Value> values_;
  std::vector<Gate> gates_;
  size_t failures_ = 0;
};

/// Runs `vos` until `done` holds or the budget is spent. Returns done().
template <typename Pred>
bool run_until(os::Os& vos, Pred done, int rounds = 300,
               uint64_t instr_per_round = 200'000) {
  for (int i = 0; i < rounds && !done(); ++i) vos.run(instr_per_round);
  return done();
}

/// Waits for a reply and drains it.
inline std::string request(os::Os& vos, os::HostConn& conn,
                           const std::string& line) {
  conn.send(line);
  run_until(vos, [&] { return conn.pending() > 0; });
  return conn.recv_all();
}

/// Phase-split coverage of one server run: boot (init phase, dumped at the
/// ready/nudge point), then serve `requests` (serving phase).
struct ServerPhases {
  std::shared_ptr<const melf::Binary> bin;
  trace::TraceLog init_log;
  trace::TraceLog serving_log;
  size_t image_pages = 0;  ///< populated pages at the post-init point

  analysis::CoverageGraph init_cov(const std::string& module) const {
    return analysis::CoverageGraph::from_log(init_log).only_module(module);
  }
  analysis::CoverageGraph serving_cov(const std::string& module) const {
    return analysis::CoverageGraph::from_log(serving_log).only_module(module);
  }
};

/// Boots `bin` in a fresh OS under the tracer, nudges at listener-ready,
/// replays `requests`, dumps the serving trace.
inline ServerPhases profile_server(std::shared_ptr<const melf::Binary> bin,
                                   uint16_t port,
                                   const std::vector<std::string>& requests) {
  ServerPhases out;
  out.bin = bin;
  os::Os vos;
  trace::Tracer tracer(vos);
  int pid = vos.spawn(bin, {apps::build_libc()});
  run_until(vos, [&] { return vos.has_listener(port); });
  out.image_pages = vos.process(pid)->mem.populated_pages().size();
  out.init_log = tracer.dump_and_reset(pid);  // the nudge
  auto conn = vos.connect(port);
  for (const auto& r : requests) request(vos, conn, r);
  // For multi-process servers the worker handles requests; merge worker
  // coverage into the serving log of the app module by re-dumping every
  // group member and keeping the busiest.
  trace::TraceLog best = tracer.dump(pid);
  for (int gp : vos.process_group(pid)) {
    trace::TraceLog log = tracer.dump(gp);
    if (log.blocks.size() > best.blocks.size()) best = std::move(log);
  }
  out.serving_log = std::move(best);
  return out;
}

/// Paper §3.1 feature discovery: profiles `bin` serving `undesired`
/// (requests that exercise the unwanted feature) and `wanted` (only wanted
/// features), and cuts the blocks of `module` that only the first run
/// covered. A blocked entry redirects to the `redirect` symbol if given.
inline core::FeatureSpec discover_feature(
    std::string name, std::shared_ptr<const melf::Binary> bin, uint16_t port,
    const std::string& module, const std::vector<std::string>& undesired,
    const std::vector<std::string>& wanted, const std::string& redirect = {}) {
  trace::TraceLog with = profile_server(bin, port, undesired).serving_log;
  trace::TraceLog without = profile_server(bin, port, wanted).serving_log;
  core::FeatureSpec spec;
  spec.name = std::move(name);
  spec.blocks = analysis::feature_diff({with}, {without}, module).blocks();
  if (!redirect.empty()) {
    spec.redirect_module = module;
    spec.redirect_offset = bin->find_symbol(redirect)->value;
  }
  return spec;
}

/// The calls in function `caller` to the entry of any function in
/// `callees`, by a linear sweep of `caller`: the dispatcher arms a stub
/// cut of those callees redirects.
inline std::vector<analysis::CovBlock> calls_into(
    const melf::Binary& bin, const std::string& module,
    const std::string& caller, const std::vector<std::string>& callees) {
  std::set<uint64_t> entries;
  for (const std::string& c : callees) {
    entries.insert(bin.find_symbol(c)->value);
  }
  const melf::Symbol* fn = bin.find_symbol(caller);
  const melf::Section* text = bin.section(melf::SectionKind::kText);
  std::vector<analysis::CovBlock> out;
  for (uint64_t off = fn->value; off < fn->value + fn->size;) {
    const size_t avail = std::min<size_t>(isa::kMaxInstrLength,
                                          text->offset + text->size - off);
    const auto ins = isa::try_decode(std::span<const uint8_t>(
        text->bytes.data() + (off - text->offset), avail));
    if (!ins) break;
    if (ins->op == isa::Op::kCall && entries.count(ins->target(off)) != 0) {
      out.push_back({module, off, ins->length});
    }
    off += ins->length;
  }
  return out;
}

/// A cut of whole handler functions: every static CFG block of each
/// function in `handlers` (the stub planner redirects callers only around
/// wholly cut functions, at CFG-block granularity), then each call in
/// `dispatcher` to one of them, which a stub cut retargets.
inline std::vector<analysis::CovBlock> handler_cut(
    const melf::Binary& bin, const std::string& module,
    const std::string& dispatcher, const std::vector<std::string>& handlers) {
  const analysis::StaticCfg cfg = analysis::recover_cfg(bin);
  std::vector<analysis::CovBlock> out;
  for (const std::string& h : handlers) {
    const melf::Symbol* sym = bin.find_symbol(h);
    for (const auto& [off, blk] : cfg.blocks) {
      if (off >= sym->value && off < sym->value + sym->size) {
        out.push_back({module, off, static_cast<uint32_t>(blk.size)});
      }
    }
  }
  const std::vector<analysis::CovBlock> calls =
      calls_into(bin, module, dispatcher, handlers);
  out.insert(out.end(), calls.begin(), calls.end());
  return out;
}

/// Phase-split coverage of one specgen benchmark (nudge syscall marks the
/// init/serving boundary).
inline ServerPhases profile_spec(std::shared_ptr<const melf::Binary> bin) {
  ServerPhases out;
  out.bin = bin;
  os::Os vos;
  trace::Tracer tracer(vos);
  int pid = vos.spawn(bin, {apps::build_libc()});
  // Dump-and-reset coverage at the exact nudge instant (the drcov nudge).
  vos.set_nudge_hook([&](const os::Process& p, uint64_t) {
    out.image_pages = p.mem.populated_pages().size();
    out.init_log = tracer.dump_and_reset(p.pid);
  });
  run_until(vos, [&] { return vos.all_exited(); }, 5000);
  out.serving_log = tracer.dump(pid);
  return out;
}

inline double mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}
inline double kb(uint64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

inline uint64_t text_bytes(const melf::Binary& bin) {
  uint64_t sum = 0;
  for (const auto& sec : bin.sections) {
    if (sec.kind == melf::SectionKind::kText ||
        sec.kind == melf::SectionKind::kPlt) {
      sum += sec.size;
    }
  }
  return sum;
}

inline void banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace dynacut::bench
