// The benchmark's phases and workloads.
//
// A phase owns one osim machine (4 virtual cores, an obs::EventBus and
// obs::Registry attached) and runs units of measured work on it:
//   ServePhase — a serving fleet under closed-loop clients; a unit is one
//                poll interval.
//   WalkPhase  — disable_feature / restore_feature walked across servers
//                with short serving intervals and denial probes; a unit is
//                one step (a disable and its restore).
//   ScalePhase — batches of workers forked from a customized template image
//                (spawn, seeded script, checkpoint, kill); a unit is one
//                batch.
//
// A workload is one primary phase (its namesake) plus companion phases, so
// that every end-to-end metric is measured on every workload: serve_mix
// runs a small walk and a small scale-out beside its fleet, toggle_walk a
// small scale-out, scale_out a small walk. Each phase has its own machine,
// so phases never perturb each other's virtual clocks.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dynacut.hpp"
#include "harness/driver.hpp"
#include "harness/spans.hpp"
#include "obs/bus.hpp"
#include "obs/registry.hpp"
#include "os/os.hpp"

namespace perfbench {

/// Counters read from the layers' public stats; window deltas come from
/// subtracting two snapshots.
struct LayerCounts {
  uint64_t retired = 0, sb_instrs = 0, sb_entries = 0, sb_builds = 0,
           sb_retires = 0, sb_deopts = 0;
  uint64_t dc_hits = 0, dc_misses = 0, dc_invalidations = 0;
  uint64_t steals = 0, sigtraps = 0;
  /// Per core: (instructions retired, virtual clock).
  std::vector<std::pair<uint64_t, uint64_t>> cores;
  std::map<std::string, uint64_t> events;  ///< obs events by type

  LayerCounts minus(const LayerCounts& start) const;
  /// Sums counters; concatenates the per-core rows.
  void add(const LayerCounts& o);
};

/// Control-plane work a phase did in its window.
struct Work {
  dynacut::core::TimingBreakdown timing;
  dynacut::core::EditStats edits;
  uint64_t findings = 0;          ///< cutcheck findings (traced preflight)
  uint64_t ckpt_pages_dumped = 0;  ///< direct image::checkpoint calls
  uint64_t ckpt_pages_shared = 0;
  std::vector<double> checkpoint_us;  ///< host µs per direct checkpoint
  uint64_t resident_peak = 0;         ///< machine resident bytes, max seen
  uint64_t store_bytes = 0;  ///< image-store bytes held when the window ends

  /// Sums another phase's work into this one (resident_peak: the max).
  void add(const Work& o);
};

class Phase {
 public:
  enum class Kind { kServe, kWalk, kScale };

  virtual ~Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  Kind kind() const { return kind_; }
  dynacut::os::Os& os() { return *os_; }

  /// Turns span recording on (non-null) or off for every call this phase
  /// makes into a layer.
  void set_spans(Spans* s) {
    spans_ = s;
    fleet_.set_spans(s);
  }

  /// Runs one unit and charges its guest instructions, virtual time and
  /// host time to `obs`.
  void step();
  /// One unit of measured work.
  virtual void unit() = 0;
  /// Runs after the window: lets in-flight work finish and checks it.
  virtual void finish() {}
  /// One standalone recover_cfg, slicer::analyze and scan_gadgets per
  /// distinct binary this phase customizes (traced runs only).
  virtual void standalone_analysis() {}
  /// Machine-wide counters now, including processes killed in the window.
  LayerCounts counts() const;

  /// Units measured in a run of `seconds`.
  size_t units_for(int seconds) const {
    return std::max(min_units, static_cast<size_t>(units_per_second * seconds));
  }

  Obs obs;
  Work work;
  size_t min_units = 0;  ///< enough samples for every p99 the phase feeds
  double units_per_second = 0;  ///< 0: a companion, always min_units
  /// The same-seed replay compares the observations after these units; at
  /// most a tenth of min_units (the replay runs the first of ten rounds).
  size_t guard_units = 0;

 protected:
  Phase(Kind kind, uint64_t seed);
  /// Sets work.store_bytes and folds the machine's resident bytes (live
  /// address spaces plus `cuts`' image stores, shared blocks counted once)
  /// into work.resident_peak.
  void account_stores(
      const std::vector<std::unique_ptr<dynacut::core::DynaCut>>& cuts);
  class CountSink : public dynacut::obs::Sink {
   public:
    void on_event(const dynacut::obs::Event& e) override { ++counts[e.type]; }
    std::map<std::string, uint64_t> counts;
  };

  Kind kind_;
  uint64_t seed_;
  CountSink sink_;
  dynacut::obs::EventBus bus_;
  dynacut::obs::Registry registry_;
  std::unique_ptr<dynacut::os::Os> os_;
  Fleet fleet_;
  Spans* spans_ = nullptr;
  /// Counters of machines a phase discarded (scale-out batches).
  LayerCounts dead_;
};

struct WalkConfig {
  int kv_servers = 8;
  uint32_t kv_heap_kb = 4000;
  bool web = true;  ///< add miniweb (process group) and minihttpd
  bool paper_costs = true;  ///< default CostModel; else scaled for 64 KB
};

std::unique_ptr<Phase> make_serve(uint64_t seed);
std::unique_ptr<Phase> make_walk(uint64_t seed, const WalkConfig& cfg,
                                 double units_per_second);
std::unique_ptr<Phase> make_scale(uint64_t seed, double units_per_second);

/// One workload: its phases, the primary one last.
struct Workload {
  std::string name;
  std::string why;
  /// Builds and sets up every phase (the timed set-up).
  std::vector<std::unique_ptr<Phase>> (*setup)(uint64_t seed);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
