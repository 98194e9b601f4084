// The obs metrics registry (DESIGN.md §9): counters, gauges and
// virtual-time histograms, snapshot-able to deterministic JSON.
//
// Determinism is a feature: metric maps are ordered, histogram buckets are
// power-of-two, and nothing samples wall-clock time — two identical runs
// produce byte-identical snapshots, which the obs tests assert.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace dynacut::obs {

/// Power-of-two-bucket histogram over unsigned values (virtual-time
/// latencies, byte counts, page counts). Bucket i holds values whose
/// bit-width is i, i.e. [2^(i-1), 2^i) for i >= 1 and {0} for i = 0.
struct Histogram {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::array<uint64_t, 65> buckets{};

  void observe(uint64_t v);
  /// {"count":..,"sum":..,"min":..,"max":..,"buckets":{"<i>":n,...}} with
  /// only non-empty buckets listed.
  std::string json() const;
};

class Registry {
 public:
  /// Adds `v` to counter `name`, creating it at zero.
  void add(const std::string& name, uint64_t v = 1) { counters_[name] += v; }
  /// Counter value (0 if never charged).
  uint64_t counter(const std::string& name) const;

  void set_gauge(const std::string& name, double v) { gauges_[name] = v; }

  /// The histogram `name`, created empty on first use.
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const Histogram* find_histogram(const std::string& name) const;

  /// One JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with keys in lexicographic order — deterministic across identical runs.
  std::string snapshot_json() const;

  void clear();

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dynacut::obs
