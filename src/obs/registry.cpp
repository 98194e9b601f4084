#include "obs/registry.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace dynacut::obs {

void Histogram::observe(uint64_t v) {
  if (count == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  ++buckets[std::bit_width(v)];
}

std::string Histogram::json() const {
  // Sequential appends: `"literal" + <rvalue string>` trips a GCC 12
  // -Wrestrict false positive under -O2.
  std::string out = "{\"count\":";
  out += std::to_string(count);
  out += ",\"sum\":";
  out += std::to_string(sum);
  out += ",\"min\":";
  out += std::to_string(min);
  out += ",\"max\":";
  out += std::to_string(max);
  out += ",\"buckets\":{";
  bool first = true;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += std::to_string(i);
    out += "\":";
    out += std::to_string(buckets[i]);
  }
  out += "}}";
  return out;
}

uint64_t Registry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string Registry::snapshot_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(name);
    out += "\":";
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) out += ",";
    first = false;
    char buf[40];
    // JSON has no inf/nan literals; clamp to 0 rather than emit garbage.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += "\"";
    out += json_escape(name);
    out += "\":";
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(name);
    out += "\":";
    out += h.json();
  }
  out += "}}";
  return out;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace dynacut::obs
