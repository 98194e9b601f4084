// Command line, metric catalog and the result line.
//
// The catalog is the single list of metric names and units; BENCHMARK.json
// must name the same end-to-end and per-layer metrics (a perfbench test
// checks it). The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced run) or every per-layer metric
// (traced run), each as {"value": v, "unit": u}.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Parses `--workload NAME --seed N --seconds S --trace 0|1` (each also as
/// `--flag=value`). Returns nullopt and sets `err` on any malformed or
/// missing argument.
std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string* err);

/// Parses an unsigned decimal seed; rejects signs, blanks and overflow.
std::optional<uint64_t> parse_seed(const std::string& s);

enum class ClockKind { kHost, kVirtual, kCount };

struct MetricDef {
  const char* name;
  const char* unit;
  ClockKind clock;
  bool end_to_end;
};

const std::vector<MetricDef>& catalog();
const MetricDef* find_metric(const std::string& name);

/// One measured value and the number of samples behind it (0 when the
/// value is a total or a ratio rather than a sample statistic).
struct Value {
  double v = 0;
  size_t n = 0;
};
using Results = std::map<std::string, Value>;

/// The result line. Throws std::runtime_error if a catalog metric of the
/// requested kind is missing or not finite.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Results& results, bool per_layer);

/// Human-readable table of the requested metrics: name, value, unit,
/// clock and sample count.
std::string result_table(const Results& results, bool per_layer);

}  // namespace perfbench
