// Host-time spans around the benchmark's calls into the repository's layers.
//
// The traced run opens one span per call into a public layer function
// (Os::run_ticks, HostConn I/O, DynaCut preflight/disable/restore,
// image::checkpoint/spawn_from_image, the standalone analysis calls). Each
// span has a name, start, end, parent and a group id shared by the spans of
// one request or one walk step. Self time — a span's duration minus the part
// its children cover — is accumulated per name as spans close; the records
// themselves are kept in memory (up to a cap) and written out as Chrome
// trace-event JSON when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names. The prefix before the first '.' is the layer.
enum class SpanName : uint8_t {
  kOsRun,        ///< os: Os::run_ticks / Os::run
  kOsSock,       ///< os: Os::connect and HostConn send/recv_line/close
  kPreflight,    ///< analysis: DynaCut::preflight
  kCfg,          ///< analysis: standalone recover_cfg
  kSliceModel,   ///< analysis: standalone slicer::analyze
  kGadgetScan,   ///< analysis: standalone scan_gadgets
  kApply,        ///< core: disable_feature / restore_feature (+ preflight)
  kCheckpoint,   ///< image: image::checkpoint
  kSpawn,        ///< image: image::spawn_from_image
  kCount,
};

const char* span_name(SpanName n);

class Spans {
 public:
  using Clock = int64_t (*)();
  static int64_t steady_ns();

  explicit Spans(Clock clock = &steady_ns, size_t keep = 2'000'000);

  void begin(SpanName name, uint64_t group);
  /// Closes the innermost open span.
  void end();

  struct Total {
    uint64_t calls = 0;
    int64_t total_ns = 0;  ///< summed durations
    int64_t self_ns = 0;   ///< summed durations minus child coverage
  };
  const Total& total(SpanName n) const {
    return totals_[static_cast<size_t>(n)];
  }
  /// Per-call durations and self times, in call order — kept for the names
  /// whose percentiles are reported (preflight, apply, checkpoint, spawn).
  const std::vector<int64_t>& durations(SpanName n) const {
    return durations_[static_cast<size_t>(n)];
  }
  const std::vector<int64_t>& self_times(SpanName n) const {
    return selfs_[static_cast<size_t>(n)];
  }
  /// Summed durations of spans with no parent: host time inside any layer.
  int64_t root_ns() const { return root_ns_; }
  uint64_t recorded() const { return records_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Writes the kept records as Chrome trace-event JSON ("X" events; the
  /// group id and parent index ride in args). Returns false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    int64_t start = 0;
    int64_t end = 0;
    uint64_t group = 0;
    int32_t parent = -1;  ///< index into records_, -1 for a root
    SpanName name = SpanName::kOsRun;
  };
  struct Open {
    SpanName name;
    int64_t start;
    int64_t child_ns;
    int32_t record;  ///< index into records_, -1 once past the cap
  };

  Clock clock_;
  size_t keep_;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  std::array<Total, static_cast<size_t>(SpanName::kCount)> totals_{};
  std::array<std::vector<int64_t>, static_cast<size_t>(SpanName::kCount)>
      durations_;
  std::array<std::vector<int64_t>, static_cast<size_t>(SpanName::kCount)>
      selfs_;
  int64_t root_ns_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op when `spans` is null (the untraced run).
class Scope {
 public:
  Scope(Spans* spans, SpanName name, uint64_t group = 0) : spans_(spans) {
    if (spans_ != nullptr) spans_->begin(name, group);
  }
  ~Scope() {
    if (spans_ != nullptr) spans_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
};

}  // namespace perfbench
