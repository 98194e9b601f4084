#include <chrono>
#include <cstdio>

#include "harness/spans.hpp"

namespace perfbench {

namespace {

/// Names whose per-call durations feed percentiles; the rest keep totals.
bool per_call(SpanName n) {
  return n == SpanName::kPreflight || n == SpanName::kApply ||
         n == SpanName::kCheckpoint || n == SpanName::kSpawn;
}

}  // namespace

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kOsRun: return "os.run";
    case SpanName::kOsSock: return "os.sock";
    case SpanName::kPreflight: return "analysis.preflight";
    case SpanName::kCfg: return "analysis.cfg";
    case SpanName::kSliceModel: return "analysis.slice_model";
    case SpanName::kGadgetScan: return "analysis.gadget_scan";
    case SpanName::kApply: return "core.apply";
    case SpanName::kCheckpoint: return "image.checkpoint";
    case SpanName::kSpawn: return "image.spawn";
    case SpanName::kCount: break;
  }
  return "?";
}

int64_t Spans::steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Spans::Spans(Clock clock, size_t keep) : clock_(clock), keep_(keep) {}

void Spans::begin(SpanName name, uint64_t group) {
  int32_t rec = -1;
  const int64_t now = clock_();
  if (records_.size() < keep_) {
    rec = static_cast<int32_t>(records_.size());
    Record r;
    r.start = now;
    r.group = group;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.name = name;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, now, 0, rec});
}

void Spans::end() {
  const int64_t now = clock_();
  const Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - o.start;
  const int64_t self = dur - o.child_ns;
  Total& t = totals_[static_cast<size_t>(o.name)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += self;
  if (per_call(o.name)) {
    durations_[static_cast<size_t>(o.name)].push_back(dur);
    selfs_[static_cast<size_t>(o.name)].push_back(self);
  }
  if (o.record >= 0) records_[static_cast<size_t>(o.record)].end = now;
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

bool Spans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = records_.empty() ? 0 : records_.front().start;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Chrome trace timestamps are microseconds (fractions allowed).
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"group\":%llu}}\n",
                 i == 0 ? "" : ",", span_name(r.name),
                 static_cast<double>(r.start - t0) / 1e3,
                 static_cast<double>(r.end - r.start) / 1e3, i, r.parent,
                 static_cast<unsigned long long>(r.group));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
