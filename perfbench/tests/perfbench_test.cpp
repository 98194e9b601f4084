// perfbench's own tests: percentile and sample-count math, span self-time
// arithmetic, the reply models against the real servers, argument parsing,
// and the manifest (BENCHMARK.json) against the metric catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "os/os.hpp"

namespace perfbench {
namespace {

// --- percentiles ------------------------------------------------------------

std::vector<double> iota(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(iota(100), 50), 50);
  EXPECT_EQ(percentile(iota(100), 99), 99);
  EXPECT_EQ(percentile(iota(1000), 99), 990);
  EXPECT_EQ(percentile(iota(7), 0), 1);
  EXPECT_EQ(percentile(iota(7), 100), 7);
  EXPECT_EQ(percentile({42}, 99), 42);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondTheTail) {
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_EQ(min_samples_for(98), 500u);
  EXPECT_EQ(min_samples_for(99), 1000u);
  // With exactly 1000 samples, ten lie strictly above the p99 sample.
  const auto v = iota(1000);
  const double p99 = tail_percentile(v, 99, "x");
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }), 10);
  EXPECT_THROW(tail_percentile(iota(999), 99, "x"), std::runtime_error);
  EXPECT_NO_THROW(tail_percentile(iota(20), 50, "x"));
  EXPECT_THROW(tail_percentile(iota(19), 50, "x"), std::runtime_error);
}

// --- spans ------------------------------------------------------------------

int64_t g_now = 0;
int64_t fake_clock() { return g_now; }

TEST(Spans, SelfTimeSubtractsChildren) {
  Spans s(&fake_clock);
  g_now = 0;
  s.begin(SpanName::kApply, 7);  // [0, 100]
  g_now = 10;
  s.begin(SpanName::kPreflight, 7);  // [10, 30]
  g_now = 30;
  s.end();
  g_now = 40;
  s.begin(SpanName::kCheckpoint, 7);  // [40, 45], with a child [41, 44]
  g_now = 41;
  s.begin(SpanName::kOsRun, 7);
  g_now = 44;
  s.end();
  g_now = 45;
  s.end();
  g_now = 100;
  s.end();
  g_now = 120;
  s.begin(SpanName::kOsSock, 8);  // a second root, [120, 125]
  g_now = 125;
  s.end();

  EXPECT_EQ(s.total(SpanName::kApply).total_ns, 100);
  EXPECT_EQ(s.total(SpanName::kApply).self_ns, 100 - 20 - 5);
  EXPECT_EQ(s.total(SpanName::kPreflight).self_ns, 20);
  EXPECT_EQ(s.total(SpanName::kCheckpoint).total_ns, 5);
  EXPECT_EQ(s.total(SpanName::kCheckpoint).self_ns, 2);
  EXPECT_EQ(s.total(SpanName::kOsRun).self_ns, 3);
  EXPECT_EQ(s.root_ns(), 105);
  // Self times partition the root spans' time exactly.
  int64_t self = 0;
  for (int n = 0; n < static_cast<int>(SpanName::kCount); ++n) {
    self += s.total(static_cast<SpanName>(n)).self_ns;
  }
  EXPECT_EQ(self, s.root_ns());
  EXPECT_EQ(s.durations(SpanName::kApply), std::vector<int64_t>{100});
  EXPECT_EQ(s.self_times(SpanName::kApply), std::vector<int64_t>{75});
  EXPECT_EQ(s.recorded(), 5u);
}

TEST(Spans, RecordsBeyondTheCapStillCount) {
  Spans s(&fake_clock, /*keep=*/1);
  for (int i = 0; i < 3; ++i) {
    g_now = i * 10;
    s.begin(SpanName::kSpawn, 1);
    g_now = i * 10 + 4;
    s.end();
  }
  EXPECT_EQ(s.recorded(), 1u);
  EXPECT_EQ(s.dropped(), 2u);
  EXPECT_EQ(s.total(SpanName::kSpawn).calls, 3u);
  EXPECT_EQ(s.total(SpanName::kSpawn).self_ns, 12);
}

TEST(Spans, ScopeIsANoOpWithoutARecorder) {
  Scope a(nullptr, SpanName::kOsRun);
  SUCCEED();
}

// --- reply models against the real servers -----------------------------------

/// Boots `bin` alone and drives `clients` closed-loop clients for `polls`.
Obs drive(std::shared_ptr<const dynacut::melf::Binary> bin, uint16_t port,
          App app, int clients, int polls) {
  dynacut::os::Os vos;
  vos.set_cores(2);
  const int pid = vos.spawn(bin, {dynacut::apps::build_libc()});
  for (int i = 0; i < 100 && !vos.has_listener(port); ++i) vos.run(200'000);
  Fleet fleet(vos);
  fleet.servers.push_back({app, port, pid});
  for (int i = 0; i < clients; ++i) {
    Fleet::Client c;
    c.model.emplace(app, i, 99, true);
    fleet.clients.push_back(std::move(c));
  }
  Obs obs;
  for (int i = 0; i < polls; ++i) fleet.poll(true, obs);
  fleet.drain(obs);
  return obs;
}

TEST(Replies, KvModelMatchesMinikv) {
  const Obs obs = drive(dynacut::apps::build_minikv(7300, 64), 7300, App::kKv, 3, 6000);
  for (const auto& e : obs.errors) ADD_FAILURE() << e;
  EXPECT_EQ(obs.failed, 0u);
  EXPECT_GT(obs.completed, 200u);
  EXPECT_EQ(obs.completed, obs.attempted);
}

TEST(Replies, WebModelMatchesMinihttpd) {
  const Obs obs = drive(dynacut::apps::build_minihttpd(), dynacut::apps::kMinihttpdPort,
                        App::kWeb, 3, 6000);
  for (const auto& e : obs.errors) ADD_FAILURE() << e;
  EXPECT_EQ(obs.failed, 0u);
  EXPECT_GT(obs.completed, 100u);
}

TEST(Replies, WrongReplyIsAFailure) {
  dynacut::os::Os vos;
  const int pid = vos.spawn(dynacut::apps::build_minikv(7301, 64),
                            {dynacut::apps::build_libc()});
  for (int i = 0; i < 100 && !vos.has_listener(7301); ++i) vos.run(200'000);
  Fleet fleet(vos);
  fleet.servers.push_back({App::kKv, 7301, pid});
  Obs obs;
  fleet.probe(0, {"PING\n", "+PONG\n"}, obs);
  EXPECT_EQ(obs.failed, 0u);
  // An enabled SET must not be accepted where the denial is expected.
  fleet.probe(0, feature_probe(App::kKv, /*denied=*/true, 1), obs);
  EXPECT_EQ(obs.failed, 1u);
  ASSERT_EQ(obs.errors.size(), 1u);
  EXPECT_NE(obs.errors[0].find("expected '-ERR"), std::string::npos);
  EXPECT_TRUE(obs.latency.empty());  // probes are not latency samples
}

TEST(Replies, DeniedExpectationsAreTheAppsOwnErrors) {
  EXPECT_EQ(feature_probe(App::kKv, true, 3).expect, kKvDenied);
  EXPECT_EQ(feature_probe(App::kKv, false, 3).expect, "+OK\n");
  EXPECT_EQ(feature_probe(App::kWeb, true, 3).expect, kWebDenied);
  EXPECT_EQ(feature_probe(App::kWeb, false, 3).expect, "201 created\n");
  // A client whose server denies SET expects the denial and keeps its model.
  ClientModel m(App::kKv, 0, 5, true);
  for (int i = 0; i < 500; ++i) {
    const Request r = m.next(true);
    if (r.line.rfind("SET ", 0) == 0) {
      EXPECT_EQ(r.expect, kKvDenied);
    }
    EXPECT_NE(r.expect, "+OK\n");
  }
}

TEST(Replies, WantedOnlyMixNeverSendsTheFeature) {
  ClientModel kv(App::kKv, 1, 5, false), web(App::kWeb, 2, 5, false);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(kv.next(false).line.rfind("SET ", 0), 0u);
    EXPECT_NE(web.next(false).line.rfind("PUT ", 0), 0u);
  }
}

// --- arguments ----------------------------------------------------------------

TEST(Args, SeedParsing) {
  EXPECT_EQ(parse_seed("0"), 0u);
  EXPECT_EQ(parse_seed("42"), 42u);
  EXPECT_EQ(parse_seed("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_seed(bad).has_value()) << bad;
  }
}

TEST(Args, FlagsInBothSpellings) {
  std::string err;
  auto a = parse_args({"--workload", "serve_mix", "--seed", "7", "--seconds",
                       "20", "--trace", "1"},
                      &err);
  ASSERT_TRUE(a) << err;
  EXPECT_EQ(a->workload, "serve_mix");
  EXPECT_EQ(a->seed, 7u);
  EXPECT_EQ(a->seconds, 20);
  EXPECT_TRUE(a->trace);
  a = parse_args({"--workload=scale_out", "--seed=3"}, &err);
  ASSERT_TRUE(a) << err;
  EXPECT_EQ(a->workload, "scale_out");
  EXPECT_FALSE(a->trace);
  EXPECT_FALSE(parse_args({"--seed", "3"}, &err));
  EXPECT_FALSE(parse_args({"--workload", "x", "--trace", "2"}, &err));
  EXPECT_FALSE(parse_args({"--workload", "x", "--seconds", "0"}, &err));
  EXPECT_FALSE(parse_args({"--workload", "x", "--bogus", "1"}, &err));
  EXPECT_FALSE(parse_args({"--workload"}, &err));
}

// --- the manifest --------------------------------------------------------------

std::string manifest() {
  std::ifstream f(PERFBENCH_MANIFEST);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The `key` array of the manifest, as raw text.
std::string section(const std::string& text, const std::string& key) {
  const size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return "";
  const size_t open = text.find('[', at);
  return text.substr(open, text.find(']', open) - open);
}

/// (name, unit) of every entry in a manifest array; unit is empty for
/// entries without one (workloads).
std::vector<std::pair<std::string, std::string>> named(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  static const std::regex kEntry("\\{[^}]*\\}");
  static const std::regex kName("\"name\"\\s*:\\s*\"([^\"]+)\"");
  static const std::regex kUnit("\"unit\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(text.begin(), text.end(), kEntry), end; it != end; ++it) {
    const std::string entry = it->str();
    std::smatch name, unit;
    if (!std::regex_search(entry, name, kName)) continue;
    out.emplace_back(name[1], std::regex_search(entry, unit, kUnit) ? unit[1].str() : "");
  }
  return out;
}

TEST(Manifest, EveryMetricIsInTheCatalogWithItsUnit) {
  const std::string text = manifest();
  ASSERT_FALSE(text.empty()) << "cannot read " << PERFBENCH_MANIFEST;
  for (const bool per_layer : {false, true}) {
    const auto entries = named(section(text, per_layer ? "per_layer" : "end_to_end"));
    size_t in_catalog = 0;
    for (const auto& m : catalog()) in_catalog += m.end_to_end != per_layer;
    EXPECT_EQ(entries.size(), in_catalog);
    for (const auto& [name, unit] : entries) {
      const MetricDef* m = find_metric(name);
      ASSERT_NE(m, nullptr) << name;
      EXPECT_EQ(unit, m->unit) << name;
      EXPECT_EQ(m->end_to_end, !per_layer) << name;
    }
  }
}

TEST(Manifest, WorkloadsExist) {
  const auto entries = named(section(manifest(), "workloads"));
  EXPECT_EQ(entries.size(), workloads().size());
  for (const auto& [name, unit] : entries) EXPECT_NE(find_workload(name), nullptr) << name;
}

TEST(Manifest, ResultLinePrintsEveryMetricWithItsUnit) {
  Results r;
  for (const auto& m : catalog()) r[m.name] = {1.5, 0};
  for (const bool per_layer : {false, true}) {
    const std::string line = result_json(true, 10, 0, r, per_layer);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, ", 0), 0u);
    for (const auto& [name, unit] : named(section(manifest(), per_layer ? "per_layer" : "end_to_end"))) {
      EXPECT_NE(line.find("\"" + name + "\": {\"value\": 1.5, \"unit\": \"" + unit + "\"}"),
                std::string::npos)
          << name;
    }
  }
  r.erase("setup_s");
  EXPECT_THROW(result_json(true, 1, 0, r, false), std::runtime_error);
  r["setup_s"] = {std::nan(""), 0};
  EXPECT_THROW(result_json(true, 1, 0, r, false), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
