// Tests of the serving benchmark itself: trace generation, percentiles,
// metric names against BENCHMARK.json, and run-to-run determinism of the
// simulated-clock metrics.  Runs use small replicas of the real workloads.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr double kSmall = 0.05;  // session-count multiplier for test runs

std::string read_benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Names declared in BENCHMARK.json's `section` list ("end_to_end",
/// "per_layer").  The list entries hold no brackets, so the section ends
/// at the first ']'.
std::set<std::string> declared(const std::string& json,
                               const std::string& section) {
  const auto begin = json.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const auto end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  std::set<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

Report small_run(const std::string& workload, std::uint64_t seed,
                 bool trace) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.trace = trace;
  o.seconds = 0;  // a single replay
  o.scale = kSmall;
  o.setup_reps = 2;
  o.work_dir = ".";  // ctest runs in the build directory
  return run(o);
}

TEST(PerfbenchTrace, DeterministicPerSeedAndDifferentAcrossSeeds) {
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    const auto a = make_trace(w, 11);
    const auto b = make_trace(w, 11);
    const auto c = make_trace(w, 12);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(w.trace.sessions)) << name;
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].seed, b[i].seed);
      EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
      EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens);
      EXPECT_EQ(a[i].mask_kind, b[i].mask_kind);
      EXPECT_EQ(a[i].template_seed, b[i].template_seed);
      EXPECT_EQ(a[i].template_len, b[i].template_len);
      EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
      differs = differs || a[i].seed != c[i].seed ||
                a[i].prompt_len != c[i].prompt_len ||
                a[i].arrival_us != c[i].arrival_us;
      // Every request fits the engine and arrives in order.
      EXPECT_NO_THROW(a[i].validate(w.engine.max_seq_len));
      if (i > 0) {
        EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
      }
    }
    EXPECT_TRUE(differs) << name;
  }
}

TEST(PerfbenchStats, NearestRankPercentileOnSmallSamples) {
  const std::vector<double> v = {35, 20, 15, 50, 40};  // sorted: 15 20 35 40 50
  EXPECT_EQ(percentile(v, 0), 15);
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({1, 2}, 50), 1);
  EXPECT_EQ(percentile({1, 2}, 51), 2);
  // 100 samples: p90 is the 90th smallest, with 10 beyond it.
  std::vector<double> h;
  for (int i = 1; i <= 100; ++i) h.push_back(i);
  EXPECT_EQ(percentile(h, 90), 90);
  EXPECT_EQ(tail_samples(90, 100), 10);
  EXPECT_EQ(tail_samples(99, 1000), 10);
  EXPECT_EQ(tail_samples(99, 999), 9);
}

TEST(PerfbenchNames, EmittedNamesAreDeclaredInBenchmarkJson) {
  const std::string json = read_benchmark_json();
  ASSERT_FALSE(json.empty()) << PERFBENCH_JSON;
  const std::regex name_ok("[A-Za-z0-9_.-]+");
  for (const bool trace : {false, true}) {
    const std::set<std::string> want =
        declared(json, trace ? "per_layer" : "end_to_end");
    for (const std::string& name : workload_names()) {
      const Report r = small_run(name, 3, trace);
      EXPECT_TRUE(r.correct) << name;
      std::set<std::string> got;
      for (const Metric& m : r.metrics) {
        EXPECT_TRUE(std::regex_match(m.name, name_ok)) << m.name;
        EXPECT_TRUE(m.clock == "sim" || m.clock == "wall" || m.clock == "host")
            << m.name;
        EXPECT_FALSE(m.unit.empty()) << m.name;
        EXPECT_TRUE(got.insert(m.name).second) << "duplicate " << m.name;
      }
      EXPECT_EQ(got, want) << name << (trace ? " traced" : " untraced");
    }
  }
}

TEST(PerfbenchNames, SloLimitsMatchBenchmarkJson) {
  // Each workload's `why` records its SLO as "TTFT<=<us>us gap<=<us>us".
  const std::string json = read_benchmark_json();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    const std::regex entry("\"name\"\\s*:\\s*\"" + name +
                           "\"\\s*,\\s*\"why\"\\s*:\\s*\"[^\"]*TTFT<=([0-9]+)"
                           "us gap<=([0-9]+)us");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(json, m, entry)) << name;
    EXPECT_EQ(std::stod(m[1]), w.slo_ttft_us) << name;
    EXPECT_EQ(std::stod(m[2]), w.slo_gap_us) << name;
  }
}

TEST(PerfbenchDeterminism, SameSeedGivesBitIdenticalSimMetrics) {
  for (const std::string& name : workload_names()) {
    for (const bool trace : {false, true}) {
      const Report a = small_run(name, 5, trace);
      const Report b = small_run(name, 5, trace);
      ASSERT_EQ(a.metrics.size(), b.metrics.size());
      for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        ASSERT_EQ(a.metrics[i].name, b.metrics[i].name);
        if (a.metrics[i].clock != "sim") continue;
        EXPECT_EQ(a.metrics[i].value, b.metrics[i].value)
            << name << " " << a.metrics[i].name;
      }
      EXPECT_EQ(a.failed, 0) << name;
      EXPECT_GT(a.checked, 0) << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
