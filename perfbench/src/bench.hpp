// One benchmark run: set-up, timed replay, output check, metric records.
//
// Untraced runs (--trace 0) produce the end-to-end metrics: set-up is
// repeated and its median reported, then the trace is replayed (more than
// once when --seconds allows) with telemetry off.  Traced runs (--trace 1)
// replay once untraced and once with telemetry on, and produce the
// per-layer metrics plus a Chrome trace of per-step spans.  Every run ends
// with the output check.  Each metric carries its unit, clock (sim: gpusim
// time; wall: host time; host: other host quantities), statistic and
// sample count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's scratch files (a cluster's tuning DB).
  std::string work_dir = ".";
  /// Session-count multiplier (tests run small replicas).
  double scale = 1.0;
  /// Minimum set-ups timed for setup_s in an untraced run.
  int setup_reps = 7;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;      ///< sim | wall | host
  std::string statistic;  ///< p50, p90, p99, median, mean, total, ratio, ...
  std::int64_t samples = 0;
  /// Samples beyond a percentile (nearest rank); -1 for other statistics.
  std::int64_t tail = -1;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;  ///< requests sent
  std::int64_t failed = 0;     ///< unfinished + failed output check
  std::int64_t checked = 0;    ///< requests the output check replayed
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<Span> spans;            ///< traced runs only
};

[[nodiscard]] Report run(const Options& opts);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Report& r);
/// Self-describing record: every metric with unit/clock/statistic/samples,
/// the checks, the seed and the machine fingerprint.
[[nodiscard]] std::string record_json(const Report& r, const Options& opts);
/// Chrome trace-event JSON of the traced replay's spans.
[[nodiscard]] std::string chrome_trace_json(const Report& r,
                                            const Options& opts);

}  // namespace perfbench
