// Open-loop trace replay through the public serving API, with the
// benchmark's own accounting on two clocks.
//
// Simulated time is read from each device's gpusim::Stream::records() as
// the steps run, never from the global sim.gpusim.* counters, so tuner
// evaluations and other engines in the process cannot leak into it.  Host
// time is taken around the calls into the program.  Per-request latencies
// come from the session table after each step: a request's token gaps are
// the spans between its consecutive token-committing steps, divided by the
// tokens each step committed (speculative rounds commit several).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stof/cluster/cluster.hpp"
#include "stof/serve/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

using stof::serve::Request;
using stof::serve::SessionId;

/// The system under test: one engine, or a lock-step tensor-parallel
/// cluster.  Construction is the benchmark's set-up: masks, layer-head
/// weights, and a cold in-memory tune of every shape bucket a step can hit
/// (so no tuner evaluation runs while serving).  A cluster's shards tune
/// through a tuning DB in `scratch_dir`, the only way to reach their
/// runtimes from outside; the directory is removed with the System.
class System {
 public:
  System(const Workload& w, const std::string& scratch_dir);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] int devices() const;
  void submit(const Request& r);
  [[nodiscard]] bool idle() const;
  [[nodiscard]] double sim_time_us() const;
  void advance_to(double us);
  /// Shard 0 (or the lone engine): lock-step keeps every shard's session
  /// table identical.
  [[nodiscard]] const stof::serve::Engine& engine0() const;
  [[nodiscard]] const stof::gpusim::Stream& stream(int device) const;
  [[nodiscard]] std::uint64_t digest(SessionId id) const;

  struct Step {
    bool ran = false;
    double sim_us = 0;      ///< the step's simulated duration
    double execute_s = 0;   ///< host time in execute_step (or Cluster::step)
    double finalize_s = 0;  ///< host time in finalize_step (engine only)
  };
  Step step();

 private:
  std::unique_ptr<stof::serve::Engine> engine_;
  std::unique_ptr<stof::cluster::Cluster> cluster_;
  std::string tune_dir_;
};

/// Simulated time of one device by category, summed over the replay.
struct SimBreakdown {
  double prefill_us = 0;     ///< serve.prefill (sparse blockwise MHA)
  double decode_us = 0;      ///< serve.decode (paged decode / verify)
  double draft_us = 0;       ///< serve.spec.draft
  double model_us = 0;       ///< serve.model.* (fused layer segments)
  double collective_us = 0;  ///< cluster.* all-reduces
  double other_us = 0;       ///< any launch name not listed above
  std::map<std::string, double> model_template_us;  ///< by template
  std::int64_t launches = 0;
  double gmem_bytes = 0;  ///< computed by the cost model, not measured

  [[nodiscard]] double total_us() const {
    return prefill_us + decode_us + draft_us + model_us + collective_us +
           other_us;
  }
};

/// One step as a trace span (host clock), tagged with its sessions.
struct Span {
  std::string name;
  double start_us = 0;  ///< host time since the replay began
  double dur_us = 0;
  std::int64_t step = 0;
  double sim_start_us = 0;
  double sim_us = 0;
  std::vector<SessionId> sessions;
};

/// Extra per-step work of a traced replay: spans, and host timings of the
/// model runtime's layer head and step costing, measured by re-running
/// them on each step's row count on a mirror runtime of the same spec.
class Tracer {
 public:
  explicit Tracer(const Workload& w);
  ~Tracer();

  /// Record the step's spans and time the mirror calls for `rows`.
  void on_step(const System::Step& st, std::int64_t step, double host_start_us,
               double sim_start_us, std::int64_t rows,
               std::vector<SessionId> sessions);

  std::vector<Span> spans;
  double execute_s = 0;
  double finalize_s = 0;
  double layer_head_s = 0;
  double charge_step_s = 0;
  /// Host time spent inside the mirror calls, excluded from the traced
  /// replay's wall time when computing the tracing overhead.
  double mirror_s = 0;

 private:
  struct Mirror;
  std::unique_ptr<Mirror> mirror_;
  bool cluster_ = false;
};

struct ReplayResult {
  // ---- simulated clock: a pure function of (workload, seed) ----
  std::int64_t sent = 0;
  std::int64_t finished = 0;
  std::int64_t served_tokens = 0;  ///< prompt + generation, finished only
  std::int64_t steps = 0;
  double busy_us = 0;  ///< sum of step durations
  double makespan_us = 0;
  std::vector<double> ttft_us;        ///< finished requests
  std::vector<double> itl_us;         ///< per-token gaps
  std::vector<double> queue_wait_us;  ///< first scheduled step - arrival
  std::int64_t slo_met = 0;
  std::int64_t prompt_tokens = 0;   ///< finished requests
  std::int64_t adopted_tokens = 0;  ///< prompt tokens taken from the tree
  std::int64_t decode_steps = 0;    ///< steps that committed a token
  std::int64_t decode_rows = 0;     ///< sessions committing, over those steps
  std::vector<SimBreakdown> device;
  /// Single engine: largest |sum of the step's launches - step duration|.
  double category_residual_us = 0;
  /// Mean share of busy time a shard spends waiting for the slowest shard
  /// (0 on a single engine).
  double imbalance_pct = 0;
  double kv_peak_util_pct = 0;           ///< shard 0's pool
  stof::serve::EngineStats engine_stats;  ///< shard 0 (lock-step)
  std::map<SessionId, std::uint64_t> digests;  ///< finished requests
  // ---- host clock ----
  double wall_s = 0;
};

/// Replay `trace` open-loop through `sys` (each request is submitted once
/// the simulated clock reaches its arrival; an idle system jumps to the
/// next arrival).  `tracer` is null for the untraced, timed replay.
[[nodiscard]] ReplayResult replay(System& sys, const Workload& w,
                                  const std::vector<Request>& trace,
                                  Tracer* tracer);

/// True when two replays agree on every simulated-clock quantity.
[[nodiscard]] bool same_simulation(const ReplayResult& a,
                                   const ReplayResult& b);

/// Output check, first half: digests of every `w.check_stride`-th request
/// of `trace` replayed through reference_config(w).  Run before the timed
/// replays, it also warms the process (allocator, thread pool, caches).
[[nodiscard]] std::map<SessionId, std::uint64_t> reference_digests(
    const Workload& w, const std::vector<Request>& trace);

/// Output check, second half: requests the replay finished with another
/// digest than the reference (unfinished ones are failures already).
[[nodiscard]] std::int64_t count_mismatches(
    const std::map<SessionId, std::uint64_t>& reference,
    const ReplayResult& r);

}  // namespace perfbench
