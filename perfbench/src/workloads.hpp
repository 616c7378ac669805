// The serving benchmark's workloads: an engine (or cluster) configuration
// plus a seeded trace generator and the workload's SLO limits.
//
// Each workload stresses a different layer of the serving stack:
//   chat_gpt768    — one engine, GPT decoder (2 layers, hidden 768), short
//                    private prompts, decode-heavy, open loop, chunked
//                    prefill: the host layer head and paged decode.
//   longdoc_sparse — one attention-only engine, long prompts under sparse
//                    masks, whole-prompt prefill, offline batch: the
//                    blockwise sparse MHA kernel on both clocks.
//   rag_t5_tp4     — a 4-device tensor-parallel cluster, T5 cross-decoder,
//                    Zipf-templated prompts with long shared prefixes,
//                    prefix sharing + speculative decoding: the prefix tree,
//                    draft/verify and the collectives.
// The program receives only the generated requests; the seed picks them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stof/serve/engine.hpp"

namespace perfbench {

/// Parameters of the seeded request generator.  Lengths, mask kinds,
/// template picks and inter-arrival gaps are stratified: each seed draws
/// one value from each of `sessions` equal-probability strata and shuffles
/// them, so every seed serves the same distribution in a different order
/// and the per-seed spread of aggregate metrics stays small.
struct TraceSpec {
  std::int64_t sessions = 0;
  std::int64_t min_prompt = 0;  ///< private prompt tokens (suffix when templated)
  std::int64_t max_prompt = 0;
  std::int64_t min_gen = 0;
  std::int64_t max_gen = 0;
  std::vector<stof::masks::PatternKind> kinds;
  /// Shared-prefix templates (0 = every prompt is private), picked with
  /// Zipf(zipf_s) popularity; each is `template_len` tokens long.
  std::int64_t templates = 0;
  double zipf_s = 1.1;
  std::int64_t template_len = 0;
  /// Mean of the exponential inter-arrival gap in simulated microseconds;
  /// 0 makes an offline batch (every request due at t = 0).
  double mean_interarrival_us = 0;
};

struct Workload {
  std::string name;
  /// 1 = one serve::Engine; > 1 = a cluster::Cluster of that many devices.
  int devices = 1;
  stof::serve::EngineConfig engine;  ///< full-model (unsharded) config
  TraceSpec trace;
  /// Per-request SLO: time to first token and every per-token gap.
  double slo_ttft_us = 0;
  double slo_gap_us = 0;
  /// Output check samples every `check_stride`-th request.
  std::int64_t check_stride = 8;

  /// Largest activation-row count one step can carry (prefill tokens plus
  /// decode rows, drafts included): the top shape bucket set-up tunes.
  [[nodiscard]] std::int64_t max_step_rows() const;
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload; `scale` multiplies its session count (tests run
/// small replicas of the real workloads).  Throws on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, double scale = 1.0);

/// Deterministic request trace of `w` for `seed`, sorted by arrival.
[[nodiscard]] std::vector<stof::serve::Request> make_trace(const Workload& w,
                                                           std::uint64_t seed);

/// The plainest serving path for the output check: one full-width engine,
/// serial scheduler, whole prefill, no speculation, no prefix sharing, the
/// same ModelSpec and kernel block shapes.
[[nodiscard]] stof::serve::EngineConfig reference_config(const Workload& w);

}  // namespace perfbench
