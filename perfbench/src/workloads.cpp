#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stof/core/rng.hpp"

namespace perfbench {

using stof::masks::PatternKind;
using stof::serve::EngineConfig;
using stof::serve::ModelKind;
using stof::serve::Request;

namespace {

/// 12 heads x 64 = hidden 768, the BERT-base / GPT-2 width.
EngineConfig base_engine(int block) {
  EngineConfig e;
  e.heads = 12;
  e.head_size = 64;
  e.block_tokens = block;
  e.prefill_params = stof::mha::BlockwiseParams{block, block};
  return e;
}

Workload chat_gpt768() {
  Workload w;
  w.name = "chat_gpt768";
  w.engine = base_engine(16);
  w.engine.max_seq_len = 64;
  w.engine.kv_blocks = 96;
  w.engine.scheduler.max_prefills_per_step = 4;
  w.engine.scheduler.max_decode_batch = 32;
  w.engine.scheduler.prefill_token_budget = 64;
  w.engine.scheduler.chunk_tokens = 64;
  w.engine.model.kind = ModelKind::kGptDecoder;
  w.engine.model.layers = 2;
  w.trace = TraceSpec{.sessions = 120,
                      .min_prompt = 4,
                      .max_prompt = 28,
                      .min_gen = 12,
                      .max_gen = 28,
                      .kinds = {PatternKind::kCausal,
                                PatternKind::kSlidingWindow,
                                PatternKind::kStrided, PatternKind::kBigBird},
                      .mean_interarrival_us = 200};
  w.slo_ttft_us = 600;
  w.slo_gap_us = 250;
  w.check_stride = 8;
  return w;
}

Workload longdoc_sparse() {
  Workload w;
  w.name = "longdoc_sparse";
  w.engine = base_engine(64);
  w.engine.max_seq_len = 1088;
  w.engine.kv_blocks = 256;
  w.engine.scheduler.max_prefills_per_step = 1;
  w.engine.scheduler.max_decode_batch = 64;
  w.engine.scheduler.prefill_token_budget = 1088;
  w.trace = TraceSpec{.sessions = 200,
                      .min_prompt = 512,
                      .max_prompt = 1024,
                      .min_gen = 5,
                      .max_gen = 9,
                      .kinds = {PatternKind::kBigBird,
                                PatternKind::kSlidingWindow,
                                PatternKind::kStrided}};
  w.slo_ttft_us = 5000;
  w.slo_gap_us = 60;
  w.check_stride = 8;
  return w;
}

Workload rag_t5_tp4() {
  Workload w;
  w.name = "rag_t5_tp4";
  w.devices = 4;
  w.engine = base_engine(16);
  w.engine.max_seq_len = 208;
  w.engine.kv_blocks = 160;
  w.engine.scheduler.max_prefills_per_step = 4;
  w.engine.scheduler.max_decode_batch = 32;
  w.engine.scheduler.prefill_token_budget = 64;
  w.engine.scheduler.chunk_tokens = 64;
  w.engine.scheduler.prefix_sharing = true;
  w.engine.spec_draft_tokens = 4;
  w.engine.model.kind = ModelKind::kT5CrossDecoder;
  w.engine.model.layers = 2;
  w.trace = TraceSpec{.sessions = 120,
                      .min_prompt = 8,
                      .max_prompt = 24,
                      .min_gen = 24,
                      .max_gen = 48,
                      .kinds = {PatternKind::kCausal,
                                PatternKind::kSlidingWindow,
                                PatternKind::kStrided, PatternKind::kBigBird},
                      .templates = 4,
                      .zipf_s = 1.1,
                      .template_len = 112,
                      .mean_interarrival_us = 220};
  w.slo_ttft_us = 450;
  w.slo_gap_us = 200;
  w.check_stride = 16;
  return w;
}

template <typename T>
void shuffle(stof::Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// `n` uniform draws in [0, 1), one per stratum [i/n, (i+1)/n), shuffled.
std::vector<double> stratified(stof::Rng& rng, std::int64_t n) {
  std::vector<double> u;
  for (std::int64_t i = 0; i < n; ++i) {
    u.push_back((static_cast<double>(i) + rng.next_double()) /
                static_cast<double>(n));
  }
  shuffle(rng, u);
  return u;
}

/// Stratified integers in [lo, hi].
std::vector<std::int64_t> stratified_ints(stof::Rng& rng, std::int64_t n,
                                          std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> v;
  for (const double u : stratified(rng, n)) {
    v.push_back(lo + static_cast<std::int64_t>(
                         u * static_cast<double>(hi - lo + 1)));
  }
  return v;
}

}  // namespace

std::int64_t Workload::max_step_rows() const {
  const auto& s = engine.scheduler;
  const std::int64_t prefill =
      s.chunk_tokens > 0 ? s.chunk_tokens : s.prefill_token_budget;
  return prefill + s.max_decode_batch * (engine.spec_draft_tokens + 1);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chat_gpt768", "longdoc_sparse", "rag_t5_tp4"};
  return names;
}

Workload make_workload(std::string_view name, double scale) {
  Workload w;
  if (name == "chat_gpt768") {
    w = chat_gpt768();
  } else if (name == "longdoc_sparse") {
    w = longdoc_sparse();
  } else if (name == "rag_t5_tp4") {
    w = rag_t5_tp4();
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  w.trace.sessions = std::max<std::int64_t>(
      4, std::llround(static_cast<double>(w.trace.sessions) * scale));
  return w;
}

std::vector<Request> make_trace(const Workload& w, std::uint64_t seed) {
  const TraceSpec& t = w.trace;
  const std::int64_t n = t.sessions;
  stof::Rng rng(seed);
  const auto own = stratified_ints(rng, n, t.min_prompt, t.max_prompt);
  const auto gen = stratified_ints(rng, n, t.min_gen, t.max_gen);
  const auto kind = stratified_ints(
      rng, n, 0, static_cast<std::int64_t>(t.kinds.size()) - 1);
  const auto pick = stratified(rng, n);
  const auto gap = stratified(rng, n);
  std::vector<std::uint64_t> template_seed;
  std::vector<double> cdf;  // Zipf popularity by template rank
  double total = 0;
  for (std::int64_t p = 0; p < t.templates; ++p) {
    template_seed.push_back(rng.next_u64());
    total += 1.0 / std::pow(static_cast<double>(p + 1), t.zipf_s);
    cdf.push_back(total);
  }

  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(n));
  double clock = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Request r;
    r.id = i;
    r.seed = rng.next_u64();
    r.max_new_tokens = gen[k];
    r.mask_kind = t.kinds[static_cast<std::size_t>(kind[k])];
    if (t.templates > 0) {
      std::size_t p = 0;
      while (p + 1 < cdf.size() && cdf[p] < pick[k] * total) ++p;
      r.template_seed = template_seed[p];
      r.template_len = t.template_len;
      // Prefix pages are shared only within a mask kind: the template
      // fixes it.
      r.mask_kind = t.kinds[p % t.kinds.size()];
    }
    r.prompt_len = r.template_len + own[k];
    if (t.mean_interarrival_us > 0) {
      clock += -t.mean_interarrival_us * std::log1p(-gap[k]);
    }
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

EngineConfig reference_config(const Workload& w) {
  EngineConfig e = w.engine;
  e.spec_draft_tokens = 0;
  e.scheduler.mode = stof::serve::SchedulerMode::kSerial;
  e.scheduler.chunk_tokens = 0;
  e.scheduler.prefix_sharing = false;
  e.scheduler.prefill_token_budget =
      std::max(e.scheduler.prefill_token_budget, e.max_seq_len);
  return e;
}

}  // namespace perfbench
