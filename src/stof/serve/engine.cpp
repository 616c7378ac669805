#include "stof/serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "stof/core/checksum.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {

void fill_token(std::uint64_t seed, std::int64_t pos, TokenChannel channel,
                std::span<half> dst) {
  // Hash (seed, pos, channel) into an Rng stream: the embedding depends on
  // nothing else, which is what makes preemption recovery bit-exact.
  const int which = static_cast<int>(channel);
  std::uint64_t h = fnv1a64(&pos, sizeof(pos), seed ^ kFnv1aOffset);
  h = fnv1a64(&which, sizeof(which), h);
  Rng rng(h);
  // Draw into a float staging block and convert through the dispatched
  // float->half kernel: the SIMD tables are byte-identical to scalar
  // half::from_float, so this produces the same embedding bits as the
  // per-element `half(v)` construction at panel-conversion speed.
  float stage[512];
  std::size_t i = 0;
  while (i < dst.size()) {
    const std::size_t n = std::min(dst.size() - i, std::size(stage));
    for (std::size_t j = 0; j < n; ++j) stage[j] = rng.uniform(-1.0f, 1.0f);
    packed::float_to_half({stage, n}, dst.subspan(i, n));
    i += n;
  }
}

namespace {

/// Per-position draft coin: deterministic "did the draft model propose the
/// true token at `pos`" — a pure function of (session seed, position), so
/// acceptance patterns replay identically across scheduling modes.
constexpr std::uint64_t kSpecCoinSalt = 0x5bec5bec5bec5becull;
/// Embedding-seed perturbation for rejected draft tokens: guarantees their
/// KV/query bits differ from the true stream without touching it.
constexpr std::uint64_t kSpecDraftSalt = 0xd12a'fced'0badull;

/// The draft pass of speculative decoding (cost model only): one head
/// over a sliding window of the most recent context positions.
constexpr std::int64_t kDraftHeads = 1;
constexpr std::int64_t kDraftWindow = 64;

[[nodiscard]] bool spec_coin(const Request& r, std::int64_t pos,
                             std::int64_t accept_pct) {
  const std::uint64_t h = fnv1a64(&pos, sizeof(pos), r.seed ^ kSpecCoinSalt);
  return static_cast<std::int64_t>(h % 100) < accept_pct;
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      pool_(KvPoolConfig{config.kv_blocks, config.block_tokens, config.heads,
                         config.head_size, config.kv_precision}),
      // The scheduler reserves every KV slot a verify round appends (true
      // token + k drafts), so a round can never fail an append mid-batch.
      scheduler_(config.scheduler, config.spec_draft_tokens + 1),
      stream_(config.device) {
  config_.validate();
  // The folder's layer head draws its weights before tuning starts: model
  // load measured slower the other way round.
  if (config_.total_heads == 0) {
    folder_.emplace(config_.model, config_.heads, config_.head_size,
                    config_.block_tokens, config_.device);
  }
  if (config_.model.enabled()) {
    // Costs only: the numeric layer head belongs to whoever folds the rows
    // (this engine's DigestFolder, or the cluster's for a shard).
    model_ = std::make_unique<ModelRuntime>(
        config_.model, config_.heads, config_.head_size, config_.device,
        /*with_weights=*/false);
    // "Model load": tune (or warm-load from the tuning DB) the canonical
    // decode and prefill shape buckets up front; any other bucket a step
    // hits tunes lazily on first use.
    model_->prewarm(scheduler_.config().max_decode_batch);
    model_->prewarm(scheduler_.config().prefill_token_budget);
  }
  telemetry::gauge("serve.kv.total_blocks",
                   static_cast<double>(config_.kv_blocks));
}

SessionId Engine::submit(const Request& request) {
  request.validate(config_.max_seq_len);
  table_.submit(request);
  scheduler_.enqueue(request.id);
  ++stats_.submitted;
  telemetry::count("serve.requests.submitted");
  return request.id;
}

bool Engine::idle() const {
  return scheduler_.queue_empty() &&
         table_.ids_in_phase(SessionPhase::kPrefilling).empty() &&
         table_.ids_in_phase(SessionPhase::kDecoding).empty();
}

const masks::Mask& Engine::mask_for(masks::PatternKind kind) {
  auto it = mask_cache_.find(kind);
  if (it == mask_cache_.end()) {
    // Serving is autoregressive: every pattern is intersected with the
    // causal triangle at the engine's fixed padded length, so a token's
    // attendable set never depends on batch composition or scheduling.
    const masks::Mask base =
        masks::MaskSpec{.kind = kind, .seq_len = config_.max_seq_len}.build();
    it = mask_cache_
             .emplace(kind, base & masks::causal(config_.max_seq_len))
             .first;
  }
  return it->second;
}

const std::vector<std::int32_t>& Engine::cols_for(masks::PatternKind kind,
                                                  std::int64_t row) {
  auto& rows = cols_cache_[kind];
  if (rows.empty()) {
    rows.resize(static_cast<std::size_t>(config_.max_seq_len));
  }
  auto& entry = rows[static_cast<std::size_t>(row)];
  if (!entry) entry = mha::decode_columns(mask_for(kind), row, row + 1);
  return *entry;
}

void Engine::fill_token_local(std::uint64_t seed, std::int64_t pos,
                              TokenChannel channel, std::span<half> dst) {
  if (config_.total_heads == 0) {
    fill_token(seed, pos, channel, dst);
    return;
  }
  // Sharded: the token function is defined over the FULL model row (the
  // Rng stream is sequential across channels of all heads), so generate
  // model_heads() * head_size halfs and slice out this shard's head range
  // — shard bytes match heads [head_offset, ...) of a single-device run.
  STOF_EXPECTS(dst.size() ==
               static_cast<std::size_t>(config_.heads * config_.head_size));
  const auto full = static_cast<std::size_t>(config_.model_heads() *
                                             config_.head_size);
  if (token_stage_.size() != full) token_stage_.resize(full);
  fill_token(seed, pos, channel, token_stage_);
  std::memcpy(dst.data(),
              token_stage_.data() +
                  static_cast<std::size_t>(config_.head_offset *
                                           config_.head_size),
              dst.size() * sizeof(half));
}

std::span<half> Engine::emit_row(Session& s, std::int64_t pos,
                                 StepOutcome& outcome) {
  if (s.first_folded < 0) s.first_folded = pos;
  outcome.rows.push_back(RowKey{s.request.id, pos});
  const auto width = static_cast<std::size_t>(config_.heads *
                                              config_.head_size);
  outcome.row_data.resize(outcome.row_data.size() + width);
  return {outcome.row_data.data() + outcome.row_data.size() - width, width};
}

double Engine::run_prefill(const std::vector<PrefillChunk>& windows,
                           std::size_t whole, StepOutcome& outcome) {
  if (windows.empty()) return 0;
  // One ragged varlen launch per (pricing, mask kind) group, preserving
  // window order, so the whole-prompt groups launch first.  Each window is
  // an element of length `end` with query window [begin, end): the kernel
  // runs only the block rows covering the window, against the same
  // effective mask a one-shot prefill of length `end` would use — every
  // window row's streaming-softmax chain is identical to the one-shot
  // pass, which is what keeps chunked KV pages and digests bit-identical
  // to whole prefills.
  struct Group {
    bool whole = false;
    masks::PatternKind kind{};
    std::vector<PrefillChunk> windows;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const bool w = i < whole;
    const auto kind = table_.at(windows[i].id).request.mask_kind;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.whole == w && g.kind == kind;
    });
    if (it == groups.end()) {
      groups.push_back(Group{w, kind, {windows[i]}});
    } else {
      it->windows.push_back(windows[i]);
    }
  }

  const std::int64_t heads = config_.heads;
  const std::int64_t d = config_.head_size;
  const std::int64_t seq = config_.max_seq_len;
  const std::int64_t bm = config_.prefill_params.block_m;
  std::vector<half> tok(static_cast<std::size_t>(heads * d));
  double us = 0;

  for (const auto& [is_whole, kind, group] : groups) {
    const auto n = static_cast<std::int64_t>(group.size());
    const mha::MhaDims dims{n, heads, seq, d};
    TensorH q(dims.qkv_shape()), k(dims.qkv_shape()), v(dims.qkv_shape());
    std::vector<std::int64_t> lengths, q_begins;
    lengths.reserve(group.size());
    for (std::int64_t b = 0; b < n; ++b) {
      const auto& chunk = group[static_cast<std::size_t>(b)];
      const Session& s = table_.at(chunk.id);
      lengths.push_back(chunk.end);
      // Whole-prompt launches carry no query windows: the cost model
      // prices them over every block row of the padded length.
      if (!is_whole) q_begins.push_back(chunk.begin);
      // Keys/values cover the whole context [0, end) — the window's rows
      // attend every earlier position.  Queries only need the rows the
      // kernel reads: the window, extended down to its block boundary.
      const std::int64_t q_lo = (chunk.begin / bm) * bm;
      for (std::int64_t pos = 0; pos < chunk.end; ++pos) {
        for (int ch = 1; ch < 3; ++ch) {
          TensorH& dst = ch == 1 ? k : v;
          fill_token_local(token_seed(s.request, pos), pos,
                           static_cast<TokenChannel>(ch), tok);
          for (std::int64_t h = 0; h < heads; ++h) {
            std::memcpy(&dst.at(b * heads + h, pos, 0),
                        &tok[static_cast<std::size_t>(h * d)],
                        static_cast<std::size_t>(d) * sizeof(half));
          }
        }
        if (pos < q_lo) continue;
        fill_token_local(token_seed(s.request, pos), pos,
                         TokenChannel::kQuery, tok);
        for (std::int64_t h = 0; h < heads; ++h) {
          std::memcpy(&q.at(b * heads + h, pos, 0),
                      &tok[static_cast<std::size_t>(h * d)],
                      static_cast<std::size_t>(d) * sizeof(half));
        }
      }
    }
    const masks::Mask& mask = mask_for(kind);
    const mha::VarlenBatch batch{seq, lengths, q_begins};
    const TensorH out = mha::varlen_attention(dims, q, k, v, mask, batch,
                                              config_.prefill_params);
    us += stream_.launch(
        "serve.prefill",
        mha::varlen_cost(dims, mask, batch, config_.prefill_params,
                         config_.device));

    for (std::int64_t b = 0; b < n; ++b) {
      const auto& chunk = group[static_cast<std::size_t>(b)];
      Session& s = table_.at(chunk.id);
      STOF_CHECK(s.cached_tokens == chunk.begin,
                 "chunk must resume at the session's cached prefix");
      // A session admitted with an adopted shared prefix starts at the
      // adoption boundary, not zero.
      if (chunk.begin == s.adopted_tokens) {
        telemetry::count("serve.requests.admitted");
      }
      // Ingest the window's positions into the KV pool (admission or the
      // chunk planner reserved the blocks this step).
      for (std::int64_t pos = chunk.begin; pos < chunk.end; ++pos) {
        auto slot = pool_.append_token(chunk.id);
        STOF_CHECK(slot.has_value(), "scheduler must size chunks to the pool");
        for (std::int64_t h = 0; h < heads; ++h) {
          std::memcpy(slot->k + h * d, &k.at(b * heads + h, pos, 0),
                      static_cast<std::size_t>(d) * sizeof(half));
          std::memcpy(slot->v + h * d, &v.at(b * heads + h, pos, 0),
                      static_cast<std::size_t>(d) * sizeof(half));
        }
      }
      s.cached_tokens = chunk.end;
      // Emit the window's prompt rows exactly once, in position order.  A
      // re-prefilled window (preempt mid-prefill, or a preempted decoder
      // rebuilding context past its prompt) recomputes rows already
      // emitted; they are skipped, never emitted again.
      const std::int64_t fold_end =
          std::min(chunk.end, s.request.prompt_len);
      for (std::int64_t pos = std::max(chunk.begin, s.prompt_digested_tokens);
           pos < fold_end; ++pos) {
        const std::span<half> row = emit_row(s, pos, outcome);
        for (std::int64_t h = 0; h < heads; ++h) {
          std::memcpy(row.data() + h * d,
                      out.data().data() + ((b * heads + h) * seq + pos) * d,
                      static_cast<std::size_t>(d) * sizeof(half));
        }
      }
      s.prompt_digested_tokens = std::max(s.prompt_digested_tokens, fold_end);
      if (s.cached_tokens == s.total_len()) {
        STOF_CHECK(s.prompt_digested_tokens == s.request.prompt_len,
                   "prefix completion must have digested the whole prompt");
        if (scheduler_.config().prefix_sharing) {
          pool_.publish_prefix(chunk.id, s.request, s.first_folded);
        }
        s.phase = SessionPhase::kDecoding;
      }
      s.last_touch_step = step_count_;
      stats_.prefill_tokens += chunk.tokens();
      outcome.prefill_tokens += chunk.tokens();
      telemetry::count("serve.prefill.tokens", chunk.tokens());
    }
  }
  return us;
}

double Engine::run_decode(const std::vector<SessionId>& ids,
                          StepOutcome& outcome) {
  if (ids.empty()) return 0;
  const std::int64_t heads = config_.heads;
  const std::int64_t d = config_.head_size;
  const std::int64_t k = config_.spec_draft_tokens;

  // One verify round per session: row 0 is the guaranteed true token, rows
  // 1..rows-1 are draft proposals (none when k == 0: plain decoding).  The
  // accepted run is the leading stretch of drafts whose per-position coin
  // says the draft matched the true stream; accepted rows carry the true
  // token bits (the draft *was* the true token), rejected rows carry a
  // salted embedding.
  struct Round {
    SessionId id = 0;
    std::int64_t pos = 0;     ///< position of row 0 (the true token)
    std::int64_t rows = 0;    ///< true token + drafts actually proposed
    std::int64_t accept = 0;  ///< leading accepted draft run
  };
  const auto row_seed = [](const Session& s, const Round& r, std::int64_t j) {
    return j <= r.accept ? s.request.seed : s.request.seed ^ kSpecDraftSalt;
  };
  std::vector<Round> rounds;
  rounds.reserve(ids.size());

  // Append every round's KV rows first: PagedSeq spans point into the
  // pool's per-session block-pointer vectors, which must be quiescent by
  // the time the batch descriptor is built.
  for (const SessionId id : ids) {
    Session& s = table_.at(id);
    Round r{id, s.total_len(), 0, 0};
    const std::int64_t budget = s.request.max_new_tokens - s.generated;
    r.rows = std::min(k + 1, budget);
    while (r.accept + 1 < r.rows &&
           spec_coin(s.request, r.pos + r.accept + 1, config_.spec_accept_pct)) {
      ++r.accept;
    }
    for (std::int64_t j = 0; j < r.rows; ++j) {
      const std::uint64_t seed = row_seed(s, r, j);
      auto slot = pool_.append_token(id);
      STOF_CHECK(slot.has_value(),
                 "scheduler must reserve verify-round decode blocks");
      fill_token_local(seed, r.pos + j, TokenChannel::kKey,
                       {slot->k, static_cast<std::size_t>(heads * d)});
      fill_token_local(seed, r.pos + j, TokenChannel::kValue,
                       {slot->v, static_cast<std::size_t>(heads * d)});
    }
    s.cached_tokens = r.pos + r.rows;
    rounds.push_back(r);
  }

  std::int64_t total_rows = 0;
  for (const auto& r : rounds) total_rows += r.rows;
  TensorH q(Shape{total_rows * heads, 1, d});
  std::vector<mha::PagedSeq> seqs(static_cast<std::size_t>(total_rows));
  std::vector<std::int64_t> valid, seq_rows, draft_valid;
  valid.reserve(static_cast<std::size_t>(total_rows));
  seq_rows.reserve(rounds.size());
  std::int64_t row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    // Bring the pool's decode sidecar up to date: only the rows appended
    // since the last call convert (quantize-once per page generation), and
    // the packed kernel then reads the sidecar pages directly.
    mha::KvSidecar sidecar;
    if (packed_execution_enabled()) {
      pool_.ensure_sidecar(r.id);
      sidecar = pool_.sidecar(r.id);
    }
    for (std::int64_t j = 0; j < r.rows; ++j, ++row) {
      const std::int64_t pos = r.pos + j;
      fill_token_local(row_seed(s, r, j), pos, TokenChannel::kQuery,
                       q.data().subspan(
                           static_cast<std::size_t>(row * heads * d),
                           static_cast<std::size_t>(heads * d)));
      // Row j attends [0, pos + 1): later (rejected) draft slots live in
      // the same pages but are never in its column list, so an accepted
      // row's output is bit-identical to the sequential decode of pos.
      const auto& cols = cols_for(s.request.mask_kind, pos);
      seqs[static_cast<std::size_t>(row)] =
          mha::PagedSeq{pos + 1, config_.block_tokens, pool_.k_blocks(r.id),
                        pool_.v_blocks(r.id), cols, sidecar};
      valid.push_back(static_cast<std::int64_t>(cols.size()));
      // The draft pass proposes row j's token from a sliding KV window.
      if (j >= 1) {
        draft_valid.push_back(std::min(pos, kDraftWindow));
      }
    }
    seq_rows.push_back(r.rows);
  }

  const TensorH out = mha::decode_attention_paged(heads, d, seqs, q);
  double us = 0;
  if (!draft_valid.empty()) {
    us += stream_.launch(
        "serve.spec.draft",
        mha::decode_batched_cost(kDraftHeads, d, draft_valid,
                                 config_.device));
  }
  us += stream_.launch(
      "serve.decode",
      mha::decode_verify_cost(heads, d, valid, seq_rows, config_.device));

  // Emit every committed row in commit order (rejected rows roll back and
  // never fold).  Committed rows are bit-identical to plain decode rows, so
  // speculative digests stay byte-identical to non-speculative runs.
  const std::int64_t hd = heads * d;
  std::int64_t committed = 0, drafted = 0, accepted = 0, rollbacks = 0;
  row = 0;
  for (const auto& r : rounds) {
    Session& s = table_.at(r.id);
    const std::int64_t commit = r.accept + 1;
    for (std::int64_t j = 0; j < commit; ++j) {
      std::memcpy(emit_row(s, r.pos + j, outcome).data(),
                  out.data().data() + (row + j) * hd,
                  static_cast<std::size_t>(hd) * sizeof(half));
    }
    row += r.rows;
    if (commit < r.rows) pool_.truncate(r.id, r.pos + commit);
    s.cached_tokens = r.pos + commit;
    // Times are stamped by finalize_step, once the step's full duration
    // is known.
    if (s.generated == 0) outcome.first_token.push_back(r.id);
    s.generated += commit;
    s.last_touch_step = step_count_;
    if (s.done()) {
      s.phase = SessionPhase::kFinished;
      pool_.release(r.id);
      outcome.finished.push_back(r.id);
    }
    committed += commit;
    drafted += r.rows - 1;
    accepted += r.accept;
    rollbacks += r.rows - commit;
  }
  stats_.decode_tokens += committed;
  outcome.decode_rows += total_rows;
  telemetry::count("serve.decode.tokens", committed);
  if (drafted > 0) {
    telemetry::count("serve.spec.drafted", drafted);
    telemetry::count("serve.spec.accepted", accepted);
    telemetry::count("serve.spec.rollbacks", rollbacks);
  }
  return us;
}

std::optional<StepOutcome> Engine::execute_step() {
  StepPlan plan = scheduler_.plan_step(table_, pool_);
  if (plan.empty()) return std::nullopt;

  StepOutcome outcome;
  outcome.start_us = clock_us_;

  stats_.preemptions += static_cast<std::int64_t>(plan.evicted.size());
  if (!plan.evicted.empty()) {
    telemetry::count("serve.requests.preempted",
                     static_cast<std::int64_t>(plan.evicted.size()));
  }

  // Every prefill runs as a window [cached, total) of its session's
  // context.  Whole-prefill admissions with nothing cached launch first and
  // unwindowed; prefix-adopted admissions resume at the adoption boundary,
  // ahead of the scheduler's chunks.
  std::vector<PrefillChunk> windows;
  for (const SessionId id : plan.prefills) {
    const Session& s = table_.at(id);
    windows.push_back(PrefillChunk{id, s.cached_tokens, s.total_len()});
  }
  const auto fresh_end =
      std::stable_partition(windows.begin(), windows.end(),
                            [](const PrefillChunk& c) { return c.begin == 0; });
  const auto whole =
      static_cast<std::size_t>(std::distance(windows.begin(), fresh_end));
  windows.insert(windows.end(), plan.chunks.begin(), plan.chunks.end());
  // Only the scheduler's chunks count as chunks, so whole-prefill mode
  // reports none.
  if (!plan.chunks.empty()) {
    std::int64_t chunk_tokens = 0;
    for (const auto& c : plan.chunks) chunk_tokens += c.tokens();
    const auto n = static_cast<std::int64_t>(plan.chunks.size());
    stats_.prefill_chunks += n;
    telemetry::count("serve.sched.chunks_emitted", n);
    telemetry::count("serve.sched.chunk_tokens", chunk_tokens);
    telemetry::observe("serve.batch.chunk_tokens",
                       static_cast<double>(chunk_tokens));
  }

  double us = run_prefill(windows, whole, outcome);
  us += run_decode(plan.decodes, outcome);
  if (folder_) {
    folder_->fold(outcome.rows, outcome.row_data, table_,
                  [this](SessionId id) -> std::uint64_t& {
                    return table_.at(id).digest;
                  });
  }
  // Model execution: the step's activation rows (prefill tokens + decode
  // rows, one packed batch in a real server) run the per-layer non-MHA
  // pipeline — charged tuned-fused or launch-per-op onto this stream.
  // The attention kernels above already charged the MHA segments.
  if (model_) {
    const std::int64_t rows = outcome.prefill_tokens + outcome.decode_rows;
    if (rows > 0) us += model_->charge_step(stream_, rows);
  }
  outcome.us = us;
  outcome.evicted = std::move(plan.evicted);
  outcome.prefills = std::move(plan.prefills);
  outcome.chunks = std::move(plan.chunks);
  outcome.decodes = std::move(plan.decodes);
  return outcome;
}

void Engine::finalize_step(const StepOutcome& outcome, double step_us) {
  STOF_EXPECTS(step_us >= outcome.us,
               "a step cannot finish before its own kernels do");
  clock_us_ += step_us;

  for (const auto id : outcome.first_token) {
    table_.at(id).first_token_us = clock_us_;
  }
  for (const auto id : outcome.finished) {
    Session& s = table_.at(id);
    s.finish_us = clock_us_;
    ++stats_.finished;
    if (s.request.deadline_us > 0 && s.finish_us > s.request.deadline_us) {
      ++stats_.deadline_misses;
      telemetry::count("serve.sched.deadline_misses");
    }
  }
  if (!outcome.finished.empty()) {
    telemetry::count("serve.requests.finished",
                     static_cast<std::int64_t>(outcome.finished.size()));
  }

  ++step_count_;
  ++stats_.steps;
  telemetry::count("serve.steps");
  telemetry::observe("serve.batch.decode_size",
                     static_cast<double>(outcome.decodes.size()));
  telemetry::observe("serve.batch.prefill_size",
                     static_cast<double>(outcome.prefills.size()));
  telemetry::observe("serve.kv.used_blocks",
                     static_cast<double>(pool_.used_blocks()));

  if (on_step) {
    StepEvent ev;
    ev.step = step_count_ - 1;
    ev.start_us = outcome.start_us;
    ev.duration_us = step_us;
    ev.evicted = outcome.evicted;
    ev.prefills = outcome.prefills;
    ev.chunks = outcome.chunks;
    ev.decodes = outcome.decodes;
    ev.kv_used_blocks = pool_.used_blocks();
    on_step(ev);
  }
}

bool Engine::step() {
  std::optional<StepOutcome> outcome = execute_step();
  if (!outcome) return false;
  finalize_step(*outcome, outcome->us);
  return true;
}

}  // namespace stof::serve
