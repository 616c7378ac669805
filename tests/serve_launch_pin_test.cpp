// Pinned launch log: the serving engine's simulated timeline and outputs,
// frozen to constants.
//
// Each case replays a fixed trace and hashes
//   * every record on the engine's gpusim stream, in order: kernel name,
//     simulated-time bits, and every KernelCost field; and
//   * every per-session digest, in trace order.
// A changed, added, dropped or reordered launch, or any changed output
// byte, changes a hash.  The matrix crosses the scheduling mode (serial,
// continuous whole prefill, chunked prefill of 16 tokens) with speculation
// (k = 0 and k = 4) and the model (attention only, GPT 2 layers).  Extra
// cases cover BERT 2 layers, the INT8 KV tier, prefix sharing in both
// prefill modes — whole mode admits fresh and prefix-adopted sessions in
// one step — prefix sharing under the GPT layer head on an engine and on a
// 2-device cluster, a 1-device GPT cluster, and a 2-device T5 cluster with
// speculation.  The layer head
// (ModelRuntime::transform_rows) is also pinned on its own, per family, at
// 1 and 3 layers.
//
// The hashes are pure functions of the trace and the device model, so they
// hold for every kernel dispatch table (STOF_FORCE_SCALAR=1 included).
// They are meant to change only with a deliberate change to the cost model,
// the scheduler, or the serving numerics; a refactor of the engine must
// leave them alone.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "stof/cluster/cluster.hpp"
#include "stof/core/checksum.hpp"
#include "stof/core/rng.hpp"
#include "stof/serve/engine.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

std::uint64_t mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a64(&bits, sizeof(bits), h);
}

std::uint64_t mix(std::uint64_t h, std::int64_t v) {
  return fnv1a64(&v, sizeof(v), h);
}

std::uint64_t launch_hash(const gpusim::Stream& stream,
                          std::uint64_t h = kFnv1aOffset) {
  for (const auto& r : stream.records()) {
    h = fnv1a64(r.name.data(), r.name.size(), h);
    const gpusim::KernelCost& c = r.cost;
    for (const double v :
         {r.time_us, c.tc_flops, c.cuda_flops, c.gmem_read_bytes,
          c.gmem_write_bytes, c.smem_bytes, c.bank_conflict_factor,
          c.occupancy, c.overlap, c.dispatch_us}) {
      h = mix(h, v);
    }
    h = mix(h, c.grid_blocks);
    h = mix(h, std::int64_t{c.blocks_per_sm});
    h = mix(h, std::int64_t{c.launches});
  }
  return mix(h, static_cast<std::int64_t>(stream.records().size()));
}

constexpr std::int64_t kMaxSeq = 64;

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.head_size = 16;
  cfg.max_seq_len = kMaxSeq;
  // Tight enough that continuous batching preempts and re-prefills.
  cfg.kv_blocks = 10;
  cfg.block_tokens = 16;
  cfg.prefill_params = mha::BlockwiseParams{16, 16};
  cfg.scheduler.max_prefills_per_step = 4;
  cfg.scheduler.prefill_token_budget = 128;
  cfg.scheduler.max_decode_batch = 16;
  cfg.spec_accept_pct = 60;
  return cfg;
}

std::vector<Request> private_trace() {
  Rng rng(0x9195eed);
  const masks::PatternKind kinds[] = {
      masks::PatternKind::kCausal, masks::PatternKind::kSlidingWindow,
      masks::PatternKind::kStrided, masks::PatternKind::kBigBird};
  std::vector<Request> trace;
  double clock = 0;
  for (std::int64_t i = 0; i < 12; ++i) {
    if (rng.next_double() > 0.4) clock += 1.0 + 20.0 * rng.next_double();
    Request r;
    r.id = i;
    r.prompt_len = 4 + static_cast<std::int64_t>(rng.next_u64() % 36);
    r.max_new_tokens = 3 + static_cast<std::int64_t>(rng.next_u64() % 10);
    r.seed = 5000 + static_cast<std::uint64_t>(i);
    r.mask_kind = kinds[i % 4];
    r.arrival_us = clock;
    trace.push_back(r);
  }
  return trace;
}

/// A donor publishes a two-page causal template; a later burst mixes
/// template adopters with private prompts under several masks, so whole
/// prefill admits fresh and adopted sessions in the same step.
std::vector<Request> templated_trace() {
  std::vector<Request> trace;
  Request donor{0, 40, 4, 7000, masks::PatternKind::kCausal, 0.0};
  donor.template_seed = 424242;
  donor.template_len = 32;
  trace.push_back(donor);
  const masks::PatternKind kinds[] = {masks::PatternKind::kSlidingWindow,
                                      masks::PatternKind::kBigBird,
                                      masks::PatternKind::kStrided};
  for (std::int64_t i = 1; i < 9; ++i) {
    Request r{i, 34 + i, 3 + i % 4, 7000 + static_cast<std::uint64_t>(i),
              masks::PatternKind::kCausal, i < 5 ? 60.0 : 90.0};
    if (i % 2 == 1) {
      r.template_seed = donor.template_seed;
      r.template_len = donor.template_len;
    } else {
      r.prompt_len = 6 + 3 * i;
      r.mask_kind = kinds[i % 3];
    }
    trace.push_back(r);
  }
  return trace;
}

template <typename Sys>
void replay(Sys& sys, const std::vector<Request>& trace) {
  std::size_t next = 0;
  std::int64_t steps = 0;
  while (next < trace.size() || !sys.idle()) {
    while (next < trace.size() &&
           trace[next].arrival_us <= sys.sim_time_us()) {
      sys.submit(trace[next++]);
    }
    if (sys.idle()) {
      ASSERT_LT(next, trace.size());
      sys.advance_to(trace[next].arrival_us);
      continue;
    }
    ASSERT_TRUE(sys.step());
    ASSERT_LT(++steps, 100000) << "replay failed to drain";
  }
}

struct Pin {
  std::uint64_t launches = 0;
  std::uint64_t digests = 0;
};

std::uint64_t digest_hash(const std::map<SessionId, std::uint64_t>& digests) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& [id, digest] : digests) {
    h = mix(h, id);
    h = fnv1a64(&digest, sizeof(digest), h);
  }
  return h;
}

Pin run_engine(const EngineConfig& cfg, const std::vector<Request>& trace) {
  Engine engine(cfg);
  replay(engine, trace);
  std::map<SessionId, std::uint64_t> digests;
  for (const auto& r : trace) {
    EXPECT_EQ(engine.session(r.id).phase, SessionPhase::kFinished)
        << "session " << r.id;
    digests[r.id] = engine.session(r.id).digest;
  }
  return {launch_hash(engine.stream()), digest_hash(digests)};
}

void expect_pinned(const std::string& name, const Pin& got,
                   const Pin& want) {
  EXPECT_EQ(got.launches, want.launches)
      << name << ": launch log changed; now 0x" << std::hex << got.launches;
  EXPECT_EQ(got.digests, want.digests)
      << name << ": session digests changed; now 0x" << std::hex
      << got.digests;
}

struct MatrixPin {
  const char* name;
  Pin pin;
};

// {serial, whole, chunk16} x {k0, k4} x {attn, gpt2}.
constexpr MatrixPin kMatrix[] = {
    {"serial/k0/attn", {0xd850abf7a515861bull, 0xc3e6864cb592bbbfull}},
    {"serial/k0/gpt2", {0xad549e26130f7cffull, 0x194293fb3b844e1cull}},
    {"serial/k4/attn", {0x94ba1ac5fff54f70ull, 0xc3e6864cb592bbbfull}},
    {"serial/k4/gpt2", {0x4a577e47a0314c01ull, 0x194293fb3b844e1cull}},
    {"whole/k0/attn", {0x7c67a48c2608077eull, 0xc3e6864cb592bbbfull}},
    {"whole/k0/gpt2", {0x4579d0591845cb2aull, 0x194293fb3b844e1cull}},
    {"whole/k4/attn", {0x68e76cce2aa0f6edull, 0xc3e6864cb592bbbfull}},
    {"whole/k4/gpt2", {0x3f149af2045b83ddull, 0x194293fb3b844e1cull}},
    {"chunk16/k0/attn", {0x3ba2da585b0de75cull, 0xc3e6864cb592bbbfull}},
    {"chunk16/k0/gpt2", {0x105607d14464a10ull, 0x194293fb3b844e1cull}},
    {"chunk16/k4/attn", {0x23a7bc1db415a042ull, 0xc3e6864cb592bbbfull}},
    {"chunk16/k4/gpt2", {0x7b7588c89b2fec6ull, 0x194293fb3b844e1cull}},
};

TEST(ServeLaunchPin, ModeBySpeculationByModelMatrix) {
  const auto trace = private_trace();
  std::size_t i = 0;
  for (const char* mode : {"serial", "whole", "chunk16"}) {
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{4}}) {
      for (const bool gpt : {false, true}) {
        EngineConfig cfg = base_config();
        cfg.scheduler.mode = std::string(mode) == "serial"
                                 ? SchedulerMode::kSerial
                                 : SchedulerMode::kContinuous;
        if (std::string(mode) == "chunk16") cfg.scheduler.chunk_tokens = 16;
        cfg.spec_draft_tokens = k;
        if (gpt) cfg.model.kind = ModelKind::kGptDecoder;
        const MatrixPin& want = kMatrix[i++];
        const std::string name = std::string(mode) + "/k" +
                                 std::to_string(k) + (gpt ? "/gpt2" : "/attn");
        ASSERT_EQ(name, want.name);
        expect_pinned(name, run_engine(cfg, trace), want.pin);
      }
    }
  }
}

TEST(ServeLaunchPin, WholePrefillBertTwoLayers) {
  EngineConfig cfg = base_config();
  cfg.model.kind = ModelKind::kBertEncoder;
  expect_pinned("whole/k0/bert2", run_engine(cfg, private_trace()),
                {0xf76a1c489690ef36ull, 0x81455ffe40a8f8a0ull});
}

TEST(ServeLaunchPin, LayerHeadOutputBytes) {
  struct HeadPin {
    ModelKind kind;
    std::int64_t layers;
    std::uint64_t hash;
  };
  constexpr HeadPin kPins[] = {
      {ModelKind::kBertEncoder, 1, 0x88c9e6415a08a71full},
      {ModelKind::kBertEncoder, 3, 0x237171ba481d2ff2ull},
      {ModelKind::kGptDecoder, 1, 0x99d1ba97b00a5044ull},
      {ModelKind::kGptDecoder, 3, 0xfe1b8b4c8e90a56bull},
      {ModelKind::kT5CrossDecoder, 1, 0x6831c115cf7aed7full},
      {ModelKind::kT5CrossDecoder, 3, 0x62200ad9f17a6f12ull},
  };
  for (const HeadPin& p : kPins) {
    ModelSpec spec;
    spec.kind = p.kind;
    spec.layers = p.layers;
    spec.fused = false;
    const ModelRuntime head(spec, 4, 16, gpusim::DeviceSpec{},
                            /*with_weights=*/true);
    TensorH x(Shape{37, 64});
    for (std::size_t i = 0; i < x.data().size(); ++i) {
      x.data()[i] = half(float((i * 2654435761u) % 97) / 48.0f - 1.0f);
    }
    head.transform_rows(x);
    const std::uint64_t got =
        fnv1a64(x.data().data(), x.data().size() * sizeof(half));
    EXPECT_EQ(got, p.hash) << to_string(p.kind) << " x" << p.layers
                           << ": layer head changed; now 0x" << std::hex
                           << got;
  }
}

TEST(ServeLaunchPin, Int8KvChunkedPlainDecode) {
  EngineConfig cfg = base_config();
  cfg.scheduler.chunk_tokens = 16;
  cfg.kv_precision = core::PanelPrecision::kInt8;
  expect_pinned("int8/chunk16/k0", run_engine(cfg, private_trace()),
                {0x3ba2da585b0de75cull, 0x58fe07120f4840cbull});
}

TEST(ServeLaunchPin, PrefixSharingWholeAndChunked) {
  const auto trace = templated_trace();
  // Whole prefill: the burst must put a fresh and an adopted admission in
  // one step, or the case does not cover what it is pinned for.
  {
    Engine engine(base_config());
    bool mixed_step = false;
    engine.on_step = [&](const StepEvent& ev) {
      bool fresh = false, adopted = false;
      for (const SessionId id : ev.prefills) {
        (engine.session(id).adopted_tokens > 0 ? adopted : fresh) = true;
      }
      mixed_step = mixed_step || (fresh && adopted);
    };
    replay(engine, trace);
    EXPECT_TRUE(mixed_step);
  }
  expect_pinned("prefix/whole/k0", run_engine(base_config(), trace),
                {0x8c8e57672a53b4fbull, 0x73b63e9a272cca32ull});
  EngineConfig chunked = base_config();
  chunked.scheduler.chunk_tokens = 16;
  expect_pinned("prefix/chunk16/k0", run_engine(chunked, trace),
                {0xe24adb8cfe363160ull, 0x73b63e9a272cca32ull});
}

Pin run_cluster(const cluster::ClusterConfig& ccfg,
                const std::vector<Request>& trace) {
  cluster::Cluster cl(ccfg);
  replay(cl, trace);
  std::uint64_t launches = kFnv1aOffset;
  for (int dev = 0; dev < cl.devices(); ++dev) {
    launches = launch_hash(cl.engine(dev).stream(), launches);
  }
  return {launches, digest_hash(cl.digests())};
}

TEST(ServeLaunchPin, PrefixSharingUnderLayerHead) {
  telemetry::ScopedTelemetry scoped(true);
  auto& reg = telemetry::global_registry();
  EngineConfig cfg = base_config();
  cfg.scheduler.chunk_tokens = 16;
  cfg.model.kind = ModelKind::kGptDecoder;
  const auto trace = templated_trace();
  // Adopters seed their digest chains past position 0, so the case only
  // pins seeding if some admission actually adopts.
  reg.reset();
  expect_pinned("prefix/chunk16/gpt2", run_engine(cfg, trace),
                {0xa252d4e3a437e18cull, 0x5c876dfa76e6bcf9ull});
  EXPECT_GT(reg.counter("serve.prefix.hits"), 0);
  cluster::ClusterConfig ccfg;
  ccfg.devices = 2;
  ccfg.engine = cfg;
  reg.reset();
  expect_pinned("prefix/tp2/chunk16/gpt2", run_cluster(ccfg, trace),
                {0x5d0da8cdf486735dull, 0x5c876dfa76e6bcf9ull});
  EXPECT_GT(reg.counter("serve.prefix.hits"), 0);
}

TEST(ServeLaunchPin, OneDeviceClusterGpt) {
  cluster::ClusterConfig ccfg;
  ccfg.devices = 1;
  ccfg.engine = base_config();
  ccfg.engine.model.kind = ModelKind::kGptDecoder;
  expect_pinned("tp1/whole/k0/gpt2", run_cluster(ccfg, private_trace()),
                {0x4579d0591845cb2aull, 0x194293fb3b844e1cull});
}

TEST(ServeLaunchPin, T5ClusterTwoDevicesSpeculative) {
  cluster::ClusterConfig ccfg;
  ccfg.devices = 2;
  ccfg.engine = base_config();
  ccfg.engine.kv_blocks = 24;
  ccfg.engine.spec_draft_tokens = 4;
  ccfg.engine.model.kind = ModelKind::kT5CrossDecoder;
  expect_pinned("t5/tp2/k4", run_cluster(ccfg, private_trace()),
                {0x998a4ef81a53f505ull, 0x6254d5a6faaf1144ull});
}

}  // namespace
}  // namespace stof::serve
