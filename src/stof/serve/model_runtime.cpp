#include "stof/serve/model_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stof/core/checksum.hpp"
#include "stof/core/rng.hpp"
#include "stof/fusion/templates.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/telemetry/telemetry.hpp"
#include "stof/tuner/search_engine.hpp"

namespace stof::serve {

namespace {

/// FFN width as a multiple of the hidden width (4 in BERT/GPT-2).
constexpr std::int64_t kFfnMult = 4;
/// Seed of the layer head's weight streams.
constexpr std::uint64_t kWeightSeed = 0x57eadfa571ull;

/// Weight stream tags — part of the (seed, layer, tag) hash, so every
/// parameter tensor draws from an independent deterministic stream.
enum class WeightTag : int {
  kOutProj,
  kOutBias,
  kCrossProj,
  kFfnUp,
  kFfnUpBias,
  kFfnDown,
  kFfnDownBias,
  kGamma1,
  kBeta1,
  kGamma2,
  kBeta2,
  kGamma3,
  kBeta3,
  kCrossBias,
};

std::uint64_t weight_stream(std::uint64_t seed, std::int64_t layer,
                            WeightTag tag) {
  std::uint64_t h = fnv1a64(&layer, sizeof(layer), seed ^ kFnv1aOffset);
  const int t = static_cast<int>(tag);
  return fnv1a64(&t, sizeof(t), h);
}

/// Seeded uniform(-scale, scale) fill (plus `center`, for LayerNorm
/// gammas).  Element order is fixed, so the bits never depend on batch or
/// scheduling — the same determinism contract as serve::fill_token.
TensorH seeded_tensor(Shape shape, std::uint64_t seed, float scale,
                      float center = 0.0f) {
  TensorH t(shape);
  Rng rng(seed);
  for (half& v : t.data()) v = half(center + rng.uniform(-scale, scale));
  return t;
}

/// The search budget paid per cold shape bucket.  Trimmed from the
/// offline-tuning defaults: model load tunes a handful of buckets, and the
/// two-stage search converges on these layer graphs well inside this
/// budget (the plan is still deterministic — fixed seed, cached evals).
tuner::TuningOptions load_time_options() {
  tuner::TuningOptions o;
  o.samples_per_candidate = 2;
  o.stage1_max_evals = 32;
  o.stage2_iterations = 2;
  o.stage2_budget = 8;
  return o;
}

}  // namespace

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kNone:
      return "none";
    case ModelKind::kBertEncoder:
      return "bert_encoder";
    case ModelKind::kGptDecoder:
      return "gpt_decoder";
    case ModelKind::kT5CrossDecoder:
      return "t5_cross_decoder";
  }
  return "?";
}

void ModelSpec::validate() const {
  if (!enabled()) return;
  STOF_EXPECTS(layers >= 1, "a model needs at least one layer");
}

ModelRuntime::ModelRuntime(const ModelSpec& spec, std::int64_t heads,
                           std::int64_t head_size,
                           const gpusim::DeviceSpec& device,
                           bool with_weights)
    : spec_(spec),
      heads_(heads),
      head_size_(head_size),
      hidden_(heads * head_size),
      device_(device),
      device_fp_(models::device_fingerprint(device)) {
  spec_.validate();
  STOF_EXPECTS(spec_.enabled(), "ModelRuntime needs an enabled ModelSpec");
  STOF_EXPECTS(heads_ > 0 && head_size_ > 0);
  graph_ = build_graph(1);
  if (!spec_.tune_db_dir.empty()) db_.emplace(spec_.tune_db_dir);
  if (!with_weights) return;

  // The head runs every node outside the attention spans (kQkvProj through
  // kPvGemm).  Weights draw from (kWeightSeed, layer, tag) streams, the tag
  // set by the node's place in its layer.  Fan-in scaled weights keep
  // activations O(1) through any depth (LayerNorm re-centers between
  // layers).  Each GEMM weight converts its panel once, as it is drawn,
  // and frees it with this runtime.
  const auto per_layer =
      static_cast<std::int64_t>(graph_.size() - 1) / spec_.layers;
  bool in_attention = false;
  int out_projs = 0;
  int norms = 0;
  WeightTag bias_tag = WeightTag::kOutBias;
  for (const graph::Node& node : graph_.nodes()) {
    if (node.kind == graph::OpKind::kInput) continue;
    const std::int64_t layer = (node.id - 1) / per_layer;
    if ((node.id - 1) % per_layer == 0) out_projs = norms = 0;
    if (node.kind == graph::OpKind::kQkvProj) in_attention = true;
    if (in_attention) {
      in_attention = node.kind != graph::OpKind::kPvGemm;
      continue;
    }
    const auto stream = [&](WeightTag tag, int offset = 0) {
      return weight_stream(
          kWeightSeed, layer,
          static_cast<WeightTag>(static_cast<int>(tag) + offset));
    };
    models::NodeWeights w;
    const auto gemm = [&](WeightTag tag, WeightTag bias) {
      w.w = ops::GemmWeight(
          seeded_tensor(Shape{node.inner, node.cols}, stream(tag),
                        1.0f / std::sqrt(static_cast<float>(node.inner))));
      bias_tag = bias;
    };
    switch (node.kind) {
      case graph::OpKind::kOutProj:  // self, then cross projection
        if (out_projs++ == 0) {
          gemm(WeightTag::kOutProj, WeightTag::kOutBias);
        } else {
          gemm(WeightTag::kCrossProj, WeightTag::kCrossBias);
        }
        break;
      case graph::OpKind::kFfnGemm:  // back to hidden width: down
        if (node.cols == hidden_) {
          gemm(WeightTag::kFfnDown, WeightTag::kFfnDownBias);
        } else {
          gemm(WeightTag::kFfnUp, WeightTag::kFfnUpBias);
        }
        break;
      case graph::OpKind::kBias:  // its GEMM's bias tag
        w.bias = seeded_tensor(Shape{node.cols}, stream(bias_tag), 0.1f);
        break;
      case graph::OpKind::kLayerNorm: {
        STOF_CHECK(norms < 3, "a layer has at most three LayerNorms");
        const int k = 2 * norms++;  // the k-th owns Gamma/Beta k+1
        w.gamma = seeded_tensor(Shape{node.cols},
                                stream(WeightTag::kGamma1, k), 0.1f, 1.0f);
        w.beta = seeded_tensor(Shape{node.cols},
                               stream(WeightTag::kBeta1, k), 0.05f);
        break;
      }
      default:
        break;
    }
    head_.push_back(HeadOp{node.id, std::move(w)});
  }
}

graph::Graph ModelRuntime::build_graph(std::int64_t rows) const {
  graph::LayerConfig lc;
  lc.batch = 1;
  lc.seq_len = rows;
  lc.hidden = hidden_;
  lc.heads = heads_;
  lc.ffn_dim = kFfnMult * hidden_;
  const int layers = static_cast<int>(spec_.layers);
  switch (spec_.kind) {
    case ModelKind::kBertEncoder:
      return graph::build_encoder_graph(lc, layers);
    case ModelKind::kGptDecoder:
      return graph::build_decoder_graph(lc, layers);
    case ModelKind::kT5CrossDecoder:
      lc.activation = graph::OpKind::kRelu;
      lc.use_bias = false;
      return graph::build_cross_decoder_graph(lc, layers);
    case ModelKind::kNone:
      break;
  }
  STOF_CHECK(false, "build_graph needs an enabled model kind");
  return graph::Graph{};  // unreachable
}

std::int64_t ModelRuntime::row_parallel_gemms() const {
  return std::ranges::count_if(graph_.nodes(), [&](const graph::Node& n) {
    return n.kind == graph::OpKind::kOutProj ||
           (n.kind == graph::OpKind::kFfnGemm && n.cols == hidden_);
  });
}

void ModelRuntime::prewarm(std::int64_t rows) {
  if (!spec_.fused) return;
  (void)plan_for(rows);
}

const models::ExecutionPlan& ModelRuntime::plan_for(std::int64_t rows) {
  const std::int64_t bucket = models::shape_bucket(rows);
  auto it = plans_.find(bucket);
  if (it != plans_.end()) return it->second;

  const graph::Graph bg = build_graph(bucket);
  const models::TuneKey key{models::graph_fingerprint(bg), bucket,
                            device_fp_};
  const auto n_ops = static_cast<std::int64_t>(bg.size());
  if (db_) {
    telemetry::ScopedTimer timer("wall.tunedb.load_us");
    if (auto plan = db_->load(key, n_ops)) {
      return plans_.emplace(bucket, std::move(*plan)).first->second;
    }
  }

  // Cold: run the two-stage search at the bucket shape.  The mask only
  // prices the MHA segments (invariant across schemes), so serving's
  // always-causal triangle stands in for every request pattern.
  telemetry::ScopedTimer timer("wall.tunedb.tune_us");
  const models::Executor exec(
      bg, mha::MhaDims{1, heads_, bucket, head_size_},
      masks::MaskSpec{.kind = masks::PatternKind::kCausal, .seq_len = bucket},
      device_);
  models::ExecutionPlan plan =
      tuner::SearchEngine(exec, load_time_options()).tune().best_plan;
  telemetry::count("serve.model.tunes");
  if (db_) db_->store(key, plan);
  return plans_.emplace(bucket, std::move(plan)).first->second;
}

double ModelRuntime::charge_step(gpusim::Stream& stream, std::int64_t rows) {
  STOF_EXPECTS(rows > 0);
  telemetry::count("serve.model.steps");
  telemetry::count("serve.model.rows", rows);
  const graph::Graph g = build_graph(rows);
  double us = 0;

  if (!spec_.fused) {
    // Launch-per-op eager baseline: every non-MHA operator is its own
    // kernel and pays the framework dispatch latency on top of the launch.
    const fusion::TemplateParams defaults;
    for (const auto& node : g.nodes()) {
      if (node.kind == graph::OpKind::kInput || graph::is_mha_op(node.kind)) {
        continue;
      }
      gpusim::KernelCost cost =
          fusion::single_op_cost(node, defaults, device_);
      cost.dispatch_us = device_.dispatch_overhead_us;
      us += stream.launch("serve.model.op", cost);
      telemetry::count("serve.model.op_launches");
    }
    return us;
  }

  // Fused: replay the tuned plan's segments at this step's actual row
  // count.  The scheme was tuned at the bucket shape, whose graph has the
  // same operator sequence, so segment boundaries and template kinds map
  // one-to-one; only the per-row work scales.  MHA segments are skipped —
  // the engine's real attention kernels already charged them.
  const models::ExecutionPlan& plan = plan_for(rows);
  const auto segments = plan.scheme.segments();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const fusion::Segment& seg = segments[i];
    const fusion::TemplateKind kind = fusion::classify_segment(g, seg);
    if (kind == fusion::TemplateKind::kUnifiedMha) continue;
    if (seg.size() == 1 &&
        g.node(seg.begin).kind == graph::OpKind::kInput) {
      continue;
    }
    const fusion::TemplateParams params = plan.segment_params.empty()
                                              ? fusion::TemplateParams{}
                                              : plan.segment_params[i];
    gpusim::KernelCost cost =
        fusion::segment_cost(g, seg, kind, params, device_);
    if (cost.occupancy <= 0 && cost.launches > 0) {
      // A block shape tuned at the bucket can (rarely) be infeasible at
      // another row count; fall back to template defaults, never crash.
      cost = fusion::segment_cost(g, seg, kind, fusion::TemplateParams{},
                                  device_);
    }
    us += stream.launch("serve.model." + fusion::to_string(kind), cost);
    telemetry::count("serve.model.segment_launches", cost.launches);
  }
  return us;
}

void ModelRuntime::transform_rows(TensorH& x) const {
  STOF_CHECK(!head_.empty(), "transform_rows needs a with_weights runtime");
  STOF_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == hidden_);
  const std::int64_t n = x.shape()[0];
  std::vector<bool> skip_source(graph_.size());
  for (const graph::Node& node : graph_.nodes()) {
    if (node.skip_from >= 0) {
      skip_source[static_cast<std::size_t>(node.skip_from)] = true;
    }
  }

  // Only live values hold a buffer: the block flowing down the linear order
  // and each residual skip source until its add.  A GEMM writes a spare
  // buffer of its width; every other op runs in place unless its input is
  // a skip source.  Dead buffers go back to `spare`.
  std::vector<TensorH> values(graph_.size());
  std::vector<TensorH> spare;
  const auto take = [&](std::int64_t cols) {
    const auto it = std::ranges::find_if(
        spare, [&](const TensorH& t) { return t.shape()[1] == cols; });
    if (it == spare.end()) return TensorH(Shape{n, cols});
    TensorH t = std::move(*it);
    spare.erase(it);
    return t;
  };
  values[0] = std::move(x);
  std::size_t prev = 0;
  for (const HeadOp& op : head_) {
    const graph::Node& node = graph_.node(op.id);
    const auto id = static_cast<std::size_t>(op.id);
    TensorH* skip = node.skip_from >= 0
                        ? &values[static_cast<std::size_t>(node.skip_from)]
                        : nullptr;
    const bool in_place =
        !graph::is_compute_intensive(node.kind) && !skip_source[prev];
    if (!in_place) values[id] = take(node.cols);
    models::run_row_op(node, op.weights, values[prev], skip,
                       in_place ? values[prev] : values[id]);
    if (in_place) {
      values[id] = std::move(values[prev]);
    } else if (!skip_source[prev]) {
      spare.push_back(std::move(values[prev]));
    }
    if (skip != nullptr) spare.push_back(std::move(*skip));
    prev = id;
  }
  x = std::move(values[prev]);
}

}  // namespace stof::serve
