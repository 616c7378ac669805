#include "stof/models/functional.hpp"

#include <cmath>
#include <limits>

#include <optional>

#include "stof/core/rng.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/ops/elementwise.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/ops/normalize.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::models {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

}  // namespace

void run_row_op(const graph::Node& node, const NodeWeights& w,
                const TensorH& in, const TensorH* skip, TensorH& out) {
  switch (node.kind) {
    case graph::OpKind::kQkvProj:
    case graph::OpKind::kOutProj:
    case graph::OpKind::kFfnGemm:
      ops::matmul2d(in, w.w, out);
      return;
    case graph::OpKind::kBias:
      ops::bias_add(in, w.bias, out);
      return;
    case graph::OpKind::kGelu:
      ops::gelu_op(in, out);
      return;
    case graph::OpKind::kRelu:
      ops::relu(in, out);
      return;
    case graph::OpKind::kResidualAdd:
      STOF_EXPECTS(skip != nullptr, "a residual add needs its skip operand");
      ops::residual_add(in, *skip, out);
      return;
    case graph::OpKind::kLayerNorm:
      ops::layernorm(in, w.gamma, w.beta, out);
      return;
    default:
      STOF_CHECK(false, "not a row-local operator (fused nodes never appear "
                        "in source graphs): " + graph::to_string(node.kind));
  }
}

FunctionalExecutor::FunctionalExecutor(graph::Graph g, mha::MhaDims attn_dims,
                                       masks::MaskSpec mask_spec,
                                       std::uint64_t seed)
    : graph_(std::move(g)),
      attn_dims_(attn_dims),
      cache_(mask_spec.build()) {
  attn_dims_.validate();
  graph_.validate();
  STOF_EXPECTS(mask_spec.seq_len == attn_dims_.seq_len,
               "mask spec must match attention seq_len");
  hidden_ = attn_dims_.heads * attn_dims_.head_size;

  // Deterministic per-node weights: small magnitudes keep activations in a
  // LayerNorm-friendly range.
  for (const auto& node : graph_.nodes()) {
    NodeWeights nw;
    Rng rng(seed ^ (0x9e37u + static_cast<std::uint64_t>(node.id) * 0x85ebca6b));
    switch (node.kind) {
      case graph::OpKind::kQkvProj:
      case graph::OpKind::kOutProj:
      case graph::OpKind::kFfnGemm: {
        TensorH w(Shape{node.inner, node.cols});
        w.fill_random(rng, -0.08f, 0.08f);
        nw.w = ops::GemmWeight(std::move(w));
        break;
      }
      case graph::OpKind::kBias:
        nw.bias = TensorH(Shape{node.cols});
        nw.bias.fill_random(rng, -0.1f, 0.1f);
        break;
      case graph::OpKind::kLayerNorm:
        nw.gamma = TensorH(Shape{node.cols});
        nw.beta = TensorH(Shape{node.cols});
        nw.gamma.fill_random(rng, 0.9f, 1.1f);
        nw.beta.fill_random(rng, -0.1f, 0.1f);
        break;
      default:
        break;
    }
    weights_.emplace(node.id, std::move(nw));
  }
}

const NodeWeights& FunctionalExecutor::weights(std::int64_t id) const {
  return weights_.at(id);
}

void FunctionalExecutor::split_qkv(const TensorH& qkv, TensorH& q, TensorH& k,
                                   TensorH& v) const {
  const std::int64_t seq = attn_dims_.seq_len;
  const std::int64_t heads = attn_dims_.heads;
  const std::int64_t d = attn_dims_.head_size;
  STOF_EXPECTS(qkv.shape() ==
               (Shape{attn_dims_.batch * seq, 3 * hidden_}));
  q = TensorH(attn_dims_.qkv_shape());
  k = TensorH(attn_dims_.qkv_shape());
  v = TensorH(attn_dims_.qkv_shape());
  parallel_for(0, attn_dims_.batch * seq, [&](std::int64_t row) {
    const std::int64_t b = row / seq;
    const std::int64_t s = row % seq;
    for (std::int64_t h = 0; h < heads; ++h) {
      const std::int64_t bh = b * heads + h;
      for (std::int64_t e = 0; e < d; ++e) {
        q.at(bh, s, e) = qkv.at(row, h * d + e);
        k.at(bh, s, e) = qkv.at(row, hidden_ + h * d + e);
        v.at(bh, s, e) = qkv.at(row, 2 * hidden_ + h * d + e);
      }
    }
  });
}

TensorH FunctionalExecutor::run_fused_mha(const TensorH& qkv) {
  TensorH q, k, v;
  split_qkv(qkv, q, k, v);
  // The unified kernel (block-wise at (16,16) is valid for every mask);
  // functionally identical to any other parameterisation.
  const auto& bsr = cache_.at(16, 16);
  const TensorH ctx = mha::blockwise_attention(attn_dims_, q, k, v, bsr,
                                               mha::BlockwiseParams{16, 16});
  // Re-pack (b*h, seq, d) -> (rows, hidden).
  const std::int64_t seq = attn_dims_.seq_len;
  const std::int64_t heads = attn_dims_.heads;
  const std::int64_t d = attn_dims_.head_size;
  TensorH out(Shape{attn_dims_.batch * seq, hidden_});
  parallel_for(0, attn_dims_.batch * seq, [&](std::int64_t row) {
    const std::int64_t b = row / seq;
    const std::int64_t s = row % seq;
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t e = 0; e < d; ++e) {
        out.at(row, h * d + e) = ctx.at(b * heads + h, s, e);
      }
    }
  });
  return out;
}

void FunctionalExecutor::run_op(std::int64_t id,
                                std::vector<TensorH>& values) {
  const auto& node = graph_.node(id);
  // Per-op accounting: one deterministic counter plus a wall-clock timer
  // keyed by operator kind.  The name is only built when telemetry is on.
  std::optional<telemetry::ScopedTimer> op_timer;
  if (telemetry::enabled()) {
    telemetry::count("sim.exec.ops_run");
    telemetry::count("sim.exec.op." + graph::to_string(node.kind) + ".calls");
    op_timer.emplace("wall.exec.op." + graph::to_string(node.kind) + "_us");
  }
  const auto& nw = weights_.at(id);
  const auto prev = [&]() -> const TensorH& {
    STOF_EXPECTS(id > 0, "operator needs an input value");
    return values[static_cast<std::size_t>(id) - 1];
  };
  const std::int64_t seq = attn_dims_.seq_len;

  switch (node.kind) {
    case graph::OpKind::kInput:
      STOF_CHECK(values[0].numel() > 0, "input value must be provided");
      return;
    case graph::OpKind::kScoreGemm: {
      // Detached attention path: split QKV, materialize scaled scores.
      TensorH q, k, v;
      split_qkv(prev(), q, k, v);
      attn_q_ = std::move(q);
      attn_k_ = std::move(k);
      attn_v_ = std::move(v);
      const float scale = attn_dims_.scale();
      const TensorH& aq = *attn_q_;
      const TensorH& ak = *attn_k_;
      TensorH scores(Shape{attn_dims_.instances() * seq, seq});
      parallel_for(0, attn_dims_.instances() * seq, [&](std::int64_t row) {
        const std::int64_t bh = row / seq;
        const std::int64_t i = row % seq;
        for (std::int64_t j = 0; j < seq; ++j) {
          float dot = 0;
          for (std::int64_t e = 0; e < attn_dims_.head_size; ++e) {
            dot += float(aq.at(bh, i, e)) * float(ak.at(bh, j, e));
          }
          scores.at(row, j) = half(dot * scale);
        }
      });
      values[static_cast<std::size_t>(id)] = std::move(scores);
      return;
    }
    case graph::OpKind::kMaskApply: {
      const auto& mask = cache_.mask();
      TensorH scores = prev();  // copy, then mask in place
      parallel_for(0, scores.shape()[0], [&](std::int64_t row) {
        const std::int64_t i = row % seq;
        for (std::int64_t j = 0; j < seq; ++j) {
          if (!mask.at(i, j)) scores.at(row, j) = half(kNegInf);
        }
      });
      values[static_cast<std::size_t>(id)] = std::move(scores);
      return;
    }
    case graph::OpKind::kSoftmax: {
      const auto& scores = prev();
      TensorH probs(scores.shape());
      parallel_for(0, scores.shape()[0], [&](std::int64_t row) {
        float max_v = kNegInf;
        for (std::int64_t j = 0; j < seq; ++j) {
          max_v = std::max(max_v, float(scores.at(row, j)));
        }
        if (max_v == kNegInf) {  // fully masked row
          for (std::int64_t j = 0; j < seq; ++j) probs.at(row, j) = half(0.0f);
          return;
        }
        float sum = 0;
        std::vector<float> e(static_cast<std::size_t>(seq));
        for (std::int64_t j = 0; j < seq; ++j) {
          const float s = float(scores.at(row, j));
          e[static_cast<std::size_t>(j)] =
              s == kNegInf ? 0.0f : std::exp(s - max_v);
          sum += e[static_cast<std::size_t>(j)];
        }
        for (std::int64_t j = 0; j < seq; ++j) {
          probs.at(row, j) = half(e[static_cast<std::size_t>(j)] / sum);
        }
      });
      values[static_cast<std::size_t>(id)] = std::move(probs);
      return;
    }
    case graph::OpKind::kPvGemm: {
      STOF_CHECK(attn_v_.has_value(), "PvGemm before ScoreGemm");
      const auto& probs = prev();
      const TensorH& av = *attn_v_;
      const std::int64_t heads = attn_dims_.heads;
      const std::int64_t d = attn_dims_.head_size;
      TensorH out(Shape{attn_dims_.batch * seq, hidden_});
      parallel_for(0, attn_dims_.batch * seq, [&](std::int64_t row) {
        const std::int64_t b = row / seq;
        const std::int64_t s = row % seq;
        for (std::int64_t h = 0; h < heads; ++h) {
          const std::int64_t bh = b * heads + h;
          for (std::int64_t e = 0; e < d; ++e) {
            float acc = 0;
            for (std::int64_t j = 0; j < seq; ++j) {
              acc += float(probs.at(bh * seq + s, j)) * float(av.at(bh, j, e));
            }
            out.at(row, h * d + e) = half(acc);
          }
        }
      });
      values[static_cast<std::size_t>(id)] = std::move(out);
      return;
    }
    default: {  // the row-local operators; fused kinds are rejected there
      const TensorH* skip =
          node.kind == graph::OpKind::kResidualAdd
              ? &values[static_cast<std::size_t>(node.skip_from)]
              : nullptr;
      TensorH y(Shape{prev().shape()[0], node.cols});
      run_row_op(node, nw, prev(), skip, y);
      values[static_cast<std::size_t>(id)] = std::move(y);
      return;
    }
  }
}

void FunctionalExecutor::run_segment(const fusion::Segment& seg,
                                     std::vector<TensorH>& values) {
  const auto kind = fusion::classify_segment(graph_, seg);
  if (kind == fusion::TemplateKind::kUnifiedMha) {
    const auto& qkv = values[static_cast<std::size_t>(seg.begin) - 1];
    values[static_cast<std::size_t>(seg.end) - 1] = run_fused_mha(qkv);
    return;
  }
  // Every downstream fused template is semantics-preserving (proven
  // per-template in the ops tests), so fused segments evaluate
  // operator-by-operator; only MHA segments switch kernels.
  for (std::int64_t i = seg.begin; i < seg.end; ++i) run_op(i, values);
}

TensorH FunctionalExecutor::run(const TensorH& input,
                                const ExecutionPlan& plan) {
  STOF_EXPECTS(plan.scheme.n_ops() ==
                   static_cast<std::int64_t>(graph_.size()),
               "plan must cover the graph");
  const auto& in_node = graph_.node(0);
  STOF_EXPECTS(input.shape() == (Shape{in_node.rows, in_node.cols}),
               "input must match the graph's input node");

  telemetry::count("sim.exec.forward_calls");
  telemetry::ScopedTimer timer("wall.exec.forward_us");
  std::vector<TensorH> values(graph_.size());
  values[0] = input;
  for (const auto& seg : plan.scheme.segments()) run_segment(seg, values);
  attn_q_.reset();
  attn_k_.reset();
  attn_v_.reset();
  return values.back();
}

TensorH FunctionalExecutor::run_detached(const TensorH& input) {
  ExecutionPlan detached;
  detached.scheme = fusion::FusionScheme::detached(
      static_cast<std::int64_t>(graph_.size()));
  return run(input, detached);
}

}  // namespace stof::models
