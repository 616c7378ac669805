// Functional end-to-end execution of a model graph.
//
// The cost-model Executor answers "how long does this plan take"; the
// FunctionalExecutor answers "what does this plan compute".  It owns a
// deterministic random weight set for every parameterised node, propagates
// real FP16 tensors through the graph, and executes each segment of an
// ExecutionPlan with the matching fused implementation where one exists
// (unified MHA kernels, fused Bias+LayerNorm, GEMM epilogues, GEMM chains)
// or operator-by-operator otherwise.  Because every fused implementation is
// semantics-preserving, any two plans over the same graph must produce the
// same output up to FP16 rounding — the invariant the integration tests
// assert for every method's plan.
//
// Tensor conventions:
//   * node values are (rows, cols) FP16 tensors in the node's dims;
//   * kQkvProj produces (rows, 3*hidden) packed as [Q | K | V];
//   * inside the MHA sub-graph, scores are (batch*heads*seq, seq) and the
//     kPvGemm output is re-packed to (rows, hidden).
#pragma once

#include <map>
#include <optional>

#include "stof/core/tensor.hpp"
#include "stof/graph/graph.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"
#include "stof/models/executor.hpp"
#include "stof/ops/gemm.hpp"
#include "stof/sparse/bsr_cache.hpp"

namespace stof::models {

/// Weights of one parameterised node.
struct NodeWeights {
  ops::GemmWeight w;  ///< GEMM weight (inner, cols); empty for non-GEMM nodes
  TensorH bias;       ///< kBias vector (cols)
  TensorH gamma;      ///< kLayerNorm scale (cols)
  TensorH beta;       ///< kLayerNorm shift (cols)
};

/// One row-local operator — GEMM, bias, GELU, ReLU, residual add (with
/// `skip`) or LayerNorm — from `in` into a preshaped `out`, which may alias
/// `in` for every kind but the GEMMs.  Shared by FunctionalExecutor's
/// detached path and serve::ModelRuntime's layer head.
void run_row_op(const graph::Node& node, const NodeWeights& w,
                const TensorH& in, const TensorH* skip, TensorH& out);

/// Functional (numerics-producing) executor over one graph + mask.
class FunctionalExecutor {
 public:
  /// Weights are generated deterministically from `seed` per node id.
  FunctionalExecutor(graph::Graph g, mha::MhaDims attn_dims,
                     masks::MaskSpec mask_spec, std::uint64_t seed = 1234);

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const masks::Mask& mask() const { return cache_.mask(); }

  /// Execute the graph under `plan`. `input` is (batch*seq_len, hidden).
  /// Returns the final node's value.
  TensorH run(const TensorH& input, const ExecutionPlan& plan);

  /// Convenience: execute fully detached (the numerical reference).
  TensorH run_detached(const TensorH& input);

  /// Weights of node `id` (exposed for white-box tests).
  [[nodiscard]] const NodeWeights& weights(std::int64_t id) const;

 private:
  /// Execute one segment given the values of prior nodes.
  void run_segment(const fusion::Segment& seg,
                   std::vector<TensorH>& values);

  /// Execute a single operator (the detached path).
  void run_op(std::int64_t id, std::vector<TensorH>& values);

  /// Execute a complete MHA sub-graph with the unified sparse kernel.
  TensorH run_fused_mha(const TensorH& qkv);

  /// Split the packed (rows, 3h) QKV tensor into (b*h, seq, d) tensors.
  void split_qkv(const TensorH& qkv, TensorH& q, TensorH& k,
                 TensorH& v) const;

  graph::Graph graph_;
  mha::MhaDims attn_dims_;
  std::int64_t hidden_ = 0;
  sparse::BsrCache cache_;
  std::map<std::int64_t, NodeWeights> weights_;

  // Transient per-run state for the detached MHA path.
  std::optional<TensorH> attn_q_, attn_k_, attn_v_;
};

}  // namespace stof::models
