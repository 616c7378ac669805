// Batched single-token decode attention over a paged KV cache (extension).
//
// Autoregressive generation issues one query row per step against the
// cached keys/values of the context.  The paper's conclusion points at
// "other DNN scenarios"; this is the decode-side one: the step's attendable
// context positions come from the last row of the (ctx+1)-token mask, and
// the kernel streams them page by page in the block-wise kernel's softmax
// update order, so serving has one decode kernel for every batch shape.
#pragma once

#include <span>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/attention.hpp"

namespace stof::mha {

/// The context positions a new token attends to: the valid columns of the
/// query row `row` of `mask`, restricted to [0, context_len).
std::vector<std::int32_t> decode_columns(const masks::Mask& mask,
                                         std::int64_t row,
                                         std::int64_t context_len);

/// One side (K or V) of one KV page in sidecar form, mirroring the half
/// page's (block_tokens, heads, head_size) row-major layout.  The owning
/// KvSidecar's precision says which pointers are set.
struct SidecarPanel {
  const float* f32 = nullptr;       ///< kFloat32: exact FP32 values
  const std::int8_t* i8 = nullptr;  ///< kInt8: symmetric codes
  const float* scales = nullptr;    ///< kInt8: one scale per token row
};

/// One KV page's sidecar panels.
struct SidecarPage {
  SidecarPanel k;
  SidecarPanel v;
};

/// A sequence's KV pages converted once, when their rows were appended
/// (the KV pool's decode sidecar), one page per KV block:
///   * kFloat32 holds the exact half->float conversion, so every score and
///     PV term is the float the scalar path computes — bit-identical;
///   * kInt8 holds symmetric codes with one scale per token row (a
///     heads*head_size quantization group), so codes depend only on that
///     row and decode stays deterministic under incremental page fill.
///     Scores and PV run as exact int32 dot products with a float
///     epilogue: deterministic across ISAs, *not* bit-identical to FP32,
///     which is why the serving engine gates it behind its kv-precision
///     policy.
struct KvSidecar {
  core::PanelPrecision precision = core::PanelPrecision::kFloat32;
  std::span<const SidecarPage> pages;
};

/// One sequence's view of a paged KV-cache for a batched decode step.
///
/// Block i holds positions [i*block_tokens, (i+1)*block_tokens); each block
/// is (block_tokens, heads, head_size) row-major half, so a serving KV pool
/// can hand out non-contiguous fixed-size pages without gathering.
struct PagedSeq {
  std::int64_t context_len = 0;   ///< cached tokens this query may see
  std::int64_t block_tokens = 0;  ///< positions per KV block (power of two)
  std::span<const half* const> k_blocks;
  std::span<const half* const> v_blocks;
  /// Attendable positions, ascending, all in [0, context_len).
  std::span<const std::int32_t> cols;
  /// The pages the packed path reads; must cover the first context_len
  /// rows.  The scalar path reads the half blocks and ignores it.
  KvSidecar sidecar;

  void validate(std::int64_t heads, std::int64_t head_size) const;
};

/// Batched ragged decode: q is (seqs.size()*heads, 1, head_size), sequence
/// s owning query instances [s*heads, (s+1)*heads); returns the same shape.
/// Every (sequence, head) instance is independent, so results do not depend
/// on how sequences are batched together.  In packed mode every sequence
/// must carry a sidecar; the scalar path is the bit-identity reference.
/// An empty column list yields zeros.
///
/// The context is streamed block-by-block with the block-wise kernel's
/// streaming-softmax update order (block max, correction, ascending-column
/// weight sum, then the PV accumulate).  Masked columns inside a visited
/// block contribute exact zeros there, so a chain of single-token paged
/// decode steps is bit-identical to one full-sequence blockwise pass over
/// the same mask when block_tokens == BLOCK_N — the invariant the serving
/// engine's preemption/recompute path relies on.
TensorH decode_attention_paged(std::int64_t heads, std::int64_t head_size,
                               std::span<const PagedSeq> seqs,
                               const TensorH& q);

/// Simulated cost of one batched paged-decode kernel launch over sequences
/// with the given attended-column counts (one warp per (seq, head)).
gpusim::KernelCost decode_batched_cost(std::int64_t heads,
                                       std::int64_t head_size,
                                       std::span<const std::int64_t> valid_cols,
                                       const gpusim::DeviceSpec& dev);

/// Simulated cost of one speculative *verification* launch: sequence s
/// contributes `seq_rows[s]` consecutive query rows (the true token plus
/// its drafts), with `valid_cols` holding the per-row attended-column
/// counts flattened in the same order (sum(seq_rows) == valid_cols.size()).
/// Math and q/output traffic are charged per row, exactly as
/// decode_batched_cost; KV-page DRAM traffic is charged once per sequence
/// at the row maximum — the verify rows attend nested prefixes of the same
/// context, so rows past the first are L2/SMEM hits, which is the
/// bandwidth saving that makes one k-row verification launch cheaper than
/// k sequential decode launches.
gpusim::KernelCost decode_verify_cost(std::int64_t heads,
                                      std::int64_t head_size,
                                      std::span<const std::int64_t> valid_cols,
                                      std::span<const std::int64_t> seq_rows,
                                      const gpusim::DeviceSpec& dev);

}  // namespace stof::mha
