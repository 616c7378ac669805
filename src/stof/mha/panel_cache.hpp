// FP32 K/V panel cache for the packed attention kernels.
//
// The block-wise kernel visits every valid (Q-block row, K/V block) pair,
// so without a cache each K/V tile is converted half->float once per
// Q-block row that loads it — a rows()-fold redundancy (the CPU analogue
// of the redundant wmma format conversions Fused3S eliminates on tensor
// cores).  KvPanelCache converts each K/V *instance* at most once per
// kernel call, in parallel across instances:
//
//   * K is optionally stored transposed (d x seq) so the block-wise QK^T
//     saxpy micro-kernel streams a row of keys unit-stride per Q element
//     (the row-wise kernel keeps K row-major, since it dots whole K rows);
//   * V is always row-major (seq x d): the PV product consumes whole V
//     rows per key column, unit-stride in both kernels.
//
// The cache owns its panels: it converts them at construction and frees
// them with itself.  A caller that runs several kernels over the same K/V
// builds one cache and passes it as `shared_panels` (the varlen wrapper
// does this for its batch); otherwise each kernel call builds its own.
//
// Conversion uses the exact half->float table, so cached panels carry the
// same values the scalar path reads element-wise — caching cannot perturb
// the bit-identity contract.  Panels are always FP32: prefill attention
// has one precision (quantized K/V lives only in the serving pool's decode
// sidecar).  Each construction counts its panels in
// `exec.mha.panels_converted` (one K and one V panel per instance) and
// its destination bytes in `exec.panelcache.bytes_converted` (2 B per
// element).  Every accessor checks its instance
// index against the instance count the cache was built for.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"

namespace stof::mha {

class KvPanelCache {
 public:
  /// Make the `kv_instances` float panels of `k` and `v` available (each
  /// instance is a contiguous (seq x d) half panel).  `transpose_k`
  /// selects the (d x seq) K layout used by the block-wise QK^T
  /// micro-kernel.
  KvPanelCache(const TensorH& k, const TensorH& v, std::int64_t kv_instances,
               std::int64_t seq, std::int64_t head_size, bool transpose_k);

  /// K panel of instance `kv` in row-major (seq x d) layout.
  /// Precondition: constructed with transpose_k == false.
  [[nodiscard]] const float* k_panel(std::int64_t kv) const;
  /// Transposed K panel of instance `kv`: d rows of `seq` contiguous
  /// key columns.  Precondition: constructed with transpose_k == true.
  [[nodiscard]] const float* kt_panel(std::int64_t kv) const;
  /// V panel of instance `kv`: seq x d, row-major.
  [[nodiscard]] const float* v_panel(std::int64_t kv) const;

  [[nodiscard]] std::int64_t instances() const { return instances_; }
  [[nodiscard]] std::int64_t seq() const { return seq_; }
  [[nodiscard]] std::int64_t head_size() const { return d_; }

 private:
  /// Offset of instance `kv`'s panel; checks 0 <= kv < instances().
  [[nodiscard]] std::size_t panel_offset(std::int64_t kv) const;

  std::int64_t instances_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t d_ = 0;
  bool transposed_k_ = false;
  std::vector<float> k_;
  std::vector<float> v_;
};

}  // namespace stof::mha
