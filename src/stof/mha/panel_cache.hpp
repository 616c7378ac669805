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
// the bit-identity contract.  Each construction counts its panels in
// `exec.mha.panels_converted` (one K and one V panel per instance) and
// its destination bytes in `exec.panelcache.bytes_converted` (2 B per
// element for FP32, 1 B for INT8).
//
// INT8 tier (precision == kInt8): panels are quantized instead of
// converted — symmetric int8 codes with one scale per (seq x d) instance
// panel, the layout otherwise unchanged.  Codes are a pure function of the
// half source, quantized once per cache, so INT8 attention is
// deterministic across ISAs and call schedules; it is not bit-identical
// to FP32, which is why call sites opt in via BlockwiseParams.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/core/tensor.hpp"

namespace stof::mha {

class KvPanelCache {
 public:
  /// Make the `kv_instances` float panels of `k` and `v` available (each
  /// instance is a contiguous (seq x d) half panel).  `transpose_k`
  /// selects the (d x seq) K layout used by the block-wise QK^T
  /// micro-kernel.
  KvPanelCache(const TensorH& k, const TensorH& v, std::int64_t kv_instances,
               std::int64_t seq, std::int64_t head_size, bool transpose_k,
               core::PanelPrecision precision =
                   core::PanelPrecision::kFloat32);

  /// Storage tier this cache was built at.  Float accessors require
  /// kFloat32; int8 accessors require kInt8.
  [[nodiscard]] core::PanelPrecision precision() const { return precision_; }

  /// K panel of instance `kv` in row-major (seq x d) layout.
  /// Precondition: constructed with transpose_k == false.
  [[nodiscard]] const float* k_panel(std::int64_t kv) const;
  /// Transposed K panel of instance `kv`: d rows of `seq` contiguous
  /// key columns.  Precondition: constructed with transpose_k == true.
  [[nodiscard]] const float* kt_panel(std::int64_t kv) const;
  /// V panel of instance `kv`: seq x d, row-major.
  [[nodiscard]] const float* v_panel(std::int64_t kv) const {
    STOF_EXPECTS(precision_ == core::PanelPrecision::kFloat32,
                 "cache holds int8 panels");
    return v_.data() + kv * seq_ * d_;
  }

  /// INT8 transposed K panel of instance `kv` (layout as kt_panel) and its
  /// per-instance scale.  Precondition: kInt8 precision, transpose_k.
  [[nodiscard]] const std::int8_t* kt_panel_i8(std::int64_t kv) const;
  /// INT8 V panel of instance `kv` (seq x d, row-major) and its scale.
  [[nodiscard]] const std::int8_t* v_panel_i8(std::int64_t kv) const;
  [[nodiscard]] float k_scale(std::int64_t kv) const;
  [[nodiscard]] float v_scale(std::int64_t kv) const;

  [[nodiscard]] std::int64_t seq() const { return seq_; }
  [[nodiscard]] std::int64_t head_size() const { return d_; }

 private:
  std::int64_t seq_ = 0;
  std::int64_t d_ = 0;
  bool transposed_k_ = false;
  core::PanelPrecision precision_ = core::PanelPrecision::kFloat32;
  std::vector<float> k_;  ///< FP32 panels (kFloat32 only)
  std::vector<float> v_;
  std::vector<std::int8_t> k8_;  ///< INT8 codes (kInt8 only)
  std::vector<std::int8_t> v8_;
  std::vector<float> k_scales_;  ///< one scale per instance (kInt8 only)
  std::vector<float> v_scales_;
};

}  // namespace stof::mha
