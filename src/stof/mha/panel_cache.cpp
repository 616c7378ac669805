#include "stof/mha/panel_cache.hpp"

#include <vector>

#include "stof/core/packed.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {
namespace {

/// Full convert-and-transpose of every instance panel: (seq x d) half in,
/// kv_instances contiguous (d x seq) float panels out.  Tiled so both the
/// strided reads and the contiguous writes stay cache-resident.
void convert_transposed(const TensorH& k, std::int64_t kv_instances,
                        std::int64_t seq, std::int64_t d, float* out) {
  const float* table = packed::h2f_table();
  const std::int64_t panel = seq * d;
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    const half* src = k.data().data() + kv * panel;
    float* dst = out + kv * panel;
    constexpr std::int64_t kT = 32;
    for (std::int64_t j0 = 0; j0 < seq; j0 += kT) {
      const std::int64_t j1 = std::min(seq, j0 + kT);
      for (std::int64_t e0 = 0; e0 < d; e0 += kT) {
        const std::int64_t e1 = std::min(d, e0 + kT);
        for (std::int64_t j = j0; j < j1; ++j) {
          for (std::int64_t e = e0; e < e1; ++e) {
            dst[e * seq + j] = table[src[j * d + e].bits()];
          }
        }
      }
    }
  });
}

/// Parallel row-major conversion of all instance panels.
void convert_row_major(const TensorH& t, std::int64_t kv_instances,
                       std::int64_t panel, float* out) {
  const auto n = static_cast<std::size_t>(panel);
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    const auto at = static_cast<std::size_t>(kv) * n;
    packed::half_to_float(t.data().subspan(at, n), {out + at, n});
  });
}

}  // namespace

KvPanelCache::KvPanelCache(const TensorH& k, const TensorH& v,
                           std::int64_t kv_instances, std::int64_t seq,
                           std::int64_t head_size, bool transpose_k,
                           core::PanelPrecision precision)
    : seq_(seq),
      d_(head_size),
      transposed_k_(transpose_k),
      precision_(precision) {
  const std::int64_t panel = seq_ * d_;
  const std::int64_t total = kv_instances * panel;
  STOF_EXPECTS(static_cast<std::int64_t>(k.data().size()) == total &&
                   k.data().size() == v.data().size(),
               "K/V storage must be kv_instances contiguous (seq x d) panels");
  const auto n = static_cast<std::size_t>(total);
  if (precision_ == core::PanelPrecision::kInt8) {
    // INT8 tier: one symmetric scale per instance panel, codes in the same
    // layout the float tier would use (K optionally transposed).  The
    // transposed K codes quantize a transposed float staging buffer so the
    // scale still covers exactly one instance's values.
    k8_.resize(n);
    v8_.resize(n);
    k_scales_.resize(static_cast<std::size_t>(kv_instances));
    v_scales_.resize(static_cast<std::size_t>(kv_instances));
    if (transpose_k) {
      std::vector<float> staged(n);
      convert_transposed(k, kv_instances, seq_, d_, staged.data());
      packed::quantize_floats(staged.data(), total, panel, k8_.data(),
                              k_scales_.data());
    } else {
      packed::quantize_halfs(k.data(), panel, k8_.data(), k_scales_.data());
    }
    packed::quantize_halfs(v.data(), panel, v8_.data(), v_scales_.data());
  } else {
    k_.resize(n);
    v_.resize(n);
    if (transpose_k) {
      convert_transposed(k, kv_instances, seq_, d_, k_.data());
    } else {
      convert_row_major(k, kv_instances, panel, k_.data());
    }
    convert_row_major(v, kv_instances, panel, v_.data());
  }
  telemetry::count("exec.mha.panels_converted", 2 * kv_instances);
  telemetry::count(
      "exec.panelcache.bytes_converted",
      (precision_ == core::PanelPrecision::kInt8 ? 2 : 4) * total);
}

const float* KvPanelCache::k_panel(std::int64_t kv) const {
  STOF_EXPECTS(!transposed_k_, "cache holds transposed K panels");
  STOF_EXPECTS(precision_ == core::PanelPrecision::kFloat32,
               "cache holds int8 panels");
  return k_.data() + kv * seq_ * d_;
}

const float* KvPanelCache::kt_panel(std::int64_t kv) const {
  STOF_EXPECTS(transposed_k_, "cache holds row-major K panels");
  STOF_EXPECTS(precision_ == core::PanelPrecision::kFloat32,
               "cache holds int8 panels");
  return k_.data() + kv * seq_ * d_;
}

const std::int8_t* KvPanelCache::kt_panel_i8(std::int64_t kv) const {
  STOF_EXPECTS(transposed_k_, "cache holds row-major K panels");
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return k8_.data() + kv * seq_ * d_;
}

const std::int8_t* KvPanelCache::v_panel_i8(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return v8_.data() + kv * seq_ * d_;
}

float KvPanelCache::k_scale(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return k_scales_[static_cast<std::size_t>(kv)];
}

float KvPanelCache::v_scale(std::int64_t kv) const {
  STOF_EXPECTS(precision_ == core::PanelPrecision::kInt8,
               "cache holds float panels");
  return v_scales_[static_cast<std::size_t>(kv)];
}

}  // namespace stof::mha
