// Test fixtures for paged decode: a contiguous (seqs*heads, ctx, d) K/V
// cache laid out as the KV pages mha::decode_attention_paged reads — per
// sequence, blocks of (block_tokens, heads, d) halfs — plus the FP32
// sidecar of those pages; and a fresh sidecar conversion of existing pages,
// the reference a KV pool's incrementally maintained sidecar must equal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "stof/core/packed.hpp"
#include "stof/mha/decode.hpp"

namespace stof::mha::testing {

class PagedKv {
 public:
  PagedKv(const TensorH& k, const TensorH& v, std::int64_t heads,
          std::int64_t block_tokens)
      : ctx_(k.shape()[1]), block_tokens_(block_tokens) {
    const std::int64_t num_seqs = k.shape()[0] / heads;
    const std::int64_t d = k.shape()[2];
    const std::int64_t blocks = (ctx_ + block_tokens - 1) / block_tokens;
    const std::int64_t page = block_tokens * heads * d;
    seqs_.resize(static_cast<std::size_t>(num_seqs));
    for (std::int64_t s = 0; s < num_seqs; ++s) {
      Seq& seq = seqs_[static_cast<std::size_t>(s)];
      seq.k.assign(static_cast<std::size_t>(blocks * page), half{});
      seq.v.assign(seq.k.size(), half{});
      for (std::int64_t pos = 0; pos < ctx_; ++pos) {
        for (std::int64_t h = 0; h < heads; ++h) {
          for (std::int64_t e = 0; e < d; ++e) {
            const auto dst = static_cast<std::size_t>(
                (pos / block_tokens) * page +
                ((pos % block_tokens) * heads + h) * d + e);
            seq.k[dst] = k.at(s * heads + h, pos, e);
            seq.v[dst] = v.at(s * heads + h, pos, e);
          }
        }
      }
      seq.kf.resize(seq.k.size());
      seq.vf.resize(seq.v.size());
      packed::half_to_float(seq.k, seq.kf);
      packed::half_to_float(seq.v, seq.vf);
      for (std::int64_t b = 0; b < blocks; ++b) {
        seq.k_blocks.push_back(seq.k.data() + b * page);
        seq.v_blocks.push_back(seq.v.data() + b * page);
        seq.pages.push_back(SidecarPage{{.f32 = seq.kf.data() + b * page},
                                        {.f32 = seq.vf.data() + b * page}});
      }
    }
  }

  /// One PagedSeq per sequence over the whole context, all attending
  /// `cols`; `with_sidecar` attaches the FP32 sidecar pages.
  [[nodiscard]] std::vector<PagedSeq> seqs(std::span<const std::int32_t> cols,
                                           bool with_sidecar = true) const {
    std::vector<PagedSeq> out;
    for (const Seq& s : seqs_) {
      out.push_back(PagedSeq{ctx_, block_tokens_, s.k_blocks, s.v_blocks, cols,
                             {}});
      if (with_sidecar) out.back().sidecar.pages = s.pages;
    }
    return out;
  }

 private:
  struct Seq {
    std::vector<half> k, v;
    std::vector<float> kf, vf;
    std::vector<const half*> k_blocks, v_blocks;
    std::vector<SidecarPage> pages;
  };
  std::int64_t ctx_ = 0;
  std::int64_t block_tokens_ = 0;
  std::vector<Seq> seqs_;
};

/// Exact fresh conversion of the first `tokens` rows of paged K/V blocks
/// (`row` halfs per token row) at `precision`: FP32 values, or INT8 codes
/// with one scale per token row.
class FreshSidecar {
 public:
  FreshSidecar(std::span<const half* const> k_blocks,
               std::span<const half* const> v_blocks, std::int64_t tokens,
               std::int64_t block_tokens, std::int64_t row,
               core::PanelPrecision precision)
      : precision_(precision), tokens_(tokens), block_tokens_(block_tokens),
        row_(row) {
    const auto page = static_cast<std::size_t>(block_tokens * row);
    for (std::size_t p = 0; p < k_blocks.size(); ++p) {
      for (const half* src : {k_blocks[p], v_blocks[p]}) {
        const std::span<const half> rows{src, valid_elems(p)};
        Panel& out = panels_.emplace_back();
        if (precision == core::PanelPrecision::kInt8) {
          out.i8.resize(page);
          out.scales.resize(static_cast<std::size_t>(block_tokens));
          packed::quantize_halfs(rows, row, out.i8.data(), out.scales.data());
        } else {
          out.f32.resize(page);
          packed::half_to_float(rows, {out.f32.data(), rows.size()});
        }
      }
    }
    for (std::size_t p = 0; p < k_blocks.size(); ++p) {
      pages_.push_back({view(panels_[2 * p]), view(panels_[2 * p + 1])});
    }
  }

  [[nodiscard]] KvSidecar sidecar() const { return {precision_, pages_}; }

  /// Whether `got` holds exactly this conversion in its first `tokens`
  /// rows (bit for bit: floats, codes and scales).
  [[nodiscard]] bool matches(const KvSidecar& got) const {
    if (got.precision != precision_ || got.pages.size() != pages_.size()) {
      return false;
    }
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      const std::size_t n = valid_elems(p);
      const std::size_t rows = n / static_cast<std::size_t>(row_);
      for (const auto& [want, have] :
           {std::pair{pages_[p].k, got.pages[p].k},
            std::pair{pages_[p].v, got.pages[p].v}}) {
        const bool same =
            precision_ == core::PanelPrecision::kInt8
                ? std::memcmp(want.i8, have.i8, n) == 0 &&
                      std::memcmp(want.scales, have.scales,
                                  rows * sizeof(float)) == 0
                : std::memcmp(want.f32, have.f32, n * sizeof(float)) == 0;
        if (!same) return false;
      }
    }
    return true;
  }

 private:
  struct Panel {
    std::vector<float> f32;
    std::vector<std::int8_t> i8;
    std::vector<float> scales;
  };
  static SidecarPanel view(const Panel& p) {
    return {p.f32.data(), p.i8.data(), p.scales.data()};
  }
  [[nodiscard]] std::size_t valid_elems(std::size_t page) const {
    const std::int64_t rows =
        std::min(block_tokens_,
                 tokens_ - static_cast<std::int64_t>(page) * block_tokens_);
    return static_cast<std::size_t>(rows * row_);
  }

  core::PanelPrecision precision_;
  std::int64_t tokens_;
  std::int64_t block_tokens_;
  std::int64_t row_;
  std::vector<Panel> panels_;
  std::vector<SidecarPage> pages_;
};

}  // namespace stof::mha::testing
