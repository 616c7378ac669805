// Test fixture: a contiguous (seqs*heads, ctx, d) K/V cache laid out as the
// KV pages mha::decode_attention_paged reads — per sequence, blocks of
// (block_tokens, heads, d) halfs — plus the FP32 sidecar of those pages.
#pragma once

#include <cstdint>
#include <span>
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

}  // namespace stof::mha::testing
