#include "stof/serve/digest_fold.hpp"

#include <algorithm>
#include <cstring>

#include "stof/core/checksum.hpp"
#include "stof/serve/kv_pool.hpp"

namespace stof::serve {

DigestFolder::DigestFolder(const ModelSpec& model, std::int64_t heads,
                           std::int64_t head_size, std::int64_t block_tokens,
                           const gpusim::DeviceSpec& device)
    : width_(heads * head_size), block_tokens_(block_tokens) {
  if (model.enabled()) {
    head_ = std::make_unique<ModelRuntime>(model, heads, head_size, device,
                                           /*with_weights=*/true);
  }
}

std::uint64_t DigestFolder::template_key(const Request& r,
                                         std::int64_t tokens) const {
  std::uint64_t h = kFnv1aOffset;
  for (std::int64_t b = 0; b * block_tokens_ < tokens; ++b) {
    const std::int64_t end = std::min((b + 1) * block_tokens_, tokens);
    const std::uint64_t pk = PrefixIndex::page_key(r, b * block_tokens_, end);
    h = fnv1a64(&pk, sizeof(pk), h);
  }
  const int mk = static_cast<int>(r.mask_kind);
  return fnv1a64(&mk, sizeof(mk), h);
}

void DigestFolder::fold(
    std::span<const RowKey> rows, std::span<const half> data,
    const SessionTable& sessions,
    const std::function<std::uint64_t&(SessionId)>& chain) {
  STOF_EXPECTS(data.size() == rows.size() * static_cast<std::size_t>(width_),
               "output rows must be model width");
  if (rows.empty()) return;
  TensorH transformed;
  if (head_ != nullptr) {
    transformed = TensorH(
        Shape{static_cast<std::int64_t>(rows.size()), width_});
    std::memcpy(transformed.data().data(), data.data(), data.size_bytes());
    head_->transform_rows(transformed);
    data = transformed.data();
  }
  const auto w = static_cast<std::size_t>(width_);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto [id, pos] = rows[j];
    const Session& s = sessions.at(id);
    const Request& r = s.request;
    std::uint64_t& value = chain(id);
    if (pos == s.first_folded) {
      value = kFnv1aOffset;
      if (pos > 0) {
        STOF_CHECK(pos <= r.template_len,
                   "a first fold past 0 must sit inside an adopted template");
        const auto it = template_chain_.find(template_key(r, pos));
        STOF_CHECK(it != template_chain_.end(),
                   "adopted prefix must have a recorded chain value");
        value = it->second;
      }
    }
    value = fnv1a64(data.data() + j * w, w * sizeof(half), value);
    if (pos < r.template_len &&
        ((pos + 1) % block_tokens_ == 0 || pos + 1 == r.template_len)) {
      template_chain_[template_key(r, pos + 1)] = value;
    }
  }
}

}  // namespace stof::serve
