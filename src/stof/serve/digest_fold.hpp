// Digest folding: the one place served attention-output rows become
// per-session digests.
//
// A step hands over its output rows in fold order — (session, position)
// keys plus the rows back to back at full model width.  The folder applies
// the layer head when a model is configured (ModelRuntime::transform_rows,
// per-row pure, so how rows batch into steps never changes a byte), then
// folds each row into its session's FNV-1a chain.  Every position folds
// exactly once, in position order, so a digest matches across scheduling
// modes, preemption and recompute, speculation, and tensor-parallel widths
// iff every output byte does.
//
// A session that adopted a shared template prefix first folds at pos > 0:
// positions [0, pos) were never computed for it.  Its chain starts from
// the value recorded when some earlier session folded those same template
// positions.  The record is content-keyed (the PrefixIndex page-key chain
// plus the mask kind, which the outputs also depend on) and taken after
// each template page's last row and after the template end — the only
// places a prefix match can stop.  Entries are pure functions of template
// content, so they are never invalidated.
//
// An unsharded Engine owns a folder and folds into Session::digest.  A
// cluster::Cluster owns one for all of its head shards, which never fold:
// it assembles each step's full-width rows from the shards' outcomes and
// folds them into Cluster::digests().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "stof/core/half.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/serve/session.hpp"

namespace stof::serve {

/// Where one output row belongs: its session and context position.
struct RowKey {
  SessionId id = 0;
  std::int64_t pos = 0;
  friend bool operator==(const RowKey&, const RowKey&) = default;
};

class DigestFolder {
 public:
  /// `heads` is the full model head count.  With `model` enabled the
  /// folder builds the full-width layer head (a ModelRuntime with
  /// weights); otherwise rows fold as they come.
  DigestFolder(const ModelSpec& model, std::int64_t heads,
               std::int64_t head_size, std::int64_t block_tokens,
               const gpusim::DeviceSpec& device);

  /// Fold one step's rows: `rows[j]` is stored at
  /// data[j * heads * head_size, ...).  `chain(id)` is the chain value
  /// session `id` folds into; it is seeded at the session's first folded
  /// row (pos == Session::first_folded, looked up in `sessions`).
  void fold(std::span<const RowKey> rows, std::span<const half> data,
            const SessionTable& sessions,
            const std::function<std::uint64_t&(SessionId)>& chain);

 private:
  /// Content key of the first `tokens` positions of `r`'s template.
  [[nodiscard]] std::uint64_t template_key(const Request& r,
                                           std::int64_t tokens) const;

  std::int64_t width_ = 0;
  std::int64_t block_tokens_ = 0;
  std::unique_ptr<ModelRuntime> head_;  ///< null without a model
  /// template_key -> chain value after folding those positions.
  std::map<std::uint64_t, std::uint64_t> template_chain_;
};

}  // namespace stof::serve
