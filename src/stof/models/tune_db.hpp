// Persistent on-disk tuning database.
//
// The two-stage search (tuner/search_engine) is a model-load-time cost; a
// deployment re-loading the same model on the same device class should not
// pay it twice.  TuneDb persists tuned ExecutionPlans as one checksummed
// STOFPLAN v2 file per key, where the key is
//
//   (graph fingerprint, shape bucket, device fingerprint)
//
//   * graph fingerprint — FNV-1a over the linearized operator sequence
//     (kind + logical dims + skip edges), so two structurally identical
//     graphs share plans and any structural change misses;
//   * shape bucket — activation row counts quantized to the next power of
//     two, so a decode batch of 24 and one of 31 share a plan while decode
//     (small buckets) and prefill (large buckets) tune separately;
//   * device fingerprint — FNV-1a over every DeviceSpec field, so a plan
//     tuned for an A100 never drives an RTX 4090 timeline.
//
// load() verifies the file's checksum (via plan_io) and its op count
// against the graph before returning; any corruption or mismatch counts a
// `tunedb.verify_failures` and reports a miss, which makes the caller fall
// back to retuning — a corrupt DB costs time, never correctness.
//
// store() writes a temp file in the directory and renames it over the
// entry, so a reader never sees a torn file; an unwritable directory
// counts a `tunedb.store_failures` and leaves the plan in memory only.
// TuneDb never throws on I/O.
//
// Telemetry: `tunedb.{hits,misses,store_writes,store_failures,
// verify_failures}`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "stof/gpusim/device.hpp"
#include "stof/graph/graph.hpp"
#include "stof/models/executor.hpp"

namespace stof::models {

/// Cache key of one tuned plan.
struct TuneKey {
  std::uint64_t graph_hash = 0;
  std::int64_t bucket_rows = 0;
  std::uint64_t device_fp = 0;
};

/// Next power of two >= rows (minimum 1): the shape-bucket quantizer.
[[nodiscard]] std::int64_t shape_bucket(std::int64_t rows);

/// Structural fingerprint of a linearized graph.
[[nodiscard]] std::uint64_t graph_fingerprint(const graph::Graph& g);

/// Fingerprint of every DeviceSpec field that feeds the cost model.
[[nodiscard]] std::uint64_t device_fingerprint(const gpusim::DeviceSpec& dev);

class TuneDb {
 public:
  /// Opens (creating if possible) the database directory.
  explicit TuneDb(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// File path that stores (or would store) `key`'s plan.
  [[nodiscard]] std::string path_for(const TuneKey& key) const;

  /// Look `key` up.  Returns the stored plan iff the file exists, its
  /// checksum verifies, and its op count equals `expect_ops`; nullopt
  /// otherwise (callers retune).  Counts tunedb.hits / tunedb.misses /
  /// tunedb.verify_failures.
  [[nodiscard]] std::optional<ExecutionPlan> load(const TuneKey& key,
                                                  std::int64_t expect_ops);

  /// Persist `plan` under `key` (atomically replaces any entry).  Counts
  /// tunedb.store_writes, or tunedb.store_failures when the directory is
  /// not writable; never throws.
  void store(const TuneKey& key, const ExecutionPlan& plan);

 private:
  std::string dir_;
};

}  // namespace stof::models
