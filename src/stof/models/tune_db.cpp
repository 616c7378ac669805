#include "stof/models/tune_db.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "stof/core/checksum.hpp"
#include "stof/models/plan_io.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::models {

namespace {

/// Fold a trivially-copyable value into an FNV-1a chain by its bytes.
template <typename T>
std::uint64_t fold(const T& v, std::uint64_t h) {
  return fnv1a64(&v, sizeof(v), h);
}

}  // namespace

std::int64_t shape_bucket(std::int64_t rows) {
  STOF_EXPECTS(rows >= 1, "shape bucket needs at least one row");
  std::int64_t b = 1;
  while (b < rows) b <<= 1;
  return b;
}

std::uint64_t graph_fingerprint(const graph::Graph& g) {
  std::uint64_t h = kFnv1aOffset;
  const auto n = static_cast<std::int64_t>(g.size());
  h = fold(n, h);
  for (const auto& node : g.nodes()) {
    const int kind = static_cast<int>(node.kind);
    h = fold(kind, h);
    h = fold(node.rows, h);
    h = fold(node.cols, h);
    h = fold(node.inner, h);
    h = fold(node.skip_from, h);
  }
  return h;
}

std::uint64_t device_fingerprint(const gpusim::DeviceSpec& dev) {
  std::uint64_t h = fnv1a64(dev.name.data(), dev.name.size());
  h = fold(dev.sm_count, h);
  h = fold(dev.smem_per_sm, h);
  h = fold(dev.max_warps_per_sm, h);
  h = fold(dev.warp_size, h);
  h = fold(dev.dram_bytes, h);
  h = fold(dev.dram_gbps, h);
  h = fold(dev.l2_bytes, h);
  h = fold(dev.smem_bytes_per_cycle_per_sm, h);
  h = fold(dev.tc_fp16_tflops, h);
  h = fold(dev.cuda_fp32_tflops, h);
  h = fold(dev.clock_ghz, h);
  h = fold(dev.launch_overhead_us, h);
  h = fold(dev.dispatch_overhead_us, h);
  return h;
}

TuneDb::TuneDb(std::string dir) : dir_(std::move(dir)) {
  STOF_EXPECTS(!dir_.empty(), "tuning DB needs a directory");
  // A directory that cannot be created acts as an empty, unwritable DB:
  // every load misses and every store counts a failure.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string TuneDb::path_for(const TuneKey& key) const {
  std::ostringstream name;
  name << "g" << std::hex << std::setfill('0') << std::setw(16)
       << key.graph_hash << "_d" << std::setw(16) << key.device_fp << "_r"
       << std::dec << key.bucket_rows << ".stofplan";
  return (std::filesystem::path(dir_) / name.str()).string();
}

std::optional<ExecutionPlan> TuneDb::load(const TuneKey& key,
                                          std::int64_t expect_ops) {
  const std::string path = path_for(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    telemetry::count("tunedb.misses");
    return std::nullopt;
  }
  try {
    ExecutionPlan plan = load_plan_file(path);
    STOF_CHECK(plan.scheme.n_ops() == expect_ops,
               "stored plan does not match the graph's op count");
    telemetry::count("tunedb.hits");
    return plan;
  } catch (const Error&) {
    // Truncated, bit-flipped, or otherwise invalid file: report a miss so
    // the caller retunes (and overwrites the bad entry via store()).
    telemetry::count("tunedb.verify_failures");
    telemetry::count("tunedb.misses");
    return std::nullopt;
  }
}

void TuneDb::store(const TuneKey& key, const ExecutionPlan& plan) {
  // Write a private temp file next to the target, then rename it over the
  // target: readers see the old entry or the new one, never a torn file.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(next_tmp++);
  std::ostringstream body;
  save_plan(plan, body);
  std::ofstream os(tmp);  // stream failures set failbit, never throw
  os << body.str();
  os.close();
  std::error_code ec;
  if (!os.fail()) std::filesystem::rename(tmp, path, ec);
  if (os.fail() || ec) {
    std::filesystem::remove(tmp, ec);
    telemetry::count("tunedb.store_failures");
    return;
  }
  telemetry::count("tunedb.store_writes");
}

}  // namespace stof::models
