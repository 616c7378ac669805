#include "stof/cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "stof/cluster/sharding.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::cluster {

void ClusterConfig::validate() const {
  STOF_EXPECTS(devices >= 1, "a cluster needs at least one device");
  STOF_EXPECTS(engine.total_heads == 0 && engine.head_offset == 0,
               "the template engine config must be unsharded");
  STOF_EXPECTS(engine.heads >= devices,
               "every device needs at least one attention head");
  link.validate();
  engine.validate();
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      folder_(config_.engine.model, config_.engine.heads,
              config_.engine.head_size, config_.engine.block_tokens,
              config_.engine.device) {
  config_.validate();
  const std::int64_t total = config_.engine.heads;
  engines_.reserve(static_cast<std::size_t>(config_.devices));
  for (int dev = 0; dev < config_.devices; ++dev) {
    serve::EngineConfig ec = config_.engine;
    const HeadRange hr = head_range(total, config_.devices, dev);
    ec.heads = hr.count;
    ec.head_offset = hr.begin;
    ec.total_heads = total;
    engines_.push_back(std::make_unique<serve::Engine>(ec));
  }
  telemetry::gauge("cluster.devices", static_cast<double>(config_.devices));
}

serve::SessionId Cluster::submit(const serve::Request& request) {
  serve::SessionId id = 0;
  for (auto& e : engines_) id = e->submit(request);
  return id;
}

void Cluster::advance_to(double us) {
  for (auto& e : engines_) e->advance_to(us);
}

void Cluster::fold_rows(
    const std::vector<std::optional<serve::StepOutcome>>& outcomes) {
  const std::vector<serve::RowKey>& keys = outcomes[0]->rows;
  for (const auto& o : outcomes) {
    STOF_CHECK(o->rows == keys, "shard output-row streams diverged");
  }
  // Assemble the step's full-width rows: shard d holds heads
  // [head_range(d).begin, ...), so device-order concatenation is the
  // (head, dim) row a single-device engine emits for each position.
  const auto hd = static_cast<std::size_t>(config_.engine.heads *
                                           config_.engine.head_size);
  std::vector<half> full(keys.size() * hd);
  std::size_t off = 0;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    for (std::size_t dev = 0; dev < outcomes.size(); ++dev) {
      const auto w = static_cast<std::size_t>(
          engines_[dev]->config().heads * config_.engine.head_size);
      const half* row = outcomes[dev]->row_data.data() + j * w;
      std::copy(row, row + w, full.begin() + static_cast<std::ptrdiff_t>(off));
      off += w;
    }
    STOF_CHECK(off == (j + 1) * hd,
               "shard rows must tile the model width exactly");
  }
  folder_.fold(keys, full, engines_[0]->sessions(),
               [this](serve::SessionId id) -> std::uint64_t& {
                 return digests_[id];
               });
}

bool Cluster::step() {
  std::vector<std::optional<serve::StepOutcome>> outcomes;
  outcomes.reserve(engines_.size());
  for (auto& e : engines_) outcomes.push_back(e->execute_step());

  if (!outcomes[0].has_value()) {
    // Lock-step invariant: either every shard had work or none did.
    for (const auto& o : outcomes) {
      STOF_CHECK(!o.has_value(), "shard schedulers diverged (empty vs not)");
    }
    return false;
  }

  double max_us = 0;
  double min_us = std::numeric_limits<double>::max();
  for (const auto& o : outcomes) {
    STOF_CHECK(o.has_value(), "shard schedulers diverged (empty vs not)");
    STOF_CHECK(o->prefills.size() == outcomes[0]->prefills.size() &&
                   o->chunks.size() == outcomes[0]->chunks.size() &&
                   o->decodes.size() == outcomes[0]->decodes.size() &&
                   o->evicted.size() == outcomes[0]->evicted.size(),
               "shard schedulers diverged (plan shapes)");
    max_us = std::max(max_us, o->us);
    min_us = std::min(min_us, o->us);
  }

  // Layer-boundary collectives: one all-reduce per row-parallel GEMM of
  // the model graph over the step's activation rows at model width.  Every
  // shard charges the same cost onto its own timeline.
  double collective_us = 0;
  const std::int64_t rows =
      outcomes[0]->prefill_tokens + outcomes[0]->decode_rows;
  if (config_.devices > 1 && rows > 0) {
    const double payload =
        static_cast<double>(rows * config_.engine.model_heads() *
                            config_.engine.head_size) *
        sizeof(half);
    const CollectiveCost cost = collective_cost(
        CollectiveOp::kAllReduce, config_.link, config_.devices, payload);
    // Attention only: one layer's out-proj and FFN down-proj.
    constexpr std::int64_t kAttentionOnlyAllReduces = 2;
    const serve::ModelRuntime* model = engines_[0]->model_runtime();
    const std::int64_t calls = model != nullptr
                                   ? model->row_parallel_gemms()
                                   : kAttentionOnlyAllReduces;
    for (std::int64_t c = 0; c < calls; ++c) {
      for (auto& e : engines_) {
        charge_collective(e->stream_mut(), cost);
      }
      collective_us += cost.time_us;
    }
  }

  const double step_us = max_us + collective_us;
  collective_us_ += collective_us;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    engines_[i]->finalize_step(*outcomes[i], step_us);
  }
  fold_rows(outcomes);

  if (telemetry::enabled()) {
    telemetry::count("cluster.steps");
    if (max_us > 0) {
      telemetry::observe("cluster.step.imbalance_pct",
                         (max_us - min_us) / max_us * 100.0);
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      const double clock = engines_[i]->sim_time_us();
      const double busy = engines_[i]->stream().total_us();
      telemetry::gauge("cluster.device" + std::to_string(i) + ".util_pct",
                       clock > 0 ? busy / clock * 100.0 : 0.0);
    }
  }
  return true;
}

}  // namespace stof::cluster
