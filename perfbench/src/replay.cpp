#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>

#include "stof/models/tune_db.hpp"
#include "stof/serve/model_runtime.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace perfbench {

namespace serve = stof::serve;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Tune every power-of-two shape bucket up to the one covering `max_rows`.
void prewarm_buckets(serve::ModelRuntime& rt, std::int64_t max_rows) {
  const std::int64_t top = stof::models::shape_bucket(max_rows);
  for (std::int64_t b = 1; b <= top; b *= 2) rt.prewarm(b);
}

/// Fold one launch record into a device's breakdown; returns its time.
double account(SimBreakdown& d, const stof::gpusim::KernelRecord& rec) {
  const std::string_view name = rec.name;
  constexpr std::string_view kModel = "serve.model.";
  if (name == "serve.prefill") {
    d.prefill_us += rec.time_us;
  } else if (name == "serve.decode") {
    d.decode_us += rec.time_us;
  } else if (name == "serve.spec.draft") {
    d.draft_us += rec.time_us;
  } else if (name.starts_with(kModel)) {
    d.model_us += rec.time_us;
    d.model_template_us[std::string(name.substr(kModel.size()))] +=
        rec.time_us;
  } else if (name.starts_with("cluster.")) {
    d.collective_us += rec.time_us;
  } else {
    d.other_us += rec.time_us;
  }
  d.launches += rec.cost.launches;
  d.gmem_bytes += rec.cost.gmem_read_bytes + rec.cost.gmem_write_bytes;
  return rec.time_us;
}

/// Per-request state the replay tracks between steps.
struct Tracked {
  SessionId id = 0;
  double arrival_us = 0;
  std::int64_t generated = 0;
  double last_commit_us = -1;
  double max_gap_us = 0;
  bool scheduled = false;
};

}  // namespace

// ---- System ---------------------------------------------------------------

System::System(const Workload& w, const std::string& scratch_dir) {
  if (w.devices == 1) {
    engine_ = std::make_unique<serve::Engine>(w.engine);
    if (auto* rt = engine_->model_runtime()) {
      prewarm_buckets(*rt, w.max_step_rows());
    }
    return;
  }
  stof::cluster::ClusterConfig cc{.devices = w.devices,
                                  .engine = w.engine,
                                  .link = stof::cluster::nvlink_like()};
  if (w.engine.model.enabled()) {
    STOF_EXPECTS(w.engine.heads % w.devices == 0,
                 "benchmark clusters shard heads evenly");
    static int counter = 0;
    tune_dir_ = scratch_dir + "/tunedb-" + std::to_string(++counter);
    std::filesystem::remove_all(tune_dir_);
    cc.engine.model.tune_db_dir = tune_dir_;
    // Every shard has the same local width, so one shard-width runtime
    // tunes each bucket once and the shards load the plans at their
    // first use of it.
    serve::ModelRuntime tuner(cc.engine.model, w.engine.heads / w.devices,
                              w.engine.head_size, w.engine.device,
                              /*with_weights=*/false);
    prewarm_buckets(tuner, w.max_step_rows());
  }
  cluster_ = std::make_unique<stof::cluster::Cluster>(cc);
}

System::~System() {
  cluster_.reset();
  if (!tune_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(tune_dir_, ec);
  }
}

int System::devices() const { return cluster_ ? cluster_->devices() : 1; }

void System::submit(const Request& r) {
  if (cluster_) {
    (void)cluster_->submit(r);
  } else {
    (void)engine_->submit(r);
  }
}

bool System::idle() const {
  return cluster_ ? cluster_->idle() : engine_->idle();
}

double System::sim_time_us() const {
  return cluster_ ? cluster_->sim_time_us() : engine_->sim_time_us();
}

void System::advance_to(double us) {
  if (cluster_) {
    cluster_->advance_to(us);
  } else {
    engine_->advance_to(us);
  }
}

const serve::Engine& System::engine0() const {
  return cluster_ ? cluster_->engine(0) : *engine_;
}

const stof::gpusim::Stream& System::stream(int device) const {
  return cluster_ ? cluster_->engine(device).stream() : engine_->stream();
}

std::uint64_t System::digest(SessionId id) const {
  return cluster_ ? cluster_->digests().at(id) : engine_->session(id).digest;
}

System::Step System::step() {
  Step st;
  if (cluster_) {
    const double t0 = cluster_->sim_time_us();
    const auto h0 = Clock::now();
    st.ran = cluster_->step();
    st.execute_s = seconds_since(h0);
    st.sim_us = cluster_->sim_time_us() - t0;
    return st;
  }
  const auto h0 = Clock::now();
  std::optional<serve::StepOutcome> outcome = engine_->execute_step();
  st.execute_s = seconds_since(h0);
  if (!outcome) return st;
  const auto h1 = Clock::now();
  engine_->finalize_step(*outcome, outcome->us);
  st.finalize_s = seconds_since(h1);
  st.ran = true;
  st.sim_us = outcome->us;
  return st;
}

// ---- Tracer ---------------------------------------------------------------

/// Mirror runtimes with the served model's spec: a full-width one with
/// weights (the layer head every folded row goes through) and one at the
/// width whose steps a device charges (a shard's, on a cluster).
struct Tracer::Mirror {
  serve::ModelRuntime head;
  serve::ModelRuntime cost;
  stof::gpusim::Stream stream;
  std::int64_t hidden;

  explicit Mirror(const Workload& w)
      : head(w.engine.model, w.engine.heads, w.engine.head_size,
             w.engine.device, /*with_weights=*/true),
        cost(w.engine.model, w.engine.heads / w.devices, w.engine.head_size,
             w.engine.device, /*with_weights=*/false),
        stream(w.engine.device),
        hidden(w.engine.heads * w.engine.head_size) {
    prewarm_buckets(cost, w.max_step_rows());
  }
};

Tracer::Tracer(const Workload& w) : cluster_(w.devices > 1) {
  if (w.engine.model.enabled()) {
    // Mirror set-up is the benchmark's own work: keep it out of telemetry.
    const stof::telemetry::ScopedTelemetry off(false);
    mirror_ = std::make_unique<Mirror>(w);
  }
}

Tracer::~Tracer() = default;

void Tracer::on_step(const System::Step& st, std::int64_t step,
                     double host_start_us, double sim_start_us,
                     std::int64_t rows, std::vector<SessionId> sessions) {
  execute_s += st.execute_s;
  finalize_s += st.finalize_s;
  const double exec_us = st.execute_s * 1e6;
  const double fin_us = st.finalize_s * 1e6;
  auto span = [&](std::string name, double start, double dur) {
    spans.push_back(Span{std::move(name), start, dur, step, sim_start_us,
                         st.sim_us, sessions});
  };
  span("step", host_start_us, exec_us + fin_us);
  span(cluster_ ? "cluster.step" : "engine.execute", host_start_us, exec_us);
  if (!cluster_) span("engine.finalize", host_start_us + exec_us, fin_us);

  if (!mirror_ || rows <= 0) return;
  const stof::telemetry::ScopedTelemetry off(false);
  stof::TensorH x(stof::Shape{rows, mirror_->hidden});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = stof::half(static_cast<float>(i % 7) * 0.125f - 0.375f);
  }
  const auto h0 = Clock::now();
  mirror_->head.transform_rows(x);
  const double head_s = seconds_since(h0);
  const auto h1 = Clock::now();
  (void)mirror_->cost.charge_step(mirror_->stream, rows);
  const double charge_s = seconds_since(h1);
  mirror_->stream.clear();
  layer_head_s += head_s;
  charge_step_s += charge_s;
  mirror_s += head_s + charge_s;
  const double mirror_start = host_start_us + exec_us + fin_us;
  span("model.layer_head", mirror_start, head_s * 1e6);
  span("model.charge_step", mirror_start + head_s * 1e6, charge_s * 1e6);
}

// ---- replay -----------------------------------------------------------------

ReplayResult replay(System& sys, const Workload& w,
                    const std::vector<Request>& trace, Tracer* tracer) {
  ReplayResult r;
  r.sent = static_cast<std::int64_t>(trace.size());
  r.device.resize(static_cast<std::size_t>(sys.devices()));
  std::vector<std::size_t> seen(r.device.size());
  for (std::size_t d = 0; d < seen.size(); ++d) {
    seen[d] = sys.stream(static_cast<int>(d)).records().size();
  }
  std::vector<Tracked> active;
  const auto h0 = Clock::now();
  std::size_t next = 0;
  std::int64_t prefill_seen = sys.engine0().stats().prefill_tokens;

  while (next < trace.size() || !sys.idle()) {
    while (next < trace.size() && trace[next].arrival_us <= sys.sim_time_us()) {
      sys.submit(trace[next]);
      active.push_back(Tracked{trace[next].id, trace[next].arrival_us});
      ++next;
    }
    if (sys.idle()) {
      sys.advance_to(trace[next].arrival_us);
      continue;
    }
    const double sim_start = sys.sim_time_us();
    const double host_start = seconds_since(h0) * 1e6;
    const System::Step st = sys.step();
    if (!st.ran) break;  // work is queued but nothing is admissible
    ++r.steps;
    r.busy_us += st.sim_us;
    const double t_end = sys.sim_time_us();

    for (std::size_t d = 0; d < r.device.size(); ++d) {
      const auto& recs = sys.stream(static_cast<int>(d)).records();
      double step_sum = 0;
      for (; seen[d] < recs.size(); ++seen[d]) {
        step_sum += account(r.device[d], recs[seen[d]]);
      }
      if (r.device.size() == 1) {
        r.category_residual_us =
            std::max(r.category_residual_us, std::abs(step_sum - st.sim_us));
      }
    }

    // Session scan: queue waits, committed tokens, gaps, completions.
    std::int64_t committed_rows = 0;
    std::int64_t committing = 0;
    std::vector<SessionId> in_step;
    for (std::size_t i = 0; i < active.size();) {
      Tracked& t = active[i];
      const serve::Session& s = sys.engine0().session(t.id);
      if (s.phase != serve::SessionPhase::kQueued) in_step.push_back(t.id);
      if (!t.scheduled &&
          (s.phase != serve::SessionPhase::kQueued || s.generated > 0)) {
        t.scheduled = true;
        r.queue_wait_us.push_back(sim_start - t.arrival_us);
      }
      const std::int64_t delta = s.generated - t.generated;
      if (delta > 0) {
        committed_rows += delta;
        ++committing;
        if (t.last_commit_us >= 0) {
          const double gap =
              (t_end - t.last_commit_us) / static_cast<double>(delta);
          r.itl_us.push_back(gap);
          t.max_gap_us = std::max(t.max_gap_us, gap);
        }
        t.last_commit_us = t_end;
        t.generated = s.generated;
      }
      if (s.phase == serve::SessionPhase::kFinished) {
        const double ttft = s.first_token_us - t.arrival_us;
        r.ttft_us.push_back(ttft);
        ++r.finished;
        r.served_tokens += s.request.prompt_len + s.request.max_new_tokens;
        r.prompt_tokens += s.request.prompt_len;
        r.adopted_tokens += s.adopted_tokens;
        if (ttft <= w.slo_ttft_us && t.max_gap_us <= w.slo_gap_us) {
          ++r.slo_met;
        }
        r.digests.emplace(t.id, sys.digest(t.id));
        active[i] = active.back();
        active.pop_back();
        continue;
      }
      ++i;
    }
    if (committing > 0) {
      ++r.decode_steps;
      r.decode_rows += committing;
    }
    if (tracer != nullptr) {
      const std::int64_t prefill_now = sys.engine0().stats().prefill_tokens;
      const std::int64_t rows = committed_rows + (prefill_now - prefill_seen);
      prefill_seen = prefill_now;
      std::sort(in_step.begin(), in_step.end());
      tracer->on_step(st, r.steps - 1, host_start, sim_start, rows,
                      std::move(in_step));
    }
  }
  r.wall_s = seconds_since(h0);
  r.makespan_us = sys.sim_time_us();
  r.engine_stats = sys.engine0().stats();
  const auto& pool = sys.engine0().pool();
  r.kv_peak_util_pct = 100.0 * static_cast<double>(pool.peak_used_blocks()) /
                       static_cast<double>(pool.total_blocks());
  if (r.device.size() > 1 && r.busy_us > 0) {
    for (const SimBreakdown& d : r.device) {
      r.imbalance_pct += 100.0 * (r.busy_us - d.total_us()) / r.busy_us /
                         static_cast<double>(r.device.size());
    }
  }
  return r;
}

bool same_simulation(const ReplayResult& a, const ReplayResult& b) {
  auto same_device = [](const SimBreakdown& x, const SimBreakdown& y) {
    return x.prefill_us == y.prefill_us && x.decode_us == y.decode_us &&
           x.draft_us == y.draft_us && x.model_us == y.model_us &&
           x.collective_us == y.collective_us && x.other_us == y.other_us &&
           x.model_template_us == y.model_template_us &&
           x.launches == y.launches && x.gmem_bytes == y.gmem_bytes;
  };
  if (a.device.size() != b.device.size()) return false;
  for (std::size_t d = 0; d < a.device.size(); ++d) {
    if (!same_device(a.device[d], b.device[d])) return false;
  }
  return a.sent == b.sent && a.finished == b.finished &&
         a.served_tokens == b.served_tokens && a.steps == b.steps &&
         a.busy_us == b.busy_us && a.makespan_us == b.makespan_us &&
         a.ttft_us == b.ttft_us && a.itl_us == b.itl_us &&
         a.queue_wait_us == b.queue_wait_us && a.slo_met == b.slo_met &&
         a.adopted_tokens == b.adopted_tokens && a.digests == b.digests;
}

std::map<SessionId, std::uint64_t> reference_digests(
    const Workload& w, const std::vector<Request>& trace) {
  serve::Engine ref(reference_config(w));
  for (std::size_t i = 0; i < trace.size();
       i += static_cast<std::size_t>(w.check_stride)) {
    Request q = trace[i];
    q.arrival_us = 0;
    (void)ref.submit(q);
  }
  ref.run_until_drained();
  std::map<SessionId, std::uint64_t> out;
  for (const auto& [id, s] : ref.sessions()) {
    // An unfinished reference session keeps a sentinel no replay matches.
    out.emplace(id, s.phase == serve::SessionPhase::kFinished ? s.digest : 0);
  }
  return out;
}

std::int64_t count_mismatches(
    const std::map<SessionId, std::uint64_t>& reference,
    const ReplayResult& r) {
  std::int64_t bad = 0;
  for (const auto& [id, digest] : reference) {
    const auto it = r.digests.find(id);
    if (it != r.digests.end() && it->second != digest) ++bad;
  }
  return bad;
}

}  // namespace perfbench
