#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "stats.hpp"
#include "stof/core/kernels.hpp"
#include "stof/fusion/templates.hpp"
#include "stof/telemetry/telemetry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace telemetry = stof::telemetry;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Fused templates the model runtime can charge (MHA segments never are).
constexpr stof::fusion::TemplateKind kChargedTemplates[] = {
    stof::fusion::TemplateKind::kGemmChain,
    stof::fusion::TemplateKind::kGemmEpilogue,
    stof::fusion::TemplateKind::kMiChain,
    stof::fusion::TemplateKind::kSingleOp};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit, std::string clock,
           std::string stat, std::int64_t samples) {
    out.push_back(Metric{std::move(name), value, std::move(unit),
                         std::move(clock), std::move(stat), samples, -1});
  }
  /// Nearest-rank percentile with its sample and tail counts.
  void pct(std::string name, const std::vector<double>& v, double p,
           std::string unit, std::string clock) {
    const auto n = static_cast<std::int64_t>(v.size());
    char stat[16];
    std::snprintf(stat, sizeof(stat), "p%g", p);
    out.push_back(Metric{std::move(name), percentile(v, p), std::move(unit),
                         std::move(clock), stat, n, tail_samples(p, n)});
  }
  std::vector<Metric> out;
};

/// Simulated-time categories averaged over devices (one on an engine).
SimBreakdown mean_device(const ReplayResult& r) {
  SimBreakdown m;
  const double n = static_cast<double>(r.device.size());
  for (const SimBreakdown& d : r.device) {
    m.prefill_us += d.prefill_us / n;
    m.decode_us += d.decode_us / n;
    m.draft_us += d.draft_us / n;
    m.model_us += d.model_us / n;
    m.collective_us += d.collective_us / n;
    m.other_us += d.other_us / n;
    for (const auto& [k, us] : d.model_template_us) {
      m.model_template_us[k] += us / n;
    }
    m.launches += d.launches;      // system-wide
    m.gmem_bytes += d.gmem_bytes;  // system-wide
  }
  return m;
}

/// Scope check every single-engine replay must pass.
void check_replay(const ReplayResult& r, Report& rep) {
  if (r.device.size() == 1) {
    // Every simulated microsecond of a step is one of its launches: the
    // categories must add up to the busy time (to FP reassociation).
    const double sum = r.device[0].total_us();
    if (std::abs(sum - r.busy_us) > 1e-9 * std::max(1.0, r.busy_us) ||
        r.category_residual_us > 1e-9 * std::max(1.0, r.busy_us)) {
      rep.correct = false;
      rep.problems.push_back("sim categories do not sum to busy time");
    }
  }
}

void add_end_to_end(const ReplayResult& r,
                    const std::vector<double>& setup_s, Metrics& m) {
  m.add("sim_tokens_per_s", ratio(static_cast<double>(r.served_tokens),
                                  r.busy_us * 1e-6),
        "1/s", "sim", "ratio", r.finished);
  m.pct("sim_ttft_p50_us", r.ttft_us, 50, "us", "sim");
  m.pct("sim_ttft_p90_us", r.ttft_us, 90, "us", "sim");
  m.pct("sim_itl_p50_us", r.itl_us, 50, "us", "sim");
  m.pct("sim_itl_p99_us", r.itl_us, 99, "us", "sim");
  m.add("slo_attained_pct",
        100.0 * ratio(static_cast<double>(r.slo_met),
                      static_cast<double>(r.sent)),
        "%", "sim", "ratio", r.sent);
  m.add("setup_s", median(setup_s), "s", "wall", "median",
        static_cast<std::int64_t>(setup_s.size()));
  m.add("peak_rss_mb", peak_rss_mb(), "MB", "host", "peak", 1);
}

struct SetupTelemetry {
  double tune_wall_ms = 0;
  std::int64_t tune_evaluations = 0;
};

void add_per_layer(const Workload& w, const ReplayResult& untraced,
                   const ReplayResult& r, const Tracer& tr,
                   const SetupTelemetry& setup, Metrics& m) {
  const telemetry::Registry& reg = telemetry::global_registry();
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name));
  };
  const auto timer_ms = [&](const char* name) {
    return reg.timer(name).total_us * 1e-3;
  };
  const bool cluster = w.devices > 1;
  const std::int64_t steps = r.steps;
  const stof::serve::EngineStats& stats0 = r.engine_stats;

  // Host throughput of the untraced replay.  Reported here, without a
  // bound, because host noise between runs on a shared machine is wider
  // than any regression bound the end-to-end metrics can carry.
  m.add("wall_tokens_per_s",
        ratio(static_cast<double>(untraced.served_tokens), untraced.wall_s),
        "1/s", "wall", "ratio", untraced.finished);

  // serve.engine
  m.add("engine.execute.wall_ms", tr.execute_s * 1e3, "ms", "wall", "total",
        steps);
  m.add("engine.finalize.wall_ms", tr.finalize_s * 1e3, "ms", "wall",
        "total", steps);
  m.add("engine.steps", static_cast<double>(steps), "count", "sim", "count",
        steps);
  const double drafted = counter("serve.spec.drafted");
  m.add("spec.accept_pct",
        100.0 * ratio(counter("serve.spec.accepted"), drafted), "%", "sim",
        "ratio", static_cast<std::int64_t>(drafted));

  // serve.scheduler
  m.pct("sched.queue_wait_p50_us", r.queue_wait_us, 50, "us", "sim");
  m.pct("sched.queue_wait_p90_us", r.queue_wait_us, 90, "us", "sim");
  m.add("sched.decode_batch_mean",
        ratio(static_cast<double>(r.decode_rows),
              static_cast<double>(r.decode_steps)),
        "count", "sim", "mean", r.decode_steps);
  m.add("sched.preemptions", static_cast<double>(stats0.preemptions),
        "count", "sim", "count", steps);
  m.add("sched.chunks", static_cast<double>(stats0.prefill_chunks), "count",
        "sim", "count", steps);

  // serve.kv_pool (shard 0 for pool state; counters are system-wide)
  m.add("kv.peak_util_pct", r.kv_peak_util_pct, "%", "sim", "peak", steps);
  m.add("kv.prefix_hit_pct",
        100.0 * ratio(static_cast<double>(r.adopted_tokens),
                      static_cast<double>(r.prompt_tokens)),
        "%", "sim", "ratio", r.finished);
  m.add("kv.cow_copies", counter("serve.prefix.cow_copies"), "count", "sim",
        "total", steps);
  m.add("kv.reclaimed_pages", counter("serve.prefix.reclaimed_pages"),
        "count", "sim", "total", steps);
  m.add("kv.sidecar_mb_converted",
        counter("serve.kv.sidecar_bytes_converted") * 1e-6, "MB", "sim",
        "total", steps);

  // gpusim: each device's own stream records
  const SimBreakdown d = mean_device(r);
  m.add("sim.busy_us", r.busy_us, "us", "sim", "total", steps);
  m.add("sim.attn.prefill_us", d.prefill_us, "us", "sim", "total", steps);
  m.add("sim.attn.decode_us", d.decode_us, "us", "sim", "total", steps);
  m.add("sim.attn.draft_us", d.draft_us, "us", "sim", "total", steps);
  m.add("sim.model_us", d.model_us, "us", "sim", "total", steps);
  for (const auto kind : kChargedTemplates) {
    const std::string t = stof::fusion::to_string(kind);
    const auto it = d.model_template_us.find(t);
    m.add("sim.model." + t + "_us",
          it == d.model_template_us.end() ? 0.0 : it->second, "us", "sim",
          "total", steps);
  }
  m.add("sim.collective_us", d.collective_us, "us", "sim", "total", steps);
  m.add("sim.other_us", d.other_us, "us", "sim", "total", steps);
  m.add("sim.launches", static_cast<double>(d.launches), "count", "sim",
        "total", steps);
  m.add("sim.idle_pct",
        100.0 * ratio(r.makespan_us - r.busy_us, r.makespan_us), "%", "sim",
        "ratio", steps);
  m.add("sim.gmem_mb", d.gmem_bytes * 1e-6, "MB", "sim",
        "total (cost model)", steps);

  // mha
  const double loaded = counter("sim.mha.blocks_loaded");
  const double skipped = counter("sim.mha.blocks_skipped");
  const double blocks = loaded + skipped;
  m.add("mha.blockwise.wall_ms", timer_ms("wall.mha.blockwise_us"), "ms",
        "wall", "total",
        static_cast<std::int64_t>(reg.timer("wall.mha.blockwise_us").count));
  m.add("mha.blocks_skipped_pct", 100.0 * ratio(skipped, blocks), "%", "sim",
        "ratio", static_cast<std::int64_t>(blocks));
  m.add("mha.blocks_full_pct",
        100.0 * ratio(counter("sim.mha.blocks_full"), blocks), "%", "sim",
        "ratio", static_cast<std::int64_t>(blocks));

  // serve.model_runtime
  m.add("model.layer_head.wall_ms", tr.layer_head_s * 1e3, "ms", "wall",
        "total", steps);
  m.add("model.charge_step.wall_ms", tr.charge_step_s * 1e3, "ms", "wall",
        "total", steps);
  m.add("model.segment_launches", counter("serve.model.segment_launches"),
        "count", "sim", "total", steps);
  m.add("model.rows", counter("serve.model.rows"), "count", "sim", "total",
        steps);

  // ops
  m.add("ops.gemm.wall_ms", timer_ms("wall.ops.gemm_us"), "ms", "wall",
        "total", static_cast<std::int64_t>(reg.timer("wall.ops.gemm_us").count));
  m.add("ops.gemm_gmacs", counter("sim.ops.gemm_macs") * 1e-9, "GMAC", "sim",
        "total", static_cast<std::int64_t>(counter("sim.ops.gemm_calls")));

  // core panel cache
  const double hits = counter("exec.panelcache.hits");
  const double lookups = hits + counter("exec.panelcache.misses");
  m.add("panelcache.hit_pct", 100.0 * ratio(hits, lookups), "%", "host",
        "ratio", static_cast<std::int64_t>(lookups));
  m.add("panelcache.mb_converted",
        counter("exec.panelcache.bytes_converted") * 1e-6, "MB", "host",
        "total", static_cast<std::int64_t>(lookups));

  // tuner / models.tune_db (set-up only)
  m.add("tune.wall_ms", setup.tune_wall_ms, "ms", "wall", "total", 1);
  m.add("tune.evaluations", static_cast<double>(setup.tune_evaluations),
        "count", "sim", "total", 1);

  // cluster
  m.add("cluster.collective_share_pct",
        100.0 * ratio(d.collective_us, r.busy_us), "%", "sim", "ratio",
        steps);
  m.add("cluster.step.wall_ms", cluster ? tr.execute_s * 1e3 : 0.0, "ms",
        "wall", "total", steps);
  m.add("cluster.imbalance_pct", r.imbalance_pct, "%", "sim", "mean",
        static_cast<std::int64_t>(r.device.size()));

  // The tracer's own mirror calls are not serving work.
  const double traced_s = r.wall_s - tr.mirror_s;
  m.add("tracing_overhead_pct",
        100.0 * ratio(traced_s - untraced.wall_s, untraced.wall_s), "%",
        "wall", "ratio", 2);
  m.add("trace.spans", static_cast<double>(tr.spans.size()), "count", "host",
        "count", steps);
}

/// The run's scratch directory under --work-dir, removed with the object.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const Options& opts)
      : path(opts.work_dir + "/perfbench-scratch-" +
             std::to_string(static_cast<long long>(::getpid()))) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

}  // namespace

Report run(const Options& opts) {
  const Workload w = make_workload(opts.workload, opts.scale);
  const std::vector<Request> trace = make_trace(w, opts.seed);
  const ScratchDir scratch(opts);
  Report rep;
  rep.attempted = static_cast<std::int64_t>(trace.size());
  Metrics m;

  std::vector<double> setup_s;
  auto fresh = [&] {
    const auto t0 = Clock::now();
    auto sys = std::make_unique<System>(w, scratch.path);
    setup_s.push_back(seconds_since(t0));
    return sys;
  };

  const auto reference = reference_digests(w, trace);
  rep.checked = static_cast<std::int64_t>(reference.size());
  std::vector<ReplayResult> runs;
  if (!opts.trace) {
    const telemetry::ScopedTelemetry off(false);
    // At least `setup_reps` set-ups, and enough for a second of them when
    // set-up is cheap, so the median is taken over many samples.
    double setup_total = 0;
    while (static_cast<int>(setup_s.size()) + 1 < opts.setup_reps ||
           (setup_total < 1.0 && setup_s.size() < 40)) {
      (void)fresh();
      setup_total += setup_s.back();
    }
    // Replay until --seconds of replay time are spent (at least once);
    // each replay gets a fresh system so all start cold alike.
    double spent = 0;
    do {
      auto sys = fresh();
      runs.push_back(replay(*sys, w, trace, nullptr));
      spent += runs.back().wall_s;
    } while (spent + runs.back().wall_s <= opts.seconds);
  } else {
    {
      const telemetry::ScopedTelemetry off(false);
      auto sys = fresh();
      runs.push_back(replay(*sys, w, trace, nullptr));
    }
    telemetry::Registry& reg = telemetry::global_registry();
    const telemetry::ScopedTelemetry on(true);
    reg.reset();
    auto sys = fresh();
    // Scope separation: set-up's tuning is read here, then the registry
    // is cleared so serving counters hold serving work only.
    const SetupTelemetry setup{
        reg.timer("wall.tunedb.tune_us").total_us * 1e-3,
        reg.counter("sim.tuner.evaluations")};
    Tracer tracer(w);
    reg.reset();
    runs.push_back(replay(*sys, w, trace, &tracer));
    add_per_layer(w, runs.front(), runs.back(), tracer, setup, m);
    rep.spans = std::move(tracer.spans);
    reg.reset();
  }

  for (const ReplayResult& r : runs) {
    check_replay(r, rep);
    if (!same_simulation(runs.front(), r)) {
      rep.correct = false;
      rep.problems.push_back("replays of one trace disagree on sim time");
    }
  }
  const ReplayResult& r0 = runs.front();
  const std::int64_t unfinished = r0.sent - r0.finished;
  const std::int64_t mismatched = count_mismatches(reference, r0);
  rep.failed = unfinished + mismatched;
  if (unfinished > 0) rep.problems.push_back("requests did not finish");
  if (mismatched > 0) rep.problems.push_back("output digests differ");
  if (rep.failed > 0) rep.correct = false;

  if (!opts.trace) add_end_to_end(r0, setup_s, m);
  rep.metrics = std::move(m.out);
  return rep;
}

// ---- JSON -------------------------------------------------------------------

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += str(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + str(m.unit) + "}";
  }
  return out + "}}";
}

std::string record_json(const Report& r, const Options& opts) {
  std::string out = "{\"record\": {\"workload\": " + str(opts.workload);
  out += ", \"seed\": " + std::to_string(opts.seed);
  out += ", \"trace\": " + std::string(opts.trace ? "true" : "false");
  out += ", \"machine\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"isa\": " +
         str(stof::core::isa_name(stof::core::active_isa()));
  out += ", \"compiler\": " + str(std::string("gcc ") + __VERSION__);
  out += ", \"build_type\": " + str(PERFBENCH_BUILD_TYPE) + "}";
  out += ", \"requests_sent\": " + std::to_string(r.attempted);
  out += ", \"requests_failed\": " + std::to_string(r.failed);
  out += ", \"requests_checked\": " + std::to_string(r.checked);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) out += ", ";
    out += str(r.problems[i]);
  }
  out += "], \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + str(m.name) + ", \"value\": " + num(m.value) +
           ", \"unit\": " + str(m.unit) + ", \"clock\": " + str(m.clock) +
           ", \"statistic\": " + str(m.statistic) +
           ", \"samples\": " + std::to_string(m.samples);
    if (m.tail >= 0) out += ", \"beyond\": " + std::to_string(m.tail);
    out += "}";
  }
  return out + "]}}";
}

std::string chrome_trace_json(const Report& r, const Options& opts) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"metadata\": " +
                    record_json(r, opts) + ", \"traceEvents\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    // The step span sits on row 1, its children on row 2.
    const int tid = s.name == "step" ? 1 : 2;
    out += i > 0 ? ",\n" : "\n";
    out += "{\"name\": " + str(s.name) + ", \"ph\": \"X\", \"pid\": 1" +
           ", \"tid\": " + std::to_string(tid) + ", \"ts\": " +
           num(s.start_us) + ", \"dur\": " + num(s.dur_us) +
           ", \"args\": {\"step\": " + std::to_string(s.step) +
           ", \"sim_start_us\": " + num(s.sim_start_us) +
           ", \"sim_us\": " + num(s.sim_us) + ", \"sessions\": [";
    for (std::size_t j = 0; j < s.sessions.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(s.sessions[j]);
    }
    out += "]}}";
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
