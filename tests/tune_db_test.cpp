// Persistent tuning-database tests: the cold-miss -> tune -> persist ->
// warm-hit lifecycle, shape-bucket quantization boundaries, key
// fingerprint separation, corruption fallback (a damaged DB file must
// report a miss and force retuning, never throw or return a bad plan), and
// store failures (an unwritable directory is counted, never thrown).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "stof/baselines/e2e_plans.hpp"
#include "stof/graph/builders.hpp"
#include "stof/models/plan_io.hpp"
#include "stof/models/tune_db.hpp"
#include "stof/telemetry/telemetry.hpp"
#include "stof/tuner/search_engine.hpp"

namespace stof::models {
namespace {

namespace fs = std::filesystem;

graph::LayerConfig tiny_layer(std::int64_t rows) {
  graph::LayerConfig cfg;
  cfg.batch = 1;
  cfg.seq_len = rows;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.ffn_dim = 256;
  return cfg;
}

ExecutionPlan tune_tiny(const graph::Graph& g, std::int64_t rows) {
  Executor exec(g, {1, 2, rows, 32},
                {.kind = masks::PatternKind::kCausal, .seq_len = rows},
                gpusim::a100());
  tuner::TuningOptions opt;
  opt.samples_per_candidate = 2;
  opt.stage1_max_evals = 24;
  opt.stage2_iterations = 1;
  opt.stage2_budget = 4;
  return tuner::SearchEngine(exec, opt).tune().best_plan;
}

std::string serialize(const ExecutionPlan& plan) {
  std::stringstream ss;
  save_plan(plan, ss);
  return ss.str();
}

/// Fresh DB directory under the system temp dir, removed up front so each
/// test starts cold.
std::string fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / "stof_tunedb_tests" / leaf;
  fs::remove_all(dir);
  return dir.string();
}

TEST(ShapeBucket, QuantizesToNextPowerOfTwo) {
  EXPECT_EQ(shape_bucket(1), 1);
  EXPECT_EQ(shape_bucket(2), 2);
  EXPECT_EQ(shape_bucket(3), 4);
  EXPECT_EQ(shape_bucket(63), 64);
  EXPECT_EQ(shape_bucket(64), 64);  // exact powers stay put
  EXPECT_EQ(shape_bucket(65), 128);
  EXPECT_EQ(shape_bucket(1000), 1024);
}

TEST(Fingerprints, SeparateGraphsDevicesAndBuckets) {
  const auto enc = graph::build_encoder_graph(tiny_layer(16), 1);
  const auto dec = graph::build_decoder_graph(tiny_layer(16), 1);
  const auto enc32 = graph::build_encoder_graph(tiny_layer(32), 1);
  EXPECT_EQ(graph_fingerprint(enc),
            graph_fingerprint(graph::build_encoder_graph(tiny_layer(16), 1)));
  EXPECT_NE(graph_fingerprint(enc), graph_fingerprint(dec));
  EXPECT_NE(graph_fingerprint(enc), graph_fingerprint(enc32));
  EXPECT_NE(device_fingerprint(gpusim::a100()),
            device_fingerprint(gpusim::rtx4090()));

  TuneDb db(fresh_dir("fp"));
  const TuneKey a{graph_fingerprint(enc), 16,
                  device_fingerprint(gpusim::a100())};
  TuneKey b = a;
  b.graph_hash = graph_fingerprint(dec);
  TuneKey c = a;
  c.bucket_rows = 32;
  TuneKey d = a;
  d.device_fp = device_fingerprint(gpusim::rtx4090());
  EXPECT_NE(db.path_for(a), db.path_for(b));
  EXPECT_NE(db.path_for(a), db.path_for(c));
  EXPECT_NE(db.path_for(a), db.path_for(d));
}

TEST(TuneDb, ColdMissTunePersistWarmHitByteIdentical) {
  telemetry::ScopedTelemetry scope(true);
  const std::string dir = fresh_dir("lifecycle");
  const auto g = graph::build_decoder_graph(tiny_layer(16), 1);
  const TuneKey key{graph_fingerprint(g), 16,
                    device_fingerprint(gpusim::a100())};

  TuneDb db(dir);
  telemetry::global_registry().reset();
  EXPECT_FALSE(db.load(key, g.size()).has_value());  // cold miss
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.misses"), 1);
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.hits"), 0);

  const ExecutionPlan tuned = tune_tiny(g, 16);
  db.store(key, tuned);
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.store_writes"), 1);
  EXPECT_TRUE(fs::exists(db.path_for(key)));

  // A second TuneDb over the same directory models a process restart: the
  // warm load must return the persisted plan byte for byte.
  TuneDb warm(dir);
  const auto loaded = warm.load(key, g.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize(*loaded), serialize(tuned));
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.hits"), 1);
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.verify_failures"),
            0);
}

TEST(TuneDb, BucketBoundaryRowsLandInDistinctFiles) {
  TuneDb db(fresh_dir("buckets"));
  const auto g = graph::build_decoder_graph(tiny_layer(64), 1);
  const std::uint64_t gh = graph_fingerprint(g);
  const std::uint64_t dh = device_fingerprint(gpusim::a100());
  // 64 rows and 65 rows straddle a bucket boundary; 33..64 share one.
  EXPECT_EQ(db.path_for({gh, shape_bucket(33), dh}),
            db.path_for({gh, shape_bucket(64), dh}));
  EXPECT_NE(db.path_for({gh, shape_bucket(64), dh}),
            db.path_for({gh, shape_bucket(65), dh}));

  const ExecutionPlan plan = baselines::e2e_plan(baselines::Method::kStof, g);
  db.store({gh, shape_bucket(64), dh}, plan);
  db.store({gh, shape_bucket(65), dh}, plan);
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(db.dir())) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 2u);
}

TEST(TuneDb, WrongOpCountIsAVerifyFailure) {
  telemetry::ScopedTelemetry scope(true);
  TuneDb db(fresh_dir("opcount"));
  const auto g1 = graph::build_decoder_graph(tiny_layer(16), 1);
  const auto g2 = graph::build_decoder_graph(tiny_layer(16), 2);
  const TuneKey key{graph_fingerprint(g1), 16,
                    device_fingerprint(gpusim::a100())};
  db.store(key, baselines::e2e_plan(baselines::Method::kStof, g1));
  telemetry::global_registry().reset();
  // Same file, but the caller expects the 2-layer op count: reject.
  EXPECT_FALSE(db.load(key, g2.size()).has_value());
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.verify_failures"),
            1);
  EXPECT_EQ(telemetry::global_registry().counter("tunedb.misses"), 1);
}

TEST(TuneDb, StoreLeavesNoTempFileBehind) {
  const std::string dir = fresh_dir("atomic");
  const auto g = graph::build_decoder_graph(tiny_layer(16), 1);
  const TuneKey key{graph_fingerprint(g), 16,
                    device_fingerprint(gpusim::a100())};
  TuneDb db(dir);
  const ExecutionPlan plan = baselines::e2e_plan(baselines::Method::kStof, g);
  db.store(key, plan);
  db.store(key, plan);  // replaces the entry
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{db.path_for(key)});
}

TEST(TuneDb, UnwritableDirectoryCountsAStoreFailureAndNeverThrows) {
  telemetry::ScopedTelemetry scope(true);
  const std::string dir = fresh_dir("unwritable");
  const auto g = graph::build_decoder_graph(tiny_layer(16), 1);
  const TuneKey key{graph_fingerprint(g), 16,
                    device_fingerprint(gpusim::a100())};
  TuneDb db(dir);
  // Replace the directory with a regular file: no entry can be created
  // under it, whatever the process's privileges (chmod does not stop root).
  fs::remove_all(dir);
  std::ofstream(dir) << "not a directory\n";
  telemetry::global_registry().reset();

  EXPECT_NO_THROW(
      db.store(key, baselines::e2e_plan(baselines::Method::kStof, g)));
  const auto& reg = telemetry::global_registry();
  EXPECT_EQ(reg.counter("tunedb.store_failures"), 1);
  EXPECT_EQ(reg.counter("tunedb.store_writes"), 0);
  std::optional<ExecutionPlan> got;
  EXPECT_NO_THROW(got = db.load(key, g.size()));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(reg.counter("tunedb.misses"), 1);
  fs::remove(dir);
}

TEST(TuneDb, CorruptFilesFallBackToRetuning) {
  telemetry::ScopedTelemetry scope(true);
  const std::string dir = fresh_dir("corrupt");
  const auto g = graph::build_decoder_graph(tiny_layer(16), 1);
  const TuneKey key{graph_fingerprint(g), 16,
                    device_fingerprint(gpusim::a100())};
  TuneDb db(dir);
  const ExecutionPlan good = baselines::e2e_plan(baselines::Method::kStof, g);
  db.store(key, good);
  const std::string path = db.path_for(key);
  telemetry::global_registry().reset();  // drop counts from earlier tests

  const auto read_file = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write_file = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  const std::string pristine = read_file();

  // Truncation, a flipped payload bit, and outright garbage must all be
  // rejected as misses (counting a verify failure), never thrown.
  const std::string cases[] = {
      pristine.substr(0, pristine.size() / 2),
      [&] {
        std::string s = pristine;
        s[s.size() / 3] ^= 0x08;
        return s;
      }(),
      "STOFPLAN v2\nnot a plan at all\n",
  };
  std::int64_t failures = 0;
  for (const auto& bytes : cases) {
    write_file(bytes);
    std::optional<ExecutionPlan> got;
    EXPECT_NO_THROW(got = db.load(key, g.size()));
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(telemetry::global_registry().counter("tunedb.verify_failures"),
              ++failures);
  }

  // Retuning overwrites the damaged file and the next load hits again.
  write_file(cases[1]);
  ASSERT_FALSE(db.load(key, g.size()).has_value());
  db.store(key, good);
  const auto recovered = db.load(key, g.size());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(serialize(*recovered), serialize(good));
}

}  // namespace
}  // namespace stof::models
