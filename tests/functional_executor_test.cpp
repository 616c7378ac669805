// Functional end-to-end tests: every method's execution plan computes the
// same forward pass (up to FP16 rounding) on real tensors, across model
// architectures and mask patterns.
#include <gtest/gtest.h>

#include "stof/baselines/e2e_plans.hpp"
#include "stof/core/checksum.hpp"
#include "stof/graph/builders.hpp"
#include "stof/core/rng.hpp"
#include "stof/models/config.hpp"
#include "stof/models/functional.hpp"
#include "stof/tuner/search_engine.hpp"

namespace stof::models {
namespace {

using baselines::Method;
using masks::PatternKind;

// Tiny model configs keep the functional runs fast on the CPU.
ModelConfig tiny_encoder() {
  ModelConfig c = bert_small();
  c.layers = 2;
  c.hidden = 64;
  c.heads = 4;
  c.ffn_dim = 128;
  return c;
}

ModelConfig tiny_decoder() {
  ModelConfig c = gpt();
  c.layers = 2;
  c.hidden = 64;
  c.heads = 4;
  c.ffn_dim = 128;
  return c;
}

ModelConfig tiny_encdec() {
  ModelConfig c = t5();
  c.layers = 1;
  c.dec_layers = 1;
  c.hidden = 64;
  c.heads = 4;
  c.ffn_dim = 128;
  return c;
}

struct Setup {
  graph::Graph g;
  FunctionalExecutor exec;
  TensorH input;
};

Setup make_setup(const ModelConfig& model, std::int64_t bs, std::int64_t seq,
                 PatternKind pattern, std::uint64_t seed = 5) {
  graph::Graph g = model.build_graph(bs, seq);
  mha::MhaDims dims{bs, model.heads, seq, model.head_size()};
  FunctionalExecutor exec(g, dims, {.kind = pattern, .seq_len = seq}, seed);
  TensorH input(Shape{bs * seq, model.hidden});
  Rng rng(seed + 1);
  input.fill_random(rng, -0.5f, 0.5f);
  return {std::move(g), std::move(exec), std::move(input)};
}

// Outputs pass through repeated LayerNorms, so values are O(1); FP16
// rounding accumulates over ~50-100 ops.
constexpr double kTol = 3e-2;

TEST(FunctionalExecutor, DetachedRunProducesFiniteOutput) {
  auto s = make_setup(tiny_encoder(), 1, 32, PatternKind::kBigBird);
  const TensorH out = s.exec.run_detached(s.input);
  EXPECT_EQ(out.shape(), (Shape{32, 64}));
  for (const auto v : out.data()) {
    EXPECT_TRUE(std::isfinite(float(v)));
  }
  // LayerNorm ends the encoder: output rows are normalized (std ~ gamma).
  float mean = 0;
  for (std::int64_t j = 0; j < 64; ++j) mean += float(out.at(0, j));
  EXPECT_LT(std::abs(mean / 64), 0.3);
}

TEST(FunctionalExecutor, DeterministicAcrossRuns) {
  auto s1 = make_setup(tiny_encoder(), 1, 32, PatternKind::kLongformer);
  auto s2 = make_setup(tiny_encoder(), 1, 32, PatternKind::kLongformer);
  const TensorH a = s1.exec.run_detached(s1.input);
  const TensorH b = s2.exec.run_detached(s2.input);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(FunctionalExecutor, SeedChangesWeights) {
  auto s1 = make_setup(tiny_encoder(), 1, 32, PatternKind::kLongformer, 5);
  auto s2 = make_setup(tiny_encoder(), 1, 32, PatternKind::kLongformer, 6);
  const TensorH a = s1.exec.run_detached(s1.input);
  const TensorH b = s2.exec.run(s1.input, baselines::e2e_plan(
                                               Method::kPytorchNative, s2.g));
  EXPECT_GT(max_abs_diff(a, b), 1e-3);
}

TEST(FunctionalExecutor, RejectsBadInputShape) {
  auto s = make_setup(tiny_encoder(), 1, 32, PatternKind::kBigBird);
  TensorH wrong(Shape{16, 64});
  EXPECT_THROW(s.exec.run_detached(wrong), Error);
}

// ---- Plan equivalence: the core integration property -------------------------

class PlanEquivalence : public ::testing::TestWithParam<Method> {};

TEST_P(PlanEquivalence, MethodPlanMatchesDetachedReference) {
  auto s = make_setup(tiny_encoder(), 2, 32, PatternKind::kBigBird);
  const TensorH ref = s.exec.run_detached(s.input);
  const auto plan = baselines::e2e_plan(GetParam(), s.g);
  const TensorH got = s.exec.run(s.input, plan);
  EXPECT_LT(max_abs_diff(ref, got), kTol) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllE2eMethods, PlanEquivalence,
    ::testing::Values(Method::kPytorchNative, Method::kPytorchCompile,
                      Method::kByteTransformer, Method::kMcfuser,
                      Method::kBolt, Method::kStof),
    [](const auto& info) {
      auto s = to_string(info.param);
      s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
      return s;
    });

class ArchEquivalence
    : public ::testing::TestWithParam<std::tuple<int, PatternKind>> {};

TEST_P(ArchEquivalence, StofPlanMatchesReferenceOnArchAndMask) {
  const auto [arch, pattern] = GetParam();
  const ModelConfig model = arch == 0   ? tiny_encoder()
                            : arch == 1 ? tiny_decoder()
                                        : tiny_encdec();
  auto s = make_setup(model, 1, 48, pattern);
  const TensorH ref = s.exec.run_detached(s.input);
  const TensorH got =
      s.exec.run(s.input, baselines::e2e_plan(Method::kStof, s.g));
  EXPECT_LT(max_abs_diff(ref, got), kTol)
      << model.name << " " << to_string(pattern);
}

INSTANTIATE_TEST_SUITE_P(
    ArchitecturesAndMasks, ArchEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(PatternKind::kSlidingWindow,
                                         PatternKind::kDilated,
                                         PatternKind::kLongformer,
                                         PatternKind::kBigBird)),
    [](const auto& info) {
      const char* arch = std::get<0>(info.param) == 0   ? "encoder"
                         : std::get<0>(info.param) == 1 ? "decoder"
                                                        : "encdec";
      return std::string(arch) + "_" + to_string(std::get<1>(info.param));
    });

TEST(PlanEquivalenceTuned, TunedStofPlanMatchesReference) {
  // The full pipeline: tune on the cost model, execute the tuned plan
  // functionally, compare against the detached reference.
  const auto model = tiny_encoder();
  auto s = make_setup(model, 1, 32, PatternKind::kBigBird);
  const TensorH ref = s.exec.run_detached(s.input);

  Executor cost_exec(model.build_graph(1, 32),
                     {1, model.heads, 32, model.head_size()},
                     {.kind = PatternKind::kBigBird, .seq_len = 32},
                     gpusim::a100(), Method::kStof);
  tuner::TuningOptions opt;
  opt.stage1_max_evals = 40;
  opt.stage2_iterations = 1;
  const auto report = tuner::SearchEngine(cost_exec, opt).tune();

  const TensorH got = s.exec.run(s.input, report.best_plan);
  EXPECT_LT(max_abs_diff(ref, got), kTol);
}

TEST(FunctionalExecutor, MaskActuallyShapesTheOutput) {
  // Different masks must produce different attention outputs.
  auto dense = make_setup(tiny_encoder(), 1, 32, PatternKind::kDense);
  auto sparse = make_setup(tiny_encoder(), 1, 32, PatternKind::kSlidingWindow);
  const TensorH a = dense.exec.run_detached(dense.input);
  const TensorH b = sparse.exec.run_detached(sparse.input);
  EXPECT_GT(max_abs_diff(a, b), 1e-3);
}

TEST(FunctionalExecutor, WeightsExposedAndShaped) {
  auto s = make_setup(tiny_encoder(), 1, 32, PatternKind::kBigBird);
  for (const auto& node : s.g.nodes()) {
    const auto& w = s.exec.weights(node.id);
    if (node.kind == graph::OpKind::kQkvProj) {
      EXPECT_EQ(w.w.tensor().shape(), (Shape{node.inner, node.cols}));
    }
    if (node.kind == graph::OpKind::kLayerNorm) {
      EXPECT_EQ(w.gamma.shape(), (Shape{node.cols}));
    }
  }
}

// ---- Pinned detached numerics -----------------------------------------------

// run_detached's output bytes for one small graph of each builder family,
// frozen to constants.  The detached path is the numerical reference every
// fused plan is compared against, so a refactor of the per-operator step
// must leave every byte alone.  The hashes hold for every kernel dispatch
// table (STOF_FORCE_SCALAR=1 included).
std::uint64_t detached_hash(const graph::Graph& g, const graph::LayerConfig& lc) {
  FunctionalExecutor exec(
      g, mha::MhaDims{lc.batch, lc.heads, lc.seq_len, lc.head_size()},
      {.kind = PatternKind::kCausal, .seq_len = lc.seq_len}, 77);
  TensorH input(Shape{lc.rows(), lc.hidden});
  Rng rng(78);
  input.fill_random(rng, -0.5f, 0.5f);
  const TensorH out = exec.run_detached(input);
  return fnv1a64(out.data().data(), out.data().size() * sizeof(half));
}

TEST(FunctionalExecutor, DetachedOutputBytesArePinned) {
  graph::LayerConfig lc;
  lc.seq_len = 24;
  lc.hidden = 32;
  lc.heads = 2;
  lc.ffn_dim = 64;
  EXPECT_EQ(detached_hash(graph::build_encoder_graph(lc, 2), lc),
            0x1049e4802843e3e1ull);
  EXPECT_EQ(detached_hash(graph::build_decoder_graph(lc, 2), lc),
            0xb0e8c35369c4e562ull);
  graph::LayerConfig t5 = lc;
  t5.activation = graph::OpKind::kRelu;
  t5.use_bias = false;
  EXPECT_EQ(detached_hash(graph::build_cross_decoder_graph(t5, 1), t5),
            0x3f9113c7d66afde8ull);
}

}  // namespace
}  // namespace stof::models
