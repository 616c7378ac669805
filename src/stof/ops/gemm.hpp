// General matrix multiply on the simulated GPU.
//
// Functional semantics: C[b] = A[b] x B[b] (+ optional bias / activation
// epilogue), FP16 operands with FP32 accumulation — the arithmetic path of
// a wmma HMMA tile.  The cost model accounts a CUTLASS/Triton-style tiled
// kernel: each (BLOCK_M x BLOCK_N) block streams K-panels of A and B
// through shared memory with `num_stages`-deep cp.async pipelining, so
// global traffic is M*N*K * (1/BLOCK_N + 1/BLOCK_M) elements and occupancy
// follows from the shared-memory footprint of the stage buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/tensor.hpp"
#include "stof/gpusim/cost.hpp"
#include "stof/gpusim/device.hpp"

namespace stof::ops {

/// Logical GEMM problem: batch x (m x k) * (k x n).
struct GemmDims {
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
};

/// Tunable launch parameters of the tiled GEMM template.
struct GemmParams {
  int block_m = 64;
  int block_n = 64;
  int block_k = 32;
  int num_warps = 4;
  int num_stages = 2;

  friend bool operator==(const GemmParams&, const GemmParams&) = default;
};

/// Epilogue fused into the GEMM main loop (free at the register level).
enum class Epilogue { kNone, kBias, kBiasRelu, kBiasGelu };

/// A GEMM B operand ((k, n) or (batch, k, n)) converted once into the
/// packed engine's format: the half tensor the scalar path reads plus its
/// FP32 panel, so packed products are bit-identical to gemm_scalar.
/// Models build their weights as GemmWeights at load and keep them for
/// their lifetime.  Access is const only: a weight's half source and its
/// panel cannot drift apart after load.  Each construction counts its
/// panel in `exec.panelcache.bytes_converted` (2 B per element).
class GemmWeight {
 public:
  GemmWeight() = default;
  explicit GemmWeight(TensorH b);

  [[nodiscard]] const TensorH& tensor() const { return b_; }
  /// FP32 panel, row-major like the half source.
  [[nodiscard]] const float* values() const { return values_.data(); }

 private:
  TensorH b_;
  std::vector<float> values_;
};

/// C = A x B with optional epilogue.
/// A: (batch, m, k); B: (k, n) shared across the batch or (batch, k, n);
/// C: (batch, m, n); bias: (n) when the epilogue uses it.
/// Dispatches to the packed engine, reading B's FP32 panel, unless scalar
/// execution was selected via stof::set_packed_execution.
void gemm(const TensorH& a, const GemmWeight& b, TensorH& c,
          Epilogue epilogue = Epilogue::kNone, const TensorH* bias = nullptr);

/// Plain-tensor B: the packed path builds B's FP32 panel for this call.
void gemm(const TensorH& a, const TensorH& b, TensorH& c,
          Epilogue epilogue = Epilogue::kNone, const TensorH* bias = nullptr);

/// Scalar reference implementation: per-element FP32 accumulation over row
/// pointers.  The packed path must match it bit for bit.
void gemm_scalar(const TensorH& a, const TensorH& b, TensorH& c,
                 Epilogue epilogue = Epilogue::kNone,
                 const TensorH* bias = nullptr);

/// Packed implementation whatever the execution switch says: the A panel
/// converts per call, B's panel comes from the weight, cache-blocked
/// accumulation, panel conversion on store.
void gemm_packed(const TensorH& a, const GemmWeight& b, TensorH& c,
                 Epilogue epilogue = Epilogue::kNone,
                 const TensorH* bias = nullptr);

/// y = x (r, k) * w (k, n), FP32 accumulate, no epilogue — the projection
/// matmul of the functional executor.  Same packed/scalar dispatch as
/// gemm().
void matmul2d(const TensorH& x, const GemmWeight& w, TensorH& y);
void matmul2d(const TensorH& x, const TensorH& w, TensorH& y);

/// Simulated cost of one tiled GEMM launch.
gpusim::KernelCost gemm_cost(const GemmDims& dims, const GemmParams& params,
                             const gpusim::DeviceSpec& dev);

/// Candidate launch parameters explored by the tuner for this template.
std::vector<GemmParams> gemm_param_space();

/// GELU activation (tanh approximation), exposed for fused epilogues.
float gelu(float x);

}  // namespace stof::ops
