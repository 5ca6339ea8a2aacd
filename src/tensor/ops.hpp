// Kernel-level linear algebra on Matrix.
//
// These free functions are the compute hot path (the "GPU kernels" of
// this CPU reproduction). The three GEMM products share one blocked,
// packed, register-tiled implementation (tensor/gemm.hpp) selected by
// layout tags; everything else is a fused elementwise or reduction loop.
//
// Every op has one form, writing a caller-owned output: `_into`
// overwrites it (reset_shape, capacity-reusing), `_acc` adds into it and
// `_inplace` updates its argument, so steady-state training iterations
// perform no heap allocations. Callers hold that output in layer Ctx
// structs and Workspace arenas; a test holds one reused Matrix.
#pragma once

#include <cmath>

#include "tensor/matrix.hpp"

namespace disttgl {

// ---- GEMM family: C = A·B and A·Bᵀ (overwrite), C += Aᵀ·B ----

// C = A * B ([m x k] * [k x n]). `pool`, when lent, spreads a large
// product's row blocks (kernel::gemm); the result is the same without.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 ThreadPool* pool = nullptr);

// C = A * Bᵀ ([m x k] * [n x k]ᵀ) — dx = dy·Wᵀ.
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c);

// C += Aᵀ * B ([k x m]ᵀ * [k x n]) — weight gradients.
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c);

// ---- bias / reductions ----

// m[r] += bias (bias is [1 x cols]), in place — the form after
// matmul_into. `pool` fans the rows out with parallel_rows; the result
// is the same with or without it.
void add_bias_inplace(Matrix& m, const Matrix& bias, ThreadPool* pool = nullptr);

// acc[0][c] += sum_r dy(r, c) — bias gradients.
void column_sums_acc(const Matrix& dy, Matrix& acc);

// ---- masked softmax ----

// Softmax, in place, over the leading valid[r] entries of each of
// `rows` rows of `cols` floats (row r at x + r·cols); entries at and
// beyond valid[r] receive probability 0, the whole row when valid[r]
// == 0. Each row's valid entries less their maximum, the masked ones
// −inf, go through one vmath::exp over the block, so an entry's bits do
// not depend on how a caller splits its rows into blocks. Masks
// variable neighbor counts in temporal attention, which runs it per
// block of roots and head.
void masked_softmax_rows(float* x, std::size_t rows, std::size_t cols,
                         std::span<const std::size_t> valid);

// ---- ReLU (the GRU's sigmoid/tanh gates run tensor/vmath) ----
// dx = dy ⊙ 1[y > 0], where y = max(x, 0). dx may alias dy.
void relu_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx);

// Numerically-stable log-sigmoid, elementwise.
float log_sigmoid(float x);

// Numerically-stable scalar sigmoid (never exponentiates a positive
// argument) — the single definition behind the loss and static-memory
// score paths, which keep libm.
inline float stable_sigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

// Max relative elementwise difference; utility for gradient checks.
float max_rel_diff(const Matrix& a, const Matrix& b, float eps = 1e-6f);

}  // namespace disttgl
