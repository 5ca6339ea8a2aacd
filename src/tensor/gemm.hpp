// Blocked single-precision GEMM engine — the one micro-kernel behind
// matmul / matmul_nt / matmul_tn (tensor/ops.hpp).
//
// Layout tags describe how each operand is *read*, so the three public
// products are one implementation: C = op(A) · op(B) with
// op ∈ {identity, transpose}. Operands are packed into cache-resident
// panels (B into NR-wide column panels, A into MR-high row panels) and
// multiplied by a register-blocked MR x NR micro-kernel written with GCC
// vector extensions; on x86-64 the kernel is function-multiversioned
// (`target_clones`) so one portable binary dispatches to AVX2/AVX-512 at
// load time.
//
// Parallelism: a product fans out only over the ThreadPool its caller
// lends (nn::Pass::pool for a forward pass), and runs on the calling
// thread when none is lent or the lent pool is busy with another
// fan-out. The engine holds no thread state of its own.
//
// Determinism: every product, however small, runs the packed
// micro-kernel, and the k (reduction) dimension is never split across
// threads. Parallelism partitions C's rows; every (i, j) element is
// accumulated by exactly one thread in the same k-ascending block order
// the serial path uses. A row of C therefore depends only on its own
// row of A, on B, k and `accumulate`: its bits are the same for any
// pool size or none, and for any row count m — one row computed alone
// equals that row of a 100-row product.
#pragma once

#include <cstddef>

namespace disttgl {
class ThreadPool;
}  // namespace disttgl

namespace disttgl::kernel {

// How an operand matrix is read by the gemm driver.
enum class Layout {
  kNormal,      // logical (i, j) at data[i * ld + j]
  kTransposed,  // logical (i, j) at data[j * ld + i]
};

// Blocked products with fewer multiply-adds than this run on the calling
// thread only, pool or not (fanning out costs more than it saves).
inline constexpr std::size_t kParallelFlops = 512 * 1024;

// The blocked path's reduction block: a product with k above it sums its
// k-blocks' partial products in C.
inline constexpr std::size_t kGemmKc = 256;

// C[m x n] (row-major, leading dimension ldc) = op(A) · op(B), or
// += when `accumulate`. Logical shapes after op: A is [m x k],
// B is [k x n]. lda/ldb are the *storage* leading dimensions. A large
// product spreads its row blocks over `pool`, when one is lent and idle.
void gemm(Layout layout_a, Layout layout_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
          ThreadPool* pool = nullptr);

}  // namespace disttgl::kernel
