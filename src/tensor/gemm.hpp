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
// load time. A product narrower than 8 columns runs a narrow kernel in
// the same clones instead, its lanes across 8 rows of A, so a single
// output column does not pad B to a 32-wide panel.
//
// Parallelism: a product fans out only over the ThreadPool its caller
// lends (nn::Pass::pool for a forward pass), and runs on the calling
// thread when none is lent or the lent pool is busy with another
// fan-out. The engine holds no thread state of its own.
//
// Determinism: every element, on either kernel, runs one chain —
// acc = 0, acc += a·b in k order within each k-block, then C = acc or
// C += acc, the blocks in ascending order — and the k (reduction)
// dimension is never split across threads. Parallelism partitions C's
// rows; every (i, j) element is accumulated by exactly one thread. A row
// of C therefore depends only on its own row of A, on B, k and
// `accumulate`: its bits are the same for any pool size or none, and for
// any row count m — one row computed alone equals that row of a 100-row
// product. Likewise a column depends only on A, its own column of B, k
// and `accumulate`, not on n: each column of a 1-, 4- or 7-wide product
// equals that column of a 32-wide one.
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
