// Kernel-layer tests for the blocked GEMM engine, the `_into` op
// variants, Workspace, and the three hot-path guarantees:
//
//   1. the blocked/packed GEMM matches a retained naive reference over
//      random and adversarial shapes (empty dims, K=1, single columns,
//      shapes far from any tile multiple);
//   2. results are bit-identical with no pool and over lent pools of
//      any size, shared by concurrent callers or not (DistTGL's
//      determinism contract — test_equivalence depends on it);
//   3. steady-state forward/backward passes with reused Ctx scratch,
//      and pooled model inference, perform zero heap allocations
//      (counting global allocator).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "core/tgn_model.hpp"
#include "datagen/generator.hpp"
#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// ---- counting global allocator ------------------------------------------
// Replaces ::operator new for this test binary only. The counter is what
// AllocationFree.* asserts on; everything else just passes through.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (size + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace disttgl {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

// Retained naive reference: plain i-j-p triple loop, double-accumulated
// so it is strictly more accurate than any float summation order. The
// blocked kernel sums in a different order (k-block partials, FMA where
// the ISA has it), so comparisons use a tolerance sized for float
// accumulation over the largest K in the gauntlet, not bit equality.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p)
        acc += static_cast<double>(a(i, p)) * b(p, j);
      c(i, j) = static_cast<float>(acc);
    }
  return c;
}

// Tolerance and the eps floor for max_rel_diff: elements of magnitude
// ≥ 1 are compared relatively, near-zero elements (catastrophic
// cancellation makes their *relative* error meaningless) absolutely.
constexpr float kGemmTol = 1e-3f;
constexpr float kGemmEps = 1.0f;

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  return t;
}

// ---- 1. blocked GEMM vs naive reference over a shape gauntlet ----------

struct GemmShape {
  std::size_t m, k, n;
};

class BlockedGemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(BlockedGemmTest, AllLayoutsMatchNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7919 + k * 104729 + n);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  const Matrix expected = naive_matmul(a, b);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);

  Matrix c;
  matmul_into(a, b, c);
  EXPECT_LT(max_rel_diff(c, expected, kGemmEps), kGemmTol);
  matmul_nt_into(a, bt, c);
  EXPECT_LT(max_rel_diff(c, expected, kGemmEps), kGemmTol);

  // Accumulating products, C pre-seeded with ones: matmul_tn_acc, and
  // the engine's other two layouts, which the attention calls directly.
  using kernel::Layout;
  Matrix c_tn(m, n, 1.0f);
  matmul_tn_acc(at, b, c_tn);
  Matrix c_acc(m, n, 1.0f);
  kernel::gemm(Layout::kNormal, Layout::kNormal, m, n, k, a.data(), a.cols(),
               b.data(), b.cols(), c_acc.data(), n, /*accumulate=*/true);
  Matrix c_nt(m, n, 1.0f);
  kernel::gemm(Layout::kNormal, Layout::kTransposed, m, n, k, a.data(),
               a.cols(), bt.data(), bt.cols(), c_nt.data(), n,
               /*accumulate=*/true);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const float want = expected.data()[i] + 1.0f;
    EXPECT_NEAR(c_acc.data()[i], want, 4e-3f);
    EXPECT_NEAR(c_nt.data()[i], want, 4e-3f);
    EXPECT_NEAR(c_tn.data()[i], want, 4e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmTest,
    ::testing::Values(
        // Adversarial: empty dims, scalars, K=1, single rows/columns.
        GemmShape{0, 3, 4}, GemmShape{3, 0, 4}, GemmShape{3, 4, 0},
        GemmShape{1, 1, 1}, GemmShape{5, 1, 7}, GemmShape{1, 64, 1},
        GemmShape{37, 1, 41},
        // Small products, which run the packed micro-kernel too.
        GemmShape{8, 8, 8}, GemmShape{17, 3, 9}, GemmShape{40, 16, 24},
        GemmShape{64, 64, 64},
        // Blocked path: exact tile multiples (MR=6, NR=32) and shapes
        // that are a multiple of neither, plus a K > KC=256 case.
        GemmShape{6, 64, 32}, GemmShape{12, 128, 64}, GemmShape{65, 33, 47},
        GemmShape{7, 45, 300}, GemmShape{128, 128, 128},
        GemmShape{130, 70, 90}, GemmShape{31, 513, 65},
        // Narrow products (n < 8, A's rows across the lanes): full and
        // partial row tiles, k within one block and across three.
        GemmShape{45, 300, 5}, GemmShape{70, 600, 1}, GemmShape{9, 20, 4}));

TEST(BlockedGemm, ZeroTimesNanPropagates) {
  // The old kernels skipped a == 0 entries, silently converting
  // 0 * NaN (= NaN) into 0. Zero-padded edge tiles and full tiles must
  // both propagate non-finite values.
  {
    Matrix a(2, 2, {0.0f, 0.0f, 1.0f, 1.0f});
    Matrix b(2, 2, {std::nanf(""), 1.0f, 2.0f, 3.0f});
    Matrix c;
    matmul_into(a, b, c);  // narrow: one row tile, zero-padded
    EXPECT_TRUE(std::isnan(c(0, 0)));
    EXPECT_TRUE(std::isnan(c(1, 0)));
  }
  {
    Rng rng(11);
    Matrix a = random_matrix(64, 64, rng);  // full tiles (64^3 madds)
    Matrix b = random_matrix(64, 64, rng);
    for (std::size_t p = 0; p < 64; ++p) a(0, p) = 0.0f;
    b(0, 5) = std::numeric_limits<float>::infinity();
    Matrix c;
    matmul_into(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 5)));  // 0 * inf = NaN
  }
}

// ---- 2. determinism across lent pools -----------------------------------

// C = op(A)·op(B) on the engine, its row blocks spread over `pool`.
Matrix product(kernel::Layout la, kernel::Layout lb, const Matrix& a,
               const Matrix& b, ThreadPool* pool) {
  const bool ta = la == kernel::Layout::kTransposed;
  const bool tb = lb == kernel::Layout::kTransposed;
  Matrix c(ta ? a.cols() : a.rows(), tb ? b.rows() : b.cols());
  kernel::gemm(la, lb, c.rows(), c.cols(), ta ? a.rows() : a.cols(), a.data(),
               a.cols(), b.data(), b.cols(), c.data(), c.cols(),
               /*accumulate=*/false, pool);
  return c;
}

// No pool (null, first), then lent pools of 1-3 workers.
std::vector<std::unique_ptr<ThreadPool>> lent_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools(1);
  for (std::size_t workers = 1; workers <= 3; ++workers)
    pools.push_back(std::make_unique<ThreadPool>(workers));
  return pools;
}

TEST(BlockedGemm, BitIdenticalAcrossThreadCounts) {
  using kernel::Layout;
  Rng rng(42);
  // Big enough to clear the parallel threshold (517*301*203 ≈ 31.6M madds).
  Matrix a = random_matrix(517, 301, rng);
  Matrix b = random_matrix(301, 203, rng);
  Matrix at = transpose(a);
  Matrix bt = transpose(b);

  const Matrix c1 = product(Layout::kNormal, Layout::kNormal, a, b, nullptr);
  const Matrix c1_nt =
      product(Layout::kNormal, Layout::kTransposed, a, bt, nullptr);
  const Matrix c1_tn =
      product(Layout::kTransposed, Layout::kNormal, at, b, nullptr);
  const auto pools = lent_pools();
  for (std::size_t w = 1; w < pools.size(); ++w) {
    ThreadPool* pool = pools[w].get();
    const std::size_t threads = pool->size() + 1;  // the caller works too
    Matrix ct = product(Layout::kNormal, Layout::kNormal, a, b, pool);
    Matrix ct_nt = product(Layout::kNormal, Layout::kTransposed, a, bt, pool);
    Matrix ct_tn = product(Layout::kTransposed, Layout::kNormal, at, b, pool);
    EXPECT_EQ(std::memcmp(c1.data(), ct.data(), c1.size() * sizeof(float)), 0)
        << "matmul diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(c1_nt.data(), ct_nt.data(), c1_nt.size() * sizeof(float)), 0)
        << "matmul_nt diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(c1_tn.data(), ct_tn.data(), c1_tn.size() * sizeof(float)), 0)
        << "matmul_tn diverged at " << threads << " threads";
  }
}

// A row of C depends only on its own row of A, on B, k and
// `accumulate`: computed alone, inside a 5-row product, or inside a
// 100-row one, its bits are the same. The serving tier relies on it (a
// snapshot's post-update memory, built over all nodes at once, equals
// the few GRU rows of a request inline). Each layout pair, with and
// without accumulate, at reduction depths within one k-block and across
// two and three, and widths below, between and over NR-wide panels.
TEST(BlockedGemm, RowBitsIndependentOfRowCount) {
  using kernel::Layout;
  constexpr std::size_t M = 100, kBlock = 5;
  for (const Layout la : {Layout::kNormal, Layout::kTransposed})
    for (const Layout lb : {Layout::kNormal, Layout::kTransposed})
      for (const bool acc : {false, true})
        for (const std::size_t K : {1, 16, 256, 257, 600})
          for (const std::size_t N : {1, 24, 33, 96}) {
            const std::string what =
                std::string(la == Layout::kNormal ? "N" : "T") +
                (lb == Layout::kNormal ? "N" : "T") + (acc ? " acc" : "") +
                " K=" + std::to_string(K) + " N=" + std::to_string(N);
            Rng rng(K * 131 + N);
            // Storage: A is [M x K] (normal) or [K x M]; B [K x N] or
            // [N x K]; c0 is what C holds before an accumulating call.
            const Matrix a = random_matrix(la == Layout::kNormal ? M : K,
                                           la == Layout::kNormal ? K : M, rng);
            const Matrix b = random_matrix(lb == Layout::kNormal ? K : N,
                                           lb == Layout::kNormal ? N : K, rng);
            const Matrix c0 = random_matrix(M, N, rng);
            // Rows [r0, r0 + m) of the product, as their own product.
            auto rows = [&](std::size_t r0, std::size_t m) {
              Matrix c(m, N);
              std::memcpy(c.data(), c0.row_ptr(r0), m * N * sizeof(float));
              const float* ap =
                  la == Layout::kNormal ? a.row_ptr(r0) : a.data() + r0;
              kernel::gemm(la, lb, m, N, K, ap, a.cols(), b.data(), b.cols(),
                           c.data(), N, acc);
              return c;
            };
            const Matrix full = rows(0, M);
            std::size_t alone_differs = 0, block_differs = 0;
            for (std::size_t r0 = 0; r0 < M; r0 += kBlock) {
              const Matrix block = rows(r0, kBlock);
              for (std::size_t i = r0; i < r0 + kBlock; ++i) {
                const Matrix one = rows(i, 1);
                alone_differs += std::memcmp(one.data(), full.row_ptr(i),
                                             N * sizeof(float)) != 0;
                block_differs +=
                    std::memcmp(block.row_ptr(i - r0), full.row_ptr(i),
                                N * sizeof(float)) != 0;
              }
            }
            EXPECT_EQ(alone_differs, 0u) << what << ": rows computed alone";
            EXPECT_EQ(block_differs, 0u) << what << ": rows in 5-row products";
          }
}

// A column of C depends only on A, its own column of B, k and
// `accumulate`: a product narrower than 8 columns runs the narrow kernel
// (A's rows across the lanes), a 32-wide one the blocked micro-kernel,
// and each column of the narrow product equals that column of the wide
// one. Each layout pair, with and without accumulate, at reduction
// depths within one k-block, on both sides of its edge and across
// several, on the calling thread and over a lent pool (the deepest
// products clear kParallelFlops, so their row chunks fan out).
TEST(BlockedGemm, ColumnBitsIndependentOfColumnCount) {
  using kernel::Layout;
  constexpr std::size_t M = 101, kWide = 32;
  static_assert(M * 5 * 3600 >= kernel::kParallelFlops);
  ThreadPool pool(3);
  std::size_t compared = 0;
  for (ThreadPool* lent : {static_cast<ThreadPool*>(nullptr), &pool})
    for (const Layout la : {Layout::kNormal, Layout::kTransposed})
      for (const Layout lb : {Layout::kNormal, Layout::kTransposed})
        for (const bool acc : {false, true})
          for (const std::size_t K : {1, 3, 16, 255, 256, 257, 600, 3600}) {
            Rng rng(K * 977 + (acc ? 1 : 0));
            // Storage: A is [M x K] (normal) or [K x M]; B [K x 32] or
            // [32 x K], so its leading N columns are the narrow
            // product's B at the same pointer and leading dimension.
            const Matrix a = random_matrix(la == Layout::kNormal ? M : K,
                                           la == Layout::kNormal ? K : M, rng);
            const Matrix b = random_matrix(lb == Layout::kNormal ? K : kWide,
                                           lb == Layout::kNormal ? kWide : K,
                                           rng);
            const Matrix c0 = random_matrix(M, kWide, rng);
            Matrix wide = c0;
            kernel::gemm(la, lb, M, kWide, K, a.data(), a.cols(), b.data(),
                         b.cols(), wide.data(), kWide, acc, lent);
            for (const std::size_t N : {1, 2, 4, 5, 7}) {
              Matrix narrow(M, N);
              for (std::size_t i = 0; i < M; ++i)
                std::memcpy(narrow.row_ptr(i), c0.row_ptr(i),
                            N * sizeof(float));
              kernel::gemm(la, lb, M, N, K, a.data(), a.cols(), b.data(),
                           b.cols(), narrow.data(), N, acc, lent);
              std::size_t differs = 0;
              for (std::size_t i = 0; i < M; ++i)
                for (std::size_t j = 0; j < N; ++j)
                  differs += std::memcmp(&narrow(i, j), &wide(i, j),
                                         sizeof(float)) != 0;
              compared += M * N;
              EXPECT_EQ(differs, 0u)
                  << (la == Layout::kNormal ? "N" : "T")
                  << (lb == Layout::kNormal ? "N" : "T") << (acc ? " acc" : "")
                  << " K=" << K << " N=" << N
                  << (lent != nullptr ? " pooled" : "");
            }
          }
  EXPECT_EQ(compared, 2u * 4 * 2 * 8 * (1 + 2 + 4 + 5 + 7) * M);
}

// The serving and thread-fabric shape: several callers lend one pool at
// once. One fans out, the others find it busy and run serially; every
// caller still gets the serial bits.
TEST(BlockedGemm, ConcurrentCallersOverOneLentPoolGetSerialBits) {
  Rng rng(9);
  Matrix a = random_matrix(200, 128, rng);
  Matrix b = random_matrix(128, 96, rng);
  static_assert(200 * 128 * 96 >= kernel::kParallelFlops);
  Matrix want_ab;
  matmul_into(a, b, want_ab);

  constexpr std::size_t kCallers = 4;
  ThreadPool pool(3);
  std::vector<Matrix> got_ab(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 4; ++rep) matmul_into(a, b, got_ab[c], &pool);
    });
  for (std::thread& th : callers) th.join();
  for (std::size_t c = 0; c < kCallers; ++c)
    EXPECT_EQ(std::memcmp(got_ab[c].data(), want_ab.data(),
                          want_ab.size() * sizeof(float)),
              0)
        << "matmul diverged on caller " << c;
}

// ---- 3. `_into` variants and Workspace ----------------------------------

TEST(IntoOps, MatmulIntoReusesAcrossShapeChanges) {
  Rng rng(7);
  Matrix c;
  for (std::size_t s : {8u, 3u, 12u, 12u}) {
    Matrix a = random_matrix(s, s + 1, rng);
    Matrix b = random_matrix(s + 1, s + 2, rng);
    matmul_into(a, b, c);
    EXPECT_EQ(c.rows(), s);
    EXPECT_EQ(c.cols(), s + 2);
    EXPECT_LT(max_rel_diff(c, naive_matmul(a, b), kGemmEps), kGemmTol);
  }
}

TEST(IntoOps, BiasAndReductions) {
  Matrix m(2, 2, {1, 2, 3, 4});
  Matrix bias(1, 2, {10, 20});
  Matrix inplace = m;
  add_bias_inplace(inplace, bias);
  EXPECT_FLOAT_EQ(inplace(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(inplace(1, 1), 24.0f);

  Matrix acc(1, 2, {100, 200});
  column_sums_acc(m, acc);
  EXPECT_FLOAT_EQ(acc(0, 0), 104.0f);
  EXPECT_FLOAT_EQ(acc(0, 1), 206.0f);
}

TEST(IntoOps, ActivationAliasingIsSafe) {
  const Matrix y(1, 4, {0.0f, 0.0f, 0.5f, 2.0f});  // a ReLU's output
  Matrix dy(1, 4, {1, 2, 3, 4});
  Matrix fresh;
  relu_backward_into(y, dy, fresh);
  relu_backward_into(y, dy, dy);  // dx aliases dy
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(dy.data()[i], fresh.data()[i]);
}

TEST(IntoOps, ConcatGatherSlice) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 1, {9, 8});
  Matrix c(2, 2, {5, 6, 7, 8});
  Matrix out;
  Matrix::concat_cols_into(a, b, out);
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_FLOAT_EQ(out(1, 2), 8.0f);
  Matrix out3;
  Matrix::concat_cols_into(out, c, out3);
  EXPECT_EQ(out3.cols(), 5u);
  EXPECT_FLOAT_EQ(out3(0, 3), 5.0f);

  std::vector<std::size_t> idx = {1, 0, 1};
  Matrix g;
  a.gather_rows_into(idx, g);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(g(2, 1), 4.0f);

  Matrix sc;
  out3.slice_cols_into(1, 4, sc);
  EXPECT_EQ(sc.cols(), 3u);
  EXPECT_FLOAT_EQ(sc(0, 0), 2.0f);
}

TEST(WorkspaceTest, SlotsAreStableAndReused) {
  Workspace ws;
  Matrix& m1 = ws.mat(4, 4);
  Matrix& z1 = ws.zeros(2, 8);
  std::vector<float>& f1 = ws.floats(16, 1.5f);
  EXPECT_EQ(z1.abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(f1[7], 1.5f);

  ws.reset();
  Matrix& m2 = ws.mat(4, 4);
  Matrix& z2 = ws.zeros(2, 8);
  std::vector<float>& f2 = ws.floats(16);
  EXPECT_EQ(&m1, &m2);  // same slots after reset, in order
  EXPECT_EQ(&z1, &z2);
  EXPECT_EQ(&f1, &f2);
  EXPECT_FLOAT_EQ(f2[7], 0.0f);  // refilled
  EXPECT_EQ(ws.num_slots(), 3u);
}

// ---- 4. zero heap allocations in steady state ---------------------------

// Warm-up runs grow every scratch buffer (Ctx fields, Workspace slots,
// the GEMM engine's thread-local packing buffers) to its high-water
// mark; after that, iterations must not touch the allocator.
class AllocationFree : public ::testing::Test {};

TEST_F(AllocationFree, PooledGemmSteadyState) {
  // Products past kParallelFlops over a lent pool, one on the blocked
  // path and one narrow (a single output column): the row chunks go out
  // through try_parallel_for, and a chunk needs no buffer of the worker
  // that runs it.
  Rng rng(6);
  Matrix a = random_matrix(300, 64, rng);
  Matrix b = random_matrix(64, 48, rng);
  static_assert(300 * 64 * 48 >= kernel::kParallelFlops);
  Matrix a_col = random_matrix(4200, 128, rng);
  Matrix b_col = random_matrix(128, 1, rng);
  static_assert(4200 * 128 * 1 >= kernel::kParallelFlops);
  Matrix c, c_col;
  ThreadPool pool(3);
  for (int i = 0; i < 2; ++i) {
    matmul_into(a, b, c, &pool);
    matmul_into(a_col, b_col, c_col, &pool);
  }
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 5; ++i) {
    matmul_into(a, b, c, &pool);
    matmul_into(a_col, b_col, c_col, &pool);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "pooled GEMM allocated";
}

TEST_F(AllocationFree, GruCellForwardBackwardSteadyState) {
  Rng rng(2);
  nn::GRUCell cell("g", 72, 32, rng);
  Matrix x = random_matrix(300, 72, rng);
  Matrix h = random_matrix(300, 32, rng);
  Matrix dh_next = random_matrix(300, 32, rng);
  nn::GRUCell::Ctx ctx;
  Matrix h_new, dx;
  for (int i = 0; i < 2; ++i) {
    cell.forward_into(x, h, ctx, h_new);
    cell.backward_into(ctx, dh_next, 56, dx);
  }
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 3; ++i) {
    cell.forward_into(x, h, ctx, h_new);
    cell.backward_into(ctx, dh_next, 56, dx);
  }
  EXPECT_EQ(g_alloc_count.load(), before);
}

TEST_F(AllocationFree, TemporalAttentionForwardBackwardSteadyState) {
  // The BM_TemporalAttention configuration: steady-state iterations of
  // the attention forward path must not allocate (PR acceptance bar).
  const std::size_t n = 200, K = 10;
  Rng rng(4);
  nn::AttentionDims dims;
  dims.node_dim = 32;
  dims.edge_dim = 16;
  dims.time_dim = 8;
  dims.attn_dim = 32;
  dims.out_dim = 32;
  dims.num_heads = 2;
  dims.max_neighbors = K;
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(n, 32, rng);
  Matrix neigh = random_matrix(n * K, 32, rng);
  Matrix edges = random_matrix(n * K, 16, rng);
  Matrix dout = random_matrix(n, 32, rng);
  std::vector<std::size_t> slot_rows(n * K);
  std::iota(slot_rows.begin(), slot_rows.end(), std::size_t{0});
  const std::vector<std::size_t>& edge_rows = slot_rows;
  std::vector<float> dt(n * K, 1.0f);
  std::vector<std::size_t> valid(n, K);
  std::vector<std::size_t> roots(n);
  std::iota(roots.begin(), roots.end(), std::size_t{0});
  nn::TemporalAttention::Ctx ctx;
  nn::TemporalAttention::InputGrads grads;
  for (int i = 0; i < 2; ++i) {
    attn.forward(node, roots, neigh, slot_rows, edges, edge_rows, dt, valid,
                 &ctx);
    attn.backward_into(ctx, dout, grads);
  }
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 3; ++i) {
    const Matrix& out = attn.forward(node, roots, neigh, slot_rows, edges,
                                     edge_rows, dt, valid, &ctx);
    EXPECT_EQ(out.rows(), n);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "attention forward allocated";
  const std::size_t before_bwd = g_alloc_count.load();
  for (int i = 0; i < 3; ++i) attn.backward_into(ctx, dout, grads);
  EXPECT_EQ(g_alloc_count.load(), before_bwd) << "attention backward allocated";
}

TEST_F(AllocationFree, PooledInferenceSteadyState) {
  // The final evaluation's forward: large row loops fanned over a pool
  // (parallel_for never allocates) and no backward-only copies made.
  datagen::SynthSpec spec;
  spec.num_src = 40;
  spec.num_dst = 20;
  spec.num_events = 1200;
  spec.edge_feat_dim = 4;
  spec.node_feat_dim = 3;
  spec.seed = 8;
  const TemporalGraph g = datagen::generate(spec);
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.attn_dim = 8;
  cfg.num_heads = 2;
  cfg.emb_dim = 8;
  cfg.num_neighbors = 4;
  cfg.head_hidden = 8;
  Rng rng(5);
  TGNModel model(cfg, g, nullptr, rng);
  NeighborSampler sampler(g, cfg.num_neighbors);
  NegativeSampler negatives(g, 1, 3);
  MiniBatchBuilder builder(g, sampler, negatives, 49);
  MemoryState state(g.num_nodes(), cfg.mem_dim, model.mail_raw_dim());
  const std::size_t variant0[] = {0};
  MiniBatch mb;
  MemorySlice slice;
  MemoryWrite w;
  TGNModel::StepResult out;
  builder.build_into(0, 0, 200, variant0, mb);
  state.read_into(mb.unique_nodes, slice);
  model.infer_into(mb, slice, &w, out);
  state.write(w);  // the measured batch's GRU runs on these mails

  builder.build_into(1, 200, 500, variant0, mb);
  state.read_into(mb.unique_nodes, slice);
  ThreadPool pool(3);
  for (int i = 0; i < 2; ++i) {
    w.clear();
    model.infer_into(mb, slice, &w, out, &pool);
  }
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 3; ++i) {
    w.clear();
    model.infer_into(mb, slice, &w, out, &pool);
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "pooled infer_into allocated";
}

TEST_F(AllocationFree, WorkspaceSteadyState) {
  Workspace ws;
  auto iteration = [&] {
    ws.reset();
    Matrix& a = ws.mat(32, 16);
    Matrix& b = ws.zeros(8, 8);
    std::vector<float>& f = ws.floats(64);
    a(0, 0) = b(0, 0) + f[0];
  };
  for (int i = 0; i < 2; ++i) iteration();
  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 5; ++i) iteration();
  EXPECT_EQ(g_alloc_count.load(), before);
}

}  // namespace
}  // namespace disttgl
