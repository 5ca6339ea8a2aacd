// Unit + property tests for the tensor substrate. GEMM kernels are
// cross-checked against a naive triple loop over randomized shapes
// (TEST_P sweeps), masked softmax against invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace disttgl {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      c(i, j) = acc;
    }
  return c;
}

TEST(Matrix, BasicAccessors) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
  m(0, 0) = 9.0f;
  EXPECT_FLOAT_EQ(m(0, 0), 9.0f);
}

TEST(Matrix, OutOfBoundsThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 2), std::logic_error);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  a += b;
  EXPECT_FLOAT_EQ(a(0, 1), 7.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a(0, 2), 18.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 12.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, std::logic_error);
  EXPECT_THROW(a.add_scaled(b, 1.0f), std::logic_error);
}

TEST(Matrix, GatherScatterRows) {
  Matrix m(4, 2, {0, 1, 10, 11, 20, 21, 30, 31});
  std::vector<std::size_t> idx = {3, 0};
  Matrix g;
  m.gather_rows_into(idx, g);
  EXPECT_FLOAT_EQ(g(0, 0), 30.0f);
  EXPECT_FLOAT_EQ(g(1, 1), 1.0f);
  Matrix s(2, 2, {-1, -2, -3, -4});
  m.scatter_rows(idx, s);
  EXPECT_FLOAT_EQ(m(3, 0), -1.0f);
  EXPECT_FLOAT_EQ(m(0, 1), -4.0f);
}

TEST(Matrix, ConcatAndSlice) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 1, {9, 8});
  Matrix c;
  Matrix::concat_cols_into(a, b, c);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(0, 2), 9.0f);
  Matrix s;
  c.slice_cols_into(1, 3, s);
  EXPECT_FLOAT_EQ(s(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(s(1, 1), 8.0f);
}

TEST(Matrix, Reshape) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  m.reshape(3, 2);
  EXPECT_FLOAT_EQ(m(2, 1), 6.0f);
  EXPECT_THROW(m.reshape(4, 2), std::logic_error);
}

TEST(Matrix, Norms) {
  Matrix m(1, 3, {3, 4, 0});
  EXPECT_FLOAT_EQ(m.squared_norm(), 25.0f);
  EXPECT_FLOAT_EQ(m.abs_max(), 4.0f);
}

TEST(Matrix, ExternalBinding) {
  // bind_external re-bases a matrix onto caller storage (the
  // Module::freeze_flat_storage primitive): contents move, reads and
  // writes alias the buffer, element count is pinned.
  std::vector<float> storage(6, -1.0f);
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FALSE(m.is_view());
  m.bind_external(storage.data());
  EXPECT_TRUE(m.is_view());
  EXPECT_EQ(m.data(), storage.data());
  EXPECT_FLOAT_EQ(storage[4], 5.0f);  // contents copied in
  storage[0] = 9.0f;
  EXPECT_FLOAT_EQ(m(0, 0), 9.0f);     // reads alias
  m(1, 2) = 8.0f;
  EXPECT_FLOAT_EQ(storage[5], 8.0f);  // writes alias

  m.reshape(3, 2);                    // same element count: fine
  EXPECT_THROW(m.resize(4, 4), std::logic_error);  // growth: not fine

  // Copying a view yields an owning matrix; copy-assigning into a view
  // writes through the binding.
  Matrix copy = m;
  EXPECT_FALSE(copy.is_view());
  copy(0, 0) = -5.0f;
  EXPECT_FLOAT_EQ(m(0, 0), 9.0f);  // original untouched
  m = Matrix(3, 2, {10, 11, 12, 13, 14, 15});
  EXPECT_TRUE(m.is_view());
  EXPECT_FLOAT_EQ(storage[0], 10.0f);

  // Moving transfers the binding.
  Matrix moved = std::move(m);
  EXPECT_TRUE(moved.is_view());
  EXPECT_EQ(moved.data(), storage.data());
}

struct GemmShape {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c;
  matmul_into(a, b, c);
  EXPECT_LT(max_rel_diff(c, naive_matmul(a, b)), 1e-4f);
}

TEST_P(GemmTest, TransposedVariantsMatchNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 999 + k * 77 + n);
  Matrix a = random_matrix(m, k, rng);
  Matrix bt = random_matrix(n, k, rng);  // for A·Bᵀ
  // Build B = btᵀ naively for reference.
  Matrix b(k, n);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = bt(j, i);
  Matrix c;
  matmul_nt_into(a, bt, c);
  EXPECT_LT(max_rel_diff(c, naive_matmul(a, b)), 1e-4f);

  Matrix at = random_matrix(k, m, rng);  // for Aᵀ·B
  Matrix a2(m, k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) a2(i, j) = at(j, i);
  Matrix b2 = random_matrix(k, n, rng);
  Matrix c_tn(m, n);  // Aᵀ·B accumulates: start from zero
  matmul_tn_acc(at, b2, c_tn);
  EXPECT_LT(max_rel_diff(c_tn, naive_matmul(a2, b2)), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 2}, GemmShape{8, 8, 8},
                      GemmShape{17, 3, 9}, GemmShape{2, 31, 7},
                      GemmShape{40, 16, 24}));

TEST(Ops, MatmulAccAddsInPlace) {
  Rng rng(5);
  Matrix at = random_matrix(3, 4, rng);  // Aᵀ of a [4 x 3] A
  Matrix b = random_matrix(3, 5, rng);
  Matrix c(4, 5, 1.0f);
  matmul_tn_acc(at, b, c);
  Matrix a(4, 3);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = at(j, i);
  Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c.data()[i], expected.data()[i] + 1.0f, 1e-4f);
}

TEST(Ops, AddBiasAndColumnSums) {
  Matrix m(2, 2, {1, 2, 3, 4});
  Matrix bias(1, 2, {10, 20});
  Matrix y = m;
  add_bias_inplace(y, bias);
  EXPECT_FLOAT_EQ(y(1, 1), 24.0f);
  Matrix cs(1, 2);  // column sums accumulate: start from zero
  column_sums_acc(m, cs);
  EXPECT_FLOAT_EQ(cs(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(cs(0, 1), 6.0f);
}

class SoftmaxTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoftmaxTest, RowsSumToOneOverValidPrefix) {
  const std::size_t cols = 8;
  Rng rng(GetParam());
  // Entries past valid hold scores the mask must overwrite.
  Matrix y = random_matrix(6, cols, rng);
  std::vector<std::size_t> valid = {0, 1, 3, 8, 5, 2};
  masked_softmax_rows(y.data(), y.rows(), cols, valid);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      if (c >= valid[r]) {
        EXPECT_FLOAT_EQ(y(r, c), 0.0f) << "masked entries must be zero";
      } else {
        EXPECT_GT(y(r, c), 0.0f);
      }
      sum += y(r, c);
    }
    if (valid[r] > 0) EXPECT_NEAR(sum, 1.0f, 1e-5f);
    else EXPECT_FLOAT_EQ(sum, 0.0f);
  }
}

TEST_P(SoftmaxTest, InvariantToConstantShift) {
  Rng rng(GetParam() + 100);
  Matrix y1 = random_matrix(3, 5, rng);
  std::vector<std::size_t> valid = {5, 3, 4};
  Matrix y2 = y1;
  for (std::size_t i = 0; i < y2.size(); ++i) y2.data()[i] += 100.0f;
  masked_softmax_rows(y1.data(), 3, 5, valid);
  masked_softmax_rows(y2.data(), 3, 5, valid);
  EXPECT_LT(max_rel_diff(y1, y2), 1e-4f);
}

// The attention runs it a block of roots at a time, and pooled passes
// split the roots differently: a row's bits must not depend on its
// block.
TEST_P(SoftmaxTest, BlockSplitKeepsBits) {
  Rng rng(GetParam() + 200);
  Matrix whole = random_matrix(37, 10, rng);
  std::vector<std::size_t> valid(37);
  for (std::size_t r = 0; r < valid.size(); ++r) valid[r] = r % 11;
  Matrix split = whole;
  masked_softmax_rows(whole.data(), 37, 10, valid);
  for (std::size_t r = 0; r < 37; ++r)
    masked_softmax_rows(split.row_ptr(r), 1, 10, {&valid[r], 1});
  EXPECT_EQ(std::memcmp(whole.data(), split.data(),
                        whole.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxTest, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Ops, ActivationsAndBackwards) {
  const Matrix x(1, 4, {-2.0f, -0.5f, 0.5f, 2.0f});
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(stable_sigmoid(x.data()[i]),
                1.0f / (1.0f + std::exp(-x.data()[i])), 1e-6f);
  EXPECT_FALSE(std::isnan(stable_sigmoid(-1000.0f)));
  EXPECT_FALSE(std::isnan(stable_sigmoid(1000.0f)));
  const Matrix r(1, 4, {0.0f, 0.0f, 0.5f, 2.0f});  // ReLU(x)

  Matrix dy(1, 4, {1.0f, 2.0f, 3.0f, 4.0f});
  Matrix dr;
  relu_backward_into(r, dy, dr);
  EXPECT_FLOAT_EQ(dr(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dr(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(dr(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(dr(0, 3), 4.0f);
  // dx may alias dy: PairHead's backward runs it in place.
  relu_backward_into(r, dy, dy);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dy.data()[i], dr.data()[i]);
}

TEST(Ops, LogSigmoidStable) {
  EXPECT_NEAR(log_sigmoid(0.0f), std::log(0.5f), 1e-6f);
  EXPECT_LT(log_sigmoid(-100.0f), -99.0f);   // ≈ x
  EXPECT_GT(log_sigmoid(100.0f), -1e-6f);    // ≈ 0
  EXPECT_FALSE(std::isnan(log_sigmoid(-1000.0f)));
  EXPECT_FALSE(std::isnan(log_sigmoid(1000.0f)));
}

}  // namespace
}  // namespace disttgl
