#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/gemm.hpp"
#include "tensor/vmath.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {

namespace {
using kernel::Layout;

void gemm_checked(Layout la, Layout lb, const Matrix& a, const Matrix& b,
                  Matrix& c, bool accumulate, ThreadPool* pool = nullptr) {
  const bool ta = la == Layout::kTransposed;
  const bool tb = lb == Layout::kTransposed;
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t ka = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  DT_CHECK_EQ(ka, kb);
  DT_CHECK(&c != &a);
  DT_CHECK(&c != &b);
  if (accumulate) {
    DT_CHECK_EQ(c.rows(), m);
    DT_CHECK_EQ(c.cols(), n);
  } else {
    c.reset_shape(m, n);
  }
  kernel::gemm(la, lb, m, n, ka, a.data(), a.cols(), b.data(), b.cols(),
               c.data(), c.cols(), accumulate, pool);
}
}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 ThreadPool* pool) {
  gemm_checked(Layout::kNormal, Layout::kNormal, a, b, c, /*accumulate=*/false,
               pool);
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_checked(Layout::kNormal, Layout::kTransposed, a, b, c, /*accumulate=*/false);
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_checked(Layout::kTransposed, Layout::kNormal, a, b, c, /*accumulate=*/true);
}

void add_bias_inplace(Matrix& m, const Matrix& bias, ThreadPool* pool) {
  DT_CHECK_EQ(bias.rows(), 1u);
  DT_CHECK_EQ(bias.cols(), m.cols());
  const float* b = bias.row_ptr(0);
  parallel_rows(pool, m.rows(), m.cols(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      float* row = m.row_ptr(r);
      for (std::size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
    }
  });
}

void column_sums_acc(const Matrix& dy, Matrix& acc) {
  DT_CHECK_EQ(acc.rows(), 1u);
  DT_CHECK_EQ(acc.cols(), dy.cols());
  float* o = acc.row_ptr(0);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.row_ptr(r);
    for (std::size_t c = 0; c < dy.cols(); ++c) o[c] += row[c];
  }
}

void masked_softmax_rows(float* x, std::size_t rows, std::size_t cols,
                         std::span<const std::size_t> valid) {
  DT_CHECK_EQ(valid.size(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t n = valid[r];
    DT_CHECK_LE(n, cols);
    float* row = x + r * cols;
    float mx = n > 0 ? row[0] : 0.0f;
    for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
    for (std::size_t c = 0; c < n; ++c) row[c] -= mx;
    for (std::size_t c = n; c < cols; ++c)
      row[c] = -std::numeric_limits<float>::infinity();
  }
  vmath::exp(x, rows * cols, x);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t n = valid[r];
    if (n == 0) continue;
    float* row = x + r * cols;
    float denom = 0.0f;
    for (std::size_t c = 0; c < n; ++c) denom += row[c];
    const float inv = 1.0f / denom;
    for (std::size_t c = 0; c < n; ++c) row[c] *= inv;
  }
}

void relu_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx) {
  DT_CHECK(y.same_shape(dy));
  dx.reset_shape(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i)
    dx.data()[i] = y.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
}

float log_sigmoid(float x) {
  // log(1/(1+e^-x)) = -log1p(e^-x) for x>=0; x - log1p(e^x) otherwise.
  return x >= 0.0f ? -std::log1p(std::exp(-x)) : x - std::log1p(std::exp(x));
}

float max_rel_diff(const Matrix& a, const Matrix& b, float eps) {
  DT_CHECK(a.same_shape(b));
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    const float denom = std::max({std::abs(x), std::abs(y), eps});
    worst = std::max(worst, std::abs(x - y) / denom);
  }
  return worst;
}

}  // namespace disttgl
