#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/thread_pool.hpp"

namespace disttgl {

Matrix::Matrix(std::size_t rows, std::size_t cols,
               std::initializer_list<float> values)
    : rows_(rows), cols_(cols), data_(values), ptr_(data_.data()) {
  DT_CHECK_EQ(data_.size(), rows * cols);
}

Matrix::Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
  if (other.size() > 0) data_.assign(other.ptr_, other.ptr_ + other.size());
  ptr_ = data_.data();
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  if (view_) {
    // A view's element count is fixed by its binding; copy through it.
    DT_CHECK_EQ(size(), other.size());
    rows_ = other.rows_;
    cols_ = other.cols_;
    if (size() > 0) std::memcpy(ptr_, other.ptr_, size() * sizeof(float));
  } else {
    rows_ = other.rows_;
    cols_ = other.cols_;
    if (other.size() > 0) {
      data_.assign(other.ptr_, other.ptr_ + other.size());
    } else {
      data_.clear();
    }
    ptr_ = data_.data();
  }
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(std::move(other.data_)),
      view_(other.view_) {
  ptr_ = view_ ? other.ptr_ : data_.data();
  other.rows_ = other.cols_ = 0;
  other.data_.clear();
  other.ptr_ = other.data_.data();
  other.view_ = false;
}

Matrix& Matrix::operator=(Matrix&& other) {
  if (this == &other) return *this;
  if (view_) return *this = other;  // copy through the binding
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  view_ = other.view_;
  ptr_ = view_ ? other.ptr_ : data_.data();
  other.rows_ = other.cols_ = 0;
  other.data_.clear();
  other.ptr_ = other.data_.data();
  other.view_ = false;
  return *this;
}

void Matrix::bind_external(float* storage) {
  DT_CHECK(!view_);
  if (size() > 0) std::memcpy(storage, data_.data(), size() * sizeof(float));
  data_.clear();
  data_.shrink_to_fit();
  ptr_ = storage;
  view_ = true;
}

void Matrix::rebind_external(float* storage) {
  if (!view_) {
    data_.clear();
    data_.shrink_to_fit();
  }
  ptr_ = storage;
  view_ = true;
}

void Matrix::fill(float value) { std::fill(ptr_, ptr_ + size(), value); }

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  DT_CHECK_EQ(rows * cols, size());
  rows_ = rows;
  cols_ = cols;
}

void Matrix::resize(std::size_t rows, std::size_t cols, float fill) {
  if (view_) {
    DT_CHECK_EQ(rows * cols, size());
    rows_ = rows;
    cols_ = cols;
    this->fill(fill);
    return;
  }
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
  ptr_ = data_.data();
}

void Matrix::reset_shape(std::size_t rows, std::size_t cols) {
  if (view_) {
    DT_CHECK_EQ(rows * cols, size());
    rows_ = rows;
    cols_ = cols;
    return;
  }
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  ptr_ = data_.data();
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DT_CHECK(same_shape(other));
  for (std::size_t i = 0; i < size(); ++i) ptr_[i] += other.ptr_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (std::size_t i = 0; i < size(); ++i) ptr_[i] *= s;
  return *this;
}

Matrix& Matrix::add_scaled(const Matrix& other, float s) {
  DT_CHECK(same_shape(other));
  for (std::size_t i = 0; i < size(); ++i) ptr_[i] += s * other.ptr_[i];
  return *this;
}

void Matrix::copy_row_from(std::size_t r, std::span<const float> src) {
  DT_CHECK_LT(r, rows_);
  DT_CHECK_EQ(src.size(), cols_);
  std::memcpy(row_ptr(r), src.data(), cols_ * sizeof(float));
}

void Matrix::add_row_from(std::size_t r, std::span<const float> src) {
  DT_CHECK_LT(r, rows_);
  DT_CHECK_EQ(src.size(), cols_);
  float* dst = row_ptr(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] += src[c];
}

void Matrix::gather_rows_into(std::span<const std::size_t> index,
                              Matrix& out) const {
  DT_CHECK(&out != this);
  out.reset_shape(index.size(), cols_);
  for (std::size_t i = 0; i < index.size(); ++i) {
    DT_CHECK_LT(index[i], rows_);
    std::memcpy(out.row_ptr(i), row_ptr(index[i]), cols_ * sizeof(float));
  }
}

void Matrix::scatter_rows(std::span<const std::size_t> index, const Matrix& src) {
  DT_CHECK_EQ(index.size(), src.rows());
  DT_CHECK_EQ(src.cols(), cols_);
  for (std::size_t i = 0; i < index.size(); ++i) {
    DT_CHECK_LT(index[i], rows_);
    std::memcpy(row_ptr(index[i]), src.row_ptr(i), cols_ * sizeof(float));
  }
}

void Matrix::concat_cols_into(const Matrix& a, const Matrix& b, Matrix& out,
                              ThreadPool* pool) {
  DT_CHECK_EQ(a.rows(), b.rows());
  DT_CHECK(&out != &a);
  DT_CHECK(&out != &b);
  out.reset_shape(a.rows(), a.cols() + b.cols());
  parallel_rows(pool, a.rows(), out.cols(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      std::memcpy(out.row_ptr(r), a.row_ptr(r), a.cols() * sizeof(float));
      std::memcpy(out.row_ptr(r) + a.cols(), b.row_ptr(r),
                  b.cols() * sizeof(float));
    }
  });
}

void Matrix::slice_cols_into(std::size_t lo, std::size_t hi, Matrix& out) const {
  DT_CHECK_LE(lo, hi);
  DT_CHECK_LE(hi, cols_);
  DT_CHECK(&out != this);
  out.reset_shape(rows_, hi - lo);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::memcpy(out.row_ptr(r), row_ptr(r) + lo, (hi - lo) * sizeof(float));
  }
}

float Matrix::squared_norm() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i)
    acc += static_cast<double>(ptr_[i]) * ptr_[i];
  return static_cast<float>(acc);
}

float Matrix::abs_max() const {
  float m = 0.0f;
  for (std::size_t i = 0; i < size(); ++i) m = std::max(m, std::abs(ptr_[i]));
  return m;
}

}  // namespace disttgl
