// Dense row-major float matrix — the single tensor type of DistTGL.
//
// Everything in the training stack (node memory, mails, activations,
// weights) is 2-D; batching is always along rows. Keeping a single
// concrete type with contiguous storage makes the daemon's shared-buffer
// slicing (memcpy of row ranges) and the GEMM kernels trivial, and keeps
// compile times low compared to an expression-template tensor.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace disttgl {

class ThreadPool;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill), ptr_(data_.data()) {}
  // Row-major literal constructor, used heavily in tests.
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<float> values);

  // Copying always yields an owning matrix; copy-assigning *into* a view
  // copies the elements through the view (shapes must carry the same
  // element count). Moving transfers the view binding.
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  // Re-bases this matrix onto caller-owned storage of size() floats:
  // current contents are copied in, owned heap memory is released, and
  // the matrix becomes a *view* — all reads/writes go through `storage`,
  // which must outlive the matrix. Views keep a fixed element count
  // (reshape is fine, growth is not). This is the primitive behind
  // nn::Module::freeze_flat_storage(): parameters stay ordinary Matrices
  // while their elements live in one contiguous buffer.
  void bind_external(float* storage);
  // As bind_external, but *adopting*: current contents are discarded and
  // `storage` is read as-is — nothing is written through the pointer, so
  // many matrices may rebind onto one shared immutable buffer (the
  // serving tier points every reader model's weights at the published
  // snapshot this way). Callable repeatedly, including on an existing
  // view; after the first call it never touches the heap, which keeps
  // snapshot swaps on the score path allocation-free.
  void rebind_external(float* storage);
  bool is_view() const { return view_; }

  float& operator()(std::size_t r, std::size_t c) {
    DT_CHECK_LT(r, rows_);
    DT_CHECK_LT(c, cols_);
    return ptr_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    DT_CHECK_LT(r, rows_);
    DT_CHECK_LT(c, cols_);
    return ptr_[r * cols_ + c];
  }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  float* row_ptr(std::size_t r) { return ptr_ + r * cols_; }
  const float* row_ptr(std::size_t r) const { return ptr_ + r * cols_; }
  std::span<float> row(std::size_t r) { return {row_ptr(r), cols_}; }
  std::span<const float> row(std::size_t r) const { return {row_ptr(r), cols_}; }

  void fill(float value);
  void zero() { fill(0.0f); }
  // Reshape preserving element count.
  void reshape(std::size_t rows, std::size_t cols);
  // Resize discarding contents (fills with `fill`).
  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f);
  // Resize without the fill pass: contents are unspecified. Reuses heap
  // capacity, so repeated same-shape calls never allocate — the shape
  // primitive behind Workspace and the `_into` kernels.
  void reset_shape(std::size_t rows, std::size_t cols);

  // ---- in-place elementwise ----
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(float s);
  // this += s * other (axpy).
  Matrix& add_scaled(const Matrix& other, float s);

  // ---- row-level ops ----
  void copy_row_from(std::size_t r, std::span<const float> src);
  void add_row_from(std::size_t r, std::span<const float> src);

  // Copy the rows listed in `index` into a caller-owned
  // [index.size() x cols] output (reshaped in place).
  void gather_rows_into(std::span<const std::size_t> index, Matrix& out) const;
  // Scatter rows of `src` into the rows listed in `index` (overwrite).
  void scatter_rows(std::span<const std::size_t> index, const Matrix& src);

  // Column-wise concatenation {A || B} into a caller-owned output: both
  // must share row counts. `pool` fans the rows out
  // (util/thread_pool.hpp parallel_rows); the output is the same.
  static void concat_cols_into(const Matrix& a, const Matrix& b, Matrix& out,
                               ThreadPool* pool = nullptr);
  // Columns [lo, hi) into a caller-owned output.
  void slice_cols_into(std::size_t lo, std::size_t hi, Matrix& out) const;

  // Frobenius norms / reductions, used by grad-clipping and tests.
  float squared_norm() const;
  float abs_max() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  // Invariant: owning matrices (view_ == false) keep ptr_ == data_.data();
  // views keep data_ empty and ptr_ pointing at external storage.
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
  float* ptr_ = nullptr;
  bool view_ = false;
};

}  // namespace disttgl
