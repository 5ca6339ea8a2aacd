#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace disttgl::nn {
namespace {

// One step's coefficients, shared by every parameter's span.
struct AdamCoeffs {
  float lr, beta1, beta2, eps, decay, bc1, bc2;
};

// The decay test is a template argument, so the loop has no branch; with
// sqrt free of errno (-fno-math-errno, src/nn/CMakeLists.txt) GCC
// vectorizes it. Contraction is off in this file, so every clone rounds
// each multiply and add on its own, as the scalar loop does, and any
// clone's values and moments are the scalar loop's bit for bit.
template <bool kDecay>
DT_KERNEL_INLINE void adam_span(std::size_t n, float* __restrict values,
                                const float* __restrict grads,
                                float* __restrict m, float* __restrict v,
                                const AdamCoeffs& k) {
  const float lr = k.lr, beta1 = k.beta1, beta2 = k.beta2, eps = k.eps;
  const float decay = k.decay, bc1 = k.bc1, bc2 = k.bc2;
  for (std::size_t j = 0; j < n; ++j) {
    float g = grads[j];
    if constexpr (kDecay) g += decay * values[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * g;
    v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    values[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

DT_KERNEL_CLONES
void adam_update(std::size_t n, float* values, const float* grads, float* m,
                 float* v, const AdamCoeffs& k) {
  if (k.decay > 0.0f) {
    adam_span<true>(n, values, grads, m, v, k);
  } else {
    adam_span<false>(n, values, grads, m, v, k);
  }
}

}  // namespace

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  double sq = 0.0;
  for (const Parameter* p : params) sq += p->grad.squared_norm();
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) p->grad *= scale;
  }
  return norm;
}

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  std::size_t total = 0;
  offsets_.reserve(params_.size());
  for (const Parameter* p : params_) {
    offsets_.push_back(total);
    total += p->size();
  }
  m_.assign(total, 0.0f);
  v_.assign(total, 0.0f);
}

void Adam::step() {
  ++t_;
  const AdamCoeffs k{
      .lr = opts_.lr,
      .beta1 = opts_.beta1,
      .beta2 = opts_.beta2,
      .eps = opts_.eps,
      .decay = opts_.weight_decay,
      .bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_)),
      .bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_)),
  };
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    adam_update(p.value.size(), p.value.data(), p.grad.data(),
                m_.data() + offsets_[i], v_.data() + offsets_[i], k);
  }
}

void Adam::restore_state(std::size_t steps, std::span<const float> m,
                         std::span<const float> v) {
  DT_CHECK_EQ(m.size(), m_.size());
  DT_CHECK_EQ(v.size(), v_.size());
  t_ = steps;
  std::copy(m.begin(), m.end(), m_.begin());
  std::copy(v.begin(), v.end(), v_.begin());
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

}  // namespace disttgl::nn
