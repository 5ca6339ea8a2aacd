#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace disttgl::nn {

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
  // The options in locals: the loop stores floats, which may alias
  // opts_'s, so read through `this` every element would reload them.
  const float lr = opts_.lr, beta1 = opts_.beta1, beta2 = opts_.beta2;
  const float eps = opts_.eps, decay = opts_.weight_decay;
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* values = p.value.data();
    const float* grads = p.grad.data();
    float* m = m_.data() + offsets_[i];
    float* v = v_.data() + offsets_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      float g = grads[j];
      if (decay > 0.0f) g += decay * values[j];
      m[j] = beta1 * m[j] + (1.0f - beta1) * g;
      v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      values[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
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
