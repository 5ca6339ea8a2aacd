#include "nn/gru_cell.hpp"

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/vmath.hpp"

namespace disttgl::nn {

GRUCell::GRUCell(std::string name, std::size_t input_dim, std::size_t hidden_dim,
                 Rng& rng)
    : wi_(name + ".w_ih", input_dim, 3 * hidden_dim),
      wh_(name + ".w_hh", hidden_dim, 3 * hidden_dim),
      bi_(name + ".b_ih", 1, 3 * hidden_dim),
      bh_(name + ".b_hh", 1, 3 * hidden_dim) {
  kaiming_uniform_fanin(wi_.value, rng, hidden_dim);
  kaiming_uniform_fanin(wh_.value, rng, hidden_dim);
  kaiming_uniform_fanin(bi_.value, rng, hidden_dim);
  kaiming_uniform_fanin(bh_.value, rng, hidden_dim);
}

void GRUCell::forward_into(const Matrix& x, const Matrix& h, Ctx& ctx,
                           Matrix& h_new, const Pass& pass) const {
  const std::size_t d = hidden_dim();
  const std::size_t nrows = x.rows();
  DT_CHECK_EQ(x.cols(), input_dim());
  DT_CHECK_EQ(h.cols(), d);
  DT_CHECK_EQ(h.rows(), nrows);

  matmul_into(x, wi_.value, ctx.gi, pass.pool);  // [n x 3d]
  add_bias_inplace(ctx.gi, bi_.value, pass.pool);
  matmul_into(h, wh_.value, ctx.gh, pass.pool);  // [n x 3d]
  add_bias_inplace(ctx.gh, bh_.value, pass.pool);

  ctx.r.reset_shape(nrows, d);
  ctx.z.reset_shape(nrows, d);
  ctx.n.reset_shape(nrows, d);
  ctx.hn_lin.reset_shape(nrows, d);
  h_new.reset_shape(nrows, d);
  // Each gate's pre-activations fill its block, which then goes
  // through one vector sigmoid or tanh; n's need r first.
  const std::size_t cells = nrows * d;
  for (std::size_t row = 0; row < nrows; ++row) {
    const float* gi = ctx.gi.row_ptr(row);
    const float* gh = ctx.gh.row_ptr(row);
    float* r = ctx.r.row_ptr(row);
    float* z = ctx.z.row_ptr(row);
    for (std::size_t c = 0; c < d; ++c) {
      r[c] = gi[c] + gh[c];
      z[c] = gi[d + c] + gh[d + c];
    }
  }
  vmath::sigmoid(ctx.r.data(), cells, ctx.r.data());
  vmath::sigmoid(ctx.z.data(), cells, ctx.z.data());
  for (std::size_t row = 0; row < nrows; ++row) {
    const float* gi = ctx.gi.row_ptr(row);
    const float* gh = ctx.gh.row_ptr(row);
    const float* r = ctx.r.row_ptr(row);
    float* n = ctx.n.row_ptr(row);
    float* hn = ctx.hn_lin.row_ptr(row);
    for (std::size_t c = 0; c < d; ++c) {
      hn[c] = gh[2 * d + c];
      n[c] = gi[2 * d + c] + r[c] * hn[c];
    }
  }
  vmath::tanh(ctx.n.data(), cells, ctx.n.data());
  for (std::size_t row = 0; row < nrows; ++row) {
    const float* z = ctx.z.row_ptr(row);
    const float* n = ctx.n.row_ptr(row);
    const float* hrow = h.row_ptr(row);
    float* out = h_new.row_ptr(row);
    for (std::size_t c = 0; c < d; ++c)
      out[c] = (1.0f - z[c]) * n[c] + z[c] * hrow[c];
  }

  if (pass.train) {
    ctx.x = x;  // capacity-reusing copies for the weight gradients
    ctx.h = h;
  }
}

void GRUCell::backward_into(Ctx& ctx, const Matrix& dh_next,
                            std::size_t dx_col0, Matrix& dx) {
  const std::size_t d = hidden_dim();
  const std::size_t in = input_dim();
  const std::size_t nrows = ctx.h.rows();
  DT_CHECK_EQ(dh_next.rows(), nrows);
  DT_CHECK_EQ(dh_next.cols(), d);
  DT_CHECK_LE(dx_col0, in);

  // One fused pass: h' = (1-z)n + zh, through tanh / the gate sigmoids,
  // into the packed [r|z|n] gradient layout the weight GEMMs consume.
  ctx.dgi.reset_shape(nrows, 3 * d);
  ctx.dgh.reset_shape(nrows, 3 * d);
  for (std::size_t row = 0; row < nrows; ++row) {
    const float* g = dh_next.row_ptr(row);
    const float* r = ctx.r.row_ptr(row);
    const float* z = ctx.z.row_ptr(row);
    const float* n = ctx.n.row_ptr(row);
    const float* hn = ctx.hn_lin.row_ptr(row);
    const float* hrow = ctx.h.row_ptr(row);
    float* dgi = ctx.dgi.row_ptr(row);
    float* dgh = ctx.dgh.row_ptr(row);
    for (std::size_t c = 0; c < d; ++c) {
      const float dn = g[c] * (1.0f - z[c]);
      const float dz = g[c] * (hrow[c] - n[c]);
      const float dn_in = dn * (1.0f - n[c] * n[c]);     // tanh'
      const float dr = dn_in * hn[c];
      const float dhn = dn_in * r[c];
      const float dr_in = dr * r[c] * (1.0f - r[c]);     // σ'
      const float dz_in = dz * z[c] * (1.0f - z[c]);
      dgi[c] = dr_in;
      dgi[d + c] = dz_in;
      dgi[2 * d + c] = dn_in;
      dgh[c] = dr_in;
      dgh[d + c] = dz_in;
      dgh[2 * d + c] = dhn;
    }
  }

  matmul_tn_acc(ctx.x, ctx.dgi, wi_.grad);
  matmul_tn_acc(ctx.h, ctx.dgh, wh_.grad);
  column_sums_acc(ctx.dgi, bi_.grad);
  column_sums_acc(ctx.dgh, bh_.grad);

  // dx[:, c] = dgi · W_ih[dx_col0 + c, :]ᵀ.
  dx.reset_shape(nrows, in - dx_col0);
  kernel::gemm(kernel::Layout::kNormal, kernel::Layout::kTransposed, nrows,
               in - dx_col0, 3 * d, ctx.dgi.data(), 3 * d,
               wi_.value.row_ptr(dx_col0), 3 * d, dx.data(), dx.cols(),
               /*accumulate=*/false);
}

void GRUCell::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&wi_);
  out.push_back(&wh_);
  out.push_back(&bi_);
  out.push_back(&bh_);
}

}  // namespace disttgl::nn
