#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace disttgl::nn {

namespace {
using kernel::Layout;
using kernel::load4;
using kernel::load8;
using kernel::store4;
using kernel::store8;
using kernel::v4sf;
using kernel::v8sf;

// Roots the forward scores, normalizes and aggregates per block: the
// block's scores (H·K floats a root) stay in L1 between the passes, and
// the softmax's exponentials run as one call per block and head.
constexpr std::size_t kRootBlock = 64;

// Per-root attention scale 1/sqrt(|N_v|) from Eq. 7.
DT_KERNEL_INLINE float root_scale(std::size_t valid) {
  return valid == 0 ? 0.0f : 1.0f / std::sqrt(static_cast<float>(valid));
}

// What the slot kernels read and write. Slot s = r·K + k of root r
// reads row index[s] of Kt and Vt, row edge_index[s] of the edge table
// (only when de > 0) and row s of Φ(Δt); root r reads row
// root_index[r] of q and qt. Rows of q, Kt, Vt are H·dh wide, of qt
// and tbar H·(de + dp): one tail per head. Each kernel copies this into
// a local first, so its stores (through may_alias vector types) do not
// make it reload the fields.
struct Slots {
  std::size_t K = 0, H = 0, dh = 0, de = 0, dp = 0;
  const std::size_t* root_index = nullptr;
  const std::size_t* valid = nullptr;
  const std::size_t* index = nullptr;
  const std::size_t* edge_index = nullptr;
  const float* edges = nullptr;
  const float* phi = nullptr;
  const float* q = nullptr;
  const float* qt = nullptr;
  const float* kt = nullptr;
  const float* vt = nullptr;
  Matrix* alpha = nullptr;  // per head: [n x K]
  // Forward outputs.
  float* h_att = nullptr;
  float* tbar = nullptr;
  // Backward: inputs, outputs and a root's [H x K] dα scratch.
  const float* dh_att = nullptr;
  const float* dtbar = nullptr;
  float* dq = nullptr;
  float* dqt = nullptr;
  float* dkt = nullptr;
  float* dvt = nullptr;
  float* dphi = nullptr;
  float* dalpha = nullptr;
};

// Row k of a root's slots in a table: base + idx[k]·ld.
struct IndexedRows {
  const float* base;
  std::size_t ld;
  const std::size_t* idx;
  DT_KERNEL_INLINE const float* operator()(std::size_t k) const {
    return base + idx[k] * ld;
  }
};

// Row k of a root's slots in a per-slot matrix: base + k·ld.
struct SlotRows {
  const float* base;
  std::size_t ld;
  DT_KERNEL_INLINE const float* operator()(std::size_t k) const {
    return base + k * ld;
  }
};

// A dot product's 8-lane, 4-lane and scalar partial sums, fed in
// blocks of w floats and summed once.
struct Dot {
  v8sf s8{};
  v4sf s4{};
  float s1 = 0.0f;

  DT_KERNEL_INLINE void add(const float* x, const float* y, std::size_t w) {
    std::size_t c = 0;
    for (; c + 8 <= w; c += 8) s8 += load8(x + c) * load8(y + c);
    if (c + 4 <= w) {
      s4 += load4(x + c) * load4(y + c);
      c += 4;
    }
    for (; c < w; ++c) s1 += x[c] * y[c];
  }
  DT_KERNEL_INLINE float sum() const {
    const v4sf h = __builtin_shufflevector(s8, s8, 0, 1, 2, 3) +
                   __builtin_shufflevector(s8, s8, 4, 5, 6, 7) + s4;
    const v4sf p = h + __builtin_shufflevector(h, h, 2, 3, 0, 1);
    return p[0] + p[1] + s1;
  }
};

// y[0, w) = Σ_{k<m} a[k]·x(k)[0, w), or y += that sum (kAdd): two
// 8-lane blocks at a time, then one, a 4-lane block and the scalars,
// each summed over the slots in registers and stored once. Every
// element sums its products in slot order, whatever its place in y.
template <bool kAdd, class Rows>
DT_KERNEL_INLINE void weighted_sum(const float* a, std::size_t m, Rows x,
                                   std::size_t w, float* y) {
  std::size_t c = 0;
  for (; c + 16 <= w; c += 16) {
    v8sf s0{}, s1{};
    for (std::size_t k = 0; k < m; ++k) {
      const v8sf ak = v8sf{} + a[k];
      const float* xk = x(k) + c;
      s0 += ak * load8(xk);
      s1 += ak * load8(xk + 8);
    }
    store8(y + c, kAdd ? load8(y + c) + s0 : s0);
    store8(y + c + 8, kAdd ? load8(y + c + 8) + s1 : s1);
  }
  if (c + 8 <= w) {
    v8sf s0{};
    for (std::size_t k = 0; k < m; ++k) s0 += (v8sf{} + a[k]) * load8(x(k) + c);
    store8(y + c, kAdd ? load8(y + c) + s0 : s0);
    c += 8;
  }
  if (c + 4 <= w) {
    v4sf s0{};
    for (std::size_t k = 0; k < m; ++k) s0 += (v4sf{} + a[k]) * load4(x(k) + c);
    store4(y + c, kAdd ? load4(y + c) + s0 : s0);
    c += 4;
  }
  for (; c < w; ++c) {
    float s0 = 0.0f;
    for (std::size_t k = 0; k < m; ++k) s0 += a[k] * x(k)[c];
    y[c] = kAdd ? y[c] + s0 : s0;
  }
}

// y[0, w) += a·x[0, w).
DT_KERNEL_INLINE void axpy(float a, const float* x, std::size_t w, float* y) {
  std::size_t c = 0;
  for (; c + 8 <= w; c += 8)
    store8(y + c, load8(y + c) + (v8sf{} + a) * load8(x + c));
  if (c + 4 <= w) {
    store4(y + c, load4(y + c) + (v4sf{} + a) * load4(x + c));
    c += 4;
  }
  for (; c < w; ++c) y[c] += a * x[c];
}

// Forward, roots [lo, hi): every valid slot's score per head,
// (q_h·Kt_h + qt_h·T)/sqrt(|N_v|), into alpha[h]'s rows, for the
// masked softmax to normalize in place.
DT_KERNEL_CLONES
void score_slots(const Slots& args, std::size_t lo, std::size_t hi) {
  const Slots a = args;
  const std::size_t T = a.de + a.dp, da = a.H * a.dh;
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t m = a.valid[r];
    const float scale = root_scale(m);
    const float* q = a.q + a.root_index[r] * da;
    const float* qt = a.qt + a.root_index[r] * a.H * T;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t s = r * a.K + k;
      const float* kt = a.kt + a.index[s] * da;
      const float* e = a.de > 0 ? a.edges + a.edge_index[s] * a.de : nullptr;
      const float* phi = a.phi + s * a.dp;
      for (std::size_t h = 0; h < a.H; ++h) {
        Dot dot;
        dot.add(q + h * a.dh, kt + h * a.dh, a.dh);
        dot.add(qt + h * T, e, a.de);
        dot.add(qt + h * T + a.de, phi, a.dp);
        a.alpha[h].row_ptr(r)[k] = dot.sum() * scale;
      }
    }
  }
}

// Forward, roots [lo, hi), after the softmax: h_att_h = Σ_k α_k·Vt_h
// and tbar_h = Σ_k α_k·T over each root's valid slots, every row
// written once (zeros for a root with none).
DT_KERNEL_CLONES
void aggregate_slots(const Slots& args, std::size_t lo, std::size_t hi) {
  const Slots a = args;
  const std::size_t T = a.de + a.dp, da = a.H * a.dh;
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t m = a.valid[r], s0 = r * a.K;
    float* hrow = a.h_att + r * da;
    float* tbrow = a.tbar + r * a.H * T;
    const SlotRows phi{a.phi + s0 * a.dp, a.dp};
    for (std::size_t h = 0; h < a.H; ++h) {
      const float* alpha = a.alpha[h].row_ptr(r);
      weighted_sum<false>(alpha, m,
                          IndexedRows{a.vt + h * a.dh, da, a.index + s0}, a.dh,
                          hrow + h * a.dh);
      if (a.de > 0)
        weighted_sum<false>(alpha, m,
                            IndexedRows{a.edges, a.de, a.edge_index + s0},
                            a.de, tbrow + h * T);
      weighted_sum<false>(alpha, m, phi, a.dp, tbrow + h * T + a.de);
    }
  }
}

// Backward, every root in order, so the scatter-adds into dKt and dVt
// and the adds onto dq's and dqt's root rows keep root-then-slot order.
// Per root: dα (dVt scattered as it goes); the softmax's backward and
// the root scale, in dalpha; dq and dqt summed over the slots and
// added once; dKt scattered; dΦ(Δt) written once per slot, with
// zeros past valid.
DT_KERNEL_CLONES
void backward_slots(const Slots& args, std::size_t n) {
  const Slots a = args;
  const std::size_t K = a.K, T = a.de + a.dp, da = a.H * a.dh;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t m = a.valid[r], s0 = r * K;
    float* dphi = a.dphi + s0 * a.dp;
    std::fill(dphi + m * a.dp, dphi + K * a.dp, 0.0f);
    if (m == 0) continue;
    const std::size_t d = a.root_index[r];
    const float* q = a.q + d * da;
    const float* qt = a.qt + d * a.H * T;
    const float* g = a.dh_att + r * da;
    const float* dtb = a.dtbar + r * a.H * T;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t s = s0 + k;
      const float* v = a.vt + a.index[s] * da;
      float* dv = a.dvt + a.index[s] * da;
      const float* e = a.de > 0 ? a.edges + a.edge_index[s] * a.de : nullptr;
      const float* phi = a.phi + s * a.dp;
      for (std::size_t h = 0; h < a.H; ++h) {
        Dot dot;
        dot.add(g + h * a.dh, v + h * a.dh, a.dh);
        dot.add(dtb + h * T, e, a.de);
        dot.add(dtb + h * T + a.de, phi, a.dp);
        a.dalpha[h * K + k] = dot.sum();
        axpy(a.alpha[h].row_ptr(r)[k], g + h * a.dh, a.dh, dv + h * a.dh);
      }
    }
    // ds = α·(dα − Σ α·dα)/sqrt(|N_v|), in place of dα.
    const float scale = root_scale(m);
    for (std::size_t h = 0; h < a.H; ++h) {
      const float* alpha = a.alpha[h].row_ptr(r);
      float* ds = a.dalpha + h * K;
      float dot = 0.0f;
      for (std::size_t k = 0; k < m; ++k) dot += alpha[k] * ds[k];
      for (std::size_t k = 0; k < m; ++k)
        ds[k] = alpha[k] * (ds[k] - dot) * scale;
    }
    float* dq = a.dq + d * da;
    float* dqt = a.dqt + d * a.H * T;
    for (std::size_t h = 0; h < a.H; ++h) {
      const float* ds = a.dalpha + h * K;
      weighted_sum<true>(ds, m, IndexedRows{a.kt + h * a.dh, da, a.index + s0},
                         a.dh, dq + h * a.dh);
      if (a.de > 0)
        weighted_sum<true>(ds, m, IndexedRows{a.edges, a.de, a.edge_index + s0},
                           a.de, dqt + h * T);
      weighted_sum<true>(ds, m, SlotRows{a.phi + s0 * a.dp, a.dp}, a.dp,
                         dqt + h * T + a.de);
    }
    for (std::size_t k = 0; k < m; ++k) {
      float* dk = a.dkt + a.index[s0 + k] * da;
      for (std::size_t h = 0; h < a.H; ++h)
        axpy(a.dalpha[h * K + k], q + h * a.dh, a.dh, dk + h * a.dh);
      // dΦ(Δt)_k = Σ_h α_h,k·dtbar_h + ds_h,k·qt_h over Φ's columns.
      float* y = dphi + k * a.dp;
      std::size_t c = 0;
      for (; c + 8 <= a.dp; c += 8) {
        v8sf acc{};
        for (std::size_t h = 0; h < a.H; ++h) {
          const std::size_t j = h * T + a.de + c;
          acc += (v8sf{} + a.alpha[h].row_ptr(r)[k]) * load8(dtb + j);
          acc += (v8sf{} + a.dalpha[h * K + k]) * load8(qt + j);
        }
        store8(y + c, acc);
      }
      if (c + 4 <= a.dp) {
        v4sf acc{};
        for (std::size_t h = 0; h < a.H; ++h) {
          const std::size_t j = h * T + a.de + c;
          acc += (v4sf{} + a.alpha[h].row_ptr(r)[k]) * load4(dtb + j);
          acc += (v4sf{} + a.dalpha[h * K + k]) * load4(qt + j);
        }
        store4(y + c, acc);
        c += 4;
      }
      for (; c < a.dp; ++c) {
        float acc = 0.0f;
        for (std::size_t h = 0; h < a.H; ++h) {
          const std::size_t j = h * T + a.de + c;
          acc += a.alpha[h].row_ptr(r)[k] * dtb[j];
          acc += a.dalpha[h * K + k] * qt[j];
        }
        y[c] = acc;
      }
    }
  }
}

// Rows of W_k and W_v: {S_w || E_vw || Φ(Δt)}.
std::size_t kv_in(const AttentionDims& d) {
  return d.node_dim + d.edge_dim + d.time_dim;
}

// out = s·W[row0, row0 + s.cols()) + bias: the projection through one
// row block of W, a [1 x W.cols()] bias row added.
void project_rows(const Matrix& w, std::size_t row0, const Matrix& bias,
                  const Matrix& s, Matrix& out, ThreadPool* pool) {
  out.reset_shape(s.rows(), w.cols());
  kernel::gemm(Layout::kNormal, Layout::kNormal, s.rows(), w.cols(), s.cols(),
               s.data(), s.cols(), w.row_ptr(row0), w.cols(), out.data(),
               out.cols(), /*accumulate=*/false, pool);
  add_bias_inplace(out, bias, pool);
}

// Backward of project_rows: dW[row0, ...) += sᵀ·dy, dbias += colsum(dy),
// and ds = dy·W[row0, ...)ᵀ written (or added, with `accumulate`).
void project_rows_backward(Parameter& w, std::size_t row0, Matrix& dbias,
                           const Matrix& s, const Matrix& dy, Matrix& ds,
                           bool accumulate) {
  const std::size_t cols = w.value.cols();
  kernel::gemm(Layout::kTransposed, Layout::kNormal, s.cols(), cols, s.rows(),
               s.data(), s.cols(), dy.data(), dy.cols(), w.grad.row_ptr(row0),
               cols, /*accumulate=*/true);
  column_sums_acc(dy, dbias);
  kernel::gemm(Layout::kNormal, Layout::kTransposed, s.rows(), s.cols(),
               dy.cols(), dy.data(), dy.cols(), w.value.row_ptr(row0), cols,
               ds.data(), ds.cols(), accumulate);
}
}  // namespace

TemporalAttention::TemporalAttention(std::string name, const AttentionDims& dims,
                                     Rng& rng)
    : dims_(dims),
      wq_(linear_weight(name + ".wq.weight", dims.node_dim + dims.time_dim,
                        dims.attn_dim, rng)),
      bq_(linear_bias(name + ".wq.bias", dims.node_dim + dims.time_dim,
                      dims.attn_dim, rng)),
      wk_(linear_weight(name + ".wk.weight", kv_in(dims), dims.attn_dim, rng)),
      bk_(linear_bias(name + ".wk.bias", kv_in(dims), dims.attn_dim, rng)),
      wv_(linear_weight(name + ".wv.weight", kv_in(dims), dims.attn_dim, rng)),
      bv_(linear_bias(name + ".wv.bias", kv_in(dims), dims.attn_dim, rng)),
      wo_(linear_weight(name + ".wo.weight", dims.attn_dim + dims.node_dim,
                        dims.out_dim, rng)),
      bo_(linear_bias(name + ".wo.bias", dims.attn_dim + dims.node_dim,
                      dims.out_dim, rng)),
      time_enc_(name + ".time_enc", dims.time_dim) {
  DT_CHECK_GT(dims.num_heads, 0u);
  DT_CHECK_EQ(dims.attn_dim % dims.num_heads, 0u);
  DT_CHECK_GT(dims.max_neighbors, 0u);
}

const Matrix& TemporalAttention::forward(
    const Matrix& root_table, std::span<const std::size_t> root_index,
    const Matrix& neigh_table, std::span<const std::size_t> neigh_index,
    const Matrix& edge_table, std::span<const std::size_t> edge_index,
    std::span<const float> dt, std::span<const std::size_t> valid, Ctx* ctx,
    const Pass& pass) const {
  DT_CHECK(ctx != nullptr);
  const std::size_t n = root_index.size();
  const std::size_t Ur = root_table.rows();
  const std::size_t U = neigh_table.rows();
  const std::size_t K = dims_.max_neighbors;
  const std::size_t H = dims_.num_heads;
  const std::size_t da = dims_.attn_dim;
  const std::size_t dh = da / H;
  const std::size_t dn = dims_.node_dim;
  const std::size_t de = dims_.edge_dim;
  const std::size_t dp = dims_.time_dim;
  const std::size_t dout = dims_.out_dim;
  const std::size_t ldt = H * (de + dp);  // qt / tbar row: H tails
  DT_CHECK_EQ(root_table.cols(), dn);
  DT_CHECK_EQ(neigh_table.cols(), dn);
  DT_CHECK_EQ(neigh_index.size(), n * K);
  if (de > 0) {
    DT_CHECK_EQ(edge_table.cols(), de);
    DT_CHECK_EQ(edge_index.size(), n * K);
  }
  DT_CHECK_EQ(dt.size(), n * K);
  DT_CHECK_EQ(valid.size(), n);
  for (std::size_t r = 0; r < n; ++r) {
    DT_CHECK_LT(root_index[r], Ur);
    DT_CHECK_LE(valid[r], K);
    for (std::size_t k = 0; k < valid[r]; ++k) {
      DT_CHECK_LT(neigh_index[r * K + k], U);
      if (de > 0) DT_CHECK_LT(edge_index[r * K + k], edge_table.rows());
    }
  }
  ThreadPool* pool = pass.pool;

  if (pass.train) {
    ctx->root_index.assign(root_index.begin(), root_index.end());
    ctx->valid.assign(valid.begin(), valid.end());
    ctx->index.assign(neigh_index.begin(), neigh_index.end());
    if (de > 0) ctx->edge_index.assign(edge_index.begin(), edge_index.end());
    ctx->edges = de > 0 ? &edge_table : nullptr;
    ctx->roots = root_table;
    ctx->table = neigh_table;
  }

  // Query, once per root-table row: Q = R·W_q,top + c, where the Φ(0)
  // block's share c = Φ(0)·W_q,tail + b_q is one row for every root.
  const float zero_dt = 0.0f;
  time_enc_.forward_into({&zero_dt, 1}, pass.train ? &ctx->t0_ctx : nullptr,
                         ctx->phi0);
  project_rows(wq_.value, dn, bq_.value, ctx->phi0, ctx->qc, nullptr);
  project_rows(wq_.value, 0, ctx->qc, root_table, ctx->q, pool);
  // The output's s_v half, S = R·W_o,s + b_o, once per root-table row.
  project_rows(wo_.value, da, bo_.value, root_table, ctx->so, pool);

  // Keys/values: the node halves once per neighbor-table row, and per
  // head the query folded through the key's tail rows.
  project_rows(wk_.value, 0, bk_.value, neigh_table, ctx->kt, pool);
  project_rows(wv_.value, 0, bv_.value, neigh_table, ctx->vt, pool);
  time_enc_.forward_into(dt, pass.train ? &ctx->tdt_ctx : nullptr, ctx->phidt,
                         pool);
  const float* wk_tail = wk_.value.row_ptr(dn);
  ctx->qt.reset_shape(Ur, ldt);
  for (std::size_t h = 0; h < H; ++h)
    kernel::gemm(Layout::kNormal, Layout::kTransposed, Ur, de + dp, dh,
                 ctx->q.data() + h * dh, da, wk_tail + h * dh, da,
                 ctx->qt.data() + h * (de + dp), ldt, /*accumulate=*/false,
                 pool);

  // The slot kernels, a block of roots at a time: every head's scores,
  // the masked softmax in place in alpha, then h_att and tbar. Rows are
  // independent, so a block's bits do not depend on the split.
  ctx->alpha.resize(H);
  for (Matrix& alpha : ctx->alpha) alpha.reset_shape(n, K);
  ctx->h_att.reset_shape(n, da);
  ctx->tbar.reset_shape(n, ldt);
  const Slots slots{
      .K = K, .H = H, .dh = dh, .de = de, .dp = dp,
      .root_index = root_index.data(), .valid = valid.data(),
      .index = neigh_index.data(), .edge_index = edge_index.data(),
      .edges = edge_table.data(), .phi = ctx->phidt.data(),
      .q = ctx->q.data(), .qt = ctx->qt.data(), .kt = ctx->kt.data(),
      .vt = ctx->vt.data(), .alpha = ctx->alpha.data(),
      .h_att = ctx->h_att.data(), .tbar = ctx->tbar.data()};
  parallel_rows(pool, n, K * 2 * (da + ldt),
                [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; b += kRootBlock) {
      const std::size_t e = std::min(hi, b + kRootBlock);
      score_slots(slots, b, e);
      for (Matrix& alpha : ctx->alpha)
        masked_softmax_rows(alpha.row_ptr(b), e - b, K,
                            valid.subspan(b, e - b));
      aggregate_slots(slots, b, e);
    }
  });
  // The value's tail rows, applied once per root to the folded tail.
  const float* wv_tail = wv_.value.row_ptr(dn);
  for (std::size_t h = 0; h < H; ++h)
    kernel::gemm(Layout::kNormal, Layout::kNormal, n, dh, de + dp,
                 ctx->tbar.data() + h * (de + dp), ldt, wv_tail + h * dh, da,
                 ctx->h_att.data() + h * dh, da, /*accumulate=*/true, pool);

  // Output head: ReLU(h_v·W_o,h + S[d(r)]).
  ctx->out.reset_shape(n, dout);
  kernel::gemm(Layout::kNormal, Layout::kNormal, n, dout, da,
               ctx->h_att.data(), da, wo_.value.data(), dout, ctx->out.data(),
               dout, /*accumulate=*/false, pool);
  parallel_rows(pool, n, 2 * dout, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      float* orow = ctx->out.row_ptr(r);
      const float* srow = ctx->so.row_ptr(root_index[r]);
      for (std::size_t c = 0; c < dout; ++c)
        orow[c] = std::max(orow[c] + srow[c], 0.0f);
    }
  });
  return ctx->out;
}

void TemporalAttention::backward_into(Ctx& ctx, const Matrix& dout,
                                      InputGrads& grads) {
  const std::size_t n = ctx.root_index.size();
  const std::size_t Ur = ctx.roots.rows();
  const std::size_t K = dims_.max_neighbors;
  const std::size_t H = dims_.num_heads;
  const std::size_t da = dims_.attn_dim;
  const std::size_t dh = da / H;
  const std::size_t dn = dims_.node_dim;
  const std::size_t de = dims_.edge_dim;
  const std::size_t dp = dims_.time_dim;
  const std::size_t dw = dims_.out_dim;
  const std::size_t ldt = H * (de + dp);

  // Output head. The h_v half per root; the s_v half and b_o over the
  // root table, from the pre-ReLU gradient summed onto its rows in
  // root order.
  relu_backward_into(ctx.out, dout, ctx.dpre);
  kernel::gemm(Layout::kTransposed, Layout::kNormal, da, dw, n,
               ctx.h_att.data(), da, ctx.dpre.data(), dw, wo_.grad.data(), dw,
               /*accumulate=*/true);
  ctx.dh_att.reset_shape(n, da);
  kernel::gemm(Layout::kNormal, Layout::kTransposed, n, da, dw,
               ctx.dpre.data(), dw, wo_.value.data(), dw, ctx.dh_att.data(),
               da, /*accumulate=*/false);
  ctx.dso.resize(Ur, dw, 0.0f);
  for (std::size_t r = 0; r < n; ++r)
    ctx.dso.add_row_from(ctx.root_index[r], ctx.dpre.row(r));
  grads.dnode_repr.reset_shape(Ur, dn);
  project_rows_backward(wo_, da, bo_.grad, ctx.roots, ctx.dso,
                        grads.dnode_repr, /*accumulate=*/false);

  // Backward of h_att_h += tbar_h·W_v,tail,h, per head.
  const float* wk_tail = wk_.value.row_ptr(dn);
  const float* wv_tail = wv_.value.row_ptr(dn);
  float* gwk_tail = wk_.grad.row_ptr(dn);
  float* gwv_tail = wv_.grad.row_ptr(dn);
  ctx.dtbar.reset_shape(n, ldt);
  for (std::size_t h = 0; h < H; ++h) {
    kernel::gemm(Layout::kTransposed, Layout::kNormal, de + dp, dh, n,
                 ctx.tbar.data() + h * (de + dp), ldt,
                 ctx.dh_att.data() + h * dh, da, gwv_tail + h * dh, da,
                 /*accumulate=*/true);
    kernel::gemm(Layout::kNormal, Layout::kTransposed, n, de + dp, dh,
                 ctx.dh_att.data() + h * dh, da, wv_tail + h * dh, da,
                 ctx.dtbar.data() + h * (de + dp), ldt, /*accumulate=*/false);
  }

  // The slot kernel. Slot gradients land on the neighbor table's rows
  // (dKt, dVt), the root table's (dq, dqt, summed in root order) and
  // Φ(Δt)'s columns of T.
  ctx.dq.resize(Ur, da, 0.0f);
  ctx.dqt.resize(Ur, ldt, 0.0f);
  ctx.dkt.resize(ctx.kt.rows(), da, 0.0f);
  ctx.dvt.resize(ctx.vt.rows(), da, 0.0f);
  ctx.dphidt.reset_shape(n * K, dp);
  ctx.dalpha.resize(H * K);
  backward_slots(
      Slots{.K = K, .H = H, .dh = dh, .de = de, .dp = dp,
            .root_index = ctx.root_index.data(), .valid = ctx.valid.data(),
            .index = ctx.index.data(), .edge_index = ctx.edge_index.data(),
            .edges = de > 0 ? ctx.edges->data() : nullptr,
            .phi = ctx.phidt.data(),
            .q = ctx.q.data(), .qt = ctx.qt.data(), .kt = ctx.kt.data(),
            .vt = ctx.vt.data(), .alpha = ctx.alpha.data(),
            .dh_att = ctx.dh_att.data(), .dtbar = ctx.dtbar.data(),
            .dq = ctx.dq.data(), .dqt = ctx.dqt.data(), .dkt = ctx.dkt.data(),
            .dvt = ctx.dvt.data(), .dphi = ctx.dphidt.data(),
            .dalpha = ctx.dalpha.data()},
      n);

  // Backward of qt_h = q_h·W_k,tail,hᵀ, over the root table's rows.
  for (std::size_t h = 0; h < H; ++h) {
    kernel::gemm(Layout::kNormal, Layout::kNormal, Ur, dh, de + dp,
                 ctx.dqt.data() + h * (de + dp), ldt, wk_tail + h * dh, da,
                 ctx.dq.data() + h * dh, da, /*accumulate=*/true);
    kernel::gemm(Layout::kTransposed, Layout::kNormal, de + dp, dh, Ur,
                 ctx.dqt.data() + h * (de + dp), ldt, ctx.q.data() + h * dh, da,
                 gwk_tail + h * dh, da, /*accumulate=*/true);
  }

  // Query projection, over the root table's rows: Q = R·W_q,top + c and
  // c = Φ(0)·W_q,tail + b_q, so dc = colsum(dQ) and Φ(0)'s gradient is
  // one row.
  ctx.dqc.resize(1, da, 0.0f);
  project_rows_backward(wq_, 0, ctx.dqc, ctx.roots, ctx.dq, grads.dnode_repr,
                        /*accumulate=*/true);
  ctx.dphi0.reset_shape(1, dp);
  project_rows_backward(wq_, dn, bq_.grad, ctx.phi0, ctx.dqc, ctx.dphi0,
                        /*accumulate=*/false);
  time_enc_.backward_cols(ctx.t0_ctx, ctx.dphi0, 0);

  // The node halves, over the neighbor table's rows. Edge-feature
  // gradients are never formed: features are dataset constants.
  grads.dneigh_repr.reset_shape(ctx.table.rows(), dn);
  project_rows_backward(wk_, 0, bk_.grad, ctx.table, ctx.dkt,
                        grads.dneigh_repr, /*accumulate=*/false);
  project_rows_backward(wv_, 0, bv_.grad, ctx.table, ctx.dvt,
                        grads.dneigh_repr, /*accumulate=*/true);
  time_enc_.backward_cols(ctx.tdt_ctx, ctx.dphidt, 0);
}

void TemporalAttention::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&wq_);
  out.push_back(&bq_);
  out.push_back(&wk_);
  out.push_back(&bk_);
  out.push_back(&wv_);
  out.push_back(&bv_);
  out.push_back(&wo_);
  out.push_back(&bo_);
  time_enc_.collect_parameters(out);
}

}  // namespace disttgl::nn
