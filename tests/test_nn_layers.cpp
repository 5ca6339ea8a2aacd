// Behavioural tests for NN layers beyond raw gradients: shapes, masking,
// optimizer dynamics, parameter flattening.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/predictor.hpp"
#include "nn/time_encoding.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

TEST(TimeEncoding, ZeroDeltaGivesCosPhase) {
  nn::TimeEncoding enc("te", 4);
  std::vector<float> dt = {0.0f};
  Matrix y;
  enc.forward_into(dt, nullptr, y);
  // φ initialized to 0 ⇒ cos(0) = 1 everywhere.
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(y(0, c), 1.0f, 1e-6f);
}

TEST(TimeEncoding, DistinguishesScales) {
  nn::TimeEncoding enc("te", 8);
  std::vector<float> dt = {1.0f, 1000.0f};
  Matrix y;
  enc.forward_into(dt, nullptr, y);
  float diff = 0.0f;
  for (std::size_t c = 0; c < 8; ++c) diff += std::abs(y(0, c) - y(1, c));
  EXPECT_GT(diff, 0.1f);
}

TEST(GRUCell, InterpolatesBetweenInputAndHidden) {
  Rng rng(3);
  nn::GRUCell cell("g", 2, 3, rng);
  Matrix x = random_matrix(4, 2, rng);
  Matrix h = random_matrix(4, 3, rng);
  nn::GRUCell::Ctx ctx;
  Matrix y;
  cell.forward_into(x, h, ctx, y, nn::Pass{.train = false});
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 3u);
  // h' = (1−z)n + zh with n ∈ (−1,1): outputs are bounded by the convex
  // combination of tanh range and previous hidden values.
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float bound = std::max(1.0f, std::abs(h.data()[i])) + 1e-5f;
    EXPECT_LE(std::abs(y.data()[i]), bound);
  }
}

TEST(GRUCell, StateDependsOnInput) {
  Rng rng(4);
  nn::GRUCell cell("g", 2, 3, rng);
  Matrix h = random_matrix(1, 3, rng);
  Matrix x1(1, 2, {1.0f, -1.0f});
  Matrix x2(1, 2, {-1.0f, 1.0f});
  nn::GRUCell::Ctx ctx;
  Matrix y1, y2;
  cell.forward_into(x1, h, ctx, y1, nn::Pass{.train = false});
  cell.forward_into(x2, h, ctx, y2, nn::Pass{.train = false});
  EXPECT_GT(max_rel_diff(y1, y2), 1e-3f);
}

TEST(Attention, OutputShapesAndIsolatedRoots) {
  Rng rng(5);
  nn::AttentionDims dims;
  dims.node_dim = 4;
  dims.edge_dim = 0;  // no edge features (MOOC/Flights style)
  dims.time_dim = 4;
  dims.attn_dim = 8;
  dims.out_dim = 6;
  dims.num_heads = 2;
  dims.max_neighbors = 4;
  nn::TemporalAttention attn("a", dims, rng);

  const std::size_t n = 3, K = 4;
  Matrix node = random_matrix(n, 4, rng);
  Matrix neigh = random_matrix(n * K, 4, rng);
  std::vector<std::size_t> slot_rows(n * K);
  std::iota(slot_rows.begin(), slot_rows.end(), std::size_t{0});
  const Matrix edges;  // no edge features: an empty table and index
  std::vector<float> dt(n * K, 1.0f);
  std::vector<std::size_t> valid = {4, 0, 2};
  const std::vector<std::size_t> roots = {0, 1, 2};
  nn::TemporalAttention::Ctx ctx;
  Matrix out = attn.forward(node, roots, neigh, slot_rows, edges, {}, dt,
                            valid, &ctx);
  EXPECT_EQ(out.rows(), n);
  EXPECT_EQ(out.cols(), dims.out_dim);
  // The isolated root (valid = 0) still produces an embedding (from its
  // own representation through W_o), generally nonzero.
  float norm1 = 0.0f;
  for (std::size_t c = 0; c < dims.out_dim; ++c) norm1 += std::abs(out(1, c));
  EXPECT_GT(norm1, 0.0f);
}

TEST(Attention, AttendsToRelevantNeighbor) {
  // A root whose query matches one specific key should weight that
  // neighbor's value most. Engineer it via identical node dims and a
  // near-identity setup: just check the alpha distribution is not flat
  // when keys differ strongly.
  Rng rng(6);
  nn::AttentionDims dims;
  dims.node_dim = 3;
  dims.edge_dim = 0;
  dims.time_dim = 2;
  dims.attn_dim = 4;
  dims.out_dim = 3;
  dims.num_heads = 1;
  dims.max_neighbors = 2;
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(1, 3, rng);
  Matrix neigh(2, 3);
  neigh.copy_row_from(0, node.row(0));  // neighbor 0 similar to root
  for (std::size_t c = 0; c < 3; ++c) neigh(1, c) = -node(0, c);
  const std::vector<std::size_t> slot_rows = {0, 1};
  const Matrix edges;
  std::vector<float> dt = {0.0f, 0.0f};
  std::vector<std::size_t> valid = {2};
  const std::vector<std::size_t> roots = {0};
  nn::TemporalAttention::Ctx ctx;
  attn.forward(node, roots, neigh, slot_rows, edges, {}, dt, valid, &ctx);
  const Matrix& alpha = ctx.alpha[0];
  EXPECT_NEAR(alpha(0, 0) + alpha(0, 1), 1.0f, 1e-5f);
  EXPECT_NE(alpha(0, 0), alpha(0, 1));
}

// ---- The factored attention against a per-slot reference -------------
//
// The reference materializes every root's query input {s_v || Φ(0)}
// and output input {h_v || s_v}, and every valid slot's key and value
// row, K = {S_w || E_vw || Φ(Δt)}·W_k + b_k (likewise V), and runs the
// attention and its backward on them, root by root, in double. The
// layer forms none of those rows and projects each root-table row once
// (attention.hpp), so sums reassociate: every tensor must match within
// kAttnRelTol in relative L2 (the largest seen is 7.6e-7).
// The one exception is b_k's gradient, 0 in exact arithmetic
// (Σ_k ∂L/∂score_k = 0 per root and head): its rounding residue is held
// to kAttnRelTol times the norm of W_k's gradient instead.

constexpr double kAttnRelTol = 1e-5;

struct AttnShape {
  std::size_t n, K, U;
  std::size_t node_dim, edge_dim, time_dim, attn_dim, heads;
  enum Fill { kRandom, kNone, kFull } fill;
  // Rows of the root table; 0 gives every root its own row.
  std::size_t root_rows = 0;
};

void PrintTo(const AttnShape& a, std::ostream* os) {
  static const char* const kFill[] = {"random", "none", "full"};
  *os << "n=" << a.n << " K=" << a.K << " U=" << a.U << " dn=" << a.node_dim
      << " de=" << a.edge_dim << " dp=" << a.time_dim << " da=" << a.attn_dim
      << " H=" << a.heads << " valid=" << kFill[a.fill];
  if (a.root_rows > 0) *os << " root_rows=" << a.root_rows;
}

using DMat = std::vector<std::vector<double>>;

DMat dzeros(std::size_t r, std::size_t c) {
  return DMat(r, std::vector<double>(c, 0.0));
}

// Everything the reference produces, laid out like the layer's own.
struct AttnRef {
  DMat out;
  DMat dnode;                    // per-root rows summed by root index
  DMat dneigh;                   // per-slot rows summed by index
  std::vector<DMat> param_grads; // collect_parameters order
};

AttnRef per_slot_reference(const nn::AttentionDims& d,
                           const std::vector<nn::Parameter*>& params,
                           const Matrix& roots,
                           const std::vector<std::size_t>& root_index,
                           const Matrix& table,
                           const std::vector<std::size_t>& index,
                           const Matrix& edges,
                           const std::vector<std::size_t>& edge_index,
                           const std::vector<float>& dt,
                           const std::vector<std::size_t>& valid,
                           const Matrix& dout) {
  const std::size_t n = root_index.size(), K = d.max_neighbors;
  const std::size_t H = d.num_heads;
  const std::size_t dn = d.node_dim, de = d.edge_dim, dp = d.time_dim;
  const std::size_t da = d.attn_dim, dh = da / H, dout_w = d.out_dim;
  const std::size_t dx = dn + de + dp;
  // wq.w wq.b wk.w wk.b wv.w wv.b wo.w wo.b omega phi
  const Matrix &wq = params[0]->value, &bq = params[1]->value;
  const Matrix &wk = params[2]->value, &bk = params[3]->value;
  const Matrix &wv = params[4]->value, &bv = params[5]->value;
  const Matrix &wo = params[6]->value, &bo = params[7]->value;
  const Matrix &om = params[8]->value, &ph = params[9]->value;
  AttnRef ref;
  for (const nn::Parameter* p : params)
    ref.param_grads.push_back(dzeros(p->value.rows(), p->value.cols()));
  DMat &gwq = ref.param_grads[0], &gbq = ref.param_grads[1];
  DMat &gwk = ref.param_grads[2], &gbk = ref.param_grads[3];
  DMat &gwv = ref.param_grads[4], &gbv = ref.param_grads[5];
  DMat &gwo = ref.param_grads[6], &gbo = ref.param_grads[7];
  DMat &gom = ref.param_grads[8], &gph = ref.param_grads[9];
  ref.out = dzeros(n, dout_w);
  ref.dnode = dzeros(roots.rows(), dn);
  ref.dneigh = dzeros(table.rows(), dn);

  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t m = valid[r];
    const std::size_t v = root_index[r];  // s_v is row v of roots
    // Query {s_v || Φ(0)}.
    std::vector<double> q_in(dn + dp), q(da);
    for (std::size_t c = 0; c < dn; ++c) q_in[c] = roots(v, c);
    for (std::size_t c = 0; c < dp; ++c)
      q_in[dn + c] = std::cos(double{ph(0, c)});
    for (std::size_t j = 0; j < da; ++j) {
      q[j] = bq(0, j);
      for (std::size_t i = 0; i < dn + dp; ++i) q[j] += q_in[i] * wq(i, j);
    }
    // The materialized per-slot rows and their projections.
    DMat x = dzeros(m, dx), kk = dzeros(m, da), vv = dzeros(m, da);
    std::vector<double> phase(m * dp);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t s = r * K + k;
      for (std::size_t c = 0; c < dn; ++c) x[k][c] = table(index[s], c);
      for (std::size_t c = 0; c < de; ++c)
        x[k][dn + c] = edges(edge_index[s], c);
      for (std::size_t c = 0; c < dp; ++c) {
        phase[k * dp + c] = double{dt[s]} * om(0, c) + ph(0, c);
        x[k][dn + de + c] = std::cos(phase[k * dp + c]);
      }
      for (std::size_t j = 0; j < da; ++j) {
        kk[k][j] = bk(0, j);
        vv[k][j] = bv(0, j);
        for (std::size_t i = 0; i < dx; ++i) {
          kk[k][j] += x[k][i] * wk(i, j);
          vv[k][j] += x[k][i] * wv(i, j);
        }
      }
    }
    const double scale = m == 0 ? 0.0 : 1.0 / std::sqrt(double(m));
    DMat alpha = dzeros(H, m);
    std::vector<double> h_att(da, 0.0);
    for (std::size_t h = 0; h < H; ++h) {
      double mx = -1e300;
      for (std::size_t k = 0; k < m; ++k) {
        double sc = 0.0;
        for (std::size_t c = 0; c < dh; ++c)
          sc += q[h * dh + c] * kk[k][h * dh + c];
        alpha[h][k] = sc * scale;
        mx = std::max(mx, alpha[h][k]);
      }
      double z = 0.0;
      for (std::size_t k = 0; k < m; ++k)
        z += alpha[h][k] = std::exp(alpha[h][k] - mx);
      for (std::size_t k = 0; k < m; ++k) {
        alpha[h][k] /= z;
        for (std::size_t c = 0; c < dh; ++c)
          h_att[h * dh + c] += alpha[h][k] * vv[k][h * dh + c];
      }
    }
    // Output head ReLU(W_o {h_v || s_v} + b_o), and its backward.
    std::vector<double> o_in(da + dn), dpre(dout_w), do_in(da + dn, 0.0);
    for (std::size_t c = 0; c < da; ++c) o_in[c] = h_att[c];
    for (std::size_t c = 0; c < dn; ++c) o_in[da + c] = roots(v, c);
    for (std::size_t j = 0; j < dout_w; ++j) {
      double pre = bo(0, j);
      for (std::size_t i = 0; i < da + dn; ++i) pre += o_in[i] * wo(i, j);
      ref.out[r][j] = std::max(pre, 0.0);
      dpre[j] = pre > 0.0 ? double{dout(r, j)} : 0.0;
      gbo[0][j] += dpre[j];
      for (std::size_t i = 0; i < da + dn; ++i) {
        gwo[i][j] += o_in[i] * dpre[j];
        do_in[i] += dpre[j] * wo(i, j);
      }
    }
    for (std::size_t c = 0; c < dn; ++c) ref.dnode[v][c] += do_in[da + c];
    // Attention core.
    std::vector<double> dq(da, 0.0);
    DMat dk = dzeros(m, da), dv = dzeros(m, da);
    for (std::size_t h = 0; h < H; ++h) {
      std::vector<double> dalpha(m);
      double dot = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        dalpha[k] = 0.0;
        for (std::size_t c = 0; c < dh; ++c) {
          dalpha[k] += do_in[h * dh + c] * vv[k][h * dh + c];
          dv[k][h * dh + c] += alpha[h][k] * do_in[h * dh + c];
        }
        dot += alpha[h][k] * dalpha[k];
      }
      for (std::size_t k = 0; k < m; ++k) {
        const double ds = alpha[h][k] * (dalpha[k] - dot) * scale;
        for (std::size_t c = 0; c < dh; ++c) {
          dq[h * dh + c] += ds * kk[k][h * dh + c];
          dk[k][h * dh + c] += ds * q[h * dh + c];
        }
      }
    }
    // K/V projections over the materialized rows.
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t s = r * K + k;
      std::vector<double> dxrow(dx, 0.0);
      for (std::size_t j = 0; j < da; ++j) {
        gbk[0][j] += dk[k][j];
        gbv[0][j] += dv[k][j];
        for (std::size_t i = 0; i < dx; ++i) {
          gwk[i][j] += x[k][i] * dk[k][j];
          gwv[i][j] += x[k][i] * dv[k][j];
          dxrow[i] += dk[k][j] * wk(i, j) + dv[k][j] * wv(i, j);
        }
      }
      for (std::size_t c = 0; c < dn; ++c) ref.dneigh[index[s]][c] += dxrow[c];
      for (std::size_t c = 0; c < dp; ++c) {
        const double dphase = -std::sin(phase[k * dp + c]) * dxrow[dn + de + c];
        gom[0][c] += dphase * dt[s];
        gph[0][c] += dphase;
      }
    }
    // Query projection.
    for (std::size_t j = 0; j < da; ++j) {
      gbq[0][j] += dq[j];
      for (std::size_t i = 0; i < dn + dp; ++i) gwq[i][j] += q_in[i] * dq[j];
    }
    for (std::size_t i = 0; i < dn + dp; ++i) {
      double g = 0.0;
      for (std::size_t j = 0; j < da; ++j) g += dq[j] * wq(i, j);
      if (i < dn) ref.dnode[v][i] += g;
      else gph[0][i - dn] += -std::sin(double{ph(0, i - dn)}) * g;
    }
  }
  return ref;
}

double l2_norm(const DMat& m) {
  double sq = 0.0;
  for (const auto& row : m)
    for (const double v : row) sq += v * v;
  return std::sqrt(sq);
}

// {‖got − want‖₂ / ‖want‖₂, ‖got − want‖₂}; the ratio is 0 when both
// are 0 (a gradient no slot reaches).
std::pair<double, double> l2_error(const Matrix& got, const DMat& want) {
  double sq = 0.0;
  EXPECT_EQ(got.rows(), want.size());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    EXPECT_EQ(got.cols(), want[r].size());
    for (std::size_t c = 0; c < got.cols(); ++c) {
      const double e = double{got(r, c)} - want[r][c];
      sq += e * e;
    }
  }
  const double diff = std::sqrt(sq);
  return {diff == 0.0 ? 0.0 : diff / l2_norm(want), diff};
}

class FactoredAttentionTest : public ::testing::TestWithParam<AttnShape> {};

TEST_P(FactoredAttentionTest, MatchesPerSlotReference) {
  const AttnShape p = GetParam();
  nn::AttentionDims dims;
  dims.node_dim = p.node_dim;
  dims.edge_dim = p.edge_dim;
  dims.time_dim = p.time_dim;
  dims.attn_dim = p.attn_dim;
  dims.out_dim = 6;
  dims.num_heads = p.heads;
  dims.max_neighbors = p.K;
  Rng init(p.n * 7 + p.U);
  nn::TemporalAttention attn("a", dims, init);

  const std::size_t n = p.n, K = p.K, U = p.U;
  const std::size_t Ur = p.root_rows == 0 ? n : p.root_rows;
  Rng rng(p.n + 31 * p.K + 17 * p.edge_dim + p.heads);
  Matrix roots = random_matrix(Ur, dims.node_dim, rng);
  Matrix table = random_matrix(U, dims.node_dim, rng);
  // The edge table has fewer rows than slots, so slots share rows, as
  // they share a graph's events; with no edge features it is empty.
  const std::size_t E = p.edge_dim > 0 ? n * K / 2 + 1 : 0;
  Matrix edges = random_matrix(E, p.edge_dim, rng);
  std::vector<float> dt(n * K);
  for (float& d : dt) d = static_cast<float>(rng.uniform(0.0, 50.0));
  std::vector<std::size_t> valid(n);
  for (std::size_t& v : valid)
    v = p.fill == AttnShape::kNone   ? 0
        : p.fill == AttnShape::kFull ? K
                                     : rng.uniform_int(K + 1);
  // Slots past valid are never read: their neighbor and edge index is
  // a row so far out of range that its address is not canonical, so a
  // read of it faults, even where its score would be masked anyway.
  constexpr std::size_t kUnread = std::size_t{1} << 50;
  std::vector<std::size_t> index(n * K), edge_index;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < K; ++k)
      index[r * K + k] = k < valid[r] ? rng.uniform_int(U) : kUnread;
  if (E > 0) {
    edge_index.resize(n * K);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t k = 0; k < K; ++k)
        edge_index[r * K + k] = k < valid[r] ? rng.uniform_int(E) : kUnread;
  }
  Matrix dout = random_matrix(n, dims.out_dim, rng);
  // Each root's row, in first-seen order as TGNModel builds them: the
  // first Ur roots each take a new row, the rest draw from all of them.
  std::vector<std::size_t> root_index(n);
  for (std::size_t r = 0; r < n; ++r)
    root_index[r] = r < Ur ? r : rng.uniform_int(Ur);

  // An inference pass over a lent pool has the serial pass's bits.
  nn::TemporalAttention::Ctx ctx, pooled_ctx;
  ThreadPool pool(2);
  const Matrix serial =
      attn.forward(roots, root_index, table, index, edges, edge_index, dt,
                   valid, &ctx, nn::Pass{.train = false});
  const Matrix& pooled =
      attn.forward(roots, root_index, table, index, edges, edge_index, dt,
                   valid, &pooled_ctx, nn::Pass{.train = false, .pool = &pool});
  ASSERT_TRUE(serial.same_shape(pooled));
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.size() * sizeof(float)),
            0);

  const Matrix& out = attn.forward(roots, root_index, table, index, edges,
                                   edge_index, dt, valid, &ctx);
  EXPECT_EQ(std::memcmp(out.data(), serial.data(), out.size() * sizeof(float)),
            0)
      << "training and inference passes differ";
  attn.zero_grad();
  nn::TemporalAttention::InputGrads grads;
  attn.backward_into(ctx, dout, grads);
  const auto params = attn.parameters();
  ASSERT_EQ(params.size(), 10u);
  const AttnRef ref =
      per_slot_reference(dims, params, roots, root_index, table, index, edges,
                         edge_index, dt, valid, dout);

  auto expect_close = [](const Matrix& got, const DMat& want,
                         const std::string& what) {
    EXPECT_LE(l2_error(got, want).first, kAttnRelTol) << what;
  };
  expect_close(out, ref.out, "output");
  expect_close(grads.dnode_repr, ref.dnode, "dnode_repr");
  expect_close(grads.dneigh_repr, ref.dneigh, "dneigh_repr");
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->name == "a.wk.bias") {
      EXPECT_LE(l2_error(params[i]->grad, ref.param_grads[i]).second,
                kAttnRelTol * l2_norm(ref.param_grads[i - 1]))
          << params[i]->name;
    } else {
      expect_close(params[i]->grad, ref.param_grads[i], params[i]->name);
    }
  }
}

// The Kt/Vt products are U·attn_dim·node_dim multiply-adds, from 7·8·12
// to 245·100·100; every one runs gemm's packed micro-kernel.
INSTANTIATE_TEST_SUITE_P(
    Shapes, FactoredAttentionTest,
    ::testing::Values(
        // Repeated indices into a small table, each edge width and head
        // count (table products under 2K multiply-adds).
        AttnShape{40, 5, 7, 12, 0, 4, 8, 1, AttnShape::kRandom},
        AttnShape{40, 5, 7, 12, 0, 4, 8, 2, AttnShape::kRandom},
        AttnShape{40, 5, 7, 12, 3, 4, 8, 2, AttnShape::kRandom},
        AttnShape{40, 5, 7, 12, 16, 4, 8, 4, AttnShape::kRandom},
        AttnShape{30, 4, 20, 12, 3, 4, 8, 1, AttnShape::kFull},
        AttnShape{30, 4, 20, 12, 16, 4, 8, 4, AttnShape::kFull},
        // No populated slot anywhere, and every slot populated.
        AttnShape{25, 5, 7, 12, 3, 4, 8, 2, AttnShape::kNone},
        AttnShape{25, 5, 7, 12, 0, 4, 8, 1, AttnShape::kNone},
        AttnShape{25, 5, 7, 12, 16, 4, 8, 2, AttnShape::kFull},
        // Table products of 16K multiply-adds and more, every edge
        // width and head count.
        AttnShape{120, 10, 200, 24, 0, 8, 32, 1, AttnShape::kRandom},
        AttnShape{120, 10, 200, 24, 3, 8, 32, 2, AttnShape::kRandom},
        AttnShape{120, 10, 200, 24, 16, 8, 32, 4, AttnShape::kRandom},
        AttnShape{120, 10, 200, 24, 16, 8, 32, 2, AttnShape::kFull},
        AttnShape{60, 10, 200, 24, 3, 8, 32, 4, AttnShape::kNone},
        // One slot per root; a table with one row; more table rows than
        // slots.
        AttnShape{50, 1, 9, 12, 3, 4, 8, 2, AttnShape::kFull},
        AttnShape{50, 6, 1, 12, 16, 4, 8, 2, AttnShape::kRandom},
        AttnShape{10, 3, 64, 24, 3, 8, 32, 2, AttnShape::kRandom},
        // The train-proc-ckpt step's widths (attn/node 100, Φ 16, no
        // edge features, 245 table rows), and train-tcp's edge width.
        AttnShape{300, 10, 245, 100, 0, 16, 100, 2, AttnShape::kRandom},
        AttnShape{150, 10, 245, 100, 16, 16, 100, 2, AttnShape::kRandom},
        // Every lane path of the slot kernels: head, edge and Φ widths
        // with 8-lane, 4-lane and scalar remainders (13 = 8 + 4 + 1,
        // 7 = 4 + 3, 5 = 4 + 1), and each width past two 8-lane blocks
        // with all three (29 = 16 + 8 + 4 + 1, 15, 13).
        AttnShape{60, 6, 30, 12, 7, 5, 26, 2, AttnShape::kRandom},
        AttnShape{60, 6, 30, 12, 15, 13, 58, 2, AttnShape::kRandom},
        AttnShape{40, 5, 20, 12, 0, 5, 39, 3, AttnShape::kFull}));

// The workloads' own shapes: train-thread's training step (attention
// and node width 8 in 2 heads of 4, edge 16, Φ 4, K = 10: 3,600 roots
// over 717 rows, 1,195 table rows) and serve-stream's request (width 32
// in 2 heads, edge 16, Φ 16, K = 8: 64 events' 128 roots).
INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, FactoredAttentionTest,
    ::testing::Values(
        AttnShape{3600, 10, 1195, 8, 16, 4, 8, 2, AttnShape::kRandom, 717},
        AttnShape{128, 8, 400, 32, 16, 16, 32, 2, AttnShape::kRandom, 110}));

// The root side: roots repeating rows of a root table (Shapes gives
// every root its own row). The Q product is root_rows·attn_dim·node_dim
// multiply-adds: 1, 9 and 192 rows.
INSTANTIATE_TEST_SUITE_P(
    RootShapes, FactoredAttentionTest,
    ::testing::Values(
        // Every root the same node, each edge width and head count.
        AttnShape{40, 5, 7, 12, 0, 4, 8, 1, AttnShape::kRandom, 1},
        AttnShape{40, 5, 7, 12, 16, 4, 8, 2, AttnShape::kRandom, 1},
        AttnShape{40, 5, 7, 12, 3, 4, 8, 4, AttnShape::kFull, 1},
        // A few rows behind many roots; with no populated slot, the
        // root side alone carries the output.
        AttnShape{60, 5, 7, 12, 16, 4, 8, 4, AttnShape::kRandom, 9},
        AttnShape{60, 5, 7, 12, 0, 4, 8, 2, AttnShape::kNone, 9},
        AttnShape{120, 10, 200, 24, 16, 8, 32, 2, AttnShape::kRandom, 50},
        // train-proc-ckpt's final-evaluation shape: 300 events x (2 + 49
        // negatives) = 15,300 roots over 192 rows, 247 table rows.
        AttnShape{15300, 10, 247, 12, 0, 4, 8, 2, AttnShape::kRandom, 192},
        AttnShape{15300, 10, 247, 12, 16, 4, 8, 1, AttnShape::kRandom, 192},
        AttnShape{15300, 10, 247, 12, 0, 8, 8, 4, AttnShape::kRandom, 192}));

// ---- The pair head against a per-pair reference -----------------------
//
// The reference forms every candidate's {src_e(j) || cand_j} and runs
// both layers and their backward on it, pair by pair, in double. The
// head applies W1 by row block and sums each event's candidates onto its
// source (predictor.hpp), so sums reassociate: every tensor must match
// within kAttnRelTol in relative L2. A pre-activation within rounding of
// ReLU's kink can fall on either side in float; the reference takes the
// head's side there, and every such disagreement must be that close.

struct HeadShape {
  std::size_t n, Q, emb_dim, hidden, out;
};

void PrintTo(const HeadShape& h, std::ostream* os) {
  *os << "n=" << h.n << " Q=" << h.Q << " emb=" << h.emb_dim
      << " hidden=" << h.hidden << " out=" << h.out;
}

class PairHeadTest : public ::testing::TestWithParam<HeadShape> {};

TEST_P(PairHeadTest, MatchesPerPairReference) {
  const HeadShape p = GetParam();
  const std::size_t n = p.n, Q = p.Q, d = p.emb_dim, hd = p.hidden;
  const std::size_t od = p.out, m = n * (1 + Q);
  Rng init(n + 13 * Q + od);
  nn::PairHead head("h", d, hd, od, init);
  Rng rng(7 * n + Q + d);
  // One row past n(2 + Q) that the head must not read (NaN would
  // surface in any output) and whose gradient row it must not write.
  Matrix emb = random_matrix(n + m + 1, d, rng);
  for (std::size_t c = 0; c < d; ++c)
    emb(n + m, c) = std::numeric_limits<float>::quiet_NaN();
  const Matrix dpos = random_matrix(n, od, rng);
  const Matrix dneg = random_matrix(n, Q * od, rng);

  // An inference pass over a lent pool has the serial pass's bits, and
  // a training pass has them too.
  nn::PairHead::Ctx ctx, pooled_ctx;
  ThreadPool pool(2);
  Matrix pos, neg, pooled_pos, pooled_neg, train_pos, train_neg;
  head.forward_into(emb, n, Q, &ctx, pos, neg, nn::Pass{.train = false});
  head.forward_into(emb, n, Q, &pooled_ctx, pooled_pos, pooled_neg,
                    nn::Pass{.train = false, .pool = &pool});
  head.forward_into(emb, n, Q, &ctx, train_pos, train_neg);
  ASSERT_EQ(pos.rows(), n);
  ASSERT_EQ(pos.cols(), od);
  ASSERT_EQ(neg.rows(), n);
  ASSERT_EQ(neg.cols(), Q * od);
  for (const Matrix* other : {&pooled_pos, &train_pos})
    EXPECT_EQ(std::memcmp(pos.data(), other->data(), pos.size() * 4), 0);
  if (Q > 0)  // an empty matrix may hold no storage for memcmp to read
    for (const Matrix* other : {&pooled_neg, &train_neg})
      EXPECT_EQ(std::memcmp(neg.data(), other->data(), neg.size() * 4), 0);

  head.zero_grad();
  Matrix demb(n + m + 1, d, 7.0f);
  head.backward_into(ctx, dpos, dneg, demb);
  for (std::size_t c = 0; c < d; ++c)
    EXPECT_EQ(demb(n + m, c), 7.0f) << "a row past the candidates";

  const auto params = head.parameters();
  ASSERT_EQ(params.size(), 4u);
  const Matrix &w1 = params[0]->value, &b1 = params[1]->value;
  const Matrix &w2 = params[2]->value, &b2 = params[3]->value;
  std::vector<DMat> grads;
  for (const nn::Parameter* q : params)
    grads.push_back(dzeros(q->value.rows(), q->value.cols()));
  DMat ref_pos = dzeros(n, od), ref_neg = dzeros(n, Q * od);
  DMat ref_demb = dzeros(n + m + 1, d);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t e = j < n ? j : (j - n) / Q;
    std::vector<double> x(2 * d), hid(hd), dpre(hd, 0.0);
    for (std::size_t c = 0; c < d; ++c) {
      x[c] = emb(e, c);
      x[d + c] = emb(n + j, c);
    }
    for (std::size_t c = 0; c < hd; ++c) {
      double pre = b1(0, c);
      for (std::size_t i = 0; i < 2 * d; ++i) pre += x[i] * w1(i, c);
      const bool on = ctx.hidden(j, c) > 0.0f;  // the head's side
      if (on != (pre > 0.0))
        EXPECT_LT(std::abs(pre), 1e-4) << "pair " << j << " unit " << c;
      hid[c] = on ? pre : 0.0;
    }
    // The output row and its gradient row, wherever the head keeps them.
    double* y =
        j < n ? ref_pos[j].data() : ref_neg[e].data() + (j - n) % Q * od;
    const float* dy = j < n ? dpos.row_ptr(j) : dneg.data() + (j - n) * od;
    for (std::size_t o = 0; o < od; ++o) {
      y[o] = b2(0, o);
      for (std::size_t c = 0; c < hd; ++c) {
        y[o] += hid[c] * w2(c, o);
        grads[2][c][o] += hid[c] * dy[o];
        if (ctx.hidden(j, c) > 0.0f) dpre[c] += double{dy[o]} * w2(c, o);
      }
      grads[3][0][o] += dy[o];
    }
    for (std::size_t c = 0; c < hd; ++c) {
      grads[1][0][c] += dpre[c];
      for (std::size_t i = 0; i < 2 * d; ++i) grads[0][i][c] += x[i] * dpre[c];
    }
    for (std::size_t i = 0; i < 2 * d; ++i) {
      double g = 0.0;
      for (std::size_t c = 0; c < hd; ++c) g += dpre[c] * w1(i, c);
      ref_demb[i < d ? e : n + j][i % d] += g;
    }
  }
  for (std::size_t c = 0; c < d; ++c) ref_demb[n + m][c] = 7.0;

  auto expect_close = [](const Matrix& got, const DMat& want,
                         const std::string& what) {
    EXPECT_LE(l2_error(got, want).first, kAttnRelTol) << what;
  };
  expect_close(pos, ref_pos, "destination outputs");
  if (Q > 0) expect_close(neg, ref_neg, "negative outputs");
  expect_close(demb, ref_demb, "demb");
  for (std::size_t i = 0; i < params.size(); ++i)
    expect_close(params[i]->grad, grads[i], params[i]->name);
}

INSTANTIATE_TEST_SUITE_P(
    Heads, PairHeadTest,
    ::testing::Values(
        // Link prediction: no, one and the evaluation's 49 negatives at
        // widths 12/8; a training step's 300 events at train-proc-ckpt's
        // width 100, and the final evaluation's 300 x 49 at 24/16.
        HeadShape{40, 0, 12, 8, 1}, HeadShape{40, 1, 12, 8, 1},
        HeadShape{40, 49, 12, 8, 1}, HeadShape{300, 1, 100, 100, 1},
        HeadShape{300, 49, 24, 16, 1},
        // Edge classification: C = 7 logits per destination.
        HeadShape{30, 0, 12, 8, 7}, HeadShape{300, 0, 100, 100, 7}));

// ---- The vector-math layers against a double reference ---------------
//
// TimeEncoding's cos and sin and the GRU's sigmoid and tanh run through
// tensor/vmath. These references recompute each layer in double with
// std::cos/sin/exp/tanh from the same float inputs and weights, and
// every output and gradient must match within kVmathLayerRelTol in
// relative L2 (the largest seen is 3.3e-7, dω). Φ's phases Δt·ω + φ are formed in float as the layer
// forms them: they are the cos's input, and at Δt = 1.3e5 a float phase
// is up to 2^-8 rad from the exact one, for libm as for vmath.

constexpr double kVmathLayerRelTol = 1e-5;

// A serving or training model's widths: the serve fixture's memory 32
// over wikipedia_like's 16 edge features, train-proc-ckpt's 100 over
// mooc_like's none; Φ is 16 wide in both.
struct VmathWidths {
  std::size_t width, edge_dim, time_dim;
};

void PrintTo(const VmathWidths& w, std::ostream* os) {
  *os << "width=" << w.width << " edge=" << w.edge_dim
      << " time=" << w.time_dim;
}

class VmathLayerTest : public ::testing::TestWithParam<VmathWidths> {};

TEST_P(VmathLayerTest, TimeEncodingMatchesDoubleReference) {
  const std::size_t d = GetParam().time_dim, n = 300;
  nn::TimeEncoding enc("te", d);
  Rng rng(GetParam().width);
  // Perturb φ off zero so no phase sits exactly on a ladder value.
  for (std::size_t c = 0; c < d; ++c)
    enc.parameters()[1]->value(0, c) = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> dt(n);
  for (float& t : dt) t = static_cast<float>(rng.uniform(0.0, 1.3e5));
  dt[0] = 0.0f;
  dt[1] = 1.3e5f;
  const Matrix dy = random_matrix(n, d + 3, rng);  // read at col0 = 3

  nn::TimeEncoding::Ctx ctx;
  Matrix y;
  enc.forward_into(dt, &ctx, y);
  enc.zero_grad();
  enc.backward_cols(ctx, dy, 3);

  const Matrix& om = enc.parameters()[0]->value;
  const Matrix& ph = enc.parameters()[1]->value;
  DMat want = dzeros(n, d), gom = dzeros(1, d), gph = dzeros(1, d);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) {
      const float phase = dt[r] * om(0, c) + ph(0, c);
      want[r][c] = std::cos(double{phase});
      const double dphase = -std::sin(double{phase}) * dy(r, 3 + c);
      gom[0][c] += dphase * dt[r];
      gph[0][c] += dphase;
    }
  EXPECT_LE(l2_error(y, want).first, kVmathLayerRelTol) << "Φ";
  EXPECT_LE(l2_error(enc.parameters()[0]->grad, gom).first, kVmathLayerRelTol)
      << "dω";
  EXPECT_LE(l2_error(enc.parameters()[1]->grad, gph).first, kVmathLayerRelTol)
      << "dφ";
}

TEST_P(VmathLayerTest, GruCellMatchesDoubleReference) {
  const VmathWidths w = GetParam();
  const std::size_t d = w.width, in = 2 * d + w.edge_dim + w.time_dim;
  const std::size_t n = 37;  // 37·100 cells leave a 4-wide vector tail
  Rng rng(w.width + 1);
  nn::GRUCell cell("g", in, d, rng);
  const Matrix x = random_matrix(n, in, rng);
  const Matrix h = random_matrix(n, d, rng);
  const Matrix g = random_matrix(n, d, rng);

  nn::GRUCell::Ctx ctx;
  Matrix h_new;
  cell.forward_into(x, h, ctx, h_new);
  cell.zero_grad();
  Matrix dx_got;
  cell.backward_into(ctx, g, 0, dx_got);

  const auto params = cell.parameters();  // w_ih w_hh b_ih b_hh
  ASSERT_EQ(params.size(), 4u);
  const Matrix &wi = params[0]->value, &wh = params[1]->value;
  const Matrix &bi = params[2]->value, &bh = params[3]->value;
  auto sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
  DMat want = dzeros(n, d), dx = dzeros(n, in);
  DMat gwi = dzeros(in, 3 * d), gwh = dzeros(d, 3 * d);
  DMat gbi = dzeros(1, 3 * d), gbh = dzeros(1, 3 * d);
  std::vector<double> gi(3 * d), gh(3 * d), dgi(3 * d), dgh(3 * d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < 3 * d; ++j) {
      gi[j] = bi(0, j);
      gh[j] = bh(0, j);
      for (std::size_t k = 0; k < in; ++k) gi[j] += double{x(r, k)} * wi(k, j);
      for (std::size_t k = 0; k < d; ++k) gh[j] += double{h(r, k)} * wh(k, j);
    }
    for (std::size_t c = 0; c < d; ++c) {
      const double rg = sigmoid(gi[c] + gh[c]);
      const double zg = sigmoid(gi[d + c] + gh[d + c]);
      const double hn = gh[2 * d + c];
      const double ng = std::tanh(gi[2 * d + c] + rg * hn);
      want[r][c] = (1.0 - zg) * ng + zg * h(r, c);
      const double dn_in = g(r, c) * (1.0 - zg) * (1.0 - ng * ng);
      const double dz_in = g(r, c) * (h(r, c) - ng) * zg * (1.0 - zg);
      const double dr_in = dn_in * hn * rg * (1.0 - rg);
      dgi[c] = dgh[c] = dr_in;
      dgi[d + c] = dgh[d + c] = dz_in;
      dgi[2 * d + c] = dn_in;
      dgh[2 * d + c] = dn_in * rg;
    }
    for (std::size_t j = 0; j < 3 * d; ++j) {
      gbi[0][j] += dgi[j];
      gbh[0][j] += dgh[j];
      for (std::size_t k = 0; k < in; ++k) {
        gwi[k][j] += double{x(r, k)} * dgi[j];
        dx[r][k] += dgi[j] * wi(k, j);
      }
      for (std::size_t k = 0; k < d; ++k)
        gwh[k][j] += double{h(r, k)} * dgh[j];
    }
  }
  EXPECT_LE(l2_error(h_new, want).first, kVmathLayerRelTol) << "h'";
  EXPECT_LE(l2_error(dx_got, dx).first, kVmathLayerRelTol) << "dx";
  const DMat* want_grads[] = {&gwi, &gwh, &gbi, &gbh};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_LE(l2_error(params[i]->grad, *want_grads[i]).first,
              kVmathLayerRelTol)
        << params[i]->name;
}

// UPDT's backward forms only Φ's columns of the GRU's input gradient
// (TGNModel passes dx_col0 = the mail width): they must equal the full
// gradient's trailing columns bit for bit, at batch sizes across the
// GEMM's row tiles.
TEST_P(VmathLayerTest, GruCellTrailingInputGradientMatchesFullBitwise) {
  const VmathWidths w = GetParam();
  const std::size_t d = w.width, in = 2 * d + w.edge_dim + w.time_dim;
  const std::size_t col0 = in - w.time_dim;
  Rng rng(w.width + 2);
  nn::GRUCell cell("g", in, d, rng);
  for (const std::size_t n : {1, 37, 327}) {
    const Matrix x = random_matrix(n, in, rng);
    const Matrix h = random_matrix(n, d, rng);
    const Matrix g = random_matrix(n, d, rng);
    nn::GRUCell::Ctx ctx;
    Matrix h_new, full, tail;
    cell.forward_into(x, h, ctx, h_new);
    cell.backward_into(ctx, g, 0, full);
    cell.backward_into(ctx, g, col0, tail);
    ASSERT_EQ(full.cols(), in);
    ASSERT_EQ(tail.rows(), n);
    ASSERT_EQ(tail.cols(), w.time_dim);
    std::size_t differs = 0;
    for (std::size_t r = 0; r < n; ++r)
      differs += std::memcmp(tail.row_ptr(r), full.row_ptr(r) + col0,
                             w.time_dim * sizeof(float)) != 0;
    EXPECT_EQ(differs, 0u) << "rows of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, VmathLayerTest,
                         ::testing::Values(VmathWidths{32, 16, 16},
                                           VmathWidths{100, 0, 16}));

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||w - target||² with Adam through the Parameter interface.
  nn::Parameter w("w", 1, 4);
  Matrix target(1, 4, {1.0f, -2.0f, 3.0f, 0.5f});
  nn::Adam opt({&w}, nn::AdamOptions{.lr = 0.05f});
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < 4; ++i)
      w.grad.data()[i] = 2.0f * (w.value.data()[i] - target.data()[i]);
    opt.step();
    opt.zero_grad();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.value.data()[i], target.data()[i], 1e-2f);
}

TEST(Optim, ClipGradNorm) {
  nn::Parameter w("w", 1, 3);
  w.grad = Matrix(1, 3, {3.0f, 4.0f, 0.0f});  // norm 5
  const float pre = nn::clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(std::sqrt(w.grad.squared_norm()), 1.0f, 1e-5f);
  // Below the limit: untouched.
  w.grad = Matrix(1, 3, {0.1f, 0.0f, 0.0f});
  nn::clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad(0, 0), 0.1f);
}

TEST(Module, FlattenRoundTrip) {
  Rng rng(9);
  nn::PairHead l1("l1", 3, 2, 1, rng);
  nn::TimeEncoding l2("l2", 2);
  std::vector<nn::Parameter*> params;
  l1.collect_parameters(params);
  l2.collect_parameters(params);

  std::vector<float> flat;
  nn::flatten_values(params, flat);
  EXPECT_EQ(flat.size(), nn::flat_size(params));

  std::vector<float> modified = flat;
  for (float& v : modified) v += 1.0f;
  nn::unflatten_values(modified, params);
  std::vector<float> flat2;
  nn::flatten_values(params, flat2);
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_FLOAT_EQ(flat2[i], flat[i] + 1.0f);
}

// Minimal Module wrapping two layers — the flat-storage test subject.
struct TwoLayer : nn::Module {
  nn::PairHead a, b;
  TwoLayer(Rng& rng) : a("a", 3, 4, 2, rng), b("b", 4, 2, 1, rng) {}
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    a.collect_parameters(out);
    b.collect_parameters(out);
  }
};

TEST(Module, FreezeFlatStoragePreservesValuesAndAliases) {
  Rng rng(31);
  TwoLayer m(rng);
  std::vector<float> before;
  nn::flatten_values(m.cached_parameters(), before);

  EXPECT_FALSE(m.has_flat_storage());
  m.freeze_flat_storage();
  m.freeze_flat_storage();  // idempotent
  EXPECT_TRUE(m.has_flat_storage());

  // Contents preserved, layout identical to flatten_values order.
  const std::span<const float> flat = m.flat_values();
  ASSERT_EQ(flat.size(), before.size());
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_EQ(flat[i], before[i]) << "element " << i;

  // Parameters are now contiguous views: writing through a parameter is
  // visible in the flat span and vice versa.
  std::vector<nn::Parameter*> params = m.parameters();
  EXPECT_TRUE(params[0]->value.is_view());
  const float* base = params[0]->value.data();
  std::size_t off = 0;
  for (const nn::Parameter* p : params) {
    EXPECT_EQ(p->value.data(), base + off);
    off += p->size();
  }
  params[1]->value.data()[0] = 42.0f;
  EXPECT_EQ(m.flat_values()[params[0]->size()], 42.0f);
  m.flat_grads()[0] = 7.0f;
  EXPECT_EQ(params[0]->grad.data()[0], 7.0f);
  m.zero_grad();
  EXPECT_EQ(params[0]->grad.data()[0], 0.0f);
}

// Adam's update, re-derived in double per element: the weight decay is
// added to the gradient before the moments (L2, not decoupled), and
// both moments are bias-corrected by the step count. Two parameters, so
// the second one's moments sit at an offset in the flat buffers.
TEST(Adam, StepFollowsTheUpdateRuleWithL2WeightDecay) {
  nn::Parameter a("a", 1, 3), b("b", 2, 2);
  a.value = Matrix(1, 3, {0.5f, -1.0f, 2.0f});
  b.value = Matrix(2, 2, {0.25f, 0.0f, -0.75f, 1.5f});
  const nn::AdamOptions opts{.lr = 1e-2f, .weight_decay = 1e-2f};
  nn::Adam opt({&a, &b}, opts);

  std::vector<double> w = {0.5, -1.0, 2.0, 0.25, 0.0, -0.75, 1.5};
  std::vector<double> m(w.size(), 0.0), v(w.size(), 0.0);
  Rng rng(3);
  for (std::size_t t = 1; t <= 4; ++t) {
    std::vector<double> g(w.size());
    for (std::size_t x = 0; x < g.size(); ++x)
      g[x] = x == 1 ? 0.0 : static_cast<float>(rng.normal());
    for (std::size_t x = 0; x < 3; ++x)
      a.grad.data()[x] = static_cast<float>(g[x]);
    for (std::size_t x = 0; x < 4; ++x)
      b.grad.data()[x] = static_cast<float>(g[3 + x]);
    opt.step();

    const double b1 = opts.beta1, b2 = opts.beta2;
    for (std::size_t x = 0; x < w.size(); ++x) {
      const double gx = g[x] + static_cast<double>(opts.weight_decay) * w[x];
      m[x] = b1 * m[x] + (1.0 - b1) * gx;
      v[x] = b2 * v[x] + (1.0 - b2) * gx * gx;
      const double mhat = m[x] / (1.0 - std::pow(b1, static_cast<double>(t)));
      const double vhat = v[x] / (1.0 - std::pow(b2, static_cast<double>(t)));
      w[x] -= static_cast<double>(opts.lr) * mhat /
              (std::sqrt(vhat) + static_cast<double>(opts.eps));
    }
    EXPECT_EQ(opt.steps_taken(), t);
    for (std::size_t x = 0; x < 3; ++x)
      EXPECT_NEAR(a.value.data()[x], w[x], 1e-6) << "step " << t << " a" << x;
    for (std::size_t x = 0; x < 4; ++x)
      EXPECT_NEAR(b.value.data()[x], w[3 + x], 1e-6)
          << "step " << t << " b" << x;
  }
}

// (steps, m, v) is the optimizer's whole state: a fresh Adam restored
// from a mid-run copy continues the update stream bit for bit.
TEST(Adam, RestoredStateContinuesTheUpdateStreamBitwise) {
  Rng rng_a(5), rng_b(5);
  TwoLayer ma(rng_a), mb(rng_b);
  const nn::AdamOptions opts{.lr = 1e-2f, .weight_decay = 1e-3f};
  nn::Adam whole(ma.parameters(), opts);
  auto first = std::make_unique<nn::Adam>(mb.parameters(), opts);
  std::unique_ptr<nn::Adam> resumed;

  for (std::size_t iter = 0; iter < 6; ++iter) {
    for (nn::Module* m : {static_cast<nn::Module*>(&ma),
                          static_cast<nn::Module*>(&mb)}) {
      Rng same(100 + iter);
      for (nn::Parameter* p : m->parameters())
        for (std::size_t i = 0; i < p->size(); ++i)
          p->grad.data()[i] = static_cast<float>(same.normal());
    }
    whole.step();
    if (iter < 3) {
      first->step();
      continue;
    }
    if (!resumed) {
      resumed = std::make_unique<nn::Adam>(mb.parameters(), opts);
      resumed->restore_state(first->steps_taken(), first->moment1(),
                             first->moment2());
      first.reset();
    }
    resumed->step();
  }
  EXPECT_EQ(resumed->steps_taken(), whole.steps_taken());
  const std::vector<nn::Parameter*> pa = ma.parameters(), pb = mb.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k)
    for (std::size_t i = 0; i < pa[k]->size(); ++i)
      ASSERT_EQ(pa[k]->value.data()[i], pb[k]->value.data()[i])
          << "parameter " << k << " element " << i;
  EXPECT_TRUE(std::equal(whole.moment1().begin(), whole.moment1().end(),
                         resumed->moment1().begin(), resumed->moment1().end()));
  EXPECT_TRUE(std::equal(whole.moment2().begin(), whole.moment2().end(),
                         resumed->moment2().begin(), resumed->moment2().end()));
}

// The update runs as one vectorized span loop per parameter; its values
// and both moments must equal the plain scalar loop's bit for bit, at
// every parameter size (vector tails included) and with and without
// weight decay. Each step of the reference rounds on its own line.
TEST(Adam, VectorizedStepMatchesTheScalarLoopBitwise) {
  for (const float decay : {0.0f, 0.01f}) {
    nn::Parameter a("a", 1, 37), b("b", 5, 13), c("c", 1, 1);
    const std::vector<nn::Parameter*> params = {&a, &b, &c};
    Rng rng(17);
    for (nn::Parameter* p : params)
      for (std::size_t i = 0; i < p->size(); ++i)
        p->value.data()[i] = static_cast<float>(rng.normal());
    const nn::AdamOptions opts{.lr = 1e-2f, .weight_decay = decay};
    nn::Adam opt(params, opts);

    std::vector<float> w, m, v;
    for (const nn::Parameter* p : params)
      w.insert(w.end(), p->value.data(), p->value.data() + p->size());
    m.assign(w.size(), 0.0f);
    v.assign(w.size(), 0.0f);
    for (std::size_t t = 1; t <= 20; ++t) {
      std::vector<float> g;
      for (nn::Parameter* p : params)
        for (std::size_t i = 0; i < p->size(); ++i) {
          // Some exact zeros of both signs among the gradients.
          const float x = i % 7 == 3   ? (t % 2 ? 0.0f : -0.0f)
                          : static_cast<float>(rng.normal());
          p->grad.data()[i] = x;
          g.push_back(x);
        }
      opt.step();

      const float bc1 = 1.0f - std::pow(opts.beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(opts.beta2, static_cast<float>(t));
      for (std::size_t x = 0; x < w.size(); ++x) {
        float gx = g[x];
        if (decay > 0.0f) {
          const float dw = decay * w[x];
          gx = gx + dw;
        }
        const float m1 = opts.beta1 * m[x];
        const float m2 = (1.0f - opts.beta1) * gx;
        m[x] = m1 + m2;
        const float v1 = opts.beta2 * v[x];
        const float v2 = (1.0f - opts.beta2) * gx;
        const float v3 = v2 * gx;
        v[x] = v1 + v3;
        const float mhat = m[x] / bc1;
        const float vhat = v[x] / bc2;
        const float num = opts.lr * mhat;
        const float den = std::sqrt(vhat) + opts.eps;
        const float step = num / den;
        w[x] = w[x] - step;
      }
    }
    const std::string what = "weight decay " + std::to_string(decay);
    std::vector<float> got;
    for (const nn::Parameter* p : params)
      got.insert(got.end(), p->value.data(), p->value.data() + p->size());
    ASSERT_EQ(got.size(), w.size());
    EXPECT_EQ(std::memcmp(got.data(), w.data(), w.size() * sizeof(float)), 0)
        << what << ": values";
    ASSERT_EQ(opt.moment1().size(), m.size());
    EXPECT_EQ(std::memcmp(opt.moment1().data(), m.data(),
                          m.size() * sizeof(float)),
              0)
        << what << ": first moments";
    EXPECT_EQ(std::memcmp(opt.moment2().data(), v.data(),
                          v.size() * sizeof(float)),
              0)
        << what << ": second moments";
  }
}

TEST(Loss, LinkPredictionDirection) {
  // High positive score + low negative score ⇒ small loss.
  Matrix good_pos(2, 1, {5.0f, 6.0f}), good_neg(2, 2, {-5.0f, -6.0f, -4.0f, -7.0f});
  Matrix bad_pos(2, 1, {-5.0f, -6.0f}), bad_neg(2, 2, {5.0f, 6.0f, 4.0f, 7.0f});
  Matrix d1, d2;
  const float good = nn::link_prediction_loss(good_pos, good_neg, d1, d2);
  const float bad = nn::link_prediction_loss(bad_pos, bad_neg, d1, d2);
  EXPECT_LT(good, 0.1f);
  EXPECT_GT(bad, 2.0f);
}

}  // namespace
}  // namespace disttgl
