// Finite-difference gradient checks for every layer's hand-written
// backward pass — parameters and inputs. These pin the numerics of the
// whole training stack.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/loss.hpp"
#include "nn/predictor.hpp"
#include "nn/time_encoding.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace disttgl {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, float scale = 1.0f) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal()) * scale;
  return m;
}

// Weighted-sum scalar head so dL/dy is a fixed random matrix.
float weighted_sum(const Matrix& y, const Matrix& w) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < y.size(); ++i) acc += y.data()[i] * w.data()[i];
  return acc;
}

// Checks every entry of `param.grad` against central differences of
// `loss_fn` (which must re-run the forward pass from scratch).
void check_param_grads(nn::Parameter& param, const std::function<float()>& loss_fn,
                       float eps = 1e-2f, float tol = 2e-2f) {
  for (std::size_t i = 0; i < param.value.size(); ++i) {
    const float orig = param.value.data()[i];
    param.value.data()[i] = orig + eps;
    const float lp = loss_fn();
    param.value.data()[i] = orig - eps;
    const float lm = loss_fn();
    param.value.data()[i] = orig;
    const float fd = (lp - lm) / (2 * eps);
    const float an = param.grad.data()[i];
    const float denom = std::max({std::abs(fd), std::abs(an), 1.0f});
    ASSERT_NEAR(an / denom, fd / denom, tol)
        << param.name << " entry " << i << " analytic=" << an << " fd=" << fd;
  }
}

void check_input_grads(Matrix& input, const Matrix& analytic,
                       const std::function<float()>& loss_fn, float eps = 1e-2f,
                       float tol = 2e-2f) {
  ASSERT_TRUE(input.same_shape(analytic));
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const float lp = loss_fn();
    input.data()[i] = orig - eps;
    const float lm = loss_fn();
    input.data()[i] = orig;
    const float fd = (lp - lm) / (2 * eps);
    const float an = analytic.data()[i];
    const float denom = std::max({std::abs(fd), std::abs(an), 1.0f});
    ASSERT_NEAR(an / denom, fd / denom, tol)
        << "input entry " << i << " analytic=" << an << " fd=" << fd;
  }
}

// Central differences are meaningless across ReLU's kink: asserts that
// every pre-activation x·W + b of a ReLU lies more than 0.05 from it,
// far outside the checks' 1e-2 step.
void assert_clear_of_relu_kink(const Matrix& x, const Matrix& w,
                               const Matrix& b) {
  ASSERT_EQ(x.cols(), w.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < w.cols(); ++c) {
      float pre = b(0, c);
      for (std::size_t i = 0; i < w.rows(); ++i) pre += x(r, i) * w(i, c);
      ASSERT_GT(std::abs(pre), 0.05f) << "row " << r << " column " << c;
    }
}

// The output head's input {h_v || s_v}, one row per root.
Matrix output_inputs(const nn::TemporalAttention::Ctx& ctx,
                     const Matrix& roots,
                     const std::vector<std::size_t>& root_index) {
  const std::size_t da = ctx.h_att.cols(), dn = roots.cols();
  Matrix x(root_index.size(), da + dn);
  for (std::size_t r = 0; r < root_index.size(); ++r)
    for (std::size_t c = 0; c < da + dn; ++c)
      x(r, c) = c < da ? ctx.h_att(r, c) : roots(root_index[r], c - da);
  return x;
}

// The pair head's embeddings [src n | dst n | neg n·Q], from their parts.
Matrix stack_rows(const std::vector<const Matrix*>& parts) {
  std::size_t rows = 0;
  for (const Matrix* m : parts) rows += m->rows();
  Matrix out(rows, parts[0]->cols());
  std::size_t r = 0;
  for (const Matrix* m : parts)
    for (std::size_t i = 0; i < m->rows(); ++i)
      out.copy_row_from(r++, m->row(i));
  return out;
}

// Rows [lo, hi) of m.
Matrix row_block(const Matrix& m, std::size_t lo, std::size_t hi) {
  Matrix out(hi - lo, m.cols());
  for (std::size_t r = lo; r < hi; ++r) out.copy_row_from(r - lo, m.row(r));
  return out;
}

// The head's hidden-layer input {src_e(j) || cand_j}, one row per
// candidate.
Matrix pair_inputs(const Matrix& emb, std::size_t n, std::size_t Q) {
  const std::size_t d = emb.cols(), m = n * (1 + Q);
  Matrix x(m, 2 * d);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t e = j < n ? j : (j - n) / Q;
    for (std::size_t c = 0; c < d; ++c) {
      x(j, c) = emb(e, c);
      x(j, d + c) = emb(n + j, c);
    }
  }
  return x;
}

TEST(GradCheck, TimeEncoding) {
  Rng rng(2);
  nn::TimeEncoding enc("te", 6);
  std::vector<float> dt = {0.0f, 0.5f, 2.0f, 7.5f};
  Matrix dy = random_matrix(4, 6, rng);

  Matrix y;
  auto loss_fn = [&] {
    enc.forward_into(dt, nullptr, y);
    return weighted_sum(y, dy);
  };

  nn::TimeEncoding::Ctx ctx;
  enc.forward_into(dt, &ctx, y);
  enc.zero_grad();
  enc.backward_cols(ctx, dy, 0);

  auto params = enc.parameters();
  for (nn::Parameter* p : params) check_param_grads(*p, loss_fn);
}

TEST(GradCheck, GRUCell) {
  Rng rng(3);
  nn::GRUCell cell("gru", 5, 4, rng);
  Matrix x = random_matrix(6, 5, rng);
  Matrix h = random_matrix(6, 4, rng);
  Matrix dy = random_matrix(6, 4, rng);

  nn::GRUCell::Ctx infer_ctx;
  Matrix y;
  auto loss_fn = [&] {
    cell.forward_into(x, h, infer_ctx, y, nn::Pass{.train = false});
    return weighted_sum(y, dy);
  };

  nn::GRUCell::Ctx ctx;
  cell.forward_into(x, h, ctx, y);
  cell.zero_grad();
  Matrix dx;
  cell.backward_into(ctx, dy, 0, dx);

  for (nn::Parameter* p : cell.parameters()) check_param_grads(*p, loss_fn);
  check_input_grads(x, dx, loss_fn);
}

TEST(GradCheck, TemporalAttention) {
  Rng rng(4);
  nn::AttentionDims dims;
  dims.node_dim = 5;
  dims.edge_dim = 3;
  dims.time_dim = 4;
  dims.attn_dim = 6;
  dims.out_dim = 4;
  dims.num_heads = 2;
  dims.max_neighbors = 3;
  nn::TemporalAttention attn("attn", dims, rng);

  const std::size_t n = 4, K = 3;
  Matrix node = random_matrix(n, dims.node_dim, rng);
  Matrix neigh = random_matrix(n * K, dims.node_dim, rng);
  std::vector<std::size_t> slot_rows(n * K);
  std::iota(slot_rows.begin(), slot_rows.end(), std::size_t{0});
  // One edge-table row per slot, each read in place by its index.
  Matrix edges = random_matrix(n * K, dims.edge_dim, rng);
  std::vector<std::size_t> edge_rows(n * K);
  std::iota(edge_rows.begin(), edge_rows.end(), std::size_t{0});
  std::vector<float> dt = {0.1f, 0.2f, 0.3f, 1.0f, 2.0f, 0.0f,
                           0.5f, 0.6f, 0.7f, 3.0f, 0.0f, 0.0f};
  std::vector<std::size_t> valid = {3, 2, 3, 0};  // includes isolated root
  Matrix dy = random_matrix(n, dims.out_dim, rng);
  const std::vector<std::size_t> roots = {0, 1, 2, 3};

  auto loss_fn = [&] {
    nn::TemporalAttention::Ctx c;
    return weighted_sum(attn.forward(node, roots, neigh, slot_rows, edges,
                                     edge_rows, dt, valid, &c),
                        dy);
  };

  nn::TemporalAttention::Ctx ctx;
  attn.forward(node, roots, neigh, slot_rows, edges, edge_rows, dt, valid,
               &ctx);
  attn.zero_grad();
  nn::TemporalAttention::InputGrads grads;
  attn.backward_into(ctx, dy, grads);
  const auto params = attn.parameters();
  ASSERT_NO_FATAL_FAILURE(assert_clear_of_relu_kink(
      output_inputs(ctx, node, roots), params[6]->value, params[7]->value));

  for (nn::Parameter* p : attn.parameters())
    check_param_grads(*p, loss_fn, 1e-2f, 3e-2f);
  check_input_grads(node, grads.dnode_repr, loss_fn, 1e-2f, 3e-2f);
  // Only valid neighbor slots receive gradients; invalid slots must be 0.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = valid[r]; k < K; ++k)
      for (std::size_t c = 0; c < dims.node_dim; ++c)
        ASSERT_FLOAT_EQ(grads.dneigh_repr(r * K + k, c), 0.0f);
  check_input_grads(neigh, grads.dneigh_repr, loss_fn, 1e-2f, 3e-2f);
}

// A table of 5 rows behind 12 slots (U < n·K): each row's gradient sums
// every slot that reads it, and slots past valid[r] point outside the
// table, since the layer never reads them.
TEST(GradCheck, TemporalAttentionRepeatedTableRows) {
  Rng rng(15);
  nn::AttentionDims dims;
  dims.node_dim = 5;
  dims.edge_dim = 3;
  dims.time_dim = 4;
  dims.attn_dim = 6;
  dims.out_dim = 4;
  dims.num_heads = 2;
  dims.max_neighbors = 3;
  nn::TemporalAttention attn("attn", dims, rng);

  const std::size_t n = 4, U = 5;
  Matrix node = random_matrix(n, dims.node_dim, rng);
  Matrix table = random_matrix(U, dims.node_dim, rng);
  std::vector<std::size_t> index = {0, 2, 0, 4, 4, 99, 1, 2, 0, 99, 99, 99};
  Matrix edges = random_matrix(n * 3, dims.edge_dim, rng);
  std::vector<std::size_t> edge_rows(n * 3);
  std::iota(edge_rows.begin(), edge_rows.end(), std::size_t{0});
  std::vector<float> dt = {0.1f, 0.2f, 0.3f, 1.0f, 2.0f, 0.0f,
                           0.5f, 0.6f, 0.7f, 3.0f, 0.0f, 0.0f};
  std::vector<std::size_t> valid = {3, 2, 3, 0};
  Matrix dy = random_matrix(n, dims.out_dim, rng);
  const std::vector<std::size_t> roots = {0, 1, 2, 3};

  auto loss_fn = [&] {
    nn::TemporalAttention::Ctx c;
    return weighted_sum(
        attn.forward(node, roots, table, index, edges, edge_rows, dt, valid,
                     &c),
        dy);
  };

  nn::TemporalAttention::Ctx ctx;
  attn.forward(node, roots, table, index, edges, edge_rows, dt, valid, &ctx);
  attn.zero_grad();
  nn::TemporalAttention::InputGrads grads;
  attn.backward_into(ctx, dy, grads);
  const auto params = attn.parameters();
  ASSERT_NO_FATAL_FAILURE(assert_clear_of_relu_kink(
      output_inputs(ctx, node, roots), params[6]->value, params[7]->value));

  for (nn::Parameter* p : attn.parameters())
    check_param_grads(*p, loss_fn, 1e-2f, 3e-2f);
  check_input_grads(node, grads.dnode_repr, loss_fn, 1e-2f, 3e-2f);
  // Row 3 is read by no slot.
  for (std::size_t c = 0; c < dims.node_dim; ++c)
    ASSERT_FLOAT_EQ(grads.dneigh_repr(3, c), 0.0f);
  check_input_grads(table, grads.dneigh_repr, loss_fn, 1e-2f, 3e-2f);
}

// Six roots over a root table of 3 rows, one of which no root reads:
// each row's gradient sums every root that reads it, through the query,
// the output's s_v half and both biases' shared rows.
TEST(GradCheck, TemporalAttentionRepeatedRoots) {
  Rng rng(16);
  nn::AttentionDims dims;
  dims.node_dim = 5;
  dims.edge_dim = 3;
  dims.time_dim = 4;
  dims.attn_dim = 6;
  dims.out_dim = 4;
  dims.num_heads = 2;
  dims.max_neighbors = 3;
  nn::TemporalAttention attn("attn", dims, rng);

  const std::size_t n = 6, U = 5;
  Matrix roots = random_matrix(3, dims.node_dim, rng);
  Matrix table = random_matrix(U, dims.node_dim, rng);
  const std::vector<std::size_t> root_index = {0, 2, 0, 0, 2, 2};
  std::vector<std::size_t> index = {0, 2, 0, 4, 4, 99, 1, 2, 0,
                                    99, 99, 99, 3, 1, 99, 2, 4, 1};
  Matrix edges = random_matrix(n * 3, dims.edge_dim, rng);
  std::vector<std::size_t> edge_rows(n * 3);
  std::iota(edge_rows.begin(), edge_rows.end(), std::size_t{0});
  std::vector<float> dt = {0.1f, 0.2f, 0.3f, 1.0f, 2.0f, 0.0f,
                           0.5f, 0.6f, 0.7f, 3.0f, 0.0f, 0.0f,
                           1.5f, 0.4f, 0.0f, 0.9f, 2.5f, 0.2f};
  std::vector<std::size_t> valid = {3, 2, 3, 0, 2, 3};
  Matrix dy = random_matrix(n, dims.out_dim, rng);

  auto loss_fn = [&] {
    nn::TemporalAttention::Ctx c;
    return weighted_sum(attn.forward(roots, root_index, table, index, edges,
                                     edge_rows, dt, valid, &c),
                        dy);
  };

  nn::TemporalAttention::Ctx ctx;
  attn.forward(roots, root_index, table, index, edges, edge_rows, dt,
               valid, &ctx);
  attn.zero_grad();
  nn::TemporalAttention::InputGrads grads;
  attn.backward_into(ctx, dy, grads);
  const auto params = attn.parameters();
  ASSERT_NO_FATAL_FAILURE(
      assert_clear_of_relu_kink(output_inputs(ctx, roots, root_index),
                                params[6]->value, params[7]->value));

  for (nn::Parameter* p : attn.parameters())
    check_param_grads(*p, loss_fn, 1e-2f, 3e-2f);
  // Row 1 is read by no root.
  for (std::size_t c = 0; c < dims.node_dim; ++c)
    ASSERT_FLOAT_EQ(grads.dnode_repr(1, c), 0.0f);
  check_input_grads(roots, grads.dnode_repr, loss_fn, 1e-2f, 3e-2f);
  check_input_grads(table, grads.dneigh_repr, loss_fn, 1e-2f, 3e-2f);
}

// Link prediction's head: 5 events, each with its destination and a
// negative. Each source's gradient sums its 2 candidates. Every
// pre-activation lies at least 0.1265 from ReLU's kink.
TEST(GradCheck, EdgePredictor) {
  Rng rng(5);
  nn::PairHead pred("pred", 4, 6, 1, rng);
  const std::size_t n = 5, Q = 1;
  Matrix src = random_matrix(n, 4, rng);
  Matrix dst = random_matrix(n, 4, rng);
  Matrix dy = random_matrix(n, 1, rng);
  Matrix neg = random_matrix(n * Q, 4, rng);
  Matrix dyneg = random_matrix(n, Q, rng);

  Matrix pos_out, neg_out;
  auto loss_fn = [&] {
    nn::PairHead::Ctx c;
    pred.forward_into(stack_rows({&src, &dst, &neg}), n, Q, &c, pos_out,
                      neg_out, nn::Pass{.train = false});
    return weighted_sum(pos_out, dy) + weighted_sum(neg_out, dyneg);
  };

  nn::PairHead::Ctx ctx;
  const Matrix emb = stack_rows({&src, &dst, &neg});
  pred.forward_into(emb, n, Q, &ctx, pos_out, neg_out);
  pred.zero_grad();
  Matrix demb(emb.rows(), emb.cols());
  pred.backward_into(ctx, dy, dyneg, demb);
  // The hidden ReLU's input, {src || cand}·W1 + b1 over every pair.
  const auto params = pred.parameters();
  ASSERT_NO_FATAL_FAILURE(assert_clear_of_relu_kink(
      pair_inputs(emb, n, Q), params[0]->value, params[1]->value));
  for (nn::Parameter* p : pred.parameters()) check_param_grads(*p, loss_fn);
  check_input_grads(src, row_block(demb, 0, n), loss_fn);
  check_input_grads(dst, row_block(demb, n, 2 * n), loss_fn);
  check_input_grads(neg, row_block(demb, 2 * n, 2 * n + n * Q), loss_fn);
}

// Edge classification's head: 7 logits per event, no negatives. Rng 6's
// draw put a pre-activation 0.0270 from ReLU's kink, within reach of the
// 1e-2 step; Rng 7's, the next, keeps every one at least 0.2783 away.
TEST(GradCheck, EdgeClassifier) {
  Rng rng(7);
  nn::PairHead cls("cls", 4, 5, 7, rng);
  const std::size_t n = 3;
  Matrix src = random_matrix(n, 4, rng);
  Matrix dst = random_matrix(n, 4, rng);
  Matrix dy = random_matrix(n, 7, rng);

  Matrix y, none;
  auto loss_fn = [&] {
    nn::PairHead::Ctx c;
    cls.forward_into(stack_rows({&src, &dst}), n, 0, &c, y, none,
                     nn::Pass{.train = false});
    return weighted_sum(y, dy);
  };

  nn::PairHead::Ctx ctx;
  const Matrix emb = stack_rows({&src, &dst});
  cls.forward_into(emb, n, 0, &ctx, y, none);
  cls.zero_grad();
  Matrix demb(emb.rows(), emb.cols());
  cls.backward_into(ctx, dy, none, demb);
  const auto params = cls.parameters();
  ASSERT_NO_FATAL_FAILURE(assert_clear_of_relu_kink(
      pair_inputs(emb, n, 0), params[0]->value, params[1]->value));
  for (nn::Parameter* p : cls.parameters()) check_param_grads(*p, loss_fn);
  check_input_grads(src, row_block(demb, 0, n), loss_fn);
  check_input_grads(dst, row_block(demb, n, 2 * n), loss_fn);
}

TEST(GradCheck, LinkPredictionLossGradients) {
  Rng rng(7);
  Matrix pos = random_matrix(4, 1, rng);
  Matrix neg = random_matrix(4, 3, rng);
  Matrix dpos, dneg;
  nn::link_prediction_loss(pos, neg, dpos, dneg);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    Matrix dp, dn;
    pos.data()[i] += eps;
    const float lp = nn::link_prediction_loss(pos, neg, dp, dn);
    pos.data()[i] -= 2 * eps;
    const float lm = nn::link_prediction_loss(pos, neg, dp, dn);
    pos.data()[i] += eps;
    EXPECT_NEAR(dpos.data()[i], (lp - lm) / (2 * eps), 1e-3f);
  }
  for (std::size_t i = 0; i < neg.size(); ++i) {
    Matrix dp, dn;
    neg.data()[i] += eps;
    const float lp = nn::link_prediction_loss(pos, neg, dp, dn);
    neg.data()[i] -= 2 * eps;
    const float lm = nn::link_prediction_loss(pos, neg, dp, dn);
    neg.data()[i] += eps;
    EXPECT_NEAR(dneg.data()[i], (lp - lm) / (2 * eps), 1e-3f);
  }
}

TEST(GradCheck, MultilabelBceGradients) {
  Rng rng(8);
  Matrix logits = random_matrix(3, 5, rng);
  Matrix targets(3, 5);
  for (std::size_t i = 0; i < targets.size(); ++i)
    targets.data()[i] = rng.bernoulli(0.4) ? 1.0f : 0.0f;
  Matrix dlogits;
  nn::multilabel_bce_loss(logits, targets, dlogits);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix d;
    logits.data()[i] += eps;
    const float lp = nn::multilabel_bce_loss(logits, targets, d);
    logits.data()[i] -= 2 * eps;
    const float lm = nn::multilabel_bce_loss(logits, targets, d);
    logits.data()[i] += eps;
    EXPECT_NEAR(dlogits.data()[i], (lp - lm) / (2 * eps), 1e-3f);
  }
}

}  // namespace
}  // namespace disttgl
