#include "core/tgn_model.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {

TGNModel::TGNModel(const ModelConfig& cfg, const TemporalGraph& graph,
                   const Matrix* static_memory, Rng& rng)
    : cfg_(cfg),
      graph_(&graph),
      static_memory_(static_memory),
      task_(graph.has_edge_labels() ? Task::kEdgeClassification
                                    : Task::kLinkPrediction),
      mail_raw_dim_(2 * cfg.mem_dim + graph.edge_feat_dim()),
      node_feat_dim_(graph.node_feat_dim()),
      mail_time_enc_("tgn.mail_time", cfg.time_dim),
      updater_("tgn.updater", mail_raw_dim_ + cfg.time_dim, cfg.mem_dim, rng),
      attention_("tgn.attn",
                 nn::AttentionDims{
                     .node_dim =
                         cfg.mem_dim + cfg.static_dim + graph.node_feat_dim(),
                     .edge_dim = graph.edge_feat_dim(),
                     .time_dim = cfg.time_dim,
                     .attn_dim = cfg.attn_dim,
                     .out_dim = cfg.emb_dim,
                     .num_heads = cfg.num_heads,
                     .max_neighbors = cfg.num_neighbors,
                 },
                 rng),
      head_(task_ == Task::kLinkPrediction ? "tgn.pred" : "tgn.cls",
            cfg.emb_dim, cfg.head_hidden,
            task_ == Task::kLinkPrediction ? 1 : graph.num_classes(), rng) {
  if (static_memory_ != nullptr) {
    DT_CHECK_EQ(static_memory_->rows(), graph.num_nodes());
    DT_CHECK_EQ(static_memory_->cols(), cfg.static_dim);
  } else {
    DT_CHECK_EQ(cfg.static_dim, 0u);
  }
}

void TGNModel::update_memory(const MemorySlice& slice, EmbedCtx& ctx,
                             const nn::Pass& pass) {
  Workspace& ws = scratch_.ws;
  ctx.gru_rows.clear();
  if (cfg_.dynamic_memory) {
    for (std::size_t u = 0; u < slice.size(); ++u) {
      if (slice.has_mail[u]) ctx.gru_rows.push_back(u);
    }
  }
  ctx.s_new = slice.mem;  // nodes without mail keep their memory
  if (ctx.gru_rows.empty()) return;
  Matrix& mail_rows = ws.mat(0, 0);
  slice.mail.gather_rows_into(ctx.gru_rows, mail_rows);
  Matrix& mem_rows = ws.mat(0, 0);
  slice.mem.gather_rows_into(ctx.gru_rows, mem_rows);
  std::vector<float>& dts = ws.floats(ctx.gru_rows.size());
  for (std::size_t r = 0; r < ctx.gru_rows.size(); ++r) {
    const std::size_t u = ctx.gru_rows[r];
    dts[r] = slice.mail_ts[u] - slice.mem_ts[u];
  }
  Matrix& phi = ws.mat(0, 0);
  mail_time_enc_.forward_into(dts, pass.train ? &ctx.mail_time_ctx : nullptr,
                              phi, pass.pool);
  Matrix& gru_in = ws.mat(0, 0);
  Matrix::concat_cols_into(mail_rows, phi, gru_in, pass.pool);
  Matrix& updated = ws.mat(0, 0);
  updater_.forward_into(gru_in, mem_rows, ctx.gru_ctx, updated, pass);
  ctx.s_new.scatter_rows(ctx.gru_rows, updated);
}

void TGNModel::updated_memory_into(const MemoryState& in, MemoryState& out) {
  // Bounds the block's slice and GRU buffers; the rows' bits do not
  // depend on it.
  constexpr std::size_t kBlockNodes = 1024;
  DT_CHECK_EQ(in.mem_dim(), cfg_.mem_dim);
  DT_CHECK_EQ(in.mail_dim(), mail_raw_dim_);
  const std::size_t N = in.num_nodes();
  if (out.num_nodes() != N || out.mem_dim() != cfg_.mem_dim ||
      out.mail_dim() != 0)
    out = MemoryState(N, cfg_.mem_dim, 0);
  Scratch& s = scratch_;
  EmbedCtx& ctx = s.embed;
  MemorySlice& block = s.block;
  for (std::size_t lo = 0; lo < N; lo += kBlockNodes) {
    const std::size_t hi = std::min(N, lo + kBlockNodes);
    s.block_nodes.resize(hi - lo);
    for (std::size_t v = lo; v < hi; ++v)
      s.block_nodes[v - lo] = static_cast<NodeId>(v);
    in.read_into(s.block_nodes, block);
    s.ws.reset();
    update_memory(block, ctx, nn::Pass{.train = false});
    // The block's slice becomes the restore payload: a consumed mail's
    // timestamp is the row's last update, and no mail stays pending.
    for (const std::size_t u : ctx.gru_rows) block.mem_ts[u] = block.mail_ts[u];
    block.mail.reset_shape(hi - lo, 0);
    std::fill(block.mail_ts.begin(), block.mail_ts.end(), 0.0f);
    std::fill(block.has_mail.begin(), block.has_mail.end(), std::uint8_t{0});
    out.restore(s.block_nodes, ctx.s_new, block.mem_ts, block.mail,
                block.mail_ts, block.has_mail);
  }
}

const Matrix& TGNModel::embed(const MiniBatch& mb, const MemorySlice& slice,
                              std::size_t version, EmbedCtx& ctx,
                              const nn::Pass& pass) {
  Workspace& ws = scratch_.ws;
  ThreadPool* pool = pass.pool;
  const std::size_t U = mb.unique_nodes.size();
  const std::size_t n = mb.num_pos();
  const std::size_t K = cfg_.num_neighbors;
  DT_CHECK_EQ(slice.mem.rows(), U);
  DT_CHECK_EQ(mb.root_to_unique.size(), mb.roots.size());

  // ---- 1. UPDT: batched GRU over unique nodes holding a mail. ----
  update_memory(slice, ctx, pass);

  // ---- 2. Node representations {s_new || static || node features}. ----
  const std::size_t rdim = cfg_.mem_dim + cfg_.static_dim + node_feat_dim_;
  Matrix& repr = ws.mat(U, rdim);
  for (std::size_t u = 0; u < U; ++u) {
    float* dst = repr.row_ptr(u);
    std::memcpy(dst, ctx.s_new.row_ptr(u), cfg_.mem_dim * sizeof(float));
    dst += cfg_.mem_dim;
    if (static_memory_ != nullptr) {
      std::memcpy(dst, static_memory_->row_ptr(mb.unique_nodes[u]),
                  cfg_.static_dim * sizeof(float));
      dst += cfg_.static_dim;
    }
    if (node_feat_dim_ > 0) {
      std::memcpy(dst, graph_->node_features().row_ptr(mb.unique_nodes[u]),
                  node_feat_dim_ * sizeof(float));
    }
  }

  // ---- 3. The version-v roots {src, dst, neg_v}: their distinct rows
  // of repr (D, first-seen order) and their neighbor windows. ----
  const std::size_t negs = mb.num_neg * (mb.neg_variants > 0 ? n : 0);
  if (negs > 0) DT_CHECK_LT(version, mb.neg_variants);
  const std::size_t nb = negs > 0 ? mb.neg_begin(version) : 0;
  const std::size_t Rv = 2 * n + negs;
  // Root r's row in the full root list.
  auto global_root = [&](std::size_t r) {
    return r < 2 * n ? r : nb + r - 2 * n;
  };

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t>& slot_of_unique = ws.indices();
  slot_of_unique.assign(U, kNone);
  std::vector<std::size_t>& root_index = ws.indices();
  root_index.resize(Rv);
  ctx.root_nodes.clear();
  for (std::size_t r = 0; r < Rv; ++r) {
    const std::size_t u = mb.root_to_unique[global_root(r)];
    if (slot_of_unique[u] == kNone) {
      slot_of_unique[u] = ctx.root_nodes.size();
      ctx.root_nodes.push_back(u);
    }
    root_index[r] = slot_of_unique[u];
  }
  Matrix& roots = ws.mat(0, 0);
  repr.gather_rows_into(ctx.root_nodes, roots);

  // Each slot's neighbor row, Δt and edge row (the attention reads the
  // graph's edge features in place, by edge index; none when there are
  // no edge features).
  const std::size_t edim = graph_->edge_feat_dim();
  std::vector<std::size_t>& neigh_index = ws.indices();
  neigh_index.resize(Rv * K);
  std::vector<std::size_t>& edge_index = ws.indices();
  edge_index.resize(edim > 0 ? Rv * K : 0);
  std::vector<float>& dt = ws.floats(Rv * K);
  std::vector<std::size_t>& valid = ws.indices();
  valid.resize(Rv);
  for (std::size_t r = 0; r < Rv; ++r) {
    valid[r] = mb.roots.valid[global_root(r)];
    DT_CHECK_LE(valid[r], K);
  }
  parallel_rows(pool, Rv, 3 * K, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t g = global_root(r);
      for (std::size_t k = 0; k < valid[r]; ++k) {
        neigh_index[r * K + k] = mb.neigh_to_unique[g * K + k];
        // Δt for Φ in Eq. 5: query time − neighbor edge time (the TGN/TGL
        // convention; it directly encodes how recent the relationship is,
        // which the recency-driven workloads need).
        dt[r * K + k] = mb.roots.neigh_dt[g * K + k];
        if (edim > 0) edge_index[r * K + k] = mb.roots.neigh_edge[g * K + k];
      }
      // The attention never reads an empty window slot; its Δt stays 0
      // from ws.floats.
    }
  });

  return attention_.forward(roots, root_index, repr, neigh_index,
                            graph_->edge_features(), edge_index, dt, valid,
                            &ctx.attn_ctx, pass);
}

void TGNModel::embed_backward(EmbedCtx& ctx, const Matrix& demb) {
  Workspace& ws = scratch_.ws;

  nn::TemporalAttention::InputGrads& grads = scratch_.attn_grads;
  attention_.backward_into(ctx.attn_ctx, demb, grads);

  // Both gradients are on the unique-node axis: the neighbor table is
  // repr, and the root table's rows are repr's rows D. Add the roots'
  // into the neighbors', then split off the dynamic-memory block (the
  // static block is frozen; raw node features are data).
  Matrix& drepr = grads.dneigh_repr;
  for (std::size_t i = 0; i < ctx.root_nodes.size(); ++i)
    drepr.add_row_from(ctx.root_nodes[i], grads.dnode_repr.row(i));
  const Matrix* ds_new = &drepr;
  if (drepr.cols() > cfg_.mem_dim) {
    Matrix& sliced = ws.mat(0, 0);
    drepr.slice_cols_into(0, cfg_.mem_dim, sliced);
    ds_new = &sliced;
  }

  // Through the GRU for the rows it touched; the chain stops at the
  // previous memory and the mail contents (both inputs from storage), so
  // the GRU forms only its input gradient's trailing time_dim columns,
  // which feed the mail time encoding.
  if (!ctx.gru_rows.empty()) {
    Matrix& dh = ws.mat(0, 0);
    ds_new->gather_rows_into(ctx.gru_rows, dh);
    Matrix& dphi = ws.mat(0, 0);
    updater_.backward_into(ctx.gru_ctx, dh, mail_raw_dim_, dphi);
    mail_time_enc_.backward_cols(ctx.mail_time_ctx, dphi, 0);
  }
}

void TGNModel::make_write(const MiniBatch& mb, const MemorySlice& slice,
                          const EmbedCtx& ctx, BatchDiagnostics& diag,
                          MemoryWrite& w) {
  const std::size_t n = mb.num_pos();

  // COMB = most recent: iterate events chronologically; the last mail per
  // node survives. Track per-unique-node write slots for positive roots.
  // All working buffers persist in scratch_ (capacity-preserving).
  std::vector<std::size_t>& slot_of_unique = scratch_.slot_of_unique;
  slot_of_unique.assign(mb.unique_nodes.size(), static_cast<std::size_t>(-1));
  const std::size_t edim = graph_->edge_feat_dim();
  std::vector<float>& mail_row = scratch_.mail_row;
  mail_row.resize(mail_raw_dim_);

  // First pass: count distinct positive roots to size the buffers.
  std::vector<std::size_t>& uniq_roots = scratch_.uniq_roots;
  uniq_roots.clear();
  for (std::size_t r = 0; r < 2 * n; ++r) {
    const std::size_t u = mb.root_to_unique[r];
    if (slot_of_unique[u] == static_cast<std::size_t>(-1)) {
      slot_of_unique[u] = uniq_roots.size();
      uniq_roots.push_back(u);
    }
  }
  const bool comb_mean = cfg_.comb == CombPolicy::kMean;
  w.nodes.resize(uniq_roots.size());
  w.mem.reset_shape(uniq_roots.size(), cfg_.mem_dim);
  w.mem_ts.resize(uniq_roots.size());
  // Every distinct positive root receives at least one mail below, so
  // most-recent rows need no clearing; mean rows accumulate from zero.
  if (comb_mean) {
    w.mail.resize(uniq_roots.size(), mail_raw_dim_, 0.0f);
  } else {
    w.mail.reset_shape(uniq_roots.size(), mail_raw_dim_);
  }
  w.mail_ts.resize(uniq_roots.size());
  std::vector<float>& mail_counts = scratch_.mail_counts;
  mail_counts.assign(comb_mean ? uniq_roots.size() : 0, 0.0f);

  // Memory rows: post-UPDT values; last-update time = consumed mail's
  // timestamp for GRU-touched rows, previous value otherwise.
  for (std::size_t s = 0; s < uniq_roots.size(); ++s) {
    const std::size_t u = uniq_roots[s];
    w.nodes[s] = mb.unique_nodes[u];
    w.mem.copy_row_from(s, ctx.s_new.row(u));
    w.mem_ts[s] = slice.has_mail[u] ? slice.mail_ts[u] : slice.mem_ts[u];
  }

  // Mails, in event order so the most recent one per node wins.
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t u_src = mb.root_to_unique[e];
    const std::size_t u_dst = mb.root_to_unique[n + e];
    const float t = mb.ts[e];
    diag.mails_generated += 2;
    diag.staleness_sum += (t - slice.mem_ts[u_src]) + (t - slice.mem_ts[u_dst]);
    diag.staleness_count += 2;
    auto fill = [&](std::size_t u_self, std::size_t u_other) {
      std::memcpy(mail_row.data(), ctx.s_new.row_ptr(u_self),
                  cfg_.mem_dim * sizeof(float));
      std::memcpy(mail_row.data() + cfg_.mem_dim, ctx.s_new.row_ptr(u_other),
                  cfg_.mem_dim * sizeof(float));
      if (edim > 0) {
        std::memcpy(mail_row.data() + 2 * cfg_.mem_dim,
                    graph_->edge_features().row_ptr(mb.events[e]),
                    edim * sizeof(float));
      }
      const std::size_t s = slot_of_unique[u_self];
      if (comb_mean) {
        // COMB = mean: accumulate now, normalize after the event loop.
        w.mail.add_row_from(s, mail_row);
        mail_counts[s] += 1.0f;
      } else {
        // COMB = most recent: later events overwrite (chronological loop).
        w.mail.copy_row_from(s, mail_row);
      }
      w.mail_ts[s] = t;
    };
    fill(u_src, u_dst);
    fill(u_dst, u_src);
  }
  if (comb_mean) {
    for (std::size_t s = 0; s < uniq_roots.size(); ++s) {
      const float inv = mail_counts[s] > 0.0f ? 1.0f / mail_counts[s] : 0.0f;
      float* row = w.mail.row_ptr(s);
      for (std::size_t c = 0; c < mail_raw_dim_; ++c) row[c] *= inv;
    }
  }
  diag.mails_kept += uniq_roots.size();
}

void TGNModel::run(const MiniBatch& mb, const MemorySlice& slice,
                   std::size_t version, MemoryWrite* write,
                   const nn::Pass& pass, StepResult& result) {
  Scratch& s = scratch_;
  s.ws.reset();
  EmbedCtx& ctx = s.embed;
  const bool train = pass.train;
  const Matrix& emb = embed(mb, slice, version, ctx, pass);
  const std::size_t n = mb.num_pos();
  const std::size_t Q = mb.num_neg;

  result.loss = 0.0f;
  result.diag = BatchDiagnostics{};

  // One head call scores every candidate: link prediction each event's
  // destination and its Q negatives, classification its destination.
  Matrix& dy = s.ws.mat(0, 0);     // the destinations' output gradient
  Matrix& dneg = s.ws.mat(0, 0);   // the negatives' (none when classifying)
  if (task_ == Task::kLinkPrediction) {
    DT_CHECK_GT(mb.neg_variants, 0u);
    head_.forward_into(emb, n, Q, &s.head_ctx, result.pos_scores,
                       result.neg_scores, pass);
    result.loss = nn::link_prediction_loss(result.pos_scores,
                                           result.neg_scores, dy, dneg);
  } else {
    // No negatives: dneg takes their empty [n x 0] scores, which are
    // also their gradient.
    head_.forward_into(emb, n, 0, &s.head_ctx, result.logits, dneg, pass);
    Matrix& targets = s.ws.mat(n, head_.out_dim());
    for (std::size_t e = 0; e < n; ++e)
      targets.copy_row_from(e, graph_->edge_labels().row(mb.events[e]));
    result.loss = nn::multilabel_bce_loss(result.logits, targets, dy);
  }

  if (train) {
    // Embeddings the head does not read (a classification batch's
    // negatives) get no gradient.
    s.demb.resize(emb.rows(), emb.cols(), 0.0f);
    head_.backward_into(s.head_ctx, dy, dneg, s.demb);
    embed_backward(ctx, s.demb);
  }
  if (write != nullptr) make_write(mb, slice, ctx, result.diag, *write);
}

void TGNModel::train_step_into(const MiniBatch& mb, const MemorySlice& slice,
                               std::size_t version, MemoryWrite* write,
                               StepResult& out) {
  run(mb, slice, version, write, nn::Pass{}, out);
}

void TGNModel::infer_into(const MiniBatch& mb, const MemorySlice& slice,
                          MemoryWrite* write, StepResult& out,
                          ThreadPool* pool) {
  run(mb, slice, /*version=*/0, write, nn::Pass{.train = false, .pool = pool},
      out);
}

void TGNModel::collect_parameters(std::vector<nn::Parameter*>& out) {
  mail_time_enc_.collect_parameters(out);
  updater_.collect_parameters(out);
  attention_.collect_parameters(out);
  head_.collect_parameters(out);
}

}  // namespace disttgl
