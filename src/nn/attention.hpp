// Temporal graph attention aggregator (Eq. 4–7 of the paper).
//
//   q   = W_q {s_v || Φ(0)} + b_q
//   K   = W_k {S_w || E_vw || Φ(Δt)} + b_k
//   V   = W_v {S_w || E_vw || Φ(Δt)} + b_v
//   h_v = softmax(q K^T / sqrt(|N_v|)) V            (per attention head)
//   out = ReLU(W_o {h_v || s_v} + b_o)
//
// Batch layout: n roots, each with a fixed-capacity window of
// max_neighbors slots; `valid[r]` gives the populated prefix length.
// Slot k of root r lives at row r*max_neighbors + k of the per-slot
// inputs. Both sides arrive as a table of rows plus one index per
// entry: root r's representation s_v is row root_index[r] of the root
// table, and each slot's S_w a row of the neighbor table. A batch's
// roots and slots repeat few nodes (49 negatives per event at
// evaluation), so every product of a node row runs once per table row.
//
// Root side. Φ(0) = cos φ is the same row for every root, so with W_q
// and W_o split into their s_v rows (top, s) and the rest:
//
//   c   = Φ(0)·W_q,tail + b_q                        (one row)
//   Q   = R·W_q,top + c,    S = R·W_o,s + b_o        (per root-table row)
//   q_r = Q[d(r)],          out_r = ReLU(h_r·W_o,h + S[d(r)])
//
// where R is the root table and d(r) = root_index[r]. No root's
// {s_v || Φ(0)} or {h_v || s_v} is ever formed.
//
// Neighbor side. No per-slot key or value is ever formed. The attention
// uses K and V only through q·K and α·V, and both projections are
// linear, so with T = {E_vw || Φ(Δt)} and each weight split into its
// node rows (top) and its tail rows, per head h:
//
//   q_h·K_h    = q_h·Kt[w]_h + (q_h·W_k,tail,hᵀ)·T
//   Σ_k α V_h  = Σ_k α Vt[w]_h + (Σ_k α T)·W_v,tail,h
//
// where Kt = S·W_k,top + b_k and Vt = S·W_v,top + b_v have one row per
// neighbor-table row, and qt_h = q_h·W_k,tail,hᵀ one per root-table
// row. The forward forms the folded tail tbar_h = Σ_k α T per root, and
// touches each valid slot only to score it and accumulate. The backward
// mirrors it: dKt/dVt accumulate per neighbor-table row; dq, dqt and
// the output's pre-ReLU gradient are summed onto the root table's rows
// in root order, so every weight gradient of a root-side product runs
// over the root table's rows. The per-root 1/sqrt(|N_v|) scaling
// follows the paper (not the more common 1/sqrt(d_head)).
//
// Slot kernels. What is left per slot runs in the GEMM micro-kernel's
// idiom (tensor/simd.hpp: GCC vector extensions, one target_clones body
// per ISA level), one pass per root over all heads:
//   forward:  every valid slot's scores, then the masked softmax over a
//             block of roots (ops.hpp: one vmath::exp per block and
//             head), then h_att and tbar as weighted sums over the
//             root's valid slots, each output block written once;
//   backward: dα, with dVt scattered; the softmax's backward and the
//             root scale; dq and dqt summed over the slots and added
//             once to the root's row; dKt scattered, and dΦ(Δt) written
//             once per slot (zeros past valid).
// Dot products keep 8-lane, 4-lane and scalar partial sums, so their
// bits depend on the clone the loader picked (the default clone rounds
// each product, the x86-64-v3/v4 clones fuse it) as well as on the
// inputs, never on a pool or how roots split into blocks. Slots reach
// E_vw in place: row edge_index[s] of the caller's edge table, never
// copied.
//
// The Ctx owns every intermediate tensor the layer touches, so reusing
// one Ctx across iterations makes forward and backward allocation-free
// in steady state (same batch shape → same buffer shapes → capacity
// reuse). forward returns a reference into the Ctx.
#pragma once

#include <memory>

#include "nn/module.hpp"
#include "nn/time_encoding.hpp"
#include "util/rng.hpp"

namespace disttgl::nn {

struct AttentionDims {
  std::size_t node_dim = 0;      // root / neighbor representation width
  std::size_t edge_dim = 0;      // edge feature width (0 allowed)
  std::size_t time_dim = 0;      // time encoding width
  std::size_t attn_dim = 0;      // q/K/V width (all heads concatenated)
  std::size_t out_dim = 0;       // output embedding width
  std::size_t num_heads = 1;
  std::size_t max_neighbors = 0; // K, the neighbor window capacity
};

class TemporalAttention : public Module {
 public:
  struct Ctx {
    // Backward state, written by training passes only:
    TimeEncoding::Ctx t0_ctx, tdt_ctx;
    std::vector<std::size_t> root_index;  // each root's root-table row
    std::vector<std::size_t> valid;       // neighbor counts
    std::vector<std::size_t> index;       // each slot's table row
    std::vector<std::size_t> edge_index;  // each slot's edge row (de > 0)
    const Matrix* edges = nullptr;        // the caller's edge table (de > 0)
    Matrix roots, table;                  // both tables
    // Written by every pass (backward reads them too):
    Matrix phi0;                      // [1 x time_dim] Φ(0)
    Matrix q;                         // [Ur x attn_dim] query per root row
    Matrix qt;                        // [Ur x H·tail] q_h·W_k,tail,hᵀ
    Matrix kt, vt;                    // [U x attn_dim] per table row
    Matrix phidt;                     // [n*K x time_dim] Φ(Δt)
    std::vector<Matrix> alpha;        // per head: [n x K] attention weights
    Matrix tbar;                      // [n x H·tail] Σ_k α T per head
    Matrix h_att;                     // pre-output aggregated values
    Matrix out;                       // post-ReLU output (for relu backward)
    // Scratch (not read across the forward/backward boundary):
    Matrix qc;                        // [1 x attn_dim] Φ(0)·W_q,tail + b_q
    Matrix so;                        // [Ur x out_dim] R·W_o,s + b_o
    Matrix dpre, dh_att, dso;         // backward: output head grads
    Matrix dq, dqt, dtbar, dqc, dphi0;  // backward: query-side grads
    Matrix dkt, dvt;                  // backward: per table row K/V grads
    Matrix dphidt;                    // backward: Φ(Δt) grad
    std::vector<float> dalpha;        // backward: a root's [H x K] dα,
                                      // then its score gradients
  };

  TemporalAttention(std::string name, const AttentionDims& dims, Rng& rng);

  const AttentionDims& dims() const { return dims_; }

  // root_table:  [Ur x node_dim] rows the roots draw from
  // root_index:  [n] each root's row of root_table (< Ur)
  // neigh_table: [U x node_dim] rows the neighbor slots draw from
  // neigh_index: [n*K] each slot's row of neigh_table (< U)
  // edge_table:  [E x edge_dim] edge features, read in place
  // edge_index:  [n*K] each slot's row of edge_table (< E)
  // dt:          [n*K] time deltas (event time − neighbor memory time)
  // valid:       [n] populated neighbor counts (≤ K)
  // Every product of a root's representation runs once per row of
  // root_table, so a caller passes the distinct rows its roots use.
  // With edge_dim == 0 the edge table and index are never read and may
  // be empty. Slots at and past valid[r] are never read, but for their
  // Δt: Φ encodes every slot, so it must be finite. Their index and
  // edge index may hold anything.
  // Returns a reference to ctx->out ([n x out_dim]), valid until the
  // next forward call on the same Ctx. Only a training `pass` can be
  // followed by backward. A training pass keeps the edge index and
  // borrows edge_table, which must outlive the backward_into that
  // follows (TGNModel passes its graph's table).
  const Matrix& forward(const Matrix& root_table,
                        std::span<const std::size_t> root_index,
                        const Matrix& neigh_table,
                        std::span<const std::size_t> neigh_index,
                        const Matrix& edge_table,
                        std::span<const std::size_t> edge_index,
                        std::span<const float> dt,
                        std::span<const std::size_t> valid, Ctx* ctx,
                        const Pass& pass = {}) const;

  struct InputGrads {
    Matrix dnode_repr;   // [Ur x node_dim], per root-table row
    Matrix dneigh_repr;  // [U x node_dim], per neighbor-table row
  };
  // Accumulates parameter gradients; writes the input gradients into
  // caller-owned grads.
  void backward_into(Ctx& ctx, const Matrix& dout, InputGrads& grads);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  AttentionDims dims_;
  // W_q, b_q, W_k, b_k, W_v, b_v, W_o, b_o: the layer applies every
  // weight by row block (node rows, tail rows), never as one product.
  // Their names, shapes and initializer draws are a fully-connected
  // layer's (nn/init.hpp: "<name>.wq.weight", ...): the checkpoint
  // format and seeded results depend on them.
  Parameter wq_, bq_, wk_, bk_, wv_, bv_, wo_, bo_;
  TimeEncoding time_enc_;
};

}  // namespace disttgl::nn
