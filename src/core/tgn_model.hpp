// TGN-attn with static node memory — the DistTGL model (§2.1, §3.1).
//
// One training step, given a mini-batch and the memory slice for its
// unique nodes (read through the daemon or directly from a MemoryState):
//
//   1. UPDT: for every unique node with a cached mail, update its memory
//      with one GRU application on {mail || Φ(t_mail − t_mem)} (Eq. 3/8;
//      COMB already applied at mailbox-write time). Gradients train the
//      GRU within the cell — the chain stops at the previous memory, as
//      in the paper (no BPTT).
//   2. Node representation = {s_new || static_memory[v]} (§3.1). The
//      static table is pre-trained and frozen.
//   3. Temporal attention (Eq. 4–7) over the version-v root subset
//      {src, dst, variant-v negatives} produces output embeddings. Δt
//      for neighbor w is query-time − last-update-time of w's memory.
//      The attention reads both sides from the unique representations:
//      the roots' distinct rows and each slot's row, by index.
//   4. Task head: one nn::PairHead call scores each event's destination
//      and the variant's negatives (link-prediction BCE), or emits its
//      classes (multi-label classification against edge labels).
//   5. Version 0 additionally assembles the MemoryWrite: updated memory
//      rows for positive roots and fresh mails {s'_u || s'_v || e_uv}
//      with COMB = most-recent (the last event per node in the batch
//      wins), using the *updated-but-pre-batch* memory — exactly the
//      staleness/information-loss behaviour of Fig. 3.
//
// The model owns learnable weights plus a private Scratch of reusable
// per-batch buffers (layer Ctx structs and a Workspace arena), so
// steady-state iterations perform no heap allocations on the embed /
// backward hot path. The Scratch makes an instance stateful across
// calls but still safe to replicate per trainer thread (each trainer
// rank owns its own TGNModel).
#pragma once

#include "core/config.hpp"
#include "memory/memory_state.hpp"
#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/predictor.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/workspace.hpp"

namespace disttgl {

// Per-batch bookkeeping for the diagnostics figures (Fig 3 / Fig 8).
struct BatchDiagnostics {
  std::size_t mails_generated = 0;  // 2 per event (src and dst sides)
  std::size_t mails_kept = 0;       // after COMB (unique positive roots)
  double staleness_sum = 0.0;       // Σ (event_ts − mem_ts) over roots
  std::size_t staleness_count = 0;
};

class TGNModel : public nn::Module {
 public:
  enum class Task { kLinkPrediction, kEdgeClassification };

  // `static_memory` may be null (model without the §3.1 enhancement);
  // if given it must outlive the model and have one row per node.
  TGNModel(const ModelConfig& cfg, const TemporalGraph& graph,
           const Matrix* static_memory, Rng& rng);

  const ModelConfig& config() const { return cfg_; }
  Task task() const { return task_; }
  std::size_t mail_raw_dim() const { return mail_raw_dim_; }

  struct StepResult {
    float loss = 0.0f;
    // Link prediction: scores for MRR-style metrics.
    Matrix pos_scores;  // [n x 1]
    Matrix neg_scores;  // [n x num_neg]
    // Classification: logits [n x C].
    Matrix logits;
    BatchDiagnostics diag;
  };

  // Forward + backward for version `version` of the batch; accumulates
  // parameter gradients. If `write` is non-null (version 0 only), fills
  // the memory write-back for the positive roots. Reuses a caller-owned
  // StepResult (capacity-preserving score/logit buffers), so the
  // training loop allocates nothing per iteration.
  void train_step_into(const MiniBatch& mb, const MemorySlice& slice,
                       std::size_t version, MemoryWrite* write,
                       StepResult& out);

  // Forward only; used by the evaluator and the serving tier. Fills
  // `write` when non-null so evaluation advances the memory stream.
  // Makes none of the copies only backward reads (a later
  // train_step_into starts clean). With a `pool`, the large row loops
  // of the forward (the slot indices, Φ, the GRU's input concat, bias
  // adds, the attention's and the head's rows) and its GEMMs fan out
  // over it; without
  // one the whole forward runs on the calling thread. Each row keeps
  // its exact arithmetic, so results are bit-identical for any pool
  // size or none.
  void infer_into(const MiniBatch& mb, const MemorySlice& slice,
                  MemoryWrite* write, StepResult& out,
                  ThreadPool* pool = nullptr);

  // UPDT (step 1) over a whole state: `out` becomes memory only (no
  // mail columns, no pending mail) holding every node's post-UPDT row,
  // the consumed mail's timestamp as its last update where a mail was
  // applied. Runs in fixed node blocks on the calling thread. A node's
  // row depends only on its own stored state, so infer_into over `out`
  // finds no mail, runs no GRU, and returns the bits infer_into returns
  // over `in`, for any batch (the serving tier builds one per snapshot).
  void updated_memory_into(const MemoryState& in, MemoryState& out);

  void collect_parameters(std::vector<nn::Parameter*>& out) override;

 private:
  struct EmbedCtx {
    nn::GRUCell::Ctx gru_ctx;
    nn::TimeEncoding::Ctx mail_time_ctx;
    nn::TemporalAttention::Ctx attn_ctx;
    Matrix s_new;                        // [U x mem] post-UPDT memory
    std::vector<std::size_t> gru_rows;   // unique rows the GRU touched
    // D: the unique rows the version's roots use, first-seen order (the
    // attention's root table is repr's rows D).
    std::vector<std::size_t> root_nodes;
  };

  // All reusable per-batch buffers. Reset (shape-wise) every run(); heap
  // capacity persists across iterations.
  struct Scratch {
    EmbedCtx embed;
    Workspace ws;                               // loose temporaries
    nn::TemporalAttention::InputGrads attn_grads;
    nn::PairHead::Ctx head_ctx;
    Matrix demb;                                // dL/d(embeddings), training
    // make_write working set (persists so assembling the MemoryWrite
    // allocates nothing at steady state).
    std::vector<std::size_t> slot_of_unique;    // unique idx → write slot
    std::vector<std::size_t> uniq_roots;        // distinct positive roots
    std::vector<float> mail_row;                // one staged mail payload
    std::vector<float> mail_counts;             // COMB=mean normalizers
    // updated_memory_into's node block and its slice.
    std::vector<NodeId> block_nodes;
    MemorySlice block;
  };

  // UPDT: ctx.s_new = slice.mem with every row holding a mail (under
  // dynamic memory) replaced by its GRU update; ctx.gru_rows lists them.
  void update_memory(const MemorySlice& slice, EmbedCtx& ctx,
                     const nn::Pass& pass);

  // Shared forward: UPDT + representations + attention for one version.
  // Returns embeddings [n*(2+num_neg) x emb_dim] for roots
  // {src, dst, neg_v}, in that order (reference into the attention Ctx).
  const Matrix& embed(const MiniBatch& mb, const MemorySlice& slice,
                      std::size_t version, EmbedCtx& ctx,
                      const nn::Pass& pass);
  // Backward through embed (grads accumulate into parameters).
  void embed_backward(EmbedCtx& ctx, const Matrix& demb);

  // Loss + head forward (and backward for a training pass), into a
  // reusable caller-owned result.
  void run(const MiniBatch& mb, const MemorySlice& slice, std::size_t version,
           MemoryWrite* write, const nn::Pass& pass, StepResult& result);

  // Assembles the write-back into `w` in place (capacity-preserving;
  // the working buffers live in scratch_, hence non-const).
  void make_write(const MiniBatch& mb, const MemorySlice& slice,
                  const EmbedCtx& ctx, BatchDiagnostics& diag, MemoryWrite& w);

  ModelConfig cfg_;
  const TemporalGraph* graph_;
  const Matrix* static_memory_;
  Task task_;
  std::size_t mail_raw_dim_;  // 2*mem_dim + edge_feat_dim
  std::size_t node_feat_dim_; // raw node features appended to the repr

  nn::TimeEncoding mail_time_enc_;  // Φ inside UPDT input
  nn::GRUCell updater_;
  nn::TemporalAttention attention_;
  nn::PairHead head_;  // "tgn.pred" (1 output) or "tgn.cls" (C outputs)

  Scratch scratch_;
};

}  // namespace disttgl
