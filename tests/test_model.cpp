// TGNModel behaviour: shapes, memory-write semantics (COMB, staleness
// accounting, leak avoidance), static-memory wiring, a tiny overfitting
// check proving the full forward/backward stack learns, and the pooled
// inference contract (bit-identical for any pool, no stale backward
// state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/tgn_model.hpp"
#include "datagen/generator.hpp"
#include "nn/optim.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {
namespace {

// One negative set: variant 0.
constexpr std::size_t kVariant0[] = {0};

struct Fixture {
  TemporalGraph graph;
  ModelConfig cfg;
  NeighborSampler sampler;
  NegativeSampler negatives;
  MiniBatchBuilder builder;
  MemoryState state;
  Rng rng;
  TGNModel model;

  explicit Fixture(std::size_t static_dim = 0, const Matrix* static_mem = nullptr)
      : graph([] {
          datagen::SynthSpec spec;
          spec.num_src = 40;
          spec.num_dst = 20;
          spec.num_events = 1500;
          spec.edge_feat_dim = 4;
          spec.seed = 21;
          return datagen::generate(spec);
        }()),
        cfg([&] {
          ModelConfig c;
          c.mem_dim = 8;
          c.time_dim = 4;
          c.attn_dim = 8;
          c.num_heads = 2;
          c.emb_dim = 8;
          c.num_neighbors = 4;
          c.static_dim = static_dim;
          c.head_hidden = 8;
          return c;
        }()),
        sampler(graph, cfg.num_neighbors),
        negatives(graph, 4, 17),
        builder(graph, sampler, negatives, 1),
        state(graph.num_nodes(), cfg.mem_dim, 2 * cfg.mem_dim + 4),
        rng(33),
        model(cfg, graph, static_mem, rng) {}
};

TEST(Model, StepResultShapes) {
  Fixture fx;
  MiniBatch mb;
  fx.builder.build_into(0, 0, 50, kVariant0, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  MemoryWrite write;
  TGNModel::StepResult res;
  fx.model.train_step_into(mb, slice, 0, &write, res);
  EXPECT_EQ(res.pos_scores.rows(), 50u);
  EXPECT_EQ(res.pos_scores.cols(), 1u);
  EXPECT_EQ(res.neg_scores.rows(), 50u);
  EXPECT_EQ(res.neg_scores.cols(), 1u);
  EXPECT_GT(res.loss, 0.0f);
}

TEST(Model, WriteCoversExactlyPositiveRoots) {
  Fixture fx;
  MiniBatch mb;
  fx.builder.build_into(0, 0, 50, kVariant0, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  MemoryWrite write;
  TGNModel::StepResult res;
  fx.model.train_step_into(mb, slice, 0, &write, res);

  std::set<NodeId> expected;
  for (std::size_t e = 0; e < mb.num_pos(); ++e) {
    expected.insert(mb.src[e]);
    expected.insert(mb.dst[e]);
  }
  std::set<NodeId> written(write.nodes.begin(), write.nodes.end());
  EXPECT_EQ(written, expected) << "negatives and plain neighbors never written";
}

TEST(Model, CombKeepsMostRecentMail) {
  Fixture fx;
  // Find a source with ≥2 events in the first 80 to exercise COMB.
  MiniBatch mb;
  fx.builder.build_into(0, 0, 80, kVariant0, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  MemoryWrite write;
  TGNModel::StepResult res;
  fx.model.train_step_into(mb, slice, 0, &write, res);
  EXPECT_EQ(res.diag.mails_generated, 160u);  // 2 per event
  EXPECT_EQ(res.diag.mails_kept, write.nodes.size());
  EXPECT_LT(res.diag.mails_kept, res.diag.mails_generated)
      << "batched COMB must collapse some mails on this dataset";
  // Each written node's mail timestamp = its LAST event time in batch.
  for (std::size_t s = 0; s < write.nodes.size(); ++s) {
    float last_ts = -1.0f;
    for (std::size_t e = 0; e < mb.num_pos(); ++e)
      if (mb.src[e] == write.nodes[s] || mb.dst[e] == write.nodes[s])
        last_ts = std::max(last_ts, mb.ts[e]);
    EXPECT_FLOAT_EQ(write.mail_ts[s], last_ts);
  }
}

TEST(Model, MemoryUpdateUsesCachedMailsNotCurrentBatch) {
  // Leak avoidance: with a fresh (zero) memory and empty mailbox, the
  // first batch's embeddings must not depend on its own events' mails —
  // no GRU rows should be touched.
  Fixture fx;
  MiniBatch mb;
  fx.builder.build_into(0, 0, 30, kVariant0, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  for (auto flag : slice.has_mail) EXPECT_EQ(flag, 0);
  MemoryWrite write;
  TGNModel::StepResult res;
  fx.model.train_step_into(mb, slice, 0, &write, res);
  // Post-UPDT memory written back equals the (zero) input memory since no
  // mails existed — only the mailbox gains entries.
  for (std::size_t i = 0; i < write.mem.size(); ++i)
    EXPECT_FLOAT_EQ(write.mem.data()[i], 0.0f);
  for (std::size_t s = 0; s < write.nodes.size(); ++s)
    EXPECT_GT(write.mail_ts[s], 0.0f);
}

TEST(Model, SecondBatchAppliesGru) {
  Fixture fx;
  MiniBatch mb1;
  fx.builder.build_into(0, 0, 30, kVariant0, mb1);
  MemorySlice s1;
  fx.state.read_into(mb1.unique_nodes, s1);
  MemoryWrite w1;
  TGNModel::StepResult res;
  fx.model.train_step_into(mb1, s1, 0, &w1, res);
  fx.state.write(w1);

  MiniBatch mb2;
  fx.builder.build_into(1, 30, 60, kVariant0, mb2);
  MemorySlice s2;
  fx.state.read_into(mb2.unique_nodes, s2);
  MemoryWrite w2;
  fx.model.train_step_into(mb2, s2, 0, &w2, res);
  // Nodes seen in batch 1 now carry mails; their updated memory differs
  // from zero.
  bool any_nonzero = false;
  for (std::size_t i = 0; i < w2.mem.size(); ++i)
    if (w2.mem.data()[i] != 0.0f) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
}

TEST(Model, VersionsShareInputsButDifferInNegatives) {
  Fixture fx;
  std::vector<std::size_t> groups = {0, 1};
  MiniBatch mb;
  fx.builder.build_into(0, 0, 40, groups, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  MemoryWrite write;
  TGNModel::StepResult r0;
  fx.model.train_step_into(mb, slice, 0, &write, r0);
  TGNModel::StepResult r1;
  fx.model.train_step_into(mb, slice, 1, nullptr, r1);
  // Same positives (same weights): identical positive scores.
  for (std::size_t e = 0; e < mb.num_pos(); ++e)
    EXPECT_FLOAT_EQ(r0.pos_scores(e, 0), r1.pos_scores(e, 0));
  // Negative scores differ (different negative destinations).
  bool differ = false;
  for (std::size_t i = 0; i < r0.neg_scores.size(); ++i)
    if (r0.neg_scores.data()[i] != r1.neg_scores.data()[i]) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Model, StaticMemoryChangesOutputs) {
  Matrix static_mem(60, 6);
  Rng srng(5);
  for (std::size_t i = 0; i < static_mem.size(); ++i)
    static_mem.data()[i] = static_cast<float>(srng.normal());
  Fixture with(6, &static_mem);
  Fixture without(0, nullptr);
  MiniBatch mb;
  with.builder.build_into(0, 0, 30, kVariant0, mb);
  MemorySlice slice;
  with.state.read_into(mb.unique_nodes, slice);
  MemoryWrite w;
  TGNModel::StepResult res_with;
  with.model.train_step_into(mb, slice, 0, &w, res_with);
  TGNModel::StepResult res_without;
  without.model.train_step_into(mb, slice, 0, &w, res_without);
  bool differ = false;
  for (std::size_t e = 0; e < mb.num_pos(); ++e)
    if (res_with.pos_scores(e, 0) != res_without.pos_scores(e, 0)) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Model, InferDoesNotAccumulateGradients) {
  Fixture fx;
  MiniBatch mb;
  fx.builder.build_into(0, 0, 30, kVariant0, mb);
  MemorySlice slice;
  fx.state.read_into(mb.unique_nodes, slice);
  fx.model.zero_grad();
  MemoryWrite w;
  TGNModel::StepResult res;
  fx.model.infer_into(mb, slice, &w, res);
  for (nn::Parameter* p : fx.model.parameters())
    EXPECT_FLOAT_EQ(p->grad.abs_max(), 0.0f);
}

TEST(Model, OverfitsTinyStream) {
  // Repeatedly training on the same two batches must drive loss down —
  // end-to-end sanity of the full backward stack.
  Fixture fx;
  nn::Adam opt(fx.model.parameters(), nn::AdamOptions{.lr = 1e-2f});
  float first_loss = 0.0f, last_loss = 0.0f;
  MiniBatch mb;
  MemorySlice slice;
  MemoryWrite w;
  TGNModel::StepResult res;
  for (int step = 0; step < 250; ++step) {
    fx.state.reset();
    float loss = 0.0f;
    for (std::size_t b = 0; b < 2; ++b) {
      fx.builder.build_into(b, b * 40, (b + 1) * 40, kVariant0, mb);
      fx.state.read_into(mb.unique_nodes, slice);
      fx.model.zero_grad();
      fx.model.train_step_into(mb, slice, 0, &w, res);
      fx.state.write(w);
      nn::clip_grad_norm(fx.model.parameters(), 10.0f);
      opt.step();
      loss += res.loss;
    }
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.6f);
}

TEST(Model, CombMeanAveragesMails) {
  // A node with multiple events in the batch gets the average of its
  // mails under kMean, vs the last one under kMostRecent.
  Fixture recent;
  Fixture mean;
  mean.cfg.comb = CombPolicy::kMean;
  Rng r2(33);
  TGNModel mean_model(mean.cfg, mean.graph, nullptr, r2);

  MiniBatch mb;
  recent.builder.build_into(0, 0, 80, kVariant0, mb);
  MemorySlice slice;
  recent.state.read_into(mb.unique_nodes, slice);
  MemoryWrite w_recent, w_mean;
  TGNModel::StepResult res;
  recent.model.train_step_into(mb, slice, 0, &w_recent, res);
  mean_model.train_step_into(mb, slice, 0, &w_mean, res);

  ASSERT_EQ(w_recent.nodes, w_mean.nodes);
  // Count events per written node; single-event nodes must agree
  // exactly, multi-event nodes generally differ.
  bool multi_differs = false;
  for (std::size_t s = 0; s < w_recent.nodes.size(); ++s) {
    std::size_t events = 0;
    for (std::size_t e = 0; e < mb.num_pos(); ++e)
      if (mb.src[e] == w_recent.nodes[s] || mb.dst[e] == w_recent.nodes[s])
        ++events;
    float diff = 0.0f;
    for (std::size_t c = 0; c < w_recent.mail.cols(); ++c)
      diff += std::abs(w_recent.mail(s, c) - w_mean.mail(s, c));
    if (events == 1) {
      EXPECT_LT(diff, 1e-5f) << "single-event node mails must match";
    } else if (diff > 1e-4f) {
      multi_differs = true;
    }
    EXPECT_FLOAT_EQ(w_recent.mail_ts[s], w_mean.mail_ts[s]);
  }
  EXPECT_TRUE(multi_differs) << "mean and most-recent must differ somewhere";
}

TEST(Model, RawNodeFeaturesEnterRepresentation) {
  datagen::SynthSpec spec;
  spec.num_src = 40;
  spec.num_dst = 20;
  spec.num_events = 800;
  spec.node_feat_dim = 6;
  spec.seed = 44;
  TemporalGraph g = datagen::generate(spec);
  ASSERT_TRUE(g.has_node_features());
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.attn_dim = 8;
  cfg.emb_dim = 8;
  cfg.num_neighbors = 4;
  cfg.head_hidden = 8;
  Rng rng(5);
  TGNModel model(cfg, g, nullptr, rng);

  NeighborSampler sampler(g, 4);
  NegativeSampler negs(g, 1, 3);
  MiniBatchBuilder builder(g, sampler, negs, 1);
  MiniBatch mb;
  builder.build_into(0, 0, 40, kVariant0, mb);
  MemoryState state(g.num_nodes(), cfg.mem_dim, 2 * cfg.mem_dim);
  MemorySlice slice;
  state.read_into(mb.unique_nodes, slice);
  MemoryWrite w;
  model.zero_grad();
  TGNModel::StepResult res;
  model.train_step_into(mb, slice, 0, &w, res);
  EXPECT_TRUE(std::isfinite(res.loss));
  // With zero memory and no mails, embeddings still differ across roots
  // because the raw node features distinguish them.
  bool differ = false;
  for (std::size_t e = 1; e < mb.num_pos(); ++e)
    if (res.pos_scores(e, 0) != res.pos_scores(0, 0)) differ = true;
  EXPECT_TRUE(differ);
  // Gradients flow through the attention despite all-zero memory.
  float gmax = 0.0f;
  for (nn::Parameter* p : model.parameters())
    gmax = std::max(gmax, p->grad.abs_max());
  EXPECT_GT(gmax, 0.0f);
}

TEST(Model, StaticOnlyVariantSkipsGru) {
  Matrix static_mem(60, 6, 0.5f);
  Fixture fx(6, &static_mem);
  Rng rng(3);
  ModelConfig cfg = fx.cfg;
  cfg.dynamic_memory = false;
  TGNModel static_model(cfg, fx.graph, &static_mem, rng);

  // Process two consecutive batches; with the GRU disabled the written
  // memory stays zero even after mails exist.
  MiniBatch mb1;
  fx.builder.build_into(0, 0, 30, kVariant0, mb1);
  MemorySlice s1;
  fx.state.read_into(mb1.unique_nodes, s1);
  MemoryWrite w1;
  TGNModel::StepResult res;
  static_model.train_step_into(mb1, s1, 0, &w1, res);
  fx.state.write(w1);
  MiniBatch mb2;
  fx.builder.build_into(1, 30, 60, kVariant0, mb2);
  MemorySlice s2;
  fx.state.read_into(mb2.unique_nodes, s2);
  MemoryWrite w2;
  static_model.train_step_into(mb2, s2, 0, &w2, res);
  for (std::size_t i = 0; i < w2.mem.size(); ++i)
    EXPECT_FLOAT_EQ(w2.mem.data()[i], 0.0f);
}

TEST(Model, ClassificationTaskProducesLogits) {
  datagen::SynthSpec spec;
  spec.num_src = 50;
  spec.num_dst = 0;
  spec.num_events = 800;
  spec.edge_feat_dim = 4;
  spec.num_classes = 6;
  spec.labels_per_edge = 2;
  spec.seed = 9;
  TemporalGraph g = datagen::generate(spec);
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.attn_dim = 8;
  cfg.emb_dim = 8;
  cfg.num_neighbors = 4;
  cfg.head_hidden = 8;
  Rng rng(3);
  TGNModel model(cfg, g, nullptr, rng);
  EXPECT_EQ(model.task(), TGNModel::Task::kEdgeClassification);

  NeighborSampler sampler(g, 4);
  NegativeSampler negs(g, 1, 3);
  MiniBatchBuilder builder(g, sampler, negs, 0);
  MiniBatch mb;
  builder.build_into(0, 0, 40, std::span<const std::size_t>{}, mb);
  MemoryState state(g.num_nodes(), cfg.mem_dim, 2 * cfg.mem_dim + 4);
  MemorySlice slice;
  state.read_into(mb.unique_nodes, slice);
  MemoryWrite w;
  TGNModel::StepResult res;
  model.train_step_into(mb, slice, 0, &w, res);
  EXPECT_EQ(res.logits.rows(), 40u);
  EXPECT_EQ(res.logits.cols(), 6u);
  EXPECT_GT(res.loss, 0.0f);
}

// ---- pooled inference ----------------------------------------------------

// A model over a graph carrying every optional input — raw node
// features, edge features and a static memory table — whose memory
// stream is primed by one inferred batch, so the batches under test
// also run the GRU update on cached mails.
struct FullInputCase {
  static constexpr std::size_t kNumNeg = 9;

  bool link;
  TemporalGraph graph;
  Matrix static_mem;
  ModelConfig cfg;
  NeighborSampler sampler;
  NegativeSampler negatives;
  MiniBatchBuilder builder;
  MemoryState state;
  Rng rng;
  TGNModel model;

  explicit FullInputCase(bool classification)
      : link(!classification),
        graph([&] {
          datagen::SynthSpec spec;
          spec.num_src = 40;
          spec.num_dst = classification ? 0 : 20;
          spec.num_events = 1500;
          spec.edge_feat_dim = 4;
          spec.node_feat_dim = 3;
          spec.num_classes = classification ? 6 : 0;
          spec.labels_per_edge = classification ? 2 : 0;
          spec.seed = 23;
          return datagen::generate(spec);
        }()),
        static_mem([&] {
          Matrix m(graph.num_nodes(), 5);
          Rng srng(6);
          for (std::size_t i = 0; i < m.size(); ++i)
            m.data()[i] = static_cast<float>(srng.normal());
          return m;
        }()),
        cfg([] {
          ModelConfig c;
          c.mem_dim = 8;
          c.time_dim = 4;
          c.attn_dim = 8;
          c.num_heads = 2;
          c.emb_dim = 8;
          c.num_neighbors = 4;
          c.static_dim = 5;
          c.head_hidden = 8;
          return c;
        }()),
        sampler(graph, cfg.num_neighbors),
        negatives(graph, 1, 17),
        builder(graph, sampler, negatives, classification ? 0 : kNumNeg),
        state(graph.num_nodes(), cfg.mem_dim, 2 * cfg.mem_dim + 4),
        rng(33),
        model(cfg, graph, &static_mem, rng) {
    MiniBatch mb;
    build_into(0, 0, 300, mb);
    MemorySlice slice;
    state.read_into(mb.unique_nodes, slice);
    MemoryWrite w;
    TGNModel::StepResult out;
    model.infer_into(mb, slice, &w, out);
    state.write(w);
  }

  // Events [begin, end) with variant 0's negatives (none when
  // classifying).
  void build_into(std::size_t idx, std::size_t begin, std::size_t end,
                  MiniBatch& mb) const {
    builder.build_into(idx, begin, end,
                       link ? std::span<const std::size_t>(kVariant0)
                            : std::span<const std::size_t>(),
                       mb);
  }

  // Floats (parallel_rows' work units) of the wider of the forward's
  // two slot-sized row loops over `mb`: the attention's per-root score,
  // softmax and aggregate, K·2·(attn_dim + heads·(edge + time)) a root,
  // and Φ(Δt), time_dim a slot, whose chunks each run one vector cos.
  // With 800 events the attention's loop splits into many chunks in
  // both tasks, and Φ(Δt)'s into five when predicting links (one when
  // classifying, 1,600 roots' 25,600 floats).
  std::size_t widest_loop_work(const MiniBatch& mb) const {
    const std::size_t roots = mb.num_pos() * (2 + (link ? kNumNeg : 0));
    const std::size_t K = cfg.num_neighbors;
    const std::size_t attention =
        roots * K * 2 *
        (cfg.attn_dim + cfg.num_heads * (graph.edge_feat_dim() + cfg.time_dim));
    const std::size_t phi = roots * K * cfg.time_dim;
    return std::max(attention, phi);
  }
};

void expect_same_bits(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  if (a.size() > 0)
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what << " differs";
}

void expect_same_step(const TGNModel::StepResult& a, const MemoryWrite& wa,
                      const TGNModel::StepResult& b, const MemoryWrite& wb,
                      const std::string& what) {
  EXPECT_EQ(a.loss, b.loss) << what;
  expect_same_bits(a.pos_scores, b.pos_scores, what + " pos_scores");
  expect_same_bits(a.neg_scores, b.neg_scores, what + " neg_scores");
  expect_same_bits(a.logits, b.logits, what + " logits");
  EXPECT_EQ(wa.nodes, wb.nodes) << what;
  expect_same_bits(wa.mem, wb.mem, what + " write.mem");
  EXPECT_EQ(wa.mem_ts, wb.mem_ts) << what;
  expect_same_bits(wa.mail, wb.mail, what + " write.mail");
  EXPECT_EQ(wa.mail_ts, wb.mail_ts) << what;
}

class PooledInference : public ::testing::TestWithParam<bool> {};

TEST_P(PooledInference, BitIdenticalForAnyPoolSize) {
  FullInputCase fx(/*classification=*/GetParam());
  struct Range {
    std::size_t begin, end;
    bool fans_out;
  };
  // Two events keep every row loop inside one chunk (serial even with a
  // pool); 800 events split the wide loops into many chunks.
  for (const Range range : {Range{300, 302, false}, Range{300, 1100, true}}) {
    MiniBatch mb;
    fx.build_into(1, range.begin, range.end, mb);
    if (range.fans_out)
      ASSERT_GT(fx.widest_loop_work(mb), 4 * kRowChunkWork);
    else
      ASSERT_LT(fx.widest_loop_work(mb), kRowChunkWork);
    MemorySlice slice;
    fx.state.read_into(mb.unique_nodes, slice);
    TGNModel::StepResult ref;
    MemoryWrite ref_write;
    fx.model.infer_into(mb, slice, &ref_write, ref);
    for (const std::size_t threads : {1, 2, 4, 7}) {
      ThreadPool pool(threads);
      TGNModel::StepResult out;
      MemoryWrite write;
      fx.model.infer_into(mb, slice, &write, out, &pool);
      expect_same_step(ref, ref_write, out, write,
                       std::to_string(mb.num_pos()) + " events, " +
                           std::to_string(threads) + " threads");
    }
  }
}

TEST_P(PooledInference, LeavesNoBackwardStateForTraining) {
  // Two identical models; one runs a pooled inference over a larger
  // batch first. Backward must read only what the training forward
  // wrote, so gradients, loss and write agree to the bit.
  FullInputCase inferred(/*classification=*/GetParam());
  FullInputCase fresh(/*classification=*/GetParam());
  MiniBatch eval_mb;
  inferred.build_into(1, 300, 1100, eval_mb);
  MiniBatch train_mb;
  inferred.build_into(1, 300, 340, train_mb);
  MemorySlice slice;
  {
    ThreadPool pool(3);
    TGNModel::StepResult out;
    MemoryWrite w;
    inferred.state.read_into(eval_mb.unique_nodes, slice);
    inferred.model.infer_into(eval_mb, slice, &w, out, &pool);
  }
  TGNModel::StepResult a, b;
  MemoryWrite wa, wb;
  inferred.model.zero_grad();
  inferred.state.read_into(train_mb.unique_nodes, slice);
  inferred.model.train_step_into(train_mb, slice, 0, &wa, a);
  fresh.model.zero_grad();
  fresh.state.read_into(train_mb.unique_nodes, slice);
  fresh.model.train_step_into(train_mb, slice, 0, &wb, b);
  expect_same_step(a, wa, b, wb, "train step");
  const auto& pa = inferred.model.cached_parameters();
  const auto& pb = fresh.model.cached_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    expect_same_bits(pa[i]->grad, pb[i]->grad, pa[i]->name + ".grad");
}

std::string task_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Classification" : "LinkPrediction";
}

INSTANTIATE_TEST_SUITE_P(Tasks, PooledInference, ::testing::Bool(), task_name);

// ---- post-update memory --------------------------------------------------

class UpdatedMemory : public ::testing::TestWithParam<bool> {};

// updated_memory_into applies every pending mail up front, in its own
// node blocks: inference over the table finds no mail, and returns the
// bits inference over the raw state returns, at every batch size. One
// event's GRU rows share no product with other rows inline, and all of
// the graph's in the table. The write-back agrees too: the same memory
// rows and mails, and the consumed mail's timestamp as last update.
TEST_P(UpdatedMemory, InferenceOverItMatchesTheRawStateBitwise) {
  FullInputCase fx(/*classification=*/GetParam());
  MemoryState table;
  fx.model.updated_memory_into(fx.state, table);
  ASSERT_EQ(table.num_nodes(), fx.state.num_nodes());
  EXPECT_EQ(table.mem_dim(), fx.cfg.mem_dim);
  EXPECT_EQ(table.mail_dim(), 0u);
  std::size_t pending = 0;
  for (NodeId v = 0; v < fx.state.num_nodes(); ++v) {
    EXPECT_FALSE(table.has_mail(v)) << "node " << v;
    EXPECT_EQ(table.mail_ts(v), 0.0f) << "node " << v;
    pending += fx.state.has_mail(v) ? 1 : 0;
  }
  ASSERT_GT(pending, 0u) << "the primed state must hold mails";

  MemorySlice raw, updated;
  for (const std::size_t events : {1, 2, 4, 8, 200}) {
    for (const std::size_t begin : {300, 333}) {
      const std::string what = std::to_string(events) + " events from " +
                               std::to_string(begin);
      MiniBatch mb;
      fx.build_into(1, begin, begin + events, mb);
      fx.state.read_into(mb.unique_nodes, raw);
      table.read_into(mb.unique_nodes, updated);
      EXPECT_EQ(std::count(updated.has_mail.begin(), updated.has_mail.end(), 1),
                0)
          << what;
      TGNModel::StepResult ref, out;
      MemoryWrite ref_write, write;
      fx.model.infer_into(mb, raw, &ref_write, ref);
      fx.model.infer_into(mb, updated, &write, out);
      expect_same_bits(ref.pos_scores, out.pos_scores, what + " pos_scores");
      expect_same_bits(ref.neg_scores, out.neg_scores, what + " neg_scores");
      expect_same_bits(ref.logits, out.logits, what + " logits");
      EXPECT_EQ(ref_write.nodes, write.nodes) << what;
      expect_same_bits(ref_write.mem, write.mem, what + " write.mem");
      EXPECT_EQ(ref_write.mem_ts, write.mem_ts) << what;
      expect_same_bits(ref_write.mail, write.mail, what + " write.mail");
      EXPECT_EQ(ref_write.mail_ts, write.mail_ts) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tasks, UpdatedMemory, ::testing::Bool(), task_name);

}  // namespace
}  // namespace disttgl
