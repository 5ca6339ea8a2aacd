// google-benchmark microbenchmarks for the kernel-level hot paths: GEMM
// (all three layout-tag products, and narrow ones), masked softmax, GRU
// cell, time encoding, temporal attention, the link-prediction head,
// neighbor sampling, memory gather/scatter. These are the quantities the throughput model's
// gpu_flops/bytes inputs abstract over.
//
// Every benchmark measures the steady-state training iteration: outputs
// and Ctx scratch are reused, reach their high-water mark during
// warm-up, and the timed loop performs zero heap allocations (see
// test_kernels.AllocationFree for the enforced version of that claim).
//
// bench/run_kernels.sh runs this target and appends a labelled entry to
// BENCH_kernels.json, the kernel-layer perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "datagen/generator.hpp"
#include "memory/memory_state.hpp"
#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/predictor.hpp"
#include "nn/time_encoding.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace disttgl;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t n,
                       std::size_t k) {
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);  // FLOPs
  state.SetBytesProcessed(state.iterations() * (m * k + k * n + m * n) *
                          sizeof(float));
}

void BM_GemmInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c;
  matmul_into(a, b, c);  // warm-up: c reaches steady-state capacity
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmInto)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNtInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c;
  matmul_nt_into(a, b, c);
  for (auto _ : state) {
    matmul_nt_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNtInto)->Arg(128)->Arg(256);

// C += Aᵀ·B, the weight-gradient product the GRU's backward runs.
void BM_GemmTnInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    matmul_tn_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTnInto)->Arg(128)->Arg(256);

// Products narrower than 8 columns, which run the narrow kernel, at the
// workloads' shapes: the pair head's output column over train-proc-ckpt's
// final evaluation (NN 15,000x1x100: 15,000 candidates, hidden 100) and
// its weight gradient over a train-thread step (TN 8x1x2,400: hidden 8,
// 2,400 candidates, accumulated); train-thread's per-head tbar·W_v,tail
// (NN 3,600x4x20: 3,600 roots, a head 4 wide, Φ 4 plus 16 edge features)
// and its weight gradient (TN 20x4x3,600, accumulated).
void BM_GemmNarrow(benchmark::State& state) {
  using kernel::Layout;
  const bool tn = state.range(0) != 0;
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto k = static_cast<std::size_t>(state.range(3));
  Rng rng(12);
  const Matrix a = tn ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);
  for (auto _ : state) {
    kernel::gemm(tn ? Layout::kTransposed : Layout::kNormal, Layout::kNormal,
                 m, n, k, a.data(), a.cols(), b.data(), n, c.data(), n,
                 /*accumulate=*/tn);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmNarrow)
    ->ArgNames({"tn", "m", "n", "k"})
    ->Args({0, 15000, 1, 100})
    ->Args({1, 8, 1, 2400})
    ->Args({0, 3600, 4, 20})
    ->Args({1, 20, 4, 3600});

// The attention's masked softmax over a block of roots' rows, in place
// (on its own output after the first iteration, which exponentiates
// the same entries).
void BM_MaskedSoftmax(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix y = random_matrix(rows, 10, rng);
  std::vector<std::size_t> valid(rows);
  for (std::size_t r = 0; r < rows; ++r) valid[r] = r % 11;
  for (auto _ : state) {
    masked_softmax_rows(y.data(), rows, 10, valid);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * y.size() * sizeof(float));
}
BENCHMARK(BM_MaskedSoftmax)->Arg(600)->Arg(2400);

// Ctx and output reused, so iterations after the first are
// allocation-free.
void BM_GruCellInto(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::GRUCell cell("g", 72, 32, rng);
  Matrix x = random_matrix(rows, 72, rng);
  Matrix h = random_matrix(rows, 32, rng);
  nn::GRUCell::Ctx ctx;
  Matrix y;
  cell.forward_into(x, h, ctx, y);  // warm-up
  for (auto _ : state) {
    cell.forward_into(x, h, ctx, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GruCellInto)->Arg(600)->Arg(2400);

// UPDT's backward at train-tcp's shape: 327 nodes holding mail, the
// GRU's input {mail (216) || Φ (16)}, memory 100 wide. The model reads
// only Φ's 16 columns of the input gradient. Parameter gradients
// accumulate across iterations, as over a step's versions.
void BM_GruCellBackward(benchmark::State& state) {
  constexpr std::size_t kRows = 327, kInput = 232, kHidden = 100, kTime = 16;
  Rng rng(13);
  nn::GRUCell cell("g", kInput, kHidden, rng);
  const Matrix x = random_matrix(kRows, kInput, rng);
  const Matrix h = random_matrix(kRows, kHidden, rng);
  const Matrix dh = random_matrix(kRows, kHidden, rng);
  nn::GRUCell::Ctx ctx;
  Matrix h_new, dphi;
  cell.forward_into(x, h, ctx, h_new);
  cell.backward_into(ctx, dh, kInput - kTime, dphi);  // warm-up
  for (auto _ : state) {
    cell.backward_into(ctx, dh, kInput - kTime, dphi);
    benchmark::DoNotOptimize(dphi.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GruCellBackward);

// Φ(Δt) over one Δt per row, 16 wide (every workload's time_dim), as
// inference runs it: Arg(1024) is a serve-stream request's slots,
// Arg(153000) the train-proc-ckpt final evaluation's. Δt is uniform in
// [0, 1e4), as in AttentionAtWorkload. Items are elements.
void BM_TimeEncodingForward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  nn::TimeEncoding enc("te", 16);
  std::vector<float> dt(rows);
  for (float& d : dt) d = static_cast<float>(rng.uniform(0.0, 1e4));
  Matrix y;
  enc.forward_into(dt, nullptr, y);  // warm-up
  for (auto _ : state) {
    enc.forward_into(dt, nullptr, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * 16);
}
BENCHMARK(BM_TimeEncodingForward)->Arg(1024)->Arg(153000);

// The ω/φ gradients from a training forward's cached phases, at the
// same shapes.
void BM_TimeEncodingBackward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  nn::TimeEncoding enc("te", 16);
  std::vector<float> dt(rows);
  for (float& d : dt) d = static_cast<float>(rng.uniform(0.0, 1e4));
  const Matrix dy = random_matrix(rows, 16, rng);
  nn::TimeEncoding::Ctx ctx;
  Matrix y;
  enc.forward_into(dt, &ctx, y);
  enc.backward_cols(ctx, dy, 0);  // warm-up
  for (auto _ : state) {
    enc.backward_cols(ctx, dy, 0);
    benchmark::DoNotOptimize(enc.parameters()[0]->grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * 16);
}
BENCHMARK(BM_TimeEncodingBackward)->Arg(1024)->Arg(153000);

// Ctx hoisted out of the loop: after the first (warm-up) call every
// iteration reuses the Ctx-held scratch — the steady-state training shape.
void BM_TemporalAttention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t K = 10;
  Rng rng(4);
  nn::AttentionDims dims;
  dims.node_dim = 32;
  dims.edge_dim = 16;
  dims.time_dim = 8;
  dims.attn_dim = 32;
  dims.out_dim = 32;
  dims.num_heads = 2;
  dims.max_neighbors = K;
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(n, 32, rng);
  Matrix neigh = random_matrix(n * K, 32, rng);
  std::vector<std::size_t> slot_rows(n * K);
  std::iota(slot_rows.begin(), slot_rows.end(), std::size_t{0});
  Matrix edges = random_matrix(n * K, 16, rng);
  std::vector<float> dt(n * K, 1.0f);
  std::vector<std::size_t> valid(n, K);
  std::vector<std::size_t> roots(n);
  std::iota(roots.begin(), roots.end(), std::size_t{0});
  nn::TemporalAttention::Ctx ctx;
  // warm-up
  attn.forward(node, roots, neigh, slot_rows, edges, slot_rows, dt, valid,
               &ctx);
  for (auto _ : state) {
    const Matrix& out = attn.forward(node, roots, neigh, slot_rows, edges,
                                     slot_rows, dt, valid, &ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TemporalAttention)->Arg(200)->Arg(600);

// One attention layer at a workload's widths: node, attention and
// output width, edge and Φ(Δt) width, 2 heads, K slots per root drawing
// on `unique` table rows, and E_vw read by index from a table of
// `edge_rows` rows (none without edge features). Roots repeat rows of a
// root table as the workload's batches do (first-seen order, as
// TGNModel builds it).
struct AttentionAtWorkload {
  struct Shape {
    std::size_t width, edge_dim, time_dim, K, unique, edge_rows;
  };
  // train-proc-ckpt: paper widths, mooc_like has no edge features.
  static constexpr Shape kProcCkpt{100, 0, 16, 10, 245, 0};
  // train-thread: width 8 in 2 heads of 4, wikipedia_like(2.0)'s 16
  // edge features over its 24,000 events, Φ 4.
  static constexpr Shape kThread{8, 16, 4, 10, 1195, 24000};
  // serve-stream: width 32, Φ 16, K = 8, wikipedia_like(1.0)'s edges.
  static constexpr Shape kServe{32, 16, 16, 8, 400, 12000};

  Shape shape;
  nn::TemporalAttention attn;
  Matrix roots, table, edges, dout;
  std::vector<std::size_t> root_index, index, edge_index, valid;
  std::vector<float> dt;

  static nn::AttentionDims dims(const Shape& s) {
    return {.node_dim = s.width, .edge_dim = s.edge_dim,
            .time_dim = s.time_dim, .attn_dim = s.width, .out_dim = s.width,
            .num_heads = 2, .max_neighbors = s.K};
  }
  AttentionAtWorkload(const Shape& s, std::size_t n, std::size_t root_rows,
                      Rng&& rng)
      : shape(s),
        attn("a", dims(s), rng),
        roots(random_matrix(root_rows, s.width, rng)),
        table(random_matrix(s.unique, s.width, rng)),
        edges(random_matrix(s.edge_rows, s.edge_dim, rng)),
        dout(random_matrix(n, s.width, rng)),
        root_index(n),
        index(n * s.K),
        edge_index(s.edge_dim > 0 ? n * s.K : 0),
        valid(n, s.K),
        dt(n * s.K) {
    for (std::size_t& i : index) i = rng.uniform_int(s.unique);
    for (std::size_t& i : edge_index) i = rng.uniform_int(s.edge_rows);
    for (float& d : dt) d = static_cast<float>(rng.uniform(0.0, 1e4));
    for (std::size_t r = 0; r < n; ++r)
      root_index[r] = r < root_rows ? r : rng.uniform_int(root_rows);
  }
  const Matrix& forward(nn::TemporalAttention::Ctx& ctx, const nn::Pass& pass) {
    return attn.forward(roots, root_index, table, index, edges, edge_index,
                        dt, valid, &ctx, pass);
  }
  // A training step: forward, then backward. Items are slots.
  void step(benchmark::State& state) {
    nn::TemporalAttention::Ctx ctx;
    nn::TemporalAttention::InputGrads grads;
    for (auto _ : state) {
      forward(ctx, nn::Pass{});
      attn.backward_into(ctx, dout, grads);
      benchmark::DoNotOptimize(grads.dneigh_repr.data());
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * index.size());
  }
  // One inference forward. Items are slots.
  void infer(benchmark::State& state) {
    nn::TemporalAttention::Ctx ctx;
    for (auto _ : state) {
      const Matrix& out = forward(ctx, nn::Pass{.train = false});
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * index.size());
  }
};

// A train-proc-ckpt training step's attention: 884 roots over 190
// distinct rows, 8,840 slots, the repetition of its training batches
// (300 events with one negative each: 900 roots over 188-199 rows).
void BM_AttentionStep(benchmark::State& state) {
  AttentionAtWorkload(AttentionAtWorkload::kProcCkpt, 884, 190, Rng(6))
      .step(state);
}
BENCHMARK(BM_AttentionStep);

// train-proc-ckpt's final evaluation batch: 300 events x (2 + 49
// negatives) = 15,300 roots over 192 distinct rows (about 190 in the
// workload's), 153,000 slots.
void BM_AttentionEvalForward(benchmark::State& state) {
  AttentionAtWorkload(AttentionAtWorkload::kProcCkpt, 15300, 192, Rng(7))
      .infer(state);
}
BENCHMARK(BM_AttentionEvalForward);

// A train-thread training step's attention: 600 events x (2 + 4
// negatives) = 3,600 roots over 717 distinct rows, 1,195 table rows,
// 36,000 slots.
void BM_AttentionThreadStep(benchmark::State& state) {
  AttentionAtWorkload(AttentionAtWorkload::kThread, 3600, 717, Rng(10))
      .step(state);
}
BENCHMARK(BM_AttentionThreadStep);

// A serve-stream request's forward: 64 events' 128 roots over 110
// distinct rows, 1,024 slots.
void BM_AttentionServeForward(benchmark::State& state) {
  AttentionAtWorkload(AttentionAtWorkload::kServe, 128, 110, Rng(11))
      .infer(state);
}
BENCHMARK(BM_AttentionServeForward);

// The final evaluation's link-prediction head: 300 events, each scored
// against its destination and 49 negatives, embedding and hidden width
// 100, one inference forward. Items are scored pairs.
void BM_PredictorEvalForward(benchmark::State& state) {
  constexpr std::size_t kEvents = 300, kNeg = 49, kWidth = 100;
  Rng rng(8);
  nn::PairHead head("p", kWidth, kWidth, 1, rng);
  const Matrix emb = random_matrix(kEvents * (2 + kNeg), kWidth, rng);
  nn::PairHead::Ctx ctx;
  Matrix pos, neg;
  for (auto _ : state) {
    head.forward_into(emb, kEvents, kNeg, &ctx, pos, neg,
                      nn::Pass{.train = false});
    benchmark::DoNotOptimize(neg.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kEvents * (1 + kNeg));
}
BENCHMARK(BM_PredictorEvalForward);

void BM_MiniBatchBuild(benchmark::State& state) {
  datagen::SynthSpec spec;
  spec.num_src = 440;
  spec.num_dst = 220;
  spec.num_events = 12000;
  spec.seed = 5;
  static TemporalGraph g = datagen::generate(spec);
  NeighborSampler sampler(g, 10);
  NegativeSampler negs(g, 10, 7);
  MiniBatchBuilder builder(g, sampler, negs, 1);
  MiniBatch mb;
  std::size_t b = 0;
  for (auto _ : state) {
    const std::size_t group = b % 10;
    builder.build_into(b, 6000, 6600, {&group, 1}, mb);
    benchmark::DoNotOptimize(mb.unique_nodes.data());
    ++b;
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_MiniBatchBuild);

// Distinct random node ids (a shuffled-prefix draw): MemoryState::write
// requires distinct nodes, the contract that makes its parallel fan-out
// race-free.
std::vector<NodeId> distinct_nodes(std::size_t rows, std::size_t num_nodes,
                                   Rng& rng) {
  std::vector<NodeId> all(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) all[v] = static_cast<NodeId>(v);
  for (std::size_t i = 0; i < rows; ++i)
    std::swap(all[i], all[i + rng.uniform_int(num_nodes - i)]);
  all.resize(rows);
  return all;
}

// The allocation-free steady state: fused blocked-row gather into a
// recycled slice + in-place write (the trainers' actual memory path).
void BM_MemoryReadWriteInto(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  MemoryState mem(20000, 32, 80);
  Rng rng(6);
  const std::vector<NodeId> nodes = distinct_nodes(rows, 20000, rng);
  MemoryWrite w;
  w.nodes = nodes;
  w.mem = Matrix(rows, 32, 1.0f);
  w.mem_ts.assign(rows, 1.0f);
  w.mail = Matrix(rows, 80, 1.0f);
  w.mail_ts.assign(rows, 1.0f);
  MemorySlice slice;
  for (auto _ : state) {
    mem.read_into(nodes, slice);
    benchmark::DoNotOptimize(slice.mem.data());
    mem.write(w);
  }
  state.SetBytesProcessed(state.iterations() * rows * (32 + 80) * 4 * 2);
}
BENCHMARK(BM_MemoryReadWriteInto)->Arg(1024)->Arg(4096);

}  // namespace
