// Isolated memory-layer I/O cost per super-batch — the trajectory
// behind BENCH_memory.json (bench/run_memory.sh appends one labelled
// entry per invocation; docs/BENCHMARKS.md).
//
// DistTGL's premise is that memory reads/writes, not compute, bound
// M-TGNN training (§3.2–3.3, Fig 2b). This bench measures exactly that
// path, detached from the model: gather a MemorySlice for a
// super-batch's unique nodes, scatter a MemoryWrite for its positive
// roots, at the thr_2x2x1 super-batch shape of bench_training_throughput
// (600-event chunk, j = 2 negative variants, K = 10) and paper-scale
// memory dims (mem 100).
//
// read_us/write_us/rw_us time MemoryState's read_into into a recycled
// slice (fused single-pass gather, no fill, no allocation) and its
// in-place fused write from a persistent request. daemon_rt_us times the
// full zero-copy daemon round trip (read + write through the slot
// protocol, one trainer), putting a number on the serialization
// overhead itself, and group_rt_us the same for a two-trainer group.
//
//   bench_memory_ops [--scale=S] [--iters=N]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datagen/generator.hpp"
#include "datagen/presets.hpp"
#include "memory/daemon.hpp"
#include "sampling/minibatch.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace disttgl {
namespace {

constexpr std::size_t kMemDim = 100;  // paper §4.0.1 memory width

// Fill the state with per-node values and mails so gathers touch real
// data (flags set on two thirds of the nodes).
void populate(MemoryState& state, std::uint64_t seed) {
  Rng rng(seed);
  MemoryWrite w;
  const std::size_t n = state.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    if (v % 3 == 2) continue;
    w.nodes.assign(1, v);
    w.mem.resize(1, state.mem_dim(),
                 static_cast<float>(rng.uniform(-1.0, 1.0)));
    w.mem_ts.assign(1, static_cast<float>(v));
    w.mail.resize(1, state.mail_dim(),
                  static_cast<float>(rng.uniform(-1.0, 1.0)));
    w.mail_ts.assign(1, static_cast<float>(v) + 0.5f);
    state.write(w);
  }
}

struct SuperBatch {
  MiniBatch mb;
  std::vector<NodeId> write_nodes;  // distinct positive roots
};

// The thr_2x2x1 super-batch of bench_training_throughput: one 600-event
// chunk with j = 2 negative variants and K = 10 neighbor windows.
SuperBatch make_super_batch(const TemporalGraph& g) {
  NeighborSampler sampler(g, 10);
  NegativeSampler negatives(g, 10, 7 ^ 0x5eedULL);
  MiniBatchBuilder builder(g, sampler, negatives, 4);
  const std::vector<std::size_t> groups = {0, 1};
  SuperBatch sb;
  const std::size_t end = std::min<std::size_t>(600, g.num_events());
  builder.build_into(0, 0, end, groups, sb.mb);
  // Distinct positive roots, in first-appearance order (the make_write
  // write set).
  std::vector<std::uint8_t> seen(sb.mb.unique_nodes.size(), 0);
  for (std::size_t r = 0; r < 2 * sb.mb.num_pos(); ++r) {
    const std::size_t u = sb.mb.root_to_unique[r];
    if (!seen[u]) {
      seen[u] = 1;
      sb.write_nodes.push_back(sb.mb.unique_nodes[u]);
    }
  }
  return sb;
}

MemoryWrite make_write_payload(const SuperBatch& sb, std::size_t mem_dim,
                               std::size_t mail_dim, std::uint64_t seed) {
  Rng rng(seed);
  MemoryWrite w;
  w.nodes = sb.write_nodes;
  const std::size_t n = w.nodes.size();
  w.mem.reset_shape(n, mem_dim);
  w.mail.reset_shape(n, mail_dim);
  for (std::size_t i = 0; i < n * mem_dim; ++i)
    w.mem.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (std::size_t i = 0; i < n * mail_dim; ++i)
    w.mail.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  w.mem_ts.assign(n, 1.0f);
  w.mail_ts.assign(n, 1.5f);
  return w;
}

void run_dataset(const datagen::SynthSpec& spec, std::size_t iters) {
  const TemporalGraph g = datagen::generate(spec);
  bench::section(spec.name + " (" + std::to_string(g.num_nodes()) +
                 " nodes, " + std::to_string(g.num_events()) + " events)");

  const std::size_t mail_dim = 2 * kMemDim + g.edge_feat_dim();
  MemoryState state(g.num_nodes(), kMemDim, mail_dim);
  populate(state, spec.seed);

  const SuperBatch sb = make_super_batch(g);
  const std::vector<NodeId>& nodes = sb.mb.unique_nodes;
  const MemoryWrite w = make_write_payload(sb, kMemDim, mail_dim, 11);

  // Best-of-rounds timing: the container shares one core with the rest
  // of the system, so a single long measurement absorbs scheduler
  // preemptions as signal. The minimum round is the cleanest estimate
  // of the actual per-iteration cost; per-iteration work (allocation,
  // fills, copies) is identical in every round and stays in the number.
  constexpr std::size_t kRounds = 5;
  const auto us_per_iter = [&](auto&& body) {
    // Warm-up reaches every buffer's high-water mark and faults pages.
    for (std::size_t r = 0; r < iters / 10 + 2; ++r) body();
    double best = 1e30;
    for (std::size_t round = 0; round < kRounds; ++round) {
      WallTimer timer;
      for (std::size_t r = 0; r < iters; ++r) body();
      best = std::min(best, timer.seconds());
    }
    return best * 1e6 / static_cast<double>(iters);
  };

  double sink = 0.0;  // defeats dead-code elimination across variants

  // -- reads --
  MemorySlice recycled;
  const double read_us = us_per_iter([&] {
    state.read_into(nodes, recycled);
    sink += recycled.mem.data()[0] + recycled.has_mail[0];
  });

  // -- writes --
  const double write_us = us_per_iter([&] { state.write(w); });

  // -- combined read+write round (what one memory-op iteration costs) --
  const double rw_us = us_per_iter([&] {
    state.read_into(nodes, recycled);
    sink += recycled.mem.data()[0];
    state.write(w);
  });

  // -- zero-copy daemon round trip (protocol overhead included) --
  const std::size_t rounds = iters / 10 + 2 + kRounds * iters;
  {
    DaemonConfig dc;
    dc.i = 1;
    dc.j = 1;
    dc.reset_before_round.assign(rounds, 0);
    MemoryDaemon daemon(state, dc);
    daemon.start();
    MemorySlice dslice;
    const double daemon_rt_us = us_per_iter([&] {
      daemon.read(0, nodes, dslice);
      sink += dslice.mem.data()[0];
      daemon.write(0, w);
    });
    daemon.join();

    std::printf(
        "memory_ops dataset=%s rows=%zu write_rows=%zu mem_dim=%zu "
        "mail_dim=%zu read_us=%.1f write_us=%.1f rw_us=%.1f "
        "daemon_rt_us=%.1f\n",
        spec.name.c_str(), nodes.size(), w.nodes.size(), kMemDim, mail_dim,
        read_us, write_us, rw_us, daemon_rt_us);
  }

  // -- per-super-batch protocol round trip, i=2 trainer group --
  // What one memory-op iteration of a 2×j×k run actually costs end to
  // end: both trainers post their chunk's read, block for the bracket,
  // then post their writes; the daemon gathers into lent buffers and
  // waiters park instead of spinning.
  const std::size_t half = nodes.size() / 2;
  const std::array<std::span<const NodeId>, 2> rank_nodes = {
      std::span<const NodeId>(nodes.data(), half),
      std::span<const NodeId>(nodes.data() + half, nodes.size() - half)};
  std::array<MemoryWrite, 2> rank_writes;
  {
    const std::size_t wh = w.nodes.size() / 2;
    for (std::size_t r = 0; r < 2; ++r) {
      const std::size_t lo = r * wh;
      const std::size_t hi = r == 0 ? wh : w.nodes.size();
      rank_writes[r].nodes.assign(w.nodes.begin() + lo, w.nodes.begin() + hi);
      std::vector<std::size_t> rows(hi - lo);
      std::iota(rows.begin(), rows.end(), lo);
      w.mem.gather_rows_into(rows, rank_writes[r].mem);
      rank_writes[r].mem_ts.assign(hi - lo, 1.0f);
      w.mail.gather_rows_into(rows, rank_writes[r].mail);
      rank_writes[r].mail_ts.assign(hi - lo, 1.5f);
    }
  }
  const std::size_t group_rounds = iters;
  constexpr std::size_t kGroupReps = 3;
  double group = 1e30;
  for (std::size_t rep = 0; rep < kGroupReps; ++rep) {
    DaemonConfig dc;
    dc.i = 2;
    dc.j = 1;
    dc.reset_before_round.assign(group_rounds, 0);
    MemoryDaemon daemon(state, dc);
    daemon.start();
    WallTimer timer;
    std::array<std::thread, 2> trainers;
    for (std::size_t r = 0; r < 2; ++r) {
      trainers[r] = std::thread([&, r] {
        MemorySlice slice;  // recycled; daemon gathers straight in
        for (std::size_t round = 0; round < group_rounds; ++round) {
          daemon.read(r, rank_nodes[r], slice);
          daemon.write(r, rank_writes[r]);
        }
      });
    }
    for (auto& t : trainers) t.join();
    daemon.join();
    group = std::min(group,
                     timer.seconds() * 1e6 / static_cast<double>(group_rounds));
  }
  std::printf("memory_protocol dataset=%s trainers=2 group_rt_us=%.1f\n",
              spec.name.c_str(), group);
  if (sink == 42.0) std::printf("# sink %f\n", sink);
  std::fflush(stdout);
}

}  // namespace
}  // namespace disttgl

int main(int argc, char** argv) {
  using namespace disttgl;
  double scale = 0.25;
  std::size_t iters = 200;
  std::string dataset = "all";
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--scale=", 8) == 0) {
      scale = std::stod(argv[a] + 8);
    } else if (std::strncmp(argv[a], "--iters=", 8) == 0) {
      iters = static_cast<std::size_t>(std::stoul(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--dataset=", 10) == 0) {
      dataset = argv[a] + 10;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=S] [--iters=N] "
                   "[--dataset=wikipedia|mooc|all]\n",
                   argv[0]);
      return 2;
    }
  }
  bench::header(
      "memory_ops — isolated memory read+write cost per super-batch",
      "memory I/O, not compute, bounds M-TGNN training (§3.2–3.3); bulk "
      "fused array ops over recycled buffers keep it allocation-free");
  std::printf("scale=%.3g iters=%zu\n", scale, iters);
  // run_memory.sh measures one dataset per process, each from a fresh
  // heap, as a real training run starts.
  if (dataset == "all" || dataset == "wikipedia")
    run_dataset(datagen::wikipedia_like(scale), iters);
  if (dataset == "all" || dataset == "mooc")
    run_dataset(datagen::mooc_like(scale), iters);
  return 0;
}
