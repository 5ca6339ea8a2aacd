// The read-only serving tier, bottom to top: snapshot loading (newest
// committed set wins, torn sets fall back), the versioned publication
// seam (geometry validation, version monotonicity, typed request
// rejection), snapshot isolation under concurrent installs (N readers
// score sentinel-patterned snapshots while a writer churns versions —
// every response must be attributable to exactly one published version,
// bitwise; run under TSan in CI), checkpoint→serve equivalence across
// the {i,j,k} grid (served scores bitwise equal to an inline infer_into
// at the checkpoint's iteration), and the socket front end (UNIX + TCP
// round trips, typed error propagation, the directory poller).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/proc_trainer.hpp"
#include "datagen/generator.hpp"
#include "serving/model_server.hpp"
#include "serving/score_server.hpp"
#include "serving/snapshot.hpp"

namespace disttgl {
namespace {

namespace fs = std::filesystem;
using serving::ModelServer;
using serving::ScoreClient;
using serving::ScoreRequest;
using serving::ScoreResponse;
using serving::ScoreServer;
using serving::ScoreServerConfig;
using serving::ServingConfig;
using serving::ServingErrc;
using serving::ServingError;
using serving::ServingSnapshot;

// Scratch dirs/sockets live under the fabric_shm_sweep fixture's roots.
std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = "/tmp/disttgl-ckpt/serve_" + tag + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  fs::create_directories(dir);
  return dir;
}

std::string fresh_socket(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/disttgl." + tag + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

TemporalGraph serving_graph() {
  datagen::SynthSpec spec;
  spec.num_src = 50;
  spec.num_dst = 25;
  spec.num_events = 1600;
  spec.edge_feat_dim = 4;
  spec.seed = 91;
  return datagen::generate(spec);
}

TrainingConfig serving_training_config() {
  TrainingConfig cfg;
  cfg.model.mem_dim = 8;
  cfg.model.time_dim = 4;
  cfg.model.attn_dim = 8;
  cfg.model.emb_dim = 8;
  cfg.model.num_neighbors = 4;
  cfg.model.head_hidden = 8;
  cfg.local_batch = 56;
  cfg.epochs = 2;
  cfg.seed = 17;
  return cfg;
}

// A request over real graph events [begin, end) — served edges carry
// the events' (src, dst, ts) but no identity beyond that.
ScoreRequest request_over_events(const TemporalGraph& g, std::size_t begin,
                                 std::size_t end, std::uint32_t copy = 0,
                                 std::uint64_t id = 1) {
  ScoreRequest req;
  req.id = id;
  req.copy = copy;
  for (std::size_t i = begin; i < end; ++i) {
    const TemporalEdge& e = g.event(static_cast<EdgeId>(i));
    req.src.push_back(e.src);
    req.dst.push_back(e.dst);
    req.ts.push_back(e.ts);
  }
  return req;
}

// Initial weights of a freshly-built model for (cfg, graph, seed) — the
// sentinel snapshots all share these values so only the memory pattern
// distinguishes versions.
std::vector<float> probe_weights(const ModelConfig& cfg,
                                 const TemporalGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  TGNModel model(cfg, g, nullptr, rng);
  std::vector<float> w;
  nn::flatten_values(model.cached_parameters(), w);
  return w;
}

// Hand-built snapshot whose node-memory rows carry a per-pattern
// sentinel (mails empty, so scores read the pattern directly through
// the attention path). iteration = pattern + 1 makes every response
// attributable: resp.iteration − 1 names the pattern it was served
// from.
std::shared_ptr<const ServingSnapshot> sentinel_snapshot(
    const ModelConfig& cfg, const TemporalGraph& g, std::vector<float> weights,
    std::size_t pattern, std::size_t copies = 1) {
  const std::size_t n = g.num_nodes();
  const std::size_t mail_dim = 2 * cfg.mem_dim + 4;  // edge_feat_dim = 4
  auto snap = std::make_shared<ServingSnapshot>();
  snap->iteration = pattern + 1;
  snap->fingerprint = 0xfeedULL;
  snap->world = 1;
  snap->weights = std::move(weights);
  for (std::size_t c = 0; c < copies; ++c) {
    MemoryState state(n, cfg.mem_dim, mail_dim);
    std::vector<NodeId> nodes(n);
    Matrix mem(n, cfg.mem_dim);
    Matrix mail(n, mail_dim);
    std::vector<float> mem_ts(n, 0.0f), mail_ts(n, 0.0f);
    std::vector<std::uint8_t> flags(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      nodes[v] = static_cast<NodeId>(v);
      for (std::size_t d = 0; d < cfg.mem_dim; ++d)
        mem(v, d) = 0.25f * static_cast<float>(pattern + 1 + c) +
                    0.01f * static_cast<float>(d) -
                    0.002f * static_cast<float>(v % 7);
    }
    state.restore(nodes, mem, mem_ts, mail, mail_ts, flags);
    snap->states.push_back(std::move(state));
  }
  return snap;
}

// ---- snapshot loading ----------------------------------------------------

TEST(ServingSnapshot, LoadsNewestCommittedSetFromTrainedRun) {
  TemporalGraph g = serving_graph();
  TrainingConfig cfg = serving_training_config();
  cfg.recovery.checkpoint_dir = fresh_dir("load");
  cfg.recovery.checkpoint_every = 3;
  (void)train_distributed(cfg, g, nullptr);

  const std::vector<SnapshotRef> refs =
      list_snapshots(cfg.recovery.checkpoint_dir);
  ASSERT_FALSE(refs.empty());
  // committed_iterations sorts newest first, and list_snapshots must
  // preserve that order (load_latest_servable's fallback depends on it).
  for (std::size_t i = 1; i < refs.size(); ++i)
    EXPECT_GT(refs[i - 1].iteration, refs[i].iteration);

  auto snap = serving::load_latest_servable(cfg.recovery.checkpoint_dir);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->iteration, refs.front().iteration);
  EXPECT_EQ(snap->states.size(), 1u);
  EXPECT_EQ(snap->states[0].num_nodes(), g.num_nodes());
  EXPECT_EQ(snap->states[0].mem_dim(), cfg.model.mem_dim);

  Rng rng(1);
  TGNModel probe(cfg.model, g, nullptr, rng);
  EXPECT_EQ(snap->weights.size(), probe.num_parameters());
}

TEST(ServingSnapshot, TornNewestSetFallsBackToPrevious) {
  TemporalGraph g = serving_graph();
  TrainingConfig cfg = serving_training_config();
  cfg.recovery.checkpoint_dir = fresh_dir("fallback");
  cfg.recovery.checkpoint_every = 3;
  (void)train_distributed(cfg, g, nullptr);

  const std::vector<SnapshotRef> refs =
      list_snapshots(cfg.recovery.checkpoint_dir);
  ASSERT_GE(refs.size(), 2u);

  // A commit marker with its mem shard missing is a torn set: loading
  // must fall back to the next-newest snapshot, not fail.
  fs::remove(refs.front().stem + ".mem0");
  auto snap = serving::load_latest_servable(cfg.recovery.checkpoint_dir);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->iteration, refs[1].iteration);
}

TEST(ServingSnapshot, EmptyDirectoryYieldsNull) {
  EXPECT_EQ(serving::load_latest_servable(fresh_dir("empty")), nullptr);
}

// ---- publication seam ----------------------------------------------------

TEST(ServingPublication, InstallValidatesGeometryTyped) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ModelServer server(mc, ServingConfig{}, g);
  const std::vector<float> w = probe_weights(mc, g, 5);

  const auto code_of = [&](std::shared_ptr<const ServingSnapshot> s) {
    try {
      server.install_snapshot(std::move(s));
    } catch (const ServingError& e) {
      return e.code();
    }
    return static_cast<ServingErrc>(0);
  };

  // Wrong weight count.
  auto bad_w = sentinel_snapshot(mc, g, w, 0);
  std::const_pointer_cast<ServingSnapshot>(bad_w)->weights.push_back(0.0f);
  EXPECT_EQ(code_of(bad_w), ServingErrc::kShapeMismatch);

  // No memory copies.
  auto no_mem = sentinel_snapshot(mc, g, w, 0);
  std::const_pointer_cast<ServingSnapshot>(no_mem)->states.clear();
  EXPECT_EQ(code_of(no_mem), ServingErrc::kShapeMismatch);

  // Wrong memory geometry.
  auto bad_mem = sentinel_snapshot(mc, g, w, 0);
  std::const_pointer_cast<ServingSnapshot>(bad_mem)->states[0] =
      MemoryState(g.num_nodes(), mc.mem_dim + 1, 2 * mc.mem_dim + 4);
  EXPECT_EQ(code_of(bad_mem), ServingErrc::kShapeMismatch);

  // Nothing above may have published.
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(server.installs(), 0u);

  EXPECT_EQ(server.install_snapshot(sentinel_snapshot(mc, g, w, 0)), 1u);
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(server.iteration(), 1u);
}

TEST(ServingPublication, ScoreRejectsBadRequestsTyped) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ServingConfig sc;
  sc.max_batch = 16;
  ModelServer server(mc, sc, g);
  auto scorer = server.make_scorer();
  ScoreResponse resp;

  const auto code_of = [&](const ScoreRequest& req) {
    try {
      scorer->score(req, resp);
    } catch (const ServingError& e) {
      return e.code();
    }
    return static_cast<ServingErrc>(0);
  };

  // Before any install, a well-formed request has no snapshot to hit.
  ScoreRequest ok = request_over_events(g, 0, 4);
  EXPECT_EQ(code_of(ok), ServingErrc::kNoSnapshot);

  server.install_snapshot(
      sentinel_snapshot(mc, g, probe_weights(mc, g, 5), 0));

  ScoreRequest empty;
  EXPECT_EQ(code_of(empty), ServingErrc::kBadRequest);

  ScoreRequest skewed = request_over_events(g, 0, 4);
  skewed.ts.pop_back();
  EXPECT_EQ(code_of(skewed), ServingErrc::kBadRequest);

  ScoreRequest out_of_range = request_over_events(g, 0, 4);
  out_of_range.dst[2] = static_cast<NodeId>(g.num_nodes());
  EXPECT_EQ(code_of(out_of_range), ServingErrc::kBadRequest);

  ScoreRequest oversized = request_over_events(g, 0, 17);
  EXPECT_EQ(code_of(oversized), ServingErrc::kBadRequest);

  ScoreRequest wrong_copy = request_over_events(g, 0, 4, /*copy=*/1);
  EXPECT_EQ(code_of(wrong_copy), ServingErrc::kWrongCopy);

  EXPECT_EQ(code_of(ok), static_cast<ServingErrc>(0));
  EXPECT_EQ(resp.version, 1u);
  EXPECT_EQ(resp.iteration, 1u);
  EXPECT_EQ(resp.scores.size(), 4u);
}

TEST(ServingPublication, VersionsAdvanceAndResponsesTrackInstalls) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ModelServer server(mc, ServingConfig{}, g);
  const std::vector<float> w = probe_weights(mc, g, 5);
  auto scorer = server.make_scorer();
  const ScoreRequest req = request_over_events(g, 100, 140);
  ScoreResponse resp;

  server.install_snapshot(sentinel_snapshot(mc, g, w, 0));
  scorer->score(req, resp);
  EXPECT_EQ(resp.version, 1u);
  EXPECT_EQ(resp.iteration, 1u);
  const std::vector<float> before = resp.scores;

  server.install_snapshot(sentinel_snapshot(mc, g, w, 1));
  scorer->score(req, resp);
  EXPECT_EQ(resp.version, 2u);
  EXPECT_EQ(resp.iteration, 2u);
  // Different sentinel memory must actually change the scores —
  // otherwise the isolation stress below could not detect a torn read.
  EXPECT_NE(before, resp.scores);
  EXPECT_EQ(server.installs(), 2u);
  EXPECT_EQ(scorer->stats().requests, 2u);
  EXPECT_EQ(scorer->stats().rebinds, 2u);
}

// ---- snapshot isolation under concurrent installs ------------------------

// N reader threads score while a writer installs successive sentinel
// snapshots. Every response names the snapshot version/iteration it was
// computed from; its scores must be bitwise identical to the serially
// precomputed scores for that sentinel pattern — any torn read (scores
// from pattern A attributed to pattern B, or a mix) is a failure. TSan
// additionally checks the pin/publish protocol for data races.
TEST(ServingIsolation, ConcurrentInstallsNeverTearReads) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ServingConfig sc;
  sc.slots = 4;
  ModelServer server(mc, sc, g);
  const std::vector<float> w = probe_weights(mc, g, 5);

  constexpr std::size_t kPatterns = 4;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kInstalls = 120;

  std::vector<std::shared_ptr<const ServingSnapshot>> snaps;
  for (std::size_t p = 0; p < kPatterns; ++p)
    snaps.push_back(sentinel_snapshot(mc, g, w, p));

  const std::vector<ScoreRequest> shapes = {
      request_over_events(g, 0, 40),
      request_over_events(g, 700, 716),
      request_over_events(g, 1200, 1260),
  };

  // Serial phase: the ground truth per (pattern, shape).
  std::vector<std::vector<std::vector<float>>> expected(kPatterns);
  {
    auto scorer = server.make_scorer();
    ScoreResponse resp;
    for (std::size_t p = 0; p < kPatterns; ++p) {
      server.install_snapshot(snaps[p]);
      for (const ScoreRequest& req : shapes) {
        scorer->score(req, resp);
        ASSERT_EQ(resp.iteration, p + 1);
        expected[p].push_back(resp.scores);
      }
    }
  }
  ASSERT_NE(expected[0][0], expected[1][0]);  // sentinels distinguishable

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> served{0};
  // The overlap is arranged, not timed: installs start once every reader
  // has finished a score (warmed), and go on past kInstalls until every
  // reader has also finished a score it began after the first install
  // (overlapped). Slow builds (sanitizers) then still interleave.
  std::atomic<std::size_t> warmed{0};
  std::atomic<bool> installed{false};
  std::atomic<std::size_t> overlapped{0};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto scorer = server.make_scorer();
      ScoreResponse resp;
      std::size_t s = r;
      bool first = true;
      bool counted = false;
      while (!done.load(std::memory_order_acquire)) {
        const bool after_install = installed.load(std::memory_order_acquire);
        const ScoreRequest& req = shapes[s++ % shapes.size()];
        scorer->score(req, resp);
        const std::size_t p = static_cast<std::size_t>(resp.iteration - 1);
        if (p >= kPatterns ||
            resp.scores != expected[p][(s - 1) % shapes.size()])
          mismatches.fetch_add(1, std::memory_order_relaxed);
        served.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          first = false;
          warmed.fetch_add(1, std::memory_order_release);
        }
        if (after_install && !counted) {
          counted = true;
          overlapped.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  while (warmed.load(std::memory_order_acquire) < kReaders)
    std::this_thread::yield();
  std::uint64_t torn_drains = 0;
  for (std::size_t i = 0;
       i < kInstalls || overlapped.load(std::memory_order_acquire) < kReaders;
       ++i) {
    try {
      server.install_snapshot(snaps[i % kPatterns]);
    } catch (const ServingError& e) {
      ASSERT_EQ(e.code(), ServingErrc::kDrainTimeout);
      ++torn_drains;
    }
    installed.store(true, std::memory_order_release);
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(torn_drains, 0u);
  EXPECT_GT(served.load(), kReaders);  // readers actually overlapped writes
}

// ---- checkpoint → serve equivalence --------------------------------------

struct ServeEqCase {
  std::size_t i, j, k;
};

class CheckpointServeEquivalence
    : public ::testing::TestWithParam<ServeEqCase> {};

// Served scores must be bitwise equal to infer_into run inline against
// the same checkpoint: an independently constructed model (weights
// copied into flat storage, exactly the trainer's restore path) over an
// independently restored MemoryState, batched by the same builder
// contract. Covers every memory copy the checkpoint carries.
TEST_P(CheckpointServeEquivalence, ServedScoresMatchInlineInference) {
  const auto [i, j, k] = GetParam();
  TemporalGraph g = serving_graph();
  TrainingConfig cfg = serving_training_config();
  cfg.parallel.i = i;
  cfg.parallel.j = j;
  cfg.parallel.k = k;
  cfg.recovery.checkpoint_dir =
      fresh_dir("eq_" + std::to_string(i) + std::to_string(j) +
                std::to_string(k));
  cfg.recovery.checkpoint_every = 3;
  (void)train_distributed(cfg, g, nullptr);

  auto snap = serving::load_latest_servable(cfg.recovery.checkpoint_dir);
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->states.size(), k);

  ModelServer server(cfg.model, ServingConfig{}, g);
  server.install_snapshot(snap);
  auto scorer = server.make_scorer();

  // Inline reference: the trainer's restore recipe.
  Rng rng(cfg.seed);
  TGNModel ref_model(cfg.model, g, nullptr, rng);
  ref_model.freeze_flat_storage();
  ASSERT_EQ(snap->weights.size(), ref_model.flat_values().size());
  std::copy(snap->weights.begin(), snap->weights.end(),
            ref_model.flat_values().begin());
  NeighborSampler ref_sampler(g, cfg.model.num_neighbors);
  MiniBatch ref_mb;
  MemorySlice ref_slice;
  TGNModel::StepResult ref_step;

  auto expect_inline_bits = [&](std::uint32_t copy, std::size_t begin,
                                std::size_t end) {
    const ScoreRequest req = request_over_events(g, begin, end, copy);
    ScoreResponse resp;
    scorer->score(req, resp);
    ASSERT_EQ(resp.iteration, snap->iteration);
    ASSERT_EQ(resp.scores.size(), req.size());

    serving::build_score_batch(ref_sampler, req, ref_mb);
    snap->states[copy].read_into(ref_mb.unique_nodes, ref_slice);
    ref_model.infer_into(ref_mb, ref_slice, nullptr, ref_step);
    for (std::size_t x = 0; x < req.size(); ++x)
      ASSERT_EQ(resp.scores[x], ref_step.pos_scores.data()[x])
          << "copy " << copy << " events [" << begin << ", " << end
          << ") edge " << x;
  };
  // Eval-range edges (the 70/15/15 split puts [1120, 1600) past
  // training), over every memory copy: several batch shapes, then the
  // whole range cut into 1-, 2-, 4- and 8-edge requests, whose few GRU
  // rows inline share a product with no other row.
  const std::size_t shapes[][2] = {{1120, 1160}, {1300, 1316}, {1500, 1556}};
  for (std::uint32_t copy = 0; copy < k; ++copy) {
    for (const auto& sh : shapes)
      ASSERT_NO_FATAL_FAILURE(expect_inline_bits(copy, sh[0], sh[1]));
    for (const std::size_t edges : {1, 2, 4, 8})
      for (std::size_t e = 1120; e < 1600; e += edges)
        ASSERT_NO_FATAL_FAILURE(expect_inline_bits(copy, e, e + edges));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CheckpointServeEquivalence,
                         ::testing::Values(ServeEqCase{1, 1, 1},
                                           ServeEqCase{2, 1, 1},
                                           ServeEqCase{1, 2, 1},
                                           ServeEqCase{1, 1, 2},
                                           ServeEqCase{2, 2, 1},
                                           ServeEqCase{1, 2, 2}));

// ---- socket front end ----------------------------------------------------

TEST(ScoreServerSocket, UnixRoundTripMatchesInProcessScoring) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ModelServer server(mc, ServingConfig{}, g);
  server.install_snapshot(
      sentinel_snapshot(mc, g, probe_weights(mc, g, 5), 2));

  ScoreServerConfig ssc;
  ssc.unix_path = fresh_socket("score");
  ssc.reader_threads = 2;
  ScoreServer front(server, ssc);

  const auto deadline =
      dist::deadline_after(std::chrono::milliseconds(10'000));
  ScoreClient client = ScoreClient::connect_unix(ssc.unix_path, deadline);

  auto local = server.make_scorer();
  ScoreResponse expected, resp;
  for (std::uint64_t q = 0; q < 8; ++q) {
    ScoreRequest req =
        request_over_events(g, 50 * q, 50 * q + 20 + q, 0, /*id=*/q + 10);
    local->score(req, expected);
    client.score(req, resp, deadline);
    EXPECT_EQ(resp.id, req.id);
    EXPECT_EQ(resp.version, expected.version);
    EXPECT_EQ(resp.iteration, expected.iteration);
    ASSERT_EQ(resp.scores, expected.scores) << "request " << q;
  }
  EXPECT_EQ(front.requests_served(), 8u);

  // A serving error crosses the wire typed; the connection closes, and
  // a fresh connection serves again.
  ScoreRequest bad = request_over_events(g, 0, 4, /*copy=*/3);
  try {
    client.score(bad, resp, deadline);
    FAIL() << "expected ServingError";
  } catch (const ServingError& e) {
    EXPECT_EQ(e.code(), ServingErrc::kWrongCopy);
  }
  ScoreClient again = ScoreClient::connect_unix(ssc.unix_path, deadline);
  ScoreRequest ok = request_over_events(g, 0, 4);
  again.score(ok, resp, deadline);
  EXPECT_EQ(resp.scores.size(), 4u);
  EXPECT_EQ(front.errors(), 1u);

  front.stop();
  EXPECT_FALSE(fs::exists(ssc.unix_path));  // sweep-clean teardown
}

TEST(ScoreServerSocket, TcpRoundTrip) {
  TemporalGraph g = serving_graph();
  const ModelConfig mc = serving_training_config().model;
  ModelServer server(mc, ServingConfig{}, g);
  server.install_snapshot(
      sentinel_snapshot(mc, g, probe_weights(mc, g, 5), 1));

  ScoreServerConfig ssc;  // empty unix_path → TCP, ephemeral port
  ssc.reader_threads = 1;
  ScoreServer front(server, ssc);
  ASSERT_NE(front.port(), 0);

  const auto deadline =
      dist::deadline_after(std::chrono::milliseconds(10'000));
  ScoreClient client =
      ScoreClient::connect_tcp("127.0.0.1", front.port(), deadline);

  auto local = server.make_scorer();
  ScoreRequest req = request_over_events(g, 400, 440, 0, 77);
  ScoreResponse expected, resp;
  local->score(req, expected);
  client.score(req, resp, deadline);
  EXPECT_EQ(resp.id, 77u);
  ASSERT_EQ(resp.scores, expected.scores);
}

TEST(ScoreServerSocket, PollerInstallsNewestCheckpoint) {
  TemporalGraph g = serving_graph();
  TrainingConfig cfg = serving_training_config();
  cfg.recovery.checkpoint_dir = fresh_dir("poll");
  cfg.recovery.checkpoint_every = 3;
  (void)train_distributed(cfg, g, nullptr);
  const std::vector<SnapshotRef> refs =
      list_snapshots(cfg.recovery.checkpoint_dir);
  ASSERT_FALSE(refs.empty());

  ServingConfig sc;
  sc.poll_ms = 5;
  ModelServer server(cfg.model, sc, g);
  EXPECT_EQ(server.version(), 0u);
  server.start_poller(cfg.recovery.checkpoint_dir);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.version() == 0 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.stop_poller();
  ASSERT_EQ(server.version(), 1u);
  EXPECT_EQ(server.iteration(), refs.front().iteration);

  // The published snapshot actually serves.
  auto scorer = server.make_scorer();
  ScoreResponse resp;
  scorer->score(request_over_events(g, 0, 8), resp);
  EXPECT_EQ(resp.iteration, refs.front().iteration);
}

}  // namespace
}  // namespace disttgl
