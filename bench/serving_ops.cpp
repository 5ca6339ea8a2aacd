// Serving-tier load harness — the trajectory behind BENCH_serving.json
// (bench/run_serving.sh appends one labelled entry per invocation;
// docs/BENCHMARKS.md).
//
// Two phases:
//
//   score   Closed-loop client/server latency over the framed score
//           protocol: a ScoreServer with R reader threads serves R
//           clients, each replaying pre-built batches over its own
//           connection; per-request latency is sampled client-side.
//           The sweep runs R = 1, 2, 4, 8 so the trajectory shows how
//           the lock-free slot ring scales with readers.
//   churn   The same scoring loop in-process (no sockets) while a
//           writer thread installs fresh snapshots continuously — the
//           read path's cost under version churn, plus the observed
//           torn-retry count (the validated-read seam actually firing).
//
//   bench_serving_ops [--transport=unix|tcp] [--batch=B] [--iters=N]
//                     [--max-threads=R] [--churn-installs=M]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "datagen/generator.hpp"
#include "nn/module.hpp"
#include "serving/model_server.hpp"
#include "serving/score_server.hpp"
#include "util/timer.hpp"

namespace disttgl {
namespace {

std::size_t arg_or(int argc, char** argv, const char* name,
                   std::size_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0)
      return static_cast<std::size_t>(std::stoull(arg.substr(prefix.size())));
  }
  return fallback;
}

std::string str_arg_or(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

struct Percentiles {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Percentiles percentiles(std::vector<double>& lat_us) {
  Percentiles p;
  if (lat_us.empty()) return p;
  std::sort(lat_us.begin(), lat_us.end());
  p.p50_us = lat_us[lat_us.size() / 2];
  p.p99_us = lat_us[(lat_us.size() * 99) / 100];
  return p;
}

struct Fixture {
  TemporalGraph graph;
  ModelConfig cfg;
  serving::ModelServer server;

  explicit Fixture(std::size_t max_threads)
      : graph([] {
          datagen::SynthSpec spec;
          spec.num_src = 100;
          spec.num_dst = 50;
          spec.num_events = 8000;
          spec.edge_feat_dim = 4;
          spec.seed = 23;
          return datagen::generate(spec);
        }()),
        cfg([] {
          ModelConfig c;
          c.mem_dim = 32;
          c.time_dim = 16;
          c.attn_dim = 32;
          c.num_heads = 2;
          c.emb_dim = 32;
          c.num_neighbors = 8;
          c.head_hidden = 32;
          return c;
        }()),
        server(cfg, [max_threads] {
          serving::ServingConfig sc;
          sc.slots = std::max<std::size_t>(4, max_threads);
          return sc;
        }(), graph) {
    server.install_snapshot(make_snapshot(1));
  }

  // Fresh-model weights perturbed per iteration; zeroed node memory
  // with a seeded pending mail on every node, so each install runs UPDT
  // over all of them as a trained snapshot's does. Contents are
  // irrelevant to the cost being measured — only the geometry, the
  // pending mail, and that successive installs differ matter.
  std::shared_ptr<serving::ServingSnapshot> make_snapshot(
      std::size_t iter) const {
    Rng rng(101);
    TGNModel probe(cfg, graph, nullptr, rng);
    auto snap = std::make_shared<serving::ServingSnapshot>();
    snap->iteration = iter;
    nn::flatten_values(probe.cached_parameters(), snap->weights);
    for (float& w : snap->weights)
      w += 1e-4f * static_cast<float>(iter % 17);
    const std::size_t nodes = graph.num_nodes();
    snap->states.emplace_back(nodes, cfg.mem_dim, probe.mail_raw_dim());
    MemoryWrite mail;
    mail.nodes.resize(nodes);
    std::iota(mail.nodes.begin(), mail.nodes.end(), NodeId{0});
    mail.mem = Matrix(nodes, cfg.mem_dim, 0.0f);
    mail.mem_ts.assign(nodes, 0.0f);
    mail.mail = Matrix(nodes, probe.mail_raw_dim());
    Rng mail_rng(202);
    for (std::size_t i = 0; i < mail.mail.size(); ++i)
      mail.mail.data()[i] = static_cast<float>(mail_rng.normal());
    const float last_ts =
        graph.event(static_cast<EdgeId>(graph.num_events() - 1)).ts;
    for (std::size_t v = 0; v < nodes; ++v)
      mail.mail_ts.push_back(
          static_cast<float>(mail_rng.uniform(0.0, last_ts)));
    snap->states.back().write(mail);
    return snap;
  }

  // Batches replay contiguous event spans at staggered offsets so each
  // client's neighbor sampling touches a different working set.
  serving::ScoreRequest make_request(std::size_t batch,
                                     std::size_t offset) const {
    serving::ScoreRequest req;
    req.id = offset;
    const std::size_t begin = offset % (graph.num_events() - batch);
    for (std::size_t i = begin; i < begin + batch; ++i) {
      const TemporalEdge& e = graph.event(static_cast<EdgeId>(i));
      req.src.push_back(e.src);
      req.dst.push_back(e.dst);
      req.ts.push_back(e.ts);
    }
    return req;
  }
};

struct LoadResult {
  std::vector<double> lat_us;
  double wall_s = 0.0;
  std::size_t requests = 0;
};

// R closed-loop clients against a ScoreServer with R reader threads.
LoadResult run_socket_load(Fixture& fx, const std::string& transport,
                           std::size_t threads, std::size_t batch,
                           std::size_t iters) {
  serving::ScoreServerConfig sc;
  sc.reader_threads = threads;
  if (transport == "unix")
    sc.unix_path = "/tmp/disttgl.bench_serving." + std::to_string(::getpid()) +
                   "." + std::to_string(threads) + ".sock";
  serving::ScoreServer server(fx.server, sc);

  const auto deadline = [] {
    return dist::deadline_after(std::chrono::milliseconds(30'000));
  };
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::thread> clients;
  WallTimer wall;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      serving::ScoreClient client =
          transport == "unix"
              ? serving::ScoreClient::connect_unix(sc.unix_path, deadline())
              : serving::ScoreClient::connect_tcp("127.0.0.1", server.port(),
                                                  deadline());
      // Four request shapes per client, cycled, so recycled buffers see
      // a realistic mix; pre-built so the loop times the wire + score.
      std::vector<serving::ScoreRequest> reqs;
      for (std::size_t v = 0; v < 4; ++v)
        reqs.push_back(fx.make_request(batch, t * 997 + v * 131));
      serving::ScoreResponse resp;
      lat[t].reserve(iters);
      for (std::size_t it = 0; it < iters; ++it) {
        WallTimer timer;
        client.score(reqs[it % reqs.size()], resp, deadline());
        lat[t].push_back(timer.seconds() * 1e6);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  LoadResult out;
  out.wall_s = wall.seconds();
  for (std::vector<double>& l : lat) {
    out.requests += l.size();
    out.lat_us.insert(out.lat_us.end(), l.begin(), l.end());
  }
  server.stop();
  return out;
}

}  // namespace
}  // namespace disttgl

int main(int argc, char** argv) {
  using namespace disttgl;

  const std::string transport = str_arg_or(argc, argv, "transport", "unix");
  const std::size_t batch = arg_or(argc, argv, "batch", 64);
  const std::size_t iters = arg_or(argc, argv, "iters", 200);
  const std::size_t max_threads = arg_or(argc, argv, "max-threads", 8);
  const std::size_t churn_installs = arg_or(argc, argv, "churn-installs", 50);

  bench::header(
      "serving_ops (BENCH_serving.json trajectory)",
      "read-only serving scales with reader threads against the "
      "lock-free snapshot ring; installs churn versions without torn reads");

  Fixture fx(max_threads);

  bench::section("closed-loop score latency (" + transport + " transport)");
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    LoadResult r = run_socket_load(fx, transport, threads, batch, iters);
    const Percentiles p = percentiles(r.lat_us);
    const double qps = static_cast<double>(r.requests) / r.wall_s;
    std::printf(
        "serving_ops op=score transport=%s threads=%zu clients=%zu "
        "batch=%zu iters=%zu p50_us=%.1f p99_us=%.1f qps=%.1f\n",
        transport.c_str(), threads, threads, batch, iters, p.p50_us, p.p99_us,
        qps);
  }

  bench::section("scoring under version churn (in-process)");
  {
    // Writer installs snapshots as fast as the drain allows while
    // max_threads scorers run the full request loop in-process; the
    // torn-retry counters expose how often the validated-read seam
    // actually re-ran a request.
    const std::size_t threads = max_threads;
    std::vector<std::unique_ptr<serving::ModelServer::Scorer>> scorers;
    for (std::size_t t = 0; t < threads; ++t)
      scorers.push_back(fx.server.make_scorer());

    std::vector<std::vector<double>> lat(threads);
    const std::size_t installs_before = fx.server.installs();
    std::vector<std::thread> workers;
    WallTimer wall;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        serving::ScoreRequest req = fx.make_request(batch, t * 997);
        serving::ScoreResponse resp;
        lat[t].reserve(iters);
        for (std::size_t it = 0; it < iters; ++it) {
          WallTimer timer;
          scorers[t]->score(req, resp);
          lat[t].push_back(timer.seconds() * 1e6);
        }
      });
    }
    std::thread writer([&] {
      for (std::size_t i = 0; i < churn_installs; ++i)
        fx.server.install_snapshot(fx.make_snapshot(100 + i));
    });
    for (std::thread& w : workers) w.join();
    writer.join();
    const double wall_s = wall.seconds();

    std::vector<double> all;
    std::size_t requests = 0;
    std::uint64_t torn = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      all.insert(all.end(), lat[t].begin(), lat[t].end());
      requests += lat[t].size();
      torn += scorers[t]->stats().torn_retries;
    }
    const Percentiles p = percentiles(all);
    std::printf(
        "serving_ops op=churn threads=%zu batch=%zu iters=%zu installs=%zu "
        "torn_retries=%zu p50_us=%.1f p99_us=%.1f qps=%.1f\n",
        threads, batch, iters, fx.server.installs() - installs_before,
        static_cast<std::size_t>(torn), p.p50_us, p.p99_us,
        static_cast<double>(requests) / wall_s);
  }
  return 0;
}
