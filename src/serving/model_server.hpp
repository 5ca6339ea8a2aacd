// ModelServer: versioned snapshot publication + lock-free batched
// scoring for the read-only serving tier.
//
// Publication protocol (tinySTM-style validated reads over a slot ring):
//
//   - A fixed ring of S slots each holds {snapshot, version, reader
//     count}. `version_` names the newest published version; version
//     v lives in slot v % S, and 0 means "nothing published yet".
//   - Readers pin optimistically: load `version_` → bump the slot's
//     reader count → re-check the slot still carries that version. A
//     torn window (the writer recycled the slot between the two steps)
//     is detected, counted, and retried — never served. The version is
//     validated again after scoring as defense in depth; with S ≥ 2 the
//     writer would have to lap the entire ring past a pinned reader for
//     the post-check to matter, and a pinned slot cannot be recycled at
//     all (the writer drains it first).
//   - The writer (install_snapshot, serialized by a mutex) first builds
//     the snapshot's post-update memory (below) off to the side, then
//     claims slot (v+1) % S, marks it unpublished (version ← 0, the
//     store half of the store/load fence against the reader's pin),
//     waits for its reader count to drain, swaps the snapshot and its
//     tables in, then publishes: slot version ← v+1, `version_` ← v+1.
//     Readers arriving mid-swap either see the old `version_` (old
//     slot, still valid) or the new one; nobody ever observes a
//     half-installed snapshot.
//
// A snapshot's weights and memory never change once installed, so its
// pending mail is applied once, at install: the constructor's probe
// model, kept as the installer and touched only under the install
// mutex, runs UPDT over each memory copy (TGNModel::updated_memory_into)
// into a memory-only table stored beside the snapshot. Scoring gathers
// from that table, finds no mail and runs no GRU, and its scores equal
// inline infer_into over the raw state bit for bit.
//
// Scoring runs through per-thread Scorer contexts — each owns a private
// TGNModel (the Scratch makes a model stateful), a recycled MiniBatch /
// MemorySlice / StepResult, and rebinds its parameters onto the pinned
// snapshot's weight buffer only when the version actually moved. After
// warm-up a score() call is allocation-free end to end
// (tests/test_serving_alloc pins this).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/tgn_model.hpp"
#include "util/rng.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "serving/score_wire.hpp"
#include "serving/serving_error.hpp"
#include "serving/snapshot.hpp"

namespace disttgl::serving {

struct ServingConfig {
  std::size_t max_batch = 1024;  // per-request positive cap (≤ wire cap)
  std::size_t slots = 4;         // publication ring size (≥ 2)
  std::uint64_t drain_timeout_ms = 10'000;  // install's wait for readers
  std::uint64_t poll_ms = 50;    // checkpoint-directory poll interval
  std::uint64_t seed = 1;        // scorer model construction seed
};

// A score request as a MiniBatch: the requested (src, dst, ts) edges as
// positives, zero negatives, one variant, then the builder's own
// sample_roots_into — so a served batch is bit-identical to what the
// trainer's builder produces for the same edges. Shared with the
// equivalence tests, which call it to build the inline reference batch.
// Capacity-preserving.
void build_score_batch(const NeighborSampler& sampler, const ScoreRequest& req,
                       MiniBatch& mb);

class ModelServer {
 public:
  // `graph` supplies the neighbor windows (and edge features) scores
  // attend over; `static_memory`, when the config has static_dim > 0,
  // must have one row per node. Both must outlive the server.
  ModelServer(const ModelConfig& model_cfg, const ServingConfig& cfg,
              const TemporalGraph& graph,
              const Matrix* static_memory = nullptr);
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  // Validates geometry against the live model (weight count, node
  // count, memory/mail dims, ≥ 1 memory copy — kShapeMismatch
  // otherwise), builds the snapshot's post-update memory, then
  // publishes through the slot ring. Throws
  // kDrainTimeout if the claimed slot's readers do not drain in time
  // (the ring is left as it was). Returns the new version.
  std::uint64_t install_snapshot(std::shared_ptr<const ServingSnapshot> snap);

  // Newest published version (0 ⇔ nothing installed) / its iteration.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  std::uint64_t iteration() const {
    return iteration_.load(std::memory_order_acquire);
  }
  std::uint64_t installs() const {
    return installs_.load(std::memory_order_relaxed);
  }

  // Background poller: watches a checkpoint directory and installs any
  // committed snapshot newer than the published iteration. Load/install
  // failures are counted and retried next tick, never fatal.
  void start_poller(const std::string& checkpoint_dir);
  void stop_poller();
  std::uint64_t poll_failures() const {
    return poll_failures_.load(std::memory_order_relaxed);
  }

  struct ScorerStats {
    std::uint64_t requests = 0;      // successfully scored batches
    std::uint64_t torn_retries = 0;  // pin validations that failed
    std::uint64_t rebinds = 0;       // weight rebinds (version moved)
  };

  // One reader thread's private scoring context. Create one per thread
  // (make_scorer); score() may run concurrently with other scorers and
  // with install_snapshot.
  class Scorer {
   public:
    // Scores req against the newest published snapshot; fills resp
    // (capacity-preserving) with one logit per (src, dst, ts) edge plus
    // the snapshot version/iteration it was computed from. Throws
    // ServingError: kNoSnapshot before the first install, kBadRequest
    // for a malformed batch, kWrongCopy for a missing memory copy.
    void score(const ScoreRequest& req, ScoreResponse& resp);

    const ScorerStats& stats() const { return stats_; }

   private:
    friend class ModelServer;
    Scorer(ModelServer& server, std::uint64_t seed);

    ModelServer* server_;
    Rng rng_;  // declared before model_: the ctor consumes it
    TGNModel model_;
    MiniBatch mb_;
    MemorySlice slice_;
    TGNModel::StepResult step_;
    std::uint64_t bound_version_ = 0;
    ScorerStats stats_;
  };

  // Heap-allocated so a scorer can move to its owning thread; seeds
  // derive from cfg.seed + an internal counter (seeding only affects
  // the throwaway initial weights — every score rebinds to a snapshot).
  std::unique_ptr<Scorer> make_scorer();

  const ServingConfig& config() const { return cfg_; }
  const TemporalGraph& graph() const { return *graph_; }
  const NeighborSampler& sampler() const { return sampler_; }

 private:
  struct Slot {
    std::shared_ptr<const ServingSnapshot> snap;
    std::vector<MemoryState> updated;  // snap's post-UPDT memory, per copy
    std::atomic<std::uint64_t> version{0};  // 0 ⇔ unpublished
    std::atomic<std::uint32_t> readers{0};
  };

  void poll_loop(std::string dir);

  ModelConfig model_cfg_;
  ServingConfig cfg_;
  const TemporalGraph* graph_;
  const Matrix* static_memory_;
  NeighborSampler sampler_;
  std::size_t param_count_ = 0;   // probed from a live model at ctor
  std::size_t mail_raw_dim_ = 0;  // ditto — snapshot mail_dim must match

  // Under install_mu_ only: the probe model, kept to build each
  // snapshot's tables.
  std::unique_ptr<TGNModel> installer_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> iteration_{0};
  std::atomic<std::uint64_t> installs_{0};
  std::mutex install_mu_;  // serializes writers; readers never take it

  std::atomic<std::uint64_t> scorer_seq_{0};

  std::thread poller_;
  std::mutex poll_mu_;
  std::condition_variable poll_cv_;
  bool poll_stop_ = false;
  std::atomic<std::uint64_t> poll_failures_{0};
};

}  // namespace disttgl::serving
