#include "serving/model_server.hpp"

#include <chrono>
#include <cstring>

#include "util/check.hpp"

namespace disttgl::serving {

void build_score_batch(const NeighborSampler& sampler, const ScoreRequest& req,
                       MiniBatch& mb) {
  const std::size_t n = req.size();
  mb.batch_idx = 0;
  mb.num_neg = 0;
  mb.neg_variants = 1;  // run() iterates variants; variant 0 has 0 negs
  mb.events.clear();
  mb.src.clear();
  mb.dst.clear();
  mb.ts.clear();
  mb.events.reserve(n);
  mb.src.reserve(n);
  mb.dst.reserve(n);
  mb.ts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Served edges are hypothetical — they carry no event id. The id is
    // only consumed by the write-back path, which inference with a null
    // write never takes.
    mb.events.push_back(static_cast<EdgeId>(i));
    mb.src.push_back(req.src[i]);
    mb.dst.push_back(req.dst[i]);
    mb.ts.push_back(req.ts[i]);
  }
  mb.neg_dst.clear();
  sample_roots_into(sampler, mb);
}

ModelServer::ModelServer(const ModelConfig& model_cfg, const ServingConfig& cfg,
                         const TemporalGraph& graph,
                         const Matrix* static_memory)
    : model_cfg_(model_cfg),
      cfg_(cfg),
      graph_(&graph),
      static_memory_(static_memory),
      sampler_(graph, model_cfg.num_neighbors) {
  DT_CHECK_GE(cfg_.slots, 2u);
  if (cfg_.max_batch > kMaxScoreBatch) cfg_.max_batch = kMaxScoreBatch;
  // Probe a model for the geometry every snapshot must match; it stays
  // as the installer, whose weights each install rebinds.
  Rng rng(cfg_.seed);
  installer_ =
      std::make_unique<TGNModel>(model_cfg_, *graph_, static_memory_, rng);
  if (installer_->task() != TGNModel::Task::kLinkPrediction)
    throw_serving(ServingErrc::kShapeMismatch,
                  "serving supports link-prediction models only");
  param_count_ = installer_->num_parameters();
  mail_raw_dim_ = installer_->mail_raw_dim();
  slots_.reserve(cfg_.slots);
  for (std::size_t s = 0; s < cfg_.slots; ++s)
    slots_.push_back(std::make_unique<Slot>());
}

ModelServer::~ModelServer() { stop_poller(); }

std::uint64_t ModelServer::install_snapshot(
    std::shared_ptr<const ServingSnapshot> snap) {
  if (!snap) throw_serving(ServingErrc::kShapeMismatch, "null snapshot");
  if (snap->weights.size() != param_count_)
    throw_serving(ServingErrc::kShapeMismatch,
                  "snapshot carries " + std::to_string(snap->weights.size()) +
                      " weights, model has " + std::to_string(param_count_));
  if (snap->states.empty())
    throw_serving(ServingErrc::kShapeMismatch, "snapshot has no memory copy");
  for (const MemoryState& st : snap->states) {
    if (st.num_nodes() != graph_->num_nodes() ||
        st.mem_dim() != model_cfg_.mem_dim || st.mail_dim() != mail_raw_dim_)
      throw_serving(ServingErrc::kShapeMismatch,
                    "memory copy geometry (" + std::to_string(st.num_nodes()) +
                        " nodes, mem " + std::to_string(st.mem_dim()) +
                        ", mail " + std::to_string(st.mail_dim()) +
                        ") does not fit the serving model");
  }

  std::lock_guard<std::mutex> lock(install_mu_);
  // The tables first, while every slot stays servable: the drain window
  // below does not grow with them.
  installer_->bind_external_values(snap->weights.data());
  std::vector<MemoryState> updated(snap->states.size());
  for (std::size_t c = 0; c < updated.size(); ++c)
    installer_->updated_memory_into(snap->states[c], updated[c]);

  const std::uint64_t nv = version_.load(std::memory_order_acquire) + 1;
  Slot& slot = *slots_[nv % cfg_.slots];
  const std::uint64_t prev = slot.version.load(std::memory_order_acquire);

  // Unpublish the slot. seq_cst pairs with the reader's seq_cst
  // fetch_add + version load: after this store, a reader that pins the
  // slot will fail validation; a reader already pinned is visible in
  // `readers` below.
  slot.version.store(0, std::memory_order_seq_cst);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(cfg_.drain_timeout_ms);
  while (slot.readers.load(std::memory_order_acquire) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // Put the slot back the way it was — the ring stays consistent
      // and the old version (if this slot held one) is servable again.
      slot.version.store(prev, std::memory_order_seq_cst);
      throw_serving(ServingErrc::kDrainTimeout,
                    "slot " + std::to_string(nv % cfg_.slots) +
                        " still pinned after " +
                        std::to_string(cfg_.drain_timeout_ms) + " ms");
    }
    std::this_thread::yield();
  }

  slot.snap = std::move(snap);
  slot.updated = std::move(updated);
  iteration_.store(slot.snap->iteration, std::memory_order_release);
  slot.version.store(nv, std::memory_order_seq_cst);
  version_.store(nv, std::memory_order_seq_cst);
  installs_.fetch_add(1, std::memory_order_relaxed);
  return nv;
}

// ---- Scorer --------------------------------------------------------------

namespace {

// Unpins a slot on every exit path (torn-retry `continue`, error throw,
// success) so a reader can never wedge the writer's drain.
class PinGuard {
 public:
  explicit PinGuard(std::atomic<std::uint32_t>& readers) : readers_(&readers) {
    readers_->fetch_add(1, std::memory_order_seq_cst);
  }
  ~PinGuard() {
    if (readers_) readers_->fetch_sub(1, std::memory_order_release);
  }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  std::atomic<std::uint32_t>* readers_;
};

}  // namespace

ModelServer::Scorer::Scorer(ModelServer& server, std::uint64_t seed)
    : server_(&server),
      rng_(seed),
      model_(server.model_cfg_, *server.graph_, server.static_memory_, rng_) {}

std::unique_ptr<ModelServer::Scorer> ModelServer::make_scorer() {
  const std::uint64_t seq = scorer_seq_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Scorer>(new Scorer(*this, cfg_.seed + 1 + seq));
}

void ModelServer::Scorer::score(const ScoreRequest& req, ScoreResponse& resp) {
  const std::size_t n = req.size();
  if (n == 0) throw_serving(ServingErrc::kBadRequest, "empty batch");
  if (n > server_->cfg_.max_batch)
    throw_serving(ServingErrc::kBadRequest,
                  "batch " + std::to_string(n) + " exceeds max_batch " +
                      std::to_string(server_->cfg_.max_batch));
  if (req.dst.size() != n || req.ts.size() != n)
    throw_serving(ServingErrc::kBadRequest, "src/dst/ts lengths disagree");
  const std::size_t num_nodes = server_->graph_->num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    if (req.src[i] >= num_nodes || req.dst[i] >= num_nodes)
      throw_serving(ServingErrc::kBadRequest,
                    "node id out of range at row " + std::to_string(i));
  }

  const std::size_t S = server_->cfg_.slots;
  for (;;) {
    const std::uint64_t v = server_->version_.load(std::memory_order_seq_cst);
    if (v == 0)
      throw_serving(ServingErrc::kNoSnapshot, "no snapshot installed yet");
    Slot& slot = *server_->slots_[v % S];
    PinGuard pin(slot.readers);
    if (slot.version.load(std::memory_order_seq_cst) != v) {
      // Torn window: the writer recycled this slot between our version
      // load and the pin. Nothing was read — retry against the ring.
      ++stats_.torn_retries;
      continue;
    }
    // Pinned and validated: `snap` and its tables cannot be swapped
    // until we unpin.
    const ServingSnapshot& snap = *slot.snap;
    if (req.copy >= snap.mem_copies())
      throw_serving(ServingErrc::kWrongCopy,
                    "copy " + std::to_string(req.copy) + " of " +
                        std::to_string(snap.mem_copies()));

    if (bound_version_ != v) {
      model_.bind_external_values(snap.weights.data());
      bound_version_ = v;
      ++stats_.rebinds;
    }

    build_score_batch(server_->sampler_, req, mb_);
    slot.updated[req.copy].read_into(mb_.unique_nodes, slice_);
    model_.infer_into(mb_, slice_, nullptr, step_);

    // Defense in depth: with the slot pinned this cannot fail (the
    // writer drains pinned slots before recycling), but a validated
    // read costs one atomic load and turns any future protocol
    // regression into a counted retry instead of a torn response.
    if (slot.version.load(std::memory_order_seq_cst) != v) {
      ++stats_.torn_retries;
      continue;
    }

    resp.id = req.id;
    resp.version = v;
    resp.iteration = snap.iteration;
    resp.scores.resize(n);
    std::memcpy(resp.scores.data(), step_.pos_scores.data(),
                n * sizeof(float));
    ++stats_.requests;
    return;
  }
}

// ---- poller --------------------------------------------------------------

void ModelServer::start_poller(const std::string& checkpoint_dir) {
  stop_poller();
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    poll_stop_ = false;
  }
  poller_ = std::thread([this, checkpoint_dir] { poll_loop(checkpoint_dir); });
}

void ModelServer::stop_poller() {
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    poll_stop_ = true;
  }
  poll_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
}

void ModelServer::poll_loop(std::string dir) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(poll_mu_);
      poll_cv_.wait_for(lock, std::chrono::milliseconds(cfg_.poll_ms),
                        [this] { return poll_stop_; });
      if (poll_stop_) return;
    }
    try {
      // Cheap directory scan first; only deserialize when something
      // newer than the published iteration has committed.
      const std::vector<SnapshotRef> refs = list_snapshots(dir);
      if (refs.empty() || refs.front().iteration <= iteration()) continue;
      auto snap = load_latest_servable(dir);
      if (snap && (version() == 0 || snap->iteration > iteration()))
        install_snapshot(std::move(snap));
    } catch (const std::exception&) {
      // Torn set mid-write, drain timeout, transient FS error — count
      // and retry next tick.
      poll_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace disttgl::serving
