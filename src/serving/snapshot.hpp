// ServingSnapshot: one immutable, self-contained model state for the
// read-only serving tier.
//
// A training checkpoint (core/checkpoint.hpp) already carries everything
// an online scorer needs — the flat weight vector plus every memory
// copy's full node-memory/mailbox state, which for an M-TGNN *is* part
// of the model at that point in the event stream. Loading binds them
// into one value: weights in Module::flat_values order (reader models
// rebind their parameters onto this buffer zero-copy) and one blocked
// MemoryState per memory-parallel copy, restored row-for-row.
//
// Once constructed a snapshot is never mutated; the ModelServer
// publishes it through an atomic version seam and many reader threads
// score against it concurrently without locks. Rank shards (loss
// subtotals, in-flight slices) are training-private and deliberately
// not read — serving only needs the post-round model state. The core
// shard also carries Adam's moments, which the load reads (and checks)
// with the weights and then drops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "memory/memory_state.hpp"

namespace disttgl::serving {

struct ServingSnapshot {
  std::uint64_t iteration = 0;    // training iterations completed
  std::uint64_t fingerprint = 0;  // config fingerprint of the producing run
  std::uint64_t world = 0;        // trainer count that produced it
  std::vector<float> weights;     // flat, Module::flat_values order
  std::vector<MemoryState> states;  // one per memory-parallel copy

  std::size_t mem_copies() const { return states.size(); }
};

// Reads `<stem>.commit`, then `<stem>.core` and every `<stem>.mem<m>`
// against it, into an immutable snapshot. Throws CheckpointError on any
// defect (missing shard, corruption, a shard from another set, rows
// that disagree with their declared geometry).
std::shared_ptr<const ServingSnapshot> load_snapshot(const std::string& stem);

// Newest committed snapshot set in `dir` whose *serving* shards (commit
// + core + every mem shard) load cleanly; a torn or corrupt newest set
// falls back to the previous one, mirroring find_latest_snapshot.
// Returns nullptr when nothing servable exists.
std::shared_ptr<const ServingSnapshot> load_latest_servable(
    const std::string& dir);

}  // namespace disttgl::serving
