// Checkpointing: the sharded full-training-state snapshots behind
// elastic recovery, which are also what the serving tier deploys.
//
// M-TGNN inference needs more than the weights — the node memory and
// mailbox ARE the model's state for a given point in the event stream,
// so a deployable snapshot carries both (the core and mem shards).
// Recovery needs more still: the optimizer moments, and per rank the
// loss subtotals and any in-flight memory slice, so a restarted run
// replays the exact update stream.
//
// Every checkpoint file is one self-verifying container:
//
//   u32 magic "DTGL" | u32 version (4) | u32 kind |
//   u64 payload_len  | u32 CRC32C checksum | payload
//
// with the payload built/parsed by the wire codecs and checksummed by
// dist::wire_checksum (wire.hpp), so the corruption story is the same as
// the fabric control plane's: a torn write is kTruncated, a flipped bit
// is kBadChecksum, never UB or a silent bad load. Older containers are
// rejected as kBadVersion: version 2 carried an FNV-1a checksum, and
// version 3 stored Adam's moments in every rank shard. Integers are
// little-endian (byte-by-byte), floats are bit-cast — identical encoding
// on any host.
//
// Writes are atomic: payload → `<path>.tmp`, fsync, rename over the
// final name, fsync the directory. A reader never observes a
// half-written file under its final name; a crash leaves at most a
// `*.tmp` orphan (swept by tools/sweep_shm.py and retain_snapshots).
//
// A full snapshot at iteration T is a shard SET under one stem
// `<dir>/ckpt_<T>`:
//
//   <stem>.core     rank 0: fingerprint, iteration, geometry, weights,
//                   Adam (t, m, v) — replicated state, stored once
//   <stem>.mem<m>   group host m: one MemoryState copy, full rows
//   <stem>.rank<r>  every rank: loss subtotals, events, and the
//                   in-flight MemorySlice when r was mid version-chain
//   <stem>.commit   rank 0, written LAST — the atomic commit point; a
//                   snapshot without its commit marker does not exist
//
// Every shard carries the config fingerprint + iteration, and every
// reader but the commit's takes the commit marker: a mixed or stale set
// is rejected shard-by-shard against it (kFingerprintMismatch), on every
// path that reads one, and find_latest_snapshot falls back to the
// previous committed set when the newest fails validation. Memory rows,
// a mem shard's full copy and a rank shard's in-flight slice alike, are
// one MemorySlice written and read by one codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "memory/memory_state.hpp"

namespace disttgl {

// ---- typed errors --------------------------------------------------------

enum class CheckpointErrc : std::uint8_t {
  kIoError = 1,       // open/read/write/fsync/rename failed
  kBadMagic,          // not a DistTGL checkpoint
  kBadVersion,        // container version skew
  kBadKind,           // wrong shard kind for this reader
  kTruncated,         // short file / short payload / trailing bytes
  kBadChecksum,       // payload checksum mismatch (bit rot, torn write)
  kShapeMismatch,     // sizes in file disagree with the live model/state
  kFingerprintMismatch,  // snapshot belongs to a different run config
  kMissingFile,       // shard file absent (distinct from unreadable)
};

const char* checkpoint_errc_name(CheckpointErrc code);

// Carries the failing path and, where meaningful, the expected/got pair
// (sizes, versions, fingerprints) that disagreed.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrc code, std::string path, const std::string& what,
                  std::uint64_t expected = 0, std::uint64_t got = 0);

  CheckpointErrc code() const { return code_; }
  const std::string& path() const { return path_; }
  std::uint64_t expected() const { return expected_; }
  std::uint64_t got() const { return got_; }

 private:
  CheckpointErrc code_;
  std::string path_;
  std::uint64_t expected_;
  std::uint64_t got_;
};

// ---- shard payloads ------------------------------------------------------

// The commit marker: which set this is. Written last; its presence IS
// the snapshot, and every other shard is read against it.
struct CommitShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;  // iterations completed when snapshotted
  std::uint64_t world = 0;
  std::uint64_t mem_copies = 0;  // k
};

// Replicated training state, written once per snapshot by rank 0: the
// set's identity, the flat weights (Module::flat_values order) and
// Adam's state. Every replica steps the whole model from the same mean
// gradients, so one optimizer's (t, m, v) is every replica's; the
// moments are flat in the same parameter order, one per weight.
struct CoreShard : CommitShard {
  std::vector<float> weights;
  std::uint64_t adam_steps = 0;  // Adam t_
  std::vector<float> adam_m, adam_v;
};

// One memory copy's full state, written by that group's host rank after
// a daemon round barrier (so it is the post-round-T state exactly).
struct MemShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;
  std::uint64_t copy = 0;  // memory-parallel index in [0, k)
  MemorySlice rows;        // every node, in node order
};

// Per-rank private state: what differs between ranks, the training
// loss and event subtotals (no optimizer state; the core shard holds
// that once). `slice` is set for a rank caught mid version-chain: it
// had read memory for a super-batch and not yet finished training all
// j versions, so the read slice must survive the restart.
struct RankShard {
  std::uint64_t fingerprint = 0;
  std::uint64_t iteration = 0;
  std::uint64_t rank = 0;
  double loss_sum = 0.0;
  std::uint64_t loss_count = 0;
  std::uint64_t events = 0;  // raw events processed so far
  std::optional<MemorySlice> slice;
};

// ---- shard I/O -----------------------------------------------------------

// `<dir>/ckpt_<iteration>` — the stem every shard path derives from.
std::string snapshot_stem(const std::string& dir, std::uint64_t iteration);
// Creates `dir` and its missing parents. Idempotent, so every rank of a
// run may call it; kIoError when the directory cannot be created.
void create_checkpoint_dir(const std::string& dir);

void write_core_shard(const std::string& stem, const CoreShard& s);
void write_mem_shard(const std::string& stem, const MemShard& s);
void write_rank_shard(const std::string& stem, const RankShard& s);
void write_commit_shard(const std::string& stem, const CommitShard& s);

// Every reader verifies its container (kind, version, checksum) and
// decodes typed: a memory-rows block whose arrays disagree with its
// declared node count or widths, or a core shard whose Adam moment
// arrays do not hold one float per weight, is kShapeMismatch. The shard
// readers then check the shard against `commit`, the set's marker: a
// shard naming another fingerprint or iteration (a stale or foreign
// file), or a core shard naming another world or copy count, is
// kFingerprintMismatch, and one stored under another index is
// kShapeMismatch.
CommitShard read_commit_shard(const std::string& stem);
CoreShard read_core_shard(const std::string& stem, const CommitShard& commit);
MemShard read_mem_shard(const std::string& stem, const CommitShard& commit,
                        std::uint64_t copy);
RankShard read_rank_shard(const std::string& stem, const CommitShard& commit,
                          std::uint64_t rank);

// Reads `<stem>.commit` and checks it names this run: another
// fingerprint is kFingerprintMismatch, another world or copy count
// kShapeMismatch. What a resume and validate_snapshot start from.
CommitShard read_run_commit(const std::string& stem, std::uint64_t fingerprint,
                            std::uint64_t world, std::uint64_t mem_copies);

// kShapeMismatch (naming `path`, expected = the target's value) unless
// `rows` holds `nodes` rows of the given widths: the check of decoded
// rows against a live target — a memory state, or the batch and model a
// resumed slice feeds.
void check_rows_shape(const std::string& path, const MemorySlice& rows,
                      std::uint64_t nodes, std::uint64_t mem_dim,
                      std::uint64_t mail_dim);

// Captures one memory copy's full contents (node order) into a shard /
// applies a shard back onto a live state (full-row restore, flags
// included). apply throws kShapeMismatch when the shard's geometry
// disagrees with the state — before touching any row.
MemShard make_mem_shard(const MemoryState& state, std::uint64_t fingerprint,
                        std::uint64_t iteration, std::uint64_t copy);
void apply_mem_shard(const MemShard& s, MemoryState& state);

// ---- snapshot discovery / retention --------------------------------------

struct SnapshotRef {
  std::string stem;
  std::uint64_t iteration = 0;
};

// Full validation of one committed snapshot: the commit marker names
// this run (fingerprint, world, copy count), and the core shard, every
// mem shard and every rank shard read cleanly against it. False (never
// throws) on any defect.
bool validate_snapshot(const std::string& stem, std::uint64_t fingerprint,
                       std::uint64_t world, std::uint64_t mem_copies);

// Every committed snapshot in `dir` (commit markers present), newest
// first. Presence of the marker is all this checks — callers that need
// more (the trainers' full validate_snapshot, the serving tier's
// core+mem-only check) validate per stem and fall back down the list.
std::vector<SnapshotRef> list_snapshots(const std::string& dir);

// Newest fully-valid snapshot in `dir`, scanning commit markers in
// descending iteration order — a torn/corrupt newest set falls back to
// the previous one. nullopt when nothing valid exists (fresh start).
std::optional<SnapshotRef> find_latest_snapshot(const std::string& dir,
                                                std::uint64_t fingerprint,
                                                std::uint64_t world,
                                                std::uint64_t mem_copies);

// Keep the newest `keep` committed snapshots, delete the rest —
// commit marker FIRST, so an interrupted sweep leaves an uncommitted
// (invisible) shard pile, never a commit pointing at missing shards.
// Then sweep_tmp. Best-effort: I/O errors ignored.
void retain_snapshots(const std::string& dir, std::size_t keep);

// Deletes the `*.tmp` orphans a crash mid-atomic-write leaves in `dir`.
// Committed shards are never `*.tmp`, so this only reclaims garbage.
// Best-effort: I/O errors ignored.
void sweep_tmp(const std::string& dir);

// FNV-1a-64 over every config field that shapes the training
// trajectory (model dims, i/j/k, batch/optimizer/seed/split knobs, graph
// size). Deliberately EXCLUDES fabric kind and tuning-only knobs: a
// snapshot from the thread fabric resumes on the proc fabric and
// vice versa — the fabrics are bit-identical, so the trajectory is too.
std::uint64_t config_fingerprint(const TrainingConfig& cfg,
                                 std::size_t num_nodes,
                                 std::size_t num_events);

}  // namespace disttgl
