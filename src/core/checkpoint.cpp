#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "distributed/socket.hpp"
#include "distributed/wire.hpp"

namespace disttgl {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4c475444;  // "DTGL"
constexpr std::uint32_t kVersion = 4;  // Adam's state in the core shard

// Container kinds, one per snapshot shard. The values are on-disk
// format; kind 1 (a retired single-file checkpoint) stays unused.
enum ShardKind : std::uint32_t {
  kCore = 2,
  kMem = 3,
  kRank = 4,
  kCommit = 5,
};

// magic + version + kind + payload_len + checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 4;

[[noreturn]] void throw_io(const std::string& path, const char* op) {
  std::ostringstream msg;
  msg << op << " failed for checkpoint file " << path << ": "
      << std::strerror(errno);
  throw CheckpointError(CheckpointErrc::kIoError, path, msg.str());
}

void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::string& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(path, "write");
    }
    off += static_cast<std::size_t>(n);
  }
}

// Whole-file atomic write: header+payload → `<path>.tmp`, fsync, rename
// over the final name, fsync the directory. Readers either see the old
// file or the complete new one, never a torn mix.
void atomic_write(const std::string& path, std::uint32_t kind,
                  std::span<const std::uint8_t> payload) {
  dist::WireWriter header;
  header.put_u32(kMagic);
  header.put_u32(kVersion);
  header.put_u32(kind);
  header.put_u64(payload.size());
  header.put_u32(dist::wire_checksum(payload));

  const std::string tmp = path + ".tmp";
  // The handle closes the file on every throw below (a full disk must
  // not leak one descriptor per failed write).
  dist::FdHandle fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (!fd.valid()) throw_io(tmp, "open");
  write_all(fd.get(), header.bytes(), tmp);
  write_all(fd.get(), payload, tmp);
  if (::fsync(fd.get()) != 0) throw_io(tmp, "fsync");
  fd.reset();
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_io(path, "rename");

  // Persist the rename itself: fsync the containing directory.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const dist::FdHandle dfd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  // Best-effort: some filesystems reject a directory fsync.
  if (dfd.valid()) ::fsync(dfd.get());
}

// Reads + verifies a container, returning the whole file; the
// checksummed payload starts at kHeaderBytes.
std::vector<std::uint8_t> read_container(const std::string& path,
                                         std::uint32_t want_kind) {
  dist::FdHandle fd(::open(path.c_str(), O_RDONLY));
  if (!fd.valid()) {
    if (errno == ENOENT)
      throw CheckpointError(CheckpointErrc::kMissingFile, path,
                            "checkpoint file missing: " + path);
    throw_io(path, "open");
  }
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd.get(), chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(path, "read");
    }
    if (n == 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }

  if (buf.size() < kHeaderBytes) {
    std::ostringstream msg;
    msg << "checkpoint file truncated before the header: " << path << " ("
        << buf.size() << " of " << kHeaderBytes << " header bytes)";
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(),
                          kHeaderBytes, buf.size());
  }
  const std::span<const std::uint8_t> bytes(buf);
  dist::WireCursor header(bytes.first(kHeaderBytes));
  const std::uint32_t magic = header.get_u32();
  if (magic != kMagic)
    throw CheckpointError(CheckpointErrc::kBadMagic, path,
                          "not a DistTGL checkpoint: " + path, kMagic, magic);
  const std::uint32_t version = header.get_u32();
  if (version != kVersion) {
    std::ostringstream msg;
    msg << "unsupported checkpoint version " << version << " (want "
        << kVersion << "): " << path;
    throw CheckpointError(CheckpointErrc::kBadVersion, path, msg.str(),
                          kVersion, version);
  }
  const std::uint32_t kind = header.get_u32();
  if (kind != want_kind) {
    std::ostringstream msg;
    msg << "checkpoint shard kind " << kind << " where kind " << want_kind
        << " was expected: " << path;
    throw CheckpointError(CheckpointErrc::kBadKind, path, msg.str(), want_kind,
                          kind);
  }
  const std::uint64_t payload_len = header.get_u64();
  if (buf.size() - kHeaderBytes != payload_len) {
    std::ostringstream msg;
    msg << "checkpoint payload truncated: " << path << " declares "
        << payload_len << " payload bytes, file holds "
        << (buf.size() - kHeaderBytes);
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(),
                          kHeaderBytes + payload_len, buf.size());
  }
  const std::uint32_t want_sum = header.get_u32();
  const std::uint32_t got_sum =
      dist::wire_checksum(bytes.subspan(kHeaderBytes));
  if (got_sum != want_sum) {
    std::ostringstream msg;
    msg << "checkpoint checksum mismatch: " << path << " (stored " << std::hex
        << want_sum << ", computed " << got_sum << ")";
    throw CheckpointError(CheckpointErrc::kBadChecksum, path, msg.str(),
                          want_sum, got_sum);
  }
  return buf;
}

void check_size(const std::string& path, const char* field,
                std::uint64_t want, std::uint64_t got) {
  if (want == got) return;
  std::ostringstream msg;
  msg << "checkpoint " << field << " mismatch: " << path << " holds " << got
      << " where " << want << " is needed";
  throw CheckpointError(CheckpointErrc::kShapeMismatch, path, msg.str(), want,
                        got);
}

// A shard belongs to the set its commit marker names; a field that names
// another run, iteration or geometry marks a stale or foreign file.
void check_member(const std::string& path, const char* field,
                  std::uint64_t commit_value, std::uint64_t shard_value) {
  if (commit_value == shard_value) return;
  std::ostringstream msg;
  msg << "checkpoint shard " << path << " has " << field << " "
      << shard_value << ", its commit marker " << commit_value;
  throw CheckpointError(CheckpointErrc::kFingerprintMismatch, path, msg.str(),
                        commit_value, shard_value);
}

// One memory-rows block, a mem shard's full copy or a rank shard's
// in-flight slice: u64 nodes, mem_dim, mail_dim, then mem, mem_ts, mail,
// mail_ts (count-prefixed f32s) and the has_mail flags (bytes).
void put_rows(dist::WireWriter& w, const MemorySlice& rows) {
  w.put_u64(rows.size());
  w.put_u64(rows.mem.cols());
  w.put_u64(rows.mail.cols());
  w.put_f32s({rows.mem.data(), rows.mem.size()});
  w.put_f32s(rows.mem_ts);
  w.put_f32s({rows.mail.data(), rows.mail.size()});
  w.put_f32s(rows.mail_ts);
  w.put_bytes(rows.has_mail);
}

// n·width, saturated: no array holds 2^64 elements or bytes, so an
// overflowing product matches no count and fits no payload.
std::uint64_t row_elems(std::uint64_t n, std::uint64_t width) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(n, width, &product) ? UINT64_MAX : product;
}

// Decodes a count-prefixed f32 array that must hold rows x cols elements
// straight into `out`: any other count is kShapeMismatch, and the count
// is checked against the payload before `out` is sized from it.
void get_matrix(dist::WireCursor& c, const std::string& path,
                const char* field, std::uint64_t rows, std::uint64_t cols,
                Matrix& out) {
  const std::uint64_t count = c.get_u64();
  check_size(path, field, row_elems(rows, cols), count);
  const std::span<const std::uint8_t> raw =
      c.get_raw(row_elems(count, sizeof(float)));
  out.reset_shape(rows, cols);
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
}

// Decodes put_rows' block. Every array must hold exactly what the
// declared node count and widths say (kShapeMismatch otherwise), so the
// slice's shape is the header's and no caller sizes a buffer from an
// unchecked one.
MemorySlice get_rows(dist::WireCursor& c, const std::string& path) {
  const std::uint64_t nodes = c.get_u64();
  const std::uint64_t mem_dim = c.get_u64();
  const std::uint64_t mail_dim = c.get_u64();
  MemorySlice rows;
  get_matrix(c, path, "memory row payload", nodes, mem_dim, rows.mem);
  rows.mem_ts = c.get_f32s();
  get_matrix(c, path, "mail row payload", nodes, mail_dim, rows.mail);
  rows.mail_ts = c.get_f32s();
  rows.has_mail = c.get_bytes();
  check_size(path, "memory timestamp payload", nodes, rows.mem_ts.size());
  check_size(path, "mail timestamp payload", nodes, rows.mail_ts.size());
  check_size(path, "mail flag payload", nodes, rows.has_mail.size());
  return rows;
}

// ---- one field list per shard kind ----------------------------------------
//
// Each kind's payload is one generic lambda handing its fields, in order,
// to io.u64 / f64 / f32s / rows: the Encoder walks it to write a shard and
// the Decoder to read one, so the two directions cannot disagree. An
// optional rows block is a u32 presence flag, then the rows.

struct Encoder {
  dist::WireWriter w;
  void u64(std::uint64_t v) { w.put_u64(v); }
  void f64(double v) { w.put_f64(v); }
  void f32s(std::span<const float> v) { w.put_f32s(v); }
  void rows(const MemorySlice& block) { put_rows(w, block); }
  void rows(const std::optional<MemorySlice>& block) {
    w.put_u32(block ? 1 : 0);
    if (block) put_rows(w, *block);
  }
};

struct Decoder {
  dist::WireCursor c;
  const std::string& path;
  void u64(std::uint64_t& v) { v = c.get_u64(); }
  void f64(double& v) { v = c.get_f64(); }
  void f32s(std::vector<float>& v) { v = c.get_f32s(); }
  void rows(MemorySlice& block) { block = get_rows(c, path); }
  void rows(std::optional<MemorySlice>& block) {
    if (c.get_u32() != 0) block = get_rows(c, path);
  }
};

constexpr auto kCommitFields = [](auto& io, auto& s) {
  io.u64(s.fingerprint);
  io.u64(s.iteration);
  io.u64(s.world);
  io.u64(s.mem_copies);
};

constexpr auto kCoreFields = [](auto& io, auto& s) {
  kCommitFields(io, s);
  io.f32s(s.weights);
  io.u64(s.adam_steps);
  io.f32s(s.adam_m);
  io.f32s(s.adam_v);
};

constexpr auto kMemFields = [](auto& io, auto& s) {
  io.u64(s.fingerprint);
  io.u64(s.iteration);
  io.u64(s.copy);
  io.rows(s.rows);
};

constexpr auto kRankFields = [](auto& io, auto& s) {
  io.u64(s.fingerprint);
  io.u64(s.iteration);
  io.u64(s.rank);
  io.f64(s.loss_sum);
  io.u64(s.loss_count);
  io.u64(s.events);
  io.rows(s.slice);
};

template <typename Shard, typename Fields>
void write_shard(const std::string& path, std::uint32_t kind,
                 const Shard& s, Fields fields) {
  Encoder enc;
  fields(enc, s);
  atomic_write(path, kind, enc.w.bytes());
}

// Reads `path`'s container and decodes its payload with `fields`, which
// must consume it exactly. WireCursor overruns are FabricError
// kTruncated; at the checkpoint layer a payload that parses short is
// the same defect class as a short file, so rethrow in-type.
template <typename Shard, typename Fields>
Shard read_shard(const std::string& path, std::uint32_t kind, Fields fields) {
  const std::vector<std::uint8_t> file = read_container(path, kind);
  const std::span<const std::uint8_t> bytes(file);
  Decoder dec{dist::WireCursor(bytes.subspan(kHeaderBytes)), path};
  Shard s;
  try {
    fields(dec, s);
  } catch (const dist::FabricError& e) {
    throw CheckpointError(CheckpointErrc::kTruncated, path,
                          std::string("checkpoint payload underruns its "
                                      "declared fields: ") +
                              path + " (" + e.what() + ")");
  }
  if (dec.c.remaining() != 0) {
    std::ostringstream msg;
    msg << "checkpoint payload has " << dec.c.remaining()
        << " trailing bytes past the last field: " << path;
    throw CheckpointError(CheckpointErrc::kTruncated, path, msg.str(), 0,
                          dec.c.remaining());
  }
  return s;
}

std::vector<NodeId> all_nodes(std::size_t n) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  return all;
}

std::string mem_path(const std::string& stem, std::uint64_t copy) {
  return stem + ".mem" + std::to_string(copy);
}

std::string rank_path(const std::string& stem, std::uint64_t rank) {
  return stem + ".rank" + std::to_string(rank);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Parses `ckpt_<digits>.commit`; nullopt for anything else.
std::optional<std::uint64_t> commit_iteration(const std::string& name) {
  constexpr std::string_view prefix = "ckpt_";
  constexpr std::string_view suffix = ".commit";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return std::nullopt;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t iter = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    iter = iter * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return iter;
}

// Committed snapshot iterations in `dir`, newest first.
std::vector<std::uint64_t> committed_iterations(const std::string& dir) {
  std::vector<std::uint64_t> iters;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto iter = commit_iteration(entry.path().filename().string()))
      iters.push_back(*iter);
  }
  std::sort(iters.rbegin(), iters.rend());
  return iters;
}

}  // namespace

const char* checkpoint_errc_name(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::kIoError:
      return "io_error";
    case CheckpointErrc::kBadMagic:
      return "bad_magic";
    case CheckpointErrc::kBadVersion:
      return "bad_version";
    case CheckpointErrc::kBadKind:
      return "bad_kind";
    case CheckpointErrc::kTruncated:
      return "truncated";
    case CheckpointErrc::kBadChecksum:
      return "bad_checksum";
    case CheckpointErrc::kShapeMismatch:
      return "shape_mismatch";
    case CheckpointErrc::kFingerprintMismatch:
      return "fingerprint_mismatch";
    case CheckpointErrc::kMissingFile:
      return "missing_file";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrc code, std::string path,
                                 const std::string& what,
                                 std::uint64_t expected, std::uint64_t got)
    : std::runtime_error("[checkpoint:" +
                         std::string(checkpoint_errc_name(code)) + "] " + what),
      code_(code),
      path_(std::move(path)),
      expected_(expected),
      got_(got) {}

// ---- shard I/O -----------------------------------------------------------

std::string snapshot_stem(const std::string& dir, std::uint64_t iteration) {
  return (fs::path(dir) / ("ckpt_" + std::to_string(iteration))).string();
}

void create_checkpoint_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw CheckpointError(CheckpointErrc::kIoError, dir,
                          "cannot create checkpoint directory " + dir + ": " +
                              ec.message());
}

void write_core_shard(const std::string& stem, const CoreShard& s) {
  write_shard(stem + ".core", kCore, s, kCoreFields);
}

void write_mem_shard(const std::string& stem, const MemShard& s) {
  write_shard(mem_path(stem, s.copy), kMem, s, kMemFields);
}

void write_rank_shard(const std::string& stem, const RankShard& s) {
  write_shard(rank_path(stem, s.rank), kRank, s, kRankFields);
}

void write_commit_shard(const std::string& stem, const CommitShard& s) {
  write_shard(stem + ".commit", kCommit, s, kCommitFields);
}

CommitShard read_commit_shard(const std::string& stem) {
  return read_shard<CommitShard>(stem + ".commit", kCommit, kCommitFields);
}

CoreShard read_core_shard(const std::string& stem, const CommitShard& commit) {
  const std::string path = stem + ".core";
  CoreShard s = read_shard<CoreShard>(path, kCore, kCoreFields);
  check_size(path, "Adam first-moment count", s.weights.size(),
             s.adam_m.size());
  check_size(path, "Adam second-moment count", s.weights.size(),
             s.adam_v.size());
  check_member(path, "fingerprint", commit.fingerprint, s.fingerprint);
  check_member(path, "iteration", commit.iteration, s.iteration);
  check_member(path, "world", commit.world, s.world);
  check_member(path, "memory-copy count", commit.mem_copies, s.mem_copies);
  return s;
}

MemShard read_mem_shard(const std::string& stem, const CommitShard& commit,
                        std::uint64_t copy) {
  const std::string path = mem_path(stem, copy);
  MemShard s = read_shard<MemShard>(path, kMem, kMemFields);
  check_size(path, "memory-copy index", copy, s.copy);
  check_member(path, "fingerprint", commit.fingerprint, s.fingerprint);
  check_member(path, "iteration", commit.iteration, s.iteration);
  return s;
}

RankShard read_rank_shard(const std::string& stem, const CommitShard& commit,
                          std::uint64_t rank) {
  const std::string path = rank_path(stem, rank);
  RankShard s = read_shard<RankShard>(path, kRank, kRankFields);
  check_size(path, "rank index", rank, s.rank);
  check_member(path, "fingerprint", commit.fingerprint, s.fingerprint);
  check_member(path, "iteration", commit.iteration, s.iteration);
  return s;
}

MemShard make_mem_shard(const MemoryState& state, std::uint64_t fingerprint,
                        std::uint64_t iteration, std::uint64_t copy) {
  MemShard s{.fingerprint = fingerprint,
             .iteration = iteration,
             .copy = copy,
             .rows = {}};
  state.read_into(all_nodes(state.num_nodes()), s.rows);
  return s;
}

void check_rows_shape(const std::string& path, const MemorySlice& rows,
                      std::uint64_t nodes, std::uint64_t mem_dim,
                      std::uint64_t mail_dim) {
  check_size(path, "memory node count", nodes, rows.size());
  check_size(path, "memory dim", mem_dim, rows.mem.cols());
  check_size(path, "mail dim", mail_dim, rows.mail.cols());
}

void apply_mem_shard(const MemShard& s, MemoryState& state) {
  check_rows_shape("<mem shard " + std::to_string(s.copy) + ">", s.rows,
                   state.num_nodes(), state.mem_dim(), state.mail_dim());
  // Full-row restore, flags included — restore() is the one writer that
  // can clear a has_mail flag, so the loaded state reproduces the saved
  // one exactly.
  state.reset();
  state.restore(all_nodes(state.num_nodes()), s.rows.mem, s.rows.mem_ts,
                s.rows.mail, s.rows.mail_ts, s.rows.has_mail);
}

// ---- snapshot discovery / retention --------------------------------------

CommitShard read_run_commit(const std::string& stem, std::uint64_t fingerprint,
                            std::uint64_t world, std::uint64_t mem_copies) {
  const std::string path = stem + ".commit";
  const CommitShard commit = read_commit_shard(stem);
  if (commit.fingerprint != fingerprint)
    throw CheckpointError(CheckpointErrc::kFingerprintMismatch, path,
                          "snapshot " + stem +
                              " belongs to a different run configuration",
                          fingerprint, commit.fingerprint);
  check_size(path, "world", world, commit.world);
  check_size(path, "memory-copy count", mem_copies, commit.mem_copies);
  return commit;
}

bool validate_snapshot(const std::string& stem, std::uint64_t fingerprint,
                       std::uint64_t world, std::uint64_t mem_copies) {
  try {
    const CommitShard commit =
        read_run_commit(stem, fingerprint, world, mem_copies);
    (void)read_core_shard(stem, commit);
    for (std::uint64_t m = 0; m < mem_copies; ++m)
      (void)read_mem_shard(stem, commit, m);
    for (std::uint64_t r = 0; r < world; ++r)
      (void)read_rank_shard(stem, commit, r);
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

std::vector<SnapshotRef> list_snapshots(const std::string& dir) {
  std::vector<SnapshotRef> out;
  for (const std::uint64_t iter : committed_iterations(dir))
    out.push_back(SnapshotRef{snapshot_stem(dir, iter), iter});
  return out;
}

std::optional<SnapshotRef> find_latest_snapshot(const std::string& dir,
                                                std::uint64_t fingerprint,
                                                std::uint64_t world,
                                                std::uint64_t mem_copies) {
  for (const std::uint64_t iter : committed_iterations(dir)) {
    const std::string stem = snapshot_stem(dir, iter);
    if (validate_snapshot(stem, fingerprint, world, mem_copies))
      return SnapshotRef{stem, iter};
  }
  return std::nullopt;
}

void retain_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<std::uint64_t> iters = committed_iterations(dir);
  std::error_code ec;
  for (std::size_t n = keep; n < iters.size(); ++n) {
    const std::string stem = snapshot_stem(dir, iters[n]);
    // Marker first: once it is gone the set is uncommitted, and a sweep
    // interrupted mid-shard-delete leaves garbage, not a torn snapshot.
    fs::remove(stem + ".commit", ec);
    const std::string prefix = "ckpt_" + std::to_string(iters[n]) + ".";
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) fs::remove(entry.path(), ec);
    }
  }
  sweep_tmp(dir);
}

void sweep_tmp(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
}

std::uint64_t config_fingerprint(const TrainingConfig& cfg,
                                 std::size_t num_nodes,
                                 std::size_t num_events) {
  dist::WireWriter w;
  const ModelConfig& m = cfg.model;
  w.put_u64(m.mem_dim);
  w.put_u64(m.time_dim);
  w.put_u64(m.attn_dim);
  w.put_u64(m.num_heads);
  w.put_u64(m.emb_dim);
  w.put_u64(m.num_neighbors);
  w.put_u64(m.static_dim);
  w.put_u64(m.head_hidden);
  w.put_u32(static_cast<std::uint32_t>(m.comb));
  w.put_u32(m.dynamic_memory ? 1 : 0);
  w.put_u64(cfg.parallel.i);
  w.put_u64(cfg.parallel.j);
  w.put_u64(cfg.parallel.k);
  w.put_u64(cfg.local_batch);
  w.put_u64(cfg.num_neg);
  w.put_u64(cfg.neg_groups);
  w.put_u64(cfg.epochs);
  w.put_u32(std::bit_cast<std::uint32_t>(cfg.base_lr));
  w.put_u32(cfg.scale_lr_with_world ? 1 : 0);
  w.put_u32(std::bit_cast<std::uint32_t>(cfg.grad_clip));
  w.put_u64(cfg.seed);
  w.put_u64(cfg.eval_negs);
  w.put_f64(cfg.train_frac);
  w.put_f64(cfg.val_frac);
  // Two slots that hashed tuning knobs: a since-deleted step-path flag
  // and comm_chunk_elems, which changes no bit of the trajectory. They
  // hold the zeros the defaults wrote, so every default-config
  // fingerprint (and every snapshot set written under one) stays valid,
  // and a snapshot resumes at any comm_chunk_elems.
  w.put_u32(0);
  w.put_u64(0);
  w.put_u64(num_nodes);
  w.put_u64(num_events);
  return fnv1a64(w.bytes());
}

}  // namespace disttgl
