#include "memory/memory_state.hpp"

#include <cstring>

namespace disttgl {

namespace {
// Rows per parallel_for chunk. Chunking is a pure function of the row
// count (never of the thread count), so the work decomposition — and
// therefore the output — is identical no matter how many workers the
// pool has. Below ~2 chunks the handoff cannot pay for itself.
constexpr std::size_t kRowsPerChunk = 512;
// How far ahead of the copy cursor to prefetch the randomly-addressed
// table rows. The gather is a pointer-chase over a num_nodes-sized
// table; telling the hardware about row i+kPrefetchAhead while copying
// row i hides most of the miss latency.
constexpr std::size_t kPrefetchAhead = 8;

inline void prefetch_row(const float* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}
}  // namespace

void MemoryState::gather_rows(std::span<const NodeId> nodes, MemorySlice& out,
                              std::size_t lo, std::size_t hi) const {
  const std::size_t md = mem_dim_;
  const std::size_t ld = mail_dim_;
  const std::size_t meta = meta_off();
  for (std::size_t i = lo; i < hi; ++i) {
    const NodeId v = nodes[i];
    DT_CHECK_LT(v, num_nodes_);
    if (i + kPrefetchAhead < hi) {
      const NodeId nxt = nodes[i + kPrefetchAhead];
      if (nxt < num_nodes_) prefetch_row(row(nxt));
    }
    // One blocked row holds everything: a single contiguous read.
    const float* src = row(v);
    std::memcpy(out.mem.row_ptr(i), src, md * sizeof(float));
    // A memory-only table (mail width 0) leaves the slice's mail buffer
    // empty, and memcpy must not see its null data().
    if (ld > 0) std::memcpy(out.mail.row_ptr(i), src + md, ld * sizeof(float));
    out.mem_ts[i] = src[meta];
    out.mail_ts[i] = src[meta + 1];
    out.has_mail[i] = src[meta + 2] != 0.0f ? 1 : 0;
  }
}

void MemoryState::read_into(std::span<const NodeId> nodes, MemorySlice& out,
                            ThreadPool* pool) const {
  const std::size_t n = nodes.size();
  out.mem.reset_shape(n, mem_dim_);
  out.mem_ts.resize(n);
  out.mail.reset_shape(n, mail_dim_);
  out.mail_ts.resize(n);
  out.has_mail.resize(n);
  const std::size_t chunks = (n + kRowsPerChunk - 1) / kRowsPerChunk;
  if (pool == nullptr || chunks < 2) {
    gather_rows(nodes, out, 0, n);
    return;
  }
  // try_: a gather sits on the trainer-iteration critical path, so if
  // the pool is mid-fan-out for background batch construction we run
  // serially instead of queuing behind it (identical output either way).
  const bool ran = pool->try_parallel_for(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kRowsPerChunk;
    gather_rows(nodes, out, lo, std::min(lo + kRowsPerChunk, n));
  });
  if (!ran) gather_rows(nodes, out, 0, n);
}

void MemoryState::scatter_rows(const MemoryWrite& w, std::size_t lo,
                               std::size_t hi) {
  const std::size_t md = mem_dim_;
  const std::size_t ld = mail_dim_;
  const std::size_t meta = meta_off();
  for (std::size_t i = lo; i < hi; ++i) {
    const NodeId v = w.nodes[i];
    DT_CHECK_LT(v, num_nodes_);
    if (i + kPrefetchAhead < hi) {
      const NodeId nxt = w.nodes[i + kPrefetchAhead];
      if (nxt < num_nodes_) prefetch_row(row(nxt));
    }
    float* dst = row(v);
    std::memcpy(dst, w.mem.row_ptr(i), md * sizeof(float));
    if (ld > 0) std::memcpy(dst + md, w.mail.row_ptr(i), ld * sizeof(float));
    dst[meta] = w.mem_ts[i];
    dst[meta + 1] = w.mail_ts[i];
    dst[meta + 2] = 1.0f;  // a write always delivers a mail
  }
}

void MemoryState::write(const MemoryWrite& w, ThreadPool* pool) {
  const std::size_t n = w.nodes.size();
  if (n == 0) return;  // empty-chunk protocol writes carry no payload
  DT_CHECK_EQ(w.mem.rows(), n);
  DT_CHECK_EQ(w.mem.cols(), mem_dim_);
  DT_CHECK_EQ(w.mem_ts.size(), n);
  DT_CHECK_EQ(w.mail.rows(), n);
  DT_CHECK_EQ(w.mail.cols(), mail_dim_);
  DT_CHECK_EQ(w.mail_ts.size(), n);
  const std::size_t chunks = (n + kRowsPerChunk - 1) / kRowsPerChunk;
  if (pool == nullptr || chunks < 2) {
    scatter_rows(w, 0, n);
    return;
  }
  // w.nodes are distinct, so chunks scatter to disjoint rows. try_: as
  // in read_into, never queue critical-path work behind a background
  // fan-out on the shared pool.
  const bool ran = pool->try_parallel_for(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kRowsPerChunk;
    scatter_rows(w, lo, std::min(lo + kRowsPerChunk, n));
  });
  if (!ran) scatter_rows(w, 0, n);
}

void MemoryState::restore(std::span<const NodeId> nodes, const Matrix& mem,
                          std::span<const float> mem_ts, const Matrix& mail,
                          std::span<const float> mail_ts,
                          std::span<const std::uint8_t> flags) {
  const std::size_t n = nodes.size();
  DT_CHECK_EQ(mem.rows(), n);
  DT_CHECK_EQ(mem.cols(), mem_dim_);
  DT_CHECK_EQ(mail.rows(), n);
  DT_CHECK_EQ(mail.cols(), mail_dim_);
  DT_CHECK_EQ(mem_ts.size(), n);
  DT_CHECK_EQ(mail_ts.size(), n);
  DT_CHECK_EQ(flags.size(), n);
  const std::size_t meta = meta_off();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = nodes[i];
    DT_CHECK_LT(v, num_nodes_);
    float* dst = row(v);
    std::memcpy(dst, mem.row_ptr(i), mem_dim_ * sizeof(float));
    if (mail_dim_ > 0)
      std::memcpy(dst + mem_dim_, mail.row_ptr(i), mail_dim_ * sizeof(float));
    dst[meta] = mem_ts[i];
    dst[meta + 1] = mail_ts[i];
    dst[meta + 2] = flags[i] != 0 ? 1.0f : 0.0f;
  }
}

namespace {

void digest_bytes(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;  // FNV-1a 64 prime
  }
}

}  // namespace

std::uint64_t memory_digest(const MemoryState& state) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    const std::span<const float> mem = state.mem_row(v);
    const std::span<const float> mail = state.mail_row(v);
    digest_bytes(h, mem.data(), mem.size() * sizeof(float));
    digest_bytes(h, mail.data(), mail.size() * sizeof(float));
    const float ts[2] = {state.last_update(v), state.mail_ts(v)};
    digest_bytes(h, ts, sizeof(ts));
    const std::uint8_t flag = state.has_mail(v) ? 1 : 0;
    digest_bytes(h, &flag, 1);
  }
  return h;
}

}  // namespace disttgl
