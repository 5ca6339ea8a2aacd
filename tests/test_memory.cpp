// MemoryState read/write round trips, the recycled-slice (`read_into`)
// path, parallel-gather determinism, and the Table-1 payload byte
// accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "memory/memory_state.hpp"
#include "util/rng.hpp"

namespace disttgl {
namespace {

TEST(MemoryState, ReadReturnsAllFields) {
  MemoryState state(6, 3, 5);
  MemoryWrite w;
  w.nodes = {2, 5};
  w.mem = Matrix(2, 3, {1, 1, 1, 2, 2, 2});
  w.mem_ts = {10.0f, 11.0f};
  w.mail = Matrix(2, 5, 0.5f);
  w.mail_ts = {10.5f, 11.5f};
  state.write(w);

  std::vector<NodeId> nodes = {5, 0, 2};
  MemorySlice s;
  state.read_into(nodes, s);
  EXPECT_EQ(s.mem.rows(), 3u);
  EXPECT_FLOAT_EQ(s.mem(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.mem(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(s.mem(2, 2), 1.0f);
  EXPECT_EQ(s.has_mail[0], 1);
  EXPECT_EQ(s.has_mail[1], 0);
  EXPECT_FLOAT_EQ(s.mail_ts[2], 10.5f);
  EXPECT_FLOAT_EQ(s.mem_ts[0], 11.0f);
}

TEST(MemoryState, EmptyReadAndWriteAreNoOps) {
  MemoryState state(3, 2, 4);
  MemorySlice s;
  state.read_into({}, s);
  EXPECT_EQ(s.mem.rows(), 0u);
  MemoryWrite w;
  w.mem = Matrix(0, 2);
  w.mail = Matrix(0, 4);
  state.write(w);  // must not throw
}

// A memory-only table (mail width 0, as the serving tier's post-update
// memory is) writes, reads into a fresh slice, and restores without
// touching the empty mail buffers.
TEST(MemoryState, MemoryOnlyTableRoundTrips) {
  MemoryState state(6, 3, 0);
  MemoryWrite w;
  w.nodes = {2, 5};
  w.mem = Matrix(2, 3, {1, 1, 1, 2, 2, 2});
  w.mem_ts = {10.0f, 11.0f};
  w.mail = Matrix(2, 0);
  w.mail_ts = {10.5f, 11.5f};
  state.write(w);

  const std::vector<NodeId> nodes = {5, 0, 2};
  MemorySlice s;
  state.read_into(nodes, s);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.mail.cols(), 0u);
  EXPECT_FLOAT_EQ(s.mem(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.mem_ts[2], 10.0f);

  const std::vector<std::uint8_t> flags(3, 0);
  MemoryState restored(6, 3, 0);
  restored.restore(nodes, s.mem, s.mem_ts, s.mail, s.mail_ts, flags);
  for (const NodeId v : nodes) {
    EXPECT_EQ(std::memcmp(restored.mem_row(v).data(), state.mem_row(v).data(),
                          3 * sizeof(float)),
              0)
        << "node " << v;
    EXPECT_EQ(restored.last_update(v), state.last_update(v)) << "node " << v;
    EXPECT_FALSE(restored.has_mail(v)) << "node " << v;
  }
}

TEST(MemoryState, CopyIsIndependent) {
  MemoryState a(3, 2, 4);
  MemoryWrite w;
  w.nodes = {1};
  w.mem = Matrix(1, 2, {5, 6});
  w.mem_ts = {1.0f};
  w.mail = Matrix(1, 4, 1.0f);
  w.mail_ts = {1.0f};
  a.write(w);

  MemoryState b = a;  // memory-parallel copy semantics
  w.mem = Matrix(1, 2, {9, 9});
  b.write(w);
  MemorySlice s;
  a.read_into(std::vector<NodeId>{1}, s);
  EXPECT_FLOAT_EQ(s.mem(0, 0), 5.0f);
  b.read_into(std::vector<NodeId>{1}, s);
  EXPECT_FLOAT_EQ(s.mem(0, 0), 9.0f);
}

TEST(MemoryWrite, ByteAccounting) {
  MemoryWrite w;
  w.nodes = {1, 2};
  w.mem = Matrix(2, 3);
  w.mem_ts = {0, 0};
  w.mail = Matrix(2, 5);
  w.mail_ts = {0, 0};
  // 2 ids ×4 + (6+10) floats ×4 + 4 ts ×4 + 2 has_mail flags ×1.
  EXPECT_EQ(w.bytes(), 2 * 4 + 16 * 4 + 4 * 4 + 2 * 1);
}

// bytes() must equal what a field-by-field serialization of the payload
// actually produces — applying a write transfers the node ids, both row
// blocks, both timestamp arrays, AND one has_mail flag per node (the
// Table-1 accounting previously omitted the flag bytes).
TEST(MemoryWrite, BytesMatchSerializedPayload) {
  MemoryState state(16, 3, 5);
  MemoryWrite w;
  w.nodes = {2, 7, 11};
  w.mem = Matrix(3, 3, 1.5f);
  w.mem_ts = {1, 2, 3};
  w.mail = Matrix(3, 5, 0.25f);
  w.mail_ts = {1, 2, 3};
  state.write(w);

  std::vector<std::uint8_t> buf;
  auto append = [&](const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + len);
  };
  append(w.nodes.data(), w.nodes.size() * sizeof(NodeId));
  append(w.mem.data(), w.mem.size() * sizeof(float));
  append(w.mem_ts.data(), w.mem_ts.size() * sizeof(float));
  append(w.mail.data(), w.mail.size() * sizeof(float));
  append(w.mail_ts.data(), w.mail_ts.size() * sizeof(float));
  for (const NodeId v : w.nodes) {
    const std::uint8_t flag = state.has_mail(v) ? 1 : 0;
    append(&flag, sizeof(flag));
  }
  EXPECT_EQ(w.bytes(), buf.size());

  // The read-side payload (MemorySlice) is the same inventory minus the
  // node ids, which travel in the request, not the response.
  MemorySlice s;
  state.read_into(w.nodes, s);
  EXPECT_EQ(s.bytes(), w.bytes() - w.nodes.size() * sizeof(NodeId));
}

// ---- recycled-slice and parallel-gather properties ----

// A state populated with distinguishable per-node values.
MemoryState populated_state(std::size_t nodes, std::size_t mem_dim,
                            std::size_t mail_dim, std::uint64_t seed) {
  MemoryState state(nodes, mem_dim, mail_dim);
  Rng rng(seed);
  MemoryWrite w;
  // Mail every third node; memory rows for the first two thirds.
  for (NodeId v = 0; v < nodes; ++v) {
    if (v % 3 == 2) continue;
    w.nodes = {v};
    w.mem = Matrix(1, mem_dim, static_cast<float>(rng.uniform(-1.0, 1.0)));
    w.mem_ts = {static_cast<float>(v)};
    w.mail = Matrix(1, mail_dim, static_cast<float>(rng.uniform(-1.0, 1.0)));
    w.mail_ts = {static_cast<float>(v) + 0.5f};
    state.write(w);
  }
  return state;
}

bool slices_bit_equal(const MemorySlice& a, const MemorySlice& b) {
  return a.mem.rows() == b.mem.rows() && a.mem.cols() == b.mem.cols() &&
         a.mail.cols() == b.mail.cols() &&
         std::memcmp(a.mem.data(), b.mem.data(),
                     a.mem.size() * sizeof(float)) == 0 &&
         a.mem_ts == b.mem_ts &&
         std::memcmp(a.mail.data(), b.mail.data(),
                     a.mail.size() * sizeof(float)) == 0 &&
         a.mail_ts == b.mail_ts && a.has_mail == b.has_mail;
}

TEST(MemoryState, RecycledSliceEqualsFresh) {
  MemoryState state = populated_state(64, 4, 6, 3);
  Rng rng(9);
  MemorySlice recycled;
  // Shrinking, growing, and repeated shapes must all land bit-exact.
  const std::size_t sizes[] = {40, 7, 64, 7, 1, 33};
  for (const std::size_t sz : sizes) {
    std::vector<NodeId> nodes(sz);
    for (auto& v : nodes) v = static_cast<NodeId>(rng.uniform_int(64));
    state.read_into(nodes, recycled);
    MemorySlice fresh;
    state.read_into(nodes, fresh);
    EXPECT_TRUE(slices_bit_equal(recycled, fresh)) << "size " << sz;
  }
}

TEST(MemoryState, EmptyReadIntoClearsShape) {
  MemoryState state = populated_state(8, 2, 3, 1);
  MemorySlice s;
  state.read_into(std::vector<NodeId>{1, 2, 3}, s);
  ASSERT_EQ(s.size(), 3u);
  state.read_into({}, s);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.mem_ts.size(), 0u);
  EXPECT_EQ(s.has_mail.size(), 0u);
}

// Equivalence grid: the pooled gather/scatter must be bit-identical to
// the serial path for every thread count (chunking depends only on the
// row count; chunks touch disjoint rows).
TEST(MemoryState, ThreadedGatherScatterMatchesSerialAcrossThreadCounts) {
  const std::size_t kNodes = 5000;
  MemoryState state = populated_state(kNodes, 5, 7, 17);
  // Large enough to split into several 512-row chunks.
  Rng rng(23);
  std::vector<NodeId> nodes(2000);
  for (auto& v : nodes) v = static_cast<NodeId>(rng.uniform_int(kNodes));
  MemorySlice serial;
  state.read_into(nodes, serial);

  // Distinct-node write payload (scatter chunks must hit disjoint rows).
  MemoryWrite w;
  for (NodeId v = 0; v < kNodes; v += 3) w.nodes.push_back(v);
  const std::size_t wn = w.nodes.size();
  w.mem.reset_shape(wn, 5);
  w.mail.reset_shape(wn, 7);
  for (std::size_t i = 0; i < wn; ++i) {
    for (std::size_t c = 0; c < 5; ++c)
      w.mem(i, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    for (std::size_t c = 0; c < 7; ++c)
      w.mail(i, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    w.mem_ts.push_back(static_cast<float>(i));
    w.mail_ts.push_back(static_cast<float>(i) + 0.5f);
  }
  MemoryState serial_written = state;
  serial_written.write(w);
  MemorySlice serial_after;
  serial_written.read_into(w.nodes, serial_after);

  for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
    ThreadPool pool(threads);
    MemorySlice pooled;
    state.read_into(nodes, pooled, &pool);
    EXPECT_TRUE(slices_bit_equal(pooled, serial)) << threads << " threads";

    MemoryState pooled_written = state;
    pooled_written.write(w, &pool);
    MemorySlice after;
    pooled_written.read_into(w.nodes, after);
    EXPECT_TRUE(slices_bit_equal(after, serial_after))
        << threads << " threads (scatter)";
  }
}

}  // namespace
}  // namespace disttgl
