#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace disttgl::kernel {
namespace {

// ---- tile geometry -------------------------------------------------------
//
// MR x NR register tile: MR rows of C, NR = NV * 8 columns held in NV
// 8-float accumulator vectors per row. 6 x 32 keeps 24 accumulator
// vectors live — sized for the 32 architectural registers of AVX-512;
// on AVX2 the tail spills to L1, which costs little next to the FMA
// chain. KC bounds the packed panels so an A panel (MR*KC floats) and
// the B panel stripe stay cache-resident across the j sweep.
constexpr std::size_t MR = 6;
constexpr std::size_t NV = 4;
constexpr std::size_t NR = NV * 8;
constexpr std::size_t KC = kGemmKc;

// One MR x NR tile: acc = Apanel · Bpanel over kc reduction steps, then
// C_tile = acc when `first`, else C_tile += acc. Apanel is MR-interleaved
// (MR consecutive row values per k), Bpanel is NR-interleaved. mr/nr
// trim the store for edge tiles, which still store whole 8-float
// vectors where they fit.
DT_KERNEL_CLONES
void micro_kernel(std::size_t kc, const float* ap, const float* bp, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr, bool first) {
  v8sf acc[MR][NV] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    v8sf b[NV];
    for (std::size_t v = 0; v < NV; ++v) b[v] = load8(bp + p * NR + 8 * v);
    for (std::size_t i = 0; i < MR; ++i) {
      const v8sf av = v8sf{} + a[i];  // broadcast
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += av * b[v];
    }
  }
  if (mr == MR && nr == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t v = 0; v < NV; ++v)
        store8(crow + 8 * v,
               first ? acc[i][v] : load8(crow + 8 * v) + acc[i][v]);
    }
  } else {
    float tmp[MR][NR];
    for (std::size_t i = 0; i < MR; ++i)
      for (std::size_t v = 0; v < NV; ++v) store8(&tmp[i][v * 8], acc[i][v]);
    const std::size_t nv = nr / 8;
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t v = 0; v < nv; ++v) {
        const v8sf x = load8(&tmp[i][8 * v]);
        store8(crow + 8 * v, first ? x : load8(crow + 8 * v) + x);
      }
      for (std::size_t j = 8 * nv; j < nr; ++j)
        crow[j] = first ? tmp[i][j] : crow[j] + tmp[i][j];
    }
  }
}

// ---- narrow products -----------------------------------------------------
//
// A product with n < kNarrowCols would fill at most 7 of a 32-wide B
// panel's lanes. The narrow kernel turns the lanes the other way: an
// 8-lane vector spans 8 rows of A, read from a row-interleaved panel,
// and each of C's n columns keeps its own accumulators over B's k x n
// strip. Every element still runs the micro-kernel's chain — acc = 0,
// acc += a·b in k order within a KC block, then C = acc or C += acc —
// so a column's bits equal that column of any wider product, and a
// row's bits depend only on its own row of A, as on the blocked path.
constexpr std::size_t kNarrowCols = 8;

// A full narrow tile's 8-row vectors: fewer as n grows, so the tile's
// n·V accumulators stay in registers while enough independent chains
// hide the FMA latency.
constexpr std::size_t narrow_vectors(std::size_t n) {
  return n <= 2 ? 4 : n <= 4 ? 2 : 1;
}

// Rows [0, mr) of one tile of V vectors: acc = Apanel · Bstrip over kc
// steps, then C = acc when `first`, else C += acc. Apanel's step p
// holds the tile's 8·V row values at ap + p·lap; the strip holds B's
// n = N values per step.
template <std::size_t N, std::size_t V>
DT_KERNEL_INLINE void narrow_tile(std::size_t kc, const float* ap,
                                  std::size_t lap, const float* bs, float* c,
                                  std::size_t ldc, std::size_t mr,
                                  bool first) {
  v8sf acc[V][N] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    v8sf a[V];
    for (std::size_t v = 0; v < V; ++v) a[v] = load8(ap + p * lap + 8 * v);
    for (std::size_t j = 0; j < N; ++j) {
      const float bj = bs[p * N + j];
      const v8sf b = {bj, bj, bj, bj, bj, bj, bj, bj};
      for (std::size_t v = 0; v < V; ++v) acc[v][j] += a[v] * b;
    }
  }
  float tmp[N][8 * V];
  for (std::size_t j = 0; j < N; ++j)
    for (std::size_t v = 0; v < V; ++v) store8(&tmp[j][8 * v], acc[v][j]);
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < N; ++j)
      crow[j] = first ? tmp[j][i] : crow[j] + tmp[j][i];
  }
}

// The tile for `vecs` vectors (1 <= vecs <= narrow_vectors(N)).
template <std::size_t N, std::size_t V = narrow_vectors(N)>
DT_KERNEL_INLINE void narrow_tiles(std::size_t vecs, std::size_t kc,
                                   const float* ap, std::size_t lap,
                                   const float* bs, float* c, std::size_t ldc,
                                   std::size_t mr, bool first) {
  if constexpr (V > 1) {
    if (vecs < V) {
      narrow_tiles<N, V - 1>(vecs, kc, ap, lap, bs, c, ldc, mr, first);
      return;
    }
  }
  narrow_tile<N, V>(kc, ap, lap, bs, c, ldc, mr, first);
}

DT_KERNEL_CLONES
void narrow_kernel(std::size_t n, std::size_t vecs, std::size_t kc,
                   const float* ap, std::size_t lap, const float* bs, float* c,
                   std::size_t ldc, std::size_t mr, bool first) {
  switch (n) {
    case 1: narrow_tiles<1>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 2: narrow_tiles<2>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 3: narrow_tiles<3>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 4: narrow_tiles<4>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 5: narrow_tiles<5>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 6: narrow_tiles<6>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    case 7: narrow_tiles<7>(vecs, kc, ap, lap, bs, c, ldc, mr, first); break;
    default: break;
  }
}

// ---- packing -------------------------------------------------------------

inline const float* op_ptr(Layout lay, const float* data, std::size_t ld,
                           std::size_t i, std::size_t j) {
  return lay == Layout::kNormal ? data + i * ld + j : data + j * ld + i;
}

// Pack logical B[p0:p0+kc, 0:n] into NR-wide column panels, zero-padding
// the last panel to NR. Output occupies ceil(n/NR)*NR * kc floats.
void pack_b(Layout lay, const float* b, std::size_t ldb, std::size_t p0,
            std::size_t kc, std::size_t n, float* out) {
  for (std::size_t j0 = 0; j0 < n; j0 += NR) {
    const std::size_t nr = std::min(NR, n - j0);
    float* panel = out + j0 * kc;
    if (lay == Layout::kNormal && nr == NR) {
      for (std::size_t p = 0; p < kc; ++p)
        std::memcpy(panel + p * NR, b + (p0 + p) * ldb + j0, NR * sizeof(float));
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        float* dst = panel + p * NR;
        std::size_t j = 0;
        for (; j < nr; ++j) dst[j] = *op_ptr(lay, b, ldb, p0 + p, j0 + j);
        for (; j < NR; ++j) dst[j] = 0.0f;
      }
    }
  }
}

// Pack logical A[r0:r0+mr, p0:p0+kc] into one `height`-row panel,
// interleaved (height consecutive row values per k), zero-padding the
// rows past mr. Output occupies height * kc floats.
void pack_a(Layout lay, const float* a, std::size_t lda, std::size_t r0,
            std::size_t mr, std::size_t height, std::size_t p0,
            std::size_t kc, float* out) {
  if (lay == Layout::kTransposed) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = a + (p0 + p) * lda + r0;
      float* dst = out + p * height;
      for (std::size_t i = 0; i < height; ++i) dst[i] = i < mr ? src[i] : 0.0f;
    }
    return;
  }
  for (std::size_t i = 0; i < height; ++i) {
    if (i < mr) {
      const float* row = a + (r0 + i) * lda + p0;
      for (std::size_t p = 0; p < kc; ++p) out[p * height + i] = row[p];
    } else {
      for (std::size_t p = 0; p < kc; ++p) out[p * height + i] = 0.0f;
    }
  }
}

// ---- drivers -------------------------------------------------------------

// Rows [r0, r1) of C, all k-blocks in ascending order. `bpack` holds every
// k-block of B, pre-packed, the block for offset p0 starting at npad*p0.
// A is packed one MR-row tile at a time, on the stack, so a row chunk
// run on a pool worker needs no buffer of the worker's.
void run_rows(Layout la, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* bpack, std::size_t npad, float* c,
              std::size_t ldc, bool accumulate, std::size_t r0,
              std::size_t r1) {
  float apanel[MR * KC];
  for (std::size_t p0 = 0; p0 < k; p0 += KC) {
    const std::size_t kc = std::min(KC, k - p0);
    const bool first = p0 == 0 && !accumulate;
    const float* bblk = bpack + npad * p0;
    for (std::size_t i0 = r0; i0 < r1; i0 += MR) {
      const std::size_t mr = std::min(MR, r1 - i0);
      pack_a(la, a, lda, i0, mr, MR, p0, kc, apanel);
      for (std::size_t j0 = 0; j0 < n; j0 += NR) {
        const std::size_t nr = std::min(NR, n - j0);
        micro_kernel(kc, apanel, bblk + j0 * kc, c + i0 * ldc + j0, ldc, mr,
                     nr, first);
      }
    }
  }
}

// Rows [r0, r1) of a narrow product (n < kNarrowCols), a tile of up to
// 8·narrow_vectors(n) rows at a time, each tile through all k-blocks in
// ascending order. `bstrip` holds B as a k x n strip. A transposed A
// holds a tile's rows at one k contiguously, so a tile of whole vectors
// reads it in place; other tiles pack it, on the stack, zero-padding
// the last vector.
void run_narrow_rows(Layout la, std::size_t n, std::size_t k, const float* a,
                     std::size_t lda, const float* bstrip, float* c,
                     std::size_t ldc, bool accumulate, std::size_t r0,
                     std::size_t r1) {
  constexpr std::size_t kMaxTile = 8 * narrow_vectors(1);
  float apanel[kMaxTile * KC];
  const std::size_t tile = 8 * narrow_vectors(n);
  for (std::size_t i0 = r0; i0 < r1; i0 += tile) {
    const std::size_t mr = std::min(tile, r1 - i0);
    const std::size_t vecs = (mr + 7) / 8;
    const bool in_place = la == Layout::kTransposed && mr == 8 * vecs;
    for (std::size_t p0 = 0; p0 < k; p0 += KC) {
      const std::size_t kc = std::min(KC, k - p0);
      const float* ap = apanel;
      std::size_t lap = 8 * vecs;
      if (in_place) {
        ap = a + p0 * lda + i0;
        lap = lda;
      } else {
        pack_a(la, a, lda, i0, mr, lap, p0, kc, apanel);
      }
      narrow_kernel(n, vecs, kc, ap, lap, bstrip + p0 * n, c + i0 * ldc, ldc,
                    mr, p0 == 0 && !accumulate);
    }
  }
}

// ---- row fan-out ---------------------------------------------------------

// Runs rows_fn(r0, r1) over rows [0, m) of a product of `flops`
// multiply-adds. With a lent pool and at least kParallelFlops, the rows
// split into contiguous chunks aligned to `tile` rows, one per pool
// worker plus the caller, spread with the allocation-free
// try_parallel_for. Otherwise — no pool, a small product, or a pool
// busy with another fan-out — one call on the caller. The chunking
// depends only on (m, tile, the pool's size), and a row's arithmetic
// does not depend on its chunk. Captures in rows_fn must not name the
// caller's thread_local buffers: on a worker the name resolves to the
// worker's own (empty) instance, so pass their data pointers instead.
template <class RowsFn>
void for_row_chunks(ThreadPool* pool, std::size_t m, std::size_t tile,
                    std::size_t flops, const RowsFn& rows_fn) {
  const std::size_t mblocks = (m + tile - 1) / tile;
  const std::size_t nchunks = pool == nullptr || flops < kParallelFlops
                                  ? 1
                                  : std::min(pool->size() + 1, mblocks);
  if (nchunks > 1) {
    const std::size_t chunk = (mblocks + nchunks - 1) / nchunks * tile;
    const bool ran = pool->try_parallel_for(nchunks, [&](std::size_t t) {
      const std::size_t r0 = t * chunk;
      const std::size_t r1 = std::min(m, r0 + chunk);
      if (r0 < r1) rows_fn(r0, r1);
    });
    if (ran) return;
  }
  rows_fn(std::size_t{0}, m);
}

}  // namespace

void gemm(Layout la, Layout lb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate, ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate)
      for (std::size_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }
  const std::size_t flops = m * n * k;

  // Pack all of B once, into NR-wide panels or, for a narrow product, a
  // k x n strip; every row task reads the same copy.
  static thread_local std::vector<float> bpack;
  if (n < kNarrowCols) {
    bpack.resize(k * n);
    float* strip = bpack.data();
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j)
        strip[p * n + j] = *op_ptr(lb, b, ldb, p, j);
    const float* bs = strip;
    for_row_chunks(pool, m, 8 * narrow_vectors(n), flops,
                   [=](std::size_t r0, std::size_t r1) {
                     run_narrow_rows(la, n, k, a, lda, bs, c, ldc, accumulate,
                                     r0, r1);
                   });
    return;
  }
  const std::size_t npad = (n + NR - 1) / NR * NR;
  bpack.resize(npad * k);
  for (std::size_t p0 = 0; p0 < k; p0 += KC)
    pack_b(lb, b, ldb, p0, std::min(KC, k - p0), n, bpack.data() + npad * p0);

  const float* bp = bpack.data();
  for_row_chunks(pool, m, MR, flops, [=](std::size_t r0, std::size_t r1) {
    run_rows(la, n, k, a, lda, bp, npad, c, ldc, accumulate, r0, r1);
  });
}

}  // namespace disttgl::kernel
