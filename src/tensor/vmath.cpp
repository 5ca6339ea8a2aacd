#include "tensor/vmath.hpp"

#include "tensor/simd.hpp"

namespace disttgl::vmath {
namespace {

using kernel::load8;
using kernel::store8;
using kernel::v8df;
using kernel::v8di;
using kernel::v8sf;
using kernel::v8si;
using kernel::v8su;

// Vector casts between equal-sized types reinterpret the bits, so the
// sign, exponent and quadrant tricks below convert no float to an
// integer: NaN and out-of-range lanes produce garbage bits, never UB.

DT_KERNEL_INLINE v8sf splat(float c) { return v8sf{c, c, c, c, c, c, c, c}; }
DT_KERNEL_INLINE v8su splat_u(std::uint32_t c) {
  return v8su{c, c, c, c, c, c, c, c};
}
DT_KERNEL_INLINE v8df splat_d(double c) {
  return v8df{c, c, c, c, c, c, c, c};
}

constexpr std::uint32_t kSignBit = 0x80000000u;

DT_KERNEL_INLINE v8sf abs8(v8sf x) {
  return (v8sf)((v8su)x & splat_u(~kSignBit));
}

// Lanes of a where mask (a comparison's all-ones) is set, else of b, by
// bit operations: the default clone lowers `mask ? a : b` on 8-lane
// vectors to scalar code, these to SSE2 ands and ors.
DT_KERNEL_INLINE v8sf select(v8si mask, v8sf a, v8sf b) {
  return (v8sf)(((v8su)mask & (v8su)a) | (~(v8su)mask & (v8su)b));
}

// e^x. n = round(x·log2 e) through the 1.5·2^23 shifter (n sits in the
// low mantissa bits), r = x − n·ln 2 in two parts, e^r by Cephes'
// degree-6 polynomial on |r| ≤ ln 2 / 2, then 2^n applied as two
// normal factors 2^(n/2)·2^(n − n/2), so results down into the
// subnormals round once and those above FLT_MAX overflow to +inf. Below
// −104, where every result rounds to 0, a lane computes e^0 and takes 0
// at the end (a product that underflows costs a microcode assist on
// x86); the clamp at 89 keeps n ≤ 129. NaN passes every comparison
// untouched.
DT_KERNEL_INLINE v8sf exp8(v8sf x) {
  const v8si under = x < splat(-104.0f);
  x = select(under, splat(0.0f), x);
  x = select(x > splat(89.0f), splat(89.0f), x);
  const v8sf shifter = splat(12582912.0f);  // 1.5 · 2^23
  const v8sf t = x * splat(1.44269504088896341f) + shifter;
  const v8sf k = t - shifter;
  const v8si n = (v8si)((v8su)t - (v8su)shifter);
  v8sf r = x - k * splat(0.693359375f);
  r = r - k * splat(-2.12194440e-4f);
  v8sf p = splat(1.9875691500e-4f);
  p = p * r + splat(1.3981999507e-3f);
  p = p * r + splat(8.3334519073e-3f);
  p = p * r + splat(4.1665795894e-2f);
  p = p * r + splat(1.6666665459e-1f);
  p = p * r + splat(5.0000001201e-1f);
  p = p * r * r + r + splat(1.0f);
  const v8si n1 = n >> 1;
  const v8su e1 = ((v8su)n1 + splat_u(127)) << 23;
  const v8su e2 = ((v8su)(n - n1) + splat_u(127)) << 23;
  return select(under, splat(0.0f), p * (v8sf)e1 * (v8sf)e2);
}

// cos(x) for kQoff = 0, sin(x) = cos(x − π/2) for kQoff = 3. The
// quadrant k = round(x·2/π) and r = x − k·π/2 are formed in double:
// π/2's high part has 33 significant bits, so k·π/2_hi is exact while
// k < 2^20, and r carries about 80 bits of π/2. r then goes back to
// float for Cephes' sinf/cosf polynomials on |r| ≤ π/4, and k mod 4
// (the shifter's low mantissa bits) picks the polynomial and the sign.
template <std::int32_t kQoff>
DT_KERNEL_INLINE v8sf cos8(v8sf x) {
  const v8df xd = __builtin_convertvector(x, v8df);
  const v8df shifter = splat_d(6755399441055744.0);  // 1.5 · 2^52
  const v8df t = xd * splat_d(0.63661977236758134308) + shifter;
  const v8df k = t - shifter;
  const v8df rd = (xd - k * splat_d(1.57079632673412561417e+00)) -
                  k * splat_d(6.07710050650619224932e-11);
  v8sf r = __builtin_convertvector(rd, v8sf);
  // Finite x past 2^51 reduce to garbage; keep it in the polynomials'
  // bounded range. (NaN, from ±inf or NaN, passes through.)
  r = select(r > splat(1.0f), splat(1.0f), r);
  r = select(r < splat(-1.0f), splat(-1.0f), r);
  const v8si q = __builtin_convertvector((v8di)t, v8si) + kQoff;

  const v8sf z = r * r;
  v8sf ps = splat(-1.9515295891e-4f);
  ps = ps * z + splat(8.3321608736e-3f);
  ps = ps * z + splat(-1.6666654611e-1f);
  ps = ps * z * r + r;
  v8sf pc = splat(2.443315711809948e-5f);
  pc = pc * z + splat(-1.388731625493765e-3f);
  pc = pc * z + splat(4.166664568298827e-2f);
  pc = pc * z * z - splat(0.5f) * z + splat(1.0f);

  // cos(k·π/2 + r) = cos r, −sin r, −cos r, sin r for k mod 4 = 0..3.
  const v8sf y = select((q & 1) != 0, ps, pc);
  const v8su neg = (v8su)((q + 1) & 2) << 30;
  return (v8sf)((v8su)y ^ neg);
}

// 1/(1 + e^−|x|), and e^−|x| times it for negative x.
DT_KERNEL_INLINE v8sf sigmoid8(v8sf x) {
  const v8sf e = exp8(-abs8(x));
  const v8sf s = splat(1.0f) / (splat(1.0f) + e);
  return select(x < splat(0.0f), e * s, s);
}

// Cephes tanhf: x + x·z·P(z) (z = x²) below |x| = 0.625, where
// 1 − 2/(e^2|x| + 1) would cancel, and that form above; the sign is
// copied from x.
DT_KERNEL_INLINE v8sf tanh8(v8sf x) {
  const v8sf ax = abs8(x);
  const v8sf z = ax * ax;
  v8sf small = splat(-5.70498872745e-3f);
  small = small * z + splat(2.06390887954e-2f);
  small = small * z + splat(-5.37397155531e-2f);
  small = small * z + splat(1.33314422036e-1f);
  small = small * z + splat(-3.33332819422e-1f);
  small = small * z * ax + ax;
  const v8sf large =
      splat(1.0f) - splat(2.0f) / (exp8(ax + ax) + splat(1.0f));
  const v8sf y = select(ax < splat(0.625f), small, large);
  return (v8sf)((v8su)y | ((v8su)x & splat_u(kSignBit)));
}

// out[i] = F(x[i]) eight lanes at a time. A last block shorter than
// eight is zero-padded and goes through the same loop body, so every
// element runs the one compiled body whatever its position. The padded
// block is built lane by lane in registers: storing it to a stack array
// and loading that as a vector stalls the load until the stores drain
// (about 40 ns a call on a 4-vCPU Xeon, as much as eight elements'
// math). (F is a template argument so the call is direct and inlines
// into each clone.)
template <v8sf (*F)(v8sf)>
DT_KERNEL_INLINE void map8(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t m = n - i < 8 ? n - i : 8;
    const float* p = x + i;
    v8sf v;
    if (m == 8) {
      v = load8(p);
    } else {
      auto at = [&](std::size_t j) { return j < m ? p[j] : 0.0f; };
      v = v8sf{at(0), at(1), at(2), at(3), at(4), at(5), at(6), at(7)};
    }
    float pad[8];
    store8(m == 8 ? out + i : pad, F(v));
    // Eight guarded stores rather than a loop to m, which GCC turns
    // into a byte-by-byte copy.
    for (std::size_t j = 0; j < 8 && m < 8; ++j)
      if (j < m) out[i + j] = pad[j];
  }
}

}  // namespace

DT_KERNEL_CLONES
void cos(const float* x, std::size_t n, float* out) {
  map8<cos8<0>>(x, n, out);
}

DT_KERNEL_CLONES
void sin(const float* x, std::size_t n, float* out) {
  map8<cos8<3>>(x, n, out);
}

DT_KERNEL_CLONES
void exp(const float* x, std::size_t n, float* out) {
  map8<exp8>(x, n, out);
}

DT_KERNEL_CLONES
void sigmoid(const float* x, std::size_t n, float* out) {
  map8<sigmoid8>(x, n, out);
}

DT_KERNEL_CLONES
void tanh(const float* x, std::size_t n, float* out) {
  map8<tanh8>(x, n, out);
}

}  // namespace disttgl::vmath
