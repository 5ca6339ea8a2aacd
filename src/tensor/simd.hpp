// Private to the library's vector kernels: the 8- and 4-lane vector
// types and the function-multiversioning macro shared by the GEMM
// micro-kernel (tensor/gemm.cpp), the vector math (tensor/vmath.cpp)
// and the attention's slot kernels (nn/attention.cpp). All three are
// written with GCC vector extensions (GCC and Clang), and their
// translation units are built with -ffp-contract=fast
// (src/tensor/CMakeLists.txt, src/nn/CMakeLists.txt), so a clone with
// FMA fuses multiply-adds that the default clone rounds twice. The Adam
// update (nn/optim.cpp) uses only the macro, over a loop GCC
// vectorizes, and is built with contraction off: its clones agree bit
// for bit.
#pragma once

#include <cstdint>

#if !defined(__GNUC__)
#error "the vector kernels need the GCC vector extensions (GCC or Clang)"
#endif

namespace disttgl::kernel {

// 8-lane vectors, and the 4-lane float half. Casts between equal-sized
// vector types reinterpret the bits.
typedef float v8sf __attribute__((vector_size(32)));
typedef float v4sf __attribute__((vector_size(16)));
typedef std::int32_t v8si __attribute__((vector_size(32)));
typedef std::uint32_t v8su __attribute__((vector_size(32)));
typedef double v8df __attribute__((vector_size(64)));
typedef std::int64_t v8di __attribute__((vector_size(64)));

// Eight (or four) floats at any float pointer: an unaligned type that may alias
// float, read and written in place. (Loaded through a memcpy into a
// v8sf local, vmath's loops compiled in the AVX2 clone to two 16-byte
// stores and a 32-byte reload that cannot be forwarded, which cost
// several times the math.)
typedef float v8sf_unaligned
    __attribute__((vector_size(32), aligned(4), may_alias));
typedef float v4sf_unaligned
    __attribute__((vector_size(16), aligned(4), may_alias));

inline v8sf load8(const float* p) {
  return *reinterpret_cast<const v8sf_unaligned*>(p);
}
inline void store8(float* p, v8sf v) {
  *reinterpret_cast<v8sf_unaligned*>(p) = v;
}
inline v4sf load4(const float* p) {
  return *reinterpret_cast<const v4sf_unaligned*>(p);
}
inline void store4(float* p, v4sf v) {
  *reinterpret_cast<v4sf_unaligned*>(p) = v;
}

// The helpers a kernel calls inside its clones: always inlined, since a
// call to a copy compiled for the default target would run without the
// clone's ISA.
#define DT_KERNEL_INLINE [[gnu::always_inline]] inline

// Function multiversioning: GCC on x86-64/glibc resolves the best clone
// at load time via ifunc, so the portable baseline binary still runs
// AVX2/AVX-512 code where available. (x86-64-v3 = AVX2+FMA, v4 = AVX-512.)
// Only in optimized builds: GCC 12 miscompiles target_clones bodies at
// -O0 (observed: 0·inf evaluating to 0 and run-to-run nondeterminism),
// and -O0 has no use for SIMD dispatch anyway.
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__) && defined(__OPTIMIZE__)
#define DT_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define DT_KERNEL_CLONES
#endif

}  // namespace disttgl::kernel
