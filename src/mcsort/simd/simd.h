// SIMD feature detection.
//
// The paper targets AVX2 (S = 256-bit registers; banks b in {16, 32, 64}).
// All kernels compile to scalar fallbacks when AVX2 is unavailable so the
// library stays portable; the benchmarks are only meaningful with AVX2.
#ifndef MCSORT_SIMD_SIMD_H_
#define MCSORT_SIMD_SIMD_H_

#if defined(__AVX2__)
#define MCSORT_HAVE_AVX2 1
#include <immintrin.h>
#else
#define MCSORT_HAVE_AVX2 0
#endif

#endif  // MCSORT_SIMD_SIMD_H_
