// Internal registry of the concrete kernel implementations.
// Each is a standalone translation unit so per-file SIMD flags apply.
#pragma once

#include "align/kernel_api.hpp"
#include "align/twopiece.hpp"

namespace manymap {

// Two-piece wide-vector kernels (defined in the per-ISA TUs).
#if MANYMAP_HAVE_AVX2_KERNELS
AlignResult twopiece_align_avx2_mm2(const TwoPieceArgs& a);
AlignResult twopiece_align_avx2_manymap(const TwoPieceArgs& a);
#endif
#if MANYMAP_HAVE_AVX512_KERNELS
AlignResult twopiece_align_avx512_mm2(const TwoPieceArgs& a);
AlignResult twopiece_align_avx512_manymap(const TwoPieceArgs& a);
#endif

namespace detail {

AlignResult align_scalar_mm2(const DiffArgs& a);
AlignResult align_scalar_manymap(const DiffArgs& a);
AlignResult align_sse2_mm2(const DiffArgs& a);
AlignResult align_sse2_manymap(const DiffArgs& a);
#if MANYMAP_HAVE_AVX2_KERNELS
AlignResult align_avx2_mm2(const DiffArgs& a);
AlignResult align_avx2_manymap(const DiffArgs& a);
#endif
#if MANYMAP_HAVE_AVX512_KERNELS
AlignResult align_avx512_mm2(const DiffArgs& a);
/// Sends the calls strip_kernel_accepts to align_avx512_strips and the
/// rest (banded, zdrop, streamed dirs) to align_avx512_manymap_memory.
AlignResult align_avx512_manymap(const DiffArgs& a);
AlignResult align_avx512_manymap_memory(const DiffArgs& a);
AlignResult align_avx512_strips(const DiffArgs& a);
#endif

/// Calls the strip kernel computes: unbanded DP without zdrop or dirs
/// streaming, global or extension, at any size.
inline bool strip_kernel_accepts(const DiffArgs& a) {
  return a.band == 0 && a.zdrop == 0 && a.spill == nullptr;
}

/// The two halves of the AVX-512BW manymap kernel on their own, without
/// the routing: the strip kernel and the memory kernel. nullptr when
/// AVX-512BW is not compiled in or not supported by this CPU. Tests and
/// the kernel benches compare them.
KernelFn strip_kernel();
KernelFn avx512_memory_kernel();

}  // namespace detail
}  // namespace manymap
