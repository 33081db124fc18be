// Runtime kernel dispatch: picks the widest ISA the CPU supports, and maps
// (layout, isa) pairs to concrete kernels for the benchmark sweeps.
#include "align/diff_kernels.hpp"
#include "align/kernel_api.hpp"
#include "base/cpu_features.hpp"

namespace manymap {

KernelFn get_diff_kernel(Layout layout, Isa isa) {
  const auto& f = cpu_features();
  switch (isa) {
    case Isa::kScalar:
      return layout == Layout::kMinimap2 ? detail::align_scalar_mm2
                                         : detail::align_scalar_manymap;
    case Isa::kSse2:
      if (!f.sse2) return nullptr;
      return layout == Layout::kMinimap2 ? detail::align_sse2_mm2
                                         : detail::align_sse2_manymap;
    case Isa::kAvx2:
#if MANYMAP_HAVE_AVX2_KERNELS
      if (!f.avx2) return nullptr;
      return layout == Layout::kMinimap2 ? detail::align_avx2_mm2
                                         : detail::align_avx2_manymap;
#else
      return nullptr;
#endif
    case Isa::kAvx512:
#if MANYMAP_HAVE_AVX512_KERNELS
      if (!f.avx512bw) return nullptr;
      return layout == Layout::kMinimap2 ? detail::align_avx512_mm2
                                         : detail::align_avx512_manymap;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool kernel_has_strips(KernelFn kernel) {
  return kernel != nullptr && kernel == get_diff_kernel(Layout::kManymap, Isa::kAvx512);
}

namespace detail {

KernelFn strip_kernel() {
#if MANYMAP_HAVE_AVX512_KERNELS
  if (cpu_features().avx512bw) return align_avx512_strips;
#endif
  return nullptr;
}

KernelFn avx512_memory_kernel() {
#if MANYMAP_HAVE_AVX512_KERNELS
  if (cpu_features().avx512bw) return align_avx512_manymap_memory;
#endif
  return nullptr;
}

}  // namespace detail

TwoPieceKernelFn get_twopiece_kernel(Layout layout, Isa isa) {
  const auto& f = cpu_features();
  switch (isa) {
    case Isa::kScalar:
      return layout == Layout::kMinimap2 ? twopiece_align_mm2 : twopiece_align_manymap;
    case Isa::kSse2:
      if (!f.sse2) return nullptr;
      return layout == Layout::kMinimap2 ? twopiece_align_sse2_mm2
                                         : twopiece_align_sse2_manymap;
    case Isa::kAvx2:
#if MANYMAP_HAVE_AVX2_KERNELS
      if (!f.avx2) return nullptr;
      return layout == Layout::kMinimap2 ? twopiece_align_avx2_mm2
                                         : twopiece_align_avx2_manymap;
#else
      return nullptr;
#endif
    case Isa::kAvx512:
#if MANYMAP_HAVE_AVX512_KERNELS
      if (!f.avx512bw) return nullptr;
      return layout == Layout::kMinimap2 ? twopiece_align_avx512_mm2
                                         : twopiece_align_avx512_manymap;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> isas{Isa::kScalar};
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kAvx512})
    if (get_diff_kernel(Layout::kManymap, isa) != nullptr) isas.push_back(isa);
  return isas;
}

Isa best_isa() { return available_isas().back(); }

AlignResult align_pair(const std::vector<u8>& target, const std::vector<u8>& query,
                       const ScoreParams& params, AlignMode mode, bool with_cigar) {
  DiffArgs a;
  a.target = target.data();
  a.tlen = static_cast<i32>(target.size());
  a.query = query.data();
  a.qlen = static_cast<i32>(query.size());
  a.params = params;
  a.mode = mode;
  a.with_cigar = with_cigar;
  return get_diff_kernel(Layout::kManymap, best_isa())(a);
}

}  // namespace manymap
