// Public entry points for the base-level alignment kernels.
//
// Two DP memory layouts are provided (paper §4.3.1, Fig. 2):
//  - Layout::kMinimap2 — minimap2/ksw2's anti-diagonal layout (Fig. 2b):
//    the v/x matrices are indexed by t, so cell (r,t) reads v,x at t-1.
//    The carried value forces a temporary (scalar) or a vector shift
//    (SIMD, Fig. 3a) each iteration.
//  - Layout::kManymap — the paper's contribution (Fig. 2c, Eq. 4): v/x are
//    indexed by t' = t - r + |Q|, so cell (r,t) reads and writes v,x at the
//    SAME slot. No carry, plain vector loads (Fig. 3b).
//
// Both layouts are implemented for scalar, SSE2, AVX2 and AVX-512BW ISAs,
// in score-only and full-path (CIGAR) variants, and all produce identical
// results (verified by the test suite).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "align/cigar.hpp"
#include "align/scoring.hpp"
#include "base/common.hpp"

namespace manymap {

class DirsSpill;  // align/dirs_spill.hpp

namespace detail {
class KernelArena;  // align/arena.hpp
}

enum class AlignMode {
  kGlobal,     ///< both ends anchored; score at (|T|-1, |Q|-1)
  kExtension,  ///< semi-global: beginnings anchored, ends free (max over
               ///< the bottom row and last column)
};

enum class Layout { kMinimap2, kManymap };
enum class Isa { kScalar, kSse2, kAvx2, kAvx512 };

const char* to_string(Layout layout);
const char* to_string(Isa isa);
const char* to_string(AlignMode mode);

struct AlignResult {
  i64 score = 0;
  i32 t_end = -1;  ///< inclusive target end index of the best cell
  i32 q_end = -1;  ///< inclusive query end index of the best cell
  u64 cells = 0;   ///< DP cells evaluated (for GCUPS)
  Cigar cigar;     ///< empty in score-only mode
  /// Banded kernels only: the conservative escape ledger could not prove
  /// the unbanded optimum stays inside the band, so score/cigar may be
  /// band-confined. Callers must rerun unbanded (band = 0) to trust the
  /// result; when false, the result is bit-identical to the full kernel.
  bool band_hit = false;
  /// Banded kernels only: the zdrop heuristic pruned the live interval
  /// below the static band somewhere (score is then heuristic, as in
  /// ksw2 — zdropped results are accepted, not retried).
  bool zdropped = false;
};

/// Thrown by banded backtrack when the traced path steps outside the
/// static band or into a zdrop-pruned cell. The score-side escape ledger
/// is conservative but tie-breaking can still route the recorded path
/// through an edge-injected wall cell; the walk itself is the last-resort
/// detector. Callers treat it exactly like AlignResult::band_hit == true
/// and rerun with band = 0.
class BandHitError : public std::runtime_error {
 public:
  explicit BandHitError(const char* what) : std::runtime_error(what) {}
};

struct DiffArgs {
  const u8* target = nullptr;
  i32 tlen = 0;
  const u8* query = nullptr;
  i32 qlen = 0;
  ScoreParams params{};
  AlignMode mode = AlignMode::kGlobal;
  bool with_cigar = false;
  /// Optional reusable workspace. nullptr keeps the historical behavior
  /// (the kernel allocates a fresh workspace for this call); long-lived
  /// callers pass a per-thread arena so steady-state calls never touch
  /// the heap. See align/arena.hpp.
  detail::KernelArena* arena = nullptr;
  /// Optional spill sink enabling diagonal-block dirs streaming in path
  /// mode: direction rows are written into a fixed-size resident block and
  /// finished blocks handed to `spill`, bounding peak dirs memory at
  /// O(block·(|Q|+kLanePad)) with a bit-identical CIGAR. nullptr keeps the
  /// fully-resident dirs area. See align/dirs_spill.hpp.
  DirsSpill* spill = nullptr;
  /// Streaming block height in padded diagonal rows (used only when
  /// `spill` is set). 0 picks a default ~8 MiB block; 1 is the legal
  /// degenerate minimum; a value >= |T|+|Q|-1 never spills.
  i32 spill_block_rows = 0;
  /// Static band half-width around the (0,0)→(|T|-1,|Q|-1) line, measured
  /// in anti-diagonal lanes. 0 (the default) computes the full rectangle;
  /// band > 0 confines every diagonal to ≤ 2·band+1 lanes and the result
  /// carries band_hit when the optimum may have escaped (rerun with 0).
  i32 band = 0;
  /// ksw2-style adaptive drop (banded runs only): once both live band
  /// edges fall more than `zdrop` below the running best the interval
  /// shrinks, ending rows early. 0 disables; results with zdropped set
  /// are heuristic and NOT retried.
  i32 zdrop = 0;
};

using KernelFn = AlignResult (*)(const DiffArgs&);

/// Kernel lookup; returns nullptr when the ISA is not compiled in or not
/// supported by this CPU.
KernelFn get_diff_kernel(Layout layout, Isa isa);

/// Auto-band policy cut, not a kernel limit: with a strip kernel, auto
/// mode runs global fills with |T| <= kStripMaxRows unbanded
/// (Mapper::run_kernel), since one strip pass costs less than a band plus
/// the reruns noisy fills of that size take (DESIGN.md §5).
inline constexpr i32 kStripMaxRows = 1024;

/// True when `kernel` (a get_diff_kernel result) runs every unbanded call
/// without zdrop or dirs streaming on the register-resident strip path
/// (align/diff_strip_avx512.cpp). Only the AVX-512BW manymap kernel does.
bool kernel_has_strips(KernelFn kernel);

/// ISAs usable on this machine (always contains kScalar and kSse2 on
/// x86-64), in increasing width order.
std::vector<Isa> available_isas();

/// Widest available ISA.
Isa best_isa();

/// Convenience: align with the manymap layout on the widest ISA.
AlignResult align_pair(const std::vector<u8>& target, const std::vector<u8>& query,
                       const ScoreParams& params, AlignMode mode, bool with_cigar);

/// Full-matrix reference implementation (gold standard for tests).
AlignResult reference_align(const DiffArgs& args);

/// GCUPS for an alignment of |T| x |Q| cells taking `seconds`.
inline double gcups(u64 cells, double seconds) {
  return seconds > 0 ? static_cast<double>(cells) / seconds / 1e9 : 0.0;
}

}  // namespace manymap
