// Two-piece affine gap alignment (minimap2's actual gap model; the paper's
// Eq. 1 uses the one-piece simplification "for simplicity"). A gap of
// length k costs min(q1 + k*e1, q2 + k*e2) with q1 < q2 and e1 > e2: short
// gaps pay the steep piece, long (SV-like) gaps switch to the cheap-
// extension piece. minimap2 map-pb defaults: O=4,24 E=2,1.
//
// The difference-based recurrence generalizes directly: each gap direction
// carries TWO difference rows (x1/x2, y1/y2), and
//   z = max(s, x1+v, x2+v, y1+u, y2+u)
//   xk' = max(0, xk + v - z + qk) - qk - ek      (k = 1,2; same for yk)
// Both memory layouts are provided, mirroring the one-piece kernels.
#pragma once

#include "align/kernel_api.hpp"

namespace manymap {

struct TwoPieceParams {
  i32 match = 2;
  i32 mismatch = 4;
  i32 gap_open1 = 4;
  i32 gap_ext1 = 2;
  i32 gap_open2 = 24;
  i32 gap_ext2 = 1;

  i32 sub(u8 a, u8 b) const {
    if (a >= 4 || b >= 4) return -mismatch;
    return a == b ? match : -mismatch;
  }
  /// Cost of a gap of length k (positive).
  i64 gap_cost(u64 k) const {
    const i64 c1 = gap_open1 + static_cast<i64>(k) * gap_ext1;
    const i64 c2 = gap_open2 + static_cast<i64>(k) * gap_ext2;
    return c1 < c2 ? c1 : c2;
  }

  /// int8 difference-lane contract, mirroring ScoreParams::fits_int8: each
  /// gap piece k keeps xk,yk in [-(qk+ek), -ek] and u,v swing up to
  /// match + max(qk+ek), which must stay below the int8 saturation point.
  /// u,v fall no lower than -gap_cost(1) = -min(qk+ek), so the sums xk+v
  /// and yk+u reach -(qk+ek) - min(qk+ek); p1 + p2 <= 128 keeps both
  /// pieces' sums at or above -128 (q1+e1=64, q2+e2=100 saturated there).
  bool fits_int8() const {
    const i32 p1 = gap_open1 + gap_ext1, p2 = gap_open2 + gap_ext2;
    return match + (p1 > p2 ? p1 : p2) <= 125 && p1 + p2 <= 128 && mismatch <= 125;
  }
  static TwoPieceParams map_pb() { return TwoPieceParams{2, 5, 4, 2, 24, 1}; }
};

struct TwoPieceArgs {
  const u8* target = nullptr;
  i32 tlen = 0;
  const u8* query = nullptr;
  i32 qlen = 0;
  TwoPieceParams params{};
  AlignMode mode = AlignMode::kGlobal;
  bool with_cigar = false;
  /// Optional reusable workspace (see DiffArgs::arena / align/arena.hpp).
  detail::KernelArena* arena = nullptr;
  /// Optional diagonal-block dirs streaming, mirroring DiffArgs::spill /
  /// DiffArgs::spill_block_rows (see align/dirs_spill.hpp).
  DirsSpill* spill = nullptr;
  i32 spill_block_rows = 0;
  /// Static band half-width and adaptive drop, mirroring DiffArgs::band /
  /// DiffArgs::zdrop (0 = full rectangle / zdrop disabled).
  i32 band = 0;
  i32 zdrop = 0;
};

/// Full-matrix reference (gold standard for the two-piece kernels).
AlignResult twopiece_reference_align(const TwoPieceArgs& args);

/// Difference-based anti-diagonal kernels, one per layout (scalar).
AlignResult twopiece_align_mm2(const TwoPieceArgs& args);
AlignResult twopiece_align_manymap(const TwoPieceArgs& args);

/// SSE2-vectorized variants (the real minimap2 production kernel,
/// ksw2_extd2_sse, is the two-piece SSE implementation).
AlignResult twopiece_align_sse2_mm2(const TwoPieceArgs& args);
AlignResult twopiece_align_sse2_manymap(const TwoPieceArgs& args);

/// Wider-vector variants; nullptr-equivalent lookup via
/// get_twopiece_kernel when not compiled in or unsupported by the CPU.
using TwoPieceKernelFn = AlignResult (*)(const TwoPieceArgs&);
TwoPieceKernelFn get_twopiece_kernel(Layout layout, Isa isa);

namespace detail {

struct TwoPieceWorkspace;  // align/arena.hpp

// Direction byte layout for the two-piece path:
//   bits 0-2: source of H — 0 diag, 1 E1, 2 F1, 3 E2, 4 F2
//   bit 3: E1 extends, bit 4: F1 extends, bit 5: E2 extends, bit 6: F2.
inline constexpr u8 kTpSrcMask = 0x7;
inline constexpr u8 kTpExtE1 = 1 << 3;
inline constexpr u8 kTpExtF1 = 1 << 4;
inline constexpr u8 kTpExtE2 = 1 << 5;
inline constexpr u8 kTpExtF2 = 1 << 6;

/// Two-piece backtrack state machine over any direction-byte accessor
/// `dir_at(i, j) -> u8`; shared by the resident and streamed paths.
template <class DirAt>
Cigar twopiece_backtrack_cells(DirAt&& dir_at, i32 i_end, i32 j_end) {
  Cigar cig;
  i32 i = i_end, j = j_end;
  int state = 0;  // 0 H, 1 E1, 2 F1, 3 E2, 4 F2
  while (i >= 0 && j >= 0) {
    if (state == 0) state = dir_at(i, j) & kTpSrcMask;
    if (state == 0) {
      cig.push('M', 1);
      --i;
      --j;
    } else if (state == 1 || state == 3) {
      cig.push('D', 1);
      const u8 flag = state == 1 ? kTpExtE1 : kTpExtE2;
      const bool ext = i > 0 && (dir_at(i - 1, j) & flag) != 0;
      --i;
      if (!ext) state = 0;
    } else {
      cig.push('I', 1);
      const u8 flag = state == 2 ? kTpExtF1 : kTpExtF2;
      const bool ext = j > 0 && (dir_at(i, j - 1) & flag) != 0;
      --j;
      if (!ext) state = 0;
    }
  }
  if (i >= 0) cig.push('D', static_cast<u32>(i + 1));
  if (j >= 0) cig.push('I', static_cast<u32>(j + 1));
  cig.reverse();
  return cig;
}

/// Backtrack over the 5-state two-piece direction bytes (shared by the
/// scalar and SIMD kernels and the reference). `off[r]` gives the offset
/// of diagonal r in `dirs`; any row stride works (packed or padded).
/// band > 0 indexes rows from the static band start and throws
/// BandHitError when the walk leaves the band (see detail::backtrack).
Cigar twopiece_backtrack(const u8* dirs, const u64* off, i32 tlen, i32 qlen, i32 i_end,
                         i32 j_end, i32 band = 0);

/// Mode-dispatching backtrack over a prepared two-piece workspace
/// (resident dirs in place, streamed dirs through the spill window).
Cigar twopiece_backtrack_ws(const TwoPieceWorkspace& ws, i32 tlen, i32 qlen,
                            i32 i_end, i32 j_end, i32 band = 0);

}  // namespace detail

}  // namespace manymap
