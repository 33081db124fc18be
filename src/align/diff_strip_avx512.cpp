// Register-resident strip kernel (AVX-512BW) for unbanded DP calls.
//
// The memory kernel (diff_simd_impl.hpp) sweeps whole anti-diagonals and
// round-trips U/Y/V/X through memory on every one; that round trip, not
// the arithmetic, sets its cost (~20-45 ns per diagonal up to 512 lanes).
// Here the target is cut into 64-row strips, one zmm byte lane per target
// row, and each strip sweeps its own anti-diagonals with U/Y/V/X held in
// registers:
//
//  - U/Y (indexed by row) stay in their lane from one diagonal to the
//    next. A lane is live from its first column to its last; merge-masked
//    updates keep the boundary values in lanes that have not started yet
//    and freeze u(i, |Q|-1) in lanes that have finished.
//  - V/X move up one lane per diagonal, as in VecAvx512::shift_in (a
//    128-bit lane permute plus alignr). The permute takes lane 0 from the
//    carry row: v/x of the row just above the strip, by query column. The
//    strip writes its own last row back to that carry row for the next
//    strip. That is the only state crossing strips: 2 bytes per diagonal,
//    written 64 diagonals before the next strip reads them, so one row
//    serves in place. The carry rows are the arena's V/X rows.
//  - Direction bytes are strip-major: strip s owns (|Q|+63) 64-byte rows
//    from dirs + s·(|Q|+63)·64, and diagonal d of the strip is one aligned
//    64-byte store at row d. Lane l of row d is cell (64s+l, d-l), so
//    backtrack reads cell (i, j) at s·stride + ((i&63)+j)·64 + (i&63).
//
// Scores. Each strip's frozen U lanes are u(i, |Q|-1); they go to the
// arena's last-column row. In extension mode the last strip also saves
// v(|T|-1, j) from lane |T|-1-s0, one masked byte per diagonal. H then
// telescopes along both borders from the boundary column/row:
//   H(i, |Q|-1) = H(-1, |Q|-1) + Σ_{k<=i} u(k, |Q|-1)
//   H(|T|-1, j) = H(|T|-1, -1) + Σ_{k<=j} v(|T|-1, k)
// One O(|T|+|Q|) pass offers these to BestCell in diagonal order, bottom-
// row candidate first, as BorderTracker does. Global mode needs only the
// corner, the sum down the last column.
//
// Exactness: every lane computes the memory kernel's values. The only
// rewrite is x' = max(a-z, -q) - e in place of max(a-z+q, 0) - q - e (and
// y' alike), which is equal because a <= z and fits_int8 keeps every
// intermediate in range; the extension bit a-z+q > 0 is a-z > -q. So
// U/V/X/Y and the direction bytes are identical, the border sums are the
// memory kernel's H values, and score, end cell and CIGAR match it, tie-
// breaks included.
//
// align_avx512_manymap sends every call strip_kernel_accepts here: no
// band, no zdrop, no dirs streaming, any mode and size (DESIGN.md §5).
#include <immintrin.h>

#include <cstring>

#include "align/diff_common.hpp"
#include "align/diff_kernels.hpp"

namespace manymap {
namespace detail {

namespace {

using vec = __m512i;
using msk = __mmask64;
constexpr i32 kStripRows = 64;
constexpr msk kLane63 = msk{1} << 63;

/// Lanes lo..hi inclusive (0 <= lo, hi <= 63).
inline msk lane_range(i32 lo, i32 hi) {
  return (~u64{0} << lo) & (~u64{0} >> (63 - hi));
}

template <bool kPath, bool kExt>
AlignResult strip_align(const DiffArgs& a) {
  AlignResult out;
  if (handle_degenerate(a, out)) return out;
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");
  MM_REQUIRE(strip_kernel_accepts(a), "strip kernel takes only unbanded, unstreamed calls");

  KernelArena local;
  KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const DiffWorkspace ws = arena.prepare_strips(a);
  const i32 tlen = a.tlen, qlen = a.qlen;
  const i32 q = a.params.gap_open, e = a.params.gap_ext;
  const i8 init_first = static_cast<i8>(-(q + e));
  const i8 init_rest = static_cast<i8>(-e);
  const i8 init_xy = static_cast<i8>(-(q + e));
  const u64 stride = strip_dirs_stride(qlen);

  // Carry rows by query column, kLanePad into the V/X rows so the load
  // whose last byte is column d always starts inside them. Before the
  // first strip they hold the boundary row H(-1, j).
  i8* carry_v = ws.V + kLanePad;
  i8* carry_x = ws.X + kLanePad;
  carry_v[0] = init_first;
  std::memset(carry_v + 1, init_rest, static_cast<std::size_t>(qlen - 1));
  std::memset(carry_x, init_xy, static_cast<std::size_t>(qlen));

  const vec match_v = _mm512_set1_epi8(static_cast<char>(a.params.match));
  const vec mismatch_v = _mm512_set1_epi8(static_cast<char>(-a.params.mismatch));
  const vec four_v = _mm512_set1_epi8(4);
  const vec neg_q_v = _mm512_set1_epi8(static_cast<char>(-q));
  const vec neg_e_v = _mm512_set1_epi8(static_cast<char>(-e));
  const vec one_v = _mm512_set1_epi8(1);
  const vec two_v = _mm512_set1_epi8(2);
  const vec ext_del_v = _mm512_set1_epi8(static_cast<char>(kExtDel));
  const vec ext_ins_v = _mm512_set1_epi8(static_cast<char>(kExtIns));
  // Qword permute for the one-lane shift: 128-bit lane 0 from lane 3 of
  // the carry vector, lanes 1-3 from the strip's lanes 0-2.
  const vec up_idx = _mm512_set_epi64(5, 4, 3, 2, 1, 0, 15, 14);
  // Every byte of `v` moves up one lane; lane 0 takes byte 63 of `in`.
  auto shift_up = [&up_idx](vec v, vec in) {
    return _mm512_alignr_epi8(v, _mm512_permutex2var_epi64(v, up_idx, in), 15);
  };

  // Query lane l of diagonal d reads Q[d - l] = qr[qlen-1-d+l]; the arena
  // pads qr by kLanePad on both sides, covering d up to qlen + 63.
  const u8* qr_last = ws.qr + (qlen - 1);
  // Lane of the bottom row |T|-1 in the last strip.
  const i32 bottom_lane = (tlen - 1) % kStripRows;

  for (i32 s0 = 0; s0 < tlen; s0 += kStripRows) {
    const i32 nrows = std::min(kStripRows, tlen - s0);
    const bool carry_out = s0 + kStripRows < tlen;
    const vec tv = _mm512_loadu_si512(ws.tp + s0);
    const msk t_acgt = _mm512_cmpgt_epi8_mask(four_v, tv);
    [[maybe_unused]] u8* const dirs = kPath ? ws.dirs + (s0 / kStripRows) * stride : nullptr;

    vec U = _mm512_set1_epi8(init_rest);  // u(i, -1)
    if (s0 == 0) U = _mm512_mask_mov_epi8(U, 1, _mm512_set1_epi8(init_first));
    vec Y = _mm512_set1_epi8(init_xy);
    vec V = _mm512_setzero_si512(), X = _mm512_setzero_si512();

    const i32 ndiag = nrows + qlen - 1;
    for (i32 d = 0; d < ndiag; ++d) {
      // Hand the last row's v/x of the previous diagonal (column d - 64)
      // to the next strip: lane 63 of a store based at column d - 127.
      if (carry_out && d >= kStripRows) {
        _mm512_mask_storeu_epi8(carry_v + (d - 2 * kStripRows + 1), kLane63, V);
        _mm512_mask_storeu_epi8(carry_x + (d - 2 * kStripRows + 1), kLane63, X);
      }
      const vec vt = shift_up(V, _mm512_loadu_si512(carry_v + (d - kStripRows + 1)));
      const vec xt = shift_up(X, _mm512_loadu_si512(carry_x + (d - kStripRows + 1)));

      const vec qv = _mm512_loadu_si512(qr_last - d);
      const msk is_match = _mm512_mask_cmpeq_epi8_mask(t_acgt, tv, qv);
      const vec sc = _mm512_mask_blend_epi8(is_match, mismatch_v, match_v);

      // z = max(sc, a, b); sc and b do not wait for the shifted v/x.
      const vec bb = _mm512_adds_epi8(Y, U);
      const vec aa = _mm512_adds_epi8(xt, vt);
      const vec z = _mm512_max_epi8(_mm512_max_epi8(sc, bb), aa);
      const vec sa = _mm512_subs_epi8(aa, z);
      const vec sb = _mm512_subs_epi8(bb, z);

      if constexpr (kPath) {
        const msk m1 = _mm512_cmpgt_epi8_mask(aa, sc);
        const msk m2 = _mm512_cmpgt_epi8_mask(bb, _mm512_max_epi8(sc, aa));
        vec dir = _mm512_mask_mov_epi8(_mm512_maskz_mov_epi8(m1, one_v), m2, two_v);
        // The extension bits are clear so far, so a masked add sets them.
        dir = _mm512_mask_add_epi8(dir, _mm512_cmpgt_epi8_mask(sa, neg_q_v), dir, ext_del_v);
        dir = _mm512_mask_add_epi8(dir, _mm512_cmpgt_epi8_mask(sb, neg_q_v), dir, ext_ins_v);
        // Every lane: bytes of cells off the matrix are never read back.
        _mm512_store_si512(dirs + static_cast<u64>(d) * kStripRows, dir);
      }
      // Live lanes have a cell on this diagonal: started (l <= d) and not
      // past the last column (l >= d - qlen + 1).
      const msk live = lane_range(std::max(0, d - qlen + 1), std::min(kStripRows - 1, d));
      V = _mm512_subs_epi8(z, U);
      X = _mm512_adds_epi8(_mm512_max_epi8(sa, neg_q_v), neg_e_v);
      U = _mm512_mask_subs_epi8(U, live, z, vt);
      Y = _mm512_mask_adds_epi8(Y, live, _mm512_max_epi8(sb, neg_q_v), neg_e_v);
      // Bottom row: lane bottom_lane of diagonal d is v(|T|-1, d -
      // bottom_lane), saved at bottom_row[d].
      if (kExt && !carry_out)
        _mm512_mask_storeu_epi8(ws.bottom_row + (d - bottom_lane), msk{1} << bottom_lane, V);
    }
    if (carry_out) {  // the last row's final column (qlen - 1)
      _mm512_mask_storeu_epi8(carry_v + (qlen - kStripRows), kLane63, V);
      _mm512_mask_storeu_epi8(carry_x + (qlen - kStripRows), kLane63, X);
    }
    _mm512_storeu_si512(ws.last_col + s0, U);
  }

  out.cells = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  i64 h_last = -(static_cast<i64>(q) + static_cast<i64>(qlen) * e);  // H(-1, |Q|-1)
  if constexpr (kExt) {
    BestCell best;
    i64 h_bottom = -(static_cast<i64>(q) + static_cast<i64>(tlen) * e);  // H(|T|-1, -1)
    const i8* v_bottom = ws.bottom_row + bottom_lane;  // by column
    for (i32 r = 0; r < tlen + qlen - 1; ++r) {
      if (r >= tlen - 1) {
        const i32 j = r - (tlen - 1);
        h_bottom += v_bottom[j];
        best.offer(h_bottom, tlen - 1, j);
      }
      if (r >= qlen - 1) {
        const i32 i = r - (qlen - 1);
        h_last += ws.last_col[i];
        best.offer(h_last, i, qlen - 1);
      }
    }
    out.score = best.score;
    out.t_end = best.i;
    out.q_end = best.j;
  } else {
    for (i32 i = 0; i < tlen; ++i) h_last += ws.last_col[i];
    out.score = h_last;
    out.t_end = tlen - 1;
    out.q_end = qlen - 1;
  }
  if constexpr (kPath) {
    const u8* dirs = ws.dirs;
    out.cigar = backtrack_cells(
        [dirs, stride](i32 i, i32 j) -> u8 {
          const i32 l = i % kStripRows;
          return dirs[static_cast<u64>(i / kStripRows) * stride +
                      static_cast<u64>(l + j) * kStripRows + static_cast<u64>(l)];
        },
        out.t_end, out.q_end);
  }
  return out;
}

}  // namespace

AlignResult align_avx512_strips(const DiffArgs& a) {
  if (a.mode == AlignMode::kExtension)
    return a.with_cigar ? strip_align<true, true>(a) : strip_align<false, true>(a);
  return a.with_cigar ? strip_align<true, false>(a) : strip_align<false, false>(a);
}

}  // namespace detail
}  // namespace manymap
