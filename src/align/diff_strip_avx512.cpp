// Register-resident strip kernel (AVX-512BW) for small global DP segments.
//
// The memory kernel (diff_simd_impl.hpp) sweeps whole anti-diagonals and
// round-trips U/Y/V/X through memory on every one; for the short gap fills
// between chain anchors that round trip, not the arithmetic, sets the cost
// (~20-45 ns per diagonal up to 512 lanes). Here the target is cut into
// 64-row strips, one zmm byte lane per target row, and each strip sweeps
// its own anti-diagonals with U/Y/V/X held in registers:
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
//  - Direction bytes go with masked stores straight into the arena's
//    padded-row dirs layout (diag_off), so backtrack_ws runs unchanged.
//
// Exactness: every lane computes the memory kernel's values. The only
// rewrite is x' = max(a-z, -q) - e in place of max(a-z+q, 0) - q - e (and
// y' alike), which is equal because a <= z and q + e <= 125 keep every
// intermediate in range; the extension bit a-z+q > 0 is a-z > -q. So U/V/
// X/Y and the direction bytes are identical, and so is the CIGAR, tie-
// breaks included. The global score telescopes down the last column,
// H(|T|-1,|Q|-1) = H(-1,|Q|-1) + Σ_i u(i,|Q|-1), from the frozen U lanes
// of each strip; the differences are exact under fits_int8, so it equals
// the memory kernel's bottom-border sum.
//
// Only unbanded global calls without dirs streaming come here
// (strip_kernel_accepts), and align_avx512_manymap routes only those with
// |T| <= kStripMaxRows. DESIGN.md §5 has the measured crossover.
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

/// Sum of the signed bytes of `v` (once per strip, so a plain store).
inline i64 sum_i8(vec v) {
  const vec biased = _mm512_xor_si512(v, _mm512_set1_epi8(static_cast<char>(0x80)));
  alignas(64) u64 sums[8];
  _mm512_store_si512(sums, _mm512_sad_epu8(biased, _mm512_setzero_si512()));
  u64 total = 0;
  for (const u64 x : sums) total += x;
  return static_cast<i64>(total) - 128 * kStripRows;
}

template <bool kPath>
AlignResult strip_align(const DiffArgs& a) {
  AlignResult out;
  if (handle_degenerate(a, out)) return out;
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");
  MM_REQUIRE(strip_kernel_accepts(a), "strip kernel takes only unbanded global calls");

  KernelArena local;
  KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const DiffWorkspace ws = arena.prepare_diff(a, /*manymap_layout=*/true);
  const i32 tlen = a.tlen, qlen = a.qlen;
  const i32 q = a.params.gap_open, e = a.params.gap_ext;
  const i8 init_first = static_cast<i8>(-(q + e));
  const i8 init_rest = static_cast<i8>(-e);
  const i8 init_xy = static_cast<i8>(-(q + e));

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
  i64 last_col = 0;  // Σ u(i, qlen-1) over the rows done so far

  for (i32 s0 = 0; s0 < tlen; s0 += kStripRows) {
    const i32 nrows = std::min(kStripRows, tlen - s0);
    const msk rows = lane_range(0, nrows - 1);
    const bool carry_out = s0 + kStripRows < tlen;
    const vec tv = _mm512_loadu_si512(ws.tp + s0);
    const msk t_acgt = _mm512_cmpgt_epi8_mask(four_v, tv);

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

      // Live lanes have a cell on this diagonal: started (l <= d) and not
      // past the last column (l >= d - qlen + 1).
      const msk live = lane_range(std::max(0, d - qlen + 1), std::min(kStripRows - 1, d));
      if constexpr (kPath) {
        const msk m1 = _mm512_cmpgt_epi8_mask(aa, sc);
        const msk m2 = _mm512_cmpgt_epi8_mask(bb, _mm512_max_epi8(sc, aa));
        vec dir = _mm512_mask_mov_epi8(_mm512_maskz_mov_epi8(m1, one_v), m2, two_v);
        // The extension bits are clear so far, so a masked add sets them.
        dir = _mm512_mask_add_epi8(dir, _mm512_cmpgt_epi8_mask(sa, neg_q_v), dir, ext_del_v);
        dir = _mm512_mask_add_epi8(dir, _mm512_cmpgt_epi8_mask(sb, neg_q_v), dir, ext_ins_v);
        // Lane l is cell t = s0 + l, at offset t - st in its row; lanes
        // below the row start are masked, so the base may sit up to 63
        // bytes into the previous row's pad.
        const i32 r = s0 + d;
        u8* row = ws.dirs + ws.diag_off[static_cast<std::size_t>(r)];
        _mm512_mask_storeu_epi8(row + (s0 - diag_start(r, qlen)), live & rows, dir);
      }
      V = _mm512_subs_epi8(z, U);
      X = _mm512_adds_epi8(_mm512_max_epi8(sa, neg_q_v), neg_e_v);
      U = _mm512_mask_subs_epi8(U, live, z, vt);
      Y = _mm512_mask_adds_epi8(Y, live, _mm512_max_epi8(sb, neg_q_v), neg_e_v);
    }
    if (carry_out) {  // the last row's final column (qlen - 1)
      _mm512_mask_storeu_epi8(carry_v + (qlen - kStripRows), kLane63, V);
      _mm512_mask_storeu_epi8(carry_x + (qlen - kStripRows), kLane63, X);
    }
    last_col += sum_i8(_mm512_maskz_mov_epi8(rows, U));
  }

  out.cells = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  out.score = -(static_cast<i64>(q) + static_cast<i64>(qlen) * e) + last_col;
  out.t_end = tlen - 1;
  out.q_end = qlen - 1;
  if constexpr (kPath) out.cigar = backtrack_ws(ws, tlen, qlen, out.t_end, out.q_end);
  return out;
}

}  // namespace

AlignResult align_avx512_strips(const DiffArgs& a) {
  return a.with_cigar ? strip_align<true>(a) : strip_align<false>(a);
}

}  // namespace detail
}  // namespace manymap
