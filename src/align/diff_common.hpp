// Shared machinery for the difference-based anti-diagonal kernels.
//
// Difference matrices (paper Eq. 2): with H the affine-gap DP matrix,
//   u(i,j) = H(i,j) - H(i-1,j)      v(i,j) = H(i,j) - H(i,j-1)
//   x(i,j) = E(i+1,j) - H(i,j)      y(i,j) = F(i,j+1) - H(i,j)
// Anti-diagonal coordinates: r = i + j, t = i; each diagonal r covers
// t in [st, en] with st = max(0, r-|Q|+1), en = min(|T|-1, r).
//
// Boundary convention (semi-global, beginnings aligned):
//   H(-1,-1) = 0, H(i,-1) = H(-1,i) = -(q + (i+1)e).
// Hence the injected edge values per diagonal:
//   u(r,-1) = y(r,-1):  U[r] = (r==0 ? -q-e : -e),  Y[r] = -q-e
//   v(-1,r) / x(-1,r):  V[.] = (r==0 ? -q-e : -e),  X[.] = -q-e
//
// Score recovery: two running accumulators trace H along the band borders
// (bottom row / first column via u, top row / last column via v,u), which
// yields the global corner score and the semi-global row/column maxima
// without materializing H.
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "align/arena.hpp"
#include "align/kernel_api.hpp"
#include "sequence/dna.hpp"

namespace manymap {
namespace detail {

/// Padding so vector kernels may overrun diagonal ends harmlessly.
inline constexpr i32 kLanePad = 64;

/// Strip-major dirs of the AVX-512BW strip kernel: bytes from one 64-row
/// strip's direction rows to the next, (|Q|+63) diagonals of 64 lanes.
inline u64 strip_dirs_stride(i32 qlen) {
  return (static_cast<u64>(qlen) + kLanePad - 1) * kLanePad;
}

inline i32 diag_start(i32 r, i32 qlen) { return r >= qlen ? r - qlen + 1 : 0; }
inline i32 diag_end(i32 r, i32 tlen) { return r < tlen ? r : tlen - 1; }

/// Static band around the (0,0)→(tlen-1,qlen-1) line in anti-diagonal
/// coordinates: on diagonal r the center lane is the floor of the line
/// i = r·(tlen-1)/(tlen+qlen-2), which always lies inside [st, en]; the
/// band clips [center-band, center+band] to the matrix. Each bound
/// advances by 0 or 1 per diagonal and the window always contains (0,0)
/// and the corner, so banded global DP needs no corner widening.
/// band <= 0 yields the full diagonal [st, en].
inline void banded_bounds(i32 r, i32 tlen, i32 qlen, i32 band, i32* lo, i32* hi) {
  const i32 st = diag_start(r, qlen);
  const i32 en = diag_end(r, tlen);
  if (band <= 0) {
    *lo = st;
    *hi = en;
    return;
  }
  const i64 den = static_cast<i64>(tlen) + qlen - 2;
  const i32 tc = den > 0 ? static_cast<i32>(static_cast<i64>(r) * (tlen - 1) / den) : 0;
  *lo = std::max(st, tc - band);
  *hi = std::min(en, tc + band);
}

/// Saturating int8 cast. The SIMD kernels clamp via adds/subs; the scalar
/// kernels compute in int32 and must clamp identically on store, so all
/// backends stay bit-exact even at the fits_int8 contract boundary (where
/// the bound guarantees saturation never actually binds).
inline i8 sat_i8(i32 v) {
  return static_cast<i8>(v < -128 ? -128 : (v > 127 ? 127 : v));
}

/// Fault-injection hook for DP workspace allocation ("align.dp.alloc").
/// Called by KernelArena ONLY when buffers must grow (the single heap
/// path), with the true byte deficit about to be allocated. Out-of-line so
/// the site lives in diff_common.cpp; throws FaultInjected when an armed
/// plan fires, modelling allocation failure for oversized tiles. Callers
/// recover via the kernel fallback ladder.
void check_dp_alloc(u64 bytes);

/// Thread-local counters over check_dp_alloc, i.e. over every DP-workspace
/// heap allocation. bench_hotpath and the zero-allocation tests sample
/// these around a call to prove the steady state never allocates.
struct DpAllocStats {
  u64 calls = 0;  ///< growth events that reached the allocator
  u64 bytes = 0;  ///< total bytes those growths requested
  void reset() { calls = bytes = 0; }
};
DpAllocStats& dp_alloc_stats();

/// Fault-injection hook for the dirs streaming path ("align.dirs.spill").
/// Fired by DirsStream once per finished block, right before the block is
/// handed to the spill sink; a thrown fault models spill failure and is
/// recovered through the kernel fallback ladder like any compute error.
void check_dirs_spill(u64 bytes);

/// Thread-local counters over spilled dirs blocks; tests and bench use
/// them to prove a configuration actually exercised the streaming path.
struct DirsSpillStats {
  u64 blocks = 0;  ///< blocks handed to a spill sink
  u64 bytes = 0;   ///< total bytes those blocks carried
  void reset() { blocks = bytes = 0; }
};
DirsSpillStats& dirs_spill_stats();

/// Direction byte layout (stored per cell in path mode):
///   bits 0-1: source of H — 0 diagonal (M), 1 E-gap (D), 2 F-gap (I)
///   bit 2: E(i+1,j) extends E(i,j)   (a - z + q > 0)
///   bit 3: F(i,j+1) extends F(i,j)   (b - z + q > 0)
inline constexpr u8 kDirDiag = 0;
inline constexpr u8 kDirDel = 1;
inline constexpr u8 kDirIns = 2;
inline constexpr u8 kExtDel = 1 << 2;
inline constexpr u8 kExtIns = 1 << 3;

/// Sentinel stored in dirs rows for statically-in-band cells the zdrop
/// shrink skipped; never a legal direction byte in either gap model.
/// Backtrack treats it exactly like an out-of-band cell (BandHitError).
inline constexpr u8 kDirPruned = 0xFF;

/// One-piece backtrack state machine over any direction-byte accessor
/// `dir_at(i, j) -> u8`, starting at (i_end, j_end) and walking to (0,0).
/// Shared by the resident path (contiguous dirs + diag_off) and the
/// streaming path (windowed reads over a DirsSpill sink). A run of equal
/// steps is pushed once; the path is built in `cig`'s storage (see
/// DiffWorkspace::path).
template <class DirAt>
Cigar backtrack_cells(DirAt&& dir_at, i32 i_end, i32 j_end, Cigar cig = {}) {
  cig.clear();
  i32 i = i_end, j = j_end;
  int state = 0;  // 0 = H, 1 = E (deletion run), 2 = F (insertion run)
  char run_op = 'M';
  u32 run = 0;
  auto step = [&](char op) {
    if (op != run_op) {
      cig.push(run_op, run);
      run_op = op;
      run = 0;
    }
    ++run;
  };
  while (i >= 0 && j >= 0) {
    if (state == 0) state = dir_at(i, j) & 3;
    if (state == 0) {
      step('M');
      --i;
      --j;
    } else if (state == 1) {
      step('D');
      const bool ext = i > 0 && (dir_at(i - 1, j) & kExtDel) != 0;
      --i;
      if (!ext) state = 0;
    } else {
      step('I');
      const bool ext = j > 0 && (dir_at(i, j - 1) & kExtIns) != 0;
      --j;
      if (!ext) state = 0;
    }
  }
  cig.push(run_op, run);
  if (i >= 0) cig.push('D', static_cast<u32>(i + 1));
  if (j >= 0) cig.push('I', static_cast<u32>(j + 1));
  cig.reverse();
  return cig;
}

/// The workspace's path storage for backtrack_cells (empty without one).
inline Cigar take_path(const DiffWorkspace& ws) {
  return ws.path != nullptr ? std::move(*ws.path) : Cigar{};
}

/// Reconstruct the CIGAR from direction bytes, starting at cell
/// (i_end, j_end) and walking to the aligned beginning at (0,0).
/// `diag_off[r]` locates diagonal r in `dirs`; any row stride works
/// (packed, or the arena's kLanePad-padded layout). With band > 0 rows
/// are indexed from each diagonal's static band start and a walk outside
/// the band (or into a pruned cell) throws BandHitError.
Cigar backtrack(const u8* dirs, const u64* diag_off, i32 tlen, i32 qlen, i32 i_end,
                i32 j_end, i32 band = 0, Cigar into = {});

/// Mode-dispatching backtrack over a prepared workspace: resident dirs
/// walk in place, streamed dirs are sealed and walked through the spill
/// window. Kernels call this instead of backtrack() directly.
Cigar backtrack_ws(const DiffWorkspace& ws, i32 tlen, i32 qlen, i32 i_end, i32 j_end,
                   i32 band = 0);

/// Direction row pointer for diagonal r: resident rows live at
/// diag_off[r]; streamed rows come from the block cursor (which spills a
/// finished block when the new row does not fit). nullptr in score mode.
template <class WS>
inline u8* dirs_row(const WS& ws, i32 r) {
  if (ws.stream != nullptr) return ws.stream->row(r);
  return ws.dirs != nullptr ? ws.dirs + ws.diag_off[static_cast<std::size_t>(r)]
                            : nullptr;
}

/// Tracks the best semi-global cell; candidates must be offered in
/// diagonal order, bottom-row candidate before last-column candidate
/// (all kernels and the reference DP share this tie-break).
struct BestCell {
  i64 score = 0;
  i32 i = -1, j = -1;
  bool any = false;
  void offer(i64 s, i32 ci, i32 cj) {
    if (!any || s > score) {
      score = s;
      i = ci;
      j = cj;
      any = true;
    }
  }
};

/// Handles empty-sequence degenerate cases common to every kernel.
/// Returns true (and fills `out`) when tlen == 0 or qlen == 0.
bool handle_degenerate(const DiffArgs& a, AlignResult& out);

/// Shared per-diagonal score/tracking state machine used by all kernels.
/// Kernels call `advance(r, u_at_en, v_at_st_slot...)` — to keep the hot
/// loops simple this is expressed as a small struct the kernel updates.
struct BorderTracker {
  i64 h_bot;  ///< H at (en, r-en): first column, then bottom row
  i64 h_top;  ///< H at (st, r-st): top row, then last column
  BestCell best;
  i32 tlen, qlen;

  BorderTracker(i32 tl, i32 ql, const ScoreParams& p)
      : BorderTracker(tl, ql, -(static_cast<i64>(p.gap_open) + p.gap_ext)) {}

  /// `h_init` = H(0,-1) = H(-1,0): cost of a single leading gap base
  /// (negative). Lets alternative gap models reuse the tracker.
  BorderTracker(i32 tl, i32 ql, i64 h_init)
      : h_bot(h_init), h_top(h_init), tlen(tl), qlen(ql) {}

  /// After diagonal r is computed: `u_en` = U[en] written this diagonal,
  /// `v_en` = v written this diagonal at t=en, `v_st` = v written at t=st,
  /// `u_st` = U[st] written this diagonal.
  void after_diagonal(i32 r, i8 u_en, i8 v_en, i8 v_st, i8 u_st) {
    const i32 en = diag_end(r, tlen);
    const i32 st = diag_start(r, qlen);
    // Bottom border: while en grows (en == r) advance by u; afterwards the
    // border cell slides along the bottom row, advance by v.
    h_bot += (en == r) ? u_en : v_en;
    // Top border: while st == 0 advance along the top row by v; afterwards
    // slide down the last column by u.
    h_top += (st == 0) ? v_st : u_st;
    if (en == tlen - 1) best.offer(h_bot, tlen - 1, r - (tlen - 1));
    if (r >= qlen - 1) best.offer(h_top, r - qlen + 1, qlen - 1);
  }
};

/// Banded generalization of BorderTracker: traces H along both edges of
/// the LIVE lane interval (static band ∩ zdrop survivors), accumulates
/// the semi-global candidates the full kernels would offer whenever an
/// edge coincides with the matrix border, and keeps a conservative
/// "escape ledger" — an upper bound on the score of any path that leaves
/// the band, so `hit()` proves post-hoc whether the unbanded optimum
/// could have escaped.
///
/// Edge-H bookkeeping mirrors BorderTracker exactly: when an edge lane
/// ADVANCES between diagonals (lane index +1) the border cell moves down
/// a row, so H advances by u at the new lane; when it STALLS the cell
/// slides right along a row, advancing by v. With band <= 0 both edges
/// track st/en and this reduces to BorderTracker bit-for-bit.
///
/// Ledger soundness: a path step can only exit the live interval through
/// the edge-lane cell of its departure diagonal (edges move by at most
/// one lane per diagonal, and path lanes are non-decreasing), its prefix
/// score there is bounded by the confined edge H, and any continuation
/// gains at most `match` per remaining min(rows, cols). `hit()` uses >=
/// so score TIES with a potentially-escaping path also force the full
/// rerun — that is what makes "no flag → bit-identical to full kernels,
/// end cell and CIGAR tie-breaks included" hold.
struct BandTracker {
  static constexpr i64 kLedgerNone = INT64_MIN / 4;

  i32 tlen, qlen, band, zdrop;
  bool global;
  i64 match;        ///< best per-cell gain, for the escape bound
  i32 lo = 0, hi = 0;    ///< live lane interval of the current diagonal
  i32 blo = 0, bhi = 0;  ///< static band bounds of the current diagonal
  bool lo_adv = true, hi_adv = true;  ///< edge transition vs previous diag
  i64 h_lo, h_hi;   ///< H at (lo, r-lo) / (hi, r-hi) after after_diagonal
  i64 ledger = kLedgerNone;
  i64 best_seen;    ///< running max of edge H values (zdrop reference)
  u64 cells = 0;    ///< live cells actually computed
  bool zdropped = false;
  bool dead = false;  ///< zdrop emptied the live interval; stop the DP
  BestCell best;

  BandTracker(i32 tl, i32 ql, i32 bw, i32 zd, AlignMode mode, i64 match_score,
              i64 h_init)
      : tlen(tl), qlen(ql), band(bw), zdrop(zd),
        global(mode == AlignMode::kGlobal), match(match_score), h_lo(h_init),
        h_hi(h_init), best_seen(h_init) {}

  /// Advance to diagonal r: refresh the static bounds, clip the live
  /// interval and classify both edge transitions. Returns false when the
  /// interval died — the kernel stops its diagonal loop.
  bool begin_diagonal(i32 r) {
    const i32 plo = lo, phi = hi;
    banded_bounds(r, tlen, qlen, band, &blo, &bhi);
    if (r == 0) {
      lo = hi = 0;
      lo_adv = hi_adv = true;  // H(0,0) = h_init + u(0,0) on both edges
      cells += 1;
      return true;
    }
    // The static bounds move by at most one lane per diagonal, so the
    // clipped live edges do too — precisely the invariant the edge-H
    // updates and the ledger's exit-cell argument rely on.
    lo = std::max(blo, plo);
    hi = std::min(bhi, phi + 1);
    if (lo > hi) {
      dead = true;
      return false;
    }
    lo_adv = lo != plo;
    hi_adv = hi != phi;
    cells += static_cast<u64>(hi - lo + 1);
    return true;
  }

  /// After diagonal r is computed: u/v written this diagonal at the live
  /// edge lanes (the caller resolves the layout's v slot mapping).
  void after_diagonal(i32 r, i8 u_lo, i8 v_lo, i8 u_hi, i8 v_hi) {
    h_lo += lo_adv ? u_lo : v_lo;
    h_hi += hi_adv ? u_hi : v_hi;
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    // Semi-global candidates in the full kernels' order (bottom row before
    // last column); every in-band border cell is an edge cell, so nothing
    // in band is missed.
    if (hi == en && en == tlen - 1) best.offer(h_hi, tlen - 1, r - (tlen - 1));
    if (lo == st && r >= qlen - 1) best.offer(h_lo, r - qlen + 1, qlen - 1);
    // Escape ledger: an edge strictly inside the full diagonal borders
    // out-of-band matrix cells a path could leave through.
    if (lo > st)
      ledger = std::max(
          ledger, h_lo + match * std::min<i64>(tlen - 1 - lo, qlen - 1 - (r - lo)));
    if (hi < en)
      ledger = std::max(
          ledger, h_hi + match * std::min<i64>(tlen - 1 - hi, qlen - 1 - (r - hi)));
  }

  /// ksw2-style adaptive shrink after diagonal r: while an edge H has
  /// fallen more than `zdrop` below the running best, retire that lane by
  /// walking H along the current diagonal (u_at/v_at read this diagonal's
  /// difference lanes BY LANE INDEX; the caller maps layout slots).
  /// Amortized O(total band width) across the whole alignment.
  template <class UAt, class VAt>
  void maybe_shrink(UAt&& u_at, VAt&& v_at) {
    if (zdrop <= 0 || dead) return;
    best_seen = std::max({best_seen, h_lo, h_hi});
    bool pruned = false;
    while (hi > lo && h_hi + zdrop < best_seen) {
      // H(i-1, j+1) = H(i, j) - u(i, j) + v(i-1, j+1), same diagonal.
      h_hi += -static_cast<i64>(u_at(hi)) + v_at(hi - 1);
      --hi;
      pruned = true;
    }
    while (lo < hi && h_lo + zdrop < best_seen) {
      // H(i+1, j-1) = H(i, j) - v(i, j) + u(i+1, j-1), same diagonal.
      h_lo += -static_cast<i64>(v_at(lo)) + u_at(lo + 1);
      ++lo;
      pruned = true;
    }
    if (pruned) zdropped = true;
    if (lo == hi && h_hi + zdrop < best_seen) dead = true;
  }

  /// Could the unbanded optimum have escaped the band? (Score ties count:
  /// a tie can still steal the full kernel's end-cell/CIGAR tie-break.)
  bool hit(i64 final_score) const {
    if (dead && global) return true;  // never reached the corner
    return ledger != kLedgerNone && ledger >= final_score;
  }
};

/// Assemble the AlignResult of a banded kernel run from its BandTracker:
/// cells/zdropped bookkeeping, the global-corner or best-border score,
/// hit() evaluation, and the banded backtrack (skipped when flagged).
/// Shared by the scalar and every SIMD banded kernel (diff_scalar.cpp).
AlignResult finish_banded(const DiffArgs& a, const DiffWorkspace& ws,
                          const BandTracker& track);

/// Band guard for backtrack accessors: row-relative index of (i, j)
/// within its diagonal's static band row, throwing when the recorded
/// path stepped outside the band.
inline u64 banded_row_index(i32 i, i32 j, i32 tlen, i32 qlen, i32 band) {
  i32 lo, hi;
  banded_bounds(i + j, tlen, qlen, band, &lo, &hi);
  if (i < lo || i > hi) throw BandHitError("backtrack left the band");
  return static_cast<u64>(i - lo);
}

/// Pruned-cell guard applied to every banded backtrack read.
inline u8 check_banded_dir(u8 b) {
  if (b == kDirPruned) throw BandHitError("backtrack entered a zdrop-pruned cell");
  return b;
}

}  // namespace detail
}  // namespace manymap
