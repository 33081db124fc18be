// Alignment scoring parameters (one-piece affine gap, as in the paper's
// Eq. 1: gap cost = q + k*e) and the 5x5 substitution matrix over
// {A,C,G,T,N}.
#pragma once

#include <array>

#include "base/common.hpp"

namespace manymap {

struct ScoreParams {
  i32 match = 2;     ///< a: match score (positive)
  i32 mismatch = 4;  ///< b: mismatch penalty (positive; applied as -b)
  i32 gap_open = 4;  ///< q: gap open cost (positive)
  i32 gap_ext = 2;   ///< e: gap extension cost (positive)

  /// Substitution score for base codes (N scores as mismatch).
  i32 sub(u8 a, u8 b) const {
    if (a >= 4 || b >= 4) return -mismatch;
    return a == b ? match : -mismatch;
  }

  /// minimap2 -ax map-pb style parameters (one-piece approximation).
  static ScoreParams map_pb() { return ScoreParams{2, 5, 4, 2}; }
  /// minimap2 -ax map-ont style parameters (one-piece approximation).
  static ScoreParams map_ont() { return ScoreParams{2, 4, 4, 2}; }

  /// True if every value the int8 difference kernels store or stream
  /// through a signed 8-bit lane is representable. The Suzuki–Kasahara
  /// bound puts the stored differences at u,v in [-(q+e), match+q+e] and
  /// x,y in [-(q+e), -e], so two constraints bind:
  ///  - match + q + e (the u/v swing when a long gap closes into a match
  ///    run), NOT max(match, q+e) as an earlier revision assumed — that
  ///    admitted parameter sets (e.g. match=100, q=40, e=10) whose lanes
  ///    wrapped in the scalar kernels while the SIMD kernels saturated;
  ///  - q + e <= 64, since the intermediate sums x+v and y+u reach
  ///    -2(q+e), which must not fall below -128 (q=100, e=24 saturated
  ///    there and every SIMD kernel lost the optimum).
  /// A small margin below 127 keeps saturating and exact arithmetic
  /// identical.
  bool fits_int8() const {
    return match + gap_open + gap_ext <= 125 && gap_open + gap_ext <= 64 &&
           mismatch <= 125;
  }
};

/// Dense 5x5 byte matrix used by the kernels' score lookups.
struct ScoreMatrix {
  std::array<i8, 25> m{};

  explicit ScoreMatrix(const ScoreParams& p) {
    for (u8 a = 0; a < 5; ++a)
      for (u8 b = 0; b < 5; ++b) m[a * 5 + b] = static_cast<i8>(p.sub(a, b));
  }
  i8 operator()(u8 a, u8 b) const { return m[a * 5 + b]; }
};

}  // namespace manymap
