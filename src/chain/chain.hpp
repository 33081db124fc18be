// Co-linear chaining of anchors (minimap2's chaining DP, §3.1): find
// high-scoring chains of anchors with consistent diagonal movement;
// chains approximate the overlap between query and reference and are
// later refined by base-level alignment.
#pragma once

#include <bit>
#include <vector>

#include "chain/anchor.hpp"

namespace manymap {

struct ChainParams {
  u32 seed_length = 15;       ///< k (anchor width used as match credit)
  u32 max_dist = 5000;        ///< max gap between consecutive anchors
  u32 bandwidth = 500;        ///< max |dt - dq| between consecutive anchors
  u32 max_iter = 50;          ///< predecessor search depth
  u32 max_skip = 25;          ///< heuristic early stop (minimap2 -p)
  u32 min_count = 3;          ///< min anchors per chain
  i32 min_score = 40;         ///< min chain score
  double primary_overlap = 0.5;  ///< query-overlap ratio marking secondaries
};

struct Chain {
  std::vector<Anchor> anchors;  ///< in increasing coordinate order
  i32 score = 0;
  u32 rid = 0;
  bool rev = false;
  bool primary = true;
  // Diagonal geometry, filled by chain_anchors. The diagonal of an anchor
  // is tpos - qpos; between consecutive anchors the drift |dt - dq| bounds
  // the net indel imbalance the alignment must absorb inside that gap.
  u32 max_gap_drift = 0;  ///< max |dt - dq| over consecutive anchor gaps
  u32 diag_spread = 0;    ///< max diagonal - min diagonal over all anchors

  u32 tstart() const { return anchors.front().tpos; }
  u32 tend() const { return anchors.back().tpos; }
  u32 qstart() const { return anchors.front().qpos; }
  u32 qend() const { return anchors.back().qpos; }

  static i64 diagonal(const Anchor& a) {
    return static_cast<i64>(a.tpos) - static_cast<i64>(a.qpos);
  }
  /// |dt - dq| across the gap ending at anchors[i] (i >= 1).
  u32 gap_drift(std::size_t i) const {
    const i64 d = diagonal(anchors[i]) - diagonal(anchors[i - 1]);
    return static_cast<u32>(d < 0 ? -d : d);
  }
};

/// minimap2's gap cost between consecutive anchors, 0.01·k·dd + log2(dd)/2
/// truncated, where dd = |dq - dt| and k = `seed_length`. The linear term is
/// computed as (k·dd)/100 in integers; for every k in [4, 28] and every u32
/// dd that equals the floating-point static_cast<i32>(0.01 * k * dd).
inline i32 gap_cost(u32 dq, u32 dt, u32 seed_length) {
  const u32 dd = dq > dt ? dq - dt : dt - dq;
  if (dd == 0) return 0;
  return static_cast<i32>(static_cast<u64>(seed_length) * dd / 100) +
         ((static_cast<i32>(std::bit_width(dd)) - 1) >> 1);
}

/// Chain sorted anchors; returns chains sorted by score (descending) with
/// primary/secondary flags assigned by query-interval overlap.
std::vector<Chain> chain_anchors(const std::vector<Anchor>& anchors, const ChainParams& p);

}  // namespace manymap
