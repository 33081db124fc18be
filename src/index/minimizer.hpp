// Minimizer seeding (Roberts et al. 2004), as used by minimap2 (§3.1):
// from every window of w consecutive k-mers, the one with the smallest
// (invertible) hash over its canonical strand is selected. Canonical
// hashing makes the minimizer set strand-symmetric, which is how the
// mapper detects reverse-complement alignments.
//
// Selection rule (exact; the index bytes and every mapping depend on it):
//   - a window ends at every position i >= k-1 + w-1 and holds the k-mers
//     ending at i-w+1 .. i;
//   - its minimizer is the smallest hash among its valid k-mers, the
//     rightmost one on a hash tie;
//   - a k-mer is invalid if it spans an N or is its own reverse
//     complement (a palindrome has no canonical strand);
//   - a window with no valid k-mer selects nothing, and a minimizer that
//     several consecutive windows select is emitted once.
// sketch() runs three passes over blocks of kSketchBlock bases, carrying
// the last w-1 keys from block to block:
//   1. a rolling pass that turns each position into its canonical k-mer
//      (or "none") and strand;
//   2. a lane-parallel invertible_hash pass over that block;
//   3. a window pass: on AVX-512 with w <= 32, eight windows at a time
//      (minimum of w shifted loads, then the rightmost position holding
//      it); otherwise the current minimum kept with selects and the w keys
//      rescanned only when it leaves the window (as minimap2's mm_sketch
//      does, ~2/(w+1) of the bases). Every window writes its candidate
//      unconditionally and the output advances only on a new one.
#pragma once

#include <vector>

#include "sequence/sequence.hpp"

namespace manymap {

struct Minimizer {
  u64 key = 0;    ///< invertible hash of the canonical k-mer
  u32 pos = 0;    ///< position of the k-mer's LAST base in the sequence
  u32 rid = 0;    ///< sequence id (contig id for references, 0 for queries)
  bool strand_rev = false;  ///< canonical k-mer was the reverse complement

  friend bool operator==(const Minimizer&, const Minimizer&) = default;
};

struct SketchParams {
  static constexpr u32 kMinK = 4;
  static constexpr u32 kMaxK = 28;   ///< 2k bits fit in u64 with headroom
  static constexpr u32 kMaxW = 256;  ///< sketch() carries w-1 keys in fixed arrays

  u32 k = 15;  ///< k-mer size
  u32 w = 10;  ///< window size

  /// The one k/w contract. sketch() requires it; the index loaders refuse
  /// a file whose header breaks it, and `manymap index` refuses such
  /// options, so no index that cannot be sketched against is ever used.
  bool valid() const { return k >= kMinK && k <= kMaxK && w >= 1 && w <= kMaxW; }
};

/// Thomas Wang's 64-bit invertible integer hash (minimap2's hash64).
inline u64 invertible_hash(u64 key, u64 mask) {
  key = (~key + (key << 21)) & mask;
  key = key ^ (key >> 24);
  key = ((key + (key << 3)) + (key << 8)) & mask;
  key = key ^ (key >> 14);
  key = ((key + (key << 2)) + (key << 4)) & mask;
  key = key ^ (key >> 28);
  key = (key + (key << 31)) & mask;
  return key;
}

/// Bases per sketch() pass block.
inline constexpr std::size_t kSketchBlock = 512;

/// Extract the minimizers of `seq` (codes) by the rule above. Returns
/// minimizers ordered by position. Requires p.valid().
std::vector<Minimizer> sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p);

}  // namespace manymap
