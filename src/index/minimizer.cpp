#include "index/minimizer.hpp"

#include <algorithm>
#include <array>

namespace manymap {

u64 invertible_hash(u64 key, u64 mask) {
  key = (~key + (key << 21)) & mask;
  key = key ^ (key >> 24);
  key = ((key + (key << 3)) + (key << 8)) & mask;
  key = key ^ (key >> 14);
  key = ((key + (key << 2)) + (key << 4)) & mask;
  key = key ^ (key >> 28);
  key = (key + (key << 31)) & mask;
  return key;
}

std::vector<Minimizer> sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p) {
  MM_REQUIRE(p.valid(), "sketch params out of range (4 <= k <= 28, 1 <= w <= 256)");
  std::vector<Minimizer> out;
  const std::size_t n = seq.size();
  if (n < p.k) return out;
  out.reserve(2 * n / (p.w + 1) + 16);  // random-sequence density is 2/(w+1)

  const u64 mask = (1ULL << (2 * p.k)) - 1;
  const u32 shift = 2 * (p.k - 1);
  // A hash of ~0 marks "no k-mer" (N inside it, palindrome, or before the
  // first k bases): real hashes fit in 2k <= 56 bits, so ~0 never wins.
  constexpr u64 kNone = ~0ULL;

  // Ring of the last w k-mers, one slot per window position: hash, and
  // position << 1 | strand. Alongside it the window's current minimum
  // (smallest hash, rightmost on ties). The ring is rescanned only when
  // that minimum slides out of the window, which on random sequence
  // happens for ~2/(w+1) of the bases.
  std::array<u64, SketchParams::kMaxW> keys;
  std::array<u64, SketchParams::kMaxW> info;
  std::fill_n(keys.begin(), p.w, kNone);
  std::fill_n(info.begin(), p.w, 0);
  u64 min_key = kNone, min_info = 0;
  u32 min_slot = 0, slot = 0;
  u64 last_key = kNone, last_info = 0;  // last emitted minimizer

  u64 fwd = 0, rev = 0;
  u32 kmer_span = 0;  // consecutive non-N bases accumulated
  // A full window ends at every position i >= k-1 + w-1.
  const std::size_t first_full = static_cast<std::size_t>(p.k) + p.w - 2;

  for (std::size_t i = 0; i < n; ++i) {
    const u8 b = seq[i];
    u64 key = kNone, key_info = 0;
    if (b < 4) {
      fwd = ((fwd << 2) | b) & mask;
      rev = (rev >> 2) | (static_cast<u64>(3 - b) << shift);
      ++kmer_span;
    } else {
      kmer_span = 0;  // N breaks every k-mer covering it
    }
    if (kmer_span >= p.k && fwd != rev) {  // skip palindromic k-mers (strand ambiguous)
      const bool use_rev = rev < fwd;
      key = invertible_hash(use_rev ? rev : fwd, mask);
      key_info = (static_cast<u64>(static_cast<u32>(i)) << 1) | (use_rev ? 1 : 0);
    }
    keys[slot] = key;
    info[slot] = key_info;
    if (key <= min_key) {
      // The newest k-mer wins a tie (minimap2 prefers fresh seeds).
      min_key = key;
      min_info = key_info;
      min_slot = slot;
    } else if (slot == min_slot) {
      // The minimum just left the window: rescan oldest to newest so that
      // `<=` keeps the rightmost of equal hashes. Written as selects, since
      // which slot wins is unpredictable.
      min_key = kNone;
      for (u32 s = slot + 1; s < p.w; ++s) {
        const bool take = keys[s] <= min_key;
        min_key = take ? keys[s] : min_key;
        min_slot = take ? s : min_slot;
      }
      for (u32 s = 0; s <= slot; ++s) {
        const bool take = keys[s] <= min_key;
        min_key = take ? keys[s] : min_key;
        min_slot = take ? s : min_slot;
      }
      min_info = info[min_slot];
    }
    // Consecutive windows that select the same k-mer emit it once.
    if (i >= first_full && min_key != kNone && (min_key != last_key || min_info != last_info)) {
      out.push_back(
          Minimizer{min_key, static_cast<u32>(min_info >> 1), rid, (min_info & 1) != 0});
      last_key = min_key;
      last_info = min_info;
    }
    if (++slot == p.w) slot = 0;
  }
  return out;
}

}  // namespace manymap
