#include "index/minimizer.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace manymap {

namespace {

/// A key of ~0 marks "no k-mer" (N inside it, palindrome, or before the
/// first k bases): real hashes fit in 2k <= 56 bits, so ~0 never wins.
constexpr u64 kNone = ~0ULL;

/// Pass 2: hash a block of canonical k-mers in place, leaving kNone as
/// is. The fixed 8-wide inner loop is what the vectoriser turns into
/// 64-bit lanes; the clones pick the widest lanes the CPU has.
__attribute__((target_clones("avx512f", "avx2", "default")))
void hash_block(u64* keys, std::size_t n, u64 mask) {
  for (std::size_t i = 0; i < n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) {
      const u64 k = keys[i + l];
      const u64 h = invertible_hash(k, mask);
      keys[i + l] = k == kNone ? kNone : h;
    }
}

/// Widest window the vector window pass takes: it costs O(w) per base,
/// against the amortized O(1) of the scalar pass.
constexpr std::size_t kVectorWindowMax = 32;

#if defined(__x86_64__)
/// Pass 3 on AVX-512: the minimum of each window ending at key[0, n) (n a
/// multiple of 8; keys from key[1-w] readable) and how far back the
/// rightmost position holding it lies. Eight windows per step: the
/// minimum over w shifted loads, then the newest equal key, found by
/// overwriting from the oldest shift down to the newest.
__attribute__((target("avx512f"))) void window_minima_avx512(const u64* key, std::size_t n,
                                                             std::size_t w, u64* min_key,
                                                             u8* back) {
  for (std::size_t j = 0; j < n; j += 8) {
    __m512i m = _mm512_loadu_si512(key + j);
    for (std::size_t s = 1; s < w; ++s) m = _mm512_min_epu64(m, _mm512_loadu_si512(key + j - s));
    __m512i b = _mm512_setzero_si512();
    for (std::size_t s = w; s-- > 1;) {
      const __mmask8 eq = _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(key + j - s), m);
      b = _mm512_mask_mov_epi64(b, eq, _mm512_set1_epi64(static_cast<long long>(s)));
    }
    const __mmask8 eq0 = _mm512_cmpeq_epu64_mask(_mm512_loadu_si512(key + j), m);
    b = _mm512_mask_mov_epi64(b, eq0, _mm512_setzero_si512());
    _mm512_storeu_si512(min_key + j, m);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(back + j), _mm512_cvtepi64_epi8(b));
  }
}
#endif

}  // namespace

std::vector<Minimizer> sketch(const std::vector<u8>& seq, u32 rid, const SketchParams& p) {
  MM_REQUIRE(p.valid(), "sketch params out of range (4 <= k <= 28, 1 <= w <= 256)");
  std::vector<Minimizer> out;
  const std::size_t n = seq.size();
  if (n < p.k) return out;
  out.reserve(2 * n / (p.w + 1) + 16);  // random-sequence density is 2/(w+1)

  const u64 mask = (1ULL << (2 * p.k)) - 1;
  const u32 shift = 2 * (p.k - 1);
  const std::size_t w = p.w;
  // A full window ends at every position i >= k-1 + w-1.
  const std::size_t first_full = static_cast<std::size_t>(p.k) + w - 2;

  // keys/rev[0, w-1) carry the previous block's last w-1 positions, so
  // the window ending at any position of this block is keys[x-w+1 .. x]
  // with x = w-1 + offset; positions before 0 read kNone. The hash pass
  // runs in whole groups of 8, over a tail padded with kNone.
  std::array<u64, SketchParams::kMaxW + kSketchBlock + 8> keys;
  std::array<u8, SketchParams::kMaxW + kSketchBlock> rev_strand;
  std::array<std::size_t, kSketchBlock> found;  // positions of this block's minimizers
  std::array<u64, kSketchBlock + 8> win_key;
  std::array<u8, kSketchBlock + 8> win_back;
#if defined(__x86_64__)
  const bool vector_windows = w <= kVectorWindowMax && cpu_features().avx512bw;
#else
  const bool vector_windows = false;
#endif
  std::fill_n(keys.begin(), w - 1, kNone);

  u64 fwd = 0, rev = 0;
  u32 kmer_span = 0;  // consecutive non-N bases, capped at k
  u64 min_key = kNone;
  std::size_t min_pos = 0;
  std::size_t last_pos = ~std::size_t{0};  // position of the last emitted minimizer

  for (std::size_t base = 0; base < n; base += kSketchBlock) {
    const std::size_t len = std::min(kSketchBlock, n - base);
    u64* const key = keys.data() + (w - 1);
    u8* const strand = rev_strand.data() + (w - 1);

    // Pass 1: rolling canonical k-mers. An N still shifts its low two bits
    // in; the span reset keeps every k-mer that covers it invalid.
    for (std::size_t j = 0; j < len; ++j) {
      const u8 b = seq[base + j];
      const u64 c = b & 3;
      fwd = ((fwd << 2) | c) & mask;
      rev = (rev >> 2) | ((3 ^ c) << shift);
      kmer_span = (kmer_span + (kmer_span < p.k ? 1 : 0)) & (0 - static_cast<u32>(b < 4));
      // Masks, not ?:, so that no data-dependent branch is emitted; a
      // palindromic k-mer (fwd == rev) has no canonical strand.
      const u64 use_rev = rev < fwd ? 1 : 0;
      const u64 canonical = (rev & (0 - use_rev)) | (fwd & (use_rev - 1));
      const u64 valid = 0 - static_cast<u64>((kmer_span == p.k) & (fwd != rev));
      key[j] = canonical | ~valid;
      strand[j] = static_cast<u8>(use_rev);
    }
    std::fill(key + len, key + ((len + 7) & ~std::size_t{7}), kNone);

    // Pass 2: hashes.
    hash_block(key, len, mask);

    // Pass 3: window minimum (smallest key, rightmost on ties). Every
    // window writes its minimum's position; the cursor advances only past
    // a new one, so emission is a store and an add, not a branch.
    std::size_t found_n = 0;
    auto offer = [&](std::size_t i, u64 k, std::size_t pos) {
      found[found_n] = pos;
      const std::size_t emit = 0 - static_cast<std::size_t>((i >= first_full) & (k != kNone) &
                                                            (pos != last_pos));
      found_n += emit & 1;
      last_pos = (pos & emit) | (last_pos & ~emit);
    };
#if defined(__x86_64__)
    if (vector_windows) {
      window_minima_avx512(key, (len + 7) & ~std::size_t{7}, w, win_key.data(), win_back.data());
      for (std::size_t j = 0; j < len; ++j) offer(base + j, win_key[j], base + j - win_back[j]);
    }
#endif
    for (std::size_t j = 0; j < len && !vector_windows; ++j) {
      const std::size_t i = base + j;
      const u64 k = key[j];
      const u64 take = 0 - static_cast<u64>(k <= min_key);  // the newest k-mer wins a tie
      min_key = (k & take) | (min_key & ~take);
      min_pos = (i & take) | (min_pos & ~take);
      if (take == 0 && min_pos + w == i) {
        // The minimum just left the window: rescan oldest to newest so
        // that `<=` keeps the rightmost of equal keys.
        const u64* win = key + j + 1 - w;
        min_key = kNone;
        std::size_t at = 0;
        for (std::size_t s = 0; s < w; ++s) {
          const bool t = win[s] <= min_key;
          min_key = t ? win[s] : min_key;
          at = t ? s : at;
        }
        min_pos = i + 1 - w + at;
      }
      offer(i, min_key, min_pos);
    }
    for (std::size_t f = 0; f < found_n; ++f) {
      const std::ptrdiff_t x = static_cast<std::ptrdiff_t>(found[f] - base);  // >= 1-w
      out.push_back(Minimizer{key[x], static_cast<u32>(found[f]), rid, strand[x] != 0});
    }

    if (w > 1) {
      std::memmove(keys.data(), key + len - (w - 1), (w - 1) * sizeof(u64));
      std::memmove(rev_strand.data(), strand + len - (w - 1), w - 1);
    }
  }
  return out;
}

}  // namespace manymap
