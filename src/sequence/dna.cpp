#include "sequence/dna.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace manymap {

namespace {
// 'A'=65 'C'=67 'G'=71 'T'=84 'U'=85, lowercase +32. Everything else -> N(4).
constexpr u8 N = kBaseN;
}  // namespace

const u8 kAsciiToCode[256] = {
    // 0..63
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    // 64..127: @ A B C D E F G H I J K L M N O
    N, 0, N, 1, N, N, N, 2, N, N, N, N, N, N, N, N,
    // P Q R S T U V W X Y Z [ \ ] ^ _
    N, N, N, N, 3, 3, N, N, N, N, N, N, N, N, N, N,
    // ` a b c d e f g h i j k l m n o
    N, 0, N, 1, N, N, N, 2, N, N, N, N, N, N, N, N,
    // p q r s t u v w x y z { | } ~ DEL
    N, N, N, N, 3, 3, N, N, N, N, N, N, N, N, N, N,
    // 128..255
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
    N, N, N, N, N, N, N, N, N, N, N, N, N, N, N, N,
};

const char kCodeToAscii[5] = {'A', 'C', 'G', 'T', 'N'};

namespace {

#if defined(__SSE2__)
/// 16 bases at once. Setting bit 5 folds case, and only 'A' and 'a' fold
/// to 'a' (likewise c, g, t, u), so the compares decide exactly what the
/// table does: a/c/g/t/u in either case to 0..3, every other byte to N.
inline __m128i encode16(__m128i x) {
  const __m128i l = _mm_or_si128(x, _mm_set1_epi8(0x20));
  const __m128i a = _mm_cmpeq_epi8(l, _mm_set1_epi8('a'));
  const __m128i c = _mm_cmpeq_epi8(l, _mm_set1_epi8('c'));
  const __m128i g = _mm_cmpeq_epi8(l, _mm_set1_epi8('g'));
  const __m128i t = _mm_or_si128(_mm_cmpeq_epi8(l, _mm_set1_epi8('t')),
                                 _mm_cmpeq_epi8(l, _mm_set1_epi8('u')));
  const __m128i acgt = _mm_or_si128(_mm_or_si128(a, c), _mm_or_si128(g, t));
  const __m128i code = _mm_or_si128(_mm_and_si128(c, _mm_set1_epi8(1)),
                                    _mm_or_si128(_mm_and_si128(g, _mm_set1_epi8(2)),
                                                 _mm_and_si128(t, _mm_set1_epi8(3))));
  return _mm_or_si128(code, _mm_andnot_si128(acgt, _mm_set1_epi8(kBaseN)));
}
#endif

}  // namespace

void encode_bases(const char* ascii, std::size_t n, u8* out) {
  std::size_t i = 0;
#if defined(__SSE2__)
  auto step = [&](std::size_t j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                     encode16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(ascii + j))));
  };
  for (; i + 64 <= n; i += 64)
    for (std::size_t j = i; j < i + 64; j += 16) step(j);
  if (n >= 16) {
    // The rest in 16-byte steps, the last one ending at n: it may redo
    // bytes already written, with the same values.
    for (; i + 16 < n; i += 16) step(i);
    if (i < n) step(n - 16);
    return;
  }
#endif
  for (; i < n; ++i) out[i] = base_code(ascii[i]);
}

std::size_t count_matches(const u8* a, const u8* b, std::size_t n) {
  std::size_t matches = 0, i = 0;
#if defined(__SSE2__)
  const __m128i t_code = _mm_set1_epi8(3);
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i acgt = _mm_cmpeq_epi8(_mm_min_epu8(x, t_code), x);  // unsigned x <= 3
    const __m128i hit = _mm_and_si128(_mm_cmpeq_epi8(x, y), acgt);
    matches += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm_movemask_epi8(hit))));
  }
#endif
  for (; i < n; ++i) matches += (a[i] == b[i] && a[i] < kBaseN) ? 1 : 0;
  return matches;
}

std::vector<u8> encode_dna(std::string_view ascii) {
  std::vector<u8> out(ascii.size());
  encode_bases(ascii.data(), ascii.size(), out.data());
  return out;
}

std::string decode_dna(const std::vector<u8>& codes) {
  std::string out(codes.size(), 'N');
  for (std::size_t i = 0; i < codes.size(); ++i) out[i] = base_char(codes[i]);
  return out;
}

std::vector<u8> reverse_complement(const std::vector<u8>& codes) {
  std::vector<u8> out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i)
    out[codes.size() - 1 - i] = complement_code(codes[i]);
  return out;
}

std::string reverse_complement_ascii(std::string_view ascii) {
  return decode_dna(reverse_complement(encode_dna(ascii)));
}

double gc_content(const std::vector<u8>& codes) {
  std::size_t gc = 0, acgt = 0;
  for (u8 c : codes) {
    if (c < 4) {
      ++acgt;
      if (c == 1 || c == 2) ++gc;
    }
  }
  return acgt == 0 ? 0.0 : static_cast<double>(gc) / static_cast<double>(acgt);
}

}  // namespace manymap
