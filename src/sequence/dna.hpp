// DNA alphabet handling: 2-bit base codes (A=0, C=1, G=2, T=3, N=4),
// ASCII conversion tables, complement/reverse-complement.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "base/common.hpp"

namespace manymap {

inline constexpr u8 kBaseN = 4;  ///< Code for ambiguous base.

/// ASCII -> code table (case-insensitive; everything non-ACGT maps to N).
extern const u8 kAsciiToCode[256];
/// code -> ASCII.
extern const char kCodeToAscii[5];

inline u8 base_code(char c) { return kAsciiToCode[static_cast<u8>(c)]; }
inline char base_char(u8 code) { return kCodeToAscii[code <= kBaseN ? code : kBaseN]; }

/// Complement of a base code; N stays N.
inline u8 complement_code(u8 code) { return code < 4 ? static_cast<u8>(3 - code) : kBaseN; }

/// Encode `n` ASCII bases into `out` (n bytes), exactly as kAsciiToCode
/// would: 64 bytes per step with SSE2 compares, then 16-byte steps (the
/// last one overlapping), and the table for inputs under 16 bytes.
/// Every sequence reader (FASTA, FASTQ, from_ascii) decodes through it.
void encode_bases(const char* ascii, std::size_t n, u8* out);
/// Number of positions i < n with a[i] == b[i] and a[i] not N (a vector
/// compare per 16 bases).
std::size_t count_matches(const u8* a, const u8* b, std::size_t n);

/// Encode an ASCII sequence into base codes.
std::vector<u8> encode_dna(std::string_view ascii);
/// Decode base codes back to ASCII.
std::string decode_dna(const std::vector<u8>& codes);

/// Reverse complement of an encoded sequence.
std::vector<u8> reverse_complement(const std::vector<u8>& codes);
/// Reverse complement of an ASCII sequence.
std::string reverse_complement_ascii(std::string_view ascii);

/// Fraction of G/C among non-N bases (0 if all N or empty).
double gc_content(const std::vector<u8>& codes);

}  // namespace manymap
