// CIGAR representation for base-level alignment paths.
//
// Conventions (SAM-like):
//   'M' consumes one target and one query base (match or mismatch),
//   'D' consumes one target base (deletion from the query),
//   'I' consumes one query base (insertion into the query).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "base/common.hpp"

namespace manymap {

struct ScoreParams;

/// What a final path reports: its exact score, its 'M' columns whose bases
/// are equal and not N, and its length (the sum of all op lengths).
struct PathStats {
  i64 score = 0;
  u64 matches = 0;
  u64 length = 0;
};

struct CigarOp {
  char op = 'M';
  u32 len = 0;
  friend bool operator==(const CigarOp&, const CigarOp&) = default;
};

class Cigar {
 public:
  Cigar() = default;

  /// Append, merging with the previous op when equal.
  void push(char op, u32 len);

  /// Reverse the op order in place (backtracking emits tail-first).
  void reverse();
  /// Drop every op, keeping the storage for the next path.
  void clear() { ops_.clear(); }

  const std::vector<CigarOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Number of target bases consumed (M + D).
  u64 target_span() const;
  /// Number of query bases consumed (M + I).
  u64 query_span() const;

  std::string to_string() const;
  static Cigar from_string(std::string_view s);

  /// Score this path against concrete sequences with the given parameters;
  /// used to cross-check kernels (path score must equal reported score).
  i64 score(const std::vector<u8>& target, const std::vector<u8>& query, u64 t_off, u64 q_off,
            const ScoreParams& params) const;

  /// score() and the match count in one pass: an 'M' run of L columns
  /// with m matches scores m·match − (L−m)·mismatch, and m comes from a
  /// vector compare over the run. MM_REQUIREs that the path stays inside
  /// both sequences.
  PathStats stats(std::span<const u8> target, std::span<const u8> query, u64 t_off, u64 q_off,
                  const ScoreParams& params) const;

  friend bool operator==(const Cigar&, const Cigar&) = default;

 private:
  std::vector<CigarOp> ops_;
};

}  // namespace manymap
