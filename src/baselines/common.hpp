// Shared helpers for the baseline aligners.
#pragma once

#include "baselines/baseline.hpp"
#include "chain/chain.hpp"
#include "sequence/sequence.hpp"

namespace manymap {
namespace baseline_detail {

/// Contigs concatenated into one text (for suffix-array/FM indexing), with
/// a position-resolution table back to (contig, offset).
struct ConcatRef {
  std::vector<u8> text;
  std::vector<u64> starts;  ///< start offset of each contig in `text`

  /// Resolve a concatenated position; returns (contig id, offset).
  std::pair<u32, u64> resolve(u64 pos) const;
  /// True if [pos, pos+len) stays inside one contig.
  bool within_one_contig(u64 pos, u64 len) const;
};

ConcatRef concat_reference(const Reference& ref);

/// Build a Mapping record from a chain (coordinates only; no base-level
/// path). `k` is the anchor k-mer/seed length used by the producer.
Mapping mapping_from_chain(const Reference& ref, const Sequence& read, const Chain& chain,
                           u32 k);

/// Assign mapq from the chain scores of the first two mappings. The
/// mapper differs: it takes f2 from its runner-up chain, read before it
/// drops weak secondary chains.
void assign_mapq(std::vector<Mapping>& mappings);

}  // namespace baseline_detail
}  // namespace manymap
