// manymap's top-level public API: build (or load) an index over a
// reference, then map reads — one at a time or in batches through the
// §4.4.4 pipelines.
//
// Quick start:
//   Reference ref = ...;
//   Aligner aligner(ref, MapOptions::map_pb());
//   auto mappings = aligner.map_read(read);
//   std::cout << to_paf_block(mappings);
#pragma once

#include "core/mapper.hpp"
#include "core/paf.hpp"
#include "pipeline/pipeline.hpp"

namespace manymap {

enum class PipelineKind { kMinimap2, kManymap };

class Aligner {
 public:
  Aligner(const Reference& ref, MapOptions opt) : mapper_(ref, std::move(opt)) {}
  Aligner(const Reference& ref, MinimizerIndex index, MapOptions opt)
      : mapper_(ref, std::move(index), std::move(opt)) {}

  /// Map a single read (mappings best-first).
  std::vector<Mapping> map_read(const Sequence& read, MapTimings* timings = nullptr) const {
    return mapper_.map(read, timings);
  }

  struct BatchResult {
    std::string paf;  ///< PAF lines for all reads, in batch order; the
                      ///< manymap pipeline emits each batch longest-first
    PipelineStats stats;
    u64 mapped_reads = 0;  ///< reads with at least one mapping
  };

  static constexpr u64 kDefaultBatchBases = 2'000'000;

  /// Map many reads through one of the two pipeline architectures.
  /// `with_cigar` adds the cg:Z tag to every PAF line, as the serial path
  /// does (to_paf_block).
  BatchResult map_reads(std::vector<Sequence> reads, PipelineKind pipeline, u32 compute_threads,
                        u64 batch_bases = kDefaultBatchBases, bool with_cigar = false) const;

  const Mapper& mapper() const { return mapper_; }

 private:
  Mapper mapper_;
};

}  // namespace manymap
