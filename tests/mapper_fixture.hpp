// Small seeded mapping fixture shared by the mapper-level suites: one
// 30 kbp synthetic contig, its index, and simulated PacBio reads.
#pragma once

#include <vector>

#include "core/options.hpp"
#include "index/minimizer.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {

struct MapperFixture {
  Reference ref;
  std::vector<SimulatedRead> reads;
  MinimizerIndex index;

  explicit MapperFixture(u64 seed, const MapOptions& base, u32 num_reads = 4,
                         u32 max_len = 4'000)
      : ref(make_ref(seed)),
        reads(make_reads(ref, seed, num_reads, max_len)),
        index(MinimizerIndex::build(ref, base.sketch)) {}

  static Reference make_ref(u64 seed) {
    GenomeParams gp;
    gp.total_length = 30'000;
    gp.num_contigs = 1;
    gp.seed = seed;
    return generate_genome(gp);
  }
  static std::vector<SimulatedRead> make_reads(const Reference& r, u64 seed, u32 n,
                                               u32 max_len) {
    ReadSimParams rp;
    rp.num_reads = n;
    rp.seed = seed * 13 + 1;
    rp.profile = ErrorProfile::pacbio();
    rp.profile.max_length = max_len;
    return ReadSimulator(r, rp).simulate();
  }
};

}  // namespace manymap
