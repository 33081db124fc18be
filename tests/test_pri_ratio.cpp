// Chain selection before DP (minimap2's -p rule, MapOptions::pri_ratio):
// secondary chains scoring below pri_ratio x the best chain are dropped
// before alignment and supplementary chains are kept. On these reads the
// primary mapping (MAPQ included) is also the same as when every chain is
// aligned; that is measured here, not guaranteed (DESIGN.md, "Chain
// selection before DP").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "base/random.hpp"
#include "chain/anchor.hpp"
#include "chain/chain.hpp"
#include "core/mapper.hpp"
#include "core/options.hpp"
#include "mapper_fixture.hpp"

namespace manymap {
namespace {

/// Every field of a mapping, so a mismatch names the field that moved.
std::string describe(const Mapping& m) {
  std::ostringstream os;
  os << m.qname << " qlen=" << m.qlen << " q=[" << m.qstart << ',' << m.qend << ") "
     << (m.rev ? '-' : '+') << " rid=" << m.rid << ' ' << m.rname << " rlen=" << m.rlen
     << " t=[" << m.tstart << ',' << m.tend << ") score=" << m.score
     << " chain_score=" << m.chain_score << " mapq=" << m.mapq
     << " primary=" << m.primary << " matches=" << m.matches
     << " align_length=" << m.align_length << " cigar=" << m.cigar.to_string();
  return os.str();
}

std::vector<std::string> describe(const std::vector<Mapping>& ms) {
  std::vector<std::string> out;
  for (const auto& m : ms) out.push_back(describe(m));
  return out;
}

MapOptions align_every_chain(MapOptions opt) {
  opt.pri_ratio = 0.0;
  return opt;
}

/// The chains Mapper::map aligns for `read` when every chain is kept,
/// best first, recomputed from the mapper's own index and occurrence
/// cutoff.
std::vector<Chain> candidate_chains(const Mapper& mapper, const Sequence& read) {
  const MapOptions& opt = mapper.options();
  const auto mins = sketch(read.codes, 0, opt.sketch);
  const auto anchors = collect_anchors(mapper.index(), mins,
                                       static_cast<u32>(read.size()), mapper.max_occ());
  auto chains = chain_anchors(anchors, opt.chain);
  if (chains.size() > opt.max_mappings) chains.resize(opt.max_mappings);
  return chains;
}

/// minimap2's -p rule: `c` is secondary and scores below ratio x best.
bool fails_ratio(const Chain& c, const std::vector<Chain>& chains, double ratio) {
  return !c.primary && c.score < ratio * chains[0].score;
}

/// True if mapping `m` is the alignment of `c`: same contig, strand and
/// chain score, and its reference interval holds every anchor.
bool aligns_chain(const Mapping& m, const Chain& c, u32 k) {
  return m.rid == c.rid && m.rev == c.rev && m.chain_score == c.score &&
         m.tstart + k <= static_cast<u64>(c.tstart()) + 1 && c.tend() < m.tend;
}

TEST(PriRatio, DefaultIsMinimap2Ratio) {
  EXPECT_DOUBLE_EQ(MapOptions::map_pb().pri_ratio, 0.8);
  EXPECT_DOUBLE_EQ(MapOptions::map_ont().pri_ratio, 0.8);
}

// On these noisy simulated reads the default list is the
// align-every-chain list minus the mappings of the chains that fail the
// ratio, in the same order and equal in every field, so the primary
// mapping does not move.
TEST(PriRatio, DropsOnlyFailingSecondariesAndKeepsThePrimary) {
  const MapOptions base = MapOptions::map_pb();
  u64 dropped = 0;
  u64 reads = 0;
  for (const u64 seed : {101u, 202u, 303u, 404u}) {
    MapperFixture fx(seed, base, 6);
    const Mapper m_def(fx.ref, fx.index, base);
    const Mapper m_all(fx.ref, fx.index, align_every_chain(base));
    for (const auto& sr : fx.reads) {
      const auto def = m_def.map(sr.read);
      const auto all = m_all.map(sr.read);
      ASSERT_EQ(def.empty(), all.empty()) << sr.read.name;
      if (all.empty()) continue;
      ++reads;
      EXPECT_EQ(describe(def[0]), describe(all[0])) << "seed " << seed;

      std::vector<Mapping> expected = all;
      const auto chains = candidate_chains(m_def, sr.read);
      for (const Chain& c : chains) {
        if (!fails_ratio(c, chains, base.pri_ratio)) continue;
        const auto it = std::find_if(expected.begin(), expected.end(), [&](const Mapping& m) {
          return aligns_chain(m, c, base.sketch.k);
        });
        ASSERT_NE(it, expected.end()) << "no mapping for a failing chain of " << sr.read.name;
        expected.erase(it);
        ++dropped;
      }
      EXPECT_EQ(describe(def), describe(expected)) << "seed " << seed;
    }
  }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(dropped, 0u) << "no read had a chain below the ratio; the test shows nothing";
}

// A contig of random sequence with segment [src, src + len) copied to
// `dst`, each copied base substituted with probability `divergence`.
Reference two_copy_reference(u64 src, u64 dst, u64 len, double divergence, u64 seed) {
  GenomeParams gp;
  gp.total_length = 40'000;
  gp.num_contigs = 1;
  gp.repeat_families = 0;
  gp.seed = seed;
  Sequence contig = generate_genome(gp).contig(0);
  Rng rng(seed * 7 + 3);
  for (u64 i = 0; i < len; ++i) {
    u8 b = contig.codes[src + i];
    if (rng.bernoulli(divergence)) b = static_cast<u8>((b + 1 + rng.uniform(3)) % 4);
    contig.codes[dst + i] = b;
  }
  Reference ref;
  ref.add(std::move(contig));
  return ref;
}

Sequence read_of(const Reference& ref, u64 start, u64 len) {
  Sequence s;
  s.name = "r";
  s.codes = ref.extract(0, start, len);
  return s;
}

TEST(PriRatio, RepeatCopiesAboveRatioAreBothKept) {
  const Reference ref = two_copy_reference(5'000, 25'000, 4'000, 0.003, 11);
  const MapOptions base = MapOptions::map_pb();
  const Mapper m_def(ref, base);
  const Mapper m_all(ref, align_every_chain(base));
  const Sequence read = read_of(ref, 5'000, 4'000);
  const auto def = m_def.map(read);
  ASSERT_EQ(def.size(), 2u);
  EXPECT_GE(def[1].chain_score, base.pri_ratio * def[0].chain_score);
  EXPECT_TRUE(def[0].primary);
  EXPECT_FALSE(def[1].primary);
  EXPECT_EQ(describe(def), describe(m_all.map(read)));
}

TEST(PriRatio, DivergedCopyBelowRatioIsDroppedWithTheSameMapq) {
  const Reference ref = two_copy_reference(5'000, 25'000, 4'000, 0.08, 12);
  const MapOptions base = MapOptions::map_pb();
  const Mapper m_def(ref, base);
  const Mapper m_all(ref, align_every_chain(base));
  const Sequence read = read_of(ref, 5'000, 4'000);
  const auto all = m_all.map(read);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_LT(all[1].chain_score, base.pri_ratio * all[0].chain_score);
  EXPECT_FALSE(all[1].primary);
  // The dropped copy still lowers MAPQ: f2 is the runner-up chain score,
  // taken before the filter.
  EXPECT_LT(all[0].mapq, 60u);
  const auto def = m_def.map(read);
  ASSERT_EQ(def.size(), 1u);
  EXPECT_EQ(describe(def[0]), describe(all[0]));
}

// A chimeric read: 12 kbp from one locus, then 7 kbp from another. The
// second chain scores below the ratio but covers another part of the read
// (a supplementary chain), so it is kept. The read lengths keep the two
// mappings apart even after each end extension runs its full 2 kbp.
TEST(PriRatio, SupplementaryChainBelowRatioIsKept) {
  GenomeParams gp;
  gp.total_length = 40'000;
  gp.num_contigs = 1;
  gp.repeat_families = 0;
  gp.seed = 13;
  const Reference ref = generate_genome(gp);
  Sequence read = read_of(ref, 2'000, 12'000);
  const auto tail = ref.extract(0, 25'000, 7'000);
  read.codes.insert(read.codes.end(), tail.begin(), tail.end());

  const MapOptions base = MapOptions::map_pb();
  const Mapper m_def(ref, base);
  const Mapper m_all(ref, align_every_chain(base));
  const auto chains = candidate_chains(m_def, read);
  ASSERT_EQ(chains.size(), 2u);
  ASSERT_TRUE(chains[1].primary);
  ASSERT_LT(chains[1].score, base.pri_ratio * chains[0].score);

  const auto def = m_def.map(read);
  ASSERT_EQ(def.size(), 2u);
  EXPECT_TRUE(aligns_chain(def[1], chains[1], base.sketch.k));
  EXPECT_TRUE(def[1].primary);
  EXPECT_EQ(describe(def), describe(m_all.map(read)));
}

}  // namespace
}  // namespace manymap
