#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chain/chain.hpp"
#include "sequence/dna.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

Anchor mk(u32 tpos, u32 qpos, u32 rid = 0, bool rev = false) {
  return Anchor{rid, tpos, qpos, rev};
}

ChainParams params() {
  ChainParams p;
  p.seed_length = 15;
  p.min_count = 3;
  p.min_score = 30;
  return p;
}

TEST(Chain, EmptyInput) { EXPECT_TRUE(chain_anchors({}, params()).empty()); }

TEST(Chain, PerfectColinearRun) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 10; ++i) anchors.push_back(mk(1000 + i * 100, 50 + i * 100));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors.size(), 10u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_EQ(chains[0].tstart(), 1000u);
  EXPECT_EQ(chains[0].tend(), 1900u);
  EXPECT_EQ(chains[0].qstart(), 50u);
  // Perfect colinearity: score ~ anchors * min(gap, seed_len)
  EXPECT_GT(chains[0].score, 100);
}

TEST(Chain, AnchorsInIncreasingOrder) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(10 + i * 40, 5 + i * 42));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_FALSE(chains.empty());
  for (std::size_t i = 1; i < chains[0].anchors.size(); ++i) {
    EXPECT_LT(chains[0].anchors[i - 1].tpos, chains[0].anchors[i].tpos);
    EXPECT_LT(chains[0].anchors[i - 1].qpos, chains[0].anchors[i].qpos);
  }
}

TEST(Chain, SplitsAcrossContigs) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 0));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 1));
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rid != b.rid) return a.rid < b.rid;
    return a.tpos < b.tpos;
  });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_NE(chains[0].rid, chains[1].rid);
}

TEST(Chain, SplitsAcrossStrands) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 0, false));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(5000 + i * 50, 10 + i * 50, 0, true));
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rev != b.rev) return !a.rev;
    return a.tpos < b.tpos;
  });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_NE(chains[0].rev, chains[1].rev);
}

TEST(Chain, LargeGapBreaksChain) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50));
  // second cluster far away on the target (gap > max_dist)
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100'000 + i * 50, 400 + i * 50));
  const auto chains = chain_anchors(anchors, params());
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Chain, BandwidthViolationBreaksChain) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50));
  // diagonal jump of 2000 (> bandwidth 500) though distance is small
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(400 + i * 50, 2400 + i * 50));
  const auto chains = chain_anchors(anchors, params());
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Chain, MinCountFiltersShortChains) {
  std::vector<Anchor> anchors{mk(100, 10), mk(200, 110)};
  EXPECT_TRUE(chain_anchors(anchors, params()).empty());
}

TEST(Chain, SecondaryMarkedOnQueryOverlap) {
  // Two chains covering the same query interval at different targets
  // (a repeat): the weaker must be secondary.
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(50'000 + i * 30, 50 + i * 30));
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) { return a.tpos < b.tpos; });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_FALSE(chains[1].primary);
  EXPECT_GE(chains[0].score, chains[1].score);
}

TEST(Chain, NonOverlappingChainsBothPrimary) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(50'000 + i * 30, 3000 + i * 30));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_TRUE(chains[1].primary);
}

TEST(Chain, ScoresSortedDescending) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 12; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(90'000 + i * 30, 5000 + i * 30));
  const auto chains = chain_anchors(anchors, params());
  for (std::size_t i = 1; i < chains.size(); ++i)
    EXPECT_GE(chains[i - 1].score, chains[i].score);
}

TEST(Chain, ToleratesSmallIndelOffsets) {
  // Anchors drift off-diagonal by small indels: still one chain.
  std::vector<Anchor> anchors;
  u32 t = 100, q = 10;
  for (u32 i = 0; i < 10; ++i) {
    anchors.push_back(mk(t, q));
    t += 60;
    q += (i % 2 == 0) ? 57 : 63;  // +-3 bp indels
  }
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors.size(), 10u);
}

// The integer gap cost against the floating-point expression it replaced,
// kept here as the oracle: every k a SketchParams allows, every dd up to 2^20.
TEST(Chain, GapCostMatchesTheFloatingPointRule) {
  const auto old_rule = [](u32 dd, u32 k) {
    i32 log2_dd = 0;
    for (u32 v = dd; v >>= 1;) ++log2_dd;
    return static_cast<i32>(0.01 * k * dd) + (log2_dd >> 1);
  };
  u64 mismatches = 0;
  for (u32 k = SketchParams::kMinK; k <= SketchParams::kMaxK; ++k) {
    EXPECT_EQ(gap_cost(77, 77, k), 0);
    for (u32 dd = 1; dd <= (1u << 20); ++dd) {
      const i32 want = old_rule(dd, k);
      mismatches += gap_cost(dd, 0, k) != want;
      mismatches += gap_cost(3, dd + 3, k) != want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Anchors: the pipelined probe against one lookup() per key.

/// What collect_anchors computes, one lookup() per key: the `max_occ`
/// skip, the strand flip, then the same sort.
std::vector<Anchor> oracle_anchors(const MinimizerIndex& index, const std::vector<Minimizer>& mins,
                                   u32 qlen, u32 max_occ) {
  const u32 k = index.params().k;
  std::vector<Anchor> out;
  for (const Minimizer& m : mins) {
    const auto hits = index.lookup(m.key);
    if (hits.empty() || hits.size() > max_occ) continue;
    for (const IndexEntry& h : hits) {
      const bool rev = h.strand_rev != (m.strand_rev ? 1u : 0u);
      out.push_back(Anchor{h.rid, h.pos, rev ? qlen - 1 - (m.pos - (k - 1)) : m.pos, rev});
    }
  }
  std::sort(out.begin(), out.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rid != b.rid) return a.rid < b.rid;
    if (a.rev != b.rev) return a.rev < b.rev;
    if (a.tpos != b.tpos) return a.tpos < b.tpos;
    return a.qpos < b.qpos;
  });
  return out;
}

/// Storage for a hand-made table image, kept alive by the index.
struct TableImage {
  std::vector<MinimizerIndex::Bucket> buckets;
  std::vector<IndexEntry> entries;
};

MinimizerIndex adopt(std::shared_ptr<TableImage> t) {
  std::size_t keys = 0;
  for (const auto& b : t->buckets) keys += b.key != ~0ULL;
  return MinimizerIndex(SketchParams{15, 10}, {ContigMeta{"c0", 1'000'000}}, keys, t->buckets,
                        t->entries, t);
}

/// The first key >= `from` whose linear probe starts at `slot` of a
/// `size`-bucket table: the only key a table holding one bucket, at
/// `slot`, can find.
u64 key_homed_at(std::size_t slot, std::size_t size, u64 from) {
  for (u64 key = from;; ++key) {
    auto t = std::make_shared<TableImage>();
    t->buckets.assign(size, MinimizerIndex::Bucket{});
    t->entries.push_back(IndexEntry{0, 1, 0});
    t->buckets[slot] = MinimizerIndex::Bucket{key, 0, 1};
    if (!adopt(t).lookup(key).empty()) return key;
  }
}

constexpr std::size_t kPipelineEdges[] = {0, 1, 15, 16, 17, 31, 32, 33};

TEST(Anchors, MatchPerKeyLookupOracle) {
  // A 16-bucket table whose four keys all start probing at the last slot,
  // so all but the first wrap past the table end. With max_occ 3 the
  // 3-hit key is kept and the 4-hit key dropped.
  constexpr u32 kMaxOcc = 3;
  constexpr std::size_t kSize = 16;
  auto t = std::make_shared<TableImage>();
  t->buckets.assign(kSize, MinimizerIndex::Bucket{});
  std::vector<u64> keys;
  for (u64 from = 1; keys.size() < 5; from = keys.back() + 1)
    keys.push_back(key_homed_at(kSize - 1, kSize, from));
  const u32 counts[] = {1, 2, kMaxOcc, kMaxOcc + 1};
  for (std::size_t i = 0; i < 4; ++i) {
    t->buckets[(kSize - 1 + i) % kSize] =
        MinimizerIndex::Bucket{keys[i], t->entries.size(), counts[i]};
    for (u32 c = 0; c < counts[i]; ++c)
      t->entries.push_back(IndexEntry{c % 2, static_cast<u32>(1000 * i + 37 * c + 20), c % 2});
  }
  const MinimizerIndex table = adopt(t);
  ASSERT_EQ(table.lookup(keys[3]).size(), kMaxOcc + 1u);  // found after wrapping
  ASSERT_TRUE(table.lookup(keys[4]).empty());             // homed there, never inserted

  // keys[4] and 999 are absent; the cycle length 7 is prime to every edge.
  const u64 cycle[] = {keys[0], keys[1], keys[2], keys[3], keys[4], 999, keys[2]};
  std::vector<Minimizer> mins;
  for (u32 i = 0; i < 40; ++i) mins.push_back(Minimizer{cycle[i % 7], 20 + 3 * i, 0, i % 3 == 0});
  const u32 qlen = 200;
  for (const std::size_t n : kPipelineEdges) {
    const std::vector<Minimizer> prefix(mins.begin(), mins.begin() + n);
    const auto got = collect_anchors(table, prefix, qlen, kMaxOcc);
    EXPECT_EQ(got, oracle_anchors(table, prefix, qlen, kMaxOcc)) << n << " minimizers";
    if (n >= 4) {  // key i's hits sit at tpos 1000 * i + [20, 131)
      const auto from_key = [&](u32 i) {
        return std::count_if(got.begin(), got.end(),
                             [&](const Anchor& a) { return a.tpos / 1000 == i; });
      };
      EXPECT_GT(from_key(2), 0) << "count == max_occ is kept";
      EXPECT_EQ(from_key(3), 0) << "count == max_occ + 1 is dropped";
    }
  }

  // A simulated read and its reverse complement against a built index.
  GenomeParams gp;
  gp.total_length = 200'000;
  gp.num_contigs = 2;
  gp.seed = 31;
  const Reference ref = generate_genome(gp);
  const SketchParams sp{15, 10};
  const auto index = MinimizerIndex::build(ref, sp);
  const u32 max_occ = index.occurrence_cutoff(2e-4);
  ReadSimParams rp;
  rp.num_reads = 4;
  rp.seed = 5;
  for (const auto& sim : ReadSimulator(ref, rp).simulate()) {
    for (const auto& codes : {sim.read.codes, reverse_complement(sim.read.codes)}) {
      const u32 len = static_cast<u32>(codes.size());
      const auto read_mins = sketch(codes, 0, sp);
      ASSERT_GT(read_mins.size(), 33u);
      for (const std::size_t n : kPipelineEdges) {
        const std::vector<Minimizer> prefix(read_mins.begin(), read_mins.begin() + n);
        EXPECT_EQ(collect_anchors(index, prefix, len, max_occ),
                  oracle_anchors(index, prefix, len, max_occ))
            << n << " minimizers";
      }
      const auto all = collect_anchors(index, read_mins, len, max_occ);
      EXPECT_FALSE(all.empty());
      EXPECT_EQ(all, oracle_anchors(index, read_mins, len, max_occ));
    }
  }
}

// A table may be full (as many keys as buckets); a key it does not hold
// must still be a miss after one lap, not an endless probe.
TEST(Anchors, FullTableMissTerminates) {
  auto t = std::make_shared<TableImage>();
  for (u64 key = 1; key <= 16; ++key) {
    t->buckets.push_back(MinimizerIndex::Bucket{key * 1'000'003, t->entries.size(), 1});
    t->entries.push_back(IndexEntry{0, static_cast<u32>(key), 0});
  }
  const MinimizerIndex full = adopt(t);
  ASSERT_EQ(full.num_keys(), full.buckets().size());
  EXPECT_TRUE(full.lookup(42).empty());
  const std::vector<Minimizer> absent(20, Minimizer{42, 30, 0, false});
  EXPECT_TRUE(collect_anchors(full, absent, 100, 50).empty());
}

}  // namespace
}  // namespace manymap
