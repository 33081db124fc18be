#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "core/options.hpp"
#include "index/hash_index.hpp"
#include "index/index_io.hpp"
#include "index/minimizer.hpp"
#include "io/checksum.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

std::vector<u8> random_seq(u64 seed, std::size_t n) {
  Rng rng(seed);
  std::vector<u8> s(n);
  for (auto& b : s) b = rng.base();
  return s;
}

/// The O(n*w) scan sketch() used to run: every window end rescans all w
/// ring slots. Kept here, verbatim in its selection logic, as the oracle
/// the block-pass sketcher must match minimizer for minimizer.
std::vector<Minimizer> sketch_oracle(const std::vector<u8>& seq, u32 rid, const SketchParams& p) {
  std::vector<Minimizer> out;
  const std::size_t n = seq.size();
  if (n < p.k) return out;
  const u64 mask = (1ULL << (2 * p.k)) - 1;
  const u32 shift = 2 * (p.k - 1);
  struct Slot {
    u64 hash = ~0ULL;
    u32 pos = 0;
    bool rev = false;
    bool valid = false;
  };
  std::vector<Slot> ring(p.w);
  u64 fwd = 0, rev = 0;
  u32 kmer_span = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u8 b = seq[i];
    Slot cur;
    if (b < 4) {
      fwd = ((fwd << 2) | b) & mask;
      rev = (rev >> 2) | (static_cast<u64>(3 - b) << shift);
      ++kmer_span;
    } else {
      kmer_span = 0;
    }
    if (kmer_span >= p.k && fwd != rev) {
      const bool use_rev = rev < fwd;
      cur.hash = invertible_hash(use_rev ? rev : fwd, mask);
      cur.pos = static_cast<u32>(i);
      cur.rev = use_rev;
      cur.valid = true;
    }
    ring[i % p.w] = cur;
    if (i + 1 >= static_cast<std::size_t>(p.k) + p.w - 1) {
      const Slot* best = nullptr;
      for (u32 s = 0; s < p.w; ++s) {
        const Slot& c = ring[s];
        if (!c.valid) continue;
        if (best == nullptr || c.hash < best->hash ||
            (c.hash == best->hash && c.pos > best->pos))
          best = &c;
      }
      if (best != nullptr) {
        const Minimizer m{best->hash, best->pos, rid, best->rev};
        if (out.empty() || !(out.back() == m)) out.push_back(m);
      }
    }
  }
  return out;
}

/// Inputs that stress the selection rule: uniform bases; a 2-letter
/// alphabet and homopolymer runs (repeated k-mers, so hash ties inside a
/// window); ACGT tandems (palindromic k-mers for even k); N runs.
std::vector<u8> stress_seq(Rng& rng, std::size_t n, int kind) {
  std::vector<u8> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0: s[i] = rng.base(); break;
      case 1: s[i] = static_cast<u8>(rng.uniform(2) * 3); break;  // A/T only
      case 2: s[i] = i > 0 && rng.bernoulli(0.9) ? s[i - 1] : rng.base(); break;
      case 3: s[i] = rng.bernoulli(0.05) ? rng.base() : static_cast<u8>(i % 4); break;
      default: s[i] = rng.base(); break;
    }
  }
  if (kind == 4 || kind == 3) {  // N runs of 1..40 bases
    for (std::size_t runs = rng.uniform(4); runs > 0 && n > 0; --runs) {
      const std::size_t at = rng.uniform(n);
      const std::size_t len = 1 + rng.uniform(40);
      for (std::size_t i = at; i < std::min(n, at + len); ++i) s[i] = kBaseN;
    }
  }
  return s;
}

TEST(Minimizer, MatchesQuadraticOracle) {
  // Every k, w across the contract's range; lengths straddling the first
  // full window (k + w - 1) and well past it.
  const u32 ws[] = {1,  2,  3,  4,   5,   7,   8,   10,  11,  16,
                    19, 31, 32, 64, 100, 127, 128, 200, 255, 256};
  Rng rng(0x5eed);
  u64 cases = 0, minimizers = 0;
  for (u32 k = SketchParams::kMinK; k <= SketchParams::kMaxK; ++k) {
    for (const u32 w : ws) {
      const SketchParams p{k, w};
      const std::size_t full = k + w - 1;
      std::vector<std::size_t> lengths;
      for (std::size_t d = 0; d <= 4; ++d) lengths.push_back(full + d - 2);  // full >= 4
      lengths.push_back(3 * full + rng.uniform(400));
      for (const std::size_t n : lengths) {
        for (int kind = 0; kind < 5; ++kind) {
          const auto s = stress_seq(rng, n, kind);
          const auto want = sketch_oracle(s, 7, p);
          ASSERT_EQ(sketch(s, 7, p), want) << "k=" << k << " w=" << w << " n=" << n
                                            << " kind=" << kind;
          ++cases;
          minimizers += want.size();
        }
      }
      // Across sketch()'s pass blocks: windows that straddle the w-1 keys
      // carried over one or two block edges, and a last block shorter than
      // the carry. One input kind per (k, w) keeps the O(n*w) oracle quick.
      for (const std::size_t n :
           {kSketchBlock - 1, kSketchBlock, kSketchBlock + 1, kSketchBlock + w - 1,
            kSketchBlock + w, 2 * kSketchBlock + 1 + rng.uniform(w)}) {
        const auto s = stress_seq(rng, n, static_cast<int>((k + w) % 5));
        const auto want = sketch_oracle(s, 7, p);
        ASSERT_EQ(sketch(s, 7, p), want) << "k=" << k << " w=" << w << " n=" << n;
        ++cases;
        minimizers += want.size();
      }
    }
  }
  EXPECT_GT(minimizers, cases);  // the sweep selects real minimizers
}

TEST(Minimizer, RejectsParamsOutsideTheContract) {
  const auto s = random_seq(13, 400);
  EXPECT_FALSE((SketchParams{3, 10}.valid()));
  EXPECT_FALSE((SketchParams{29, 10}.valid()));
  EXPECT_FALSE((SketchParams{15, 0}.valid()));
  EXPECT_FALSE((SketchParams{15, 257}.valid()));
  EXPECT_TRUE((SketchParams{4, 1}.valid()));
  EXPECT_TRUE((SketchParams{28, 256}.valid()));
  EXPECT_DEATH(sketch(s, 0, SketchParams{3, 10}), "sketch params out of range");
  EXPECT_DEATH(sketch(s, 0, SketchParams{15, 300}), "sketch params out of range");
}

TEST(Minimizer, ShortSequenceYieldsNothing) {
  const SketchParams p{15, 10};
  EXPECT_TRUE(sketch(random_seq(1, 10), 0, p).empty());
}

TEST(Minimizer, Deterministic) {
  const auto s = random_seq(2, 500);
  const SketchParams p{15, 10};
  EXPECT_EQ(sketch(s, 0, p), sketch(s, 0, p));
}

TEST(Minimizer, WindowGuarantee) {
  // Every window of w consecutive k-mer positions must contain at least one
  // selected minimizer (the defining property of the scheme).
  const auto s = random_seq(3, 2000);
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  ASSERT_FALSE(mins.empty());
  std::set<u32> positions;
  for (const auto& m : mins) positions.insert(m.pos);
  // k-mer end positions range over [k-1, n-1]; check every full window.
  for (u32 win_end = p.k - 1 + p.w - 1; win_end < s.size(); ++win_end) {
    bool covered = false;
    for (u32 e = win_end - (p.w - 1); e <= win_end; ++e)
      if (positions.count(e)) covered = true;
    EXPECT_TRUE(covered) << "window ending at " << win_end << " has no minimizer";
    if (!covered) break;
  }
}

TEST(Minimizer, DensityNearTwoOverW) {
  const auto s = random_seq(4, 20'000);
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  const double density = static_cast<double>(mins.size()) / static_cast<double>(s.size());
  // Expected density of random minimizers is ~2/(w+1).
  EXPECT_NEAR(density, 2.0 / (p.w + 1), 0.05);
}

TEST(Minimizer, StrandSymmetry) {
  // The canonical minimizer keys of a sequence and its reverse complement
  // must be identical (positions mirrored).
  const auto s = random_seq(5, 800);
  const auto rc = reverse_complement(s);
  const SketchParams p{15, 10};
  const auto fwd = sketch(s, 0, p);
  const auto rev = sketch(rc, 0, p);
  ASSERT_EQ(fwd.size(), rev.size());
  std::multiset<u64> fk, rk;
  for (const auto& m : fwd) fk.insert(m.key);
  for (const auto& m : rev) rk.insert(m.key);
  EXPECT_EQ(fk, rk);
  // And positions mirror: k-mer ending at pos maps to ending at n-1-pos+k-1.
  std::multiset<u32> fpos, rpos_mapped;
  for (const auto& m : fwd) fpos.insert(m.pos);
  for (const auto& m : rev)
    rpos_mapped.insert(static_cast<u32>(s.size()) - 1 - m.pos + (p.k - 1));
  EXPECT_EQ(fpos, rpos_mapped);
}

TEST(Minimizer, NBreaksKmers) {
  auto s = random_seq(6, 300);
  for (std::size_t i = 100; i < 130; ++i) s[i] = kBaseN;
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  for (const auto& m : mins) {
    // No selected k-mer may overlap the N block [100,130).
    const u32 start = m.pos - (p.k - 1);
    EXPECT_TRUE(m.pos < 100 || start >= 130) << "k-mer at " << m.pos << " overlaps N";
  }
}

TEST(Minimizer, InvertibleHashIsBijectiveOnSmallDomain) {
  const u64 mask = (1ULL << 16) - 1;
  std::set<u64> seen;
  for (u64 x = 0; x <= mask; ++x) seen.insert(invertible_hash(x, mask));
  EXPECT_EQ(seen.size(), mask + 1);
}

TEST(HashIndex, LookupFindsAllOccurrences) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(7, 5000), ""});
  ref.add(Sequence{"c2", random_seq(8, 3000), ""});
  const SketchParams p{15, 10};
  const auto idx = MinimizerIndex::build(ref, p);
  EXPECT_EQ(idx.contigs().size(), 2u);
  EXPECT_GT(idx.num_keys(), 0u);

  // Rebuild the expected key -> entries map from raw sketches.
  std::map<u64, std::vector<IndexEntry>> expected;
  for (u32 cid = 0; cid < 2; ++cid)
    for (const auto& m : sketch(ref.contig(cid).codes, cid, p))
      expected[m.key].push_back({m.rid, m.pos, m.strand_rev});
  u64 entries = 0;
  for (const auto& [key, ents] : expected) {
    const auto hits = idx.lookup(key);
    ASSERT_EQ(hits.size(), ents.size());
    entries += ents.size();
    for (const auto& e : ents) {
      bool found = false;
      for (const auto& h : hits) found |= h == e;
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(idx.num_entries(), entries);
  EXPECT_EQ(idx.num_keys(), expected.size());
}

TEST(HashIndex, MissingKeyIsEmpty) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(9, 2000), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{15, 10});
  EXPECT_TRUE(idx.lookup(0xdeadbeefcafeULL).empty());
  EXPECT_EQ(idx.occurrences(0xdeadbeefcafeULL), 0u);
}

TEST(HashIndex, OccurrenceCutoff) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(10, 20'000), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{15, 10});
  const u32 cutoff = idx.occurrence_cutoff(2e-4);
  EXPECT_GE(cutoff, 10u);  // floor
  EXPECT_GT(idx.memory_bytes(), 0u);
}

TEST(IndexIo, RoundTripBothLoaders) {
  Reference ref;
  ref.add(Sequence{"contig_alpha", random_seq(11, 4000), ""});
  ref.add(Sequence{"contig_beta", random_seq(12, 2500), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{13, 8});
  const std::string path = ::testing::TempDir() + "/mm_test_index.mmi";
  const u64 bytes = save_index(path, idx);
  EXPECT_GT(bytes, 0u);

  for (const bool mmap : {false, true}) {
    const auto loaded = mmap ? load_index_mmap(path) : load_index_stream(path);
    EXPECT_EQ(loaded.params().k, 13u);
    EXPECT_EQ(loaded.params().w, 8u);
    EXPECT_EQ(loaded.num_keys(), idx.num_keys());
    EXPECT_EQ(loaded.num_entries(), idx.num_entries());
    ASSERT_EQ(loaded.contigs().size(), 2u);
    EXPECT_EQ(loaded.contigs()[0].name, "contig_alpha");
    EXPECT_EQ(loaded.contigs()[1].length, 2500u);
    // Behavioural equivalence: lookups agree on every indexed key.
    for (const auto& b : idx.buckets()) {
      if (b.key == ~0ULL) continue;
      const auto a = idx.lookup(b.key);
      const auto c = loaded.lookup(b.key);
      ASSERT_EQ(a.size(), c.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == c[i]);
    }
  }
  std::remove(path.c_str());
}

/// Reference for the golden digests: 3 contigs with planted repeats plus
/// N runs, so the digest covers N handling too.
Reference golden_reference() {
  GenomeParams gp;
  gp.total_length = 400'000;
  gp.num_contigs = 3;
  gp.seed = 2024;
  std::vector<Sequence> contigs = generate_genome(gp).contigs();
  for (std::size_t i = 1'000; i < 1'300; ++i) contigs[0].codes[i] = kBaseN;
  for (std::size_t i = 50'000; i < 50'007; ++i) contigs[1].codes[i] = kBaseN;
  Reference ref;
  for (auto& c : contigs) ref.add(std::move(c));
  return ref;
}

TEST(IndexBytes, GoldenDigests) {
  // The bytes of a built index depend on the minimizer selection rule, the
  // table layout and the file format; none of them may drift silently.
  const Reference ref = golden_reference();
  struct Golden {
    const char* name;
    SketchParams params;
    u64 xxh64;
  };
  const Golden golden[] = {
      {"map-pb", preset_by_name("map-pb")->sketch, 0x10256e38999eb05cULL},
      {"map-ont", preset_by_name("map-ont")->sketch, 0x10256e38999eb05cULL},
      {"k13w5", SketchParams{13, 5}, 0x10a751f994dc7494ULL},
      {"k4w1", SketchParams{4, 1}, 0xb414ea47a4c9ec1aULL},
      {"k28w256", SketchParams{28, 256}, 0xc9f90fcdfd6b5429ULL},
  };
  for (const auto& g : golden) {
    const std::string image = serialize_index(MinimizerIndex::build(ref, g.params));
    const u64 got = xxh64(image.data(), image.size());
    EXPECT_EQ(got, g.xxh64) << g.name << ": got 0x" << std::hex << got << std::dec << " over "
                            << image.size() << " bytes";
  }
}

}  // namespace
}  // namespace manymap
