#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/cigar.hpp"
#include "align/diff_common.hpp"
#include "align/diff_kernels.hpp"
#include "align/dirs_spill.hpp"
#include "align/kernel_api.hpp"
#include "align/reference_dp.hpp"
#include "base/random.hpp"

namespace manymap {
namespace {

DiffArgs make_args(const std::vector<u8>& t, const std::vector<u8>& q, AlignMode mode,
                   bool cigar, ScoreParams p = ScoreParams{}) {
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.params = p;
  a.mode = mode;
  a.with_cigar = cigar;
  return a;
}

std::vector<u8> seq(const char* s) { return encode_dna(s); }

TEST(Cigar, PushMerges) {
  Cigar c;
  c.push('M', 3);
  c.push('M', 2);
  c.push('I', 1);
  c.push('I', 0);  // no-op
  ASSERT_EQ(c.ops().size(), 2u);
  EXPECT_EQ(c.to_string(), "5M1I");
}

TEST(Cigar, Spans) {
  const Cigar c = Cigar::from_string("5M2D3M1I4M");
  EXPECT_EQ(c.target_span(), 14u);
  EXPECT_EQ(c.query_span(), 13u);
}

TEST(Cigar, FromStringRoundTrip) {
  const std::string s = "12M3D1M25I7M";
  EXPECT_EQ(Cigar::from_string(s).to_string(), s);
}

TEST(Cigar, ScoreMatchesHandComputation) {
  // T: ACGT, Q: ACGT, 4M -> 4 * match
  const ScoreParams p;
  Cigar c = Cigar::from_string("4M");
  EXPECT_EQ(c.score(seq("ACGT"), seq("ACGT"), 0, 0, p), 4 * p.match);
  // one mismatch
  EXPECT_EQ(c.score(seq("ACGT"), seq("ACCT"), 0, 0, p), 3 * p.match - p.mismatch);
  // gap: 2M2D2M over target ACGTAC query ACAC
  Cigar g = Cigar::from_string("2M2D2M");
  EXPECT_EQ(g.score(seq("ACGTAC"), seq("ACAC"), 0, 0, p),
            4 * p.match - p.gap_open - 2 * p.gap_ext);
}

TEST(ReferenceDp, PerfectMatchGlobal) {
  const auto t = seq("ACGTACGTAC");
  const auto r = reference_align(make_args(t, t, AlignMode::kGlobal, true));
  const ScoreParams p;
  EXPECT_EQ(r.score, static_cast<i64>(t.size()) * p.match);
  EXPECT_EQ(r.cigar.to_string(), "10M");
  EXPECT_EQ(r.t_end, 9);
  EXPECT_EQ(r.q_end, 9);
}

TEST(ReferenceDp, SingleMismatch) {
  const auto r =
      reference_align(make_args(seq("ACGTACGT"), seq("ACGAACGT"), AlignMode::kGlobal, true));
  const ScoreParams p;
  EXPECT_EQ(r.score, 7 * p.match - p.mismatch);
  EXPECT_EQ(r.cigar.to_string(), "8M");
}

TEST(ReferenceDp, DeletionGlobal) {
  // query lacks two target bases
  const auto r =
      reference_align(make_args(seq("ACGGGTAC"), seq("ACGTAC"), AlignMode::kGlobal, true));
  const ScoreParams p;
  EXPECT_EQ(r.score, 6 * p.match - p.gap_open - 2 * p.gap_ext);
  EXPECT_EQ(r.cigar.target_span(), 8u);
  EXPECT_EQ(r.cigar.query_span(), 6u);
}

TEST(ReferenceDp, InsertionGlobal) {
  const auto r =
      reference_align(make_args(seq("ACGTAC"), seq("ACGGGTAC"), AlignMode::kGlobal, true));
  const ScoreParams p;
  EXPECT_EQ(r.score, 6 * p.match - p.gap_open - 2 * p.gap_ext);
  EXPECT_EQ(r.cigar.target_span(), 6u);
  EXPECT_EQ(r.cigar.query_span(), 8u);
}

TEST(ReferenceDp, ExtensionStopsEarly) {
  // Query matches a prefix of the target; free ends should not pay for the
  // target tail.
  const auto r =
      reference_align(make_args(seq("ACGTACGTTTTTTTTT"), seq("ACGTACGT"), AlignMode::kExtension, true));
  const ScoreParams p;
  EXPECT_EQ(r.score, 8 * p.match);
  EXPECT_EQ(r.q_end, 7);
  EXPECT_EQ(r.t_end, 7);
  EXPECT_EQ(r.cigar.to_string(), "8M");
}

TEST(ReferenceDp, EmptySequences) {
  const std::vector<u8> empty;
  const auto t = seq("ACG");
  const ScoreParams p;
  auto r = reference_align(make_args(t, empty, AlignMode::kGlobal, true));
  EXPECT_EQ(r.score, -(p.gap_open + 3 * p.gap_ext));
  EXPECT_EQ(r.cigar.to_string(), "3D");
  r = reference_align(make_args(empty, t, AlignMode::kGlobal, true));
  EXPECT_EQ(r.cigar.to_string(), "3I");
  r = reference_align(make_args(empty, empty, AlignMode::kGlobal, true));
  EXPECT_EQ(r.score, 0);
  r = reference_align(make_args(t, empty, AlignMode::kExtension, false));
  EXPECT_EQ(r.score, 0);
}

TEST(ScalarKernels, MatchReferenceOnSmallExamples) {
  const struct {
    const char* t;
    const char* q;
  } cases[] = {
      {"A", "A"},          {"A", "C"},           {"ACGT", "ACGT"},
      {"ACGT", "TGCA"},    {"AAAA", "AAAAAAAA"}, {"AAAAAAAA", "AAAA"},
      {"ACGTACGTAC", "ACGTTACGTA"}, {"GATTACA", "GCATGCU"},
  };
  for (const auto& c : cases) {
    const auto t = seq(c.t), q = seq(c.q);
    for (AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      const auto ref = reference_align(make_args(t, q, mode, true));
      for (auto fn : {detail::align_scalar_mm2, detail::align_scalar_manymap}) {
        const auto got = fn(make_args(t, q, mode, true));
        EXPECT_EQ(got.score, ref.score) << c.t << " / " << c.q << " " << to_string(mode);
        EXPECT_EQ(got.t_end, ref.t_end);
        EXPECT_EQ(got.q_end, ref.q_end);
        EXPECT_EQ(got.cigar.to_string(), ref.cigar.to_string());
      }
    }
  }
}

TEST(ScalarKernels, CigarScoreConsistency) {
  // The CIGAR, rescored from scratch, must reproduce the reported score.
  Rng rng(99);
  for (int it = 0; it < 30; ++it) {
    std::vector<u8> t(40 + rng.uniform(40)), q(40 + rng.uniform(40));
    for (auto& b : t) b = rng.base();
    for (auto& b : q) b = rng.base();
    const ScoreParams p;
    const auto r = detail::align_scalar_manymap(make_args(t, q, AlignMode::kGlobal, true, p));
    EXPECT_EQ(r.cigar.target_span(), t.size());
    EXPECT_EQ(r.cigar.query_span(), q.size());
    EXPECT_EQ(r.cigar.score(t, q, 0, 0, p), r.score);
  }
}

TEST(Kernels, DispatchTableComplete) {
  // Scalar and SSE2 are always available on x86-64.
  EXPECT_NE(get_diff_kernel(Layout::kMinimap2, Isa::kScalar), nullptr);
  EXPECT_NE(get_diff_kernel(Layout::kManymap, Isa::kScalar), nullptr);
#if defined(__x86_64__)
  EXPECT_NE(get_diff_kernel(Layout::kMinimap2, Isa::kSse2), nullptr);
  EXPECT_NE(get_diff_kernel(Layout::kManymap, Isa::kSse2), nullptr);
#endif
  const auto isas = available_isas();
  EXPECT_GE(isas.size(), 1u);
  EXPECT_EQ(isas.front(), Isa::kScalar);
  EXPECT_EQ(best_isa(), isas.back());
}

TEST(Kernels, AlignPairConvenience) {
  const auto t = seq("ACGTACGTACGTACGT");
  const auto r = align_pair(t, t, ScoreParams{}, AlignMode::kGlobal, true);
  EXPECT_EQ(r.score, 16 * ScoreParams{}.match);
  EXPECT_EQ(r.cigar.to_string(), "16M");
  EXPECT_EQ(r.cells, 256u);
}

TEST(Kernels, MapPbParamsSupported) {
  // -ax map-pb uses mismatch 5; still int8-safe.
  EXPECT_TRUE(ScoreParams::map_pb().fits_int8());
  EXPECT_TRUE(ScoreParams::map_ont().fits_int8());
  const auto t = seq("ACGTACGTAC");
  const auto q = seq("ACGTTCGTAC");
  const auto ref = reference_align(make_args(t, q, AlignMode::kGlobal, true, ScoreParams::map_pb()));
  const auto got =
      detail::align_scalar_manymap(make_args(t, q, AlignMode::kGlobal, true, ScoreParams::map_pb()));
  EXPECT_EQ(got.score, ref.score);
  EXPECT_EQ(got.cigar.to_string(), ref.cigar.to_string());
}

TEST(Kernels, GcupsHelper) {
  EXPECT_DOUBLE_EQ(gcups(2'000'000'000ULL, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(gcups(100, 0.0), 0.0);
}

TEST(DiffBound, DifferencesStayWithinSuzukiKasaharaBound) {
  // |u|,|v| <= max(a, q+e); x,y in [-(q+e), -e]. We check by re-deriving the
  // differences from the reference H matrix on random inputs.
  Rng rng(123);
  const ScoreParams p;
  const i32 bound = std::max(p.match, p.gap_open + p.gap_ext);
  for (int it = 0; it < 10; ++it) {
    std::vector<u8> t(60), q(60);
    for (auto& b : t) b = rng.base();
    // derive q as a mutated copy to get realistic structure
    q = t;
    for (auto& b : q)
      if (rng.bernoulli(0.15)) b = rng.base();
    // reference H via CIGAR-free scoring: use reference_align on prefixes is
    // O(n^4); instead validate via the scalar kernel against reference once
    // (correctness) and trust the bound check below on u/v from the diff
    // arrays indirectly: if any difference overflowed i8, the scalar kernel
    // (i32 internally) and SSE2 kernel (saturating i8) would diverge.
    const auto a = make_args(t, q, AlignMode::kGlobal, false, p);
    const auto scalar = detail::align_scalar_manymap(a);
    const auto sse2 = detail::align_sse2_manymap(a);
    EXPECT_EQ(scalar.score, sse2.score);
    (void)bound;
  }
}

// Strip path (align/diff_strip_avx512.cpp): the register-resident kernel
// takes every unbanded, unstreamed call, global and extension. It must
// equal the reference DP and the AVX-512 memory kernel on score, end cell
// and CIGAR, on both sides of every 64-row strip edge, at any size.
class StripPath : public ::testing::Test {
 protected:
  void SetUp() override {
    if (detail::strip_kernel() == nullptr)
      GTEST_SKIP() << "no AVX-512BW on this host: the strip path is not exercised";
  }

  /// Random codes with ~1 in 16 N bases.
  static std::vector<u8> random_codes(Rng& rng, i32 n) {
    std::vector<u8> s(static_cast<std::size_t>(n));
    for (auto& b : s) b = rng.uniform(16) == 0 ? 4 : rng.base();
    return s;
  }

  /// A query related to `t` when the lengths allow it (substitutions and
  /// an indel or two, so the path has gaps), otherwise random.
  static std::vector<u8> related_query(Rng& rng, const std::vector<u8>& t, i32 qlen) {
    if (qlen < 8 || static_cast<std::size_t>(qlen) + 8 < t.size() ||
        static_cast<std::size_t>(qlen) > t.size() + 8)
      return random_codes(rng, qlen);
    std::vector<u8> q = t;
    for (auto& b : q)
      if (rng.bernoulli(0.12)) b = rng.uniform(16) == 0 ? 4 : rng.base();
    while (static_cast<i32>(q.size()) > qlen) q.erase(q.begin() + rng.uniform(q.size()));
    while (static_cast<i32>(q.size()) < qlen)
      q.insert(q.begin() + rng.uniform(q.size() + 1), rng.base());
    return q;
  }

  static void expect_same(const AlignResult& got, const AlignResult& want,
                          const std::string& what) {
    EXPECT_EQ(got.score, want.score) << what;
    EXPECT_EQ(got.t_end, want.t_end) << what;
    EXPECT_EQ(got.q_end, want.q_end) << what;
    EXPECT_EQ(got.cells, want.cells) << what;
    EXPECT_EQ(got.cigar.to_string(), want.cigar.to_string()) << what;
  }

  /// Strip kernel, routed AVX-512 manymap kernel and memory kernel all
  /// equal the reference DP, in score and path mode. Returns the
  /// reference's path-mode result.
  static AlignResult check(const std::vector<u8>& t, const std::vector<u8>& q,
                           const ScoreParams& p, detail::KernelArena* arena,
                           AlignMode mode = AlignMode::kGlobal) {
    AlignResult want;
    for (const bool cigar : {false, true}) {
      DiffArgs a = make_args(t, q, mode, cigar, p);
      want = reference_align(a);
      a.arena = arena;
      const std::string what = std::string(to_string(mode)) +
                               " tlen=" + std::to_string(t.size()) +
                               " qlen=" + std::to_string(q.size()) +
                               (cigar ? " path" : " score");
      expect_same(detail::strip_kernel()(a), want, "strip " + what);
      expect_same(get_diff_kernel(Layout::kManymap, Isa::kAvx512)(a), want,
                  "routed " + what);
      expect_same(detail::avx512_memory_kernel()(a), want, "memory " + what);
    }
    return want;
  }
};

TEST_F(StripPath, MatchesReferenceAcrossStripEdgesAndTheCut) {
  Rng rng(2024);
  const ScoreParams p = ScoreParams::map_pb();
  detail::KernelArena arena;
  for (const i32 tlen : {1, 63, 64, 65, 127, 128, 129, kStripMaxRows - 1, kStripMaxRows,
                         kStripMaxRows + 1, 2064}) {
    for (const i32 qlen : {1, 2, tlen - 1, tlen + 1, 300}) {
      if (qlen < 1) continue;
      const std::vector<u8> t = random_codes(rng, tlen);
      const std::vector<u8> q = related_query(rng, t, qlen);
      for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension})
        check(t, q, p, &arena, mode);
    }
  }
}

TEST_F(StripPath, ExtensionBestCellOnEitherBorder) {
  Rng rng(77);
  const ScoreParams p;
  // Target a prefix of the query: the best cell is on the bottom row,
  // short of the last column.
  const std::vector<u8> q = random_codes(rng, 300);
  const std::vector<u8> t(q.begin(), q.begin() + 130);
  const AlignResult bottom = check(t, q, p, nullptr, AlignMode::kExtension);
  EXPECT_EQ(bottom.t_end, 129);
  EXPECT_LT(bottom.q_end, 299);
  // Query a prefix of the target: on the last column, above the bottom row.
  const AlignResult last = check(q, t, p, nullptr, AlignMode::kExtension);
  EXPECT_EQ(last.q_end, 129);
  EXPECT_LT(last.t_end, 299);
  // Every cell of an all-N square scores the same on the bottom row and
  // the last column of its diagonal: the bottom-row candidate wins ties.
  const AlignResult tie =
      check(std::vector<u8>(100, 4), std::vector<u8>(100, 4), p, nullptr,
            AlignMode::kExtension);
  EXPECT_EQ(tie.t_end, 99);
  // An exact square ends at the corner.
  const std::vector<u8> sq = random_codes(rng, 129);
  const AlignResult corner = check(sq, sq, p, nullptr, AlignMode::kExtension);
  EXPECT_EQ(corner.t_end, 128);
  EXPECT_EQ(corner.q_end, 128);
}

TEST_F(StripPath, TallAndWidePairs) {
  Rng rng(5);
  const ScoreParams p = ScoreParams::map_ont();
  detail::KernelArena arena;
  for (const auto& [tlen, qlen] :
       std::vector<std::pair<i32, i32>>{{2064, 65}, {65, 2064}, {1500, 3}, {3, 1500}}) {
    const std::vector<u8> t = random_codes(rng, tlen);
    const std::vector<u8> q = random_codes(rng, qlen);
    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension})
      check(t, q, p, &arena, mode);
  }
}

TEST_F(StripPath, NBasesNeverMatch) {
  // All-N against all-N is a run of mismatches, never matches; mixed runs
  // put N on both sides of the strip edge at row 64.
  const ScoreParams p;
  check(std::vector<u8>(70, 4), std::vector<u8>(70, 4), p, nullptr);
  Rng rng(7);
  std::vector<u8> t = random_codes(rng, 130);
  for (i32 i = 60; i < 70; ++i) t[static_cast<std::size_t>(i)] = 4;
  std::vector<u8> q = t;
  for (i32 i = 0; i < 20; ++i) q[static_cast<std::size_t>(i)] = 4;
  check(t, q, p, nullptr);
  check(t, q, p, nullptr, AlignMode::kExtension);
}

TEST_F(StripPath, Int8BoundaryScores) {
  // match + q + e == 125, q + e == 64 and mismatch up to 125: the widest
  // difference swings the int8 lanes admit (ScoreParams::fits_int8).
  Rng rng(11);
  for (const ScoreParams& p : {ScoreParams{100, 60, 20, 5}, ScoreParams{90, 90, 30, 5},
                               ScoreParams{61, 125, 50, 14}, ScoreParams{1, 125, 40, 24},
                               ScoreParams::map_pb()}) {
    ASSERT_TRUE(p.fits_int8());
    for (const i32 tlen : {64, 65, 200, kStripMaxRows}) {
      const std::vector<u8> t = random_codes(rng, tlen);
      for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
        check(t, related_query(rng, t, tlen + 3), p, nullptr, mode);
        check(t, random_codes(rng, 97), p, nullptr, mode);
      }
    }
  }
}

TEST_F(StripPath, PoisonedReusedArenaIsBitExact) {
  // One arena, poisoned before every shape: the carry rows, border rows,
  // dirs and the padded query copy must all be rewritten before any live
  // lane reads them, across growth, shrink and aspect-ratio changes.
  Rng rng(31);
  detail::KernelArena arena;
  for (const auto& [tlen, qlen] : std::vector<std::pair<i32, i32>>{
           {300, 290}, {65, 400}, {129, 17}, {kStripMaxRows, kStripMaxRows}, {1, 50}, {64, 64}}) {
    const std::vector<u8> t = random_codes(rng, tlen);
    const std::vector<u8> q = related_query(rng, t, qlen);
    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      for (const bool cigar : {false, true}) {
        DiffArgs a = make_args(t, q, mode, cigar);
        const AlignResult fresh = detail::strip_kernel()(a);
        a.arena = &arena;
        arena.poison(0xA5);
        expect_same(detail::strip_kernel()(a), fresh, "poisoned");
        expect_same(detail::strip_kernel()(a), fresh, "reused");
      }
    }
  }
}

TEST_F(StripPath, ReservedDirsStayWithinFootprint) {
  // A path-mode call reserves exactly the score-mode workspace plus its
  // dirs area; that area must stay within dirs_footprint, which the
  // mapper's spill decision and estimate_dirs_bytes rely on.
  const std::vector<i32> sizes{1, 63, 64, 65, 1000, 2064};
  Rng rng(3);
  for (const i32 tlen : sizes) {
    for (const i32 qlen : sizes) {
      const std::vector<u8> t = random_codes(rng, tlen);
      const std::vector<u8> q = random_codes(rng, qlen);
      detail::KernelArena score_arena, path_arena;
      DiffArgs a = make_args(t, q, AlignMode::kExtension, false);
      a.arena = &score_arena;
      detail::strip_kernel()(a);
      a.with_cigar = true;
      a.arena = &path_arena;
      detail::strip_kernel()(a);
      const u64 dirs = path_arena.reserved_bytes() - score_arena.reserved_bytes();
      EXPECT_LE(dirs, detail::KernelArena::dirs_footprint(tlen, qlen))
          << "tlen=" << tlen << " qlen=" << qlen;
    }
  }
}

TEST(StripRouting, EveryUnbandedUnstreamedCallTakesTheStripPath) {
  const std::vector<u8> t(3000, 0), q(100, 0);
  DiffArgs a = make_args(t, q, AlignMode::kGlobal, true);
  EXPECT_TRUE(detail::strip_kernel_accepts(a));  // any size
  DiffArgs b = a;
  b.mode = AlignMode::kExtension;
  EXPECT_TRUE(detail::strip_kernel_accepts(b));
  b = a;
  b.band = 16;
  EXPECT_FALSE(detail::strip_kernel_accepts(b));
  b = a;
  b.zdrop = 100;
  EXPECT_FALSE(detail::strip_kernel_accepts(b));
  b = a;
  MemDirsSpill spill;
  b.spill = &spill;
  EXPECT_FALSE(detail::strip_kernel_accepts(b));
  EXPECT_FALSE(kernel_has_strips(get_diff_kernel(Layout::kManymap, Isa::kScalar)));
  EXPECT_FALSE(kernel_has_strips(get_diff_kernel(Layout::kMinimap2, Isa::kAvx512)));
  EXPECT_EQ(kernel_has_strips(get_diff_kernel(Layout::kManymap, Isa::kAvx512)),
            detail::strip_kernel() != nullptr);
}

}  // namespace
}  // namespace manymap
