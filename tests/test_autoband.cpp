// Geometry-driven auto banding (ISSUE 9): estimator properties (derived
// band covers the true path deviation of synthetic indel walks), chain
// diagonal statistics, profitability boundaries, mapper-level
// auto-vs-off bit-identity with counter accounting, and the banded
// placement relaxations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "base/random.hpp"
#include "chain/chain.hpp"
#include "core/band_policy.hpp"
#include "core/mapper.hpp"
#include "core/options.hpp"
#include "gpu/placement.hpp"
#include "mapper_fixture.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

TEST(BandPolicy, HeadroomZeroWhenRateOrMultZero) {
  AutoBandPolicy p;
  p.indel_frac = 0.0;
  EXPECT_EQ(indel_headroom(10'000, p), 0);
  p.indel_frac = 0.15;
  p.indel_sd_mult = 0.0;
  EXPECT_EQ(indel_headroom(10'000, p), 0);
}

TEST(BandPolicy, HeadroomGrowsSublinearly) {
  const AutoBandPolicy p;
  const i32 h1 = indel_headroom(1'000, p);
  const i32 h4 = indel_headroom(4'000, p);
  EXPECT_GT(h1, 0);
  EXPECT_GT(h4, h1);       // monotone in length
  EXPECT_LE(h4, 2 * h1 + 1);  // sqrt law: 4x length -> ~2x headroom
}

TEST(BandPolicy, GapBandAlwaysCoversDriftPlusSlack) {
  const AutoBandPolicy p;
  Rng rng(7);
  for (int it = 0; it < 200; ++it) {
    const u64 dt = 1 + rng.uniform(5'000);
    const u64 dq = 1 + rng.uniform(5'000);
    const u32 drift = static_cast<u32>(dt > dq ? dt - dq : dq - dt);
    const i32 band = auto_band_for_gap(dt, dq, drift, p);
    if (band < p.max_band)
      EXPECT_GE(band, static_cast<i32>(drift) + p.slack) << dt << "x" << dq;
    EXPECT_LE(band, p.max_band);
  }
}

// The core soundness property behind the <2% fallback target: walk a
// synthetic alignment path with indels at the policy's assumed rate and
// require the derived band to cover the walk's maximum deviation from
// the band's center line (the straight line the measured drift pins).
TEST(BandPolicy, GapBandCoversSyntheticIndelWalkDeviation) {
  const AutoBandPolicy p;
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const u32 steps = 200 + static_cast<u32>(rng.uniform(4'000));
    u64 dt = 0, dq = 0;
    std::vector<i64> diag{0};
    for (u32 i = 0; i < steps; ++i) {
      const u32 r = static_cast<u32>(rng.uniform(1'000));
      // ~15% indels split evenly between insertions and deletions.
      if (r < 75) ++dt;
      else if (r < 150) ++dq;
      else { ++dt; ++dq; }
      diag.push_back(static_cast<i64>(dt) - static_cast<i64>(dq));
    }
    if (dt == 0 || dq == 0) continue;
    const i64 net = static_cast<i64>(dt) - static_cast<i64>(dq);
    const u32 drift = static_cast<u32>(net < 0 ? -net : net);
    // Max |walk - straight chord| in diagonal units.
    i64 deviation = 0;
    for (std::size_t k = 0; k < diag.size(); ++k) {
      const i64 chord = net * static_cast<i64>(k) / static_cast<i64>(diag.size() - 1);
      deviation = std::max<i64>(deviation, std::abs(diag[k] - chord));
    }
    const i32 band = auto_band_for_gap(dt, dq, drift, p);
    EXPECT_GE(static_cast<i64>(band), deviation)
        << "trial " << trial << " dt=" << dt << " dq=" << dq << " drift=" << drift;
  }
}

TEST(BandPolicy, ExtensionBandCoversWindowSurplusAndBias) {
  const AutoBandPolicy p;
  // The target window exceeds the query by the end-bonus surplus; the
  // surplus offsets the band's corner-to-corner center line and must be
  // covered like measured gap drift.
  const i32 band = auto_band_for_extension(264, 200, 0.0, p);
  EXPECT_GE(band, 64 + p.slack);
  // Unanchored extensions also carry the linear net-indel bias term.
  EXPECT_GE(band, 64 + p.slack + static_cast<i32>(p.ext_bias_frac * 200));
}

TEST(BandPolicy, ShortChainsCannotCertifyAReadAsClean) {
  const AutoBandPolicy p;
  // A dense but tiny chain reads as sparse: the span is floored at
  // min_density_span, so 10 anchors over 100 bases is 10/4000, far below
  // the clean threshold — its long noisy tail must not be banded.
  EXPECT_LT(chain_anchor_density(10, 100, p), p.clean_anchor_density);
  // The same anchor rate sustained over a span past the floor qualifies.
  EXPECT_GE(chain_anchor_density(800, 8'000, p), p.clean_anchor_density);
  // At the floor itself the density is the plain ratio.
  EXPECT_DOUBLE_EQ(chain_anchor_density(200, p.min_density_span, p),
                   200.0 / static_cast<double>(p.min_density_span));
}

TEST(BandPolicy, LongNoisyExtensionsRunFullCleanOnesStayBanded) {
  const AutoBandPolicy p;
  const u64 cap = static_cast<u64>(p.ext_band_max_len);
  // Sparse anchors (noisy read): the length cap applies.
  EXPECT_GT(auto_band_for_extension(cap + 64, cap, 0.0, p), 0);
  EXPECT_EQ(auto_band_for_extension(cap + 65, cap + 1, 0.0, p), 0);
  // Dense anchors (clean read): long extensions stay banded — the ledger
  // can still prove them when the content loses little score.
  EXPECT_GT(auto_band_for_extension(cap + 65, cap + 1, p.clean_anchor_density, p), 0);
  EXPECT_GT(auto_band_for_extension(2'064, 2'000, 0.15, p), 0);
}

TEST(BandPolicy, ProfitabilityBoundary) {
  AutoBandPolicy p;
  p.min_gain_lanes_frac = 0.75;
  // 2*b+1 lanes vs 0.75 * min(tlen, qlen): 1000-cell diagonal -> bands
  // up to 374 lanes-wide pay off (749 < 750), 375 does not (751 >= 750).
  EXPECT_EQ(profitable_band(374, 2'000, 1'000, p), 374);
  EXPECT_EQ(profitable_band(375, 2'000, 1'000, p), 0);
  EXPECT_EQ(profitable_band(0, 2'000, 1'000, p), 0);
  EXPECT_EQ(profitable_band(-3, 2'000, 1'000, p), 0);
}

TEST(BandPolicy, TypicalBandIsPositiveAndCapped) {
  const AutoBandPolicy p;
  const i32 b16k = auto_band_typical(16'000, p);
  EXPECT_GT(b16k, 0);
  EXPECT_LE(b16k, p.max_band);
  EXPECT_GE(auto_band_typical(500'000, p), b16k);
}

TEST(ChainGeometry, GapDriftAndSpreadComputed) {
  // Three colinear runs with two diagonal jumps: +5 then -12. Anchors are
  // dense enough (spacing 10 <= max_dist) to chain as one chain.
  std::vector<Anchor> anchors;
  u32 t = 100, q = 10;
  for (int i = 0; i < 8; ++i, t += 10, q += 10) anchors.push_back({0, t, q, false});
  t += 5;  // deletion-ish jump: diagonal +5
  for (int i = 0; i < 8; ++i, t += 10, q += 10) anchors.push_back({0, t, q, false});
  q += 12;  // insertion-ish jump: diagonal -12
  for (int i = 0; i < 8; ++i, t += 10, q += 10) anchors.push_back({0, t, q, false});

  ChainParams cp;
  cp.min_count = 3;
  cp.min_score = 1;
  const auto chains = chain_anchors(anchors, cp);
  ASSERT_FALSE(chains.empty());
  const Chain& c = chains.front();
  ASSERT_EQ(c.anchors.size(), anchors.size());
  EXPECT_EQ(c.max_gap_drift, 12u);
  // Diagonals visit d0, d0+5, d0+5-12 -> spread = 5 - (-7) = 12.
  EXPECT_EQ(c.diag_spread, 12u);
  EXPECT_EQ(c.gap_drift(8), 5u);
  EXPECT_EQ(c.gap_drift(16), 12u);
  EXPECT_EQ(c.gap_drift(1), 0u);
}

TEST(ChainGeometry, PerfectChainHasZeroDriftAndSpread) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 10; ++i) anchors.push_back({0, 50 + i * 20, 5 + i * 20, false});
  ChainParams cp;
  cp.min_count = 3;
  cp.min_score = 1;
  const auto chains = chain_anchors(anchors, cp);
  ASSERT_FALSE(chains.empty());
  EXPECT_EQ(chains.front().max_gap_drift, 0u);
  EXPECT_EQ(chains.front().diag_spread, 0u);
}

// Regression: the chain DP look-back terminates on dt > max_dist (valid:
// anchors are sorted by tpos) but must NOT terminate on dq > max_dist —
// qpos is not monotone in that order. A stray anchor (e.g. a repeat hit
// that slipped past the occ mask) sitting at a nearby tpos but far-away
// qpos used to hide every predecessor beyond it and split the chain at
// an otherwise perfectly jumpable gap.
TEST(ChainGeometry, StrayAnchorDoesNotSplitChainAtJumpableGap) {
  std::vector<Anchor> anchors;
  // Two colinear groups on diagonal +1000, separated by a 900-base gap
  // (well under max_dist = 5000).
  for (u32 i = 0; i < 20; ++i)
    anchors.push_back({0, 6000 + i * 10 + 1000, 6000 + i * 10, false});
  for (u32 i = 0; i < 20; ++i)
    anchors.push_back({0, 7090 + i * 10 + 1000, 7090 + i * 10, false});
  // Stray: tpos just before the second group (dt = 50 from its first
  // anchor), qpos near the read start (dq > max_dist).
  anchors.push_back({0, 8040, 10, false});
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    return std::tie(a.rid, a.rev, a.tpos, a.qpos) <
           std::tie(b.rid, b.rev, b.tpos, b.qpos);
  });
  const auto chains = chain_anchors(anchors, ChainParams{});
  ASSERT_FALSE(chains.empty());
  EXPECT_EQ(chains.front().anchors.size(), 40u)
      << "gap-adjacent groups must chain through the stray anchor";
  EXPECT_EQ(chains.front().qstart(), 6000u);
  EXPECT_EQ(chains.front().qend(), 7280u);
}

TEST(MapTimings, AccumulatesAutoBandCounters) {
  MapTimings a, b;
  a.auto_band_kernels = 3;
  a.auto_band_full = 1;
  a.auto_band_sum = 90;
  a.band_fallbacks = 2;
  b.auto_band_kernels = 5;
  b.auto_band_full = 4;
  b.auto_band_sum = 110;
  b.band_fallbacks = 1;
  a += b;
  EXPECT_EQ(a.auto_band_kernels, 8u);
  EXPECT_EQ(a.auto_band_full, 5u);
  EXPECT_EQ(a.auto_band_sum, 200u);
  EXPECT_EQ(a.band_fallbacks, 3u);
}

void expect_identical(const std::vector<Mapping>& a, const std::vector<Mapping>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tstart, b[i].tstart);
    EXPECT_EQ(a[i].tend, b[i].tend);
    EXPECT_EQ(a[i].qstart, b[i].qstart);
    EXPECT_EQ(a[i].qend, b[i].qend);
    EXPECT_EQ(a[i].rev, b[i].rev);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].mapq, b[i].mapq);
    EXPECT_EQ(a[i].cigar.to_string(), b[i].cigar.to_string());
  }
}

TEST(AutoBandMapper, BitIdenticalToUnbandedAndCounted) {
  const MapOptions base = MapOptions::map_pb();
  MapperFixture fx(101, base);
  ASSERT_FALSE(fx.reads.empty());

  MapOptions opt_off = base;
  opt_off.band_mode = BandMode::kOff;
  MapOptions opt_auto = base;
  opt_auto.band_mode = BandMode::kAuto;
  const Mapper m_off(fx.ref, fx.index, opt_off);
  const Mapper m_auto(fx.ref, fx.index, opt_auto);

  MapTimings t_off, t_auto;
  for (const auto& sr : fx.reads)
    expect_identical(m_auto.map(sr.read, &t_auto), m_off.map(sr.read, &t_off));

  // Off mode must not touch the auto counters; auto mode must account
  // every kernel as either banded or deliberately full.
  EXPECT_EQ(t_off.auto_band_kernels, 0u);
  EXPECT_EQ(t_off.auto_band_full, 0u);
  EXPECT_EQ(t_off.auto_band_sum, 0u);
  EXPECT_EQ(t_off.band_fallbacks, 0u);
  EXPECT_GT(t_auto.auto_band_kernels + t_auto.auto_band_full, 0u);
  EXPECT_LE(t_auto.band_fallbacks, t_auto.auto_band_kernels);
  if (t_auto.auto_band_kernels > 0) EXPECT_GT(t_auto.auto_band_sum, 0u);
}

TEST(AutoBandMapper, HostilePolicyFallsBackLoudlyNotWrongly) {
  const MapOptions base = MapOptions::map_pb();
  MapperFixture fx(202, base);
  ASSERT_FALSE(fx.reads.empty());

  MapOptions opt_h = base;
  opt_h.band_mode = BandMode::kAuto;
  opt_h.auto_band.slack = 1;
  opt_h.auto_band.indel_frac = 0.0;
  opt_h.auto_band.indel_sd_mult = 0.0;
  opt_h.auto_band.ext_bias_frac = 0.0;
  // This pass exercises the fallback mechanism itself, and on these reads
  // every escape comes from banded extensions of weak secondary chains,
  // which the default pri_ratio drops before DP. Align every chain.
  opt_h.pri_ratio = 0.0;
  // The off baseline shares the hostile policy: the huge-gap advisory
  // band is policy-derived in BOTH modes (that is what makes auto ≡ off),
  // so the comparison must not mix two different policies.
  MapOptions opt_off = opt_h;
  opt_off.band_mode = BandMode::kOff;
  const Mapper m_off(fx.ref, fx.index, opt_off);
  const Mapper m_h(fx.ref, fx.index, opt_h);

  MapTimings t_h;
  for (const auto& sr : fx.reads)
    expect_identical(m_h.map(sr.read, &t_h), m_off.map(sr.read));
  // A 1-wide band on 15%-error reads cannot hold the optimum: escapes
  // must surface as counted fallbacks, never as silent divergence.
  EXPECT_GT(t_h.band_fallbacks, 0u);

  // The same hostile policy at the default pri_ratio stays exact.
  MapOptions opt_hd = opt_h;
  opt_hd.pri_ratio = base.pri_ratio;
  MapOptions opt_offd = opt_off;
  opt_offd.pri_ratio = base.pri_ratio;
  const Mapper m_hd(fx.ref, fx.index, opt_hd);
  const Mapper m_offd(fx.ref, fx.index, opt_offd);
  for (const auto& sr : fx.reads) expect_identical(m_hd.map(sr.read), m_offd.map(sr.read));
}

TEST(AutoBandMapper, ExplicitCallBandOverridesAutoMode) {
  const MapOptions base = MapOptions::map_pb();
  MapperFixture fx(303, base, 2, 2'000);
  ASSERT_FALSE(fx.reads.empty());
  MapOptions opt_auto = base;
  opt_auto.band_mode = BandMode::kAuto;
  const Mapper m(fx.ref, fx.index, opt_auto);
  MapCall call;
  MapTimings t;
  call.timings = &t;
  call.band = 0;  // degrade-ladder style pin: force unbanded
  for (const auto& sr : fx.reads) (void)m.map(sr.read, call);
  EXPECT_EQ(t.auto_band_kernels, 0u);
  EXPECT_EQ(t.auto_band_full, 0u);
}

TEST(BandOption, ParsesAutoFixedAndOff) {
  MapOptions opt;
  ASSERT_TRUE(apply_band_option(opt, "auto"));
  EXPECT_EQ(opt.band_mode, BandMode::kAuto);
  EXPECT_EQ(opt.band, 0);
  ASSERT_TRUE(apply_band_option(opt, "128"));
  EXPECT_EQ(opt.band_mode, BandMode::kFixed);
  EXPECT_EQ(opt.band, 128);
  ASSERT_TRUE(apply_band_option(opt, "0"));
  EXPECT_EQ(opt.band_mode, BandMode::kOff);
  EXPECT_EQ(opt.band, 0);
  EXPECT_FALSE(apply_band_option(opt, "narrow"));
}

std::vector<u32> uniform_lengths(std::size_t n, u32 len) {
  return std::vector<u32>(n, len);
}

TEST(BandedPlacement, BandHintRelaxesShortReadFloor) {
  gpu::PlacementPolicy policy;  // min_mean 1000, banded factor 0.5
  const auto lens = uniform_lengths(8, 600);
  const auto unbanded = gpu::decide_placement(lens, policy);
  EXPECT_FALSE(unbanded.offload);
  EXPECT_EQ(unbanded.reason, gpu::PlacementReason::kShortReads);
  const auto banded = gpu::decide_placement(lens, policy, 100);
  EXPECT_TRUE(banded.offload);
  EXPECT_TRUE(banded.banded);
  // 500-599 still under the halved floor even banded.
  EXPECT_FALSE(gpu::decide_placement(uniform_lengths(8, 499), policy, 100).offload);
}

TEST(BandedPlacement, WideHintDoesNotRelax) {
  gpu::PlacementPolicy policy;
  const auto lens = uniform_lengths(8, 600);
  // 2*300+1 = 601 >= mean 600: the band does not narrow these reads, so
  // the unbanded boundaries stay in force.
  const auto d = gpu::decide_placement(lens, policy, 300);
  EXPECT_FALSE(d.offload);
  EXPECT_FALSE(d.banded);
  EXPECT_EQ(d.reason, gpu::PlacementReason::kShortReads);
}

TEST(BandedPlacement, BandedCellEstimateIsLinearInBand) {
  gpu::PlacementPolicy policy;
  const auto lens = uniform_lengths(4, 8'000);
  const auto full = gpu::decide_placement(lens, policy);
  const auto banded = gpu::decide_placement(lens, policy, 100);
  EXPECT_EQ(full.est_cells, 4ull * 8'000 * 8'000);
  EXPECT_EQ(banded.est_cells, 4ull * 8'000 * 201);
  EXPECT_LT(banded.est_cells, full.est_cells);
}

}  // namespace
}  // namespace manymap
