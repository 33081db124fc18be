// KernelArena contract tests (align/arena.hpp):
//  1. dirty reuse is bit-exact — every backend, run twice through one
//     0xA5-poisoned arena shared across the whole combo matrix, must equal
//     the fresh-workspace result exactly (score, end cell, CIGAR);
//  2. the steady state never allocates — after one warm-up call, repeat
//     and shrunken calls reach neither check_dp_alloc nor vector growth;
//  3. growth charges its true byte footprint to check_dp_alloc (satellite
//     of the old `4 * (tlen + pad)` under-accounting fix);
//  4. the "align.dp.alloc" fault site still fires under arena reuse, only
//     on growth, and a mid-batch growth failure degrades via the fallback
//     ladder while leaving the arena intact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/diff_common.hpp"
#include "align/fallback.hpp"
#include "align/kernel_api.hpp"
#include "align/reference_dp.hpp"
#include "align/twopiece.hpp"
#include "base/random.hpp"
#include "fault/fault.hpp"
#include "sequence/dna.hpp"

namespace manymap {
namespace {

using detail::dp_alloc_stats;
using detail::KernelArena;

std::vector<u8> noisy_pair_target(u64 seed, i32 n) {
  Rng rng(seed);
  std::vector<u8> s(static_cast<std::size_t>(n));
  for (auto& b : s) b = rng.base();
  return s;
}

std::vector<u8> mutate(u64 seed, const std::vector<u8>& t, double rate) {
  Rng rng(seed);
  std::vector<u8> q = t;
  for (auto& b : q)
    if (rng.bernoulli(rate)) b = rng.base();
  return q;
}

struct Shape {
  std::vector<u8> target, query;
};

/// A few deliberately mismatched shapes so arena reuse crosses growth,
/// shrink and aspect-ratio changes (stale diag_off, stale long tails).
std::vector<Shape> test_shapes() {
  std::vector<Shape> shapes;
  const std::vector<u8> big = noisy_pair_target(11, 257);
  shapes.push_back({big, mutate(12, big, 0.15)});
  const std::vector<u8> small = noisy_pair_target(13, 63);
  shapes.push_back({small, mutate(14, small, 0.30)});
  shapes.push_back({noisy_pair_target(15, 190), noisy_pair_target(16, 31)});  // skewed
  shapes.push_back({noisy_pair_target(17, 16), noisy_pair_target(18, 129)});  // skewed back
  // Small pair one row past a 64-row strip edge: the AVX-512BW manymap
  // kernel runs it on the strip path in both modes, whose carry and
  // border rows must be rewritten before any live lane reads them.
  const std::vector<u8> strip = noisy_pair_target(19, 65);
  shapes.push_back({strip, mutate(20, strip, 0.15)});
  return shapes;
}

void expect_same(const AlignResult& got, const AlignResult& want, const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.t_end, want.t_end) << what;
  EXPECT_EQ(got.q_end, want.q_end) << what;
  EXPECT_EQ(got.cigar.to_string(), want.cigar.to_string()) << what;
}

TEST(ArenaBitExact, DirtyReuseMatchesFreshAcrossAllBackends) {
  const std::vector<Shape> shapes = test_shapes();
  // ONE arena for the entire matrix: every kernel inherits whatever bytes
  // the previous kernel/layout/shape left behind, plus an explicit 0xA5
  // poison before each combo's first run.
  KernelArena arena;
  for (const Shape& sh : shapes) {
    for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
      for (const Isa isa : available_isas()) {
        for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
          for (const bool cigar : {false, true}) {
            const std::string what = std::string(to_string(layout)) + "/" +
                                     to_string(isa) + "/" + to_string(mode) +
                                     (cigar ? "/path" : "/score") + " tlen=" +
                                     std::to_string(sh.target.size());
            if (KernelFn fn = get_diff_kernel(layout, isa)) {
              DiffArgs a;
              a.target = sh.target.data();
              a.tlen = static_cast<i32>(sh.target.size());
              a.query = sh.query.data();
              a.qlen = static_cast<i32>(sh.query.size());
              a.mode = mode;
              a.with_cigar = cigar;
              const AlignResult fresh = fn(a);  // a.arena == nullptr
              a.arena = &arena;
              arena.poison(0xA5);
              expect_same(fn(a), fresh, "diff/" + what + " poisoned");
              expect_same(fn(a), fresh, "diff/" + what + " reused");
            }
            if (TwoPieceKernelFn fn = get_twopiece_kernel(layout, isa)) {
              TwoPieceArgs a;
              a.target = sh.target.data();
              a.tlen = static_cast<i32>(sh.target.size());
              a.query = sh.query.data();
              a.qlen = static_cast<i32>(sh.query.size());
              a.mode = mode;
              a.with_cigar = cigar;
              const AlignResult fresh = fn(a);
              a.arena = &arena;
              arena.poison(0xA5);
              expect_same(fn(a), fresh, "twopiece/" + what + " poisoned");
              expect_same(fn(a), fresh, "twopiece/" + what + " reused");
            }
          }
        }
      }
    }
  }
}

TEST(ArenaSteadyState, RepeatAndShrunkenCallsNeverAllocate) {
  const std::vector<u8> t = noisy_pair_target(21, 300);
  const std::vector<u8> q = mutate(22, t, 0.15);
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    for (const Isa isa : available_isas()) {
      for (const bool cigar : {false, true}) {
        KernelArena arena;
        DiffArgs a;
        a.target = t.data();
        a.tlen = static_cast<i32>(t.size());
        a.query = q.data();
        a.qlen = static_cast<i32>(q.size());
        a.with_cigar = cigar;
        a.arena = &arena;
        const KernelFn fn = get_diff_kernel(layout, isa);
        ASSERT_NE(fn, nullptr);
        fn(a);  // warm-up: the only allowed growth
        const u64 growths = arena.growth_events();
        detail::DpAllocStats& stats = dp_alloc_stats();
        stats.reset();
        for (int i = 0; i < 3; ++i) fn(a);  // same shape
        a.tlen = 120;  // strictly smaller problem on the warmed arena
        a.qlen = 100;
        for (int i = 0; i < 3; ++i) fn(a);
        EXPECT_EQ(stats.calls, 0u) << to_string(layout) << "/" << to_string(isa);
        EXPECT_EQ(stats.bytes, 0u);
        EXPECT_EQ(arena.growth_events(), growths);
      }
    }
  }
}

TEST(ArenaAccounting, GrowthFromEmptyChargesExactlyTheReservedFootprint) {
  const std::vector<u8> t = noisy_pair_target(31, 200);
  const std::vector<u8> q = mutate(32, t, 0.2);
  detail::DpAllocStats& stats = dp_alloc_stats();

  {
    KernelArena arena;
    DiffArgs a;
    a.target = t.data();
    a.tlen = static_cast<i32>(t.size());
    a.query = q.data();
    a.qlen = static_cast<i32>(q.size());
    a.with_cigar = true;
    a.arena = &arena;
    stats.reset();
    get_diff_kernel(Layout::kManymap, Isa::kScalar)(a);
    // One growth event charging the true footprint: the bytes reported to
    // check_dp_alloc must equal what the arena actually reserved — the
    // old accounting (4 * (tlen + pad)) omitted tp/qr/dirs/diag_off.
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.bytes, arena.reserved_bytes());
    // The padded-dirs region dominates: tlen*qlen cells plus a kLanePad
    // tail per diagonal must all be charged.
    const u64 cells = static_cast<u64>(a.tlen) * static_cast<u64>(a.qlen);
    const u64 pads =
        static_cast<u64>(a.tlen + a.qlen - 1) * static_cast<u64>(detail::kLanePad);
    EXPECT_GE(stats.bytes, cells + pads);
  }
  {
    KernelArena arena;
    TwoPieceArgs a;
    a.target = t.data();
    a.tlen = static_cast<i32>(t.size());
    a.query = q.data();
    a.qlen = static_cast<i32>(q.size());
    a.with_cigar = true;
    a.arena = &arena;
    stats.reset();
    get_twopiece_kernel(Layout::kManymap, Isa::kScalar)(a);
    // The two-piece family reports through the same hook, including its
    // extra Y2/X2 rows.
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.bytes, arena.reserved_bytes());
  }
}

#if MANYMAP_FAULT_INJECTION

using fault::FaultPlan;
using fault::FaultSpec;
using fault::ScopedPlan;

TEST(ArenaFault, AllocSiteFiresOnlyOnGrowthUnderReuse) {
  const std::vector<u8> small_t = noisy_pair_target(41, 64);
  const std::vector<u8> small_q = mutate(42, small_t, 0.2);
  const std::vector<u8> big_t = noisy_pair_target(43, 256);
  const std::vector<u8> big_q = mutate(44, big_t, 0.2);

  KernelArena arena;
  const KernelFn fn = get_diff_kernel(Layout::kManymap, Isa::kScalar);
  DiffArgs a;
  a.target = small_t.data();
  a.tlen = static_cast<i32>(small_t.size());
  a.query = small_q.data();
  a.qlen = static_cast<i32>(small_q.size());
  a.with_cigar = true;
  a.arena = &arena;
  fn(a);  // warm the arena for the small shape

  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "align.dp.alloc";
  spec.one_in = 1;
  plan.arm(spec);
  ScopedPlan guard(&plan);

  // Warmed + same shape: the allocator is never reached, so an armed
  // every-time fault cannot fire.
  EXPECT_NO_THROW(fn(a));
  EXPECT_EQ(plan.fires(), 0u);

  // Mid-batch growth (a larger read arrives): the site fires.
  a.target = big_t.data();
  a.tlen = static_cast<i32>(big_t.size());
  a.query = big_q.data();
  a.qlen = static_cast<i32>(big_q.size());
  EXPECT_THROW(fn(a), fault::FaultInjected);
  EXPECT_GT(plan.fires(), 0u);
}

TEST(ArenaFault, MidBatchGrowthFailureDegradesViaLadderAndLeavesArenaUsable) {
  const std::vector<u8> small_t = noisy_pair_target(51, 48);
  const std::vector<u8> small_q = mutate(52, small_t, 0.2);
  const std::vector<u8> big_t = noisy_pair_target(53, 200);
  const std::vector<u8> big_q = mutate(54, big_t, 0.2);

  KernelArena arena;
  DiffArgs big;
  big.target = big_t.data();
  big.tlen = static_cast<i32>(big_t.size());
  big.query = big_q.data();
  big.qlen = static_cast<i32>(big_q.size());
  big.mode = AlignMode::kGlobal;
  big.with_cigar = true;
  big.arena = &arena;
  const AlignResult want = reference_align(big);

  {
    DiffArgs small = big;
    small.target = small_t.data();
    small.tlen = static_cast<i32>(small_t.size());
    small.query = small_q.data();
    small.qlen = static_cast<i32>(small_q.size());
    get_diff_kernel(Layout::kManymap, Isa::kScalar)(small);  // warm for small
  }
  const u64 growths = arena.growth_events();

  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "align.dp.alloc";
  spec.one_in = 1;  // every growth attempt fails
  plan.arm(spec);

  {
    // The big read arrives mid-batch: rungs 0 and 1 both need growth and
    // fail; the banded-reference rung has no DP-alloc site and answers.
    ScopedPlan guard(&plan);
    FallbackOutcome fo;
    const AlignResult got = align_with_fallback(
        big, get_diff_kernel(Layout::kManymap, Isa::kScalar), Layout::kManymap, &fo);
    EXPECT_EQ(fo.rung, 2u);
    EXPECT_GT(fo.failed_attempts, 0u);
    expect_same(got, want, "ladder answer for the oversized read");
  }

  // A failed growth must leave the arena untouched: no partial growth...
  EXPECT_EQ(arena.growth_events(), growths);
  // ...and with the fault disarmed the same call grows and succeeds.
  expect_same(get_diff_kernel(Layout::kManymap, Isa::kScalar)(big), want,
              "arena recovers after injected growth failure");
  EXPECT_GT(arena.growth_events(), growths);
}

#endif  // MANYMAP_FAULT_INJECTION

}  // namespace
}  // namespace manymap
