// Exactness of the mapper's one-pass rescoring: Cigar::stats must give
// the score Cigar::score gives and the match count of the per-base loop
// it replaced, on random paths over sequences with N bases, read on both
// strands.
#include <gtest/gtest.h>

#include "align/cigar.hpp"
#include "align/scoring.hpp"
#include "base/random.hpp"
#include "sequence/dna.hpp"

namespace manymap {
namespace {

std::vector<u8> noisy_codes(Rng& rng, std::size_t n) {
  std::vector<u8> s(n);
  for (auto& b : s) b = rng.bernoulli(0.05) ? kBaseN : rng.base();
  return s;
}

/// The match-count loop Mapper::map ran after Cigar::score.
u64 matches_by_base(const Cigar& c, const std::vector<u8>& t, const std::vector<u8>& q, u64 ti,
                    u64 qi) {
  u64 matches = 0;
  for (const auto& op : c.ops()) {
    if (op.op == 'M') {
      for (u32 x = 0; x < op.len; ++x)
        if (t[ti + x] == q[qi + x] && t[ti + x] < 4) ++matches;
      ti += op.len;
      qi += op.len;
    } else if (op.op == 'D') {
      ti += op.len;
    } else {
      qi += op.len;
    }
  }
  return matches;
}

TEST(PathStats, MatchesScoreAndTheMatchLoop) {
  Rng rng(0xc16a);
  const ScoreParams params[] = {ScoreParams{}, ScoreParams::map_pb(), ScoreParams::map_ont()};
  for (int round = 0; round < 600; ++round) {
    Cigar c;
    for (u64 ops = rng.uniform(12); ops > 0; --ops) {
      const u64 kind = rng.uniform(4);
      c.push(kind < 2 ? 'M' : kind == 2 ? 'I' : 'D',
             static_cast<u32>(1 + rng.uniform(kind < 2 ? 90 : 8)));
    }
    const u64 t_off = rng.uniform(20), q_off = rng.uniform(20);
    const auto target = noisy_codes(rng, t_off + c.target_span() + rng.uniform(5));
    // The query shares most target bases, so runs hold real matches.
    auto query = noisy_codes(rng, q_off + c.query_span() + rng.uniform(5));
    for (std::size_t i = 0; i < query.size() && i < target.size(); ++i)
      if (rng.bernoulli(0.8)) query[i] = target[i];
    for (const bool rev : {false, true}) {
      const auto q = rev ? reverse_complement(query) : query;
      for (const auto& p : params) {
        const PathStats st = c.stats(target, q, t_off, q_off, p);
        ASSERT_EQ(st.score, c.score(target, q, t_off, q_off, p)) << c.to_string();
        ASSERT_EQ(st.matches, matches_by_base(c, target, q, t_off, q_off)) << c.to_string();
        ASSERT_EQ(st.length, c.target_span() + c.query_span() -
                                 [&] {
                                   u64 m = 0;
                                   for (const auto& op : c.ops()) m += op.op == 'M' ? op.len : 0;
                                   return m;
                                 }());
      }
    }
  }
}

TEST(PathStats, RejectsAPathPastTheSequences) {
  const Cigar c = Cigar::from_string("5M");
  const std::vector<u8> t(4, 0), q(8, 0);
  EXPECT_DEATH(c.stats(t, q, 0, 0, ScoreParams{}), "CIGAR overruns sequences");
}

}  // namespace
}  // namespace manymap
