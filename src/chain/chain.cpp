#include "chain/chain.hpp"

#include <algorithm>

namespace manymap {

std::vector<Chain> chain_anchors(const std::vector<Anchor>& anchors, const ChainParams& p) {
  const std::size_t n = anchors.size();
  std::vector<Chain> chains;
  if (n == 0) return chains;

  std::vector<i32> f(n), pred(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Anchor& ai = anchors[i];
    i32 best = static_cast<i32>(p.seed_length);
    i32 best_j = -1;
    u32 skipped = 0;
    const std::size_t lo = i > p.max_iter ? i - p.max_iter : 0;
    for (std::size_t jj = i; jj-- > lo;) {
      const Anchor& aj = anchors[jj];
      if (aj.rid != ai.rid || aj.rev != ai.rev) break;  // sorted groups
      if (aj.tpos >= ai.tpos) continue;                 // must advance on target
      if (aj.qpos >= ai.qpos) continue;                 // and on query
      const u32 dt = ai.tpos - aj.tpos;
      const u32 dq = ai.qpos - aj.qpos;
      if (dt > p.max_dist) break;  // sorted by tpos: dt only grows
      // qpos is NOT monotone in the look-back: a stray anchor (e.g. a
      // repeat hit that slipped past the occ mask) can sit at a nearby
      // tpos but a far-away qpos. Terminating on dq here would hide every
      // predecessor beyond the stray and split the chain mid-read.
      if (dq > p.max_dist) continue;
      const u32 dd = dq > dt ? dq - dt : dt - dq;
      if (dd > p.bandwidth) continue;
      const i32 match = static_cast<i32>(std::min<u32>(std::min(dq, dt), p.seed_length));
      const i32 cand = f[jj] + match - gap_cost(dq, dt, p.seed_length);
      if (cand > best) {
        best = cand;
        best_j = static_cast<i32>(jj);
        skipped = 0;
      } else if (++skipped > p.max_skip) {
        break;
      }
    }
    f[i] = best;
    pred[i] = best_j;
  }

  // Peel chains greedily from the highest-scoring tail anchor.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return f[a] > f[b]; });
  std::vector<bool> used(n, false);
  for (const std::size_t tail : order) {
    if (used[tail] || f[tail] < p.min_score) continue;
    // Walk back until the start of the chain or an anchor already claimed
    // by a better chain; a truncated suffix only keeps its marginal score.
    // The first walk sizes the members, the second stores them back to front.
    std::size_t count = 0;
    i32 cur = static_cast<i32>(tail);
    while (cur >= 0 && !used[static_cast<std::size_t>(cur)]) {
      ++count;
      cur = pred[static_cast<std::size_t>(cur)];
    }
    const i32 score = f[tail] - (cur >= 0 ? f[static_cast<std::size_t>(cur)] : 0);
    const bool keep = count >= p.min_count && score >= p.min_score;
    std::vector<Anchor> members(keep ? count : 0);
    cur = static_cast<i32>(tail);
    for (std::size_t m = count; m-- > 0;) {
      if (keep) members[m] = anchors[static_cast<std::size_t>(cur)];
      used[static_cast<std::size_t>(cur)] = true;
      cur = pred[static_cast<std::size_t>(cur)];
    }
    if (!keep) continue;
    Chain c;
    c.rid = members.front().rid;
    c.rev = members.front().rev;
    c.score = score;
    c.anchors = std::move(members);
    i64 dmin = Chain::diagonal(c.anchors.front());
    i64 dmax = dmin;
    for (std::size_t i = 1; i < c.anchors.size(); ++i) {
      const i64 d = Chain::diagonal(c.anchors[i]);
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
      c.max_gap_drift = std::max(c.max_gap_drift, c.gap_drift(i));
    }
    c.diag_spread = static_cast<u32>(dmax - dmin);
    chains.push_back(std::move(c));
  }

  std::sort(chains.begin(), chains.end(),
            [](const Chain& a, const Chain& b) { return a.score > b.score; });

  // Primary/secondary: a chain whose query interval overlaps a
  // better-scoring chain by more than `primary_overlap` is secondary.
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i].primary = true;
    const u32 s1 = chains[i].qstart(), e1 = chains[i].qend();
    for (std::size_t j = 0; j < i; ++j) {
      const u32 s2 = chains[j].qstart(), e2 = chains[j].qend();
      const u32 lo = std::max(s1, s2), hi = std::min(e1, e2);
      if (lo >= hi) continue;
      const double ov = static_cast<double>(hi - lo) /
                        static_cast<double>(std::min(e1 - s1, e2 - s2) + 1);
      if (ov > p.primary_overlap) {
        chains[i].primary = false;
        break;
      }
    }
  }
  return chains;
}

}  // namespace manymap
