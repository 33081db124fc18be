#include "chain/anchor.hpp"

#include <algorithm>

namespace manymap {

namespace {

/// How many minimizers ahead of its lookup a key's table slot is
/// prefetched: far enough to hide a DRAM miss behind the lookups in
/// between, near enough that the line is still cached when probed.
constexpr std::size_t kPrefetchDistance = 16;

}  // namespace

std::vector<Anchor> collect_anchors(const MinimizerIndex& index,
                                    const std::vector<Minimizer>& query_minimizers, u32 qlen,
                                    u32 max_occ) {
  const u32 k = index.params().k;
  std::vector<Anchor> anchors;
  const std::size_t n = query_minimizers.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) index.prefetch(query_minimizers[i + kPrefetchDistance].key);
    const Minimizer& qm = query_minimizers[i];
    const auto hits = index.lookup(qm.key);
    if (hits.empty() || hits.size() > max_occ) continue;
    for (const auto& h : hits) {
      Anchor a;
      a.rid = h.rid;
      a.tpos = h.pos;
      // Same canonical strand on both sides -> forward match; otherwise the
      // query matches the reference on the reverse strand. For reverse
      // anchors the k-mer that ends at qm.pos on the forward query ends at
      // qlen-1 - (qm.pos - (k-1)) on the reverse-complemented query.
      a.rev = h.strand_rev != qm.strand_rev;
      a.qpos = a.rev ? (qlen - 1 - (qm.pos - (k - 1))) : qm.pos;
      anchors.push_back(a);
    }
  }
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rid != b.rid) return a.rid < b.rid;
    if (a.rev != b.rev) return a.rev < b.rev;
    if (a.tpos != b.tpos) return a.tpos < b.tpos;
    return a.qpos < b.qpos;
  });
  return anchors;
}

}  // namespace manymap
