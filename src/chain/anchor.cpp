#include "chain/anchor.hpp"

#include <algorithm>

namespace manymap {

std::vector<Anchor> collect_anchors(const MinimizerIndex& index,
                                    const std::vector<Minimizer>& query_minimizers, u32 qlen,
                                    u32 max_occ) {
  const u32 k = index.params().k;
  std::vector<Anchor> anchors;
  index.lookup_each(query_minimizers, [&](const Minimizer& qm, std::span<const IndexEntry> hits) {
    if (hits.size() > max_occ) return;
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
  });
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rid != b.rid) return a.rid < b.rid;
    if (a.rev != b.rev) return a.rev < b.rev;
    if (a.tpos != b.tpos) return a.tpos < b.tpos;
    return a.qpos < b.qpos;
  });
  return anchors;
}

}  // namespace manymap
