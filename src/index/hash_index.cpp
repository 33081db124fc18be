#include "index/hash_index.hpp"

#include <algorithm>

namespace manymap {

namespace {

std::size_t table_size_for(std::size_t keys) {
  std::size_t n = 16;
  while (n < keys * 2) n <<= 1;  // load factor <= 0.5
  return n;
}

}  // namespace

MinimizerIndex::MinimizerIndex(SketchParams params, std::vector<ContigMeta> contigs,
                               std::size_t num_keys, std::span<const Bucket> buckets,
                               std::span<const IndexEntry> entries,
                               std::shared_ptr<const void> storage)
    : params_(params),
      contigs_(std::move(contigs)),
      num_keys_(num_keys),
      buckets_(buckets),
      entries_(entries),
      storage_(std::move(storage)) {}

MinimizerIndex MinimizerIndex::build(const Reference& ref, const SketchParams& params) {
  struct Raw {
    u64 key;
    IndexEntry entry;
  };
  std::vector<Raw> raws;
  for (std::size_t cid = 0; cid < ref.num_contigs(); ++cid) {
    const auto mins = sketch(ref.contig(cid).codes, static_cast<u32>(cid), params);
    raws.reserve(raws.size() + mins.size());
    for (const auto& m : mins)
      raws.push_back({m.key, IndexEntry{m.rid, m.pos, m.strand_rev ? 1u : 0u}});
  }
  std::sort(raws.begin(), raws.end(), [](const Raw& a, const Raw& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.entry.rid != b.entry.rid) return a.entry.rid < b.entry.rid;
    return a.entry.pos < b.entry.pos;
  });

  struct Tables {
    std::vector<Bucket> buckets;
    std::vector<IndexEntry> entries;
  };
  auto tables = std::make_shared<Tables>();
  std::vector<ContigMeta> contigs;
  for (std::size_t cid = 0; cid < ref.num_contigs(); ++cid)
    contigs.push_back({ref.contig(cid).name, ref.contig(cid).size()});
  tables->entries.reserve(raws.size());

  // Count distinct keys and fill entries grouped by key.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < raws.size(); ++i) {
    if (i == 0 || raws[i].key != raws[i - 1].key) ++distinct;
    tables->entries.push_back(raws[i].entry);
  }
  std::vector<Bucket>& buckets = tables->buckets;
  buckets.assign(table_size_for(distinct), Bucket{});

  const std::size_t mask = buckets.size() - 1;
  std::size_t i = 0;
  while (i < raws.size()) {
    std::size_t j = i;
    while (j < raws.size() && raws[j].key == raws[i].key) ++j;
    std::size_t slot = home_slot(raws[i].key, buckets.size());
    while (buckets[slot].key != ~0ULL) slot = (slot + 1) & mask;
    buckets[slot] = Bucket{raws[i].key, i, static_cast<u32>(j - i)};
    i = j;
  }
  return MinimizerIndex(params, std::move(contigs), distinct, tables->buckets, tables->entries,
                        tables);
}

std::span<const IndexEntry> MinimizerIndex::lookup(u64 key) const {
  if (buckets_.empty()) return {};
  const Bucket* b = find(key, home_slot(key, buckets_.size()));
  return b != nullptr ? entries_.subspan(b->offset, b->count) : std::span<const IndexEntry>{};
}

u32 MinimizerIndex::occurrence_cutoff(double frac) const {
  if (num_keys_ == 0) return 1;
  std::vector<u32> counts;
  counts.reserve(num_keys_);
  for (const auto& b : buckets_)
    if (b.key != ~0ULL) counts.push_back(b.count);
  std::sort(counts.begin(), counts.end());
  const std::size_t drop = static_cast<std::size_t>(frac * static_cast<double>(counts.size()));
  const std::size_t pos = counts.size() > drop ? counts.size() - 1 - drop : 0;
  return std::max<u32>(counts[pos], 10);
}

u64 MinimizerIndex::memory_bytes() const {
  return buckets_.size() * sizeof(Bucket) + entries_.size() * sizeof(IndexEntry) +
         contigs_.size() * sizeof(ContigMeta);
}

std::string index_matches_reference(const Reference& ref, const SketchParams& sketch,
                                    const MinimizerIndex& index) {
  if (index.params().k != sketch.k)
    return "index was built with k=" + std::to_string(index.params().k) +
           " but the mapping options use k=" + std::to_string(sketch.k) +
           "; rebuild it with 'manymap index -k " + std::to_string(sketch.k) + "'";
  const auto& contigs = index.contigs();
  if (contigs.size() != ref.num_contigs())
    return "index describes " + std::to_string(contigs.size()) + " contigs, reference has " +
           std::to_string(ref.num_contigs());
  for (std::size_t i = 0; i < contigs.size(); ++i) {
    const auto& want = ref.contig(i);
    if (contigs[i].name != want.name)
      return "contig " + std::to_string(i) + " is '" + contigs[i].name +
             "' in the index but '" + want.name + "' in the reference";
    if (contigs[i].length != want.size())
      return "contig '" + want.name + "' is " + std::to_string(contigs[i].length) +
             " bp in the index but " + std::to_string(want.size()) + " bp in the reference";
  }
  return "";
}

}  // namespace manymap
