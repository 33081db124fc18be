// Minimizer hash index over a reference (minimap2's mm_idx equivalent):
// minimizers of all contigs, sorted by key, addressed through an open-
// addressing hash table key -> (offset, count) into the sorted entry
// array. Frequent keys (repeats) can be masked at query time via a
// max-occurrence cutoff.
//
// The bucket and entry records are the MMMI v2 on-disk records
// (index_io.hpp), so the index has one layout whether it was built in
// memory, streamed from a file, or served straight out of a mapped file:
// lookups read spans over storage the index keeps alive.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/minimizer.hpp"

namespace manymap {

/// One reference hit of a minimizer key (16 bytes, the MMMI v2 entry).
struct IndexEntry {
  u32 rid = 0;
  u32 pos = 0;         ///< last base of the k-mer on the reference
  u32 strand_rev = 0;  ///< 1 if the canonical k-mer was reverse strand on the ref
  u32 pad = 0;         ///< always 0

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};
static_assert(sizeof(IndexEntry) == 16);

struct ContigMeta {
  std::string name;
  u64 length = 0;
};

class MinimizerIndex {
 public:
  /// One slot of the open-addressing table (24 bytes, the MMMI v2 bucket).
  struct Bucket {
    u64 key = ~0ULL;  ///< ~0 marks an empty slot
    u64 offset = 0;   ///< first hit in the entry array
    u32 count = 0;    ///< number of hits
    u32 pad = 0;      ///< always 0
  };
  static_assert(sizeof(Bucket) == 24);

  MinimizerIndex() = default;

  /// Build from a reference.
  static MinimizerIndex build(const Reference& ref, const SketchParams& params);

  /// Adopt a validated table image. `buckets` (power-of-two size or empty)
  /// and `entries` must lie in `storage` — owned arrays or a mapped file —
  /// which the index, and every copy of it, keeps alive. Every non-empty
  /// bucket's [offset, offset + count) must lie inside `entries`; the
  /// index_io loaders prove that before calling.
  MinimizerIndex(SketchParams params, std::vector<ContigMeta> contigs, std::size_t num_keys,
                 std::span<const Bucket> buckets, std::span<const IndexEntry> entries,
                 std::shared_ptr<const void> storage);

  /// All hits for a key (empty span if absent).
  std::span<const IndexEntry> lookup(u64 key) const;

  /// Call `visit(m, hits)` for each minimizer of `mins`, in order, whose
  /// key has hits; `hits` is lookup(m.key). The lookups are
  /// pipelined over fixed stack rings: kHashAhead keys ahead of the visit
  /// the key's home slot is hashed and both cache lines its linear probe
  /// can touch are prefetched, and kProbeAhead keys ahead the probe runs
  /// and the hit's entry run is prefetched. So each DRAM miss overlaps
  /// the work on the keys in between instead of stalling its own lookup.
  template <class Visit>
  void lookup_each(std::span<const Minimizer> mins, Visit&& visit) const;

  /// Number of hits for a key (0 if absent).
  std::size_t occurrences(u64 key) const { return lookup(key).size(); }

  const SketchParams& params() const { return params_; }
  const std::vector<ContigMeta>& contigs() const { return contigs_; }
  std::size_t num_keys() const { return num_keys_; }
  std::size_t num_entries() const { return entries_.size(); }
  std::span<const Bucket> buckets() const { return buckets_; }
  std::span<const IndexEntry> entries() const { return entries_; }

  /// Occurrence threshold above which keys are considered repetitive; set
  /// from the top `frac` most frequent keys like minimap2's -f option.
  u32 occurrence_cutoff(double frac) const;

  /// Approximate resident size in bytes (Table 5 "Index Size").
  u64 memory_bytes() const;

 private:
  static constexpr std::size_t kHashAhead = 16;
  static constexpr std::size_t kProbeAhead = 8;

  /// Finalizer-style bit mixer that places keys in the open-addressing
  /// table; the slot where the linear probe for `key` starts.
  static std::size_t home_slot(u64 key, std::size_t table_size) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key & (table_size - 1);
  }

  /// The bucket of `key`, probing linearly from `slot` (its home slot),
  /// or nullptr. At most buckets_.size() probes, so a miss terminates in
  /// a full table too. Requires a non-empty table.
  const Bucket* find(u64 key, std::size_t slot) const {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t probes = 0; probes < buckets_.size(); ++probes) {
      const Bucket& b = buckets_[slot];
      if (b.key == key) return &b;
      if (b.key == ~0ULL) return nullptr;
      slot = (slot + 1) & mask;
    }
    return nullptr;
  }

  SketchParams params_{};
  std::vector<ContigMeta> contigs_;
  std::size_t num_keys_ = 0;
  std::span<const Bucket> buckets_;       // open addressing, power-of-two size
  std::span<const IndexEntry> entries_;   // grouped by key
  std::shared_ptr<const void> storage_;   // owns what the spans point into
};

template <class Visit>
void MinimizerIndex::lookup_each(std::span<const Minimizer> mins, Visit&& visit) const {
  if (buckets_.empty()) return;
  static_assert(kHashAhead > kProbeAhead && (kHashAhead & (kHashAhead - 1)) == 0 &&
                (kProbeAhead & (kProbeAhead - 1)) == 0);
  const char* const table = reinterpret_cast<const char*>(buckets_.data());
  const std::size_t table_bytes = buckets_.size() * sizeof(Bucket);
  std::size_t slots[kHashAhead] = {};    // home slot of key j, at j % kHashAhead
  const Bucket* found[kProbeAhead] = {};  // key j's bucket if it has hits, at j % kProbeAhead
  const std::size_t n = mins.size();
  // Step i visits key i - kHashAhead, probes key i - kHashAhead +
  // kProbeAhead and hashes key i, in that order: the visit reads
  // found[i % kProbeAhead] before the probe overwrites it.
  for (std::size_t i = 0; i < n + kHashAhead; ++i) {
    if (i >= kHashAhead) {
      const std::size_t j = i - kHashAhead;
      if (const Bucket* b = found[j % kProbeAhead])
        visit(mins[j], entries_.subspan(b->offset, b->count));
    }
    if (i >= kHashAhead - kProbeAhead && i - (kHashAhead - kProbeAhead) < n) {
      const std::size_t j = i - (kHashAhead - kProbeAhead);
      const Bucket* b = find(mins[j].key, slots[j % kHashAhead]);
      if (b != nullptr && b->count > 0) {
        __builtin_prefetch(entries_.data() + b->offset);
        __builtin_prefetch(entries_.data() + b->offset + b->count - 1);
      } else {
        b = nullptr;
      }
      found[j % kProbeAhead] = b;
    }
    if (i < n) {
      const std::size_t slot = home_slot(mins[i].key, buckets_.size());
      slots[i % kHashAhead] = slot;
      // Buckets are 24 bytes, so a probe often ends on the line after the
      // one it starts on (42% of the probes over the ont16m benchmark
      // reads). The second line wraps to the table start as the probe does.
      const std::size_t at = slot * sizeof(Bucket);
      __builtin_prefetch(table + at);
      __builtin_prefetch(table + (at + 64 < table_bytes ? at + 64 : 0));
    }
  }
}

/// "" when `index` can serve a mapper over `ref` that sketches reads with
/// `sketch`: same k, and the same contig count, names and lengths, in
/// order. Otherwise an actionable description of the first mismatch.
/// An index built from another genome would return positions into the
/// wrong contigs, and one built with another k would place every anchor
/// at the wrong query offset, so every caller that pairs a loaded index
/// with a reference checks this first. A different w is accepted: it only
/// changes which reference k-mers were sampled, and every hit is still a
/// true k-mer match.
std::string index_matches_reference(const Reference& ref, const SketchParams& sketch,
                                    const MinimizerIndex& index);

}  // namespace manymap
