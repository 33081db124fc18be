// Exact allocation gate for Mapper::map: a warm thread makes no heap
// allocation per DP call. Gap fills and extensions read the contig and
// the read in place, kernels build their paths in the arena's recycled
// storage, and the stitched CIGAR lives in per-thread scratch, so two
// reads that differ ~10x in gap fills but map alike allocate alike.
// The counting global operator new is why this suite is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/mapper.hpp"
#include "sequence/dna.hpp"
#include "simulate/genome.hpp"

namespace {
std::atomic<unsigned long long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace manymap {
namespace {

/// Bases [from, from + len) of contig 0 with a substitution every `every`
/// bases, reverse-complemented when `rev`.
Sequence read_with_substitutions(const Reference& ref, u64 from, u64 len, u64 every, bool rev) {
  Sequence s;
  s.name = "r";
  s.codes = ref.extract(0, from, len);
  for (u64 i = every / 2; i < len; i += every) s.codes[i] = static_cast<u8>((s.codes[i] + 1) % 4);
  if (rev) s.codes = reverse_complement(s.codes);
  return s;
}

struct Counted {
  std::size_t mappings = 0;
  u64 dp_calls = 0;
  unsigned long long allocations = 0;
};

Counted map_counted(const Mapper& mapper, const Sequence& read) {
  MapTimings timings;
  MapCall call;
  call.timings = &timings;
  const unsigned long long before = g_allocations.load();
  const std::vector<Mapping> out = mapper.map(read, call);
  Counted c;
  c.allocations = g_allocations.load() - before;
  c.mappings = out.size();
  c.dp_calls = timings.auto_band_kernels + timings.auto_band_full;
  return c;
}

TEST(MapAllocations, DoNotGrowWithTheGapFillCount) {
  GenomeParams g;
  g.total_length = 200'000;
  g.num_contigs = 1;
  g.repeat_families = 0;
  g.seed = 11;
  const Reference ref = generate_genome(g);
  const Mapper mapper(ref, MapOptions::map_ont());

  for (const bool rev : {false, true}) {
    const Sequence few = read_with_substitutions(ref, 60'000, 8'000, 2'000, rev);
    const Sequence many = read_with_substitutions(ref, 60'000, 8'000, 120, rev);
    for (int warm = 0; warm < 2; ++warm) {
      mapper.map(few);
      mapper.map(many);
    }
    const Counted a = map_counted(mapper, few);
    const Counted b = map_counted(mapper, many);
    ASSERT_EQ(a.mappings, 1u);
    ASSERT_EQ(b.mappings, a.mappings);
    EXPECT_GE(b.dp_calls, 10 * a.dp_calls) << "few " << a.dp_calls << " many " << b.dp_calls;
    EXPECT_EQ(b.allocations, a.allocations)
        << "rev " << rev << ": " << a.dp_calls << " DP calls made " << a.allocations
        << " allocations, " << b.dp_calls << " made " << b.allocations;
  }
}

}  // namespace
}  // namespace manymap
