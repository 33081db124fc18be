// google-benchmark micro benchmarks of the base-level alignment kernels:
// every (layout, ISA) pair, score-only and full-path, at a representative
// length. Complements the figure benches with statistically-stable
// per-kernel numbers.
//
// The small-problem sweep (`small/<kernel>/<n>/<mode>`) times the two
// halves of the AVX-512BW manymap kernel on their own — the
// register-resident strip kernel and the memory kernel, unbanded and with
// the band auto mode picks for a drift-free n x n gap fill — on n x n
// pairs from 16 to 2048 bases through a warm arena, as the mapper calls
// them: global fills in score and path mode, and unbanded end extensions
// in path mode (`ext-path`). DESIGN.md §5 has the table:
//   bench_kernels --benchmark_filter=small/ --benchmark_repetitions=5
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/diff_kernels.hpp"
#include "align/kernel_api.hpp"
#include "base/random.hpp"
#include "core/band_policy.hpp"

namespace manymap {
namespace {

struct Fixture {
  std::vector<u8> target;
  std::vector<u8> query;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      Rng rng(123);
      fx.target.resize(2000);
      for (auto& b : fx.target) b = rng.base();
      fx.query = fx.target;
      for (auto& b : fx.query)
        if (rng.bernoulli(0.15)) b = rng.base();
      return fx;
    }();
    return f;
  }
};

void bench_kernel(benchmark::State& state, Layout layout, Isa isa, bool with_cigar) {
  const KernelFn fn = get_diff_kernel(layout, isa);
  if (fn == nullptr) {
    state.SkipWithError("ISA not available");
    return;
  }
  const auto& fx = Fixture::get();
  DiffArgs a;
  a.target = fx.target.data();
  a.tlen = static_cast<i32>(fx.target.size());
  a.query = fx.query.data();
  a.qlen = static_cast<i32>(fx.query.size());
  a.mode = AlignMode::kGlobal;
  a.with_cigar = with_cigar;
  u64 cells = 0;
  for (auto _ : state) {
    const auto r = fn(a);
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
  }
  state.counters["GCUPS"] = benchmark::Counter(static_cast<double>(cells) / 1e9,
                                               benchmark::Counter::kIsRate);
}

/// n x n pair, the query a 15%-substituted copy of the target.
void bench_small(benchmark::State& state, KernelFn fn, i32 n, i32 band, AlignMode mode,
                 bool with_cigar) {
  if (fn == nullptr) {
    state.SkipWithError("AVX-512BW not available");
    return;
  }
  Rng rng(static_cast<u64>(n));
  std::vector<u8> target(static_cast<std::size_t>(n));
  for (auto& b : target) b = rng.base();
  std::vector<u8> query = target;
  for (auto& b : query)
    if (rng.bernoulli(0.15)) b = rng.base();
  detail::KernelArena arena;
  DiffArgs a;
  a.target = target.data();
  a.tlen = n;
  a.query = query.data();
  a.qlen = n;
  a.mode = mode;
  a.with_cigar = with_cigar;
  a.arena = &arena;
  a.band = band;
  u64 cells = 0;
  for (auto _ : state) {
    const auto r = fn(a);
    benchmark::DoNotOptimize(r.score);
    cells += r.cells;
  }
  state.counters["GCUPS"] = benchmark::Counter(static_cast<double>(cells) / 1e9,
                                               benchmark::Counter::kIsRate);
  state.counters["ns_per_diag"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (2.0 * n - 1),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void register_small_sweep() {
  for (const i32 n :
       {16, 32, 64, 128, 192, 256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 2048}) {
    const AutoBandPolicy policy;
    const i32 auto_band =
        profitable_band(auto_band_for_gap(n, n, 0, policy), n, n, policy);
    struct Entry {
      const char* name;
      KernelFn fn;
      i32 band;
    };
    std::vector<Entry> kernels{{"strip", detail::strip_kernel(), 0},
                               {"memory", detail::avx512_memory_kernel(), 0}};
    if (auto_band > 0)  // below ~128 auto runs the fill full
      kernels.push_back({"banded", detail::avx512_memory_kernel(), auto_band});
    struct Mode {
      const char* name;
      AlignMode mode;
      bool cigar;
    };
    for (const Entry& k : kernels) {
      for (const Mode& m : {Mode{"score", AlignMode::kGlobal, false},
                            Mode{"path", AlignMode::kGlobal, true},
                            Mode{"ext-path", AlignMode::kExtension, true}}) {
        if (k.band > 0 && m.mode == AlignMode::kExtension) continue;
        const std::string name =
            std::string("small/") + k.name + "/" + std::to_string(n) + "/" + m.name;
        const KernelFn fn = k.fn;
        const i32 band = k.band;
        benchmark::RegisterBenchmark(name.c_str(), [fn, n, band, m](benchmark::State& s) {
          bench_small(s, fn, n, band, m.mode, m.cigar);
        });
      }
    }
  }
}

void register_all() {
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    for (const Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
      if (get_diff_kernel(layout, isa) == nullptr) continue;
      for (const bool cigar : {false, true}) {
        const std::string name = std::string("align/") + to_string(layout) + "/" +
                                 to_string(isa) + (cigar ? "/path" : "/score");
        benchmark::RegisterBenchmark(name.c_str(), [layout, isa, cigar](benchmark::State& s) {
          bench_kernel(s, layout, isa, cigar);
        });
      }
    }
  }
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  manymap::register_all();
  manymap::register_small_sweep();
  // Always leave a machine-readable artifact: default --benchmark_out to
  // BENCH_kernels.json unless the caller chose their own sink.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
