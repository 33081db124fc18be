// manymap command-line interface.
//
//   manymap index <ref.fa> <out.mmi> [-k K] [-w W]
//   manymap map <ref.fa> <reads.(fa|fq)> [options]         -> PAF/SAM on stdout
//   manymap simulate <out_ref.fa> <out_reads.fq> [options] -> synthetic data
//
// `map` options:
//   --preset map-pb|map-ont      scoring/seeding preset (default map-pb)
//   --index <file.mmi>           reuse a saved index (else built in memory)
//   --sam                        SAM output (default PAF)
//   --cigar                      include cg:Z: tags in PAF
//   --layout minimap2|manymap    DP memory layout (default manymap)
//   --isa scalar|sse2|avx2|avx512  kernel ISA (default widest available)
//   --band auto|B               kernel band: auto (default; per-segment geometry) or fixed half-width (0 = unbanded)
//   --zdrop Z                    adaptive X-drop threshold (0 = off)
//   --threads N                  compute threads (default 2)
//   --pipeline minimap2|manymap  batch pipeline (default manymap)
//   --no-mmap                    load files with buffered reads, not mmap
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/timer.hpp"
#include "core/aligner.hpp"
#include "core/sam.hpp"
#include "index/index_io.hpp"
#include "io/mapped_file.hpp"
#include "sequence/fasta.hpp"
#include "simulate/dataset.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

int usage();

struct ArgList {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool has(const std::string& k) const { return options.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    const auto it = options.find(k);
    return it == options.end() ? dflt : it->second;
  }
};

/// Fetch an option as a strictly positive integer. Zero, negative, or
/// malformed values are config errors: the offending value is reported
/// and nullopt returned so the caller falls through to usage().
std::optional<i64> positive_opt(const ArgList& args, const std::string& key, i64 dflt) {
  if (!args.has(key)) return dflt;
  const auto v = parse_positive_int(args.get(key, ""));
  if (!v)
    std::fprintf(stderr, "manymap: --%s needs a positive integer, got '%s'\n", key.c_str(),
                 args.get(key, "").c_str());
  return v;
}

/// Fetch an option as a non-negative integer (seeds).
std::optional<i64> nonneg_opt(const ArgList& args, const std::string& key, i64 dflt) {
  if (!args.has(key)) return dflt;
  const auto v = parse_int(args.get(key, ""));
  if (!v || *v < 0) {
    std::fprintf(stderr, "manymap: --%s needs a non-negative integer, got '%s'\n", key.c_str(),
                 args.get(key, "").c_str());
    return std::nullopt;
  }
  return v;
}

ArgList parse_args(int argc, char** argv, const std::vector<std::string>& flags) {
  ArgList out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 || (arg.size() == 2 && arg[0] == '-')) {
      const std::string key = arg[1] == '-' ? arg.substr(2) : arg.substr(1);
      const bool is_flag =
          std::find(flags.begin(), flags.end(), key) != flags.end();
      if (is_flag) {
        out.options[key] = "1";
      } else {
        MM_REQUIRE(i + 1 < argc, "option missing value");
        out.options[key] = argv[++i];
      }
    } else {
      out.positional.push_back(arg);
    }
  }
  return out;
}

Reference load_reference(const std::string& path, bool use_mmap) {
  std::vector<Sequence> contigs;
  if (use_mmap) {
    MappedFile f;
    MM_REQUIRE(f.open(path), "cannot open reference");
    contigs = parse_sequences(f.view());
  } else {
    contigs = read_sequence_file(path);
  }
  MM_REQUIRE(!contigs.empty(), "reference has no sequences");
  Reference ref;
  for (auto& c : contigs) ref.add(std::move(c));
  return ref;
}

int cmd_index(const ArgList& args) {
  MM_REQUIRE(args.positional.size() == 2, "usage: manymap index <ref.fa> <out.mmi>");
  const auto k = positive_opt(args, "k", 15);
  const auto w = positive_opt(args, "w", 10);
  if (!k || !w) return usage();
  // Clamp before narrowing so a huge value cannot wrap into the range.
  const SketchParams sp{static_cast<u32>(std::min<i64>(*k, UINT32_MAX)),
                        static_cast<u32>(std::min<i64>(*w, UINT32_MAX))};
  if (!sp.valid()) {
    std::fprintf(stderr,
                 "manymap: index needs %u <= -k <= %u and 1 <= -w <= %u, got -k %lld -w %lld\n",
                 SketchParams::kMinK, SketchParams::kMaxK, SketchParams::kMaxW,
                 static_cast<long long>(*k), static_cast<long long>(*w));
    return usage();
  }
  const Reference ref = load_reference(args.positional[0], true);
  const auto index = MinimizerIndex::build(ref, sp);
  const u64 bytes = save_index(args.positional[1], index);
  std::fprintf(stderr,
               "[manymap] indexed %zu contigs (%llu bp): %zu keys, %zu entries, %llu bytes\n",
               ref.num_contigs(), static_cast<unsigned long long>(ref.total_length()),
               index.num_keys(), index.num_entries(), static_cast<unsigned long long>(bytes));
  return 0;
}

int cmd_map(const ArgList& args) {
  MM_REQUIRE(args.positional.size() == 2, "usage: manymap map <ref.fa> <reads.fq> [options]");
  const bool use_mmap = !args.has("no-mmap");
  const Reference ref = load_reference(args.positional[0], use_mmap);

  const auto preset = preset_by_name(args.get("preset", "map-pb"));
  MM_REQUIRE(preset.has_value(), "bad --preset");
  MapOptions opt = *preset;
  MM_REQUIRE(apply_layout_name(opt, args.get("layout", "manymap")), "bad --layout");
  const std::string isa = args.get("isa", "");
  if (!isa.empty())
    MM_REQUIRE(apply_isa_name(opt, isa), "bad --isa or ISA unavailable on this CPU");
  if (args.has("band") && !apply_band_option(opt, args.get("band", ""))) {
    std::fprintf(stderr, "manymap: --band needs 'auto' or an integer >= 0 (0 = unbanded), got '%s'\n",
                 args.get("band", "").c_str());
    return usage();
  }
  if (args.has("zdrop") && !apply_zdrop_option(opt, args.get("zdrop", ""))) {
    std::fprintf(stderr, "manymap: --zdrop needs an integer >= 0 (0 = off), got '%s'\n",
                 args.get("zdrop", "").c_str());
    return usage();
  }

  // A saved index is untrusted input: a damaged file or one built from
  // another genome is reported with its typed message, never an abort.
  MinimizerIndex index;
  if (args.has("index")) {
    const std::string path = args.get("index", "");
    IndexLoadResult res = try_load_index_mmap(path);
    if (!res.ok()) {
      std::fprintf(stderr, "manymap: %s [%s]\n", res.message.c_str(), to_string(res.status));
      return 1;
    }
    const std::string mismatch = index_matches_reference(ref, opt.sketch, res.index);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "manymap: index '%s' does not match reference '%s': %s\n",
                   path.c_str(), args.positional[0].c_str(), mismatch.c_str());
      return 1;
    }
    index = std::move(res.index);
  }

  std::vector<Sequence> reads;
  if (use_mmap) {
    MappedFile f;
    MM_REQUIRE(f.open(args.positional[1]), "cannot open reads");
    reads = parse_sequences(f.view());
  } else {
    reads = read_sequence_file(args.positional[1]);
  }

  Aligner aligner =
      args.has("index") ? Aligner(ref, std::move(index), opt) : Aligner(ref, opt);

  const bool sam = args.has("sam");
  const bool cigar_tag = args.has("cigar");
  if (sam) std::cout << sam_header(ref);
  const auto threads_opt = positive_opt(args, "threads", 2);
  if (!threads_opt) return usage();
  const u32 threads = static_cast<u32>(*threads_opt);
  WallTimer timer;
  u64 mapped = 0;
  if (sam || threads <= 1) {
    for (const auto& r : reads) {
      const auto mappings = aligner.map_read(r);
      mapped += mappings.empty() ? 0 : 1;
      std::cout << (sam ? to_sam_block(mappings, r) : to_paf_block(mappings, cigar_tag));
    }
  } else {
    const auto kind = args.get("pipeline", "manymap") == "minimap2" ? PipelineKind::kMinimap2
                                                                    : PipelineKind::kManymap;
    const auto result =
        aligner.map_reads(reads, kind, threads, Aligner::kDefaultBatchBases, cigar_tag);
    std::cout << result.paf;
    mapped = result.mapped_reads;
  }
  std::fprintf(stderr, "[manymap] mapped %llu/%zu reads in %.3fs (%s layout, %s)\n",
               static_cast<unsigned long long>(mapped), reads.size(), timer.seconds(),
               to_string(opt.layout), to_string(opt.isa));
  return 0;
}

int cmd_simulate(const ArgList& args) {
  MM_REQUIRE(args.positional.size() == 2,
             "usage: manymap simulate <out_ref.fa> <out_reads.fq> [options]");
  const auto length = positive_opt(args, "length", 1'000'000);
  const auto contigs_n = positive_opt(args, "contigs", 2);
  const auto reads_n = positive_opt(args, "reads", 500);
  const auto seed = nonneg_opt(args, "seed", 7);
  if (!length || !contigs_n || !reads_n || !seed) return usage();
  GenomeParams g;
  g.total_length = static_cast<u64>(*length);
  g.num_contigs = static_cast<u32>(*contigs_n);
  g.seed = static_cast<u64>(*seed);
  const Reference ref = generate_genome(g);
  std::vector<Sequence> contigs = ref.contigs();
  write_fasta_file(args.positional[0], contigs);

  ReadSimParams rp;
  rp.profile = args.get("platform", "pacbio") == "nanopore" ? ErrorProfile::nanopore()
                                                            : ErrorProfile::pacbio();
  rp.num_reads = static_cast<u32>(*reads_n);
  rp.seed = g.seed + 1;
  const auto sim = ReadSimulator(ref, rp).simulate();
  const u64 bytes = write_dataset(args.positional[1], sim);
  const auto stats = compute_stats(sim, rp.profile.platform);
  std::fprintf(stderr, "[manymap] %s -> %llu bytes\n", stats.to_table_row().c_str(),
               static_cast<unsigned long long>(bytes));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "manymap — long read alignment on three processors (ICPP'19 reproduction)\n"
               "usage:\n"
               "  manymap index <ref.fa> <out.mmi> [-k K] [-w W]\n"
               "  manymap map <ref.fa> <reads.fq> [--preset map-pb|map-ont] [--sam]\n"
               "              [--cigar] [--layout minimap2|manymap] [--isa sse2|avx2|avx512]\n"
               "              [--threads N] [--pipeline minimap2|manymap] [--index f.mmi]\n"
               "              [--band auto|B (auto = per-segment geometry, 0 = unbanded)] [--zdrop Z (0 = off)]\n"
               "  manymap simulate <out_ref.fa> <out_reads.fq> [--length N] [--reads N]\n"
               "              [--platform pacbio|nanopore] [--seed S]\n");
  return 2;
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> flags{"sam", "cigar", "no-mmap"};
  const ArgList args = parse_args(argc - 2, argv + 2, flags);
  if (cmd == "index") return cmd_index(args);
  if (cmd == "map") return cmd_map(args);
  if (cmd == "simulate") return cmd_simulate(args);
  return usage();
}
