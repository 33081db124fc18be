#include "dataset.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/timer.hpp"
#include "index/index_io.hpp"
#include "sequence/fasta.hpp"
#include "simulate/dataset.hpp"
#include "simulate/genome.hpp"

namespace perfbench {

using namespace manymap;

namespace {

// Read counts are sized so one batch job takes ~0.5-1 s on 3 workers and
// the seed-to-seed spread of bases and read lengths stays small.
const DataSpec kClr2m{"clr2m", 2'000'000, 4, Platform::kPacBio, 3000};
const DataSpec kOnt16m{"ont16m", 16'000'000, 8, Platform::kNanopore, 3000};
const DataSpec kClrTiny{"clr2m-tiny", 200'000, 2, Platform::kPacBio, 24};
const DataSpec kOntTiny{"ont16m-tiny", 400'000, 2, Platform::kNanopore, 24};

// Paced arrival rate (req/s), frozen in BENCHMARK.json's workload note.
constexpr double kRateLo = 300.0;

const std::vector<WorkloadSpec>& table(bool tiny) {
  static const std::vector<WorkloadSpec> full{
      {"clr2m_batch", kClr2m, Shape::kBatch, 0.0},
      {"ont16m_batch", kOnt16m, Shape::kBatch, 0.0},
      {"clr2m_paced_lo", kClr2m, Shape::kPaced, kRateLo},
  };
  static const std::vector<WorkloadSpec> small{
      {"clr2m_batch", kClrTiny, Shape::kBatch, 0.0},
      {"ont16m_batch", kOntTiny, Shape::kBatch, 0.0},
      {"clr2m_paced_lo", kClrTiny, Shape::kPaced, kRateLo / 10},
  };
  return tiny ? small : full;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name, bool tiny) {
  for (const auto& w : table(tiny))
    if (w.name == name) return &w;
  return nullptr;
}

MapOptions preset_for(const DataSpec& data) {
  return data.platform == Platform::kPacBio ? MapOptions::map_pb() : MapOptions::map_ont();
}

DataFiles::DataFiles(const std::string& dir)
    : ref_fa(dir + "/ref.fa"),
      reads_fq(dir + "/reads.fq"),
      truth_tsv(dir + "/truth.tsv"),
      index_mmi(dir + "/index.mmi"),
      prep_tsv(dir + "/prep.tsv") {}

void prepare(const DataSpec& data, u64 seed, const std::string& dir) {
  const DataFiles f(dir);
  GenomeParams g;
  g.total_length = data.genome_bp;
  g.num_contigs = data.contigs;
  g.seed = seed * 2 + 1;
  const Reference ref = generate_genome(g);
  write_fasta_file(f.ref_fa, ref.contigs());

  ReadSimParams rp;
  rp.profile =
      data.platform == Platform::kPacBio ? ErrorProfile::pacbio() : ErrorProfile::nanopore();
  rp.num_reads = data.reads;
  rp.seed = seed * 2 + 2;
  const auto reads = ReadSimulator(ref, rp).simulate();
  write_dataset(f.reads_fq, reads);
  std::ofstream truth(f.truth_tsv);
  for (const auto& r : reads)
    truth << r.truth.contig << '\t' << r.truth.start << '\t' << r.truth.end << '\t'
          << (r.truth.forward ? 1 : 0) << '\n';

  WallTimer build;
  const auto index = MinimizerIndex::build(ref, preset_for(data).sketch);
  const double build_s = build.seconds();
  WallTimer save;
  save_index(f.index_mmi, index);
  const double save_s = save.seconds();
  std::ofstream prep(f.prep_tsv);
  prep.precision(17);
  prep << "index_build_s\t" << build_s << "\nindex_save_s\t" << save_s << '\n';
  if (!truth || !prep) throw std::runtime_error("cannot write data files in " + dir);
}

std::vector<TruthRecord> read_truth(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<TruthRecord> out;
  TruthRecord t;
  int fwd = 0;
  while (in >> t.contig >> t.start >> t.end >> fwd) {
    t.forward = fwd != 0;
    out.push_back(t);
  }
  return out;
}

double read_prep_value(const std::string& path, std::string_view key) {
  std::ifstream in(path);
  std::string k;
  double v = 0.0;
  while (in >> k >> v)
    if (k == key) return v;
  throw std::runtime_error("missing " + std::string(key) + " in " + path);
}

}  // namespace perfbench
