// Workload definitions and seed-derived input generation. Everything the
// mapper later reads (reference FASTA, reads FASTQ, MMMI index) is written
// to a data directory by `perfbench prep`; `perfbench run` only reads the
// files, plus the simulator truth used to score accuracy.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "simulate/read_sim.hpp"

namespace perfbench {

using manymap::u32;
using manymap::u64;

/// Generated input set. Workloads that share a family share the files.
struct DataSpec {
  std::string family;  ///< data directory prefix, e.g. "clr2m"
  u64 genome_bp = 0;
  u32 contigs = 0;
  manymap::Platform platform = manymap::Platform::kPacBio;
  u32 reads = 0;
};

enum class Shape {
  kBatch,  ///< offline job: parse FASTQ, submit_wait every read, collect PAF
  kPaced,  ///< open loop: Poisson arrivals at a fixed rate from one client thread
};

struct WorkloadSpec {
  std::string name;
  DataSpec data;
  Shape shape = Shape::kBatch;
  double rate_rps = 0.0;  ///< kPaced only
};

/// Service shape shared by every workload: one shard of three workers
/// (nproc - 1 on the 4-thread reference host) behind the default ingress
/// queue and batch policy.
constexpr u32 kWorkers = 3;

/// The named workload; `tiny` shrinks its data for the harness self-test.
/// Returns nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name, bool tiny);

/// Mapping preset for the data's sequencing platform (map-pb / map-ont).
manymap::MapOptions preset_for(const DataSpec& data);

/// Files inside a data directory.
struct DataFiles {
  std::string ref_fa, reads_fq, truth_tsv, index_mmi, prep_tsv;
  explicit DataFiles(const std::string& dir);
};

/// Generate genome + reads from `seed`, build and save the index, and
/// record the preparation timings. Not timed by any metric but
/// index.build_s (reported only).
void prepare(const DataSpec& data, u64 seed, const std::string& dir);

std::vector<manymap::TruthRecord> read_truth(const std::string& path);

/// Values recorded by prepare(): index_build_s, index_save_s.
double read_prep_value(const std::string& path, std::string_view key);

}  // namespace perfbench
