// The measured runs. Each returns its metrics plus the counters the exact-
// count gate compares across runs; a violated correctness gate sets
// `error`, and no result is reported for that run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dataset.hpp"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  u64 seed = 0;
  std::string data_dir;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: corrupt one service response before the PAF gate,
  /// which must then fail the run.
  bool corrupt_paf = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::string error;  ///< non-empty: a correctness gate failed
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;  ///< the BENCHMARK.json metrics of this mode
  std::vector<Metric> info;     ///< printed for the reader, not in the JSON result
  std::vector<std::pair<std::string, u64>> counts;  ///< must repeat exactly per seed
  std::vector<std::string> notes;
};

RunResult run_workload(const RunOptions& opt);

}  // namespace perfbench
