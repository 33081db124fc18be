// perfbench: the repository benchmark's measuring program.
//
//   perfbench prep --workload W --seed N --dir D [--tiny]
//       generate the workload's inputs from the seed into D (untimed)
//   perfbench run  --workload W --seed N --dir D --seconds S --trace 0|1 [--tiny]
//       [--corrupt-paf]
//       measure; prints `metric` lines, `#fingerprint` / `#counts` JSON
//       lines, and as its last line the JSON result
//       {"correct", "attempted", "failed", "metrics"}
//
// perfbench/run.py builds this program, prepares the data, applies the
// cross-run exact-count gate and prints the result; see perfbench/README.md.
// A violated correctness gate prints the reason to stderr and exits 3
// without a result.
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "align/kernel_api.hpp"
#include "dataset.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prep --workload W --seed N --dir D [--tiny]\n"
               "       perfbench run --workload W --seed N --dir D --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-paf]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_fingerprint(const RunOptions& opt) {
  const auto preset = preset_for(opt.workload->data);
  std::printf(
      "#fingerprint {\"hardware_threads\": %u, \"best_isa\": \"%s\", \"preset_isa\": \"%s\", "
      "\"layout\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"workers\": %u}\n",
      std::thread::hardware_concurrency(), manymap::to_string(manymap::best_isa()),
      manymap::to_string(preset.isa), manymap::to_string(preset.layout),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      opt.workload->name.c_str(), static_cast<unsigned long long>(opt.seed), kWorkers);
}

int run(const RunOptions& opt) {
  print_fingerprint(opt);
  const RunResult r = run_workload(opt);
  for (const auto& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const auto& m : r.metrics)
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : r.info)
    std::printf("info   %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string counts = "#counts {";
  for (std::size_t i = 0; i < r.counts.size(); ++i)
    counts += (i ? ", \"" : "\"") + r.counts[i].first + "\": " +
              std::to_string(r.counts[i].second);
  std::printf("%s}\n", counts.c_str());
  std::fflush(stdout);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", r.error.c_str());
    return 3;
  }
  std::string metrics;
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 3;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
               json_escape(m.unit) + "\"}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  bool tiny = false;
  bool corrupt = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (a == "--corrupt-paf") {
      corrupt = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  for (const char* required : {"workload", "seed", "dir"})
    if (args.count(required) == 0) return usage();
  try {
    RunOptions opt;
    opt.workload = find_workload(args["workload"], tiny);
    if (opt.workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args["workload"].c_str());
      return 2;
    }
    opt.seed = std::stoull(args["seed"]);
    opt.data_dir = args["dir"];
    if (cmd == "prep") {
      prepare(opt.workload->data, opt.seed, opt.data_dir);
      return 0;
    }
    if (cmd != "run" || args.count("seconds") == 0 || args.count("trace") == 0) return usage();
    opt.seconds = std::stod(args["seconds"]);
    opt.trace = args["trace"] == "1";
    opt.corrupt_paf = corrupt;
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
