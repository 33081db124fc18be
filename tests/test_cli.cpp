// End-to-end test of the `manymap` CLI binary: simulate -> index -> map
// in both output formats, exercising the tool exactly as a user would.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "io/checksum.hpp"

#ifndef MANYMAP_CLI_PATH
#define MANYMAP_CLI_PATH "../tools/manymap"
#endif
#ifndef MANYMAP_SERVE_PATH
#define MANYMAP_SERVE_PATH "../tools/manymap_serve"
#endif

namespace manymap {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

int run_cli(const std::string& args) {
  const std::string cmd = std::string(MANYMAP_CLI_PATH) + " " + args + " 2>/dev/null";
  return std::system(cmd.c_str());
}

/// Run the CLI with stderr captured in `err_path`; returns the raw wait
/// status so callers can tell a clean exit from a signal.
int run_cli_stderr(const std::string& args, const std::string& err_path) {
  const std::string cmd = std::string(MANYMAP_CLI_PATH) + " " + args + " 2>" + err_path;
  return std::system(cmd.c_str());
}

int run_serve(const std::string& args) {
  const std::string cmd = std::string(MANYMAP_SERVE_PATH) + " " + args + " >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Cli, CigarTagsSurviveEveryThreadCount) {
  // The threaded pipelines render the same PAF lines as the serial loop,
  // cg:Z tags included. The minimap2 pipeline keeps input order, so its
  // output is byte-identical; the manymap pipeline emits each batch
  // longest-first, so its lines are compared as a sorted set.
  const std::string ref = tmp("cli_cg_ref.fa");
  const std::string reads = tmp("cli_cg_reads.fq");
  const std::string one = tmp("cli_cg_t1.paf");
  const std::string four = tmp("cli_cg_t4.paf");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 100000 --reads 12"), 0);
  const std::string map = "map " + ref + " " + reads + " --cigar ";
  ASSERT_EQ(run_cli(map + "--threads 1 > " + one), 0);
  const std::string serial = slurp(one);
  EXPECT_NE(serial.find("cg:Z:"), std::string::npos);
  ASSERT_EQ(run_cli(map + "--threads 4 --pipeline minimap2 > " + four), 0);
  EXPECT_EQ(slurp(four), serial);
  ASSERT_EQ(run_cli(map + "--threads 4 > " + four), 0);
  auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted_lines(slurp(four)), sorted_lines(serial));
}

/// The "mapped N/M" part of the CLI's summary line in `err_path`.
std::string mapped_count(const std::string& err_path) {
  const std::string text = slurp(err_path);
  const auto at = text.find("mapped ");
  if (at == std::string::npos) return "";
  return text.substr(at, text.find(' ', at + 7) - at);
}

// "mapped N/M" counts reads with at least one mapping, whatever the
// thread count: reads of another genome are processed but not mapped.
TEST(Cli, MappedCountIsEqualAtEveryThreadCount) {
  const std::string ref = tmp("cli_mc_ref.fa");
  const std::string reads = tmp("cli_mc_reads.fq");
  const std::string other_ref = tmp("cli_mc_other.fa");
  const std::string other_reads = tmp("cli_mc_other.fq");
  const std::string all = tmp("cli_mc_all.fq");
  const std::string err1 = tmp("cli_mc_t1.txt");
  const std::string err2 = tmp("cli_mc_t2.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 100000 --reads 12 --seed 3"), 0);
  ASSERT_EQ(run_cli("simulate " + other_ref + " " + other_reads +
                    " --length 100000 --reads 6 --seed 91"),
            0);
  ASSERT_EQ(std::system(("cat " + reads + " " + other_reads + " > " + all).c_str()), 0);
  const std::string map = "map " + ref + " " + all + " --threads ";
  ASSERT_EQ(run_cli_stderr(map + "1 > /dev/null", err1), 0);
  ASSERT_EQ(run_cli_stderr(map + "2 > /dev/null", err2), 0);
  const std::string serial = mapped_count(err1);
  ASSERT_FALSE(serial.empty()) << slurp(err1);
  EXPECT_NE(serial, "mapped 18/18") << "reads of the other genome should not map";
  EXPECT_EQ(mapped_count(err2), serial);
  for (const auto& p : {ref, reads, other_ref, other_reads, all, err1, err2})
    std::remove(p.c_str());
}

TEST(Cli, SimulateIndexMapRoundTrip) {
  const std::string ref = tmp("cli_ref.fa");
  const std::string reads = tmp("cli_reads.fq");
  const std::string index = tmp("cli_ref.mmi");
  const std::string paf = tmp("cli_out.paf");
  const std::string sam = tmp("cli_out.sam");

  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 200000 --reads 20"), 0);
  ASSERT_EQ(run_cli("index " + ref + " " + index), 0);
  ASSERT_EQ(run_cli("map " + ref + " " + reads + " --index " + index + " --threads 1 > " + paf),
            0);
  ASSERT_EQ(run_cli("map " + ref + " " + reads + " --sam > " + sam), 0);

  // PAF: every line parses and respects invariants.
  const std::string paf_text = slurp(paf);
  ASSERT_FALSE(paf_text.empty());
  std::istringstream lines(paf_text);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto rec = parse_paf_line(line);
    EXPECT_LE(rec.qend, rec.qlen);
    EXPECT_LT(rec.tstart, rec.tend);
    ++n;
  }
  EXPECT_GE(n, 18);  // nearly every simulated read maps

  // SAM: header plus records.
  const std::string sam_text = slurp(sam);
  EXPECT_NE(sam_text.find("@HD"), std::string::npos);
  EXPECT_NE(sam_text.find("@SQ"), std::string::npos);
  EXPECT_NE(sam_text.find("AS:i:"), std::string::npos);

  for (const auto& p : {ref, reads, index, paf, sam}) std::remove(p.c_str());
}

// A saved index is untrusted input: `map --index` reports a damaged file
// or one built from another genome with its typed message and exit 1,
// never an abort.
TEST(Cli, MapRejectsTruncatedIndex) {
  const std::string ref = tmp("cli_ref4.fa");
  const std::string reads = tmp("cli_reads4.fq");
  const std::string index = tmp("cli_ref4.mmi");
  const std::string err = tmp("cli_err4.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);
  ASSERT_EQ(run_cli("index " + ref + " " + index), 0);
  const std::string image = slurp(index);
  ASSERT_GT(image.size(), 1000u);
  {
    std::ofstream out(index, std::ios::binary | std::ios::trunc);
    out.write(image.data(), 1000);
  }
  const int status = run_cli_stderr("map " + ref + " " + reads + " --index " + index +
                                        " > /dev/null",
                                    err);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string msg = slurp(err);
  EXPECT_NE(msg.find("file is 1000 bytes but the header promises"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[truncated]"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("fatal"), std::string::npos) << msg;
  for (const auto& p : {ref, reads, index, err}) std::remove(p.c_str());
}

TEST(Cli, MapRejectsIndexOfAnotherGenome) {
  const std::string ref = tmp("cli_ref5.fa");
  const std::string reads = tmp("cli_reads5.fq");
  const std::string other = tmp("cli_other5.fa");
  const std::string other_reads = tmp("cli_other_reads5.fq");
  const std::string index = tmp("cli_other5.mmi");
  const std::string err = tmp("cli_err5.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);
  ASSERT_EQ(run_cli("simulate " + other + " " + other_reads + " --length 80000 --reads 1"), 0);
  ASSERT_EQ(run_cli("index " + other + " " + index), 0);
  const int status = run_cli_stderr("map " + ref + " " + reads + " --index " + index +
                                        " > /dev/null",
                                    err);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string msg = slurp(err);
  EXPECT_NE(msg.find("does not match reference"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bp in the index but"), std::string::npos) << msg;
  for (const auto& p : {ref, reads, other, other_reads, index, err}) std::remove(p.c_str());
}

// The sketch-params contract: an index whose k differs from the preset's,
// or whose k/w no sketch can use, is refused with a typed message and a
// non-zero exit (before the contract, these mapped to zero PAF lines,
// segfaulted, or aborted).
TEST(Cli, MapRejectsIndexBuiltWithOtherK) {
  const std::string ref = tmp("cli_ref6.fa");
  const std::string reads = tmp("cli_reads6.fq");
  const std::string index = tmp("cli_ref6.mmi");
  const std::string err = tmp("cli_err6.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);
  ASSERT_EQ(run_cli("index " + ref + " " + index + " -k 19"), 0);
  const int status = run_cli_stderr("map --preset map-ont " + ref + " " + reads + " --index " +
                                        index + " > /dev/null",
                                    err);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string msg = slurp(err);
  EXPECT_NE(msg.find("built with k=19 but the mapping options use k=15"), std::string::npos)
      << msg;
  for (const auto& p : {ref, reads, index, err}) std::remove(p.c_str());
}

TEST(Cli, MapRejectsIndexWithUnusableSketchParams) {
  const std::string ref = tmp("cli_ref7.fa");
  const std::string reads = tmp("cli_reads7.fq");
  const std::string index = tmp("cli_ref7.mmi");
  const std::string err = tmp("cli_err7.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);
  ASSERT_EQ(run_cli("index " + ref + " " + index), 0);
  const std::string pristine = slurp(index);
  ASSERT_GT(pristine.size(), sizeof(IndexHeader));
  for (const auto& [k, w] : {std::pair<u32, u32>{3, 10}, std::pair<u32, u32>{15, 300}}) {
    // Edit the header and restamp its checksum: a well-formed file whose
    // only fault is the sketch params.
    std::string image = pristine;
    IndexHeader h;
    std::memcpy(&h, image.data(), sizeof h);
    h.k = k;
    h.w = w;
    h.header_checksum = xxh64(&h, offsetof(IndexHeader, header_checksum));
    std::memcpy(image.data(), &h, sizeof h);
    {
      std::ofstream out(index, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    const int status = run_cli_stderr("map " + ref + " " + reads + " --index " + index +
                                          " > /dev/null",
                                      err);
    ASSERT_TRUE(WIFEXITED(status)) << "k=" << k << " w=" << w << " killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << "k=" << k << " w=" << w;
    const std::string msg = slurp(err);
    EXPECT_NE(msg.find("outside the supported range"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[malformed]"), std::string::npos) << msg;
  }
  for (const auto& p : {ref, reads, index, err}) std::remove(p.c_str());
}

TEST(Cli, IndexRejectsUnusableSketchParams) {
  const std::string ref = tmp("cli_ref8.fa");
  const std::string reads = tmp("cli_reads8.fq");
  const std::string index = tmp("cli_ref8.mmi");
  const std::string err = tmp("cli_err8.txt");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);
  for (const char* bad : {"-w 300", "-w 257", "-k 3", "-k 29", "-k 4294967311"}) {
    const int status = run_cli_stderr("index " + ref + " " + index + " " + bad, err);
    ASSERT_TRUE(WIFEXITED(status)) << bad << " killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
    const std::string msg = slurp(err);
    EXPECT_NE(msg.find("index needs 4 <= -k <= 28 and 1 <= -w <= 256"), std::string::npos)
        << msg;
    EXPECT_FALSE(std::ifstream(index).good()) << bad << " wrote an index";
  }
  EXPECT_EQ(run_cli("index " + ref + " " + index + " -k 28 -w 256"), 0);
  for (const auto& p : {ref, reads, index, err}) std::remove(p.c_str());
}

TEST(Cli, UsageOnBadInvocation) {
  EXPECT_NE(run_cli(""), 0);
  EXPECT_NE(run_cli("frobnicate"), 0);
}

// Numeric option validation: zero, negative, or malformed values are
// config errors answered with the usage message (exit 2), never a silent
// clamp or a crash. One shared simulate output keeps this fast.
TEST(Cli, RejectsNonPositiveNumericOptions) {
  const std::string ref = tmp("cli_ref3.fa");
  const std::string reads = tmp("cli_reads3.fq");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);

  // map: threads must be a positive integer.
  for (const char* bad : {"0", "-2", "1x", "huge", ""}) {
    EXPECT_NE(run_cli("map " + ref + " " + reads + " --threads '" + bad + "' > /dev/null"), 0)
        << "--threads " << bad;
  }
  // index: k and w must be positive.
  const std::string index = tmp("cli_ref3.mmi");
  EXPECT_NE(run_cli("index " + ref + " " + index + " -k 0"), 0);
  EXPECT_NE(run_cli("index " + ref + " " + index + " -w -3"), 0);
  // simulate: length/contigs/reads positive, seed non-negative.
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --length 0"), 0);
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --reads -1"), 0);
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --seed -1"), 0);
  EXPECT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3 --seed 0"), 0);

  std::remove(ref.c_str());
  std::remove(reads.c_str());
  std::remove(index.c_str());
}

TEST(Serve, RejectsNonPositiveNumericOptions) {
  for (const char* bad :
       {"--workers 0", "--shards -1", "--batch-size 0", "--queue-capacity -4",
        "--verify-sample 0", "--mem-budget-mb 0", "--mem-budget-mb -5", "--reads 2x",
        "--length nope", "--batch-delay-us 0", "--deadline-ms -1", "--rate -0.5",
        "--seed -9"}) {
    // Bad value last so it wins over the baseline (repeated options keep
    // the final occurrence).
    EXPECT_NE(run_serve("--reads 1 --length 10000 " + std::string(bad)), 0) << bad;
  }
}

TEST(Serve, MemBudgetRunEndsCleanly) {
  // A tiny budget forces the dirs-streaming rung of the degradation ladder
  // end-to-end through the real binary; --verify audits the sampled
  // responses against the oracle.
  EXPECT_EQ(run_serve("--length 30000 --reads 6 --mem-budget-mb 1 --verify --workers 1"), 0);
}

TEST(Cli, LayoutAndIsaSelection) {
  const std::string ref = tmp("cli_ref2.fa");
  const std::string reads = tmp("cli_reads2.fq");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 100000 --reads 5"), 0);
  EXPECT_EQ(run_cli("map " + ref + " " + reads + " --layout minimap2 --isa sse2 > /dev/null"),
            0);
  EXPECT_EQ(run_cli("map " + ref + " " + reads +
                    " --preset map-ont --pipeline minimap2 > /dev/null"),
            0);
  std::remove(ref.c_str());
  std::remove(reads.c_str());
}

}  // namespace
}  // namespace manymap
