// Corruption fuzzer for the MMMI index persistence layer ("corruptidx"
// family). Each seed deterministically builds a small index, serializes
// it, applies one seed-derived corruption (truncation, bit flips, count
// inflation, stale version, bad magic, checksum-field damage — or none,
// the control), and replays the file through both load paths (stream /
// zero-copy mmap).
//
// The contract under test is the durability contract from DESIGN.md:
// every load either succeeds BIT-IDENTICALLY (re-serializing the loaded
// index reproduces the original byte image exactly) or fails cleanly
// (structured status + actionable message; no crash, no abort, no
// allocation proportional to hostile header counts). The two loaders
// must agree on accept/reject. Periodic replays additionally run with
// checksum verification disabled (structural validation must still hold)
// and with the index.io.* / index.corrupt fault sites armed against the
// pristine file (injected faults must look exactly like real I/O errors,
// and the next unarmed load must still be bit-identical).
#pragma once

#include <functional>
#include <string>

#include "verify/fuzzer.hpp"

namespace manymap {
namespace verify {

struct CorruptIdxOptions {
  u64 seeds = 128;
  u64 first_seed = 1;
  /// Directory for scratch index files (one per in-flight seed, removed
  /// after each). Empty = /tmp.
  std::string tmp_dir;
  /// Every Nth seed also replays the PRISTINE file with each index fault
  /// site armed (index.io.open, index.io.short_read, index.corrupt),
  /// requiring a clean structured failure, then a clean unarmed reload.
  /// 0 disables the fault replays.
  u64 fault_every = 8;
  /// Every Nth seed replays its (possibly corrupted) file with
  /// verify_checksums=false: bounds/structure checks alone must still
  /// prevent crashes and allocation bombs. 0 disables.
  u64 nochecksum_every = 4;
};

/// Run the corruption sweep. Divergences carry the failing seed and a
/// description of the broken contract (the CaseSpec member is unused —
/// there is no kernel case to minimize). `on_divergence` fires as each
/// divergence is found.
SweepStats run_corruptidx_sweep(
    const CorruptIdxOptions& opt,
    const std::function<void(const Divergence&)>& on_divergence = {});

}  // namespace verify
}  // namespace manymap
