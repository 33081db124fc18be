// Binary index serialization (MMMI format v2) with two load paths
// (paper §4.4.2) and a durability contract (DESIGN.md):
//   load paths
//     try_load_index_stream — minimap2-style fragmented loading: many
//       small reads, per-record parsing, incremental allocation into the
//       index's own arrays (the paper's baseline).
//     try_load_index_mmap   — manymap's path: map the file once, validate
//       it, and serve lookups straight from the mapping. Nothing is
//       copied, so processes on one host share one physical copy of the
//       table through the page cache.
//   durability
//     The file carries a fully validated fixed header plus per-section
//     xxh64 checksums; every count is bounds-checked against the file
//     size before allocation; loads never abort on garbage — they
//     return a structured IndexLoadResult. save_index publishes
//     atomically (tmp + fsync + rename + dir fsync), so a torn write
//     can never be observed under the final path. Index files are
//     replaced by rename and never rewritten in place: a mapped index
//     keeps serving the old inode, whereas truncating it would SIGBUS
//     every process that has it mapped.
//
// File layout v2 (little-endian, sections 16-byte aligned):
//   IndexHeader (160 bytes, checksummed)
//   contigs section  | per contig: name_len u64, name bytes, length u64
//   buckets section  | MinimizerIndex::Bucket array (open-addressing table image)
//   entries section  | IndexEntry array (hits grouped by key)
// The bucket and entry records are the in-memory records of
// MinimizerIndex, byte for byte.
#pragma once

#include <string>

#include "index/hash_index.hpp"

namespace manymap {

// ---------------------------------------------------------------------------
// On-disk header. Public so tooling and fuzzers can craft files.

struct IndexSectionDesc {
  u64 offset = 0;    ///< absolute file offset of the section payload
  u64 bytes = 0;     ///< exact payload size (excludes alignment padding)
  u64 checksum = 0;  ///< xxh64 over the payload bytes
};

struct IndexHeader {
  u32 magic = 0;         ///< "MMMI"
  u32 version = 0;       ///< 2
  u32 endianness = 0;    ///< written as kIndexEndianTag in host order
  u32 header_bytes = 0;  ///< sizeof(IndexHeader)
  u32 k = 0;
  u32 w = 0;
  u32 reserved0 = 0;
  u32 reserved1 = 0;
  u64 n_contigs = 0;
  u64 n_buckets = 0;  ///< power of two (or 0): open-addressing table image
  u64 n_entries = 0;
  u64 n_keys = 0;
  u64 file_bytes = 0;  ///< total file size; truncation is detected up front
  IndexSectionDesc contigs;
  IndexSectionDesc buckets;
  IndexSectionDesc entries;
  u64 reserved2 = 0;
  u64 header_checksum = 0;  ///< xxh64 over the preceding 152 bytes
};
static_assert(sizeof(IndexHeader) == 160);

constexpr u32 kIndexMagic = 0x494d4d4du;  // "MMMI"
constexpr u32 kIndexVersion = 2;
constexpr u32 kIndexEndianTag = 0x01020304u;

// ---------------------------------------------------------------------------
// Structured load results: corrupt or hostile files are a recoverable
// condition (the service must keep serving its old index), so loaders
// report instead of aborting.

enum class IndexIoStatus {
  kOk = 0,
  kOpenFailed,         ///< file missing/unreadable (see message for errno)
  kTruncated,          ///< file shorter than the header promises
  kBadMagic,           ///< not an MMMI index at all
  kBadVersion,         ///< wrong format version (e.g. stale v1 file)
  kBadEndianness,      ///< index written on an other-endian host
  kChecksumMismatch,   ///< header or section checksum failed — bit corruption
  kMalformed,          ///< counts/offsets/fields violate format invariants
};

const char* to_string(IndexIoStatus status);

struct IndexLoadOptions {
  /// Verify the per-section xxh64 checksums (an O(file size) pass). The
  /// O(1) header checksum and all structural bounds checks always run;
  /// disable only for load-latency benchmarks on trusted files.
  bool verify_checksums = true;
};

struct IndexLoadResult {
  IndexIoStatus status = IndexIoStatus::kOk;
  std::string message;  ///< actionable description; empty iff ok()
  MinimizerIndex index;
  u64 checksum_bytes_verified = 0;
  bool ok() const { return status == IndexIoStatus::kOk; }
};

// ---------------------------------------------------------------------------
// API

/// Serialize to the v2 byte image (header checksums filled in). Pure
/// function of the index contents — equal indexes serialize identically.
std::string serialize_index(const MinimizerIndex& index);

/// Serialize + crash-safe atomic publish: write `path + ".tmp"`, fsync,
/// rename over `path`, fsync the directory. On any failure the tmp file
/// is removed and std::runtime_error (or an injected FaultInjected) is
/// thrown; `path` is either the complete new index or untouched.
/// Returns written byte count.
u64 save_index(const std::string& path, const MinimizerIndex& index);

/// Fragmented stdio loader (baseline in the I/O experiment).
IndexLoadResult try_load_index_stream(const std::string& path,
                                      const IndexLoadOptions& options = {});

/// Memory-mapped zero-copy loader (manymap's optimization): the returned
/// index keeps the file mapped and reads its bucket and entry arrays in
/// place.
IndexLoadResult try_load_index_mmap(const std::string& path,
                                    const IndexLoadOptions& options = {});

/// Legacy wrappers: behavior-identical to the structured loaders on good
/// files; on garbage they abort with the structured (actionable) message
/// instead of returning. The Table 2 loader comparison (core/breakdown.cpp)
/// uses these; the CLI and the service use try_*.
MinimizerIndex load_index_stream(const std::string& path);
MinimizerIndex load_index_mmap(const std::string& path);

}  // namespace manymap
