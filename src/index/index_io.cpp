#include "index/index_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "fault/fault.hpp"
#include "io/buffered_reader.hpp"
#include "io/checksum.hpp"
#include "io/mapped_file.hpp"

namespace manymap {

namespace {

constexpr u64 kSectionAlign = 16;
constexpr std::size_t kHeaderHashedBytes = offsetof(IndexHeader, header_checksum);

using Bucket = MinimizerIndex::Bucket;

std::string errno_text() {
  const int err = errno;
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) + ")";
}

std::string hex64(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr u32 bswap32(u32 v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) | (v << 24);
}

struct LoadError {
  IndexIoStatus status;
  std::string message;
};

LoadError err(IndexIoStatus status, const std::string& path, const std::string& detail) {
  return {status, "index '" + path + "': " + detail};
}

/// Validate everything the fixed header claims against the actual file
/// size. Every count is proven to fit in the file *before* any loader
/// allocates — a hostile header cannot trigger a multi-GiB reserve.
std::optional<LoadError> validate_header(const IndexHeader& h, u64 actual_bytes,
                                         const std::string& path) {
  if (h.magic != kIndexMagic) {
    if (h.magic == bswap32(kIndexMagic))
      return err(IndexIoStatus::kBadEndianness, path,
                 "written on an other-endian host; regenerate with 'manymap index' here");
    return err(IndexIoStatus::kBadMagic, path,
               "bad magic " + hex64(h.magic) + " — not an MMMI index file");
  }
  if (h.version != kIndexVersion)
    return err(IndexIoStatus::kBadVersion, path,
               "format version " + std::to_string(h.version) + ", this build reads version " +
                   std::to_string(kIndexVersion) + " — regenerate with 'manymap index'");
  if (h.endianness != kIndexEndianTag) {
    if (h.endianness == bswap32(kIndexEndianTag))
      return err(IndexIoStatus::kBadEndianness, path,
                 "written on an other-endian host; regenerate with 'manymap index' here");
    return err(IndexIoStatus::kMalformed, path, "bad endianness tag " + hex64(h.endianness));
  }
  if (h.header_bytes != sizeof(IndexHeader))
    return err(IndexIoStatus::kMalformed, path,
               "header claims " + std::to_string(h.header_bytes) + " header bytes, expected " +
                   std::to_string(sizeof(IndexHeader)));
  const u64 computed = xxh64(&h, kHeaderHashedBytes);
  if (computed != h.header_checksum)
    return err(IndexIoStatus::kChecksumMismatch, path,
               "header checksum mismatch (stored " + hex64(h.header_checksum) + ", computed " +
                   hex64(computed) + ") — file is corrupt; regenerate or restore from backup");
  if (h.reserved0 != 0 || h.reserved1 != 0 || h.reserved2 != 0)
    return err(IndexIoStatus::kMalformed, path, "reserved header fields are not zero");
  if (actual_bytes < h.file_bytes)
    return err(IndexIoStatus::kTruncated, path,
               "file is " + std::to_string(actual_bytes) + " bytes but the header promises " +
                   std::to_string(h.file_bytes) + " — truncated write or partial copy");
  if (actual_bytes > h.file_bytes)
    return err(IndexIoStatus::kMalformed, path,
               std::to_string(actual_bytes - h.file_bytes) + " trailing bytes past the " +
                   std::to_string(h.file_bytes) + " the header promises");
  if (!SketchParams{h.k, h.w}.valid())
    return err(IndexIoStatus::kMalformed, path,
               "sketch params k=" + std::to_string(h.k) + " w=" + std::to_string(h.w) +
                   " are outside the supported range (" + std::to_string(SketchParams::kMinK) +
                   " <= k <= " + std::to_string(SketchParams::kMaxK) +
                   ", 1 <= w <= " + std::to_string(SketchParams::kMaxW) + ")");

  // Count sanity before any size arithmetic: each bound also proves the
  // later offset/byte sums cannot overflow u64.
  if (h.n_buckets > h.file_bytes / sizeof(Bucket))
    return err(IndexIoStatus::kMalformed, path,
               "bucket count " + std::to_string(h.n_buckets) + " cannot fit in a " +
                   std::to_string(h.file_bytes) + "-byte file");
  if (h.n_entries > h.file_bytes / sizeof(IndexEntry))
    return err(IndexIoStatus::kMalformed, path,
               "entry count " + std::to_string(h.n_entries) + " cannot fit in a " +
                   std::to_string(h.file_bytes) + "-byte file");
  if (h.contigs.bytes > h.file_bytes || h.n_contigs > h.contigs.bytes / 16)
    return err(IndexIoStatus::kMalformed, path,
               "contig count " + std::to_string(h.n_contigs) +
                   " cannot fit in its declared section");
  if (h.n_keys > h.n_entries)
    return err(IndexIoStatus::kMalformed, path,
               "n_keys " + std::to_string(h.n_keys) + " exceeds n_entries " +
                   std::to_string(h.n_entries));
  if (h.n_buckets == 0) {
    if (h.n_keys != 0)
      return err(IndexIoStatus::kMalformed, path, "keys present but the bucket table is empty");
  } else {
    if ((h.n_buckets & (h.n_buckets - 1)) != 0)
      return err(IndexIoStatus::kMalformed, path,
                 "bucket table size " + std::to_string(h.n_buckets) + " is not a power of two");
    if (h.n_keys > h.n_buckets)
      return err(IndexIoStatus::kMalformed, path, "more keys than bucket slots");
  }

  // The v2 layout is canonical: section offsets/sizes are fully
  // determined by the counts, so they are checked for equality, not just
  // containment.
  const u64 contigs_off = sizeof(IndexHeader);
  const u64 buckets_off = round_up(contigs_off + h.contigs.bytes, kSectionAlign);
  const u64 buckets_bytes = h.n_buckets * sizeof(Bucket);
  const u64 entries_off = round_up(buckets_off + buckets_bytes, kSectionAlign);
  const u64 entries_bytes = h.n_entries * sizeof(IndexEntry);
  if (h.contigs.offset != contigs_off || h.buckets.offset != buckets_off ||
      h.buckets.bytes != buckets_bytes || h.entries.offset != entries_off ||
      h.entries.bytes != entries_bytes || entries_off + entries_bytes != h.file_bytes)
    return err(IndexIoStatus::kMalformed, path,
               "section table does not match the canonical v2 layout for its counts");
  return std::nullopt;
}

std::optional<LoadError> check_section_sum(const char* name, const IndexSectionDesc& want,
                                           u64 computed, const std::string& path) {
  if (computed == want.checksum) return std::nullopt;
  return err(IndexIoStatus::kChecksumMismatch, path,
             std::string(name) + " section checksum mismatch (stored " + hex64(want.checksum) +
                 ", computed " + hex64(computed) +
                 ") — file is corrupt; regenerate or restore from backup");
}

/// Structural validation of the bucket table image and entry array;
/// always runs, with or without checksums, because lookup() safety
/// depends on it (offset/count pairs index the entry array directly).
std::optional<LoadError> validate_parts(const IndexHeader& h,
                                        const std::vector<ContigMeta>& contigs,
                                        std::span<const Bucket> buckets,
                                        std::span<const IndexEntry> entries,
                                        const std::string& path) {
  u64 non_empty = 0;
  u64 total_count = 0;
  for (u64 i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    if (b.pad != 0)
      return err(IndexIoStatus::kMalformed, path,
                 "bucket " + std::to_string(i) + " has nonzero padding");
    if (b.key == ~0ULL) {
      if (b.count != 0 || b.offset != 0)
        return err(IndexIoStatus::kMalformed, path,
                   "empty bucket " + std::to_string(i) + " has nonzero offset/count");
      continue;
    }
    if (b.count == 0 || b.count > h.n_entries || b.offset > h.n_entries - b.count)
      return err(IndexIoStatus::kMalformed, path,
                 "bucket " + std::to_string(i) + " spans entries [" + std::to_string(b.offset) +
                     ", +" + std::to_string(b.count) + ") outside the " +
                     std::to_string(h.n_entries) + "-entry array");
    ++non_empty;
    total_count += b.count;
  }
  if (non_empty != h.n_keys)
    return err(IndexIoStatus::kMalformed, path,
               "bucket table holds " + std::to_string(non_empty) + " keys, header promises " +
                   std::to_string(h.n_keys));
  if (total_count != h.n_entries)
    return err(IndexIoStatus::kMalformed, path,
               "bucket counts sum to " + std::to_string(total_count) + ", header promises " +
                   std::to_string(h.n_entries) + " entries");
  for (u64 i = 0; i < entries.size(); ++i) {
    const IndexEntry& e = entries[i];
    if (e.pad != 0 || e.strand_rev > 1)
      return err(IndexIoStatus::kMalformed, path,
                 "entry " + std::to_string(i) + " has nonzero padding or bad strand flag");
    if (e.rid >= h.n_contigs || e.pos >= contigs[e.rid].length)
      return err(IndexIoStatus::kMalformed, path,
                 "entry " + std::to_string(i) + " points at contig " + std::to_string(e.rid) +
                     " pos " + std::to_string(e.pos) + " outside the reference");
  }
  return std::nullopt;
}

/// Parse the contig section payload; bounds were proven by
/// validate_header, so this only walks records and checks they consume
/// the section exactly.
std::optional<LoadError> parse_contigs(const u8* sec, const IndexHeader& h,
                                       std::vector<ContigMeta>& out, const std::string& path) {
  const u64 bytes = h.contigs.bytes;
  out.reserve(h.n_contigs);  // bounded: n_contigs <= contigs.bytes / 16 <= file size
  u64 off = 0;
  for (u64 i = 0; i < h.n_contigs; ++i) {
    u64 name_len = 0;
    if (bytes - off < sizeof name_len)
      return err(IndexIoStatus::kMalformed, path, "contig section ends mid-record");
    std::memcpy(&name_len, sec + off, sizeof name_len);
    off += sizeof name_len;
    if (bytes - off < name_len || bytes - off - name_len < sizeof(u64))
      return err(IndexIoStatus::kMalformed, path,
                 "contig " + std::to_string(i) + " name overruns its section");
    ContigMeta meta;
    meta.name.assign(reinterpret_cast<const char*>(sec + off), name_len);
    off += name_len;
    std::memcpy(&meta.length, sec + off, sizeof meta.length);
    off += sizeof meta.length;
    out.push_back(std::move(meta));
  }
  if (off != bytes)
    return err(IndexIoStatus::kMalformed, path,
               "contig section has " + std::to_string(bytes - off) + " bytes of slack");
  return std::nullopt;
}

std::optional<LoadError> check_padding(const u8* p, u64 n, const std::string& path) {
  for (u64 i = 0; i < n; ++i)
    if (p[i] != 0)
      return err(IndexIoStatus::kMalformed, path, "nonzero bytes in section padding");
  return std::nullopt;
}

void append_pod(std::string& out, const auto& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

}  // namespace

const char* to_string(IndexIoStatus status) {
  switch (status) {
    case IndexIoStatus::kOk: return "ok";
    case IndexIoStatus::kOpenFailed: return "open-failed";
    case IndexIoStatus::kTruncated: return "truncated";
    case IndexIoStatus::kBadMagic: return "bad-magic";
    case IndexIoStatus::kBadVersion: return "bad-version";
    case IndexIoStatus::kBadEndianness: return "bad-endianness";
    case IndexIoStatus::kChecksumMismatch: return "checksum-mismatch";
    case IndexIoStatus::kMalformed: return "malformed";
  }
  return "?";
}

std::string serialize_index(const MinimizerIndex& index) {
  IndexHeader h;
  h.magic = kIndexMagic;
  h.version = kIndexVersion;
  h.endianness = kIndexEndianTag;
  h.header_bytes = sizeof(IndexHeader);
  h.k = index.params().k;
  h.w = index.params().w;
  h.n_contigs = index.contigs().size();
  h.n_buckets = index.buckets().size();
  h.n_entries = index.entries().size();
  h.n_keys = index.num_keys();

  std::string contig_blob;
  for (const auto& c : index.contigs()) {
    const u64 name_len = c.name.size();
    append_pod(contig_blob, name_len);
    contig_blob.append(c.name);
    append_pod(contig_blob, c.length);
  }

  // The in-memory records are the on-disk records, so the table sections
  // are the index's own bytes.
  const auto buckets = std::as_bytes(index.buckets());
  const auto entries = std::as_bytes(index.entries());

  h.contigs = {sizeof(IndexHeader), contig_blob.size(), xxh64(contig_blob.data(), contig_blob.size())};
  h.buckets = {round_up(h.contigs.offset + h.contigs.bytes, kSectionAlign), buckets.size(),
               xxh64(buckets.data(), buckets.size())};
  h.entries = {round_up(h.buckets.offset + h.buckets.bytes, kSectionAlign), entries.size(),
               xxh64(entries.data(), entries.size())};
  h.file_bytes = h.entries.offset + h.entries.bytes;
  h.header_checksum = xxh64(&h, kHeaderHashedBytes);

  std::string out;
  out.reserve(h.file_bytes);
  append_pod(out, h);
  out.append(contig_blob);
  out.append(h.buckets.offset - out.size(), '\0');
  out.append(reinterpret_cast<const char*>(buckets.data()), buckets.size());
  out.append(h.entries.offset - out.size(), '\0');
  out.append(reinterpret_cast<const char*>(entries.data()), entries.size());
  return out;
}

u64 save_index(const std::string& path, const MinimizerIndex& index) {
  MM_INJECT("index.save");
  const std::string out = serialize_index(index);
  const std::string tmp = path + ".tmp";
  auto fail = [&](const char* what) {
    return std::runtime_error("save_index '" + path + "': " + what + ": " + errno_text());
  };
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw fail("cannot create temp file");
  try {
    const char* p = out.data();
    std::size_t left = out.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    // Crash window between tmp write and publish: an injected fault here
    // must leave `path` untouched and no tmp debris behind.
    MM_INJECT("index.save.write");
    if (::fsync(fd) != 0) throw fail("fsync failed");
    if (::close(fd) != 0) {
      fd = -1;
      throw fail("close failed");
    }
    fd = -1;
    if (::rename(tmp.c_str(), path.c_str()) != 0) throw fail("rename failed");
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  // Make the rename itself durable: fsync the containing directory.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return out.size();
}

IndexLoadResult try_load_index_stream(const std::string& path, const IndexLoadOptions& options) {
  IndexLoadResult res;
  auto fail = [&res](LoadError e) {
    res.status = e.status;
    res.message = std::move(e.message);
    return std::move(res);
  };
  if (MM_INJECT_FAIL("index.io.open"))
    return fail(err(IndexIoStatus::kOpenFailed, path, "injected open failure at index.io.open"));
  BufferedReader in(path, 4096);
  if (!in.is_open())
    return fail(err(IndexIoStatus::kOpenFailed, path, "cannot open: " + errno_text()));
  const u64 size = in.file_bytes();

  IndexHeader h;
  if (!in.try_read_pod(h) || MM_INJECT_FAIL("index.io.short_read"))
    return fail(err(IndexIoStatus::kTruncated, path,
                    "file is " + std::to_string(size) + " bytes, a v2 header needs " +
                        std::to_string(sizeof(IndexHeader))));
  if (auto e = validate_header(h, size, path)) return fail(*e);

  // Fragmented pattern: a length read, then a name read, then a field
  // read, with incremental allocation per record — minimap2's loader
  // shape. The checksum is folded in as the bytes stream past.
  Xxh64 sum;
  std::vector<ContigMeta> contigs;
  contigs.reserve(h.n_contigs);  // bounded: n_contigs <= contigs.bytes / 16 <= file size
  u64 off = 0;
  const auto truncated = [&](const char* what) {
    return err(IndexIoStatus::kTruncated, path, std::string("unexpected end of file in ") + what);
  };
  for (u64 i = 0; i < h.n_contigs; ++i) {
    u64 name_len = 0;
    if (h.contigs.bytes - off < sizeof name_len || !in.try_read_pod(name_len))
      return fail(truncated("contig record"));
    sum.update(&name_len, sizeof name_len);
    off += sizeof name_len;
    if (h.contigs.bytes - off < name_len || h.contigs.bytes - off - name_len < sizeof(u64))
      return fail(err(IndexIoStatus::kMalformed, path,
                      "contig " + std::to_string(i) + " name overruns its section"));
    ContigMeta meta;
    meta.name.resize(name_len);
    if (name_len > 0 && !in.try_read_exact(meta.name.data(), name_len))
      return fail(truncated("contig name"));
    sum.update(meta.name.data(), name_len);
    off += name_len;
    if (!in.try_read_pod(meta.length)) return fail(truncated("contig length"));
    sum.update(&meta.length, sizeof meta.length);
    off += sizeof meta.length;
    contigs.push_back(std::move(meta));
  }
  if (off != h.contigs.bytes)
    return fail(err(IndexIoStatus::kMalformed, path,
                    "contig section has " + std::to_string(h.contigs.bytes - off) +
                        " bytes of slack"));
  if (options.verify_checksums) {
    if (auto e = check_section_sum("contigs", h.contigs, sum.digest(), path)) return fail(*e);
    res.checksum_bytes_verified += h.contigs.bytes;
  }

  const auto skip_padding = [&](u64 n) -> std::optional<LoadError> {
    u8 pad[kSectionAlign] = {};
    if (n > sizeof pad || !(n == 0 || in.try_read_exact(pad, n)))
      return truncated("section padding");
    return check_padding(pad, n, path);
  };
  if (auto e = skip_padding(h.buckets.offset - (h.contigs.offset + h.contigs.bytes)))
    return fail(*e);

  struct Tables {
    std::vector<Bucket> buckets;
    std::vector<IndexEntry> entries;
  };
  auto tables = std::make_shared<Tables>();
  sum.reset();
  std::vector<Bucket>& buckets = tables->buckets;
  buckets.reserve(h.n_buckets);  // bounded: n_buckets <= file size / sizeof(Bucket)
  for (u64 i = 0; i < h.n_buckets; ++i) {
    Bucket b{};
    if (!in.try_read_pod(b)) return fail(truncated("bucket table"));
    sum.update(&b, sizeof b);
    buckets.push_back(b);
  }
  if (options.verify_checksums) {
    if (auto e = check_section_sum("buckets", h.buckets, sum.digest(), path)) return fail(*e);
    res.checksum_bytes_verified += h.buckets.bytes;
  }
  if (auto e = skip_padding(h.entries.offset - (h.buckets.offset + h.buckets.bytes)))
    return fail(*e);

  sum.reset();
  std::vector<IndexEntry>& entries = tables->entries;
  entries.reserve(h.n_entries);  // bounded: n_entries <= file size / sizeof(IndexEntry)
  for (u64 i = 0; i < h.n_entries; ++i) {
    IndexEntry e{};
    if (!in.try_read_pod(e)) return fail(truncated("entry array"));
    sum.update(&e, sizeof e);
    entries.push_back(e);
  }
  if (options.verify_checksums) {
    if (auto e = check_section_sum("entries", h.entries, sum.digest(), path)) return fail(*e);
    res.checksum_bytes_verified += h.entries.bytes;
  }
  if (MM_INJECT_FAIL("index.corrupt"))
    return fail(err(IndexIoStatus::kChecksumMismatch, path, "injected corruption at index.corrupt"));

  if (auto e = validate_parts(h, contigs, buckets, entries, path)) return fail(*e);
  res.index = MinimizerIndex(SketchParams{h.k, h.w}, std::move(contigs), h.n_keys, buckets,
                             entries, std::move(tables));
  return res;
}

IndexLoadResult try_load_index_mmap(const std::string& path, const IndexLoadOptions& options) {
  IndexLoadResult res;
  auto fail = [&res](LoadError e) {
    res.status = e.status;
    res.message = std::move(e.message);
    return std::move(res);
  };
  if (MM_INJECT_FAIL("index.io.open"))
    return fail(err(IndexIoStatus::kOpenFailed, path, "injected open failure at index.io.open"));
  auto file = std::make_shared<MappedFile>();
  if (!file->open(path)) return fail(err(IndexIoStatus::kOpenFailed, path, file->last_error()));
  const u8* base = file->data();
  const u64 size = file->size();
  if (size < sizeof(IndexHeader))
    return fail(err(IndexIoStatus::kTruncated, path,
                    "file is " + std::to_string(size) + " bytes, a v2 header needs " +
                        std::to_string(sizeof(IndexHeader))));
  if (MM_INJECT_FAIL("index.io.short_read"))
    return fail(err(IndexIoStatus::kTruncated, path, "injected short read at index.io.short_read"));
  IndexHeader h;
  std::memcpy(&h, base, sizeof h);
  if (auto e = validate_header(h, size, path)) return fail(*e);

  if (options.verify_checksums) {
    if (auto e = check_section_sum("contigs", h.contigs,
                                   xxh64(base + h.contigs.offset, h.contigs.bytes), path))
      return fail(*e);
    if (auto e = check_section_sum("buckets", h.buckets,
                                   xxh64(base + h.buckets.offset, h.buckets.bytes), path))
      return fail(*e);
    if (auto e = check_section_sum("entries", h.entries,
                                   xxh64(base + h.entries.offset, h.entries.bytes), path))
      return fail(*e);
    res.checksum_bytes_verified += h.contigs.bytes + h.buckets.bytes + h.entries.bytes;
  }
  if (MM_INJECT_FAIL("index.corrupt"))
    return fail(err(IndexIoStatus::kChecksumMismatch, path, "injected corruption at index.corrupt"));

  if (auto e = check_padding(base + h.contigs.offset + h.contigs.bytes,
                             h.buckets.offset - (h.contigs.offset + h.contigs.bytes), path))
    return fail(*e);
  if (auto e = check_padding(base + h.buckets.offset + h.buckets.bytes,
                             h.entries.offset - (h.buckets.offset + h.buckets.bytes), path))
    return fail(*e);
  std::vector<ContigMeta> contigs;
  if (auto e = parse_contigs(base + h.contigs.offset, h, contigs, path)) return fail(*e);

  // Sections are 16-byte aligned in the file and the mapping is
  // page-aligned, so the records are read in place; the index keeps the
  // mapping alive instead of copying out of it.
  const std::span buckets(reinterpret_cast<const Bucket*>(base + h.buckets.offset), h.n_buckets);
  const std::span entries(reinterpret_cast<const IndexEntry*>(base + h.entries.offset),
                          h.n_entries);
  if (auto e = validate_parts(h, contigs, buckets, entries, path)) return fail(*e);
  res.index = MinimizerIndex(SketchParams{h.k, h.w}, std::move(contigs), h.n_keys, buckets,
                             entries, std::move(file));
  return res;
}

MinimizerIndex load_index_stream(const std::string& path) {
  MM_INJECT("index.load.stream");
  auto res = try_load_index_stream(path);
  MM_REQUIRE(res.ok(), res.message.c_str());
  return std::move(res.index);
}

MinimizerIndex load_index_mmap(const std::string& path) {
  MM_INJECT("index.load.mmap");
  auto res = try_load_index_mmap(path);
  MM_REQUIRE(res.ok(), res.message.c_str());
  return std::move(res.index);
}

}  // namespace manymap
