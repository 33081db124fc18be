#include "verify/index_fuzzer.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "fault/fault.hpp"
#include "index/index_io.hpp"
#include "io/checksum.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace verify {

namespace {

/// Corruption applied to the serialized image for one seed.
enum class Corruption {
  kControl,        ///< untouched — must round-trip bit-identically
  kTruncate,       ///< cut the file at a random byte
  kBitFlip,        ///< flip one random bit anywhere
  kCountInflate,   ///< hostile header count (checksum fixed up) — allocation bomb
  kStaleVersion,   ///< version field rewound to v1
  kBadMagic,       ///< not an MMMI file at all
  kChecksumField,  ///< damage a stored section checksum (checksum fixed up)
  kDoubleFlip,     ///< two independent bit flips
};
constexpr int kNumCorruptions = 8;

const char* to_string(Corruption c) {
  switch (c) {
    case Corruption::kControl: return "control";
    case Corruption::kTruncate: return "truncate";
    case Corruption::kBitFlip: return "bitflip";
    case Corruption::kCountInflate: return "count_inflate";
    case Corruption::kStaleVersion: return "stale_version";
    case Corruption::kBadMagic: return "bad_magic";
    case Corruption::kChecksumField: return "checksum_field";
    case Corruption::kDoubleFlip: return "double_flip";
  }
  return "?";
}

/// Header field offsets the corruptions poke at (kept in sync with
/// IndexHeader by the static_asserts in index_io.hpp).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffCounts = 32;        // n_contigs..n_keys, 4 x u64
constexpr std::size_t kOffSectionSums[3] = {  // checksum u64 of each IndexSectionDesc
    72 + 16, 96 + 16, 120 + 16};
constexpr std::size_t kHeaderHashed = offsetof(IndexHeader, header_checksum);

/// Re-stamp the header checksum after deliberately editing header fields,
/// so the load proceeds past the O(1) checksum gate and the *structural*
/// validation (bounds checks) is what has to reject the file.
void fixup_header_checksum(std::string& image) {
  if (image.size() < sizeof(IndexHeader)) return;
  const u64 sum = xxh64(image.data(), kHeaderHashed);
  std::memcpy(image.data() + kHeaderHashed, &sum, sizeof sum);
}

bool write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

/// Deterministically corrupt `image` in place; returns false when the
/// corruption is a guaranteed no-op (caller treats the seed as control).
bool apply_corruption(Corruption kind, XorShift& rng, std::string& image) {
  if (image.size() < sizeof(IndexHeader)) return false;
  switch (kind) {
    case Corruption::kControl:
      return false;
    case Corruption::kTruncate:
      image.resize(rng.below(image.size()));
      return true;
    case Corruption::kBitFlip: {
      const std::size_t at = rng.below(image.size());
      image[at] = static_cast<char>(static_cast<unsigned char>(image[at]) ^ (1u << rng.below(8)));
      return true;
    }
    case Corruption::kCountInflate: {
      // One of n_contigs / n_buckets / n_entries / n_keys becomes huge.
      // With the checksum re-stamped, only the count-vs-file-size bounds
      // checks stand between this file and a multi-terabyte reserve().
      const u64 huge = (u64{1} << 40) + rng.next() % (u64{1} << 40);
      std::memcpy(image.data() + kOffCounts + 8 * rng.below(4), &huge, sizeof huge);
      fixup_header_checksum(image);
      return true;
    }
    case Corruption::kStaleVersion: {
      const u32 v1 = 1;
      std::memcpy(image.data() + kOffVersion, &v1, sizeof v1);
      fixup_header_checksum(image);
      return true;
    }
    case Corruption::kBadMagic: {
      const u32 junk = static_cast<u32>(rng.next()) ^ kIndexMagic ^ 0xdeadbeefu;
      std::memcpy(image.data(), &junk, sizeof junk);
      return true;
    }
    case Corruption::kChecksumField: {
      const std::size_t at = kOffSectionSums[rng.below(3)] + rng.below(8);
      image[at] = static_cast<char>(static_cast<unsigned char>(image[at]) ^ (1u << rng.below(8)));
      fixup_header_checksum(image);
      return true;
    }
    case Corruption::kDoubleFlip: {
      for (int i = 0; i < 2; ++i) {
        const std::size_t at = rng.below(image.size());
        image[at] =
            static_cast<char>(static_cast<unsigned char>(image[at]) ^ (1u << rng.below(8)));
      }
      return true;
    }
  }
  return false;
}

struct SeedContext {
  u64 seed = 0;
  Corruption kind = Corruption::kControl;
  SweepStats* stats = nullptr;
  const std::function<void(const Divergence&)>* on_divergence = nullptr;
  ComboStats* combo = nullptr;
  bool diverged = false;
};

void report(SeedContext& ctx, const std::string& what) {
  Divergence d;
  d.seed = ctx.seed;
  d.failure = std::string("corruptidx/") + to_string(ctx.kind) + ": " + what;
  ctx.stats->divergences.push_back(d);
  if (ctx.combo != nullptr && !ctx.diverged) ctx.combo->divergences++;
  ctx.diverged = true;
  if (*ctx.on_divergence) (*ctx.on_divergence)(ctx.stats->divergences.back());
}

/// One loader outcome, normalized across the load paths.
struct LoadOutcome {
  bool ok = false;
  IndexIoStatus status = IndexIoStatus::kOk;
  std::string message;
  std::string reserialized;  ///< set when ok
};

constexpr int kNumLoaders = 2;

LoadOutcome load_via(int which, const std::string& path, const IndexLoadOptions& opt) {
  IndexLoadResult r =
      which == 0 ? try_load_index_stream(path, opt) : try_load_index_mmap(path, opt);
  LoadOutcome out;
  out.ok = r.ok();
  out.status = r.status;
  out.message = std::move(r.message);
  if (out.ok) out.reserialized = serialize_index(r.index);
  return out;
}

const char* loader_name(int which) { return which == 0 ? "stream" : "mmap"; }

constexpr const char* kIndexFaultSites[] = {"index.io.open", "index.io.short_read",
                                            "index.corrupt"};

void run_one_seed(SeedContext& ctx, const CorruptIdxOptions& opt, const std::string& path) {
  XorShift rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);

  // A small genome + index, fully determined by the seed.
  GenomeParams gp;
  gp.total_length = 8'000 + rng.below(24'000);
  gp.num_contigs = 1 + static_cast<u32>(rng.below(4));
  gp.repeat_families = static_cast<u32>(rng.below(4));
  gp.seed = ctx.seed;
  const Reference ref = generate_genome(gp);
  SketchParams sp;
  sp.k = 8 + static_cast<u32>(rng.below(13));
  sp.w = 3 + static_cast<u32>(rng.below(8));
  const MinimizerIndex index = MinimizerIndex::build(ref, sp);
  const std::string original = serialize_index(index);

  std::string image = original;
  const bool corrupted = apply_corruption(ctx.kind, rng, image);
  if (!write_bytes(path, image)) {
    report(ctx, "cannot write scratch file " + path);
    return;
  }

  // Contract 1: every load path either succeeds bit-identically or fails
  // cleanly, and both agree on accept/reject.
  IndexLoadOptions lopt;
  LoadOutcome outs[kNumLoaders];
  for (int which = 0; which < kNumLoaders; ++which) {
    outs[which] = load_via(which, path, lopt);
    ctx.stats->cases_run++;
    const LoadOutcome& o = outs[which];
    if (!o.ok && o.message.empty())
      report(ctx, std::string(loader_name(which)) + " failed without a message (status " +
                      std::string(to_string(o.status)) + ")");
    if (o.ok && o.status != IndexIoStatus::kOk)
      report(ctx, std::string(loader_name(which)) + " ok() with non-kOk status");
    if (o.ok && !corrupted && o.reserialized != original)
      report(ctx, std::string(loader_name(which)) + " round-trip not bit-identical");
    // A corrupted file may legitimately load only when the damage was a
    // no-op on the payload (e.g. two bit flips cancelling); the loaded
    // state must then still match the bytes exactly.
    if (o.ok && corrupted && o.reserialized != image)
      report(ctx, std::string(loader_name(which)) +
                      " accepted a corrupted file without being bit-identical to it");
  }
  if (outs[0].ok != outs[1].ok)
    report(ctx, "loaders disagree: stream=" + std::string(outs[0].ok ? "ok" : "reject") +
                    " mmap=" + (outs[1].ok ? "ok" : "reject"));
  if (!corrupted && !outs[0].ok)
    report(ctx, "control file rejected: " + outs[0].message);

  // Contract 2: with checksum verification off, the structural checks
  // alone must still keep loads crash-free (and count inflation must
  // still be rejected before any allocation).
  if (opt.nochecksum_every > 0 && ctx.seed % opt.nochecksum_every == 0) {
    IndexLoadOptions relaxed;
    relaxed.verify_checksums = false;
    for (int which = 0; which < kNumLoaders; ++which) {
      const LoadOutcome o = load_via(which, path, relaxed);
      ctx.stats->cases_run++;
      if (!o.ok && o.message.empty())
        report(ctx, std::string(loader_name(which)) +
                        " (checksums off) failed without a message");
      if (!corrupted && !o.ok)
        report(ctx, std::string(loader_name(which)) +
                        " (checksums off) rejected the control file: " + o.message);
      if (!corrupted && o.ok && o.reserialized != original)
        report(ctx, std::string(loader_name(which)) +
                        " (checksums off) round-trip not bit-identical");
    }
  }

  // Contract 3: armed fault sites against the PRISTINE file behave like
  // real I/O errors (structured failure, never a crash), and the next
  // unarmed load is bit-identical again.
  if (opt.fault_every > 0 && ctx.seed % opt.fault_every == 0) {
    if (!write_bytes(path, original)) {
      report(ctx, "cannot rewrite pristine scratch file " + path);
      return;
    }
    for (const char* site : kIndexFaultSites) {
      fault::FaultPlan plan(ctx.seed);
      plan.arm({site, fault::FaultKind::kError, 1, 1, {}});
      fault::ScopedPlan guard(&plan);
      for (int which = 0; which < kNumLoaders; ++which) {
        const LoadOutcome o = load_via(which, path, lopt);
        ctx.stats->cases_run++;
        // One fire per plan: exactly one of the loads eats the fault;
        // the other must succeed bit-identically.
        if (!o.ok && o.message.empty())
          report(ctx, std::string(loader_name(which)) + " armed(" + site +
                          ") failed without a message");
        if (o.ok && o.reserialized != original)
          report(ctx, std::string(loader_name(which)) + " armed(" + site +
                          ") succeeded but was not bit-identical");
      }
      if (plan.fires() == 0)
        report(ctx, std::string("armed site ") + site + " never fired");
    }
    const LoadOutcome after = load_via(1, path, lopt);
    ctx.stats->cases_run++;
    if (!after.ok || after.reserialized != original)
      report(ctx, "unarmed load after fault replay not bit-identical: " + after.message);
  }
}

}  // namespace

SweepStats run_corruptidx_sweep(const CorruptIdxOptions& opt,
                                const std::function<void(const Divergence&)>& on_divergence) {
  SweepStats stats;
  stats.combos.resize(kNumCorruptions);
  for (int i = 0; i < kNumCorruptions; ++i)
    stats.combos[i].name = std::string("corruptidx/") + to_string(static_cast<Corruption>(i));

  const std::string dir = opt.tmp_dir.empty() ? "/tmp" : opt.tmp_dir;
  const std::string path = dir + "/manymap_corruptidx_" + std::to_string(::getpid()) + ".mmmi";

  for (u64 seed = opt.first_seed; seed < opt.first_seed + opt.seeds; ++seed) {
    SeedContext ctx;
    ctx.seed = seed;
    // The corruption kind cycles deterministically so every kind appears
    // evenly regardless of seed range.
    ctx.kind = static_cast<Corruption>(seed % kNumCorruptions);
    ctx.stats = &stats;
    ctx.on_divergence = &on_divergence;
    ctx.combo = &stats.combos[static_cast<int>(ctx.kind)];
    ctx.combo->cases++;
    run_one_seed(ctx, opt, path);
  }
  std::remove(path.c_str());
  return stats;
}

}  // namespace verify
}  // namespace manymap
