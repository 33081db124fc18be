#include "core/mapper.hpp"

#include <algorithm>

#include "align/arena.hpp"
#include "align/banded.hpp"
#include "align/diff_common.hpp"
#include "align/dirs_spill.hpp"
#include "align/fallback.hpp"
#include "base/timer.hpp"
#include "chain/chain.hpp"

namespace manymap {

namespace {

/// Append `piece` to `total` (merging adjacent equal ops).
void append_cigar(Cigar& total, const Cigar& piece) {
  for (const auto& op : piece.ops()) total.push(op.op, op.len);
}

/// DP-cell budget for one inter-anchor gap fill; larger gaps take the
/// advisory banded path (minimap2 would band them too). With auto
/// banding as the default hot path most fills under the cap run banded
/// at O(band*len) anyway, so the cap only bounds the unbanded worst case
/// (off mode, or a band-hit rerun): 2e6 cells is ~0.5 ms. It is sized so
/// the admission estimate (estimate_dirs_bytes) stays dominated by the
/// capped end-extension term for typical long reads (< ~19 kbp).
constexpr u64 kGapCellCap = 2'000'000;
/// Longest unanchored read end that is extension-aligned; longer tails
/// are soft-clipped past this (minimap2's z-drop plays the same role).
constexpr u32 kExtensionCap = 2000;

struct StitchResult {
  Cigar cigar;
  u64 t_begin = 0;  ///< reference start of the alignment
  u32 q_begin = 0;  ///< oriented-query start
  u32 q_end = 0;    ///< oriented-query end (exclusive)
  u64 t_end = 0;    ///< reference end (exclusive)
  u64 cells = 0;
};

}  // namespace

u64 estimate_dirs_bytes(const MapOptions& opt, u64 read_len) {
  if (read_len == 0) return 0;
  // Worst capped end extension: query up to kExtensionCap, target window
  // stretched by the end bonus. Banded options shrink every dirs row to
  // the band width, which dirs_footprint accounts for. Only a fixed band
  // (opt.band > 0) shrinks the estimate: auto mode keeps the unbanded
  // bound, since any segment may rerun unbanded on band_hit and the
  // admission ladder must cover that worst case.
  const u64 ext_q = std::min<u64>(read_len, kExtensionCap);
  const u64 ext_t = ext_q + opt.end_bonus_window;
  const u64 ext_fp = detail::KernelArena::dirs_footprint(
      static_cast<i32>(ext_t), static_cast<i32>(ext_q), opt.band);
  // Worst inter-anchor gap fill: cell count is capped at kGapCellCap
  // (larger gaps take the banded path), each dimension by the read; the
  // per-diagonal lane padding adds at most (t+q)*kLanePad on top. len is
  // u64 end-to-end — kGapCellCap is 2e6, so any len >= 1415 saturates the
  // cell term and len*len is never evaluated where it could overflow.
  const u64 len = read_len;
  u64 gap_cells = len >= 1415 ? kGapCellCap : len * len;
  if (opt.band > 0) {
    const u64 band_rows = 2 * static_cast<u64>(opt.band) + 1;
    gap_cells = std::min(gap_cells, band_rows * std::min<u64>(2 * len, kGapCellCap));
  }
  const u64 gap_fp = gap_cells + 2 * len * detail::kLanePad;
  return std::max(ext_fp, gap_fp);
}

Mapper::Mapper(const Reference& ref, MapOptions opt)
    : Mapper(ref, MinimizerIndex::build(ref, opt.sketch), std::move(opt)) {}

Mapper::Mapper(const Reference& ref, MinimizerIndex index, MapOptions opt)
    : ref_(ref), index_(std::move(index)), opt_(std::move(opt)) {
  // Reads are sketched with opt_.sketch but anchors take k from the index;
  // callers holding a loaded index vet it with index_matches_reference.
  MM_REQUIRE(index_.params().k == opt_.sketch.k, "index k differs from the mapping k");
  max_occ_ = std::min(index_.occurrence_cutoff(opt_.occ_frac), opt_.max_occ_cap);
}

std::vector<Mapping> Mapper::map(const Sequence& read, MapTimings* timings) const {
  MapCall call;
  call.timings = timings;
  return map(read, call);
}

std::vector<Mapping> Mapper::map(const Sequence& read, const MapCall& call) const {
  MapTimings* timings = call.timings;
  const bool with_cigar = opt_.with_cigar && !call.score_only;
  auto check_deadline = [&] {
    if (call.deadline && std::chrono::steady_clock::now() > *call.deadline)
      throw MapDeadlineExceeded();
  };

  std::vector<Mapping> mappings;
  const u32 qlen = static_cast<u32>(read.size());
  if (qlen < opt_.sketch.k) return mappings;

  WallTimer seed_timer;
  const auto query_minimizers = sketch(read.codes, 0, opt_.sketch);
  const auto anchors = collect_anchors(index_, query_minimizers, qlen, max_occ_);
  check_deadline();  // after seeding, before chaining
  auto chains = chain_anchors(anchors, opt_.chain);
  const double seed_chain_s = seed_timer.seconds();
  if (timings != nullptr) timings->seed_chain_seconds += seed_chain_s;
  if (chains.empty()) return mappings;
  check_deadline();  // after chaining, before base-level alignment

  // MAPQ's f2 is the runner-up chain score, read before the cap and the
  // filter below so that neither moves it. Any second chain counts, a
  // supplementary one too (minimap2 takes f2 only from chains that
  // overlap the primary on the query). When DP promotes a lower chain,
  // f2 >= f1 and MAPQ is 0.
  const i32 runner_up_score = chains.size() > 1 ? chains[1].score : 0;
  const double min_secondary_score = opt_.pri_ratio * chains[0].score;

  if (chains.size() > opt_.max_mappings) chains.resize(opt_.max_mappings);
  // minimap2's -p rule: a secondary chain scoring below pri_ratio x the
  // best chain is not aligned. Most DP cells of a noisy read would go to
  // such chains (DESIGN.md, "Chain selection before DP"). Supplementary
  // chains cover other parts of the read and are kept whatever their
  // score. Unlike minimap2, the cap above runs first and counts them too.
  // A dropped chain can still change the output: it may have won the DP
  // re-rank below, or overlapped a kept mapping that then turns primary.
  chains.erase(std::remove_if(chains.begin(), chains.end(),
                              [&](const Chain& c) {
                                return !c.primary && c.score < min_secondary_score;
                              }),
               chains.end());

  WallTimer align_timer;
  const u32 k = opt_.sketch.k;
  KernelFn kernel = get_diff_kernel(opt_.layout, opt_.isa);
  MM_REQUIRE(kernel != nullptr, "configured kernel unavailable");
  const std::vector<u8> rc = reverse_complement(read.codes);
  u64 total_cells = 0;
  u64 kernel_retries = 0;
  u32 deepest_rung = 0;
  u64 streamed_kernels = 0;
  const u64 spilled_before = detail::dirs_spill_stats().bytes;
  detail::KernelArena& arena =
      call.arena != nullptr ? *call.arena : detail::KernelArena::for_thread();

  // Lazily created spill sink, shared by every streamed kernel of this
  // call (each kernel rewrites from offset 0; reads never cross calls).
  // An in-memory sink is upgraded to a temp file if a later kernel's
  // footprint outgrows the in-memory cap.
  std::unique_ptr<DirsSpill> spill;
  u64 spill_class = 0;  ///< largest footprint the sink was built for
  auto spill_for = [&](u64 footprint) -> DirsSpill* {
    if (spill == nullptr ||
        (spill_class <= kDefaultSpillMemCap && footprint > kDefaultSpillMemCap)) {
      spill = make_dirs_spill(footprint);
    }
    spill_class = std::max(spill_class, footprint);
    return spill.get();
  };

  // Effective banding: a per-call band override (>= 0) pins a fixed band
  // for the whole call (the service degrade ladder does this), taking
  // precedence over the options band_mode; otherwise auto derives a band
  // per segment from chain geometry, fixed uses the static knob, off is
  // unbanded. Auto keeps zdrop off — zdrop results are advisory (not
  // rerun on band_hit), and auto must stay bit-identical to unbanded.
  const BandMode band_mode = call.band >= 0
                                 ? (call.band > 0 ? BandMode::kFixed : BandMode::kOff)
                                 : opt_.band_mode;
  const i32 eff_band = call.band >= 0 ? call.band : opt_.band;
  const i32 eff_zdrop = call.zdrop >= 0 ? call.zdrop : opt_.zdrop;
  const bool strip_fills = kernel_has_strips(kernel);
  u64 band_fallbacks = 0;
  u64 auto_band_kernels = 0;
  u64 auto_band_full = 0;
  u64 auto_band_sum = 0;

  // `band_hint` is the geometry-derived candidate half-width for this
  // segment (consulted only in auto mode, where it is gated on actually
  // narrowing the matrix before the kernel runs banded).
  auto run_kernel = [&](const std::vector<u8>& target, const std::vector<u8>& query,
                        AlignMode mode, i32 band_hint) {
    DiffArgs a;
    a.target = target.data();
    a.tlen = static_cast<i32>(target.size());
    a.query = query.data();
    a.qlen = static_cast<i32>(query.size());
    a.params = opt_.scores;
    a.mode = mode;
    a.with_cigar = with_cigar;
    a.arena = &arena;
    if (band_mode == BandMode::kAuto) {
      // Global fills up to kStripMaxRows run unbanded on a strip kernel:
      // a strip pass costs less than a band on the noisy fills of that
      // size, which often rerun (DESIGN.md §5). The unbanded answer is
      // the one a band-hit rerun would give anyway.
      a.band = strip_fills && mode == AlignMode::kGlobal && a.tlen <= kStripMaxRows
                   ? 0
                   : profitable_band(band_hint, target.size(), query.size(),
                                     opt_.auto_band);
      a.zdrop = 0;
      if (a.band > 0) {
        ++auto_band_kernels;
        auto_band_sum += static_cast<u64>(a.band);
      } else {
        ++auto_band_full;
      }
    } else {
      a.band = band_mode == BandMode::kFixed ? eff_band : 0;
      a.zdrop = eff_zdrop;
    }
    // Spill config depends on the band (banded dirs rows are O(band), not
    // O(|Q|)), so it is re-derived when the band changes for the rerun.
    auto configure_spill = [&] {
      a.spill = nullptr;
      a.spill_block_rows = 0;
      if (with_cigar && call.dirs_budget_bytes > 0) {
        const u64 fp = detail::KernelArena::dirs_footprint(a.tlen, a.qlen, a.band);
        if (fp > call.dirs_budget_bytes) {
          a.spill = spill_for(fp);
          a.spill_block_rows =
              spill_rows_for_budget(a.tlen, a.qlen, call.dirs_budget_bytes, a.band);
          ++streamed_kernels;
        }
      }
    };
    auto dispatch = [&]() -> AlignResult {
      if (call.kernel_override != nullptr && *call.kernel_override)
        return (*call.kernel_override)(a);
      if (opt_.kernel_override) return opt_.kernel_override(a);
      FallbackOutcome fo;
      AlignResult r = align_with_fallback(a, kernel, opt_.layout, &fo);
      kernel_retries += fo.failed_attempts;
      deepest_rung = std::max(deepest_rung, fo.rung);
      return r;
    };
    configure_spill();
    AlignResult r;
    if (a.band > 0) {
      // Auto-full fallback: a banded kernel that cannot prove its answer
      // optimal (band_hit flag, or a backtrack that left the band) is
      // rerun unbanded, so mapping results never depend on the band.
      bool retry_full = false;
      try {
        r = dispatch();
        total_cells += r.cells;
        retry_full = r.band_hit;
      } catch (const BandHitError&) {
        retry_full = true;
      }
      if (retry_full) {
        ++band_fallbacks;
        a.band = 0;
        a.zdrop = 0;
        configure_spill();
        r = dispatch();
        total_cells += r.cells;
      }
    } else {
      r = dispatch();
      total_cells += r.cells;
    }
    return r;
  };

  for (const auto& chain : chains) {
    check_deadline();  // per-chain: a slow alignment gives up between chains
    const auto& q = chain.rev ? rc : read.codes;
    const auto& contig = ref_.contig(chain.rid);
    StitchResult s;

    // Anchors per spanned base — the chain's own estimate of how clean the
    // read is, consulted by the extension band estimator (clean reads keep
    // long extensions ledger-provable inside a band; noisy ones do not).
    // The policy floors the span so a short spurious chain cannot certify
    // the read as clean and band a doomed long noisy tail.
    const u64 span = std::max<u64>(
        {chain.tend() - chain.tstart() + 1,
         static_cast<u64>(chain.qend()) - chain.qstart() + 1, 1});
    const double anchor_density =
        chain_anchor_density(chain.anchors.size(), span, opt_.auto_band);

    // --- middle: anchored k-mer + gap fills between consecutive anchors ---
    const Anchor& first = chain.anchors.front();
    s.cigar.push('M', k);  // first anchor's k-mer matches exactly
    u64 t_cursor = first.tpos + 1;  // one past the last aligned ref base
    u32 q_cursor = first.qpos + 1;
    for (std::size_t i = 1; i < chain.anchors.size(); ++i) {
      const Anchor& a = chain.anchors[i];
      const u64 dt = a.tpos + 1 - t_cursor;
      const u32 dq = a.qpos + 1 - q_cursor;
      if (dt == dq && dt <= k) {
        // k-mers overlap or touch: the in-between bases are inside the
        // matching k-mer of anchor i -> exact matches.
        s.cigar.push('M', static_cast<u32>(dt));
      } else {
        // The gap band candidate: measured per-gap diagonal drift (the
        // net indel imbalance this fill must absorb) plus slack and an
        // indel-rate headroom — not a global constant.
        const u32 drift = static_cast<u32>(dt > dq ? dt - dq : static_cast<u64>(dq) - dt);
        const i32 geo_band = auto_band_for_gap(dt, dq, drift, opt_.auto_band);
        const auto target = ref_.extract(chain.rid, t_cursor, dt);
        const std::vector<u8> query(q.begin() + q_cursor, q.begin() + q_cursor + dq);
        const i32 gap_band = band_mode == BandMode::kFixed ? eff_band : geo_band;
        if (dt * dq > kGapCellCap &&
            profitable_band(gap_band, dt, dq, opt_.auto_band) > 0) {
          // Very large inter-anchor gap (a repeat-masked desert): band the
          // fill like minimap2 does, O(gap * band) instead of O(dt*dq).
          // Off and auto modes use the same geometry-derived band so auto
          // output stays byte-identical to unbanded mapping; an explicit
          // fixed band keeps overriding it. When the gap geometry exceeds
          // what a band can exclude, fall through to the normal kernel.
          BandedArgs ba;
          ba.target = target.data();
          ba.tlen = static_cast<i32>(target.size());
          ba.query = query.data();
          ba.qlen = static_cast<i32>(query.size());
          ba.params = opt_.scores;
          ba.band = gap_band;
          ba.with_cigar = with_cigar;
          const auto r = banded_global_align(ba);
          total_cells += r.cells;
          append_cigar(s.cigar, r.cigar);
        } else {
          const auto r = run_kernel(target, query, AlignMode::kGlobal, geo_band);
          append_cigar(s.cigar, r.cigar);
        }
      }
      t_cursor = a.tpos + 1;
      q_cursor = a.qpos + 1;
    }

    // --- left extension: before the first anchor's k-mer ---
    const u64 kmer_t_start = first.tpos + 1 - k;
    const u32 kmer_q_start = first.qpos + 1 - k;
    s.t_begin = kmer_t_start;
    s.q_begin = kmer_q_start;
    if (kmer_q_start > 0 && kmer_t_start > 0) {
      // Bound the extension like minimap2's z-drop does: beyond ~2 kbp of
      // unanchored sequence the tail is left soft-clipped.
      const u32 ext = std::min<u32>(kmer_q_start, kExtensionCap);
      const u64 window =
          std::min<u64>(kmer_t_start, static_cast<u64>(ext) + opt_.end_bonus_window);
      std::vector<u8> target = ref_.extract(chain.rid, kmer_t_start - window, window);
      std::reverse(target.begin(), target.end());
      std::vector<u8> query(q.rend() - kmer_q_start, q.rend() - kmer_q_start + ext);
      const auto r = run_kernel(
          target, query, AlignMode::kExtension,
          auto_band_for_extension(window, ext, anchor_density, opt_.auto_band));
      if (r.q_end >= 0) {
        Cigar left = r.cigar;
        left.reverse();
        Cigar merged;
        append_cigar(merged, left);
        append_cigar(merged, s.cigar);
        s.cigar = std::move(merged);
        s.t_begin = kmer_t_start - static_cast<u64>(r.t_end + 1);
        s.q_begin = kmer_q_start - static_cast<u32>(r.q_end + 1);
      }
    }

    // --- right extension: after the last anchor's k-mer ---
    const Anchor& last = chain.anchors.back();
    s.t_end = last.tpos + 1;
    s.q_end = last.qpos + 1;
    if (s.q_end < qlen && s.t_end < contig.size()) {
      const u32 tail = std::min<u32>(qlen - s.q_end, kExtensionCap);
      const u64 window =
          std::min<u64>(contig.size() - s.t_end, static_cast<u64>(tail) + opt_.end_bonus_window);
      const auto target = ref_.extract(chain.rid, s.t_end, window);
      const std::vector<u8> query(q.begin() + s.q_end, q.begin() + s.q_end + tail);
      const auto r = run_kernel(
          target, query, AlignMode::kExtension,
          auto_band_for_extension(window, tail, anchor_density, opt_.auto_band));
      if (r.q_end >= 0) {
        append_cigar(s.cigar, r.cigar);
        s.t_end += static_cast<u64>(r.t_end + 1);
        s.q_end += static_cast<u32>(r.q_end + 1);
      }
    }

    // --- assemble the mapping record ---
    Mapping m;
    m.qname = read.name;
    m.qlen = qlen;
    m.rev = chain.rev;
    m.rid = chain.rid;
    m.rname = contig.name;
    m.rlen = contig.size();
    m.tstart = s.t_begin;
    m.tend = s.t_end;
    m.chain_score = chain.score;
    m.primary = chain.primary;
    if (chain.rev) {  // oriented -> original read coordinates
      m.qstart = qlen - s.q_end;
      m.qend = qlen - s.q_begin;
    } else {
      m.qstart = s.q_begin;
      m.qend = s.q_end;
    }
    if (with_cigar) {
      m.cigar = std::move(s.cigar);
      // Exact rescoring and match counting from the final path.
      m.score = m.cigar.score(contig.codes, q, s.t_begin, s.q_begin, opt_.scores);
      u64 ti = s.t_begin;
      u32 qi = s.q_begin;
      for (const auto& op : m.cigar.ops()) {
        m.align_length += op.len;
        if (op.op == 'M') {
          for (u32 x = 0; x < op.len; ++x)
            if (contig.codes[ti + x] == q[qi + x] && contig.codes[ti + x] < 4) ++m.matches;
          ti += op.len;
          qi += op.len;
        } else if (op.op == 'D') {
          ti += op.len;
        } else {
          qi += op.len;
        }
      }
    } else {
      m.score = chain.score;
      m.align_length = std::max<u64>(m.tend - m.tstart, m.qend - m.qstart);
      m.matches = static_cast<u64>(chain.anchors.size()) * k;
    }
    mappings.push_back(std::move(m));
  }

  // Re-rank candidates by the exact DP score of the stitched alignment
  // (chain scores cannot separate near-identical repeat copies; the
  // base-level score can) and re-derive primary/secondary flags.
  if (with_cigar && mappings.size() > 1) {
    std::stable_sort(mappings.begin(), mappings.end(),
                     [](const Mapping& x, const Mapping& y) { return x.score > y.score; });
    for (std::size_t i = 0; i < mappings.size(); ++i) {
      mappings[i].primary = true;
      for (std::size_t j = 0; j < i; ++j) {
        const u32 lo = std::max(mappings[i].qstart, mappings[j].qstart);
        const u32 hi = std::min(mappings[i].qend, mappings[j].qend);
        if (lo >= hi) continue;
        const u32 shorter = std::min(mappings[i].qend - mappings[i].qstart,
                                     mappings[j].qend - mappings[j].qstart);
        if (shorter > 0 && static_cast<double>(hi - lo) / shorter > 0.5) {
          mappings[i].primary = false;
          break;
        }
      }
    }
  }

  // MAPQ from the winner's chain score f1 and the runner-up chain score
  // f2 (minimap2-flavoured heuristic).
  if (!mappings.empty()) {
    const double f1 = static_cast<double>(mappings[0].chain_score);
    const double f2 = static_cast<double>(runner_up_score);
    for (auto& m : mappings) {
      if (!m.primary) {
        m.mapq = 0;
        continue;
      }
      const double uniq = f1 > 0 ? 1.0 - f2 / f1 : 0.0;
      const double cnt = std::min(1.0, static_cast<double>(m.cigar.ops().size() + 10) / 20.0);
      m.mapq = static_cast<u32>(std::clamp(60.0 * uniq * cnt, 0.0, 60.0));
    }
  }

  if (timings != nullptr) {
    timings->align_seconds += align_timer.seconds();
    timings->dp_cells += total_cells;
    timings->kernel_retries += kernel_retries;
    timings->deepest_fallback_rung = std::max(timings->deepest_fallback_rung, deepest_rung);
    timings->streamed_kernels += streamed_kernels;
    timings->dirs_spilled_bytes += detail::dirs_spill_stats().bytes - spilled_before;
    timings->band_fallbacks += band_fallbacks;
    timings->auto_band_kernels += auto_band_kernels;
    timings->auto_band_full += auto_band_full;
    timings->auto_band_sum += auto_band_sum;
  }
  return mappings;
}

}  // namespace manymap
