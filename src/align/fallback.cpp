#include "align/fallback.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "align/banded.hpp"

namespace manymap {

namespace {

// Rung 2: the most conservative implementation we have. Global mode uses
// the banded DP with a band wide enough to cover every cell (exactly the
// reference DP's answer, including tie-breaking); extension mode uses the
// full-matrix reference DP directly.
AlignResult run_banded_reference(const DiffArgs& a) {
  if (a.mode == AlignMode::kGlobal) {
    BandedArgs b;
    b.target = a.target;
    b.tlen = a.tlen;
    b.query = a.query;
    b.qlen = a.qlen;
    b.params = a.params;
    b.band = std::max(a.tlen, a.qlen) + 1;  // covers the whole matrix
    b.with_cigar = a.with_cigar;
    return banded_global_align(b);
  }
  return reference_align(a);
}

}  // namespace

AlignResult align_with_fallback(const DiffArgs& args, KernelFn primary, Layout layout,
                                FallbackOutcome* outcome, const FallbackPolicy& policy) {
  u32 failed = 0;
  auto record = [&](u32 rung) {
    if (outcome != nullptr) {
      outcome->rung = rung;
      outcome->failed_attempts = failed;
    }
  };
  auto attempt = [&](u32 rung, auto&& fn) -> std::optional<AlignResult> {
    for (u32 t = 0; t <= policy.retries_per_rung; ++t) {
      try {
        AlignResult r = fn();
        record(rung);
        return r;
      } catch (const BandHitError&) {
        // Not a compute failure: the band was too narrow, and every rung
        // would hit it identically. Band policy (rerun unbanded) belongs to
        // the caller, so propagate instead of climbing the ladder.
        throw;
      } catch (const std::exception&) {
        ++failed;
      }
    }
    return std::nullopt;
  };

  if (primary != nullptr) {
    if (auto r = attempt(0, [&] { return primary(args); })) return std::move(*r);
  }
  KernelFn scalar = get_diff_kernel(layout, Isa::kScalar);
  if (scalar != nullptr && scalar != primary) {
    if (auto r = attempt(1, [&] { return scalar(args); })) return std::move(*r);
  }
  // Last rung: no retry loop — let any failure propagate to the caller.
  AlignResult r = run_banded_reference(args);
  record(2);
  return r;
}

}  // namespace manymap
