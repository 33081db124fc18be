// Outside-in tracing for the per-layer run: spans recorded around the
// calls the benchmark makes into each layer, and a DP hook installed
// through MapCall::kernel_override that times every kernel call the mapper
// makes while keeping the production fallback ladder.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "align/fallback.hpp"
#include "core/options.hpp"

namespace perfbench {

using manymap::i64;
using manymap::u64;

i64 now_ns();

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span, -1 for a root.
struct Span {
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  int parent = -1;
  u64 request = 0;
};

/// In-memory span store; written out once the run ends.
class Tracer {
 public:
  int begin(const char* name, int parent, u64 request);
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Record an interval measured elsewhere (e.g. from a due time).
  void add(const char* name, i64 start_ns, i64 end_ns, int parent, u64 request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  }

  /// Total duration of the spans called `name`, in seconds.
  double total_s(std::string_view name) const;
  /// Duration of the spans called `name` minus the time their direct
  /// children cover, in seconds.
  double self_s(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }
  void write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Gap fills are split into size classes by their matrix size tlen*qlen.
enum SizeClass { kLt1k, kLt100k, kGe100k, kSizeClasses };
const char* size_class_name(int c);

struct CallStats {
  u64 calls = 0;
  u64 cells = 0;
  double seconds = 0.0;
};

/// What the DP hook saw. Every field but the seconds must repeat exactly
/// for the same reads and index.
struct DpStats {
  CallStats ext;                      ///< AlignMode::kExtension calls
  CallStats gapfill;                  ///< AlignMode::kGlobal calls
  CallStats gap_class[kSizeClasses];  ///< gapfill split by size class
  u64 banded_calls = 0;    ///< calls that arrived with band > 0
  u64 band_hits = 0;       ///< banded answers discarded (band_hit flag or BandHitError)
  u64 wasted_cells = 0;    ///< cells of the discarded banded answers
  u64 ladder_retries = 0;  ///< failed fallback-ladder attempts absorbed
  u64 hooked_cells() const { return ext.cells + gapfill.cells; }
};

/// The MapCall::kernel_override used by the traced pass. It re-enters
/// align_with_fallback with the kernel the mapper would dispatch, so the
/// ladder still runs; a band-hit rerun stays in Mapper::run_kernel and
/// shows up here as a second call.
class DpHook {
 public:
  DpHook(const manymap::MapOptions& opt, Tracer& tracer);
  DpHook(const DpHook&) = delete;
  DpHook& operator=(const DpHook&) = delete;

  /// Parent span and request id for the calls that follow.
  void set_parent(int span, u64 request) {
    parent_ = span;
    request_ = request;
  }
  const std::function<manymap::AlignResult(const manymap::DiffArgs&)>* fn() const {
    return &fn_;
  }
  const DpStats& stats() const { return stats_; }

 private:
  manymap::AlignResult call(const manymap::DiffArgs& a);

  manymap::KernelFn kernel_;
  manymap::Layout layout_;
  Tracer& tracer_;
  int parent_ = -1;
  u64 request_ = 0;
  DpStats stats_;
  std::function<manymap::AlignResult(const manymap::DiffArgs&)> fn_;
};

}  // namespace perfbench
