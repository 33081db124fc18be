#include "align/diff_common.hpp"

#include "fault/fault.hpp"

namespace manymap {

const char* to_string(Layout layout) {
  switch (layout) {
    case Layout::kMinimap2: return "minimap2";
    case Layout::kManymap: return "manymap";
  }
  return "?";
}

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

const char* to_string(AlignMode mode) {
  switch (mode) {
    case AlignMode::kGlobal: return "global";
    case AlignMode::kExtension: return "extension";
  }
  return "?";
}

namespace detail {

DpAllocStats& dp_alloc_stats() {
  static thread_local DpAllocStats stats;
  return stats;
}

void check_dp_alloc(u64 bytes) {
  DpAllocStats& s = dp_alloc_stats();
  ++s.calls;
  s.bytes += bytes;
  MM_INJECT("align.dp.alloc");
}

DirsSpillStats& dirs_spill_stats() {
  static thread_local DirsSpillStats stats;
  return stats;
}

void check_dirs_spill(u64 bytes) {
  DirsSpillStats& s = dirs_spill_stats();
  ++s.blocks;
  s.bytes += bytes;
  MM_INJECT("align.dirs.spill");
}

Cigar backtrack(const u8* dirs, const u64* diag_off, i32 tlen, i32 qlen, i32 i_end,
                i32 j_end, i32 band, Cigar into) {
  if (band > 0)
    return backtrack_cells(
        [&](i32 i, i32 j) -> u8 {
          return check_banded_dir(dirs[diag_off[static_cast<std::size_t>(i + j)] +
                                       banded_row_index(i, j, tlen, qlen, band)]);
        },
        i_end, j_end, std::move(into));
  return backtrack_cells(
      [&](i32 i, i32 j) -> u8 {
        const i32 r = i + j;
        return dirs[diag_off[static_cast<std::size_t>(r)] +
                    static_cast<u64>(i - diag_start(r, qlen))];
      },
      i_end, j_end, std::move(into));
}

Cigar backtrack_ws(const DiffWorkspace& ws, i32 tlen, i32 qlen, i32 i_end, i32 j_end,
                   i32 band) {
  Cigar into = take_path(ws);
  if (ws.stream == nullptr)
    return backtrack(ws.dirs, ws.diag_off, tlen, qlen, i_end, j_end, band, std::move(into));
  DirsStream& s = *ws.stream;
  s.seal();
  // Nothing spilled: the block holds the whole dirs area at its diag_off
  // offsets, so the resident walk applies unchanged.
  if (s.in_memory())
    return backtrack(s.block, ws.diag_off, tlen, qlen, i_end, j_end, band, std::move(into));
  if (band > 0)
    return backtrack_cells([&s](i32 i, i32 j) { return check_banded_dir(s.at(i, j)); },
                           i_end, j_end, std::move(into));
  return backtrack_cells([&s](i32 i, i32 j) { return s.at(i, j); }, i_end, j_end,
                         std::move(into));
}

bool handle_degenerate(const DiffArgs& a, AlignResult& out) {
  if (a.tlen > 0 && a.qlen > 0) return false;
  out = AlignResult{};
  out.cells = 0;
  if (a.mode == AlignMode::kExtension) {
    out.score = 0;  // stop immediately; free ends
    return true;
  }
  // Global: one sequence is empty -> the other is a pure gap.
  const i32 n = a.tlen > 0 ? a.tlen : a.qlen;
  if (n == 0) {
    out.score = 0;
    return true;
  }
  out.score = -(static_cast<i64>(a.params.gap_open) +
                static_cast<i64>(n) * a.params.gap_ext);
  out.t_end = a.tlen - 1;
  out.q_end = a.qlen - 1;
  if (a.with_cigar) out.cigar.push(a.tlen > 0 ? 'D' : 'I', static_cast<u32>(n));
  return true;
}

}  // namespace detail
}  // namespace manymap
