#include "align/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>

#include "align/diff_common.hpp"
#include "align/dirs_spill.hpp"

namespace manymap {
namespace detail {

namespace {

/// DP row length (tlen plus the vector-overrun pad).
inline std::size_t row_size(i32 tlen) {
  return static_cast<std::size_t>(tlen) + kLanePad;
}

/// v/x slot count: the manymap layout indexes by t' = t - r + qlen, which
/// spans [?, qlen]; the minimap2 layout indexes by t. The manymap rows get
/// a second pad because the strip kernel uses them as its carry rows,
/// offset by kLanePad (align/diff_strip_avx512.cpp).
inline std::size_t vx_size(i32 tlen, i32 qlen, bool manymap_layout) {
  return manymap_layout ? static_cast<std::size_t>(qlen) + 1 + 2 * kLanePad
                        : static_cast<std::size_t>(tlen) + kLanePad;
}

}  // namespace

u64 KernelArena::dirs_footprint(i32 tlen, i32 qlen, i32 band) {
  // tlen*qlen trapezoid cells plus kLanePad tail per diagonal row, so a
  // full-width vector store at any row's last cell stays inside the row.
  // band > 0 caps every row at the static band width (an upper bound on
  // the banded layout; refresh_diag_off packs the exact per-row widths).
  const u64 ndiag = static_cast<u64>(tlen) + static_cast<u64>(qlen) - 1;
  u64 max_row = static_cast<u64>(tlen < qlen ? tlen : qlen);
  if (band > 0 && 2 * static_cast<u64>(band) + 1 < max_row)
    max_row = 2 * static_cast<u64>(band) + 1;
  const u64 full = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  const u64 cells = ndiag * max_row < full ? ndiag * max_row : full;
  const u64 padded = cells + ndiag * kLanePad;
  // Unbanded calls may take the strip layout, which exceeds the padded
  // rows by up to ~4 KiB on small pairs.
  return band > 0 ? padded : std::max(padded, strip_dirs_bytes(tlen, qlen));
}

u64 KernelArena::strip_dirs_bytes(i32 tlen, i32 qlen) {
  const u64 strips = (static_cast<u64>(tlen) + kLanePad - 1) / kLanePad;
  return strips * strip_dirs_stride(qlen) + kLanePad;
}

u64 KernelArena::stream_block_bytes(i32 tlen, i32 qlen, i32 block_rows, i32 band) {
  // Every padded row is at most min(|T|,|Q|) + kLanePad bytes (the band
  // width when banded); the block must hold at least one so any single
  // row always fits.
  u64 max_row = static_cast<u64>(tlen < qlen ? tlen : qlen);
  if (band > 0 && 2 * static_cast<u64>(band) + 1 < max_row)
    max_row = 2 * static_cast<u64>(band) + 1;
  max_row += kLanePad;
  u64 cap;
  if (block_rows <= 0) {
    constexpr u64 kDefaultBlockBytes = u64{8} << 20;
    cap = kDefaultBlockBytes > max_row ? kDefaultBlockBytes : max_row;
  } else {
    cap = static_cast<u64>(block_rows) * max_row;
  }
  const u64 total = dirs_footprint(tlen, qlen, band);
  return cap < total ? cap : total;
}

void KernelArena::refresh_diag_off(i32 tlen, i32 qlen, i32 band) {
  if (off_tlen_ == tlen && off_qlen_ == qlen && off_band_ == band) return;
  u64 off = 0;
  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    diag_off_[static_cast<std::size_t>(r)] = off;
    i32 lo, hi;
    banded_bounds(r, tlen, qlen, band, &lo, &hi);
    off += static_cast<u64>(hi - lo + 1) + kLanePad;
  }
  // Sentinel: diag_off[ndiag] = total bytes, so row sizes are differences.
  diag_off_[static_cast<std::size_t>(tlen + qlen - 1)] = off;
  off_tlen_ = tlen;
  off_qlen_ = qlen;
  off_band_ = band;
}

void KernelArena::copy_sequences(const u8* target, i32 tlen, const u8* query, i32 qlen) {
  // Only the valid prefixes: pad bytes around them are read exclusively by
  // dead vector lanes, whose results never reach a live cell.
  std::memcpy(tp_.data(), target, static_cast<std::size_t>(tlen));
  u8* qr = qr_.data() + kLanePad;
  for (i32 j = 0; j < qlen; ++j) qr[qlen - 1 - j] = query[j];
}

void KernelArena::reserve_diff(const DiffArgs& a, bool manymap_layout, bool twopiece,
                               bool strips) {
  const std::size_t un = strips ? 0 : row_size(a.tlen);  // strips keep U/Y in registers
  const std::size_t vn = vx_size(a.tlen, a.qlen, manymap_layout);
  const std::size_t tn = row_size(a.tlen);
  // The reversed query is padded on both sides: the strip kernel's query
  // loads run up to kLanePad - 1 bytes before it.
  const std::size_t qn = static_cast<std::size_t>(a.qlen) + 2 * kLanePad;
  // Streaming path mode only keeps one fixed-size block resident; the
  // spill sink owns everything else.
  const std::size_t dn =
      !a.with_cigar ? 0
      : strips      ? static_cast<std::size_t>(strip_dirs_bytes(a.tlen, a.qlen))
      : a.spill != nullptr
          ? static_cast<std::size_t>(
                stream_block_bytes(a.tlen, a.qlen, a.spill_block_rows, a.band))
          : static_cast<std::size_t>(dirs_footprint(a.tlen, a.qlen, a.band));
  const std::size_t on = a.with_cigar && !strips ? static_cast<std::size_t>(a.tlen) +
                                                         static_cast<std::size_t>(a.qlen)
                                                   : 0;
  // Strip border rows: a full-strip store of u at each strip's first row,
  // and one byte per diagonal of the last strip, kLanePad in.
  const std::size_t cn = strips ? row_size(a.tlen) : 0;
  const std::size_t bn = strips ? static_cast<std::size_t>(a.qlen) + 2 * kLanePad : 0;

  u64 need = deficit(u_, un) + deficit(y_, un) + deficit(v_, vn) + deficit(x_, vn) +
             deficit(tp_, tn) + deficit(qr_, qn) + deficit(dirs_, dn) +
             deficit(diag_off_, on) + deficit(last_col_, cn) + deficit(bottom_row_, bn);
  if (twopiece) need += deficit(y2_, un) + deficit(x2_, vn);
  if (need == 0) return;

  // Single hook call with the full deficit BEFORE any resize: if the fault
  // site throws, the arena is untouched and a retry re-attempts the exact
  // same growth deterministically.
  check_dp_alloc(need);
  grow(u_, un);
  grow(y_, un);
  grow(v_, vn);
  grow(x_, vn);
  if (twopiece) {
    grow(y2_, un);
    grow(x2_, vn);
  }
  grow(tp_, tn);
  grow(qr_, qn);
  grow(dirs_, dn);
  grow(diag_off_, on);
  grow(last_col_, cn);
  grow(bottom_row_, bn);
}

DiffWorkspace KernelArena::prepare_diff(const DiffArgs& a, bool manymap_layout) {
  reserve_diff(a, manymap_layout, /*twopiece=*/false);
  copy_sequences(a.target, a.tlen, a.query, a.qlen);
  DiffWorkspace ws;
  ws.U = u_.data();
  ws.Y = y_.data();
  ws.V = v_.data();
  ws.X = x_.data();
  ws.tp = tp_.data();
  ws.qr = qr_.data() + kLanePad;
  ws.path = &path_;
  if (a.with_cigar) {
    refresh_diag_off(a.tlen, a.qlen, a.band);
    ws.diag_off = diag_off_.data();
    if (a.spill != nullptr)
      ws.stream = init_stream(a.tlen, a.qlen, a.spill, a.spill_block_rows, a.band);
    else
      ws.dirs = dirs_.data();
  }
  return ws;
}

DiffWorkspace KernelArena::prepare_strips(const DiffArgs& a) {
  reserve_diff(a, /*manymap_layout=*/true, /*twopiece=*/false, /*strips=*/true);
  copy_sequences(a.target, a.tlen, a.query, a.qlen);
  DiffWorkspace ws;
  ws.V = v_.data();
  ws.X = x_.data();
  ws.tp = tp_.data();
  ws.qr = qr_.data() + kLanePad;
  ws.path = &path_;
  ws.last_col = last_col_.data();
  ws.bottom_row = bottom_row_.data() + kLanePad;
  if (a.with_cigar) {  // 64-byte aligned, so every diagonal is one cache line
    const auto base = reinterpret_cast<std::uintptr_t>(dirs_.data());
    ws.dirs = dirs_.data() + ((kLanePad - base % kLanePad) % kLanePad);
  }
  return ws;
}

TwoPieceWorkspace KernelArena::prepare_twopiece(const TwoPieceArgs& a, bool manymap_layout) {
  DiffArgs sized;
  sized.target = a.target;
  sized.tlen = a.tlen;
  sized.query = a.query;
  sized.qlen = a.qlen;
  sized.with_cigar = a.with_cigar;
  sized.spill = a.spill;
  sized.spill_block_rows = a.spill_block_rows;
  sized.band = a.band;
  reserve_diff(sized, manymap_layout, /*twopiece=*/true);
  copy_sequences(a.target, a.tlen, a.query, a.qlen);
  TwoPieceWorkspace ws;
  ws.U = u_.data();
  ws.Y1 = y_.data();
  ws.Y2 = y2_.data();
  ws.V = v_.data();
  ws.X1 = x_.data();
  ws.X2 = x2_.data();
  ws.tp = tp_.data();
  ws.qr = qr_.data() + kLanePad;
  if (a.with_cigar) {
    refresh_diag_off(a.tlen, a.qlen, a.band);
    ws.diag_off = diag_off_.data();
    if (a.spill != nullptr)
      ws.stream = init_stream(a.tlen, a.qlen, a.spill, a.spill_block_rows, a.band);
    else
      ws.dirs = dirs_.data();
  }
  return ws;
}

DirsStream* KernelArena::init_stream(i32 tlen, i32 qlen, DirsSpill* spill,
                                     i32 block_rows, i32 band) {
  stream_ = DirsStream{};
  stream_.sink = spill;
  stream_.block = dirs_.data();
  stream_.block_cap = stream_block_bytes(tlen, qlen, block_rows, band);
  stream_.diag_off = diag_off_.data();
  stream_.ndiag = tlen + qlen - 1;
  stream_.tlen = tlen;
  stream_.qlen = qlen;
  stream_.band = band;
  return &stream_;
}

u64 KernelArena::reserved_bytes() const {
  return u_.size() + y_.size() + y2_.size() + v_.size() + x_.size() + x2_.size() +
         last_col_.size() + bottom_row_.size() + tp_.size() + qr_.size() + dirs_.size() +
         diag_off_.size() * sizeof(u64);
}

void KernelArena::poison(u8 byte) {
  const i8 sbyte = static_cast<i8>(byte);
  for (auto* b : {&u_, &y_, &y2_, &v_, &x_, &x2_, &last_col_, &bottom_row_})
    std::fill(b->begin(), b->end(), sbyte);
  std::fill(tp_.begin(), tp_.end(), byte);
  std::fill(qr_.begin(), qr_.end(), byte);
  std::fill(dirs_.begin(), dirs_.end(), byte);
  u64 pattern = 0;
  for (int i = 0; i < 8; ++i) pattern = (pattern << 8) | byte;
  std::fill(diag_off_.begin(), diag_off_.end(), pattern);
  off_tlen_ = off_qlen_ = -1;  // diag_off content is now garbage
}

void KernelArena::release() {
  for (auto* b : {&u_, &y_, &y2_, &v_, &x_, &x2_, &last_col_, &bottom_row_}) {
    b->clear();
    b->shrink_to_fit();
  }
  for (auto* b : {&tp_, &qr_, &dirs_}) {
    b->clear();
    b->shrink_to_fit();
  }
  diag_off_.clear();
  diag_off_.shrink_to_fit();
  off_tlen_ = off_qlen_ = -1;
  path_ = Cigar{};
}

u64 KernelArena::trim(u64 max_bytes) {
  u64 reserved = reserved_bytes();
  if (reserved <= max_bytes) return 0;
  const u64 start = reserved;

  // Candidate buffers largest-first. dirs dominates after a path-mode
  // call; the DP rows and sequence copies follow. diag_off goes last so
  // its (tlen, qlen) cache survives small trims.
  struct Victim {
    u64 bytes;
    std::function<void()> drop;
  };
  std::vector<Victim> victims;
  auto add = [&victims](auto& buf) {
    using Buf = std::remove_reference_t<decltype(buf)>;
    const u64 bytes = buf.size() * sizeof(typename Buf::value_type);
    if (bytes > 0)
      victims.push_back({bytes, [&buf] {
                           buf.clear();
                           buf.shrink_to_fit();
                         }});
  };
  add(dirs_);
  for (auto* b : {&u_, &y_, &y2_, &v_, &x_, &x2_, &last_col_, &bottom_row_}) add(*b);
  add(tp_);
  add(qr_);
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.bytes > b.bytes; });
  for (Victim& v : victims) {
    if (reserved <= max_bytes) break;
    v.drop();
    reserved -= v.bytes;
  }
  if (reserved > max_bytes && !diag_off_.empty()) {
    reserved -= diag_off_.size() * sizeof(u64);
    diag_off_.clear();
    diag_off_.shrink_to_fit();
    off_tlen_ = off_qlen_ = -1;
  }
  return start - reserved;
}

KernelArena& KernelArena::for_thread() {
  static thread_local KernelArena arena;
  return arena;
}

u8* DirsStream::row(i32 r) {
  const u64 off = diag_off[static_cast<std::size_t>(r)];
  const u64 len = diag_off[static_cast<std::size_t>(r) + 1] - off;
  if (fill + len > block_cap) flush();
  // Rows arrive in diagonal order, so after any flush the cursor is
  // exactly at this row's absolute offset.
  u8* p = block + fill;
  fill += len;
  return p;
}

void DirsStream::flush() {
  if (fill == 0) return;
  check_dirs_spill(fill);
  sink->write(base_off, block, fill);
  ++spill_blocks;
  spill_bytes += fill;
  base_off += fill;
  fill = 0;
}

void DirsStream::seal() {
  // If nothing spilled, the whole dirs area is resident in `block` and
  // backtrack runs in place; otherwise the tail joins the sink so the
  // read window sees a complete area.
  if (spill_blocks != 0) flush();
  win_lo = 0;
  win_hi = -1;
}

void DirsStream::load_ending_at(i32 r) {
  // Greedily extend the window downward from r: the backtrack walk's
  // diagonal never increases, so rows above r are dead.
  i32 lo = r;
  const u64 end = diag_off[static_cast<std::size_t>(r) + 1];
  while (lo > 0 && end - diag_off[static_cast<std::size_t>(lo) - 1] <= block_cap)
    --lo;
  const u64 beg = diag_off[static_cast<std::size_t>(lo)];
  sink->read(beg, block, end - beg);
  win_lo = lo;
  win_hi = r;
}

u8 DirsStream::at(i32 i, i32 j) {
  const i32 r = i + j;
  const u64 idx = band > 0 ? banded_row_index(i, j, tlen, qlen, band)
                           : static_cast<u64>(i - diag_start(r, qlen));
  if (r < win_lo || r > win_hi) load_ending_at(r);
  return block[diag_off[static_cast<std::size_t>(r)] -
               diag_off[static_cast<std::size_t>(win_lo)] + idx];
}

}  // namespace detail
}  // namespace manymap
