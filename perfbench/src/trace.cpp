#include "trace.hpp"

#include <chrono>
#include <exception>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using namespace manymap;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char* name, int parent, u64 request) {
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::total_s(std::string_view name) const {
  i64 ns = 0;
  for (const auto& s : spans_)
    if (name == s.name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(std::string_view name) const {
  i64 ns = 0;
  for (const auto& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
    if (s.parent >= 0 && name == spans_[static_cast<std::size_t>(s.parent)].name)
      ns -= s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
        << '\t' << s.request << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

const char* size_class_name(int c) {
  static const char* const kNames[kSizeClasses] = {"lt1k", "lt100k", "ge100k"};
  return kNames[c];
}

DpHook::DpHook(const MapOptions& opt, Tracer& tracer)
    : kernel_(get_diff_kernel(opt.layout, opt.isa)),
      layout_(opt.layout),
      tracer_(tracer),
      fn_([this](const DiffArgs& a) { return call(a); }) {
  if (kernel_ == nullptr) throw std::runtime_error("configured kernel unavailable");
}

AlignResult DpHook::call(const DiffArgs& a) {
  const bool ext = a.mode == AlignMode::kExtension;
  const int span = tracer_.begin(ext ? "align.ext" : "align.gapfill", parent_, request_);
  const i64 t0 = now_ns();
  FallbackOutcome outcome;
  AlignResult r;
  std::exception_ptr band_hit_error;
  try {
    r = align_with_fallback(a, kernel_, layout_, &outcome);
  } catch (const BandHitError&) {
    // The mapper reruns the call unbanded. The kernel reports no cells for
    // the thrown attempt, so none are counted here or in MapTimings.
    band_hit_error = std::current_exception();
  }
  const bool thrown = band_hit_error != nullptr;
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  tracer_.end(span);

  auto add = [&](CallStats& c) {
    ++c.calls;
    c.cells += r.cells;
    c.seconds += seconds;
  };
  add(ext ? stats_.ext : stats_.gapfill);
  if (!ext) {
    const u64 area = static_cast<u64>(a.tlen) * static_cast<u64>(a.qlen);
    add(stats_.gap_class[area < 1'000 ? kLt1k : area < 100'000 ? kLt100k : kGe100k]);
  }
  stats_.ladder_retries += outcome.failed_attempts;
  if (a.band > 0) {
    ++stats_.banded_calls;
    if (thrown || r.band_hit) {
      ++stats_.band_hits;
      stats_.wasted_cells += r.cells;
    }
  }
  if (thrown) std::rethrow_exception(band_hit_error);
  return r;
}

}  // namespace perfbench
