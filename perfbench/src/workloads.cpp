#include "workloads.hpp"

#include <algorithm>
#include <iterator>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "base/random.hpp"
#include "base/timer.hpp"
#include "chain/anchor.hpp"
#include "chain/chain.hpp"
#include "core/accuracy.hpp"
#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "index/minimizer.hpp"
#include "sequence/fasta.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace manymap;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per trace-0 run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Traced single-thread passes; their counters must agree exactly.
constexpr int kTracedPasses = 2;
/// A paced run whose median send is later than this has fallen behind its
/// schedule and is invalid. Rarer stalls are not: latency runs from the
/// due time, so the wait they impose is already measured.
constexpr double kMaxLateMsP50 = 1.0;
/// Client polling period for completed responses.
constexpr auto kPollPeriod = std::chrono::microseconds(100);

// ---------------------------------------------------------------------------
// Small statistics helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p`, lowered to the highest percentile that
/// still has at least ten samples beyond it when the sample is small.
struct Percentile {
  double value = 0.0;
  double p = 0.0;  ///< the percentile actually reported
  std::size_t n = 0;
};

Percentile tail_percentile(std::vector<double> v, double p) {
  Percentile out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  out.p = std::min(p, std::max(0.0, 1.0 - 10.0 / n));
  const auto rank = static_cast<std::size_t>(std::ceil(out.p * n));
  out.value = v[rank == 0 ? 0 : rank - 1];
  return out;
}

i64 to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Process memory: VmHWM reset through /proc/self/clear_refs ("5").

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
    std::getline(f, key);
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::size_t thread_count() {
  using std::filesystem::directory_iterator;
  return static_cast<std::size_t>(
      std::distance(directory_iterator("/proc/self/task"), directory_iterator{}));
}

// ---------------------------------------------------------------------------
// Set-up: reference FASTA parse + service start with an async index load.

struct Setup {
  std::unique_ptr<Reference> ref;  // declared first: outlives the service
  std::unique_ptr<AlignmentService> svc;
  double total_s = 0.0;
};

Setup start_service(const DataFiles& files, const MapOptions& map) {
  Setup s;
  WallTimer t;
  s.ref = std::make_unique<Reference>();
  for (auto& c : read_sequence_file(files.ref_fa)) s.ref->add(std::move(c));
  ServiceConfig cfg;
  cfg.map = map;
  cfg.shards = 1;
  cfg.workers_per_shard = kWorkers;
  cfg.index.load_path = files.index_mmi;
  s.svc = std::make_unique<AlignmentService>(*s.ref, cfg);
  if (!s.svc->wait_until_ready(std::chrono::seconds(120)))
    throw std::runtime_error("service index did not become ready");
  s.total_s = t.seconds();
  return s;
}

// ---------------------------------------------------------------------------
// Service clients

u64 total_bases(const std::vector<Sequence>& reads) {
  u64 n = 0;
  for (const auto& r : reads) n += r.size();
  return n;
}

/// What the client keeps of one response.
struct Resp {
  u32 read = 0;  ///< index of the read in reads.fq
  RequestStatus status = RequestStatus::kOk;
  std::string paf;
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  u64 batch_id = 0;
  double latency_ms = 0.0;  ///< due time -> response observed by the client
  i64 due_ns = 0;
  i64 seen_ns = 0;
};

/// How the client sends. Closed loop (rate == 0): every read once, at most
/// `window` outstanding, each sent with submit_wait as soon as a slot
/// frees. Open loop: Poisson arrivals at `rate` req/s for `seconds`,
/// cycling through the reads, sent with the non-blocking submit (a full
/// ingress answers kRejected).
struct Load {
  std::size_t window = 0;
  double rate = 0.0;
  double seconds = 0.0;
  u64 seed = 0;
};

struct Driven {
  std::vector<Resp> resps;
  std::vector<double> late_ms;  ///< open loop: how late each send was
  double wall_s = 0.0;          ///< first due time -> last response observed
  u64 ok_bases = 0;
  std::size_t paf_bytes = 0;    ///< size of the rendered PAF output
};

/// The one client thread. A request is due when its slot frees (closed)
/// or at its arrival time (open); completed futures are polled every
/// kPollPeriod, and latency runs from the due time to that observation.
Driven drive(AlignmentService& svc, const std::vector<Sequence>& reads, const Load& load,
             u64 first_id, Tracer* tracer) {
  struct Outstanding {
    u32 read;
    Clock::time_point due;
    std::future<MapResponse> fut;
  };
  const bool open = load.rate > 0.0;
  Rng arrivals(load.seed ^ 0x5eedA11CEull);
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - arrivals.uniform01()) / load.rate));
  };
  const auto t0 = Clock::now() + std::chrono::milliseconds(open ? 1 : 0);
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(load.seconds));
  auto next_due = open ? t0 + gap() : t0;
  bool sending = !reads.empty() && (!open || next_due < t_end);
  u64 sent = 0;
  Clock::time_point last_seen = t0;
  std::vector<Outstanding> out;
  std::string paf;
  Driven d;
  for (;;) {
    auto now = Clock::now();
    if (sending && (open ? next_due <= now : out.size() < load.window)) {
      const u32 read = static_cast<u32>(sent % reads.size());
      MapRequest rq;
      rq.id = first_id + sent;
      rq.read = reads[read];
      const auto due = open ? next_due : now;
      out.push_back(Outstanding{read, due, open ? svc.submit(std::move(rq))
                                                : svc.submit_wait(std::move(rq))});
      ++sent;
      if (open) {
        d.late_ms.push_back(ms_between(due, Clock::now()));
        next_due += gap();
        sending = next_due < t_end;
      } else {
        sending = sent < reads.size();
      }
      continue;
    }
    for (std::size_t i = 0; i < out.size();) {
      if (out[i].fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      MapResponse r = out[i].fut.get();
      Resp k;
      k.read = out[i].read;
      k.status = r.status;
      k.queue_ms = r.queue_ms;
      k.compute_ms = r.compute_ms;
      k.batch_id = r.batch_id;
      k.latency_ms = ms_between(out[i].due, now);
      k.due_ns = to_ns(out[i].due);
      k.seen_ns = to_ns(now);
      if (r.status == RequestStatus::kOk) {
        d.ok_bases += reads[k.read].size();
        paf += r.paf;
      }
      k.paf = std::move(r.paf);
      if (tracer != nullptr) tracer->add("service.request", k.due_ns, k.seen_ns, -1, r.id);
      d.resps.push_back(std::move(k));
      last_seen = now;
      out[i] = std::move(out.back());
      out.pop_back();
    }
    if (!sending && out.empty()) break;
    auto wake = now + kPollPeriod;
    if (sending && open) wake = std::min(wake, next_due);
    std::this_thread::sleep_until(wake);
  }
  d.wall_s = std::chrono::duration<double>(last_seen - t0).count();
  d.paf_bytes = paf.size();
  return d;
}

Load closed_loop(const AlignmentService& svc) {
  Load l;
  l.window = svc.config().ingress_capacity;
  return l;
}

Load open_loop(double rate, double seconds, u64 seed) {
  Load l;
  l.rate = rate;
  l.seconds = seconds;
  l.seed = seed;
  return l;
}

/// One offline job: parse the FASTQ, send every read closed-loop with a
/// window of the ingress capacity, collect the responses and render PAF.
struct Job {
  double wall_s = 0.0;
  u64 bases = 0;
  Driven d;
};

Job run_job(AlignmentService& svc, const std::string& reads_fq, u64 first_id) {
  Job j;
  WallTimer t;
  const auto reads = read_sequence_file(reads_fq);
  j.bases = total_bases(reads);
  j.d = drive(svc, reads, closed_loop(svc), first_id, nullptr);
  j.wall_s = t.seconds();
  return j;
}

// ---------------------------------------------------------------------------
// Serial replay and the correctness gates

struct Serial {
  std::vector<std::string> paf;
  std::vector<std::vector<Mapping>> maps;
  MapTimings timings;
  double wall_s = 0.0;
};

/// Plain single-thread Mapper::map + to_paf_block loop (the reference
/// output every other path must reproduce byte for byte).
Serial serial_pass(const Mapper& mapper, const std::vector<Sequence>& reads) {
  Serial s;
  s.paf.reserve(reads.size());
  s.maps.reserve(reads.size());
  WallTimer t;
  for (const auto& read : reads) {
    MapCall call;
    call.timings = &s.timings;
    auto ms = mapper.map(read, call);
    s.paf.push_back(to_paf_block(ms, false));
    s.maps.push_back(std::move(ms));
  }
  s.wall_s = t.seconds();
  return s;
}

/// Self-test hook: flip one bit of the first non-empty PAF block.
void corrupt_first(std::vector<std::string*> pafs) {
  for (std::string* p : pafs)
    if (!p->empty()) {
      (*p)[0] = static_cast<char>((*p)[0] ^ 1);
      return;
    }
}

/// The same replay split over `threads` threads (each read still goes
/// through one plain Mapper::map call), to keep the gate short.
Serial parallel_replay(const Mapper& mapper, const std::vector<Sequence>& reads,
                       unsigned threads) {
  Serial s;
  s.paf.resize(reads.size());
  s.maps.resize(reads.size());
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        try {
          for (std::size_t i = t; i < reads.size(); i += threads) {
            s.maps[i] = mapper.map(reads[i]);
            s.paf[i] = to_paf_block(s.maps[i], false);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return s;
}

/// Every kOk response must carry exactly the serial replay's PAF.
std::string check_responses(std::vector<Resp>& resps, const Serial& serial, bool corrupt) {
  if (corrupt) {
    std::vector<std::string*> pafs;
    for (auto& r : resps)
      if (r.status == RequestStatus::kOk) pafs.push_back(&r.paf);
    corrupt_first(pafs);
  }
  for (const auto& r : resps) {
    if (r.status != RequestStatus::kOk) continue;
    if (r.paf != serial.paf[r.read])
      return "service PAF for read " + std::to_string(r.read) +
             " differs from the serial Mapper::map replay";
  }
  return {};
}

AccuracyReport accuracy(const Serial& serial, const std::vector<TruthRecord>& truth) {
  std::vector<SimulatedRead> sims(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) sims[i].truth = truth[i];
  return score_accuracy(serial.maps, sims);
}

/// Base-weighted identity of the primary mappings: matches / alignment
/// columns, the PAF column 10 / column 11 ratio a user reads.
double primary_identity(const Serial& serial) {
  u64 matches = 0;
  u64 columns = 0;
  for (const auto& ms : serial.maps)
    for (const auto& m : ms)
      if (m.primary) {
        matches += m.matches;
        columns += m.align_length;
        break;
      }
  return columns == 0 ? 0.0 : static_cast<double>(matches) / static_cast<double>(columns);
}

u64 count_failed(const std::vector<Resp>& resps) {
  return static_cast<u64>(std::count_if(resps.begin(), resps.end(), [](const Resp& r) {
    return r.status != RequestStatus::kOk;
  }));
}

u64 count_status(const std::vector<Resp>& resps, RequestStatus s) {
  return static_cast<u64>(
      std::count_if(resps.begin(), resps.end(), [s](const Resp& r) { return r.status == s; }));
}

// ---------------------------------------------------------------------------
// Traced single-thread pass

struct TracedPass {
  Tracer tracer;
  DpStats dp;
  MapTimings timings;
  u64 minimizers = 0;
  u64 anchors = 0;
  u64 chains = 0;
  std::vector<std::string> paf;
  double wall_s = 0.0;
};

void traced_pass(const Mapper& mapper, const std::vector<Sequence>& reads, TracedPass& out) {
  const MapOptions& opt = mapper.options();
  DpHook hook(opt, out.tracer);
  Tracer& tr = out.tracer;
  out.paf.reserve(reads.size());
  WallTimer t;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const Sequence& read = reads[i];
    const u32 qlen = static_cast<u32>(read.size());
    const int root = tr.begin("read", -1, i);
    if (qlen >= opt.sketch.k) {  // Mapper::map does not seed shorter reads
      int s = tr.begin("index.sketch", root, i);
      const auto mins = sketch(read.codes, 0, opt.sketch);
      tr.end(s);
      s = tr.begin("chain.anchor", root, i);
      const auto anchors = collect_anchors(mapper.index(), mins, qlen, mapper.max_occ());
      tr.end(s);
      s = tr.begin("chain.chain", root, i);
      const auto chains = chain_anchors(anchors, opt.chain);
      tr.end(s);
      out.minimizers += mins.size();
      out.anchors += anchors.size();
      out.chains += chains.size();
    }
    int s = tr.begin("core.map", root, i);
    hook.set_parent(s, i);
    MapCall call;
    call.timings = &out.timings;
    call.kernel_override = hook.fn();
    const auto ms = mapper.map(read, call);
    tr.end(s);
    s = tr.begin("core.paf", root, i);
    out.paf.push_back(to_paf_block(ms, false));
    tr.end(s);
    tr.end(root);
  }
  out.wall_s = t.seconds();
  out.dp = hook.stats();
}

/// The counters of one traced pass that must repeat exactly.
std::vector<std::pair<std::string, u64>> pass_counts(const TracedPass& p) {
  std::vector<std::pair<std::string, u64>> c{
      {"index.minimizers", p.minimizers},
      {"chain.anchors", p.anchors},
      {"chain.chains", p.chains},
      {"align.ext_calls", p.dp.ext.calls},
      {"align.ext_cells", p.dp.ext.cells},
      {"align.gapfill_calls", p.dp.gapfill.calls},
      {"align.gapfill_cells", p.dp.gapfill.cells},
  };
  for (int k = 0; k < kSizeClasses; ++k)
    c.emplace_back(std::string("align.gapfill_") + size_class_name(k) + ".calls",
                   p.dp.gap_class[k].calls);
  c.emplace_back("align.dp_cells", p.timings.dp_cells);
  c.emplace_back("align.unhooked_cells", p.timings.dp_cells - p.dp.hooked_cells());
  c.emplace_back("align.banded_calls", p.dp.banded_calls);
  c.emplace_back("align.band_fallbacks", p.timings.band_fallbacks);
  c.emplace_back("align.wasted_cells", p.dp.wasted_cells);
  c.emplace_back("align.ladder_retries", p.dp.ladder_retries);
  return c;
}

/// The hook and the mapper count the same calls two ways; they must agree.
std::string check_accounting(const TracedPass& p) {
  if (p.dp.hooked_cells() > p.timings.dp_cells)
    return "hooked DP cells exceed MapTimings.dp_cells";
  if (p.dp.banded_calls != p.timings.auto_band_kernels)
    return "hooked banded calls differ from MapTimings.auto_band_kernels";
  if (p.dp.band_hits != p.timings.band_fallbacks)
    return "hooked band hits differ from MapTimings.band_fallbacks";
  return {};
}

// ---------------------------------------------------------------------------
// Runs

struct Context {
  const WorkloadSpec& w;
  const RunOptions& opt;
  DataFiles files;
  MapOptions map;
  std::vector<TruthRecord> truth;
  RunResult res;

  void metric(std::string name, double v, std::string unit) {
    res.metrics.push_back(Metric{std::move(name), v, std::move(unit)});
  }
  void info(std::string name, double v, std::string unit) {
    res.info.push_back(Metric{std::move(name), v, std::move(unit)});
  }
  void note(std::string s) { res.notes.push_back(std::move(s)); }
};

void check_client_threads(Context& c, std::size_t client_threads) {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  c.info("loadgen.client_threads", static_cast<double>(client_threads), "count");
  if (client_threads > nproc && c.res.error.empty())
    c.res.error = "client uses more threads than nproc";
}

/// Trace off: set-up time, throughput or paced latency, accuracy, memory.
void run_end_to_end(Context& c) {
  const std::size_t client_threads = thread_count();
  // peak_rss_mb covers the first set-up and the run. The remaining
  // set-ups come after it: restarting the service in between would leave
  // timing-dependent malloc arenas of the old threads in the peak.
  reset_peak_rss();
  std::vector<double> setups;
  Setup s = start_service(c.files, c.map);
  setups.push_back(s.total_s);
  AlignmentService& svc = *s.svc;

  const auto reads = read_sequence_file(c.files.reads_fq);
  std::vector<Resp> resps;
  double mbp_per_s = 0.0;
  std::vector<double> late_ms;
  if (c.w.shape == Shape::kBatch) {
    run_job(svc, c.files.reads_fq, 0);  // warm-up, untimed
    std::vector<double> rates;
    WallTimer window;
    u64 next_id = 1'000'000;
    std::size_t paf_bytes = 0;
    while (window.seconds() < c.opt.seconds || rates.size() < 3) {
      Job j = run_job(svc, c.files.reads_fq, next_id);
      next_id += j.d.resps.size();
      paf_bytes = j.d.paf_bytes;
      rates.push_back(static_cast<double>(j.bases) / 1e6 / j.wall_s);
      for (auto& r : j.d.resps) resps.push_back(std::move(r));
    }
    mbp_per_s = median(rates);
    c.info("jobs", static_cast<double>(rates.size()), "count");
    c.info("job_paf_bytes", static_cast<double>(paf_bytes), "bytes");
  } else {
    drive(svc, reads, closed_loop(svc), 0, nullptr);  // warm-up, untimed
    Driven d = drive(svc, reads, open_loop(c.w.rate_rps, c.opt.seconds, c.opt.seed),
                     1'000'000, nullptr);
    mbp_per_s = static_cast<double>(d.ok_bases) / 1e6 / d.wall_s;
    late_ms = std::move(d.late_ms);
    resps = std::move(d.resps);
  }
  const double rss = peak_rss_mib();

  // Correctness gate, outside every timed region.
  const Serial serial = parallel_replay(svc.mapper(), reads, kWorkers);
  if (auto e = check_responses(resps, serial, c.opt.corrupt_paf); !e.empty()) c.res.error = e;
  const AccuracyReport acc = accuracy(serial, c.truth);

  for (int i = 1; i < kSetupRepeats; ++i) {
    s.svc.reset();  // the previous service goes before its reference
    s = start_service(c.files, c.map);
    setups.push_back(s.total_s);
  }
  c.metric("setup_s", median(setups), "s");

  std::vector<double> latency;
  for (const auto& r : resps) latency.push_back(r.latency_ms);
  const Percentile p50 = tail_percentile(latency, 0.50);
  const Percentile p99 = tail_percentile(latency, 0.99);
  c.metric("map_mbp_per_s", mbp_per_s, "Mbp/s");
  c.metric("latency_p50_ms", p50.value, "ms");
  c.metric("latency_p99_ms", p99.value, "ms");
  c.metric("identity", primary_identity(serial), "fraction");
  c.metric("peak_rss_mb", rss, "MiB");
  c.res.attempted = resps.size();
  c.res.failed = count_failed(resps);
  c.info("failed_frac",
         resps.empty() ? 0.0 : static_cast<double>(c.res.failed) / resps.size(), "fraction");
  c.info("aligned_frac", acc.aligned_fraction(), "fraction");
  c.info("map_error_rate", acc.error_rate(), "fraction");
  c.info("latency_samples", static_cast<double>(p99.n), "count");
  c.info("latency_tail_percentile", p99.p * 100.0, "%");
  if (c.w.shape == Shape::kPaced) {
    const double late_p50 = tail_percentile(late_ms, 0.50).value;
    c.info("loadgen.rate", c.w.rate_rps, "req/s");
    c.info("loadgen.late_ms_p50", late_p50, "ms");
    c.info("loadgen.late_ms_p99", tail_percentile(late_ms, 0.99).value, "ms");
    check_client_threads(c, client_threads);
    if (late_p50 > kMaxLateMsP50 && c.res.error.empty())
      c.res.error = "invalid run: the generator fell behind (median send " +
                    std::to_string(late_p50) + " ms late)";
  }
}

/// Trace on: layer timings and counters from a traced single-thread pass
/// and a service pass that records each request's client-side span.
void run_per_layer(Context& c) {
  const std::size_t client_threads = thread_count();
  // sequence and index layers, each timed three times (median).
  std::vector<double> ref_parse, fq_parse, load;
  u64 resident = 0;
  for (int i = 0; i < 3; ++i) {
    WallTimer t;
    const auto refs = read_sequence_file(c.files.ref_fa);
    ref_parse.push_back(t.seconds());
    t.reset();
    const auto reads = read_sequence_file(c.files.reads_fq);
    fq_parse.push_back(t.seconds());
    t.reset();
    IndexLoadResult r = try_load_index_mmap(c.files.index_mmi);
    load.push_back(t.seconds());
    if (!r.ok()) throw std::runtime_error("index load failed: " + r.message);
    resident = r.index.memory_bytes();
  }
  c.metric("sequence.fastq_parse_s", median(fq_parse), "s");
  c.metric("sequence.ref_parse_s", median(ref_parse), "s");
  c.metric("index.load_s", median(load), "s");
  c.metric("index.resident_mb", static_cast<double>(resident) / kMiB, "MiB");
  c.metric("index.build_s", read_prep_value(c.files.prep_tsv, "index_build_s"), "s");

  Setup s = start_service(c.files, c.map);
  AlignmentService& svc = *s.svc;
  const Mapper& mapper = svc.mapper();
  const auto reads = read_sequence_file(c.files.reads_fq);
  const double bases = static_cast<double>(total_bases(reads));

  // Warm the thread arena and index pages on a prefix of the reads.
  serial_pass(mapper, {reads.begin(), reads.begin() + std::min<std::size_t>(reads.size(), 300)});
  const Serial serial = serial_pass(mapper, reads);
  std::vector<std::unique_ptr<TracedPass>> passes;
  for (int i = 0; i < kTracedPasses; ++i) {
    passes.push_back(std::make_unique<TracedPass>());
    traced_pass(mapper, reads, *passes.back());
  }

  // Gates: traced PAF == untraced PAF, counters identical across passes,
  // hook and mapper accounting agree.
  if (c.opt.corrupt_paf) {
    std::vector<std::string*> pafs;
    for (auto& paf : passes.front()->paf) pafs.push_back(&paf);
    corrupt_first(pafs);
  }
  const auto counts = pass_counts(*passes.front());
  for (const auto& p : passes) {
    if (p->paf != serial.paf) c.res.error = "traced PAF differs from the untraced PAF";
    if (pass_counts(*p) != counts)
      c.res.error = "a count-valued metric differs between traced passes";
    if (auto e = check_accounting(*p); !e.empty()) c.res.error = e;
  }
  for (const auto& kv : counts) c.res.counts.push_back(kv);

  auto med = [&](auto f) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(f(*p));
    return median(v);
  };
  const TracedPass& p0 = *passes.front();
  const DpStats& dp = p0.dp;
  const double sketch_s = med([](const TracedPass& p) { return p.tracer.total_s("index.sketch"); });
  const double anchor_s = med([](const TracedPass& p) { return p.tracer.total_s("chain.anchor"); });
  const double chain_s = med([](const TracedPass& p) { return p.tracer.total_s("chain.chain"); });
  c.metric("index.sketch_s", sketch_s, "s");
  c.metric("index.minimizers", static_cast<double>(p0.minimizers), "count");
  c.metric("chain.anchor_s", anchor_s, "s");
  c.metric("chain.anchors", static_cast<double>(p0.anchors), "count");
  c.metric("chain.chain_s", chain_s, "s");
  c.metric("chain.chains", static_cast<double>(p0.chains), "count");

  auto ns_per_cell = [](double s, u64 cells) {
    return cells == 0 ? 0.0 : s * 1e9 / static_cast<double>(cells);
  };
  const double ext_s = med([](const TracedPass& p) { return p.dp.ext.seconds; });
  const double gap_s = med([](const TracedPass& p) { return p.dp.gapfill.seconds; });
  c.metric("align.ext_s", ext_s, "s");
  c.metric("align.ext_calls", static_cast<double>(dp.ext.calls), "count");
  c.metric("align.ext_cells", static_cast<double>(dp.ext.cells), "count");
  c.metric("align.ext_ns_per_cell", ns_per_cell(ext_s, dp.ext.cells), "ns");
  c.metric("align.gapfill_s", gap_s, "s");
  c.metric("align.gapfill_calls", static_cast<double>(dp.gapfill.calls), "count");
  c.metric("align.gapfill_cells", static_cast<double>(dp.gapfill.cells), "count");
  c.metric("align.gapfill_ns_per_cell", ns_per_cell(gap_s, dp.gapfill.cells), "ns");
  for (int k = 0; k < kSizeClasses; ++k) {
    const std::string base = std::string("align.gapfill_") + size_class_name(k);
    const double ks = med([k](const TracedPass& p) { return p.dp.gap_class[k].seconds; });
    c.metric(base + ".calls", static_cast<double>(dp.gap_class[k].calls), "count");
    c.metric(base + ".ns_per_cell", ns_per_cell(ks, dp.gap_class[k].cells), "ns");
  }
  const MapTimings& mt = p0.timings;
  const u64 unhooked = mt.dp_cells - dp.hooked_cells();
  const u64 auto_calls = mt.auto_band_kernels + mt.auto_band_full;
  c.metric("align.cells_per_base", static_cast<double>(mt.dp_cells) / bases, "cells/base");
  c.metric("align.unhooked_cells", static_cast<double>(unhooked), "count");
  c.metric("align.banded_frac",
           auto_calls == 0 ? 0.0 : static_cast<double>(mt.auto_band_kernels) / auto_calls,
           "fraction");
  c.metric("align.band_fallbacks", static_cast<double>(mt.band_fallbacks), "count");
  c.metric("align.wasted_cells_frac",
           mt.dp_cells == 0 ? 0.0 : static_cast<double>(dp.wasted_cells) / mt.dp_cells,
           "fraction");
  c.metric("align.ladder_retries", static_cast<double>(dp.ladder_retries), "count");
  c.info("align.dp_cells", static_cast<double>(mt.dp_cells), "count");
  c.info("align.hooked_cells", static_cast<double>(dp.hooked_cells()), "count");
  c.info("align.ext_cells_frac",
         mt.dp_cells == 0 ? 0.0 : static_cast<double>(dp.ext.cells) / mt.dp_cells, "fraction");

  const double map_s = med([](const TracedPass& p) { return p.tracer.total_s("core.map"); });
  const double map_self = med([](const TracedPass& p) {
    return p.tracer.self_s("core.map") - p.timings.seed_chain_seconds;
  });
  c.metric("core.map_s", map_s, "s");
  c.metric("core.self_s", map_self, "s");
  c.metric("core.paf_s", med([](const TracedPass& p) { return p.tracer.total_s("core.paf"); }),
           "s");
  c.note("core.self_s is an estimate: map time minus hooked DP minus the mapper's own "
         "seed+chain timer (MapTimings.seed_chain_seconds)");

  // Service pass.
  // Service pass, with a client-side span per request.
  Tracer service_spans;
  drive(svc, reads, closed_loop(svc), 0, nullptr);  // warm-up, untimed
  const Load service_load = c.w.shape == Shape::kBatch
                        ? closed_loop(svc)
                        : open_loop(c.w.rate_rps, c.opt.seconds / 2, c.opt.seed);
  Driven d = drive(svc, reads, service_load, 1'000'000, &service_spans);
  const double wall_s = d.wall_s;
  const double ok_bases = static_cast<double>(d.ok_bases);
  std::vector<Resp> resps = std::move(d.resps);
  std::vector<double> late_ms = std::move(d.late_ms);
  if (late_ms.empty()) late_ms.push_back(0.0);  // closed loop: sends are never late
  if (auto e = check_responses(resps, serial, false); !e.empty()) c.res.error = e;

  std::vector<u64> ids;
  for (const auto& r : resps) ids.push_back(r.batch_id);
  std::sort(ids.begin(), ids.end());
  const u64 batches = static_cast<u64>(std::unique(ids.begin(), ids.end()) - ids.begin());
  std::vector<double> queue, compute;
  double compute_total_ms = 0.0;
  for (const auto& r : resps) {
    if (r.status != RequestStatus::kOk) continue;
    queue.push_back(r.queue_ms);
    compute.push_back(r.compute_ms);
    compute_total_ms += r.compute_ms;
  }
  const double serial_mbp = bases / 1e6 / serial.wall_s;
  const double service_mbp = ok_bases / 1e6 / wall_s;
  c.metric("service.queue_ms_p50", tail_percentile(queue, 0.50).value, "ms");
  c.metric("service.queue_ms_p99", tail_percentile(queue, 0.99).value, "ms");
  c.metric("service.compute_ms_p50", tail_percentile(compute, 0.50).value, "ms");
  c.metric("service.compute_ms_p99", tail_percentile(compute, 0.99).value, "ms");
  c.metric("service.batch_size_mean",
           batches == 0 ? 0.0 : static_cast<double>(resps.size()) / batches, "count");
  c.metric("service.batches", static_cast<double>(batches), "count");
  c.metric("service.worker_busy_frac", compute_total_ms / 1e3 / (kWorkers * wall_s), "fraction");
  c.metric("service.serial_mbp_per_s", serial_mbp, "Mbp/s");
  c.metric("service.scaling_eff", service_mbp / (kWorkers * serial_mbp), "fraction");
  c.metric("service.rejected", static_cast<double>(count_status(resps, RequestStatus::kRejected)),
           "count");
  c.metric("service.timed_out",
           static_cast<double>(count_status(resps, RequestStatus::kTimedOut)), "count");
  c.metric("service.failed",
           static_cast<double>(count_status(resps, RequestStatus::kFailed) +
                               count_status(resps, RequestStatus::kIndexWarming)),
           "count");
  c.metric("loadgen.late_ms_p99", tail_percentile(late_ms, 0.99).value, "ms");
  c.metric("loadgen.sent", static_cast<double>(resps.size()), "count");
  const double traced_wall = med([](const TracedPass& p) { return p.wall_s; });
  c.metric("trace.overhead_frac", traced_wall / serial.wall_s - 1.0, "fraction");
  c.info("service.mbp_per_s", service_mbp, "Mbp/s");
  c.info("trace.spans", static_cast<double>(p0.tracer.size() + service_spans.size()), "count");
  c.res.attempted = resps.size();
  c.res.failed = count_failed(resps);
  if (c.w.shape == Shape::kPaced) check_client_threads(c, client_threads);

  const std::string base = c.opt.data_dir + "/spans-" + c.w.name;
  passes.back()->tracer.write_tsv(base + ".mapper.tsv");
  service_spans.write_tsv(base + ".service.tsv");
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  Context c{*opt.workload, opt, DataFiles(opt.data_dir), preset_for(opt.workload->data), {}, {}};
  c.truth = read_truth(c.files.truth_tsv);
  if (opt.trace)
    run_per_layer(c);
  else
    run_end_to_end(c);
  return std::move(c.res);
}

}  // namespace perfbench
