// Shared plumbing of the host-clock benchmark: the clock, percentile and
// open-loop helpers, the benchmark-side layer tracer, and the result record
// every workload fills in. Nothing here reaches into the program under test;
// the workloads time its public calls from outside.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Host clock
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Host steady-clock time in microseconds (arbitrary epoch).
inline double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Minimum number of samples that must lie beyond a reported percentile.
constexpr double kSamplesBeyond = 10;

/// Linearly interpolated percentile `p` (0..100) of a sorted, non-empty series.
double percentile(const std::vector<double>& sorted, double p);

/// True when `n` samples leave at least kSamplesBeyond samples beyond `p`.
bool percentile_supported(std::size_t n, double p);

/// percentile(), but throws std::invalid_argument when fewer than
/// kSamplesBeyond samples lie beyond `p`: such a tail is one outlier, not a
/// percentile.
double supported_percentile(const std::vector<double>& sorted, double p);

/// The highest of p99.9 / p99 / p95 / p90 / p50 that `n` samples support
/// (0 when not even the median is supported).
double tail_level(std::size_t n);

/// Median plus the highest supported tail of one latency series.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_level = 0;  // which percentile `tail` is
  double tail = 0;
  double mean = 0;
};
/// Summarizes `samples` with `tail` at percentile `level` when the samples
/// support it, else at the highest supported level (0 = always the highest).
Summary summarize(std::vector<double> samples, double level = 0);

/// The default end-to-end tail percentile (`latency_tail_us`): p90 keeps at
/// least ten samples beyond it in every segment and is steadier across runs
/// than p99. Workloads whose p90 would fall on the edge of a wait region use
/// p99; every tail level is printed as `latency_tail_level` in the detail.
constexpr double kTailLevel = 90;

/// A run split into equal segments (by time or by operation count). Each
/// figure is computed per segment and the median over segments is reported,
/// so host interference confined to one segment stays out of the result.
/// Segments given HostProbe samples report their figures at nominal host
/// speed: rates times the segment's slowness raised to `sensitivity`,
/// latencies divided by it. `sensitivity` is how much more (or less) than the
/// probe the workload slows down on the same host; it is fitted per workload
/// (log-log regression of raw rate on slowness over runs).
class Segments {
 public:
  explicit Segments(std::size_t count, double sensitivity = 1.0)
      : latency_(count), ops_(count), busy_us_(count), probe_us_(count),
        sensitivity_(sensitivity) {}

  std::size_t count() const { return latency_.size(); }
  /// Segment of position `x` in [0, total) (time offset or operation index).
  std::size_t of(double x, double total) const;
  /// One latency sample.
  void add_latency(std::size_t segment, double us) { latency_[segment].push_back(us); }
  /// `ops` operations completed in `busy_us` of busy time.
  void add_work(std::size_t segment, double ops, double busy_us) {
    ops_[segment] += ops;
    busy_us_[segment] += busy_us;
  }
  /// One HostProbe sample taken during the segment (outside busy time).
  void add_probe(std::size_t segment, double us) { probe_us_[segment].push_back(us); }
  /// Median over segments of ops per busy second.
  double ops_per_s() const;
  /// Median over segments of the per-segment latency summary at `level`.
  Summary latency(double level) const;
  /// Median over segments of the host's slowness (1 without probe samples).
  double slowness() const;

 private:
  /// The segment's slowness raised to the workload's sensitivity.
  double factor(std::size_t segment) const;

  std::vector<std::vector<double>> latency_;
  std::vector<double> ops_;
  std::vector<double> busy_us_;
  std::vector<std::vector<double>> probe_us_;
  double sensitivity_;
};

/// Median of a non-empty series (copied).
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// A fixed reference kernel that uses no program code: small-node hash-table
/// inserts, lookups and byte-vector reallocations, the kind of work the
/// simulation and the canister do, on a memory pool of its own (so the
/// program's heap state cannot change its speed). On a shared host the speed
/// of every core drifts by up to a factor of two within seconds; timing this
/// kernel between the workload's own operations measures that drift, and
/// end-to-end figures are reported at the kernel's nominal speed (kNominalUs
/// per sample), so that the host's drift largely cancels and the program's
/// own cost remains.
class HostProbe {
 public:
  /// Median duration of one sample on a quiet 4-vCPU x86-64 cloud host.
  static constexpr double kNominalUs = 450;

  HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  /// Runs the kernel once and records its duration; returns it in µs.
  double sample();
  /// Median sample duration over kNominalUs (1 = nominal speed, 1.3 = the
  /// host ran 30% slow); 1 when nothing was sampled.
  static double slowness(const std::vector<double>& samples_us);
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<std::byte> arena_;
  std::pmr::monotonic_buffer_resource upstream_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Open-loop timing
// ---------------------------------------------------------------------------

/// Single-threaded open-loop load generator. Requests have due times on a fixed
/// schedule (microseconds after start()); the caller serves them one at a
/// time on this thread, as the canister executes one message at a time.
/// Each request is timed from its *due* time, so a stall charges its wait to
/// every request that queued behind it.
class OpenLoop {
 public:
  struct Admission {
    double due_us = 0;         // absolute host time the request was due
    double start_us = 0;       // absolute host time service began
    double queue_wait_us = 0;  // due -> previous request finished (0 when idle)
    double late_us = 0;        // generator overshoot past when it could start
  };

  /// Anchors the schedule at the current host time.
  void start();
  /// Spins until `offset_us` after start() (shifted by excluded time) and
  /// returns the request's admission record. Calls must have non-decreasing
  /// offsets.
  Admission admit(double offset_us);
  /// Shifts every later due time by `us`: time spent on untimed work (such
  /// as correctness checks) does not count as queueing.
  void exclude(double us) { shift_us_ += us; }
  /// Marks the end of the served request (for the next queue-wait split).
  void finish() { free_at_us_ = now_us(); }

 private:
  double start_us_ = 0;
  double shift_us_ = 0;
  double free_at_us_ = 0;
};

// ---------------------------------------------------------------------------
// Layer tracing (benchmark-side spans on the host clock)
// ---------------------------------------------------------------------------

/// The repository's modules, as the benchmark attributes host time to them.
/// `kGen` is the benchmark's own load generator (including open-loop idle).
enum class Layer : std::size_t {
  kGen,
  kBitcoin,
  kCanister,
  kUtxo,
  kCrypto,
  kContracts,
  kAdapter,
  kIc,
  kBtcnet,
  kCount,
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

/// Records spans around the calls the benchmark makes into each layer. Spans
/// nest; a span's self time is its duration minus its children's. Spans go
/// to an icbtc::obs::Tracer on a host clock (for the Chrome trace) and into per-
/// layer self-time totals and per-name duration series. The tracer is never
/// attached to the program's own components. Disabled, every span is inert.
class Tracing {
 public:
  explicit Tracing(bool enabled);

  bool enabled() const { return enabled_; }
  /// Starts recording spans (a run's untraced part precedes its traced part).
  void enable() { enabled_ = true; }
  icbtc::obs::Tracer& tracer() { return tracer_; }

  /// Brackets the wall-time window the self-time shares are taken over.
  void begin_window();
  void end_window();
  double window_us() const { return window_end_us_ - window_start_us_; }

  double self_us(Layer layer) const { return self_us_[static_cast<std::size_t>(layer)]; }
  std::uint64_t spans(Layer layer) const { return spans_[static_cast<std::size_t>(layer)]; }
  /// Durations (µs) of every finished span called `name`, in finish order.
  const std::vector<double>& durations(std::string_view name) const;

  class Span {
   public:
    Span(Tracing& tracing, Layer layer, const char* name);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Ends the span (idempotent).
    void end();

   private:
    Tracing* tracing_ = nullptr;  // null when tracing is disabled or ended
  };

 private:
  struct Frame {
    Layer layer;
    const char* name;
    double start_us;
    double child_us;
    icbtc::obs::SpanContext context;
  };
  std::vector<double>& series(const char* name);

  bool enabled_;
  icbtc::obs::Tracer tracer_;
  double epoch_us_ = 0;
  double window_start_us_ = 0;
  double window_end_us_ = 0;
  std::vector<Frame> stack_;
  std::array<double, kLayerCount> self_us_{};
  std::array<std::uint64_t, kLayerCount> spans_{};
  std::vector<std::pair<const char*, std::vector<double>>> series_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;
  std::vector<std::string> failures;  // first few failure descriptions
  /// End-to-end metrics (untraced runs).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (traced runs).
  std::vector<Metric> per_layer;
  /// Workload-specific detail, printed as a JSON object before the result.
  std::vector<Metric> detail;

  /// Records a failed check; keeps the first few descriptions.
  void fail(const std::string& what);
  void add_detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds `<name>_p50` / `<name>_p<tail>` / `<name>_n` detail entries.
  void add_summary(const std::string& name, const Summary& s, const std::string& unit);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // Chrome traces land here in traced runs
};

/// Times `setup` `reps` times and returns the median duration in seconds at
/// nominal host speed (HostProbe samples are taken around every repetition;
/// `sensitivity` as for Segments). The callable builds the workload state
/// from already generated inputs.
template <typename Fn>
double median_setup_s(int reps, Fn&& setup, double sensitivity = 1.0) {
  constexpr int kProbesAround = 3;
  HostProbe probe;
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    for (int k = 0; k < kProbesAround; ++k) probe.sample();
    double t0 = now_us();
    setup();
    s.push_back((now_us() - t0) / 1e6);
    for (int k = 0; k < kProbesAround; ++k) probe.sample();
  }
  std::sort(s.begin(), s.end());
  return s[s.size() / 2] / std::pow(HostProbe::slowness(probe.samples()), sensitivity);
}

/// Fills the per-layer self-time shares and the unattributed remainder.
void add_layer_shares(const Tracing& tracing, Result& result);

/// Writes the Chrome trace of a traced run into `out_dir` (best effort).
void write_chrome_trace(Tracing& tracing, const Options& options);

}  // namespace perfbench
