// Observability substrate (the measurement side of §IV-B): a zero-dependency
// metrics registry with named counters, gauges, and histograms, plus JSON and
// ASCII-table exporters.
//
// Everything is deterministic: metrics are stored and exported in name order,
// histograms share one fixed bucket geometry, and no wall-clock or randomness
// enters the snapshot — two identical seeded simulation runs therefore
// produce byte-identical to_json() output. Components accept an optional
// MetricsRegistry* and no-op when none is attached, so the hot paths pay a
// single null check when unobserved.
//
// Thread safety: counters and gauges are atomics, histogram recording and
// registry lookup/creation are mutex-guarded, so instruments may be updated
// from parallel::ThreadPool workers. Snapshotting (to_json/to_table) is only
// meaningful once concurrent writers have quiesced — totals are exact then,
// but a snapshot raced against writers may mix per-metric states.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace icbtc::obs {

/// Monotonically increasing event count. inc() is lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (sizes, heights, ...). Signed so deltas can go down.
/// set()/add() are lock-free.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-geometry log-bucketed histogram of non-negative integers (µs,
/// instructions, sketch cells) with an exact count/sum/min/max summary.
///
/// Why fixed boundaries: the bucket a value lands in is a pure function of
/// the value — independent of what was recorded before it, of the thread
/// that recorded it, and of any configuration. Two histograms fed disjoint
/// shards of one stream therefore merge() into exactly the histogram the
/// combined stream would have produced: quantiles never drift under
/// sharding, and exports are byte-identical across seeded runs. This is
/// what lets per-replica / per-shard histograms merge into one
/// subnet-wide picture (and lets bench_load gate on deterministic
/// BENCH_load.json bytes).
///
/// Bucketing scheme:
///   - values < 2^kSubBits are exact (one bucket per value);
///   - above that, each power-of-two octave is split into 2^(kSubBits-1)
///     equal sub-buckets, so the relative bucket width — and therefore the
///     worst-case quantile error — is bounded by 2^(1-kSubBits) (~3% at the
///     default 6 sub-bucket bits), uniformly across the whole 64-bit range.
///
/// Thread safety: record()/merge() and the accessors take an internal mutex,
/// so a histogram may be fed from parallel::ThreadPool workers. Snapshots are
/// exact once writers quiesce.
class Histogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits exact values, then 2^(kSubBits-1)
  /// sub-buckets per octave. 6 bits bounds quantile error at ~3.2%.
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBits;
  /// Total bucket count for the full 64-bit value domain.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubBuckets) + (64 - kSubBits) * (kSubBuckets / 2);

  /// Bucket index for `value` — a pure function, identical in every
  /// histogram instance (the "fixed boundaries" contract).
  static std::size_t bucket_index(std::uint64_t value);
  /// Inclusive lower bound of bucket `index`.
  static std::uint64_t bucket_lower(std::size_t index);
  /// Inclusive upper bound of bucket `index`.
  static std::uint64_t bucket_upper(std::size_t index);

  Histogram();

  void record(std::uint64_t value);

  /// Exact merge: adds the other histogram's buckets and summary into this
  /// one. Because boundaries are fixed, the result is bucket-for-bucket
  /// identical to a single histogram that observed both streams.
  /// Thread-safe, including self-merge.
  void merge(const Histogram& other);

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const;
  double mean() const;

  /// q-quantile (q in [0,1], clamped) as the midpoint of the bucket holding
  /// the nearest-rank target, clamped to the observed [min, max].
  /// Deterministic: a pure function of the recorded multiset. Empty
  /// histogram returns 0.
  std::uint64_t quantile(double q) const;

  /// Number of recorded values strictly greater than `threshold`
  /// resolvable at bucket granularity (counts whole buckets whose lower
  /// bound exceeds the threshold; the threshold's own bucket is excluded).
  std::uint64_t count_above(std::uint64_t threshold) const;

  /// Sparse snapshot of the non-empty buckets, ascending by bound.
  struct Bucket {
    std::uint64_t lower = 0;
    std::uint64_t upper = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> nonzero_buckets() const;

 private:
  std::uint64_t quantile_locked(double q) const;

  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;  // kBucketCount entries
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named metrics, created on first use and stored in name order. References
/// returned by counter()/gauge()/histogram() remain valid for the registry's
/// lifetime (node-based map storage), so hot paths resolve once and keep the
/// pointer. Lookup/creation is mutex-guarded; the returned instruments are
/// themselves thread-safe.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Serializes the registry as a deterministic JSON document (metrics in name
/// order, stable number formatting). Shape:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..,
///                            "p50":..,"p90":..,"p99":..,
///                            "buckets": [{"le":..,"count":..}, ...]}}}
/// where each sparse bucket's "le" is its inclusive upper bound.
std::string to_json(const MetricsRegistry& registry);

/// Renders the registry as a fixed-width ASCII table for live display (the
/// fork_monitor example and bench stdout dumps).
std::string to_table(const MetricsRegistry& registry);

}  // namespace icbtc::obs
