// SLO observability layer (the tail-latency side of §IV-B): a per-endpoint
// SloTracker holding p50/p99/p999 gauges, target thresholds, and
// error-budget burn counters over obs::Histogram, whose fixed bucket
// geometry makes per-replica / per-shard trackers merge exactly.
//
// Thread safety: recording, window rolls and the accessors take internal
// mutexes, so a tracker may be hammered from parallel::ThreadPool workers
// (exercised by the TSan hammer test). Snapshots are exact once writers
// quiesce.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace icbtc::obs {

/// Per-endpoint latency / availability objectives. Zero disables a bound.
struct SloTarget {
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  /// Error budget: tolerated fraction of bad requests (errors or requests
  /// slower than p99_us) per window. 0.001 = "99.9% of requests good".
  double error_budget = 0.001;
};

/// Snapshot of one endpoint's standing against its targets.
struct SloVerdict {
  std::string endpoint;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t slow = 0;  // latency above target p99 (when a target is set)
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint64_t max_us = 0;
  SloTarget target;
  bool p50_ok = true;
  bool p99_ok = true;
  bool p999_ok = true;
  /// Error-budget burn: (errors + slow) / (error_budget * requests).
  /// 1.0 = budget exactly consumed; > 1.0 = budget blown.
  double budget_burn = 0.0;

  bool ok() const { return p50_ok && p99_ok && p999_ok && budget_burn <= 1.0; }
};

/// Windowed, mergeable per-endpoint SLO tracker.
///
/// Endpoints are registered (or resolved) by name; the returned handle is
/// stable for the tracker's lifetime, so hot paths resolve once and record
/// through the pointer. Each endpoint keeps a *cumulative* histogram plus a
/// *current-window* histogram; roll_window() folds the window into nothing
/// (the cumulative histogram already saw every sample) but snapshots the
/// window's quantiles and advances the window counter — giving burn-rate
/// style "how bad was the last window" visibility without losing the
/// all-time distribution.
class SloTracker {
 public:
  class Endpoint {
   public:
    explicit Endpoint(std::string name, SloTarget target)
        : name_(std::move(name)), target_(target) {}

    /// Records one request: its end-to-end latency and whether it errored.
    /// Thread-safe.
    void record(std::uint64_t latency_us, bool error = false);

    const std::string& name() const { return name_; }
    const SloTarget& target() const { return target_; }
    const Histogram& histogram() const { return total_; }
    std::uint64_t requests() const;
    std::uint64_t errors() const;
    std::uint64_t slow() const;

    SloVerdict verdict() const;

   private:
    friend class SloTracker;

    std::string name_;
    SloTarget target_;
    Histogram total_;
    Histogram window_;
    mutable std::mutex mu_;  // guards the counters below
    std::uint64_t requests_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t slow_ = 0;
    // Last completed window, captured by roll_window().
    std::uint64_t windows_completed_ = 0;
    SloVerdict last_window_;
  };

  /// Resolves (creating on first use) the endpoint `name`. A later call with
  /// a different target keeps the original registration's target.
  Endpoint& endpoint(const std::string& name, SloTarget target = {});

  /// Convenience for cold paths: resolve + record in one call.
  void record(const std::string& name, std::uint64_t latency_us, bool error = false) {
    endpoint(name).record(latency_us, error);
  }

  /// Closes the current window on every endpoint: snapshots the window
  /// verdict, clears the window histogram, bumps the window counter.
  void roll_window();

  /// Verdicts for every endpoint, in name order (deterministic).
  std::vector<SloVerdict> verdicts() const;
  /// Last completed window's verdicts, in name order.
  std::vector<SloVerdict> window_verdicts() const;
  std::uint64_t windows_completed() const;

  /// Publishes the current standing into `registry` as deterministic gauges:
  ///   slo.<endpoint>.requests / .errors / .slow
  ///   slo.<endpoint>.p50_us / .p99_us / .p999_us / .max_us
  ///   slo.<endpoint>.ok           (1 when every bound holds, else 0)
  ///   slo.<endpoint>.budget_burn_pct  (error-budget burn, percent)
  ///   slo.windows                 (completed window count)
  /// Call after writers quiesce; repeated calls overwrite.
  void publish(MetricsRegistry& registry) const;

 private:
  mutable std::mutex mu_;  // guards the endpoint map (not the endpoints)
  std::map<std::string, Endpoint> endpoints_;
  std::uint64_t windows_completed_ = 0;
};

}  // namespace icbtc::obs
