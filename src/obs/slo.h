// SLO verdicts (the tail-latency side of §IV-B): a read-only view over the
// MetricsRegistry, judging each endpoint's latency distribution against
// p50/p99/p999 targets and an error budget.
//
// Naming contract: an SLO endpoint is a registry histogram named
// `<endpoint>.latency_us`; its error count is the counter `<endpoint>.errors`
// (0 when there is none). Components record each latency once, through the
// instruments their set_metrics() resolves, so a verdict and the metric it
// reads share one name and one record.
//
// Thread safety: call after the registry's writers quiesce, like to_json().
#pragma once

#include <cstdint>
#include <map>
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
  /// slower than p99_us). 0.001 = "99.9% of requests good".
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

/// Targets by endpoint name; an endpoint without an entry gets the default
/// SloTarget (no latency bounds).
using SloTargets = std::map<std::string, SloTarget>;

/// One verdict per registry histogram named `<endpoint>.latency_us`, in
/// endpoint-name order. Quantiles carry the histogram's ~3% bucket
/// granularity, and so does `slow`: Histogram::count_above(target.p99_us),
/// which leaves out the target's own bucket.
std::vector<SloVerdict> slo_verdicts(const MetricsRegistry& registry,
                                     const SloTargets& targets = {});

/// Publishes slo_verdicts(registry, targets) as deterministic gauges:
///   slo.<endpoint>.requests / .errors / .slow
///   slo.<endpoint>.p50_us / .p99_us / .p999_us / .max_us
///   slo.<endpoint>.ok           (1 when every bound holds, else 0)
///   slo.<endpoint>.budget_burn_pct  (error-budget burn, percent)
/// Repeated calls overwrite.
void publish_slo(MetricsRegistry& registry, const SloTargets& targets = {});

}  // namespace icbtc::obs
