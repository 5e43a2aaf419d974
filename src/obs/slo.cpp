#include "obs/slo.h"

#include <algorithm>
#include <string_view>

namespace icbtc::obs {

namespace {
constexpr std::string_view kLatencySuffix = ".latency_us";

SloVerdict verdict_of(std::string endpoint, const Histogram& latency, std::uint64_t errors,
                      const SloTarget& target) {
  SloVerdict v;
  v.endpoint = std::move(endpoint);
  v.target = target;
  v.requests = latency.count();
  v.errors = errors;
  v.slow = target.p99_us != 0 ? latency.count_above(target.p99_us) : 0;
  v.p50_us = latency.quantile(0.50);
  v.p99_us = latency.quantile(0.99);
  v.p999_us = latency.quantile(0.999);
  v.max_us = latency.max();
  v.p50_ok = target.p50_us == 0 || v.p50_us <= target.p50_us;
  v.p99_ok = target.p99_us == 0 || v.p99_us <= target.p99_us;
  v.p999_ok = target.p999_us == 0 || v.p999_us <= target.p999_us;
  double budget = target.error_budget * static_cast<double>(v.requests);
  v.budget_burn = budget > 0.0 ? static_cast<double>(v.errors + v.slow) / budget : 0.0;
  return v;
}
}  // namespace

std::vector<SloVerdict> slo_verdicts(const MetricsRegistry& registry, const SloTargets& targets) {
  std::vector<SloVerdict> out;
  for (const auto& [name, latency] : registry.histograms()) {
    std::string_view view(name);
    if (view.size() <= kLatencySuffix.size() || !view.ends_with(kLatencySuffix)) continue;
    std::string endpoint(view.substr(0, view.size() - kLatencySuffix.size()));
    auto errors = registry.counters().find(endpoint + ".errors");
    auto target = targets.find(endpoint);
    out.push_back(verdict_of(endpoint, latency,
                             errors != registry.counters().end() ? errors->second.value() : 0,
                             target != targets.end() ? target->second : SloTarget{}));
  }
  // Registry order sorts whole metric names ("a.b.latency_us" before
  // "a.latency_us"); verdicts sort by endpoint.
  std::sort(out.begin(), out.end(),
            [](const SloVerdict& a, const SloVerdict& b) { return a.endpoint < b.endpoint; });
  return out;
}

void publish_slo(MetricsRegistry& registry, const SloTargets& targets) {
  for (const auto& v : slo_verdicts(registry, targets)) {
    std::string prefix = "slo." + v.endpoint;
    auto set = [&](const char* suffix, std::uint64_t value) {
      registry.gauge(prefix + suffix).set(static_cast<std::int64_t>(value));
    };
    set(".requests", v.requests);
    set(".errors", v.errors);
    set(".slow", v.slow);
    set(".p50_us", v.p50_us);
    set(".p99_us", v.p99_us);
    set(".p999_us", v.p999_us);
    set(".max_us", v.max_us);
    set(".ok", v.ok() ? 1 : 0);
    // Percent with integer truncation keeps the gauge integral (and the
    // export deterministic).
    set(".budget_burn_pct", static_cast<std::uint64_t>(v.budget_burn * 100.0));
  }
}

}  // namespace icbtc::obs
