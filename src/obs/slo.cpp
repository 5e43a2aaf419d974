#include "obs/slo.h"

namespace icbtc::obs {

void SloTracker::Endpoint::record(std::uint64_t latency_us, bool error) {
  total_.record(latency_us);
  window_.record(latency_us);
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  if (error) ++errors_;
  if (target_.p99_us != 0 && latency_us > target_.p99_us) ++slow_;
}

std::uint64_t SloTracker::Endpoint::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_;
}

std::uint64_t SloTracker::Endpoint::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

std::uint64_t SloTracker::Endpoint::slow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

SloVerdict SloTracker::Endpoint::verdict() const {
  SloVerdict v;
  v.endpoint = name_;
  v.target = target_;
  v.p50_us = total_.quantile(0.50);
  v.p99_us = total_.quantile(0.99);
  v.p999_us = total_.quantile(0.999);
  v.max_us = total_.max();
  {
    std::lock_guard<std::mutex> lock(mu_);
    v.requests = requests_;
    v.errors = errors_;
    v.slow = slow_;
  }
  v.p50_ok = target_.p50_us == 0 || v.p50_us <= target_.p50_us;
  v.p99_ok = target_.p99_us == 0 || v.p99_us <= target_.p99_us;
  v.p999_ok = target_.p999_us == 0 || v.p999_us <= target_.p999_us;
  double budget = target_.error_budget * static_cast<double>(v.requests);
  v.budget_burn =
      budget > 0.0 ? static_cast<double>(v.errors + v.slow) / budget : 0.0;
  return v;
}

SloTracker::Endpoint& SloTracker::endpoint(const std::string& name, SloTarget target) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(name);
  if (it != endpoints_.end()) return it->second;
  return endpoints_.try_emplace(name, name, target).first->second;
}

void SloTracker::roll_window() {
  std::lock_guard<std::mutex> lock(mu_);
  ++windows_completed_;
  for (auto& [name, ep] : endpoints_) {
    SloVerdict window_verdict;
    window_verdict.endpoint = name;
    window_verdict.target = ep.target_;
    window_verdict.requests = ep.window_.count();
    window_verdict.p50_us = ep.window_.quantile(0.50);
    window_verdict.p99_us = ep.window_.quantile(0.99);
    window_verdict.p999_us = ep.window_.quantile(0.999);
    window_verdict.max_us = ep.window_.max();
    window_verdict.p50_ok =
        ep.target_.p50_us == 0 || window_verdict.p50_us <= ep.target_.p50_us;
    window_verdict.p99_ok =
        ep.target_.p99_us == 0 || window_verdict.p99_us <= ep.target_.p99_us;
    window_verdict.p999_ok =
        ep.target_.p999_us == 0 || window_verdict.p999_us <= ep.target_.p999_us;
    ep.window_.reset();
    std::lock_guard<std::mutex> ep_lock(ep.mu_);
    ep.windows_completed_ = windows_completed_;
    ep.last_window_ = std::move(window_verdict);
  }
}

std::vector<SloVerdict> SloTracker::verdicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloVerdict> out;
  out.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) out.push_back(ep.verdict());
  return out;
}

std::vector<SloVerdict> SloTracker::window_verdicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloVerdict> out;
  out.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) {
    std::lock_guard<std::mutex> ep_lock(ep.mu_);
    out.push_back(ep.last_window_);
  }
  return out;
}

std::uint64_t SloTracker::windows_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_completed_;
}

void SloTracker::publish(MetricsRegistry& registry) const {
  auto verdict_list = verdicts();
  for (const auto& v : verdict_list) {
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
  registry.gauge("slo.windows").set(static_cast<std::int64_t>(windows_completed()));
}

}  // namespace icbtc::obs
