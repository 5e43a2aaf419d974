#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/json_detail.h"

namespace icbtc::obs {

using detail::json_escape;

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // MSB position p >= kSubBits. The octave [2^p, 2^(p+1)) is split into
  // kSubBuckets/2 sub-buckets of width 2^shift each.
  unsigned p = 63u - static_cast<unsigned>(std::countl_zero(value));
  unsigned shift = p - kSubBits + 1;
  std::uint64_t sub = value >> shift;  // in [kSubBuckets/2, kSubBuckets)
  return static_cast<std::size_t>(kSubBuckets) +
         static_cast<std::size_t>(shift - 1) * (kSubBuckets / 2) +
         static_cast<std::size_t>(sub - kSubBuckets / 2);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return index;
  std::size_t off = index - static_cast<std::size_t>(kSubBuckets);
  unsigned shift = static_cast<unsigned>(off / (kSubBuckets / 2)) + 1;
  std::uint64_t sub = kSubBuckets / 2 + off % (kSubBuckets / 2);
  return sub << shift;
}

std::uint64_t Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return index;
  std::size_t off = index - static_cast<std::size_t>(kSubBuckets);
  unsigned shift = static_cast<unsigned>(off / (kSubBuckets / 2)) + 1;
  return bucket_lower(index) + ((1ULL << shift) - 1);
}

Histogram::Histogram() : buckets_(kBucketCount, 0) {}

void Histogram::record(std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_index(value)];
}

void Histogram::merge(const Histogram& other) {
  // Copy the other side under its own lock first: merging a histogram into
  // itself or cross-merging two histograms from two threads must not
  // deadlock on lock ordering.
  std::vector<std::uint64_t> other_buckets;
  std::uint64_t other_count, other_sum, other_min, other_max;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_buckets = other.buckets_;
    other_count = other.count_;
    other_sum = other.sum_;
    other_min = other.min_;
    other_max = other.max_;
  }
  if (other_count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = other_min;
    max_ = other_max;
  } else {
    min_ = std::min(min_, other_min);
    max_ = std::max(max_, other_max);
  }
  count_ += other_count;
  sum_ += other_sum;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other_buckets[i];
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::uint64_t Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

std::uint64_t Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quantile_locked(q);
}

std::uint64_t Histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank (ceil) — integer rank in [1, count], no interpolation, so
  // the result is a pure function of the recorded multiset.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    if (cumulative < rank) continue;
    std::uint64_t lower = bucket_lower(i);
    std::uint64_t upper = bucket_upper(i);
    std::uint64_t mid = lower + (upper - lower) / 2;
    return std::clamp(mid, min_, max_);
  }
  return max_;
}

std::uint64_t Histogram::count_above(std::uint64_t threshold) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (std::size_t i = bucket_index(threshold) + 1; i < buckets_.size(); ++i) {
    total += buckets_[i];
  }
  return total;
}

std::vector<Histogram::Bucket> Histogram::nonzero_buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    out.push_back(Bucket{bucket_lower(i), bucket_upper(i), buckets_[i]});
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

std::string to_json(const MetricsRegistry& registry) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(counter.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(gauge.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\n";
    out += "      \"count\": " + std::to_string(h.count()) + ",\n";
    out += "      \"sum\": " + std::to_string(h.sum()) + ",\n";
    out += "      \"min\": " + std::to_string(h.min()) + ",\n";
    out += "      \"max\": " + std::to_string(h.max()) + ",\n";
    out += "      \"p50\": " + std::to_string(h.quantile(0.5)) + ",\n";
    out += "      \"p90\": " + std::to_string(h.quantile(0.9)) + ",\n";
    out += "      \"p99\": " + std::to_string(h.quantile(0.99)) + ",\n";
    out += "      \"buckets\": [";
    bool first_bucket = true;
    for (const Histogram::Bucket& b : h.nonzero_buckets()) {
      out += first_bucket ? "" : ", ";
      first_bucket = false;
      out += "{\"le\": " + std::to_string(b.upper) + ", \"count\": " + std::to_string(b.count) +
             "}";
    }
    out += "]\n    }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string to_table(const MetricsRegistry& registry) {
  char line[256];
  std::string out;
  auto short_num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return std::string(buf);
  };
  if (!registry.counters().empty() || !registry.gauges().empty()) {
    std::snprintf(line, sizeof(line), "  %-44s %14s\n", "metric", "value");
    out += line;
    for (const auto& [name, counter] : registry.counters()) {
      std::snprintf(line, sizeof(line), "  %-44s %14llu\n", name.c_str(),
                    static_cast<unsigned long long>(counter.value()));
      out += line;
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      std::snprintf(line, sizeof(line), "  %-44s %14lld\n", name.c_str(),
                    static_cast<long long>(gauge.value()));
      out += line;
    }
  }
  if (!registry.histograms().empty()) {
    std::snprintf(line, sizeof(line), "  %-44s %8s %10s %10s %10s %10s\n", "histogram", "count",
                  "mean", "p50", "p90", "max");
    out += line;
    for (const auto& [name, h] : registry.histograms()) {
      std::snprintf(line, sizeof(line), "  %-44s %8llu %10s %10s %10s %10s\n", name.c_str(),
                    static_cast<unsigned long long>(h.count()), short_num(h.mean()).c_str(),
                    short_num(h.quantile(0.5)).c_str(), short_num(h.quantile(0.9)).c_str(),
                    short_num(h.max()).c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace icbtc::obs
