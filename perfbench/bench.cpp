#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace_export.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of an empty series");
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

bool percentile_supported(std::size_t n, double p) {
  // Compare in integer hundredths-of-a-percent to keep p99.9 exact.
  auto beyond_x1000 = static_cast<long long>(n) * std::llround((100.0 - p) * 10.0);
  return beyond_x1000 >= static_cast<long long>(kSamplesBeyond) * 1000;
}

double supported_percentile(const std::vector<double>& sorted, double p) {
  if (!percentile_supported(sorted.size(), p)) {
    throw std::invalid_argument("percentile p" + std::to_string(p) + " needs at least " +
                                std::to_string(static_cast<int>(kSamplesBeyond)) +
                                " samples beyond it; have " + std::to_string(sorted.size()) +
                                " samples");
  }
  return percentile(sorted, p);
}

double tail_level(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (percentile_supported(n, p)) return p;
  }
  return 0;
}

Summary summarize(std::vector<double> samples, double level) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = percentile(samples, 50);
  s.tail_level = level > 0 && percentile_supported(s.n, level) ? level : tail_level(s.n);
  s.tail = s.tail_level > 0 ? percentile(samples, s.tail_level) : samples.back();
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50);
}

namespace {
constexpr std::size_t kProbeArenaBytes = 8 << 20;
constexpr std::uint64_t kProbeKeys = 2048;
constexpr int kProbeOps = 3000;
}  // namespace

HostProbe::HostProbe()
    : arena_(kProbeArenaBytes),
      upstream_(arena_.data(), arena_.size()),
      pool_(&upstream_) {
  sample();  // grows the pool to its steady size and warms the cache
  samples_.clear();
}

double HostProbe::sample() {
  double t0 = now_us();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;  // the same operations every sample
  std::size_t total = 0;
  {
    std::pmr::unordered_map<std::uint64_t, std::pmr::vector<std::uint8_t>> table(&pool_);
    for (int i = 0; i < kProbeOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x % kProbeKeys].assign(64 + x % 200, static_cast<std::uint8_t>(i));
      auto it = table.find((x >> 11) % kProbeKeys);
      if (it != table.end()) total += it->second.size();
    }
  }
  sink_ += total;
  double us = now_us() - t0;
  samples_.push_back(us);
  return us;
}

double HostProbe::slowness(const std::vector<double>& samples_us) {
  return samples_us.empty() ? 1.0 : median(samples_us) / kNominalUs;
}

std::size_t Segments::of(double x, double total) const {
  auto s = static_cast<std::size_t>(x / total * static_cast<double>(count()));
  return std::min(s, count() - 1);
}

double Segments::factor(std::size_t segment) const {
  return std::pow(HostProbe::slowness(probe_us_[segment]), sensitivity_);
}

double Segments::slowness() const {
  std::vector<double> all;
  for (const auto& samples : probe_us_) all.push_back(HostProbe::slowness(samples));
  return median(all);
}

double Segments::ops_per_s() const {
  std::vector<double> rates;
  for (std::size_t s = 0; s < count(); ++s) {
    if (busy_us_[s] > 0) rates.push_back(ops_[s] / (busy_us_[s] / 1e6) * factor(s));
  }
  return rates.empty() ? 0.0 : median(rates);
}

Summary Segments::latency(double level) const {
  std::vector<double> p50, tail, levels, mean;
  std::size_t n = 0;
  for (std::size_t segment = 0; segment < count(); ++segment) {
    const auto& samples = latency_[segment];
    if (samples.empty()) continue;
    Summary s = summarize(samples, level);
    double f = factor(segment);
    p50.push_back(s.p50 / f);
    tail.push_back(s.tail / f);
    levels.push_back(s.tail_level);
    mean.push_back(s.mean / f);
    n += s.n;
  }
  Summary out;
  if (p50.empty()) return out;
  out.n = n;
  out.p50 = median(p50);
  out.tail = median(tail);
  out.tail_level = *std::min_element(levels.begin(), levels.end());
  out.mean = median(mean);
  return out;
}

// ---------------------------------------------------------------------------

void OpenLoop::start() {
  start_us_ = now_us();
  shift_us_ = 0;
  free_at_us_ = start_us_;
}

OpenLoop::Admission OpenLoop::admit(double offset_us) {
  Admission a;
  a.due_us = start_us_ + shift_us_ + offset_us;
  double now = now_us();
  while (now < a.due_us) now = now_us();
  a.start_us = now;
  // The server (this thread) became free at free_at_us_: any wait before
  // that is queueing behind earlier requests; the rest is generator overshoot.
  double could_start = std::max(a.due_us, free_at_us_);
  a.queue_wait_us = std::max(0.0, free_at_us_ - a.due_us);
  a.late_us = std::max(0.0, now - could_start);
  return a;
}

// ---------------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "gen";
    case Layer::kBitcoin: return "bitcoin";
    case Layer::kCanister: return "canister";
    case Layer::kUtxo: return "utxo";
    case Layer::kCrypto: return "crypto";
    case Layer::kContracts: return "contracts";
    case Layer::kAdapter: return "adapter";
    case Layer::kIc: return "ic";
    case Layer::kBtcnet: return "btcnet";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {
icbtc::obs::TracerConfig tracer_config() {
  icbtc::obs::TracerConfig c;
  c.max_spans = 1 << 17;  // bounds the Chrome trace; self times cover every span
  return c;
}
}  // namespace

Tracing::Tracing(bool enabled) : enabled_(enabled), tracer_(tracer_config()) {
  epoch_us_ = now_us();
  tracer_.set_clock([this] { return static_cast<icbtc::obs::TraceTime>(now_us() - epoch_us_); });
}

void Tracing::begin_window() { window_start_us_ = now_us(); }
void Tracing::end_window() { window_end_us_ = now_us(); }

const std::vector<double>& Tracing::durations(std::string_view name) const {
  static const std::vector<double> kEmpty;
  for (const auto& [n, v] : series_) {
    if (name == n) return v;
  }
  return kEmpty;
}

std::vector<double>& Tracing::series(const char* name) {
  for (auto& [n, v] : series_) {
    if (n == name || std::strcmp(n, name) == 0) return v;
  }
  series_.emplace_back(name, std::vector<double>{});
  return series_.back().second;
}

Tracing::Span::Span(Tracing& tracing, Layer layer, const char* name) {
  if (!tracing.enabled_) return;
  tracing_ = &tracing;
  icbtc::obs::SpanContext parent = tracing.stack_.empty() ? icbtc::obs::SpanContext{}
                                                   : tracing.stack_.back().context;
  icbtc::obs::SpanContext ctx = tracing.tracer_.begin_span(name, layer_name(layer), parent);
  tracing.stack_.push_back(Frame{layer, name, now_us(), 0.0, ctx});
}

void Tracing::Span::end() {
  if (tracing_ == nullptr) return;
  Tracing& t = *tracing_;
  tracing_ = nullptr;
  Frame frame = t.stack_.back();
  t.stack_.pop_back();
  double duration = now_us() - frame.start_us;
  t.tracer_.end_span(frame.context);
  auto layer = static_cast<std::size_t>(frame.layer);
  t.self_us_[layer] += duration - frame.child_us;
  ++t.spans_[layer];
  if (!t.stack_.empty()) t.stack_.back().child_us += duration;
  t.series(frame.name).push_back(duration);
}

// ---------------------------------------------------------------------------

void Result::fail(const std::string& what) {
  checks_passed = false;
  if (failures.size() < 5) failures.push_back(what);
}

void Result::add_summary(const std::string& name, const Summary& s, const std::string& unit) {
  add_detail(name + "_p50", s.p50, unit);
  char tail[32];
  std::snprintf(tail, sizeof(tail), "_p%g", s.tail_level);
  add_detail(name + tail, s.tail, unit);
  add_detail(name + "_n", static_cast<double>(s.n), "count");
}

void add_layer_shares(const Tracing& tracing, Result& result) {
  double window = tracing.window_us();
  double attributed = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    auto layer = static_cast<Layer>(i);
    attributed += tracing.self_us(layer);
    result.per_layer.push_back({std::string(layer_name(layer)) + ".self_pct",
                                100.0 * tracing.self_us(layer) / window, "%"});
    result.add_detail(std::string(layer_name(layer)) + ".spans",
                      static_cast<double>(tracing.spans(layer)), "count");
  }
  result.per_layer.push_back({"unattributed_pct", 100.0 * (window - attributed) / window, "%"});
  result.add_detail("trace.window_s", window / 1e6, "s");
}

void write_chrome_trace(Tracing& tracing, const Options& options) {
  if (options.out_dir.empty()) return;
  std::string path = options.out_dir + "/trace-" + options.workload + "-" +
                     std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << icbtc::obs::to_chrome_trace(tracing.tracer());
  std::printf("chrome trace: %s (%zu spans kept, %llu dropped)\n", path.c_str(),
              tracing.tracer().finished_spans().size(),
              static_cast<unsigned long long>(tracing.tracer().dropped_spans()));
}

}  // namespace perfbench
