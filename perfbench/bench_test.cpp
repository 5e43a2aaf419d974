// Tests of the benchmark's own timing helpers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

/// Serves `n` trivial requests open-loop every `gap_us`; request `stall_at`
/// (if any) spins for `stall_us`. Returns each request's latency from its
/// due time, sorted.
std::vector<double> run_open_loop(std::size_t n, double gap_us, std::size_t stall_at,
                                  double stall_us, std::vector<double>* late_us = nullptr) {
  std::vector<double> latency;
  OpenLoop loop;
  loop.start();
  for (std::size_t i = 0; i < n; ++i) {
    OpenLoop::Admission a = loop.admit(static_cast<double>(i) * gap_us);
    if (i == stall_at) {
      double until = now_us() + stall_us;
      while (now_us() < until) {
      }
    }
    double done = now_us();
    loop.finish();
    latency.push_back(done - a.due_us);
    if (late_us != nullptr) late_us->push_back(a.late_us);
  }
  std::sort(latency.begin(), latency.end());
  return latency;
}

TEST(OpenLoopTest, InjectedStallRaisesTheTailOfQueuedRequests) {
  constexpr std::size_t kRequests = 4000;
  constexpr double kGapUs = 50;
  constexpr double kStallUs = 20'000;  // 400 requests come due during the stall
  auto clean = run_open_loop(kRequests, kGapUs, kRequests, 0);
  auto stalled = run_open_loop(kRequests, kGapUs, 1000, kStallUs);
  double clean_p99 = supported_percentile(clean, 99);
  double stalled_p99 = supported_percentile(stalled, 99);
  // Requests queued behind the stall are timed from their due times, so the
  // wait shows in the tail instead of vanishing (no coordinated omission).
  EXPECT_GT(stalled_p99, 10'000.0);
  EXPECT_GT(stalled_p99, clean_p99 + 10'000.0);
  // The generator itself stays punctual: the stall is queue wait, not lateness.
  std::vector<double> late;
  run_open_loop(kRequests, kGapUs, 1000, kStallUs, &late);
  std::sort(late.begin(), late.end());
  EXPECT_LT(percentile(late, 50), 5.0);
}

TEST(OpenLoopTest, ExcludedTimeIsNotCountedAsQueueing) {
  OpenLoop loop;
  loop.start();
  OpenLoop::Admission first = loop.admit(0);
  double until = now_us() + 5'000;
  while (now_us() < until) {
  }
  loop.finish();
  loop.exclude(5'000);
  OpenLoop::Admission second = loop.admit(100);
  EXPECT_GE(second.due_us, first.due_us + 5'100.0 - 1e-6);
  EXPECT_LT(second.queue_wait_us, 1'000.0);
}

TEST(PercentileTest, RefusesAPercentileWithFewerThanTenSamplesBeyondIt) {
  std::vector<double> samples(999);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i);
  EXPECT_THROW(supported_percentile(samples, 99), std::invalid_argument);
  samples.push_back(999);
  EXPECT_NO_THROW(supported_percentile(samples, 99));
  EXPECT_FALSE(percentile_supported(9'999, 99.9));
  EXPECT_TRUE(percentile_supported(10'000, 99.9));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
}

TEST(PercentileTest, TailLevelIsTheHighestSupportedPercentile) {
  EXPECT_EQ(tail_level(10), 0.0);
  EXPECT_EQ(tail_level(100), 90.0);
  EXPECT_EQ(tail_level(200), 95.0);
  EXPECT_EQ(tail_level(1000), 99.0);
  EXPECT_EQ(tail_level(10000), 99.9);
  Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20});
  EXPECT_EQ(s.tail_level, 50.0);
  EXPECT_DOUBLE_EQ(s.p50, 10.5);
}

TEST(SegmentsTest, ProbedSegmentsReportAtNominalHostSpeed) {
  Segments segments(2);
  for (std::size_t s = 0; s < 2; ++s) {
    segments.add_work(s, 100, 1e6);  // 100 ops/s as measured
    for (int i = 0; i < 20; ++i) segments.add_latency(s, 1'000);
  }
  EXPECT_DOUBLE_EQ(segments.slowness(), 1.0);  // no samples: figures as measured
  EXPECT_DOUBLE_EQ(segments.ops_per_s(), 100.0);
  for (std::size_t s = 0; s < 2; ++s) {
    for (double us : {1.9, 2.0, 2.1}) segments.add_probe(s, us * HostProbe::kNominalUs);
  }
  EXPECT_DOUBLE_EQ(segments.slowness(), 2.0);  // the host ran at half speed
  EXPECT_DOUBLE_EQ(segments.ops_per_s(), 200.0);
  EXPECT_DOUBLE_EQ(segments.latency(50).p50, 500.0);

  Segments steep(1, 1.5);  // a workload that slows down more than the probe
  steep.add_work(0, 100, 1e6);
  steep.add_probe(0, 4 * HostProbe::kNominalUs);
  EXPECT_DOUBLE_EQ(steep.slowness(), 4.0);
  EXPECT_DOUBLE_EQ(steep.ops_per_s(), 800.0);  // 100 * 4^1.5
}

TEST(HostProbeTest, SamplesAreRecordedAndPositive) {
  HostProbe probe;
  EXPECT_TRUE(probe.samples().empty());  // the warm-up sample is not kept
  double us = probe.sample();
  EXPECT_GT(us, 0.0);
  ASSERT_EQ(probe.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(HostProbe::slowness(probe.samples()), us / HostProbe::kNominalUs);
  EXPECT_DOUBLE_EQ(HostProbe::slowness({}), 1.0);
}

TEST(TracingTest, SelfTimeSubtractsChildSpans) {
  Tracing tracing(true);
  tracing.begin_window();
  {
    Tracing::Span outer(tracing, Layer::kIc, "outer");
    {
      Tracing::Span inner(tracing, Layer::kCanister, "inner");
      double until = now_us() + 2'000;
      while (now_us() < until) {
      }
    }
  }
  tracing.end_window();
  EXPECT_GE(tracing.self_us(Layer::kCanister), 2'000.0);
  EXPECT_LT(tracing.self_us(Layer::kIc), 1'000.0);
  EXPECT_EQ(tracing.spans(Layer::kIc), 1u);
  EXPECT_EQ(tracing.durations("inner").size(), 1u);
  Tracing off(false);
  { Tracing::Span span(off, Layer::kIc, "ignored"); }
  EXPECT_EQ(off.spans(Layer::kIc), 0u);
}

}  // namespace
}  // namespace perfbench
