// SloTracker unit tests: the latency histograms' summary and merge contract,
// verdicts against targets, window rolls, published metric names, and a
// ThreadPool hammer (recording racing fan-in merges) for the sanitizer builds.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace icbtc::obs {
namespace {

// ---------------------------------------------------------------------------
// Each endpoint keeps its latencies in an obs::Histogram of microseconds.
// The verdicts read its summary, and replica fan-in (bench_load) merges one
// endpoint's histograms into another's, so these cases pin both on latency-
// shaped inputs. The bucket math itself is covered by HistogramTest.

TEST(LatencyHistogramTest, SummaryStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v : {5u, 10u, 10u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1025u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1025.0 / 4.0);
}

TEST(LatencyHistogramTest, MergeMatchesSingleHistogramOracle) {
  // Two shards fed disjoint halves of one stream must merge into exactly
  // the histogram the combined stream produces — the fixed-boundary
  // contract bench_load's replica fan-in depends on.
  Histogram a, b, oracle;
  util::Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    std::uint64_t v = rng.next() >> rng.next_below(60);
    oracle.record(v);
    (i % 2 == 0 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), oracle.count());
  EXPECT_EQ(a.sum(), oracle.sum());
  EXPECT_EQ(a.min(), oracle.min());
  EXPECT_EQ(a.max(), oracle.max());
  auto ab = a.nonzero_buckets();
  auto ob = oracle.nonzero_buckets();
  ASSERT_EQ(ab.size(), ob.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    EXPECT_EQ(ab[i].lower, ob[i].lower);
    EXPECT_EQ(ab[i].count, ob[i].count);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) EXPECT_EQ(a.quantile(q), oracle.quantile(q));
}

TEST(LatencyHistogramTest, SelfMergeDoubles) {
  Histogram h;
  for (std::uint64_t v : {10u, 20u, 30u}) h.record(v);
  h.merge(h);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
}

TEST(LatencyHistogramTest, MergeEmptyIsNoOp) {
  Histogram h, empty;
  h.record(77);
  h.merge(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 77u);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 77u);
}

TEST(SloTrackerTest, VerdictAgainstTargets) {
  SloTracker tracker;
  SloTarget target;
  target.p50_us = 100;
  target.p99_us = 1000;
  target.error_budget = 0.1;
  auto& ep = tracker.endpoint("api.read", target);
  for (int i = 0; i < 99; ++i) ep.record(50);
  ep.record(500);  // within p99 target
  SloVerdict v = ep.verdict();
  EXPECT_EQ(v.requests, 100u);
  EXPECT_EQ(v.errors, 0u);
  EXPECT_EQ(v.slow, 0u);
  EXPECT_TRUE(v.p50_ok);
  EXPECT_TRUE(v.p99_ok);
  EXPECT_TRUE(v.ok());

  // Blow the p50 target and the error budget.
  auto& bad = tracker.endpoint("api.write", target);
  for (int i = 0; i < 80; ++i) bad.record(500);
  for (int i = 0; i < 20; ++i) bad.record(5000, /*error=*/true);
  SloVerdict w = bad.verdict();
  EXPECT_EQ(w.errors, 20u);
  EXPECT_EQ(w.slow, 20u);  // the 5000us records exceed the 1000us p99 target
  EXPECT_FALSE(w.p50_ok);
  EXPECT_GT(w.budget_burn, 1.0);
  EXPECT_FALSE(w.ok());
}

TEST(SloTrackerTest, EndpointHandleIsStableAndTargetSticks) {
  SloTracker tracker;
  SloTarget target;
  target.p99_us = 42;
  auto& first = tracker.endpoint("x", target);
  SloTarget other;
  other.p99_us = 9999;
  auto& second = tracker.endpoint("x", other);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.target().p99_us, 42u);  // original registration wins
}

TEST(SloTrackerTest, WindowRollSnapshotsAndResets) {
  SloTracker tracker;
  auto& ep = tracker.endpoint("svc");
  ep.record(100);
  ep.record(200);
  EXPECT_EQ(tracker.windows_completed(), 0u);
  tracker.roll_window();
  EXPECT_EQ(tracker.windows_completed(), 1u);
  auto window = tracker.window_verdicts();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].requests, 2u);

  // The next window starts empty, but the cumulative verdict keeps history.
  ep.record(300);
  tracker.roll_window();
  window = tracker.window_verdicts();
  EXPECT_EQ(window[0].requests, 1u);
  auto total = tracker.verdicts();
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ(total[0].requests, 3u);
}

TEST(SloTrackerTest, VerdictsAreNameOrdered) {
  SloTracker tracker;
  tracker.record("zeta", 1);
  tracker.record("alpha", 1);
  tracker.record("mid", 1);
  auto verdicts = tracker.verdicts();
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[0].endpoint, "alpha");
  EXPECT_EQ(verdicts[1].endpoint, "mid");
  EXPECT_EQ(verdicts[2].endpoint, "zeta");
}

TEST(SloTrackerTest, PublishedMetricNamesArePinned) {
  // The exported gauge names are API: dashboards and the CI artifact diff
  // key on them. This test pins the full set for one endpoint.
  SloTracker tracker;
  auto& ep = tracker.endpoint("canister.get_utxos");
  ep.record(100);
  tracker.roll_window();
  MetricsRegistry registry;
  tracker.publish(registry);
  const char* expected[] = {
      "slo.canister.get_utxos.requests",      "slo.canister.get_utxos.errors",
      "slo.canister.get_utxos.slow",          "slo.canister.get_utxos.p50_us",
      "slo.canister.get_utxos.p99_us",        "slo.canister.get_utxos.p999_us",
      "slo.canister.get_utxos.max_us",        "slo.canister.get_utxos.ok",
      "slo.canister.get_utxos.budget_burn_pct",
  };
  for (const char* name : expected) {
    EXPECT_EQ(registry.gauges().count(name), 1u) << "missing gauge " << name;
  }
  EXPECT_EQ(registry.gauges().count("slo.windows"), 1u);
  EXPECT_EQ(registry.gauges().size(), std::size(expected) + 1);
  EXPECT_EQ(registry.gauges().at("slo.canister.get_utxos.requests").value(), 1);
  EXPECT_EQ(registry.gauges().at("slo.canister.get_utxos.ok").value(), 1);
  EXPECT_EQ(registry.gauges().at("slo.windows").value(), 1);
}

TEST(SloTrackerHammerTest, ParallelRecordingLosesNothing) {
  // TSan target: many pool workers hammer one tracker — handles resolved
  // up front (the hot-path contract) and via the name-resolving record().
  SloTracker tracker;
  auto& fast = tracker.endpoint("hammer.fast");
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 500;
  parallel::ThreadPool pool(4);
  pool.run(kTasks, [&](std::size_t i) {
    for (int j = 0; j < kPerTask; ++j) {
      fast.record(static_cast<std::uint64_t>(i * 131 + static_cast<std::size_t>(j) % 97),
                  /*error=*/j % 100 == 0);
      tracker.record("hammer.slow", 1000 + static_cast<std::uint64_t>(j));
    }
  });
  EXPECT_EQ(fast.requests(), kTasks * kPerTask);
  EXPECT_EQ(fast.errors(), kTasks * (kPerTask / 100));
  EXPECT_EQ(tracker.endpoint("hammer.slow").requests(), kTasks * kPerTask);
  EXPECT_EQ(fast.histogram().count(), kTasks * kPerTask);

  // Concurrent merges into a fan-in histogram while recording continues.
  Histogram fanin;
  pool.run(kTasks, [&](std::size_t i) {
    if (i % 2 == 0) {
      fanin.merge(tracker.endpoint("hammer.slow").histogram());
    } else {
      tracker.record("hammer.slow", 5);
    }
  });
  EXPECT_GE(fanin.count(), 1u);
}

}  // namespace
}  // namespace icbtc::obs
