// SLO verdict unit tests: the latency histograms' summary and merge
// contract, and the verdicts as a view over the metrics registry: targets,
// errors from `<endpoint>.errors`, name order, the `.latency_us` naming
// contract, bucket-granular `slow`, and the published gauge names.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "util/rng.h"

namespace icbtc::obs {
namespace {

// ---------------------------------------------------------------------------
// Each endpoint keeps its latencies in an obs::Histogram of microseconds.
// The verdicts read its summary, and per-replica fan-in merges one
// histogram into another, so these cases pin both on latency-shaped inputs.
// The bucket math itself is covered by HistogramTest.

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
  // contract per-replica fan-in depends on.
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

SloTargets read_write_targets() {
  SloTarget target;
  target.p50_us = 100;
  target.p99_us = 1000;
  target.error_budget = 0.1;
  return {{"api.read", target}, {"api.write", target}};
}

TEST(SloVerdictTest, VerdictAgainstTargets) {
  MetricsRegistry registry;
  Histogram& read = registry.histogram("api.read.latency_us");
  for (int i = 0; i < 99; ++i) read.record(50);
  read.record(500);  // within p99 target
  // Blow the p50 target and the error budget.
  Histogram& write = registry.histogram("api.write.latency_us");
  for (int i = 0; i < 80; ++i) write.record(500);
  for (int i = 0; i < 20; ++i) write.record(5000);
  registry.counter("api.write.errors").inc(20);

  auto verdicts = slo_verdicts(registry, read_write_targets());
  ASSERT_EQ(verdicts.size(), 2u);
  const SloVerdict& v = verdicts[0];
  EXPECT_EQ(v.endpoint, "api.read");
  EXPECT_EQ(v.requests, 100u);
  EXPECT_EQ(v.errors, 0u);
  EXPECT_EQ(v.slow, 0u);
  EXPECT_EQ(v.max_us, 500u);
  EXPECT_TRUE(v.p50_ok);
  EXPECT_TRUE(v.p99_ok);
  EXPECT_TRUE(v.ok());

  const SloVerdict& w = verdicts[1];
  EXPECT_EQ(w.endpoint, "api.write");
  EXPECT_EQ(w.requests, 100u);
  EXPECT_EQ(w.errors, 20u);
  EXPECT_EQ(w.slow, 20u);  // the 5000us records exceed the 1000us p99 target
  EXPECT_FALSE(w.p50_ok);
  EXPECT_DOUBLE_EQ(w.budget_burn, 40.0 / (0.1 * 100.0));
  EXPECT_FALSE(w.ok());

  // Without targets nothing is bounded and nothing counts as slow.
  auto unbounded = slo_verdicts(registry);
  ASSERT_EQ(unbounded.size(), 2u);
  EXPECT_EQ(unbounded[1].slow, 0u);
  EXPECT_TRUE(unbounded[1].p50_ok);
}

TEST(SloVerdictTest, VerdictsAreNameOrdered) {
  MetricsRegistry registry;
  for (const char* endpoint : {"zeta", "alpha", "mid", "alpha.b"}) {
    registry.histogram(std::string(endpoint) + ".latency_us").record(1);
  }
  // The registry sorts "alpha.b.latency_us" before "alpha.latency_us"; the
  // verdicts sort by endpoint.
  auto verdicts = slo_verdicts(registry);
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0].endpoint, "alpha");
  EXPECT_EQ(verdicts[1].endpoint, "alpha.b");
  EXPECT_EQ(verdicts[2].endpoint, "mid");
  EXPECT_EQ(verdicts[3].endpoint, "zeta");
}

TEST(SloVerdictTest, OnlyLatencyHistogramsAreEndpoints) {
  MetricsRegistry registry;
  registry.histogram("canister.get_utxos.instructions").record(7);
  registry.histogram("canister.delta.build_us").record(7);
  registry.histogram("latency_us").record(7);
  registry.histogram(".latency_us").record(7);
  registry.counter("svc.latency_us").inc();  // a counter, not a histogram
  EXPECT_TRUE(slo_verdicts(registry).empty());

  registry.histogram("svc.latency_us").record(7);
  auto verdicts = slo_verdicts(registry);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].endpoint, "svc");
  EXPECT_EQ(verdicts[0].requests, 1u);
}

TEST(SloVerdictTest, MissingErrorsCounterReadsZero) {
  MetricsRegistry registry;
  registry.histogram("svc.latency_us").record(10);
  auto verdicts = slo_verdicts(registry);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].errors, 0u);
  EXPECT_TRUE(registry.counters().empty());  // reading creates no counter

  registry.counter("svc.errors").inc(3);
  EXPECT_EQ(slo_verdicts(registry)[0].errors, 3u);
}

TEST(SloVerdictTest, SlowIsBucketGranular) {
  // `slow` counts whole buckets above the p99 target's own bucket, so a
  // sample above the target but inside its bucket is not slow, and one in
  // the next bucket is.
  constexpr std::uint64_t kTarget = 1000;
  std::uint64_t bucket_top = Histogram::bucket_upper(Histogram::bucket_index(kTarget));
  ASSERT_GT(bucket_top, kTarget);
  SloTarget target;
  target.p99_us = kTarget;
  SloTargets targets{{"svc", target}};

  MetricsRegistry registry;
  Histogram& latency = registry.histogram("svc.latency_us");
  latency.record(bucket_top);
  EXPECT_EQ(slo_verdicts(registry, targets)[0].slow, 0u);
  latency.record(bucket_top + 1);
  EXPECT_EQ(slo_verdicts(registry, targets)[0].slow, 1u);
}

TEST(SloVerdictTest, PublishedMetricNamesArePinned) {
  // The exported gauge names are API: dashboards and the CI artifact diff
  // key on them. This test pins the full set for one endpoint.
  MetricsRegistry registry;
  registry.histogram("canister.get_utxos.latency_us").record(100);
  publish_slo(registry);
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
  EXPECT_EQ(registry.gauges().size(), std::size(expected));
  EXPECT_EQ(registry.gauges().at("slo.canister.get_utxos.requests").value(), 1);
  EXPECT_EQ(registry.gauges().at("slo.canister.get_utxos.ok").value(), 1);
}

}  // namespace
}  // namespace icbtc::obs
