// MetricsRegistry and Histogram unit tests plus the observability
// determinism guarantee: two identical seeded simulation runs must export
// byte-identical JSON.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "adapter/adapter.h"
#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "canister/bitcoin_canister.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace icbtc::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
}

// ---------------------------------------------------------------------------
// Histogram: fixed-geometry bucket math, quantile determinism, exact merges.

TEST(HistogramTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    std::size_t idx = Histogram::bucket_index(v);
    EXPECT_EQ(idx, static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::bucket_lower(idx), v);
    EXPECT_EQ(Histogram::bucket_upper(idx), v);
  }
}

TEST(HistogramTest, EveryValueLandsInsideItsBucket) {
  util::Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Exercise every octave: random mantissa at a random bit width.
    std::uint64_t width = rng.next_below(64);
    std::uint64_t v = rng.next() >> width;
    std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_GE(v, Histogram::bucket_lower(idx));
    EXPECT_LE(v, Histogram::bucket_upper(idx));
  }
}

TEST(HistogramTest, BucketBoundariesAreContiguousAndSorted) {
  // upper(i) + 1 == lower(i+1) across the whole table: no gaps, no overlap.
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    ASSERT_EQ(Histogram::bucket_upper(i) + 1, Histogram::bucket_lower(i + 1))
        << "discontinuity at bucket " << i;
  }
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBucketCount - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistogramTest, RelativeBucketWidthIsBounded) {
  // The HDR guarantee: bucket width / lower bound <= 2^(1-kSubBits).
  const double kMaxRelative = 1.0 / static_cast<double>(Histogram::kSubBuckets / 2);
  for (std::size_t i = Histogram::kSubBuckets; i < Histogram::kBucketCount; ++i) {
    double lower = static_cast<double>(Histogram::bucket_lower(i));
    double width =
        static_cast<double>(Histogram::bucket_upper(i) - Histogram::bucket_lower(i) + 1);
    EXPECT_LE(width / lower, kMaxRelative + 1e-12) << "bucket " << i;
  }
}

TEST(HistogramTest, BucketUpperBoundsAreInclusive) {
  // 100 and 101 share the bucket [100, 101]; 102 opens the next one.
  Histogram h;
  for (std::uint64_t v : {100u, 101u, 102u}) h.record(v);
  auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].lower, 100u);
  EXPECT_EQ(buckets[0].upper, 101u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[1].lower, 102u);
  EXPECT_EQ(buckets[1].count, 1u);
}

TEST(HistogramTest, SummaryStatistics) {
  // count/sum/min/max stay exact where the buckets are not: 10^12 lies in a
  // bucket 2^34 values wide.
  const std::uint64_t kTop = 1'000'000'000'000;
  std::size_t top = Histogram::bucket_index(kTop);
  ASSERT_EQ(Histogram::bucket_upper(top) - Histogram::bucket_lower(top) + 1, 1ULL << 34);
  Histogram h;
  const std::uint64_t values[] = {1, 1'000, 1'000'000, kTop};
  for (std::uint64_t v : values) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1'000'001'001'001u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), kTop);
  EXPECT_DOUBLE_EQ(h.mean(), 1'000'001'001'001.0 / 4.0);
}

TEST(HistogramTest, QuantilesClampToObservedRange) {
  // 1000 falls in the bucket [992, 1007], whose midpoint is 999: the
  // estimate is clamped to the observed [min, max] instead.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  EXPECT_EQ(h.quantile(0.0), 1000u);
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(HistogramTest, SingleObservationIsEveryQuantile) {
  Histogram h;
  h.record(12345);
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 12345u) << "q=" << q;
  }
}

TEST(HistogramTest, ExtremeQuantilesReturnObservedMinAndMax) {
  // Values below kSubBuckets have exact buckets, so the extremes are exact.
  Histogram h;
  for (std::uint64_t v : {3u, 7u, 42u}) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 3u);
  EXPECT_EQ(h.quantile(1.0), 42u);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_EQ(h.quantile(-0.5), 3u);
  EXPECT_EQ(h.quantile(1.5), 42u);
}

TEST(HistogramTest, ExactQuantilesBelowSubBucketRange) {
  // Values < 64 are bucketed exactly, so quantiles are exact nearest-rank.
  Histogram h;
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 25u);
  EXPECT_EQ(h.quantile(1.0), 50u);
}

TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; v += 7) h.record(v);
  std::uint64_t p50 = h.quantile(0.5);
  std::uint64_t p90 = h.quantile(0.9);
  std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, QuantileErrorWithinBucketBound) {
  Histogram h;
  util::Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = 100 + rng.next_below(1'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    double exact = static_cast<double>(values[rank]);
    double est = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(est, exact, exact * 0.04) << "q=" << q;  // ~3.2% bucket width
  }
}

TEST(HistogramTest, MergeMatchesSingleHistogramOracle) {
  // Three shards of one stream, merged in two different orders, each give
  // exactly the histogram a single instance observing the full stream holds:
  // the fixed-boundary contract that makes sharded collection exact.
  Histogram shard[3], oracle;
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(i) * 7919 % 1'000'000;
    oracle.record(v);
    shard[i % 3].record(v);
  }
  Histogram forward, backward;
  for (int s : {0, 1, 2}) forward.merge(shard[s]);
  for (int s : {2, 1, 0}) backward.merge(shard[s]);
  auto ob = oracle.nonzero_buckets();
  for (const Histogram* m : {&forward, &backward}) {
    EXPECT_EQ(m->count(), oracle.count());
    EXPECT_EQ(m->sum(), oracle.sum());
    EXPECT_EQ(m->min(), oracle.min());
    EXPECT_EQ(m->max(), oracle.max());
    auto mb = m->nonzero_buckets();
    ASSERT_EQ(mb.size(), ob.size());
    for (std::size_t i = 0; i < mb.size(); ++i) {
      EXPECT_EQ(mb[i].lower, ob[i].lower);
      EXPECT_EQ(mb[i].upper, ob[i].upper);
      EXPECT_EQ(mb[i].count, ob[i].count);
    }
    for (double q : {0.5, 0.9, 0.99}) EXPECT_EQ(m->quantile(q), oracle.quantile(q));
  }
}

TEST(HistogramTest, SelfMergeDoublesAndEmptyMergeIsNoOp) {
  Histogram h;
  h.record(5);
  h.record(50);
  h.merge(h);  // snapshot-then-apply: self-merge must not deadlock
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 50u);

  Histogram empty;
  h.merge(empty);
  EXPECT_EQ(h.count(), 4u);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 4u);
  EXPECT_EQ(empty.min(), 5u);
}

TEST(HistogramTest, CountAboveThreshold) {
  Histogram h;
  for (std::uint64_t v : {10u, 20u, 40u, 50000u, 60000u}) h.record(v);
  EXPECT_EQ(h.count_above(40), 2u);  // exact below kSubBuckets
  EXPECT_EQ(h.count_above(100000), 0u);
  EXPECT_EQ(h.count_above(0), 5u);
}

TEST(RegistryTest, ReferencesAreStableAcrossInsertions) {
  MetricsRegistry r;
  Counter& c = r.counter("first");
  Histogram& h = r.histogram("first.h");
  for (int i = 0; i < 100; ++i) {
    r.counter("extra." + std::to_string(i));
    r.histogram("extra.h." + std::to_string(i));
  }
  c.inc(7);
  EXPECT_EQ(r.counter("first").value(), 7u);
  EXPECT_EQ(&r.histogram("first.h"), &h);
}

TEST(RegistryTest, HistogramBoundsFixedOnFirstUse) {
  // The registry takes no bounds: the first lookup makes a histogram with
  // the one shared geometry, and later lookups return that histogram with
  // its observations intact.
  MetricsRegistry r;
  const std::uint64_t kInstructions = 1'000'000'000'000;
  Histogram& h = r.histogram("h");
  h.record(kInstructions);
  Histogram& again = r.histogram("h");
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.count(), 1u);
  auto buckets = again.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 1u);
  std::size_t idx = Histogram::bucket_index(kInstructions);
  EXPECT_EQ(buckets[0].lower, Histogram::bucket_lower(idx));
  EXPECT_EQ(buckets[0].upper, Histogram::bucket_upper(idx));
}

TEST(JsonTest, EmptyRegistry) {
  MetricsRegistry r;
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

TEST(JsonTest, ValuesAndSparseBuckets) {
  MetricsRegistry r;
  r.counter("events").inc(3);
  r.gauge("level").set(-2);
  Histogram& h = r.histogram("dist");
  h.record(0);
  h.record(100);
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"level\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 100"), std::string::npos);
  // Each bucket is labelled by its inclusive upper bound: 100 lies in [100, 101].
  EXPECT_NE(json.find("\"buckets\": [{\"le\": 0, \"count\": 1}, {\"le\": 101, \"count\": 1}]"),
            std::string::npos);
}

TEST(JsonTest, EscapesMetricNames) {
  MetricsRegistry r;
  r.counter("we\"ird\\name").inc();
  std::string json = to_json(r);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TableTest, RendersCountersGaugesAndHistograms) {
  MetricsRegistry r;
  r.counter("net.messages").inc(12);
  r.gauge("adapter.peers").set(5);
  r.histogram("lat").record(3);
  std::string table = to_table(r);
  EXPECT_NE(table.find("net.messages"), std::string::npos);
  EXPECT_NE(table.find("12"), std::string::npos);
  EXPECT_NE(table.find("adapter.peers"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Thread safety: metrics are written from pool workers during parallel
// ingestion, so concurrent updates must neither tear nor lose increments.
// Run under `-L sanitize` these double as TSan regression tests.

TEST(ThreadSafetyTest, CountersAndGaugesSurviveConcurrentHammering) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hammered");
  Gauge& gauge = registry.gauge("level");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kIncrementsPerTask = 10000;
  parallel::ThreadPool pool(4);
  parallel::parallel_for(&pool, kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kIncrementsPerTask; ++i) {
      counter.inc();
      gauge.add(2);
      gauge.add(-1);
    }
  });
  EXPECT_EQ(counter.value(), kTasks * kIncrementsPerTask);
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kTasks * kIncrementsPerTask));
}

TEST(ThreadSafetyTest, HistogramObservationsAreNotLost) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  constexpr std::size_t kTasks = 32;
  constexpr int kObservationsPerTask = 2000;
  parallel::ThreadPool pool(4);
  parallel::parallel_for(&pool, kTasks, [&](std::size_t task) {
    for (int i = 0; i < kObservationsPerTask; ++i) {
      h.record(task % 3 == 0 ? 5 : 50);
    }
  });
  EXPECT_EQ(h.count(), kTasks * kObservationsPerTask);
  std::uint64_t bucket_total = 0;
  for (const Histogram::Bucket& b : h.nonzero_buckets()) bucket_total += b.count;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ThreadSafetyTest, RegistryCreationRacesResolveToOneMetric) {
  MetricsRegistry registry;
  constexpr std::size_t kTasks = 48;
  parallel::ThreadPool pool(4);
  parallel::parallel_for(&pool, kTasks, [&](std::size_t task) {
    // Everyone races to create the same counter, plus one private each.
    registry.counter("shared").inc();
    registry.counter("private." + std::to_string(task)).inc();
    registry.histogram("shared.h").record(1);
  });
  EXPECT_EQ(registry.counter("shared").value(), kTasks);
  EXPECT_EQ(registry.histogram("shared.h").count(), kTasks);
}

// ---------------------------------------------------------------------------
// Determinism: a full simulated stack (network + adapter + canister), all
// wired to one registry, must export byte-identical JSON for identical seeds.

std::string run_seeded_snapshot(std::uint64_t seed) {
  util::Simulation sim;
  const auto& params = bitcoin::ChainParams::regtest();
  btcnet::BitcoinNetworkConfig config;
  config.num_nodes = 6;
  config.num_miners = 1;
  config.ipv6_fraction = 1.0;
  btcnet::BitcoinNetworkHarness harness(sim, params, config, seed);
  MetricsRegistry registry;
  harness.network().set_metrics(&registry);
  sim.run();
  auto* miner = harness.miners()[0];
  for (int i = 0; i < 8; ++i) {
    sim.run_until(sim.now() + 700 * util::kSecond);
    miner->mine_one();
  }
  sim.run();

  adapter::AdapterConfig aconfig;
  aconfig.addr_lower_threshold = 3;
  aconfig.addr_upper_threshold = 5;
  adapter::BitcoinAdapter adapter(harness.network(), params, aconfig, util::Rng(seed + 1));
  adapter.set_metrics(&registry);
  adapter.start();
  sim.run_until(sim.now() + 60 * util::kSecond);

  canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
  canister.set_metrics(&registry);
  for (int i = 0; i < 20; ++i) {
    auto request = canister.make_request();
    auto response = adapter.handle_request(request);
    canister.process_response(response,
                              static_cast<std::int64_t>(params.genesis_header.time) +
                                  sim.now() / util::kSecond + 1000000);
    sim.run_until(sim.now() + util::kSecond);
  }
  // Exercise the query endpoints so their histograms carry data too.
  canister.get_current_fee_percentiles();
  canister.get_balance(bitcoin::p2pkh_address(util::Hash160{}, bitcoin::Network::kRegtest), 0);
  harness.network().set_metrics(nullptr);
  return to_json(registry);
}

TEST(DeterminismTest, IdenticalSeededRunsExportIdenticalJson) {
  std::string a = run_seeded_snapshot(42);
  std::string b = run_seeded_snapshot(42);
  EXPECT_EQ(a, b);
  // Sanity: the run actually produced metrics in every section.
  EXPECT_NE(a.find("net.messages"), std::string::npos);
  EXPECT_NE(a.find("adapter.peers"), std::string::npos);
  EXPECT_NE(a.find("canister.process_response.calls"), std::string::npos);
}

}  // namespace
}  // namespace icbtc::obs
