// Tracer unit tests (span stack, attributes, flight-recorder ring, slow-op
// watchdog) plus the tracing determinism guarantees: pool and serial runs
// export byte-identical traces, and two identically seeded full-stack runs
// export byte-identical trace and Chrome JSON.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include "adapter/adapter.h"
#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "canister/bitcoin_canister.h"
#include "canister/integration.h"
#include "obs/trace_export.h"
#include "parallel/thread_pool.h"

namespace icbtc::obs {
namespace {

/// A tracer on a manually advanced deterministic clock.
struct ManualClock {
  TraceTime now = 0;

  void install(Tracer& tracer) {
    tracer.set_clock([this] { return now; });
  }
};

TEST(TracerTest, RootSpansStartNewTraces) {
  Tracer tracer;
  SpanContext a = tracer.begin_span("a", "test");
  tracer.end_span(a);
  SpanContext b = tracer.begin_span("b", "test");
  tracer.end_span(b);
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(a.span_id, b.span_id);
  ASSERT_EQ(tracer.finished_spans().size(), 2u);
  EXPECT_EQ(tracer.finished_spans()[0].parent_id, 0u);
}

TEST(TracerTest, ScopedSpanStackGivesImplicitParents) {
  Tracer tracer;
  SpanContext outer_ctx, inner_ctx;
  {
    ScopedSpan outer(&tracer, "outer", "test");
    outer_ctx = outer.context();
    EXPECT_EQ(tracer.current(), outer_ctx);
    {
      ScopedSpan inner(&tracer, "inner", "test");
      inner_ctx = inner.context();
      EXPECT_EQ(tracer.current(), inner_ctx);
    }
    EXPECT_EQ(tracer.current(), outer_ctx);
  }
  EXPECT_FALSE(tracer.current().valid());
  ASSERT_EQ(tracer.finished_spans().size(), 2u);
  // Inner finishes first; it belongs to the outer's trace.
  const SpanRecord& inner = tracer.finished_spans()[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent_id, outer_ctx.span_id);
  EXPECT_EQ(inner.trace_id, outer_ctx.trace_id);
}

TEST(TracerTest, ExplicitParentCarriesCausalityAcrossEvents) {
  Tracer tracer;
  SpanContext parent = tracer.begin_span("send", "test");
  tracer.end_span(parent);
  // Later (e.g. at message delivery), with an empty stack:
  SpanContext child = tracer.begin_span("deliver", "test", parent);
  tracer.end_span(child);
  EXPECT_EQ(tracer.finished_spans()[1].parent_id, parent.span_id);
  EXPECT_EQ(tracer.finished_spans()[1].trace_id, parent.trace_id);
}

TEST(TracerTest, AttributesRenderDeterministicallyAndLastWriteWins) {
  Tracer tracer;
  ScopedSpan span(&tracer, "s", "test");
  span.attr("height", 42);
  span.attr("bytes", static_cast<std::uint64_t>(7));
  span.attr("ratio", 0.5);
  span.attr("txid", "ab\"cd");
  span.attr("height", 43);  // overwrite, not duplicate
  span.end();
  const auto& attrs = tracer.finished_spans()[0].attrs;
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs[0], (std::pair<std::string, std::string>{"height", "43"}));
  EXPECT_EQ(attrs[1], (std::pair<std::string, std::string>{"bytes", "7"}));
  EXPECT_EQ(attrs[2], (std::pair<std::string, std::string>{"ratio", "0.5"}));
  EXPECT_EQ(attrs[3], (std::pair<std::string, std::string>{"txid", "\"ab\\\"cd\""}));
}

TEST(TracerTest, EndAtClampsToStart) {
  Tracer tracer;
  ManualClock clock;
  clock.install(tracer);
  clock.now = 100;
  SpanContext ctx = tracer.begin_span("s", "test");
  tracer.end_span_at(ctx, 50);  // before start: clamped
  EXPECT_EQ(tracer.finished_spans()[0].end, 100);
  EXPECT_EQ(tracer.finished_spans()[0].duration(), 0);
}

TEST(TracerTest, NullTracerScopedSpanIsInert) {
  ScopedSpan span(nullptr, "s", "test");
  EXPECT_FALSE(span.active());
  span.attr("k", 1);
  span.event(Severity::kInfo, "e");
  span.end();  // no crash
}

TEST(TracerTest, MaxSpansCapCountsDrops) {
  TracerConfig config;
  config.max_spans = 2;
  Tracer tracer(config);
  for (int i = 0; i < 5; ++i) {
    tracer.end_span(tracer.begin_span("s", "test"));
  }
  EXPECT_EQ(tracer.finished_spans().size(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 3u);
}

TEST(FlightRecorderTest, RingKeepsNewestEventsInOrder) {
  TracerConfig config;
  config.event_capacity = 4;
  Tracer tracer(config);
  ManualClock clock;
  clock.install(tracer);
  for (int i = 0; i < 10; ++i) {
    clock.now = i;
    tracer.event(Severity::kInfo, std::string("e").append(std::to_string(i)));
  }
  EXPECT_EQ(tracer.total_events(), 10u);
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].name, std::string("e").append(std::to_string(6 + i)));
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(FlightRecorderTest, EventsBindToTheCurrentSpan) {
  Tracer tracer;
  ScopedSpan span(&tracer, "s", "test");
  tracer.event(Severity::kWarn, "inside");
  span.end();
  tracer.event(Severity::kError, "outside");
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].span_id, span.context().span_id);
  EXPECT_EQ(events[0].trace_id, span.context().trace_id);
  EXPECT_EQ(events[1].span_id, 0u);
}

TEST(WatchdogTest, SlowSpanEmitsWarnEvent) {
  TracerConfig config;
  config.slow_span_budget = 10;
  Tracer tracer(config);
  ManualClock clock;
  clock.install(tracer);
  SpanContext fast = tracer.begin_span("fast", "test");
  clock.now = 10;
  tracer.end_span(fast);  // duration == budget: not slow
  SpanContext slow = tracer.begin_span("slow_op", "test");
  clock.now = 30;
  tracer.end_span(slow);  // 20us > 10us budget
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "slow_span");
  EXPECT_EQ(events[0].severity, Severity::kWarn);
  EXPECT_EQ(events[0].span_id, slow.span_id);
  EXPECT_NE(events[0].detail.find("slow_op took 20us"), std::string::npos);
}

TEST(WatchdogTest, CategoryBudgetOverridesDefault) {
  TracerConfig config;
  config.slow_span_budget = 1000;
  Tracer tracer(config);
  tracer.set_slow_budget("canister", 5);
  ManualClock clock;
  clock.install(tracer);
  SpanContext a = tracer.begin_span("a", "btcnet");
  clock.now = 100;
  tracer.end_span(a);  // 100us < default 1000us: fine
  SpanContext b = tracer.begin_span("b", "canister");
  clock.now = 200;
  tracer.end_span(b);  // 100us > category 5us: slow
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span_id, b.span_id);
}

TEST(RequestCostTest, RecordsAccumulateAndExport) {
  Tracer tracer;
  tracer.record_request_cost({"get_utxos", 7, 1234, 56789, 492, 1000000});
  ASSERT_EQ(tracer.request_costs().size(), 1u);
  std::string json = to_trace_json(tracer);
  EXPECT_NE(json.find("\"endpoint\":\"get_utxos\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"instructions\":56789"), std::string::npos);
  EXPECT_NE(json.find("\"response_bytes\":492"), std::string::npos);
}

TEST(ExportTest, SpanTreeNestsChildrenUnderParents) {
  Tracer tracer;
  ManualClock clock;
  clock.install(tracer);
  {
    ScopedSpan outer(&tracer, "outer", "test");
    clock.now = 5;
    ScopedSpan inner(&tracer, "inner", "test");
    clock.now = 9;
    inner.end();
    clock.now = 12;
  }
  std::string json = to_trace_json(tracer);
  // inner appears inside outer's children array.
  auto outer_pos = json.find("\"name\":\"outer\"");
  auto inner_pos = json.find("\"name\":\"inner\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(json.find("\"duration_us\":4"), std::string::npos);   // inner
  EXPECT_NE(json.find("\"duration_us\":12"), std::string::npos);  // outer
}

TEST(ExportTest, ChromeTraceHasMetadataCompleteAndInstantEvents) {
  Tracer tracer;
  ManualClock clock;
  clock.install(tracer);
  {
    ScopedSpan span(&tracer, "work", "canister");
    clock.now = 4;
    tracer.event(Severity::kInfo, "mark", "detail");
  }
  std::string json = to_chrome_trace(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"canister\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant event
}

TEST(ExportTest, FlightRecorderTextListsEvents) {
  Tracer tracer;
  EXPECT_EQ(flight_recorder_text(tracer), "(flight recorder empty)\n");
  tracer.event(Severity::kWarn, "fork_detected", "f1 competes at height 2");
  std::string text = flight_recorder_text(tracer);
  EXPECT_NE(text.find("warn"), std::string::npos);
  EXPECT_NE(text.find("fork_detected"), std::string::npos);
  EXPECT_NE(text.find("f1 competes at height 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Full-stack determinism: network + adapter + canister wired to one tracer on
// simulation time. Identical seeds must export identical bytes — with and
// without the shared thread pool.

std::string run_seeded_trace(std::uint64_t seed, bool with_pool) {
  if (with_pool) parallel::set_shared_pool(4);

  std::string out;
  {
    util::Simulation sim;
    const auto& params = bitcoin::ChainParams::regtest();
    btcnet::BitcoinNetworkConfig config;
    config.num_nodes = 6;
    config.num_miners = 1;
    config.ipv6_fraction = 1.0;
    btcnet::BitcoinNetworkHarness harness(sim, params, config, seed);

    Tracer tracer;
    tracer.set_clock([&sim] { return sim.now(); });
    harness.network().set_tracer(&tracer);
    for (std::size_t i = 0; i < config.num_nodes; ++i) {
      harness.node(i).set_tracer(&tracer);
    }

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
    adapter.set_tracer(&tracer);
    adapter.start();
    sim.run_until(sim.now() + 60 * util::kSecond);

    canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
    canister.set_tracer(&tracer);
    for (int i = 0; i < 20; ++i) {
      auto request = canister.make_request();
      auto response = adapter.handle_request(request);
      canister.process_response(response,
                                static_cast<std::int64_t>(params.genesis_header.time) +
                                    sim.now() / util::kSecond + 1000000);
      sim.run_until(sim.now() + util::kSecond);
    }
    harness.network().set_tracer(nullptr);
    out = to_trace_json(tracer) + "\n---\n" + to_chrome_trace(tracer);
  }

  if (with_pool) parallel::set_shared_pool(0);
  return out;
}

TEST(TraceDeterminismTest, IdenticalSeededRunsExportIdenticalTraces) {
  std::string a = run_seeded_trace(42, false);
  std::string b = run_seeded_trace(42, false);
  EXPECT_EQ(a, b);
  // Sanity: spans from every layer made it in.
  EXPECT_NE(a.find("net."), std::string::npos);
  EXPECT_NE(a.find("adapter.handle_request"), std::string::npos);
  EXPECT_NE(a.find("canister.process_response"), std::string::npos);
  EXPECT_NE(a.find("canister.ingest_block"), std::string::npos);
  EXPECT_NE(a.find("anchor_advanced"), std::string::npos);
}

TEST(TraceDeterminismTest, SharedPoolDoesNotChangeTheExportedBytes) {
  std::string serial = run_seeded_trace(42, false);
  std::string pooled = run_seeded_trace(42, true);
  // The pooled run builds block deltas and applies stable blocks on the
  // pool; the exported spans must not betray which threads did the work.
  EXPECT_EQ(serial, pooled);
}

// ---------------------------------------------------------------------------
// Acceptance: one replicated get_utxos through the full integration yields
// one trace record whose span tree binds latency + instructions + bytes.

TEST(RequestTraceTest, ReplicatedGetUtxosProducesOneCostRecordWithSpanTree) {
  util::Simulation sim;
  const auto& params = bitcoin::ChainParams::regtest();
  btcnet::BitcoinNetworkConfig btc_config;
  btc_config.num_nodes = 6;
  btc_config.num_miners = 1;
  btc_config.ipv6_fraction = 1.0;
  btcnet::BitcoinNetworkHarness harness(sim, params, btc_config, 2024);
  sim.run();

  ic::Subnet subnet(sim, ic::SubnetConfig{}, 31337);
  canister::IntegrationConfig config;
  config.adapter.addr_lower_threshold = 3;
  config.adapter.addr_upper_threshold = 5;
  config.canister = canister::CanisterConfig::for_params(params);
  canister::BitcoinIntegration integration(subnet, harness.network(), params, config, 555);

  Tracer tracer;
  tracer.set_clock([&sim] { return sim.now(); });
  integration.set_tracer(&tracer);

  subnet.start();
  integration.start();
  auto* miner = harness.miners()[0];
  for (int i = 0; i < 10; ++i) {
    sim.run_until(sim.now() + 600 * util::kSecond);
    miner->mine_one();
  }
  sim.run_until(sim.now() + 120 * util::kSecond);
  ASSERT_TRUE(integration.canister().is_synced());

  std::size_t costs_before = tracer.request_costs().size();
  canister::GetUtxosRequest request;
  request.address = bitcoin::p2pkh_address(util::Hash160{}, bitcoin::Network::kRegtest);
  auto result = integration.replicated_get_utxos(request);
  ASSERT_TRUE(result.outcome.ok());

  // Exactly one new cost record, carrying exactly what the caller observed.
  ASSERT_EQ(tracer.request_costs().size(), costs_before + 1);
  const RequestCostRecord& record = tracer.request_costs().back();
  EXPECT_EQ(record.endpoint, "get_utxos");
  EXPECT_EQ(record.latency_us, result.latency);
  EXPECT_EQ(record.instructions, result.instructions);
  EXPECT_EQ(record.response_bytes, result.response_bytes);
  EXPECT_EQ(record.cycles, result.cycles);
  EXPECT_GT(record.latency_us, 0);
  EXPECT_GT(record.instructions, 0u);
  EXPECT_GT(record.response_bytes, 0u);

  // The record's trace has a span tree: request.get_utxos with the
  // canister.get_utxos execution span nested under it.
  const SpanRecord* root = nullptr;
  const SpanRecord* child = nullptr;
  for (const auto& span : tracer.finished_spans()) {
    if (span.trace_id != record.trace_id) continue;
    if (span.name == "request.get_utxos") root = &span;
    if (span.name == "canister.get_utxos") child = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(root->duration(), result.latency);
  // And the root span's attrs bind the same numbers.
  bool saw_latency = false, saw_instructions = false, saw_bytes = false;
  for (const auto& [key, value] : root->attrs) {
    if (key == "latency_us") {
      saw_latency = true;
      EXPECT_EQ(value, std::to_string(result.latency));
    }
    if (key == "instructions") {
      saw_instructions = true;
      EXPECT_EQ(value, std::to_string(result.instructions));
    }
    if (key == "response_bytes") {
      saw_bytes = true;
      EXPECT_EQ(value, std::to_string(result.response_bytes));
    }
  }
  EXPECT_TRUE(saw_latency);
  EXPECT_TRUE(saw_instructions);
  EXPECT_TRUE(saw_bytes);
}

}  // namespace
}  // namespace icbtc::obs
