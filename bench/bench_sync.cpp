// Algorithm 1 + Algorithm 2 sync throughput, and the design ablations called
// out in DESIGN.md: multi-block vs single-block responses (sync speed vs the
// §IV-A downtime defence) and the MAX_HEADERS cap. The process exits nonzero
// if any configuration ends short of the chain tip or uses up its iteration
// budget.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "adapter/adapter.h"
#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "canister/bitcoin_canister.h"
#include "obs/metrics.h"

namespace {

using namespace icbtc;

struct SyncSetup {
  util::Simulation sim;
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  std::unique_ptr<btcnet::BitcoinNetworkHarness> harness;

  explicit SyncSetup(int chain_length, std::uint64_t seed) {
    btcnet::BitcoinNetworkConfig config;
    config.num_nodes = 8;
    config.num_miners = 1;
    config.ipv6_fraction = 1.0;
    harness = std::make_unique<btcnet::BitcoinNetworkHarness>(sim, params, config, seed);
    sim.run();
    auto* miner = harness->miners()[0];
    for (int i = 0; i < chain_length; ++i) {
      sim.run_until(sim.now() + 700 * util::kSecond);
      miner->mine_one();
    }
    sim.run();
  }
};

/// Request/response round-trips one sync may take.
constexpr int kMaxSyncIterations = 10000;

/// Fully syncs a fresh canister through a fresh adapter; returns the number
/// of request/response iterations used.
struct SyncStats {
  int iterations = 0;
  util::SimTime wall = 0;
  std::size_t blocks = 0;
  /// Height up to which the canister holds blocks when the sync ends.
  int height = 0;
};

SyncStats sync_canister(SyncSetup& setup, adapter::AdapterConfig adapter_config,
                        int target_height, std::uint64_t seed,
                        obs::MetricsRegistry* metrics = nullptr) {
  adapter::BitcoinAdapter adapter(setup.harness->network(), setup.params, adapter_config,
                                  util::Rng(seed));
  adapter.set_metrics(metrics);
  setup.harness->network().set_metrics(metrics);
  adapter.start();
  setup.sim.run_until(setup.sim.now() + 60 * util::kSecond);  // header sync

  canister::BitcoinCanister canister(setup.params,
                                     canister::CanisterConfig::for_params(setup.params));
  canister.set_metrics(metrics);
  SyncStats stats;
  util::SimTime start = setup.sim.now();
  // Sync is complete once the canister holds the *blocks* to the target
  // height (headers alone arrive much earlier through the N sets).
  auto blocks_height = [&] {
    return canister.anchor_height() + static_cast<int>(canister.unstable_block_count());
  };
  for (int i = 0; i < kMaxSyncIterations && blocks_height() < target_height; ++i) {
    auto request = canister.make_request();
    auto response = adapter.handle_request(request);
    canister.process_response(
        response, static_cast<std::int64_t>(setup.params.genesis_header.time) +
                      setup.sim.now() / util::kSecond + 1000000);
    ++stats.iterations;
    stats.blocks += response.blocks.size();
    // Background block fetches happen between requests (the canister polls
    // periodically; model one second per round-trip).
    setup.sim.run_until(setup.sim.now() + util::kSecond);
  }
  stats.wall = setup.sim.now() - start;
  stats.height = blocks_height();
  setup.harness->network().set_metrics(nullptr);
  return stats;
}

/// Dumps a full metrics snapshot: to stdout, and to $ICBTC_METRICS_JSON if
/// set (the machine-readable BENCH_*.json path for downstream tooling).
void emit_metrics_snapshot(const obs::MetricsRegistry& metrics, const char* bench_name) {
  std::string json = obs::to_json(metrics);
  std::printf("--- %s metrics snapshot (obs::to_json) ---\n%s", bench_name, json.c_str());
  if (const char* path = std::getenv("ICBTC_METRICS_JSON"); path != nullptr) {
    if (std::FILE* f = std::fopen(path, "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("(written to %s)\n", path);
    }
  }
}

/// Returns false if any configuration failed to sync the whole chain.
bool run_sync_table() {
  std::printf("\n--- Algorithm 1/2: initial sync throughput & ablations ---\n");
  const int kChain = 120;
  SyncSetup setup(kChain, 20250101);

  std::printf("%-34s %-12s %-12s %-10s\n", "configuration", "iterations", "sim time",
              "blocks");
  struct Case {
    const char* name;
    std::size_t max_headers;
    int multi_below;
  };
  obs::MetricsRegistry metrics;
  bool first = true;
  bool pass = true;
  for (const Case& c : {Case{"multi-block, MAX_HEADERS=100", 100, 1 << 30},
                        Case{"multi-block, MAX_HEADERS=10", 10, 1 << 30},
                        Case{"single-block (post-checkpoint)", 100, 0},
                        Case{"single-block, MAX_HEADERS=10", 10, 0}}) {
    adapter::AdapterConfig config;
    config.addr_lower_threshold = 3;
    config.addr_upper_threshold = 6;
    config.max_headers = c.max_headers;
    config.multi_block_below_height = c.multi_below;
    // Only the first configuration is instrumented, so the snapshot below is
    // a single clean run rather than a blend of all four ablations.
    auto stats = sync_canister(setup, config, kChain,
                               static_cast<std::uint64_t>(c.max_headers) * 31 +
                                   static_cast<std::uint64_t>(c.multi_below != 0),
                               first ? &metrics : nullptr);
    first = false;
    std::printf("%-34s %-12d %-12s %-10zu\n", c.name, stats.iterations,
                util::format_time(stats.wall).c_str(), stats.blocks);
    if (stats.height < kChain || stats.iterations >= kMaxSyncIterations) {
      std::printf("FAIL: '%s' holds blocks to height %d of %d after %d iterations\n", c.name,
                  stats.height, kChain, stats.iterations);
      pass = false;
    }
  }
  std::printf("\nMulti-block responses sync the chain in far fewer consensus rounds;\n");
  std::printf("single-block mode trades sync speed for the Lemma IV.3 defence (one\n");
  std::printf("Byzantine block maker can inject at most one block per round).\n\n");
  emit_metrics_snapshot(metrics, "multi-block MAX_HEADERS=100 sync");
  return pass;
}

void BM_HandleRequest(benchmark::State& state) {
  static SyncSetup setup(60, 7);
  adapter::AdapterConfig config;
  config.addr_lower_threshold = 3;
  config.addr_upper_threshold = 6;
  config.multi_block_below_height = 1 << 30;
  static adapter::BitcoinAdapter adapter(setup.harness->network(), setup.params, config,
                                         util::Rng(8));
  static bool started = [&] {
    adapter.start();
    setup.sim.run_until(setup.sim.now() + 120 * util::kSecond);
    // Warm the block store.
    adapter::AdapterRequest warm;
    warm.anchor = setup.params.genesis_header.hash();
    for (int i = 0; i < 30; ++i) {
      adapter.handle_request(warm);
      setup.sim.run_until(setup.sim.now() + 5 * util::kSecond);
    }
    return true;
  }();
  (void)started;
  adapter::AdapterRequest request;
  request.anchor = setup.params.genesis_header.hash();
  for (auto _ : state) {
    benchmark::DoNotOptimize(adapter.handle_request(request));
  }
}
BENCHMARK(BM_HandleRequest)->Unit(benchmark::kMicrosecond);

void BM_ProcessResponse(benchmark::State& state) {
  // Measures Algorithm 2 on a response of `range` blocks.
  const auto& params = bitcoin::ChainParams::regtest();
  chain::HeaderTree tree(params, params.genesis_header);
  std::uint32_t time = params.genesis_header.time;
  util::Hash256 tip = params.genesis_header.hash();
  std::uint64_t tag = 1;
  std::vector<bitcoin::Block> blocks;
  for (int i = 0; i < state.range(0); ++i) {
    time += 600;
    auto block = chain::build_child_block(tree, tip, time, bitcoin::p2pkh_script({}),
                                          bitcoin::block_subsidy(0), {}, tag++);
    tree.accept(block.header, static_cast<std::int64_t>(time) + 10000);
    tip = block.hash();
    blocks.push_back(std::move(block));
  }
  adapter::AdapterResponse response;
  for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);

  for (auto _ : state) {
    canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
    canister.process_response(response, static_cast<std::int64_t>(time) + 10000);
    benchmark::DoNotOptimize(canister.tip_height());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcessResponse)->Arg(1)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  if (!run_sync_table()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
