// End-to-end tests of the full architecture (Fig. 4): simulated Bitcoin
// network -> per-replica adapters -> IC subnet rounds -> Bitcoin canister.
#include "canister/integration.h"

#include <gtest/gtest.h>

#include <set>

#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "crypto/ripemd160.h"
#include "obs/slo.h"

namespace icbtc::canister {
namespace {

using btcnet::BitcoinNetworkConfig;
using btcnet::BitcoinNetworkHarness;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    BitcoinNetworkConfig btc_config;
    btc_config.num_nodes = 12;
    btc_config.connections_per_node = 3;
    btc_config.num_dns_seeds = 3;
    btc_config.num_miners = 2;
    btc_config.ipv6_fraction = 1.0;
    harness_ = std::make_unique<BitcoinNetworkHarness>(sim_, params_, btc_config, 2024);
    sim_.run();

    ic::SubnetConfig subnet_config;
    subnet_config.num_nodes = 13;
    subnet_ = std::make_unique<ic::Subnet>(sim_, subnet_config, 31337);

    IntegrationConfig config;
    config.adapter.outbound_connections = 5;
    config.adapter.addr_lower_threshold = 3;
    config.adapter.addr_upper_threshold = 8;
    config.adapter.multi_block_below_height = 1 << 30;
    config.canister = CanisterConfig::for_params(params_);  // δ=6, τ=2
    integration_ = std::make_unique<BitcoinIntegration>(*subnet_, harness_->network(), params_,
                                                        config, 555);
  }

  /// Mines `n` blocks spaced ~10 simulated minutes apart while the subnet
  /// and adapters run.
  void mine_and_run(int n) {
    auto* miner = harness_->miners()[0];
    for (int i = 0; i < n; ++i) {
      sim_.run_until(sim_.now() + 600 * util::kSecond);
      miner->mine_one();
    }
    sim_.run_until(sim_.now() + 120 * util::kSecond);  // let everything settle
  }

  util::Simulation sim_;
  const bitcoin::ChainParams& params_ = bitcoin::ChainParams::regtest();
  std::unique_ptr<BitcoinNetworkHarness> harness_;
  std::unique_ptr<ic::Subnet> subnet_;
  std::unique_ptr<BitcoinIntegration> integration_;
};

TEST_F(IntegrationTest, CanisterSyncsFromLiveNetwork) {
  subnet_->start();
  integration_->start();
  mine_and_run(10);
  auto& canister = integration_->canister();
  EXPECT_EQ(canister.tip_height(), harness_->node(0).best_height());
  EXPECT_TRUE(canister.is_synced());
  EXPECT_GE(canister.anchor_height(), 10 - params_.stability_delta);
  EXPECT_GT(integration_->requests_made(), 0u);
}

TEST_F(IntegrationTest, CanisterCatchesUpAfterLateStart) {
  // Mine first, start the integration afterwards (initial sync).
  auto* miner = harness_->miners()[0];
  for (int i = 0; i < 20; ++i) {
    sim_.run_until(sim_.now() + 600 * util::kSecond);
    miner->mine_one();
  }
  sim_.run();
  subnet_->start();
  integration_->start();
  sim_.run_until(sim_.now() + 10 * util::kMinute);
  EXPECT_EQ(integration_->canister().tip_height(), 20);
  EXPECT_TRUE(integration_->canister().is_synced());
}

TEST_F(IntegrationTest, BalanceVisibleThroughApi) {
  subnet_->start();
  integration_->start();

  // Mine a block paying a known address via the harness's first node.
  util::Hash160 key_hash;
  key_hash.data[0] = 0xaa;
  auto& node = harness_->node(0);
  auto block = chain::build_child_block(
      node.tree(), node.best_tip(),
      static_cast<std::uint32_t>(params_.genesis_header.time + sim_.now() / util::kSecond + 600),
      bitcoin::p2pkh_script(key_hash), 50 * bitcoin::kCoin, {}, 0xabcd);
  ASSERT_TRUE(node.submit_block(block));
  mine_and_run(2);

  std::string address = bitcoin::p2pkh_address(key_hash, params_.network);
  auto result = integration_->query_get_balance(address);
  ASSERT_TRUE(result.outcome.ok());
  EXPECT_EQ(result.outcome.value, 50 * bitcoin::kCoin);
  EXPECT_GT(result.latency, 0);

  auto replicated = integration_->replicated_get_balance(address);
  ASSERT_TRUE(replicated.outcome.ok());
  EXPECT_EQ(replicated.outcome.value, 50 * bitcoin::kCoin);
  EXPECT_GT(replicated.latency, result.latency);  // consensus dominates
  EXPECT_GT(replicated.cycles, 0u);
}

TEST_F(IntegrationTest, SendTransactionReachesBitcoinNetworkAndGetsMined) {
  subnet_->start();
  integration_->start();

  // Fund a key we control on the Bitcoin side.
  crypto::PrivateKey key = crypto::PrivateKey::from_seed(util::Bytes{9, 9});
  util::Hash160 key_hash = crypto::hash160(key.public_key().compressed());
  auto& node = harness_->node(0);
  auto funding = chain::build_child_block(
      node.tree(), node.best_tip(),
      static_cast<std::uint32_t>(params_.genesis_header.time + sim_.now() / util::kSecond + 600),
      bitcoin::p2pkh_script(key_hash), 50 * bitcoin::kCoin, {}, 0xfeed);
  ASSERT_TRUE(node.submit_block(funding));
  mine_and_run(1);

  // Build a signed spend and submit it through the canister.
  bitcoin::Transaction tx;
  bitcoin::TxIn in;
  in.prevout = bitcoin::OutPoint{funding.transactions[0].txid(), 0};
  tx.inputs.push_back(in);
  util::Hash160 dest;
  dest.data[0] = 0xdd;
  tx.outputs.push_back(bitcoin::TxOut{49 * bitcoin::kCoin, bitcoin::p2pkh_script(dest)});
  auto lock = bitcoin::p2pkh_script(key_hash);
  auto digest = bitcoin::legacy_sighash(tx, 0, lock);
  tx.inputs[0].script_sig =
      bitcoin::p2pkh_script_sig(key.sign(digest), key.public_key().compressed());

  auto submit = integration_->replicated_send_transaction(tx.serialize());
  EXPECT_EQ(submit.outcome, Status::kOk);

  // Let the request loop forward it to an adapter, the adapter advertise it,
  // and the Bitcoin nodes pull it into their mempools.
  sim_.run_until(sim_.now() + 3 * util::kMinute);
  bool in_some_mempool = false;
  for (std::size_t i = 0; i < 12; ++i) {
    if (harness_->node(i).in_mempool(tx.txid())) in_some_mempool = true;
  }
  EXPECT_TRUE(in_some_mempool);

  // A miner includes it; the canister then sees the new output.
  mine_and_run(2);
  std::string dest_address = bitcoin::p2pkh_address(dest, params_.network);
  auto balance = integration_->query_get_balance(dest_address);
  ASSERT_TRUE(balance.outcome.ok());
  EXPECT_EQ(balance.outcome.value, 49 * bitcoin::kCoin);
}

TEST_F(IntegrationTest, ReorgOnBitcoinSideIsTracked) {
  subnet_->start();
  integration_->start();
  mine_and_run(3);
  ASSERT_EQ(integration_->canister().tip_height(), 3);

  // A second miner secretly builds a longer fork from height 1 and releases
  // it: the canister follows the heavier chain.
  auto& node = harness_->node(1);
  auto chain_hashes = node.tree().current_chain();
  btcnet::AdversaryMiner fork_miner(node, chain_hashes[1], 0.5, util::Rng(5));
  std::uint32_t t = static_cast<std::uint32_t>(params_.genesis_header.time +
                                               sim_.now() / util::kSecond);
  for (int i = 0; i < 4; ++i) fork_miner.mine_next(t += 600);
  for (const auto& b : fork_miner.private_blocks()) node.submit_block(b);
  sim_.run_until(sim_.now() + 5 * util::kMinute);

  EXPECT_EQ(integration_->canister().tip_height(), 5);  // 1 + 4
  EXPECT_EQ(integration_->canister().header_tree().best_tip(), fork_miner.tip());
}

TEST_F(IntegrationTest, DowntimeStopsRequests) {
  subnet_->start();
  integration_->start();
  mine_and_run(2);
  integration_->set_canister_down(true);
  auto before = integration_->requests_made();
  mine_and_run(3);
  EXPECT_EQ(integration_->requests_made(), before);
  EXPECT_LT(integration_->canister().tip_height(), harness_->node(0).best_height());
  // Service resumes after recovery.
  integration_->set_canister_down(false);
  sim_.run_until(sim_.now() + 5 * util::kMinute);
  EXPECT_EQ(integration_->canister().tip_height(), harness_->node(0).best_height());
}

TEST_F(IntegrationTest, ByzantineProviderConsultedOnlyForByzantineMakers) {
  // With zero corrupt nodes the provider must never be consulted.
  std::size_t calls = 0;
  integration_->set_byzantine_response_provider(
      [&](const adapter::AdapterRequest&, const ic::RoundInfo&) {
        ++calls;
        return std::nullopt;
      });
  subnet_->start();
  integration_->start();
  mine_and_run(2);
  EXPECT_EQ(calls, 0u);
}

TEST_F(IntegrationTest, ByzantineMakerCanDelayButNotCorrupt) {
  // Rebuild with f = 4 corrupt nodes of 13; Byzantine makers serve empty
  // responses (censorship). Honest makers still sync the canister.
  ic::SubnetConfig subnet_config;
  subnet_config.num_nodes = 13;
  subnet_config.num_byzantine = 4;
  ic::Subnet subnet(sim_, subnet_config, 999);
  IntegrationConfig config;
  config.adapter.addr_lower_threshold = 3;
  config.adapter.addr_upper_threshold = 8;
  config.adapter.multi_block_below_height = 1 << 30;
  config.canister = CanisterConfig::for_params(params_);
  BitcoinIntegration integration(subnet, harness_->network(), params_, config, 777);
  integration.set_byzantine_response_provider(
      [](const adapter::AdapterRequest&, const ic::RoundInfo&) {
        return adapter::AdapterResponse{};  // stonewall
      });
  subnet.start();
  integration.start();
  auto* miner = harness_->miners()[0];
  for (int i = 0; i < 5; ++i) {
    sim_.run_until(sim_.now() + 600 * util::kSecond);
    miner->mine_one();
  }
  sim_.run_until(sim_.now() + 5 * util::kMinute);
  EXPECT_EQ(integration.canister().tip_height(), 5);
  EXPECT_TRUE(integration.canister().is_synced());
}

TEST_F(IntegrationTest, DowntimeForkInjectionBlockedByHonestMakers) {
  // The Lemma IV.3 scenario end-to-end: during canister downtime an
  // adversary prepares a private fork; on recovery, Byzantine block makers
  // feed it one block per round with N = {}. With honest makers in the
  // rotation, the canister ends up on the honest chain.
  ic::SubnetConfig subnet_config;
  subnet_config.num_nodes = 13;
  subnet_config.num_byzantine = 4;
  ic::Subnet subnet(sim_, subnet_config, 246);
  IntegrationConfig config;
  config.adapter.addr_lower_threshold = 3;
  config.adapter.addr_upper_threshold = 8;
  config.adapter.multi_block_below_height = 0;  // single-block mode
  config.canister = CanisterConfig::for_params(params_);
  BitcoinIntegration integration(subnet, harness_->network(), params_, config, 247);
  subnet.start();
  integration.start();

  auto* miner = harness_->miners()[0];
  auto mine_now = [&](int n) {
    for (int i = 0; i < n; ++i) {
      sim_.run_until(sim_.now() + 600 * util::kSecond);
      miner->mine_one();
    }
    sim_.run_until(sim_.now() + 3 * util::kMinute);
  };
  mine_now(3);
  ASSERT_EQ(integration.canister().tip_height(), 3);

  // Downtime: the adversary forks off the canister's last-known tip while
  // the honest chain keeps growing.
  integration.set_canister_down(true);
  btcnet::AdversaryMiner fork(harness_->node(0),
                              integration.canister().header_tree().best_tip(), 0.3,
                              util::Rng(14));
  std::uint32_t t = static_cast<std::uint32_t>(params_.genesis_header.time +
                                               sim_.now() / util::kSecond);
  for (int i = 0; i < 4; ++i) fork.mine_next(t += 600);
  mine_now(6);  // honest chain outruns the fork during the outage

  // Recovery: Byzantine makers serve one fork block per round, N = {}.
  std::size_t next_fork_block = 0;
  integration.set_byzantine_response_provider(
      [&](const adapter::AdapterRequest&, const ic::RoundInfo&) {
        adapter::AdapterResponse response;
        if (next_fork_block < fork.private_blocks().size()) {
          const auto& block = fork.private_blocks()[next_fork_block++];
          response.blocks.emplace_back(block, block.header);
        }
        return response;
      });
  integration.set_canister_down(false);
  sim_.run_until(sim_.now() + 5 * util::kMinute);

  // Honest makers reveal the real chain: the canister converges on it, and
  // the adversary's fork never becomes the best chain.
  EXPECT_EQ(integration.canister().header_tree().best_tip(),
            harness_->node(0).best_tip());
  EXPECT_TRUE(integration.canister().is_synced());
  EXPECT_NE(integration.canister().header_tree().best_tip(), fork.tip());
}

TEST_F(IntegrationTest, EveryReplicaRunsItsOwnAdapter) {
  EXPECT_EQ(integration_->num_adapters(), 13u);
  subnet_->start();
  integration_->start();
  sim_.run_until(sim_.now() + 2 * util::kMinute);
  // Adapters pick their peers independently at random.
  std::set<std::vector<btcnet::NodeId>> peer_sets;
  for (std::uint32_t i = 0; i < 13; ++i) {
    peer_sets.insert(integration_->adapter_of(i).connected_peers());
  }
  EXPECT_GT(peer_sets.size(), 1u);
}

TEST_F(IntegrationTest, SloVerdictsReadEachComponentsLatencyRecord) {
  // One registry on the subnet, the canister and every adapter: the SLO
  // endpoints are exactly the latency histograms their set_metrics() wires,
  // and each request is recorded once.
  obs::MetricsRegistry registry;
  subnet_->set_metrics(&registry);
  integration_->canister().set_metrics(&registry);
  for (std::uint32_t i = 0; i < integration_->num_adapters(); ++i) {
    integration_->adapter_of(i).set_metrics(&registry);
  }
  subnet_->start();
  integration_->start();
  mine_and_run(3);
  util::Hash160 key_hash;
  key_hash.data[0] = 0xaa;
  std::string address = bitcoin::p2pkh_address(key_hash, params_.network);
  ASSERT_TRUE(integration_->query_get_balance(address).outcome.ok());
  GetUtxosRequest utxos;
  utxos.address = address;
  ASSERT_TRUE(integration_->query_get_utxos(utxos).outcome.ok());
  integration_->stop();
  subnet_->stop();

  auto verdicts = obs::slo_verdicts(registry);
  std::vector<std::string> endpoints;
  for (const auto& v : verdicts) endpoints.push_back(v.endpoint);
  ASSERT_EQ(endpoints, (std::vector<std::string>{
                           "adapter.handle_request", "canister.get_balance",
                           "canister.get_block_headers", "canister.get_current_fee_percentiles",
                           "canister.get_utxos", "canister.process_response",
                           "canister.send_transaction", "ic.round_dispatch"}));
  for (const auto& v : verdicts) {
    EXPECT_EQ(v.errors, 0u) << v.endpoint;
    if (v.endpoint.starts_with("canister.")) {
      EXPECT_EQ(v.requests, registry.counter(v.endpoint + ".calls").value()) << v.endpoint;
    }
  }
  EXPECT_EQ(verdicts[1].requests, 1u);  // canister.get_balance
  EXPECT_EQ(verdicts[4].requests, 1u);  // canister.get_utxos
  EXPECT_GT(verdicts[5].requests, 0u);  // canister.process_response
  const obs::SloVerdict& adapter_before = verdicts[0];
  EXPECT_GT(adapter_before.requests, 0u);
  EXPECT_EQ(adapter_before.requests, registry.counter("adapter.requests_handled").value());
  EXPECT_EQ(verdicts[7].requests, registry.counter("ic.rounds").value());
  EXPECT_GT(verdicts[7].requests, 0u);

  // A request with an unknown anchor is still a served round-trip: it adds
  // one request and one error.
  adapter::AdapterRequest unknown;
  unknown.anchor.data[0] = 0x5a;
  EXPECT_TRUE(integration_->adapter_of(0).handle_request(unknown).blocks.empty());
  const obs::SloVerdict adapter_after = obs::slo_verdicts(registry)[0];
  EXPECT_EQ(adapter_after.endpoint, "adapter.handle_request");
  EXPECT_EQ(adapter_after.requests, adapter_before.requests + 1);
  EXPECT_EQ(adapter_after.requests, registry.counter("adapter.requests_handled").value());
  EXPECT_EQ(adapter_after.errors, 1u);

  // The fixture's components outlive this registry (an adapter's destructor
  // still updates its peer gauge).
  subnet_->set_metrics(nullptr);
  integration_->canister().set_metrics(nullptr);
  for (std::uint32_t i = 0; i < integration_->num_adapters(); ++i) {
    integration_->adapter_of(i).set_metrics(nullptr);
  }
}

}  // namespace
}  // namespace icbtc::canister
