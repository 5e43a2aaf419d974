// Node-level continuous reconciliation: transactions spread through sketch
// exchange instead of per-peer inv flooding, bisection and full-inv fallbacks
// engage under high divergence, parked links recover, and — the regression
// this file pins — a transaction learned via reconciliation is never
// announced back to the peer it was reconciled with.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adapter/adapter.h"
#include "bitcoin/script.h"
#include "btcnet/node.h"
#include "chain/block_builder.h"
#include "crypto/ecdsa.h"
#include "crypto/ripemd160.h"
#include "obs/metrics.h"

namespace icbtc::btcnet {
namespace {

NodeOptions recon_options(std::size_t fanout = 0) {
  NodeOptions options;
  options.tx_relay_mode = TxRelayMode::kReconcile;
  options.flood_fanout = fanout;
  return options;
}

class ReconRelayTest : public ::testing::Test {
 protected:
  BitcoinNode& add_node(NodeOptions options = recon_options()) {
    nodes_.push_back(std::make_unique<BitcoinNode>(net_, params_, options));
    nodes_.back()->set_metrics(&registry_);
    return *nodes_.back();
  }

  bitcoin::OutPoint fund(BitcoinNode& at) {
    // Keep the simulated clock in step with the header times, or the
    // future-drift rule starts rejecting blocks after ~12 of them.
    sim_.run_until(sim_.now() + 600 * util::kSecond);
    fund_time_ += 600;
    auto block = chain::build_child_block(at.tree(), at.best_tip(), fund_time_,
                                          bitcoin::p2pkh_script(key_hash_),
                                          50 * bitcoin::kCoin, {}, next_tag_++);
    EXPECT_TRUE(at.submit_block(block));
    return bitcoin::OutPoint{block.transactions[0].txid(), 0};
  }

  bitcoin::Transaction spend(const bitcoin::OutPoint& from_outpoint, bitcoin::Amount value) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = from_outpoint;
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{value, bitcoin::p2pkh_script(key_hash_)});
    auto lock = bitcoin::p2pkh_script(key_hash_);
    auto digest = bitcoin::legacy_sighash(tx, 0, lock);
    tx.inputs[0].script_sig =
        bitcoin::p2pkh_script_sig(key_.sign(digest), key_.public_key().compressed());
    return tx;
  }

  std::uint64_t counter(const std::string& name) {
    return registry_.counter(name).value();
  }

  util::Simulation sim_;
  Network net_{sim_, util::Rng(31)};
  const bitcoin::ChainParams& params_ = bitcoin::ChainParams::regtest();
  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<BitcoinNode>> nodes_;
  crypto::PrivateKey key_ = crypto::PrivateKey::from_seed(util::Bytes{7, 8, 9});
  util::Hash160 key_hash_ = crypto::hash160(key_.public_key().compressed());
  std::uint64_t next_tag_ = 3000;
  std::uint32_t fund_time_ = params_.genesis_header.time;
};

TEST_F(ReconRelayTest, TxPropagatesThroughSketchesAlone) {
  // fanout 0: nothing is inv-flooded, reconciliation is the only channel.
  auto& alice = add_node();
  auto& bob = add_node();
  auto& carol = add_node();
  net_.connect(alice.id(), bob.id());
  net_.connect(bob.id(), carol.id());
  net_.set_metrics(&registry_);
  sim_.run();

  auto outpoint = fund(alice);
  sim_.run();
  std::uint64_t invs_before = counter("net.msg.inv");  // block invs only
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(alice.submit_tx(tx));
  sim_.run();

  EXPECT_TRUE(bob.in_mempool(tx.txid()));
  EXPECT_TRUE(carol.in_mempool(tx.txid()));  // two reconciliation hops
  EXPECT_GE(counter("relay.rounds_completed"), 2u);
  EXPECT_GE(counter("relay.sketches_sent"), 2u);
  EXPECT_EQ(counter("relay.fanout_invs"), 0u);
  // The transaction itself never travelled by inv.
  EXPECT_EQ(counter("net.msg.inv"), invs_before);
  net_.set_metrics(nullptr);
}

TEST_F(ReconRelayTest, ReconciledTxNotReannouncedToSource) {
  // Regression: Bob learns the tx from Alice via reconciliation; it must not
  // be queued for announcement back to Alice (which would cost a useless
  // round and, before the fix, kept links busy forever).
  auto& alice = add_node();
  auto& bob = add_node();
  net_.connect(alice.id(), bob.id());
  sim_.run();

  auto outpoint = fund(alice);
  sim_.run();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(alice.submit_tx(tx));
  EXPECT_EQ(alice.recon_pending(bob.id()), 1u);
  sim_.run();

  ASSERT_TRUE(bob.in_mempool(tx.txid()));
  // Both directions idle: Alice's set drained by the round, and Bob never
  // queued the tx back toward its source.
  EXPECT_EQ(alice.recon_pending(bob.id()), 0u);
  EXPECT_EQ(bob.recon_pending(alice.id()), 0u);
}

TEST_F(ReconRelayTest, FanoutInvAlsoSuppressesReannouncement) {
  // Same regression through the flood half of the hybrid: with fanout 1,
  // Bob gets the inv; he must not queue the tx for reconciliation back.
  auto& alice = add_node(recon_options(1));
  auto& bob = add_node(recon_options(1));
  net_.connect(alice.id(), bob.id());
  sim_.run();

  auto outpoint = fund(alice);
  sim_.run();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(alice.submit_tx(tx));
  sim_.run();

  ASSERT_TRUE(bob.in_mempool(tx.txid()));
  EXPECT_GE(counter("relay.fanout_invs"), 1u);
  EXPECT_EQ(bob.recon_pending(alice.id()), 0u);
}

TEST_F(ReconRelayTest, HighDivergenceFallsBackToBisectionOrFullInv) {
  auto& alice = add_node();
  auto& bob = add_node();
  net_.connect(alice.id(), bob.id());
  sim_.run();

  // Warm the link on a single transaction so the estimator settles near 1 —
  // a cold link would size its sketch by its own set and shrug off the burst.
  std::vector<bitcoin::OutPoint> outpoints;
  for (int i = 0; i < 61; ++i) outpoints.push_back(fund(alice));
  sim_.run();
  ASSERT_TRUE(alice.submit_tx(spend(outpoints[60], 49 * bitcoin::kCoin)));
  sim_.run();

  // Then 60 distinct-fee transactions in one burst: the sketch sized for the
  // remembered trickle is hopelessly undersized, and the bisection rescue —
  // capped at twice the round's sizing — cannot stretch to 30-id halves
  // either, forcing the full-inv last resort.
  for (int i = 0; i < 60; ++i) {
    auto tx = spend(outpoints[static_cast<std::size_t>(i)],
                    49 * bitcoin::kCoin - (i + 1) * 1000);
    ASSERT_TRUE(alice.submit_tx(tx));
  }
  sim_.run();

  EXPECT_EQ(bob.mempool_size(), 61u);
  EXPECT_GE(counter("relay.diffs_failed"), 1u);
  EXPECT_GE(counter("relay.bisections"), 1u);
  EXPECT_GE(counter("relay.full_inv_fallbacks"), 1u);
  // The estimator learned: later rounds size sketches for the real traffic.
  EXPECT_GT(alice.divergence_estimator().mean(), 0.0);
}

TEST_F(ReconRelayTest, PartitionParksLinkAndReconnectResyncs) {
  auto& alice = add_node();
  auto& bob = add_node();
  net_.connect(alice.id(), bob.id());
  sim_.run();
  auto outpoint = fund(alice);
  sim_.run();

  net_.set_partitioned(bob.id(), true);
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(alice.submit_tx(tx));
  sim_.run();

  // Three unanswered rounds, then the link parks instead of spinning.
  EXPECT_EQ(counter("relay.round_timeouts"), 3u);
  EXPECT_FALSE(bob.in_mempool(tx.txid()));
  EXPECT_EQ(alice.recon_pending(bob.id()), 1u);  // work preserved

  // Heal by cycling the link: the reconnect resyncs the whole mempool.
  net_.set_partitioned(bob.id(), false);
  net_.disconnect(alice.id(), bob.id());
  net_.connect(alice.id(), bob.id());
  sim_.run();
  EXPECT_TRUE(bob.in_mempool(tx.txid()));
  EXPECT_EQ(alice.recon_pending(bob.id()), 0u);
}

TEST_F(ReconRelayTest, CapEvictedTxIsNeverAnnounced) {
  // A transaction the size cap evicts leaves every reconciliation set with
  // it. The cap evicts by the id it reads from the fee index, whose entry the
  // eviction erases; under ASan this case caught that id being read after
  // the erase.
  NodeOptions capped = recon_options();
  capped.mempool_max_txs = 2;
  auto& alice = add_node(capped);
  auto& bob = add_node();
  net_.connect(alice.id(), bob.id());
  sim_.run();

  auto o1 = fund(alice);
  auto o2 = fund(alice);
  auto o3 = fund(alice);
  sim_.run();
  auto low = spend(o1, 50 * bitcoin::kCoin - 100'000);
  auto mid = spend(o2, 50 * bitcoin::kCoin - 200'000);
  auto high = spend(o3, 50 * bitcoin::kCoin - 300'000);
  ASSERT_TRUE(alice.submit_tx(low));
  ASSERT_TRUE(alice.submit_tx(mid));
  ASSERT_TRUE(alice.submit_tx(high));  // evicts `low`
  EXPECT_FALSE(alice.in_mempool(low.txid()));
  EXPECT_EQ(alice.recon_pending(bob.id()), 2u);
  sim_.run();

  EXPECT_TRUE(bob.in_mempool(mid.txid()));
  EXPECT_TRUE(bob.in_mempool(high.txid()));
  EXPECT_FALSE(bob.in_mempool(low.txid()));
}

TEST_F(ReconRelayTest, AdapterAnswersEverySketchFromAnEmptySet) {
  // The adapter never reconciles on its own: it answers each sketch from an
  // empty set salted for the link. That still decodes the node's side, so a
  // kReconcile node completes its rounds with an adapter peer instead of
  // timing out and parking the link.
  auto& node = add_node();
  net_.add_dns_seed(node.id());
  adapter::BitcoinAdapter adapter(net_, params_, adapter::AdapterConfig::for_params(params_),
                                  util::Rng(41));
  adapter.set_metrics(&registry_);
  adapter.start();
  // Bounded runs only: the started adapter's maintenance timer never ends.
  sim_.run_until(sim_.now() + 10 * util::kSecond);
  ASSERT_EQ(adapter.connected_peers(), std::vector<NodeId>{node.id()});

  for (int i = 0; i < 3; ++i) {
    auto outpoint = fund(node);
    sim_.run_until(sim_.now() + 10 * util::kSecond);
    ASSERT_TRUE(node.submit_tx(spend(outpoint, 49 * bitcoin::kCoin)));
    EXPECT_EQ(node.recon_pending(adapter.id()), 1u);
    sim_.run_until(sim_.now() + 30 * util::kSecond);
    EXPECT_EQ(node.recon_pending(adapter.id()), 0u);
  }
  EXPECT_GE(counter("relay.rounds_completed"), 3u);
  EXPECT_EQ(counter("relay.round_timeouts"), 0u);
  EXPECT_EQ(counter("adapter.recon.sketches_answered"), counter("relay.sketches_sent"));
  adapter.stop();
}

TEST_F(ReconRelayTest, RelayAndMempoolMetricNamesArePinned) {
  // The exporter names are an interface: examples/fork_monitor and the bench
  // harness key on them, so renames must be deliberate.
  add_node();
  net_.set_metrics(&registry_);
  for (const char* name : {
           "relay.sketches_sent", "relay.sketch_bytes", "relay.diffs_decoded",
           "relay.diffs_failed", "relay.bisections", "relay.full_inv_fallbacks",
           "relay.fanout_invs", "relay.rounds_completed", "relay.round_timeouts",
           "mempool.rbf_replaced", "mempool.evicted_expired", "mempool.evicted_sizecap",
           "net.msg.reconsketch", "net.msg.recondiff", "net.msg.reconfinalize",
           "net.bytes.reconsketch", "net.bytes.recondiff", "net.bytes.reconfinalize",
       }) {
    EXPECT_TRUE(registry_.counters().contains(name)) << name;
  }
  EXPECT_TRUE(registry_.gauges().contains("mempool.fee_floor"));
  EXPECT_TRUE(registry_.histograms().contains("relay.sketch_cells"));
  net_.set_metrics(nullptr);
}

}  // namespace
}  // namespace icbtc::btcnet
