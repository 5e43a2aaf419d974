// Adversarial-peer tests: the Bitcoin adapter (and through it the canister)
// must stay correct when connected peers serve garbage — invalid proof of
// work, mismatched blocks, bogus inventories, address-book poisoning. These
// are the §IV-A "flood the canister with invalid data" scenarios; the
// adapter's validation makes them no-ops.
#include <gtest/gtest.h>

#include "adapter/adapter.h"
#include "btcnet/harness.h"
#include "chain/block_builder.h"
#include "reconcile/compact_block.h"

namespace icbtc::adapter {
namespace {

using btcnet::Message;
using btcnet::NodeId;

/// A Bitcoin "node" fully controlled by the test: it answers protocol
/// messages with attacker-chosen payloads.
class EvilPeer : public btcnet::Endpoint {
 public:
  EvilPeer(btcnet::Network& network, const bitcoin::ChainParams& params)
      : network_(&network), params_(&params) {
    id_ = network.attach(this, /*ipv6=*/true, /*gossiped=*/true);
  }
  ~EvilPeer() override {
    if (network_->exists(id_)) network_->detach(id_);
  }

  NodeId id() const { return id_; }

  std::vector<bitcoin::BlockHeader> headers_to_serve;
  std::vector<btcnet::NetAddress> addresses_to_serve;
  std::optional<bitcoin::Block> block_to_serve;  // served for ANY getdata

  void deliver(NodeId from, const Message& msg) override {
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, btcnet::MsgGetHeaders>) {
            network_->send(id_, from, btcnet::MsgHeaders{headers_to_serve});
          } else if constexpr (std::is_same_v<T, btcnet::MsgGetData>) {
            if (block_to_serve) {
              for (std::size_t i = 0; i < m.block_hashes.size(); ++i) {
                network_->send(id_, from, btcnet::MsgBlock{*block_to_serve});
              }
            }
          } else if constexpr (std::is_same_v<T, btcnet::MsgGetAddr>) {
            network_->send(id_, from, btcnet::MsgAddr{addresses_to_serve});
          }
        },
        msg);
  }

 private:
  btcnet::Network* network_;
  const bitcoin::ChainParams* params_;
  NodeId id_ = btcnet::kInvalidNode;
};

class AdversarialAdapterTest : public ::testing::Test {
 protected:
  AdversarialAdapterTest() : evil_(net_, params_) {
    net_.add_dns_seed(evil_.id());  // the adapter bootstraps from the attacker
    config_.outbound_connections = 2;
    config_.addr_lower_threshold = 1;
    config_.addr_upper_threshold = 4;
    config_.multi_block_below_height = 1 << 30;
  }

  bitcoin::BlockHeader valid_child_of_genesis(std::uint32_t salt) {
    chain::HeaderTree tree(params_, params_.genesis_header);
    util::Hash256 merkle;
    merkle.data[0] = static_cast<std::uint8_t>(salt);
    return chain::build_child_header(tree, tree.root_hash(),
                                     params_.genesis_header.time + 600, merkle);
  }

  util::Simulation sim_;
  btcnet::Network net_{sim_, util::Rng(66)};
  const bitcoin::ChainParams& params_ = bitcoin::ChainParams::regtest();
  EvilPeer evil_;
  AdapterConfig config_;
};

TEST_F(AdversarialAdapterTest, InvalidPowHeadersDiscarded) {
  // Headers with correct linkage but failing PoW.
  bitcoin::BlockHeader bad;
  bad.prev_hash = params_.genesis_header.hash();
  bad.time = params_.genesis_header.time + 600;
  bad.bits = params_.pow_limit_bits;
  // Grind the nonce until the hash FAILS the target (nearly immediate).
  while (bitcoin::check_proof_of_work(bad.hash(), bad.bits, params_.pow_limit)) ++bad.nonce;
  evil_.headers_to_serve = {bad};

  BitcoinAdapter adapter(net_, params_, config_, util::Rng(1));
  adapter.start();
  sim_.run_until(sim_.now() + 60 * util::kSecond);
  EXPECT_EQ(adapter.header_tree().size(), 1u);  // still only genesis
}

TEST_F(AdversarialAdapterTest, WrongDifficultyHeadersDiscarded) {
  bitcoin::BlockHeader bad;
  bad.prev_hash = params_.genesis_header.hash();
  bad.time = params_.genesis_header.time + 600;
  bad.bits = 0x207ffffe;  // not the expected bits
  evil_.headers_to_serve = {bad};
  BitcoinAdapter adapter(net_, params_, config_, util::Rng(2));
  adapter.start();
  sim_.run_until(sim_.now() + 60 * util::kSecond);
  EXPECT_EQ(adapter.header_tree().size(), 1u);
}

TEST_F(AdversarialAdapterTest, FutureTimestampHeadersDiscarded) {
  chain::HeaderTree tree(params_, params_.genesis_header);
  util::Hash256 merkle;
  // Valid PoW, but timestamped 1 year ahead of simulated now.
  auto far = chain::build_child_header(tree, tree.root_hash(),
                                       params_.genesis_header.time + 365 * 24 * 3600, merkle);
  evil_.headers_to_serve = {far};
  BitcoinAdapter adapter(net_, params_, config_, util::Rng(3));
  adapter.start();
  sim_.run_until(sim_.now() + 60 * util::kSecond);
  EXPECT_EQ(adapter.header_tree().size(), 1u);
}

TEST_F(AdversarialAdapterTest, MismatchedBlockNotStored) {
  // Serve a valid header but answer getdata with a block whose hash differs.
  auto header = valid_child_of_genesis(1);
  evil_.headers_to_serve = {header};
  bitcoin::Block wrong = bitcoin::genesis_block(params_);
  evil_.block_to_serve = wrong;

  BitcoinAdapter adapter(net_, params_, config_, util::Rng(4));
  adapter.start();
  sim_.run_until(sim_.now() + 30 * util::kSecond);
  AdapterRequest request;
  request.anchor = params_.genesis_header.hash();
  adapter.handle_request(request);  // triggers the block fetch
  sim_.run_until(sim_.now() + 30 * util::kSecond);
  EXPECT_TRUE(adapter.header_tree().contains(header.hash()));
  EXPECT_FALSE(adapter.has_block(header.hash()));  // junk rejected
  auto response = adapter.handle_request(request);
  EXPECT_TRUE(response.blocks.empty());
  // The header still shows up in N — the canister learns it lags without
  // trusting the attacker's block.
  ASSERT_EQ(response.next_headers.size(), 1u);
  EXPECT_EQ(response.next_headers[0].hash(), header.hash());
}

TEST_F(AdversarialAdapterTest, MalformedBlockNotStored) {
  auto header = valid_child_of_genesis(2);
  evil_.headers_to_serve = {header};
  bitcoin::Block malformed;
  malformed.header = header;  // right hash commitment, but no transactions
  evil_.block_to_serve = malformed;

  BitcoinAdapter adapter(net_, params_, config_, util::Rng(5));
  adapter.start();
  sim_.run_until(sim_.now() + 30 * util::kSecond);
  AdapterRequest request;
  request.anchor = params_.genesis_header.hash();
  adapter.handle_request(request);
  sim_.run_until(sim_.now() + 30 * util::kSecond);
  EXPECT_FALSE(adapter.has_block(header.hash()));
}

TEST_F(AdversarialAdapterTest, AddressPoisoningCappedAtThreshold) {
  // The attacker gossips a huge list of addresses (mostly nonexistent).
  for (std::uint32_t i = 0; i < 1000; ++i) {
    evil_.addresses_to_serve.push_back(btcnet::NetAddress{10000 + i, true});
  }
  BitcoinAdapter adapter(net_, params_, config_, util::Rng(6));
  adapter.start();
  sim_.run_until(sim_.now() + 60 * util::kSecond);
  // The book never exceeds t_u, and connecting to ghosts fails harmlessly.
  EXPECT_LE(adapter.known_addresses(), config_.addr_upper_threshold);
  EXPECT_GE(adapter.active_connections(), 1u);  // the evil peer itself
}

TEST_F(AdversarialAdapterTest, HonestPeerOutweighsAttacker) {
  // One honest node with the real chain joins the network; the adapter ends
  // up serving the honest chain even while the attacker feeds garbage.
  btcnet::BitcoinNode honest(net_, params_);
  net_.add_dns_seed(honest.id());
  btcnet::Miner miner(honest, 1.0, util::Rng(7));
  for (int i = 0; i < 5; ++i) {
    sim_.run_until(sim_.now() + 700 * util::kSecond);
    miner.mine_one();
  }
  bitcoin::BlockHeader bad;
  bad.prev_hash = params_.genesis_header.hash();
  bad.bits = 0x207ffffe;
  evil_.headers_to_serve = {bad};

  config_.outbound_connections = 2;
  BitcoinAdapter adapter(net_, params_, config_, util::Rng(8));
  adapter.start();
  sim_.run_until(sim_.now() + 2 * util::kMinute);
  EXPECT_EQ(adapter.header_tree().best_height(), 5);
}

TEST_F(AdversarialAdapterTest, ForgedCompactBlockIsOnlyAnAnnouncement) {
  btcnet::BitcoinNode honest(net_, params_);
  net_.add_dns_seed(honest.id());
  btcnet::Miner miner(honest, 1.0, util::Rng(9));
  sim_.run_until(sim_.now() + 700 * util::kSecond);
  miner.mine_one();
  const bitcoin::Block* tip = honest.get_block(honest.best_tip());
  ASSERT_NE(tip, nullptr);

  BitcoinAdapter adapter(net_, params_, config_, util::Rng(10));
  adapter.start();
  sim_.run_until(sim_.now() + 30 * util::kSecond);
  ASSERT_TRUE(adapter.header_tree().contains(tip->hash()));
  ASSERT_TRUE(net_.connected(evil_.id(), adapter.id()));

  // The attacker pushes a compact block with the real header but a tampered
  // coinbase, as freshly forged bytes (no cached txid).
  bitcoin::Block forged = *tip;
  forged.transactions[0].inputs[0].script_sig.push_back(0xff);
  forged.transactions[0].invalidate_txid();
  net_.send(evil_.id(), adapter.id(),
            btcnet::MsgCmpctBlock{reconcile::CompactBlockCodec::encode(forged, 8)});
  sim_.run_until(sim_.now() + 10 * util::kSecond);
  EXPECT_FALSE(adapter.has_block(tip->hash()));  // the forgery never reaches the store

  // A later sync serves the honest block.
  AdapterRequest request;
  request.anchor = params_.genesis_header.hash();
  std::shared_ptr<const bitcoin::Block> served;
  for (int i = 0; i < 10 && served == nullptr; ++i) {
    auto response = adapter.handle_request(request);
    if (!response.blocks.empty()) served = response.blocks[0].block;
    sim_.run_until(sim_.now() + 10 * util::kSecond);
  }
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->serialize(), tip->serialize());
}

}  // namespace
}  // namespace icbtc::adapter
