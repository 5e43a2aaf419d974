#include "btcnet/node.h"

#include <gtest/gtest.h>

#include "bitcoin/script.h"
#include "btcnet/miner.h"
#include "crypto/ripemd160.h"

namespace icbtc::btcnet {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  util::Simulation sim_;
  Network net_{sim_, util::Rng(11)};
  const bitcoin::ChainParams& params_ = bitcoin::ChainParams::regtest();
  BitcoinNode alice_{net_, params_};
  BitcoinNode bob_{net_, params_};
  Miner alice_miner_{alice_, 1.0, util::Rng(12)};
};

TEST_F(NodeTest, StartsAtGenesis) {
  EXPECT_EQ(alice_.best_height(), 0);
  EXPECT_TRUE(alice_.has_block(alice_.best_tip()));
  EXPECT_EQ(alice_.best_tip(), bitcoin::genesis_block(params_).hash());
  // The genesis coinbase pays to OP_RETURN, so the UTXO set starts empty.
  EXPECT_EQ(alice_.utxos().size(), 0u);
}

TEST_F(NodeTest, MiningExtendsChain) {
  alice_miner_.mine_one();
  alice_miner_.mine_one();
  EXPECT_EQ(alice_.best_height(), 2);
  EXPECT_EQ(alice_miner_.blocks_mined(), 2u);
  // Coinbase outputs enter the UTXO set.
  EXPECT_EQ(alice_.utxos().size(), 2u);
  EXPECT_EQ(alice_.utxos().total_value(), 2 * 50 * bitcoin::kCoin);
}

TEST_F(NodeTest, BlockPropagatesToConnectedPeer) {
  net_.connect(alice_.id(), bob_.id());
  sim_.run();  // drain the initial getheaders handshake
  alice_miner_.mine_one();
  sim_.run();
  EXPECT_EQ(bob_.best_height(), 1);
  EXPECT_EQ(bob_.best_tip(), alice_.best_tip());
}

TEST_F(NodeTest, HeaderSyncOnConnect) {
  // Alice mines alone, then Bob connects and catches up.
  for (int i = 0; i < 20; ++i) alice_miner_.mine_one();
  EXPECT_EQ(bob_.best_height(), 0);
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  EXPECT_EQ(bob_.best_height(), 20);
  EXPECT_TRUE(bob_.has_block(alice_.best_tip()));
}

TEST_F(NodeTest, ReorgToHeavierChain) {
  // Bob builds a longer private chain; when connected, Alice reorgs.
  Miner bob_miner(bob_, 1.0, util::Rng(13));
  alice_miner_.mine_one();
  for (int i = 0; i < 3; ++i) bob_miner.mine_one();
  EXPECT_EQ(alice_.best_height(), 1);
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  EXPECT_EQ(alice_.best_height(), 3);
  EXPECT_EQ(alice_.best_tip(), bob_.best_tip());
  EXPECT_GE(alice_.reorg_count(), 1u);
}

TEST_F(NodeTest, UtxoViewFollowsReorg) {
  Miner bob_miner(bob_, 1.0, util::Rng(13));
  alice_miner_.mine_one();
  bitcoin::Amount alice_before = alice_.utxos().total_value();
  EXPECT_EQ(alice_before, 50 * bitcoin::kCoin);
  for (int i = 0; i < 3; ++i) bob_miner.mine_one();
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  // Alice's UTXO view now reflects Bob's chain: 3 coinbases by Bob.
  EXPECT_EQ(alice_.utxos().size(), 3u);
  EXPECT_EQ(alice_.utxos().total_value(), 3 * 50 * bitcoin::kCoin);
}

class SpendTest : public NodeTest {
 protected:
  crypto::PrivateKey key_ = crypto::PrivateKey::from_seed(util::Bytes{1, 2, 3});
  util::Hash160 key_hash_ = crypto::hash160(key_.public_key().compressed());

  /// Mines a block paying the coinbase to our key, returns the outpoint.
  bitcoin::OutPoint fund() {
    const auto& tree = alice_.tree();
    fund_time_ += 600;
    auto block = chain::build_child_block(tree, alice_.best_tip(), fund_time_,
                                          bitcoin::p2pkh_script(key_hash_),
                                          50 * bitcoin::kCoin, {}, next_tag_++);
    EXPECT_TRUE(alice_.submit_block(block));
    return bitcoin::OutPoint{block.transactions[0].txid(), 0};
  }

  bitcoin::Transaction spend(const bitcoin::OutPoint& from_outpoint, bitcoin::Amount value) {
    return spend(std::vector<bitcoin::OutPoint>{from_outpoint}, value);
  }

  /// One output of `value`, spending every outpoint, each input signed.
  bitcoin::Transaction spend(const std::vector<bitcoin::OutPoint>& outpoints,
                             bitcoin::Amount value) {
    bitcoin::Transaction tx;
    for (const auto& outpoint : outpoints) {
      bitcoin::TxIn in;
      in.prevout = outpoint;
      tx.inputs.push_back(in);
    }
    tx.outputs.push_back(bitcoin::TxOut{value, bitcoin::p2pkh_script(key_hash_)});
    auto lock = bitcoin::p2pkh_script(key_hash_);
    for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
      auto digest = bitcoin::legacy_sighash(tx, i, lock);
      tx.inputs[i].script_sig =
          bitcoin::p2pkh_script_sig(key_.sign(digest), key_.public_key().compressed());
    }
    return tx;
  }

  std::uint64_t next_tag_ = 1000;
  std::uint32_t fund_time_ = params_.genesis_header.time;
};

TEST_F(SpendTest, ValidSpendEntersMempool) {
  auto outpoint = fund();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  EXPECT_TRUE(alice_.submit_tx(tx));
  EXPECT_EQ(alice_.mempool_size(), 1u);
  EXPECT_TRUE(alice_.in_mempool(tx.txid()));
}

TEST_F(SpendTest, BadSignatureRejected) {
  auto outpoint = fund();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  tx.inputs[0].script_sig[4] ^= 1;
  EXPECT_FALSE(alice_.submit_tx(tx));
}

TEST_F(SpendTest, OverspendRejected) {
  auto outpoint = fund();
  auto tx = spend(outpoint, 51 * bitcoin::kCoin);  // more than the input
  EXPECT_FALSE(alice_.submit_tx(tx));
}

TEST_F(SpendTest, UnknownInputRejected) {
  bitcoin::OutPoint ghost;
  ghost.txid.data[0] = 0x99;
  auto tx = spend(ghost, 1);
  EXPECT_FALSE(alice_.submit_tx(tx));
}

TEST_F(SpendTest, DoubleSpendRejected) {
  auto outpoint = fund();
  auto tx1 = spend(outpoint, 49 * bitcoin::kCoin);
  // tx2 conflicts with tx1 but pays a *lower* fee, so it is not a valid RBF
  // replacement either (higher-fee replacement is covered in mempool_test).
  auto tx2 = spend(outpoint, 49 * bitcoin::kCoin + bitcoin::kCoin / 2);
  EXPECT_TRUE(alice_.submit_tx(tx1));
  EXPECT_FALSE(alice_.submit_tx(tx2));
  EXPECT_TRUE(alice_.in_mempool(tx1.txid()));
}

TEST_F(SpendTest, MempoolChaining) {
  auto outpoint = fund();
  auto tx1 = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(alice_.submit_tx(tx1));
  // Spend tx1's output while it is still unconfirmed.
  auto tx2 = spend(bitcoin::OutPoint{tx1.txid(), 0}, 48 * bitcoin::kCoin);
  EXPECT_TRUE(alice_.submit_tx(tx2));
  EXPECT_EQ(alice_.mempool_size(), 2u);
}

TEST_F(SpendTest, TxPropagatesAndGetsMined) {
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  auto outpoint = fund();
  sim_.run();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  ASSERT_TRUE(bob_.submit_tx(tx));  // broadcast at bob
  sim_.run();
  EXPECT_TRUE(alice_.in_mempool(tx.txid()));  // relayed to alice
  alice_miner_.mine_one();
  sim_.run();
  // Mined: gone from both mempools, output in both UTXO sets.
  EXPECT_EQ(alice_.mempool_size(), 0u);
  EXPECT_EQ(bob_.mempool_size(), 0u);
  EXPECT_TRUE(alice_.utxos().contains(bitcoin::OutPoint{tx.txid(), 0}));
  EXPECT_TRUE(bob_.utxos().contains(bitcoin::OutPoint{tx.txid(), 0}));
}

TEST_F(SpendTest, RelayedTxHashedExactlyOnce) {
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  auto outpoint = fund();
  sim_.run();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  // From submission at bob through inv/getdata relay into alice's mempool,
  // the tx must be serialized+hashed exactly once; every later consumer
  // (request bookkeeping, mempool keys, relay announcements) reuses the
  // cached txid.
  auto before = bitcoin::Transaction::txid_computations();
  ASSERT_TRUE(bob_.submit_tx(tx));
  sim_.run();
  EXPECT_EQ(bitcoin::Transaction::txid_computations() - before, 1u);
  EXPECT_TRUE(alice_.in_mempool(tx.txid()));
}

TEST_F(SpendTest, RelayedTxVerifiedOncePerInput) {
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  auto first = fund();
  auto second = fund();
  sim_.run();
  auto tx = spend({first, second}, 99 * bitcoin::kCoin);
  // Bob checks both signatures on submission; alice admits the relayed tx
  // on cache hits alone.
  const auto& cache = net_.signature_cache();
  auto before = cache.checks();
  ASSERT_TRUE(bob_.submit_tx(tx));
  sim_.run();
  EXPECT_TRUE(alice_.in_mempool(tx.txid()));
  EXPECT_EQ(cache.checks() - before, tx.inputs.size());
}

TEST_F(SpendTest, TamperedSignatureRejectedEverywhereAndNotCached) {
  net_.connect(alice_.id(), bob_.id());
  sim_.run();
  auto outpoint = fund();
  sim_.run();
  auto tx = spend(outpoint, 49 * bitcoin::kCoin);
  auto tampered = tx;
  tampered.inputs[0].script_sig[10] ^= 1;  // inside r: still valid DER
  const auto& cache = net_.signature_cache();
  auto size_before = cache.size();
  auto checks_before = cache.checks();
  EXPECT_FALSE(alice_.submit_tx(tampered));
  EXPECT_FALSE(bob_.submit_tx(tampered));
  sim_.run();
  EXPECT_EQ(alice_.mempool_size(), 0u);
  EXPECT_EQ(bob_.mempool_size(), 0u);
  // A failed check is never remembered, so each node ran its own.
  EXPECT_EQ(cache.size(), size_before);
  EXPECT_EQ(cache.checks() - checks_before, 2u);
  // The honest spend of the same outpoint still goes through.
  ASSERT_TRUE(bob_.submit_tx(tx));
  sim_.run();
  EXPECT_TRUE(alice_.in_mempool(tx.txid()));
}

TEST_F(SpendTest, MempoolSnapshotPreservesOrder) {
  auto o1 = fund();
  auto o2 = fund();
  auto tx1 = spend(o1, 49 * bitcoin::kCoin);
  auto tx2 = spend(o2, 48 * bitcoin::kCoin);
  ASSERT_TRUE(alice_.submit_tx(tx1));
  ASSERT_TRUE(alice_.submit_tx(tx2));
  auto snapshot = alice_.mempool_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].txid(), tx1.txid());
  EXPECT_EQ(snapshot[1].txid(), tx2.txid());
}

TEST_F(NodeTest, BlockInvNotEchoedToSender) {
  class Recorder : public Endpoint {
   public:
    void deliver(NodeId, const Message& msg) override { received.push_back(msg); }
    std::vector<Message> received;
  } recorder;

  // Carol mines two blocks offline; the recorder feeds them to Alice out of
  // order so the second one takes the orphan path (which used to forget who
  // sent the block and echo the inv back).
  BitcoinNode carol{net_, params_};
  Miner carol_miner{carol, 1.0, util::Rng(14)};
  auto b1 = carol_miner.mine_one();
  auto b2 = carol_miner.mine_one();

  net_.connect(alice_.id(), bob_.id());
  NodeId rid = net_.attach(&recorder, true, false);
  net_.connect(rid, alice_.id());
  sim_.run();
  recorder.received.clear();  // drop handshake traffic

  net_.send(rid, alice_.id(), MsgBlock{b2});
  net_.send(rid, alice_.id(), MsgBlock{b1});
  sim_.run();

  ASSERT_EQ(alice_.best_height(), 2);
  EXPECT_EQ(bob_.best_tip(), alice_.best_tip());  // still relayed onward
  for (const auto& msg : recorder.received) {
    if (const auto* inv = std::get_if<MsgInv>(&msg)) {
      for (const auto& hash : inv->block_hashes) {
        EXPECT_NE(hash, b1.hash());
        EXPECT_NE(hash, b2.hash());
      }
    }
  }
  net_.detach(rid);
}

TEST_F(NodeTest, GetAddrReturnsGossipedAddresses) {
  class Collector : public Endpoint {
   public:
    void deliver(NodeId, const Message& msg) override {
      if (auto* addr = std::get_if<MsgAddr>(&msg)) received = addr->addresses;
    }
    std::vector<NetAddress> received;
  } collector;
  NodeId cid = net_.attach(&collector, true, false);
  net_.connect(cid, alice_.id());
  net_.send(cid, alice_.id(), MsgGetAddr{});
  sim_.run();
  EXPECT_EQ(collector.received.size(), 2u);  // alice and bob are gossiped
  net_.detach(cid);  // the collector dies before the fixture's nodes
}

}  // namespace
}  // namespace icbtc::btcnet
