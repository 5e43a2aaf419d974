#include "bitcoin/block.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "bitcoin/params.h"
#include "crypto/sha256.h"

namespace icbtc::bitcoin {
namespace {

TEST(BlockHeaderTest, SerializedSizeIs80Bytes) {
  BlockHeader h;
  EXPECT_EQ(h.serialize().size(), 80u);
}

TEST(BlockHeaderTest, RoundTrip) {
  BlockHeader h;
  h.version = 0x20000000;
  h.prev_hash.data[0] = 1;
  h.merkle_root.data[31] = 2;
  h.time = 1700000000;
  h.bits = 0x207fffff;
  h.nonce = 12345;
  auto parsed = BlockHeader::parse(h.serialize());
  EXPECT_EQ(parsed, h);
}

TEST(BlockHeaderTest, RealGenesisHeaderHash) {
  // Deserialize the real Bitcoin genesis header and confirm hash().
  auto raw = util::from_hex(
      "0100000000000000000000000000000000000000000000000000000000000000000000003ba3edfd7a7b12b27a"
      "c72c3e67768f617fc81bc3888a51323a9fb8aa4b1e5e4a29ab5f49ffff001d1dac2b7c");
  BlockHeader h = BlockHeader::parse(raw);
  EXPECT_EQ(h.version, 1);
  EXPECT_EQ(h.time, 1231006505u);
  EXPECT_EQ(h.bits, 0x1d00ffffu);
  EXPECT_EQ(h.nonce, 2083236893u);
  EXPECT_EQ(h.hash().rpc_hex(),
            "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f");
}

TEST(BlockHeaderTest, ParseRejectsWrongSize) {
  util::Bytes bad(79, 0);
  EXPECT_THROW(BlockHeader::parse(bad), util::DecodeError);
  util::Bytes long_buf(81, 0);
  EXPECT_THROW(BlockHeader::parse(long_buf), util::DecodeError);
}

TEST(MerkleTest, EmptyListIsZero) {
  EXPECT_TRUE(merkle_root({}).is_zero());
}

TEST(MerkleTest, SingleTxidIsItsOwnRoot) {
  util::Hash256 id;
  id.data[3] = 7;
  EXPECT_EQ(merkle_root({id}), id);
}

TEST(MerkleTest, TwoLeaves) {
  util::Hash256 a, b;
  a.data[0] = 1;
  b.data[0] = 2;
  util::Bytes concat;
  util::append(concat, a.span());
  util::append(concat, b.span());
  EXPECT_EQ(merkle_root({a, b}), crypto::sha256d(concat));
}

TEST(MerkleTest, OddLeafCountDuplicatesLast) {
  util::Hash256 a, b, c;
  a.data[0] = 1;
  b.data[0] = 2;
  c.data[0] = 3;
  // Level 1: H(a||b), H(c||c); root = H(l||r).
  auto pair_hash = [](const util::Hash256& x, const util::Hash256& y) {
    util::Bytes concat;
    util::append(concat, x.span());
    util::append(concat, y.span());
    return crypto::sha256d(concat);
  };
  auto expected = pair_hash(pair_hash(a, b), pair_hash(c, c));
  EXPECT_EQ(merkle_root({a, b, c}), expected);
}

TEST(MerkleTest, MainnetBlock100000KnownAnswer) {
  // Bitcoin mainnet block 100000 (000000000003ba27aa200b1cecaad478d2b00432346c3f1f3986da1afd33e506)
  // has four transactions; its merkle root is a real-world known answer that
  // also exercises the duplicate-last rule at the second level (4 → 2 → 1).
  auto txid = [](const char* display_hex) {
    // Explorers display txids byte-reversed; internal order flips them back.
    util::Hash256 h = util::Hash256::from_span(util::from_hex(display_hex));
    std::reverse(h.data.begin(), h.data.end());
    return h;
  };
  std::vector<util::Hash256> txids = {
      txid("8c14f0db3df150123e6f3dbbf30f8b955a8249b62ac1d1ff16284aefa3d06d87"),
      txid("fff2525b8931402dd09222c50775608f75787bd2b87e56995a7bdd30f79702c4"),
      txid("6359f0868171b1d194cbee1af2f16ea598ae8fad666d9b012c8ed2b79a236ec4"),
      txid("e9a66845e05d5abc0ad04ec80f774a7e585c6e8db975962d069a522137b80c1d"),
  };
  EXPECT_EQ(merkle_root(txids).rpc_hex(),
            "f3e94742aca4b5ef85488dc37c06c3282295ffec960994b2c0d5ac2a25a95766");
}

TEST(MerkleTest, OddTransactionCountBlockRoundTrip) {
  // A block with an odd (>1) transaction count: compute_merkle_root must
  // agree leaf-by-leaf with the reference pairing, and the block must verify.
  Block b = genesis_block(ChainParams::regtest());
  Transaction t1, t2;
  t1.inputs.push_back(TxIn{OutPoint{b.transactions[0].txid(), 0}, {0x51}, 0xffffffff});
  t1.outputs.push_back(TxOut{1000, {0x51}});
  t2.inputs.push_back(TxIn{OutPoint{t1.txid(), 0}, {0x52}, 0xffffffff});
  t2.outputs.push_back(TxOut{900, {0x52}});
  b.transactions.push_back(t1);
  b.transactions.push_back(t2);
  ASSERT_EQ(b.transactions.size() % 2, 1u);
  auto expected =
      merkle_root({b.transactions[0].txid(), b.transactions[1].txid(), b.transactions[2].txid()});
  EXPECT_EQ(b.compute_merkle_root(), expected);
  b.header.merkle_root = expected;
  EXPECT_TRUE(b.is_well_formed());
}

TEST(MerkleTest, OrderSensitivity) {
  util::Hash256 a, b;
  a.data[0] = 1;
  b.data[0] = 2;
  EXPECT_NE(merkle_root({a, b}), merkle_root({b, a}));
}

Block make_test_block() {
  Block b = genesis_block(ChainParams::regtest());
  return b;
}

TEST(BlockTest, GenesisIsWellFormed) {
  Block b = make_test_block();
  EXPECT_TRUE(b.is_well_formed());
  EXPECT_EQ(b.header.merkle_root, b.compute_merkle_root());
}

TEST(BlockTest, RoundTrip) {
  Block b = make_test_block();
  auto parsed = Block::parse(b.serialize());
  EXPECT_EQ(parsed, b);
  EXPECT_EQ(parsed.hash(), b.hash());
}

TEST(BlockTest, SizeMatchesSerialization) {
  // The coinbase-only genesis block, then 252 and 253 transactions (the
  // CompactSize width of the count changes between them).
  Block b = make_test_block();
  EXPECT_TRUE(b.transactions[0].is_coinbase());
  EXPECT_EQ(b.transactions[0].size(), b.transactions[0].serialize().size());
  EXPECT_EQ(b.size(), b.serialize().size());
  Transaction tx;
  tx.inputs.push_back(TxIn{OutPoint{b.transactions[0].txid(), 0}, {}, 0xffffffff});
  tx.outputs.push_back(TxOut{1, {0x51}});
  b.transactions.resize(252, tx);
  EXPECT_EQ(b.size(), b.serialize().size());
  b.transactions.push_back(tx);
  EXPECT_EQ(b.size(), b.serialize().size());
}

TEST(BlockTest, WellFormedRejectsEmptyBlock) {
  Block b;
  EXPECT_FALSE(b.is_well_formed());
}

TEST(BlockTest, WellFormedRejectsMissingCoinbase) {
  Block b = make_test_block();
  Transaction tx;
  TxIn in;
  in.prevout.txid.data[0] = 9;
  in.prevout.vout = 0;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{1, {}});
  b.transactions[0] = tx;  // replace coinbase with a regular tx
  b.header.merkle_root = b.compute_merkle_root();
  EXPECT_FALSE(b.is_well_formed());
}

TEST(BlockTest, WellFormedRejectsSecondCoinbase) {
  Block b = make_test_block();
  b.transactions.push_back(b.transactions[0]);  // duplicate coinbase
  b.header.merkle_root = b.compute_merkle_root();
  EXPECT_FALSE(b.is_well_formed());
}

TEST(BlockTest, WellFormedRejectsMerkleMismatch) {
  Block b = make_test_block();
  b.header.merkle_root.data[0] ^= 1;
  EXPECT_FALSE(b.is_well_formed());
}

TEST(BlockTest, GenesisDiffersAcrossNetworks) {
  auto mainnet = genesis_block(ChainParams::mainnet());
  auto testnet = genesis_block(ChainParams::testnet());
  auto regtest = genesis_block(ChainParams::regtest());
  EXPECT_NE(mainnet.hash(), testnet.hash());
  EXPECT_NE(mainnet.hash(), regtest.hash());
  EXPECT_NE(testnet.hash(), regtest.hash());
}

TEST(BlockTest, GenesisHeaderMatchesParams) {
  const auto& params = ChainParams::mainnet();
  EXPECT_EQ(genesis_block(params).header, params.genesis_header);
}

}  // namespace
}  // namespace icbtc::bitcoin
