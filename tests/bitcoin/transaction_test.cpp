#include "bitcoin/transaction.h"

#include <gtest/gtest.h>

namespace icbtc::bitcoin {
namespace {

Transaction sample_tx() {
  Transaction tx;
  tx.version = 2;
  TxIn in;
  in.prevout.txid.data[0] = 0xaa;
  in.prevout.vout = 3;
  in.script_sig = {0x01, 0x02, 0x03};
  in.sequence = 0xfffffffe;
  tx.inputs.push_back(in);
  TxOut out;
  out.value = 2 * kCoin;
  out.script_pubkey = {0x51};
  tx.outputs.push_back(out);
  tx.lock_time = 101;
  return tx;
}

TEST(OutPointTest, NullDetection) {
  EXPECT_TRUE(OutPoint::null().is_null());
  OutPoint o;
  o.vout = 0xffffffff;
  EXPECT_TRUE(o.is_null());
  o.txid.data[0] = 1;
  EXPECT_FALSE(o.is_null());
}

TEST(OutPointTest, Ordering) {
  OutPoint a, b;
  a.vout = 1;
  b.vout = 2;
  EXPECT_LT(a, b);
  b = a;
  EXPECT_EQ(a, b);
}

TEST(TransactionTest, SerializeRoundTrip) {
  Transaction tx = sample_tx();
  auto bytes = tx.serialize();
  Transaction parsed = Transaction::parse(bytes);
  EXPECT_EQ(parsed, tx);
}

TEST(TransactionTest, ParseRejectsTrailing) {
  auto bytes = sample_tx().serialize();
  bytes.push_back(0x00);
  EXPECT_THROW(Transaction::parse(bytes), util::DecodeError);
}

TEST(TransactionTest, ParseRejectsTruncation) {
  auto bytes = sample_tx().serialize();
  bytes.pop_back();
  EXPECT_THROW(Transaction::parse(bytes), util::DecodeError);
}

TEST(TransactionTest, TxidIsDeterministicAndSensitive) {
  Transaction tx = sample_tx();
  auto id1 = tx.txid();
  EXPECT_EQ(id1, tx.txid());
  tx.lock_time++;
  tx.invalidate_txid();  // field mutation after hashing requires invalidation
  EXPECT_NE(id1, tx.txid());
}

TEST(TransactionTest, TxidCacheSeededByDeserializeAndAdoptedByCopies) {
  Transaction tx = sample_tx();
  ASSERT_FALSE(tx.txid_cached());

  // Round-tripping through the wire format seeds the cache eagerly.
  Transaction parsed = Transaction::parse(tx.serialize());
  EXPECT_TRUE(parsed.txid_cached());
  EXPECT_EQ(parsed.txid(), tx.txid());
  EXPECT_TRUE(tx.txid_cached());  // txid() filled the lazy cache

  // Copies and moves carry the cached value; the moved-from tx is reset.
  Transaction copy = parsed;
  EXPECT_TRUE(copy.txid_cached());
  EXPECT_EQ(copy.txid(), tx.txid());
  Transaction moved = std::move(parsed);
  EXPECT_TRUE(moved.txid_cached());
  EXPECT_FALSE(parsed.txid_cached());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.txid(), tx.txid());
}

TEST(TransactionTest, TxidCacheCountsOneComputationAcrossRepeatedCalls) {
  Transaction tx = sample_tx();
  auto before = Transaction::txid_computations();
  auto id = tx.txid();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(id, tx.txid());
  Transaction copy = tx;
  EXPECT_EQ(id, copy.txid());
  EXPECT_EQ(Transaction::txid_computations() - before, 1u);
}

TEST(TransactionTest, TxidCacheDisableForcesRecompute) {
  Transaction tx = sample_tx();
  auto id = tx.txid();
  Transaction::set_txid_cache_enabled(false);
  auto before = Transaction::txid_computations();
  EXPECT_EQ(id, tx.txid());
  EXPECT_EQ(id, tx.txid());
  EXPECT_EQ(Transaction::txid_computations() - before, 2u);
  Transaction::set_txid_cache_enabled(true);
}

TEST(TransactionTest, KnownSerializationLayout) {
  // Manually check the byte layout of a minimal transaction.
  Transaction tx;
  tx.version = 1;
  TxIn in;
  in.prevout = OutPoint::null();
  in.script_sig = {};
  tx.inputs.push_back(in);
  TxOut out;
  out.value = 1;
  out.script_pubkey = {};
  tx.outputs.push_back(out);
  tx.lock_time = 0;
  auto bytes = tx.serialize();
  // 4 (version) + 1 (#in) + 36 (outpoint) + 1 (script len) + 4 (sequence)
  // + 1 (#out) + 8 (value) + 1 (script len) + 4 (locktime) = 60.
  EXPECT_EQ(bytes.size(), 60u);
  EXPECT_EQ(bytes[0], 0x01);                 // version LE
  EXPECT_EQ(bytes[4], 0x01);                 // input count
  EXPECT_EQ(bytes[5 + 32], 0xff);            // null vout
  EXPECT_EQ(bytes[bytes.size() - 4], 0x00);  // locktime
}

TEST(TransactionTest, CoinbaseDetection) {
  Transaction cb;
  TxIn in;
  in.prevout = OutPoint::null();
  cb.inputs.push_back(in);
  cb.outputs.push_back(TxOut{50 * kCoin, {}});
  EXPECT_TRUE(cb.is_coinbase());
  EXPECT_FALSE(sample_tx().is_coinbase());
  // Two inputs -> not coinbase even if one is null.
  cb.inputs.push_back(TxIn{});
  EXPECT_FALSE(cb.is_coinbase());
}

TEST(TransactionTest, WellFormedAcceptsSample) {
  EXPECT_TRUE(sample_tx().is_well_formed());
}

TEST(TransactionTest, WellFormedRejectsEmptyInputsOrOutputs) {
  Transaction tx = sample_tx();
  tx.inputs.clear();
  EXPECT_FALSE(tx.is_well_formed());
  tx = sample_tx();
  tx.outputs.clear();
  EXPECT_FALSE(tx.is_well_formed());
}

TEST(TransactionTest, WellFormedRejectsNegativeAndExcessValues) {
  Transaction tx = sample_tx();
  tx.outputs[0].value = -1;
  EXPECT_FALSE(tx.is_well_formed());
  tx.outputs[0].value = kMaxMoney + 1;
  EXPECT_FALSE(tx.is_well_formed());
  // Sum overflow across outputs.
  tx.outputs[0].value = kMaxMoney;
  tx.outputs.push_back(TxOut{kMaxMoney, {}});
  EXPECT_FALSE(tx.is_well_formed());
}

TEST(TransactionTest, WellFormedRejectsDuplicateInputs) {
  Transaction tx = sample_tx();
  tx.inputs.push_back(tx.inputs[0]);
  EXPECT_FALSE(tx.is_well_formed());
}

TEST(TransactionTest, WellFormedFindsDuplicatesFarApartAndKeepsDistinctVouts) {
  // The same prevout at the first and the last of 2,000 inputs.
  Transaction tx = sample_tx();
  for (std::uint32_t i = 1; i < 2000; ++i) {
    TxIn in = tx.inputs[0];
    in.prevout.txid.data[1] = static_cast<std::uint8_t>(i);
    in.prevout.txid.data[2] = static_cast<std::uint8_t>(i >> 8);
    tx.inputs.push_back(in);
  }
  ASSERT_TRUE(tx.is_well_formed());
  tx.inputs.back().prevout = tx.inputs.front().prevout;
  EXPECT_FALSE(tx.is_well_formed());

  // One txid, two vouts: two distinct outpoints.
  Transaction pair = sample_tx();
  TxIn other = pair.inputs[0];
  other.prevout.vout += 1;
  pair.inputs.push_back(other);
  EXPECT_TRUE(pair.is_well_formed());
}

TEST(TransactionTest, WellFormedRejectsNullPrevoutInNonCoinbase) {
  Transaction tx = sample_tx();
  TxIn null_in;
  null_in.prevout = OutPoint::null();
  tx.inputs.push_back(null_in);
  EXPECT_FALSE(tx.is_well_formed());
}

TEST(TransactionTest, TotalOutputValue) {
  Transaction tx = sample_tx();
  tx.outputs.push_back(TxOut{3, {}});
  EXPECT_EQ(tx.total_output_value(), 2 * kCoin + 3);
}

TEST(TransactionTest, SizeMatchesSerializationAcrossVarintBoundaries) {
  // size() counts the wire bytes without serializing: every count and
  // script length here crosses a CompactSize width (252/253, 65535/65536),
  // and empty scripts take a one-byte prefix.
  for (std::size_t script_len : {0u, 1u, 252u, 253u, 65535u, 65536u}) {
    Transaction tx = sample_tx();
    tx.inputs[0].script_sig = Bytes(script_len, 0x51);
    tx.outputs[0].script_pubkey = Bytes(script_len, 0x6a);
    EXPECT_EQ(tx.size(), tx.serialize().size()) << "script length " << script_len;
  }
  for (std::size_t count : {252u, 253u, 65535u, 65536u}) {
    Transaction tx = sample_tx();
    tx.inputs.resize(count, tx.inputs[0]);
    tx.outputs.resize(count, TxOut{1, {}});
    EXPECT_EQ(tx.size(), tx.serialize().size()) << "count " << count;
  }
  Transaction empty;
  EXPECT_EQ(empty.size(), empty.serialize().size());
}

TEST(AmountTest, SubsidySchedule) {
  EXPECT_EQ(block_subsidy(0), 50 * kCoin);
  EXPECT_EQ(block_subsidy(1), 25 * kCoin);
  EXPECT_EQ(block_subsidy(2), 125 * kCoin / 10);
  EXPECT_EQ(block_subsidy(64), 0);
  EXPECT_EQ(block_subsidy(100), 0);
}

TEST(AmountTest, MoneyRange) {
  EXPECT_TRUE(money_range(0));
  EXPECT_TRUE(money_range(kMaxMoney));
  EXPECT_FALSE(money_range(-1));
  EXPECT_FALSE(money_range(kMaxMoney + 1));
}

}  // namespace
}  // namespace icbtc::bitcoin
