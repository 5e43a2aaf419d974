#include "bitcoin/script.h"

#include <gtest/gtest.h>

#include "crypto/ripemd160.h"
#include "crypto/sha256.h"

namespace icbtc::bitcoin {
namespace {

crypto::PrivateKey test_key(std::uint8_t tag) {
  return crypto::PrivateKey::from_seed(util::Bytes{tag, 0x42});
}

util::Hash160 key_hash(const crypto::PrivateKey& key) {
  return crypto::hash160(key.public_key().compressed());
}

TEST(ScriptTest, P2pkhTemplate) {
  util::Hash160 h;
  h.data[0] = 0xab;
  auto script = p2pkh_script(h);
  EXPECT_EQ(script.size(), 25u);
  EXPECT_TRUE(is_p2pkh(script));
  EXPECT_FALSE(is_p2wpkh(script));
  auto extracted = extract_pubkey_hash(script);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(*extracted, h);
}

TEST(ScriptTest, P2wpkhTemplate) {
  util::Hash160 h;
  h.data[19] = 0xcd;
  auto script = p2wpkh_script(h);
  EXPECT_EQ(script.size(), 22u);
  EXPECT_TRUE(is_p2wpkh(script));
  EXPECT_FALSE(is_p2pkh(script));
  EXPECT_EQ(*extract_pubkey_hash(script), h);
}

TEST(ScriptTest, OpReturnTemplate) {
  util::Bytes payload = {1, 2, 3};
  auto script = op_return_script(payload);
  EXPECT_TRUE(is_op_return(script));
  EXPECT_FALSE(extract_pubkey_hash(script).has_value());
  util::Bytes huge(80, 0);
  EXPECT_THROW(op_return_script(huge), std::invalid_argument);
}

TEST(ScriptTest, NonStandardScriptsRejected) {
  EXPECT_FALSE(extract_pubkey_hash(util::Bytes{0x51}).has_value());
  EXPECT_FALSE(is_p2pkh(util::Bytes{}));
  EXPECT_FALSE(is_op_return(util::Bytes{}));
}

Transaction make_spend(const OutPoint& prevout, const util::Bytes& dest_script, Amount value) {
  Transaction tx;
  TxIn in;
  in.prevout = prevout;
  tx.inputs.push_back(in);
  tx.outputs.push_back(TxOut{value, dest_script});
  return tx;
}

TEST(SighashTest, DependsOnInputsOutputsAndScript) {
  auto key = test_key(1);
  auto script = p2pkh_script(key_hash(key));
  OutPoint prev;
  prev.txid.data[0] = 1;
  Transaction tx = make_spend(prev, script, 50);

  auto base = legacy_sighash(tx, 0, script);
  Transaction tx2 = tx;
  tx2.outputs[0].value = 51;
  EXPECT_NE(legacy_sighash(tx2, 0, script), base);
  Transaction tx3 = tx;
  tx3.inputs[0].prevout.vout = 1;
  EXPECT_NE(legacy_sighash(tx3, 0, script), base);
  auto other_script = p2pkh_script(key_hash(test_key(2)));
  EXPECT_NE(legacy_sighash(tx, 0, other_script), base);
}

TEST(SighashTest, IgnoresExistingScriptSigs) {
  auto key = test_key(1);
  auto script = p2pkh_script(key_hash(key));
  OutPoint prev;
  Transaction tx = make_spend(prev, script, 50);
  auto base = legacy_sighash(tx, 0, script);
  tx.inputs[0].script_sig = {9, 9, 9};  // must not affect the digest
  EXPECT_EQ(legacy_sighash(tx, 0, script), base);
}

TEST(SighashTest, OutOfRangeIndexThrows) {
  Transaction tx = make_spend(OutPoint{}, {}, 1);
  EXPECT_THROW(legacy_sighash(tx, 1, {}), std::out_of_range);
}

TEST(ScriptSigTest, BuildAndParseRoundTrip) {
  auto key = test_key(3);
  auto digest = crypto::Sha256::hash(util::Bytes{1});
  auto sig = key.sign(digest);
  auto pubkey = key.public_key().compressed();
  auto script_sig = p2pkh_script_sig(sig, pubkey);
  auto parsed = parse_p2pkh_script_sig(script_sig);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->second, pubkey);
  EXPECT_EQ(parsed->first.back(), kSighashAll);
  auto recovered = crypto::Signature::from_der(
      util::ByteSpan(parsed->first.data(), parsed->first.size() - 1));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, sig);
}

TEST(ScriptSigTest, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_p2pkh_script_sig(util::Bytes{}).has_value());
  EXPECT_FALSE(parse_p2pkh_script_sig(util::Bytes{5, 1, 2}).has_value());
  util::Bytes trailing = {9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0xff, 0xee};
  EXPECT_FALSE(parse_p2pkh_script_sig(trailing).has_value());
}

class P2pkhSpendTest : public ::testing::Test {
 protected:
  crypto::PrivateKey key_ = test_key(7);
  util::Bytes lock_script_ = p2pkh_script(key_hash(key_));
  Transaction tx_;
  SignatureCache cache_;

  void SetUp() override {
    OutPoint prev;
    prev.txid.data[5] = 0x77;
    tx_ = make_spend(prev, p2pkh_script(key_hash(test_key(8))), 90);
    auto digest = legacy_sighash(tx_, 0, lock_script_);
    auto sig = key_.sign(digest);
    tx_.inputs[0].script_sig = p2pkh_script_sig(sig, key_.public_key().compressed());
  }
};

TEST_F(P2pkhSpendTest, ValidSpendVerifies) {
  EXPECT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
}

TEST_F(P2pkhSpendTest, WrongKeyFails) {
  auto other_script = p2pkh_script(key_hash(test_key(9)));
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, other_script, cache_));
}

TEST_F(P2pkhSpendTest, TamperedOutputFails) {
  tx_.outputs[0].value += 1;
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
}

TEST_F(P2pkhSpendTest, TamperedSignatureFails) {
  tx_.inputs[0].script_sig[5] ^= 0x01;
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
}

TEST_F(P2pkhSpendTest, EmptyScriptSigFails) {
  tx_.inputs[0].script_sig.clear();
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
}

TEST_F(P2pkhSpendTest, NonP2pkhLockScriptFails) {
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, p2wpkh_script(key_hash(key_)), cache_));
}

TEST_F(P2pkhSpendTest, OutOfRangeInputFails) {
  EXPECT_FALSE(verify_p2pkh_input(tx_, 5, lock_script_, cache_));
}

// A cache warmed by the valid spend holds (digest, pubkey, DER) of that spend.
// Every alteration below changes one field of the triple, so it must miss
// and fail its own check.
TEST_F(P2pkhSpendTest, WarmCacheHitSkipsTheCheck) {
  EXPECT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_EQ(cache_.checks(), 1u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(P2pkhSpendTest, WarmCacheWrongKeyFails) {
  ASSERT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, p2pkh_script(key_hash(test_key(9))), cache_));
}

TEST_F(P2pkhSpendTest, WarmCacheTamperedOutputFails) {
  ASSERT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  tx_.outputs[0].value += 1;
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
}

TEST_F(P2pkhSpendTest, WarmCacheTamperedSignatureFails) {
  ASSERT_TRUE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  tx_.inputs[0].script_sig[10] ^= 0x01;  // inside r: still valid DER
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(P2pkhSpendTest, FailedCheckIsNeverCached) {
  tx_.inputs[0].script_sig[10] ^= 0x01;
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_FALSE(verify_p2pkh_input(tx_, 0, lock_script_, cache_));
  EXPECT_EQ(cache_.checks(), 2u);
  EXPECT_EQ(cache_.size(), 0u);
}

TEST(SignatureCacheTest, SizeNeverExceedsCapacity) {
  SignatureCache cache;
  const util::Bytes pubkey{2, 7}, sig{0x30, 1};
  const std::size_t n = 2 * SignatureCache::kCapacity + 3;
  for (std::size_t i = 0; i < n; ++i) {
    util::Hash256 digest;
    for (std::size_t b = 0; b < 8; ++b) digest.data[b] = static_cast<std::uint8_t>(i >> (8 * b));
    ASSERT_TRUE(cache.verify(digest, pubkey, sig, [] { return true; }));
    ASSERT_LE(cache.size(), SignatureCache::kCapacity);
  }
  EXPECT_EQ(cache.checks(), n);
  // Flushed wholesale when full: twice, leaving the last three entries.
  EXPECT_EQ(cache.size(), 3u);
  util::Hash256 first;  // entry 0 went with the first flush
  bool ran = false;
  EXPECT_TRUE(cache.verify(first, pubkey, sig, [&] { return ran = true; }));
  EXPECT_TRUE(ran);
}

TEST(SignatureCacheTest, FieldBoundariesArePartOfTheKey) {
  // (pubkey, sig) = ({1, 2}, {3}) and ({1}, {2, 3}) concatenate to the same
  // bytes; the length prefixes keep them apart.
  SignatureCache cache;
  util::Hash256 digest;
  ASSERT_TRUE(cache.verify(digest, util::Bytes{1, 2}, util::Bytes{3}, [] { return true; }));
  EXPECT_FALSE(cache.verify(digest, util::Bytes{1}, util::Bytes{2, 3}, [] { return false; }));
  EXPECT_TRUE(cache.verify(digest, util::Bytes{1, 2}, util::Bytes{3}, [] { return false; }));
  EXPECT_EQ(cache.checks(), 2u);
}

}  // namespace
}  // namespace icbtc::bitcoin
