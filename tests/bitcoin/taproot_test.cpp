// Taproot (key-path) support: P2TR script template, bech32m addresses, the
// simplified taproot sighash, and Schnorr spend verification.
#include <gtest/gtest.h>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "crypto/schnorr.h"

namespace icbtc::bitcoin {
namespace {

crypto::SchnorrKeyPair test_key(std::uint64_t tag) {
  return crypto::SchnorrKeyPair::from_secret(crypto::U256(1000 + tag));
}

TEST(TaprootScriptTest, TemplateShape) {
  auto key = test_key(1);
  auto script = p2tr_script(key.pubkey.bytes());
  EXPECT_EQ(script.size(), 34u);
  EXPECT_TRUE(is_p2tr(script));
  EXPECT_FALSE(is_p2pkh(script));
  EXPECT_FALSE(is_p2wpkh(script));
  EXPECT_FALSE(extract_pubkey_hash(script).has_value());
}

TEST(TaprootScriptTest, NonP2trRejected) {
  util::Hash160 h;
  EXPECT_FALSE(is_p2tr(p2pkh_script(h)));
  EXPECT_FALSE(is_p2tr(util::Bytes{}));
  util::Bytes almost(34, 0);
  almost[0] = OP_1;
  almost[1] = 31;  // wrong push size
  EXPECT_FALSE(is_p2tr(almost));
}

TEST(Bech32mTest, Bip350TaprootVector) {
  // BIP-350 example: v1 program
  // 79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798 encodes
  // to bc1p... with bech32m.
  auto program = util::from_hex(
      "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  auto addr = segwit_encode("bc", 1, program);
  EXPECT_EQ(addr, "bc1p0xlxvlhemja6c4dqv22uapctqupfhlxm9h8z3k2e72q4k9hcz7vqzk5jj0");
  auto decoded = segwit_decode("bc", addr);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 1);
  EXPECT_EQ(decoded->second, program);
}

TEST(Bech32mTest, V0StillUsesBech32) {
  auto program = util::from_hex("751e76e8199196d454941c45d1b3a323f1433bd6");
  EXPECT_EQ(segwit_encode("bc", 0, program), bech32_encode("bc", program));
}

TEST(Bech32mTest, ChecksumConstantsNotInterchangeable) {
  auto program = util::from_hex(
      "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  // Encode v1 with the wrong (bech32) constant by faking a v0 encode of the
  // same data and then swapping the version character — decode must fail.
  auto addr = segwit_encode("bc", 1, program);
  // Tamper the version character ('p' = 1) to 'q' (= 0): checksum now wrong
  // for both constants.
  addr[3] = 'q';
  EXPECT_FALSE(segwit_decode("bc", addr).has_value());
}

TEST(TaprootAddressTest, RoundTripAllNetworks) {
  auto key = test_key(2);
  auto key_bytes = key.pubkey.bytes();
  util::Bytes expected_program(key_bytes.data.begin(), key_bytes.data.end());
  for (auto net : {Network::kMainnet, Network::kTestnet, Network::kRegtest}) {
    auto addr = p2tr_address(key_bytes, net);
    auto decoded = decode_address(addr, net);
    ASSERT_TRUE(decoded.has_value()) << addr;
    EXPECT_EQ(decoded->type, AddressType::kP2tr);
    EXPECT_EQ(decoded->program, expected_program);
    EXPECT_EQ(script_for_address(*decoded), p2tr_script(key_bytes));
  }
}

TEST(TaprootAddressTest, MainnetP2trStartsWithBc1p) {
  auto key = test_key(3);
  auto addr = p2tr_address(key.pubkey.bytes(), Network::kMainnet);
  EXPECT_EQ(addr.substr(0, 4), "bc1p");
}

class TaprootSpendTest : public ::testing::Test {
 protected:
  crypto::SchnorrKeyPair key_ = test_key(7);
  util::Bytes lock_script_ = p2tr_script(key_.pubkey.bytes());
  Transaction tx_;
  SignatureCache cache_;

  void SetUp() override {
    TxIn in;
    in.prevout.txid.data[5] = 0x77;
    tx_.inputs.push_back(in);
    tx_.outputs.push_back(TxOut{90, p2tr_script(test_key(8).pubkey.bytes())});
    auto digest = taproot_sighash(tx_, 0, lock_script_);
    auto sig = crypto::schnorr_sign(key_.secret_even_y, digest);
    tx_.inputs[0].script_sig = sig.bytes();
  }
};

TEST_F(TaprootSpendTest, ValidSpendVerifies) {
  EXPECT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
}

TEST_F(TaprootSpendTest, WrongKeyFails) {
  auto other = p2tr_script(test_key(9).pubkey.bytes());
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, other, cache_));
}

TEST_F(TaprootSpendTest, TamperedOutputFails) {
  tx_.outputs[0].value += 1;
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
}

TEST_F(TaprootSpendTest, TamperedSignatureFails) {
  tx_.inputs[0].script_sig[10] ^= 1;
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
}

TEST_F(TaprootSpendTest, WrongLengthSignatureFails) {
  tx_.inputs[0].script_sig.pop_back();
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
}

TEST_F(TaprootSpendTest, NonTaprootLockFails) {
  util::Hash160 h;
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, p2pkh_script(h), cache_));
}

// Warm-cache cases, as for P2PKH: each alteration changes one field of the
// cached (digest, x-only key, signature) triple.
TEST_F(TaprootSpendTest, WarmCacheHitSkipsTheCheck) {
  EXPECT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  EXPECT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  EXPECT_EQ(cache_.checks(), 1u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(TaprootSpendTest, WarmCacheWrongKeyFails) {
  ASSERT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, p2tr_script(test_key(9).pubkey.bytes()), cache_));
}

TEST_F(TaprootSpendTest, WarmCacheTamperedOutputFails) {
  ASSERT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  tx_.outputs[0].value += 1;
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
}

TEST_F(TaprootSpendTest, WarmCacheTamperedSignatureFails) {
  ASSERT_TRUE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  tx_.inputs[0].script_sig[10] ^= 1;
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  EXPECT_FALSE(verify_p2tr_input(tx_, 0, lock_script_, cache_));
  EXPECT_EQ(cache_.checks(), 3u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(TaprootSpendTest, SighashCommitsToInputIndex) {
  TxIn extra;
  extra.prevout.txid.data[1] = 0x22;
  tx_.inputs.push_back(extra);
  auto h0 = taproot_sighash(tx_, 0, lock_script_);
  auto h1 = taproot_sighash(tx_, 1, lock_script_);
  EXPECT_NE(h0, h1);
  EXPECT_THROW(taproot_sighash(tx_, 5, lock_script_), std::out_of_range);
}

TEST_F(TaprootSpendTest, SighashIgnoresOtherScriptSigs) {
  TxIn extra;
  extra.prevout.txid.data[1] = 0x22;
  tx_.inputs.push_back(extra);
  auto before = taproot_sighash(tx_, 0, lock_script_);
  tx_.inputs[1].script_sig = {1, 2, 3};
  EXPECT_EQ(taproot_sighash(tx_, 0, lock_script_), before);
}

}  // namespace
}  // namespace icbtc::bitcoin
