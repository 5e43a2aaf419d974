#include "crypto/threshold_schnorr.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace icbtc::crypto {
namespace {

util::Hash256 msg_of(const std::string& s) {
  return Sha256::hash(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

TEST(ThresholdSchnorrTest, DealerSharesReconstructKey) {
  util::Rng rng(1);
  ThresholdSchnorrDealer dealer(3, 5, rng);
  std::vector<Share> shares(dealer.key_shares().begin(), dealer.key_shares().begin() + 3);
  U256 secret = shamir_reconstruct(shares);
  auto pair = SchnorrKeyPair::from_secret(secret);
  EXPECT_EQ(pair.pubkey, dealer.public_key());
}

TEST(ThresholdSchnorrTest, SignAndVerify) {
  ThresholdSchnorrService service(3, 5, 42);
  auto msg = msg_of("taproot spend");
  auto sig = service.sign(msg);
  EXPECT_TRUE(schnorr_verify(service.public_key(), msg, sig));
}

TEST(ThresholdSchnorrTest, AnySubsetSigns) {
  ThresholdSchnorrService service(3, 5, 43);
  auto msg = msg_of("m");
  for (auto participants : std::vector<std::vector<std::uint32_t>>{
           {1, 2, 3}, {3, 4, 5}, {1, 3, 5}, {2, 3, 4, 5}}) {
    auto sig = service.sign(msg, {}, participants);
    EXPECT_TRUE(schnorr_verify(service.public_key(), msg, sig));
  }
}

TEST(ThresholdSchnorrTest, ParticipantValidation) {
  ThresholdSchnorrService service(3, 5, 44);
  auto msg = msg_of("m");
  EXPECT_THROW(service.sign(msg, {}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(service.sign(msg, {}, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(service.sign(msg, {}, {1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(service.sign(msg, {}, {1, 2, 9}), std::invalid_argument);
}

TEST(ThresholdSchnorrTest, DealerValidation) {
  util::Rng rng(2);
  EXPECT_THROW(ThresholdSchnorrDealer(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(ThresholdSchnorrDealer(4, 3, rng), std::invalid_argument);
}

TEST(ThresholdSchnorrTest, DerivedKeysDifferAndSign) {
  ThresholdSchnorrService service(2, 3, 45);
  SchnorrDerivationPath p1 = {{0x01}};
  SchnorrDerivationPath p2 = {{0x02}};
  EXPECT_NE(service.public_key(p1), service.public_key(p2));
  EXPECT_NE(service.public_key(p1), service.public_key());

  auto msg = msg_of("derived");
  auto sig = service.sign(msg, p1);
  EXPECT_TRUE(schnorr_verify(service.public_key(p1), msg, sig));
  EXPECT_FALSE(schnorr_verify(service.public_key(p2), msg, sig));
  EXPECT_FALSE(schnorr_verify(service.public_key(), msg, sig));
}

TEST(ThresholdSchnorrTest, ManySignaturesUnderManyPaths) {
  // Sweeps parity combinations of derived keys (some tweaked points have odd
  // Y and require share negation).
  ThresholdSchnorrService service(2, 3, 46);
  for (std::uint8_t i = 0; i < 12; ++i) {
    SchnorrDerivationPath path = {{i, static_cast<std::uint8_t>(i * 7)}};
    auto msg = msg_of(std::string("m").append(std::to_string(i)));
    auto sig = service.sign(msg, path);
    EXPECT_TRUE(schnorr_verify(service.public_key(path), msg, sig)) << static_cast<int>(i);
  }
}

TEST(ThresholdSchnorrTest, CorruptPartialDetected) {
  util::Rng rng(47);
  ThresholdSchnorrDealer dealer(2, 3, rng);
  auto [pre, nonce_shares] = dealer.deal_presignature(rng);
  auto msg = msg_of("m");
  std::vector<SchnorrPartialSignature> partials = {
      compute_schnorr_partial(nonce_shares[0], dealer.key_shares()[0], pre,
                              dealer.public_key(), msg),
      compute_schnorr_partial(nonce_shares[1], dealer.key_shares()[1], pre,
                              dealer.public_key(), msg),
  };
  partials[0].s_share = scalar_ctx().add(partials[0].s_share, U256(1));
  EXPECT_FALSE(combine_schnorr_partials(partials, pre, dealer.public_key(), msg).has_value());
}

TEST(ThresholdSchnorrTest, CombineRejectsDuplicatesAndEmpty) {
  util::Rng rng(48);
  ThresholdSchnorrDealer dealer(2, 3, rng);
  auto [pre, nonce_shares] = dealer.deal_presignature(rng);
  auto msg = msg_of("m");
  auto p = compute_schnorr_partial(nonce_shares[0], dealer.key_shares()[0], pre,
                                   dealer.public_key(), msg);
  EXPECT_FALSE(combine_schnorr_partials({p, p}, pre, dealer.public_key(), msg).has_value());
  EXPECT_FALSE(combine_schnorr_partials({}, pre, dealer.public_key(), msg).has_value());
}

TEST(ThresholdSchnorrTest, MismatchedShareIndicesThrow) {
  util::Rng rng(49);
  ThresholdSchnorrDealer dealer(2, 3, rng);
  auto [pre, nonce_shares] = dealer.deal_presignature(rng);
  EXPECT_THROW(compute_schnorr_partial(nonce_shares[0], dealer.key_shares()[1], pre,
                                       dealer.public_key(), msg_of("m")),
               std::invalid_argument);
}

TEST(ThresholdSchnorrTest, IcSubnetParameters) {
  ThresholdSchnorrService service(9, 13, 50);
  auto msg = msg_of("subnet-sized");
  auto sig = service.sign(msg, {{0x42}});
  EXPECT_TRUE(schnorr_verify(service.public_key({{0x42}}), msg, sig));
}

}  // namespace
}  // namespace icbtc::crypto
