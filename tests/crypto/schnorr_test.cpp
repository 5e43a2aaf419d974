#include "crypto/schnorr.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace icbtc::crypto {
namespace {

util::Hash256 h256(const std::string& hex) {
  util::Hash256 h;
  auto bytes = util::from_hex(hex);
  std::copy(bytes.begin(), bytes.end(), h.data.begin());
  return h;
}

util::FixedBytes<32> fb32(const std::string& hex) {
  return util::FixedBytes<32>::from_hex_str(hex);
}

struct Bip340Vector {
  std::string secret;
  std::string pubkey;
  std::string aux;
  std::string msg;
  std::string sig;
};

// Names each vector by the first 16 hex digits of its public key. gtest's
// default printer dumps the struct's bytes, heap pointers included, so the
// name would differ on every run.
void PrintTo(const Bip340Vector& v, std::ostream* os) { *os << v.pubkey.substr(0, 16); }

class Bip340SignVectors : public ::testing::TestWithParam<Bip340Vector> {};

TEST_P(Bip340SignVectors, SignMatchesReference) {
  const auto& v = GetParam();
  U256 secret = U256::from_hex(v.secret);
  SchnorrKeyPair pair = SchnorrKeyPair::from_secret(secret);
  EXPECT_EQ(pair.pubkey.bytes().hex(), v.pubkey);
  auto sig = schnorr_sign(secret, h256(v.msg), fb32(v.aux));
  EXPECT_EQ(util::to_hex(sig.bytes()), v.sig);
  EXPECT_TRUE(schnorr_verify(pair.pubkey, h256(v.msg), sig));
}

// Official BIP-340 test vectors 0-3.
INSTANTIATE_TEST_SUITE_P(
    Bip340, Bip340SignVectors,
    ::testing::Values(
        Bip340Vector{
            "0000000000000000000000000000000000000000000000000000000000000003",
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "e907831f80848d1069a5371b402410364bdf1c5f8307b0084c55f1ce2dca8215"
            "25f66a4a85ea8b71e482a74f382d2ce5ebeee8fdb2172f477df4900d310536c0"},
        Bip340Vector{
            "b7e151628aed2a6abf7158809cf4f3c762e7160f38b4da56a784d9045190cfef",
            "dff1d77f2a671c5f36183726db2341be58feae1da2deced843240f7b502ba659",
            "0000000000000000000000000000000000000000000000000000000000000001",
            "243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89",
            "6896bd60eeae296db48a229ff71dfe071bde413e6d43f917dc8dcf8c78de3341"
            "8906d11ac976abccb20b091292bff4ea897efcb639ea871cfa95f6de339e4b0a"},
        Bip340Vector{
            "c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b14e5c9",
            "dd308afec5777e13121fa72b9cc1b7cc0139715309b086c960e18fd969774eb8",
            "c87aa53824b4d7ae2eb035a2b5bbbccc080e76cdc6d1692c4b0b62d798e6d906",
            "7e2d58d8b3bcdf1abadec7829054f90dda9805aab56c77333024b9d0a508b75c",
            "5831aaeed7b44bb74e5eab94ba9d4294c49bcf2a60728d8b4c200f50dd313c1b"
            "ab745879a5ad954a72c45a91c3a51d3c7adea98d82f8481e0e1e03674a6f3fb7"},
        Bip340Vector{
            "0b432b2677937381aef05bb02a66ecd012773062cf3fa2549e44f58ed2401710",
            "25d1dff95105f5253c4022f628a996ad3a0d95fbf21d468a1b33f8c160d8f517",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            "7eb0509757e246f19449885651611cb965ecc1a187dd51b64fda1edc9637d5ec"
            "97582b9cb13db3933705b32ba982af5af25fd78881ebb32771fc5922efc66ea3"}));

TEST(SchnorrTest, VerifyRejectsWrongMessage) {
  U256 secret(12345);
  SchnorrKeyPair pair = SchnorrKeyPair::from_secret(secret);
  auto msg = Sha256::hash(util::Bytes{1});
  auto sig = schnorr_sign(secret, msg);
  EXPECT_TRUE(schnorr_verify(pair.pubkey, msg, sig));
  EXPECT_FALSE(schnorr_verify(pair.pubkey, Sha256::hash(util::Bytes{2}), sig));
}

TEST(SchnorrTest, VerifyRejectsTamperedSignature) {
  U256 secret(777);
  SchnorrKeyPair pair = SchnorrKeyPair::from_secret(secret);
  auto msg = Sha256::hash(util::Bytes{3});
  auto sig = schnorr_sign(secret, msg);
  SchnorrSignature bad = sig;
  bad.s = scalar_ctx().add(bad.s, U256(1));
  EXPECT_FALSE(schnorr_verify(pair.pubkey, msg, bad));
  bad = sig;
  bad.r = field_ctx().add(bad.r, U256(1));
  EXPECT_FALSE(schnorr_verify(pair.pubkey, msg, bad));
}

TEST(SchnorrTest, VerifyRejectsWrongKey) {
  auto msg = Sha256::hash(util::Bytes{4});
  auto sig = schnorr_sign(U256(1111), msg);
  SchnorrKeyPair other = SchnorrKeyPair::from_secret(U256(2222));
  EXPECT_FALSE(schnorr_verify(other.pubkey, msg, sig));
}

TEST(SchnorrTest, VerifyRejectsOutOfRangeComponents) {
  SchnorrKeyPair pair = SchnorrKeyPair::from_secret(U256(5));
  auto msg = Sha256::hash(util::Bytes{5});
  // s >= n.
  EXPECT_FALSE(schnorr_verify(pair.pubkey, msg, SchnorrSignature{U256(1), curve_order()}));
  // r >= p.
  EXPECT_FALSE(
      schnorr_verify(pair.pubkey, msg, SchnorrSignature{field_ctx().modulus(), U256(1)}));
}

TEST(SchnorrTest, XOnlyParseRejectsNonCurvePoints) {
  // x = 5 is not on the curve.
  util::Bytes bad(32, 0);
  bad[31] = 5;
  EXPECT_FALSE(XOnlyPublicKey::parse(bad).has_value());
  EXPECT_FALSE(XOnlyPublicKey::parse(util::Bytes(31, 0)).has_value());
}

TEST(SchnorrTest, SignatureParseRoundTrip) {
  auto sig = schnorr_sign(U256(42), Sha256::hash(util::Bytes{6}));
  auto parsed = SchnorrSignature::parse(sig.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, sig);
  EXPECT_FALSE(SchnorrSignature::parse(util::Bytes(63)).has_value());
}

TEST(SchnorrTest, KeyPairEvenYNormalization) {
  // d and n-d give the same x-only public key.
  U256 d(987654321);
  auto a = SchnorrKeyPair::from_secret(d);
  auto b = SchnorrKeyPair::from_secret(curve_order() - d);
  EXPECT_EQ(a.pubkey, b.pubkey);
  EXPECT_EQ(a.secret_even_y, b.secret_even_y);
  // The lifted point has even Y.
  auto p = a.pubkey.lift();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->y.is_odd());
}

TEST(SchnorrTest, KeyPairRangeChecks) {
  EXPECT_THROW(SchnorrKeyPair::from_secret(U256(0)), std::invalid_argument);
  EXPECT_THROW(SchnorrKeyPair::from_secret(curve_order()), std::invalid_argument);
}

TEST(SchnorrTest, TaggedHashMatchesDefinition) {
  // tagged_hash(tag, m) == SHA256(SHA256(tag)||SHA256(tag)||m).
  std::string tag = "BIP0340/challenge";
  util::Bytes msg = {9, 9, 9};
  auto tag_hash = Sha256::hash(
      util::ByteSpan(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  Sha256 manual;
  manual.update(tag_hash.span());
  manual.update(tag_hash.span());
  manual.update(msg);
  EXPECT_EQ(tagged_hash(tag, msg), manual.finalize());
}

TEST(SchnorrTest, DifferentAuxGivesDifferentNonceSameValidity) {
  U256 secret(31337);
  auto msg = Sha256::hash(util::Bytes{7});
  util::FixedBytes<32> aux1, aux2;
  aux2.data[0] = 1;
  auto sig1 = schnorr_sign(secret, msg, aux1);
  auto sig2 = schnorr_sign(secret, msg, aux2);
  EXPECT_NE(sig1, sig2);
  auto pub = SchnorrKeyPair::from_secret(secret).pubkey;
  EXPECT_TRUE(schnorr_verify(pub, msg, sig1));
  EXPECT_TRUE(schnorr_verify(pub, msg, sig2));
}

}  // namespace
}  // namespace icbtc::crypto
