#include "crypto/secp256k1.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace icbtc::crypto {
namespace {

U256 random_scalar(util::Rng& rng) {
  return scalar_ctx().reduce(U256(rng.next(), rng.next(), rng.next(), rng.next()));
}

// Reference group law: affine chord-and-tangent, one inversion per step.
AffinePoint ref_add(const AffinePoint& a, const AffinePoint& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  const ModCtx& f = field_ctx();
  U256 lambda;
  if (a.x == b.x) {
    if (a.y != b.y || a.y.is_zero()) return AffinePoint{};
    lambda = f.mul(f.mul(U256(3), f.sqr(a.x)), f.inv(f.mul(U256(2), a.y)));
  } else {
    lambda = f.mul(f.sub(b.y, a.y), f.inv(f.sub(b.x, a.x)));
  }
  U256 x3 = f.sub(f.sub(f.sqr(lambda), a.x), b.x);
  return AffinePoint::make(x3, f.sub(f.mul(lambda, f.sub(a.x, x3)), a.y));
}

// Reference k·P: affine double-and-add over the bits of k.
AffinePoint ref_mul(const U256& k, const AffinePoint& p) {
  AffinePoint acc;
  for (int i = k.bit_length() - 1; i >= 0; --i) {
    acc = ref_add(acc, acc);
    if (k.bit(i)) acc = ref_add(acc, p);
  }
  return acc;
}

TEST(Secp256k1Test, GeneratorOnCurve) {
  EXPECT_TRUE(generator().on_curve());
  EXPECT_FALSE(generator().infinity);
}

TEST(Secp256k1Test, KnownMultiplesOfG) {
  // 2G, from the standard secp256k1 test vectors.
  AffinePoint two_g = generator_mul(U256(2));
  EXPECT_EQ(two_g.x.to_hex(), "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(two_g.y.to_hex(), "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
  // 3G.
  AffinePoint three_g = generator_mul(U256(3));
  EXPECT_EQ(three_g.x.to_hex(),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9");
  // 7G.
  AffinePoint seven_g = generator_mul(U256(7));
  EXPECT_EQ(seven_g.x.to_hex(),
            "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc");
}

TEST(Secp256k1Test, LargeScalarVector) {
  // k = 0xAA5E28D6...D1 from the SEC test vector collection.
  U256 k = U256::from_hex("aa5e28d6a97a2479a65527f7290311a3624d4cc0fa1578598ee3c2613bf99522");
  AffinePoint p = generator_mul(k);
  EXPECT_EQ(p.x.to_hex(), "34f9460f0e4f08393d192b3c5133a6ba099aa0ad9fd54ebccfacdfa239ff49c6");
  EXPECT_EQ(p.y.to_hex(), "0b71ea9bd730fd8923f6d25a7a91e7dd7728a960686cb5a901bb419e0f2ca232");
}

TEST(Secp256k1Test, OrderTimesGIsInfinity) {
  AffinePoint p = generator_mul(curve_order());
  EXPECT_TRUE(p.infinity);
}

TEST(Secp256k1Test, GeneratorMulMatchesScalarMul) {
  for (std::uint64_t k : {1ULL, 2ULL, 5ULL, 1000ULL, 123456789ULL}) {
    EXPECT_EQ(generator_mul(U256(k)), scalar_mul(U256(k), generator())) << k;
  }
  U256 big = U256::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
  EXPECT_EQ(generator_mul(big), scalar_mul(big, generator()));
}

TEST(Secp256k1Test, AdditionAgreesWithScalars) {
  // (a+b)G == aG + bG.
  U256 a(123456), b(654321);
  AffinePoint sum_point = JacobianPoint::from_affine(generator_mul(a))
                              .add_affine(generator_mul(b))
                              .to_affine();
  EXPECT_EQ(sum_point, generator_mul(a + b));
}

TEST(Secp256k1Test, DoublingAgreesWithAddition) {
  AffinePoint g5 = generator_mul(U256(5));
  JacobianPoint j5 = JacobianPoint::from_affine(g5);
  EXPECT_EQ(j5.doubled().to_affine(), generator_mul(U256(10)));
  EXPECT_EQ(j5.add(j5).to_affine(), generator_mul(U256(10)));
}

TEST(Secp256k1Test, AddingInverseYieldsInfinity) {
  AffinePoint p = generator_mul(U256(9));
  AffinePoint neg = AffinePoint::make(p.x, field_ctx().neg(p.y));
  EXPECT_TRUE(neg.on_curve());
  auto sum = JacobianPoint::from_affine(p).add_affine(neg).to_affine();
  EXPECT_TRUE(sum.infinity);
}

TEST(Secp256k1Test, InfinityIsIdentity) {
  JacobianPoint inf = JacobianPoint::infinity_point();
  AffinePoint p = generator_mul(U256(11));
  EXPECT_EQ(inf.add_affine(p).to_affine(), p);
  EXPECT_EQ(JacobianPoint::from_affine(p).add(inf).to_affine(), p);
  EXPECT_TRUE(inf.doubled().is_infinity());
  EXPECT_TRUE(scalar_mul(U256(0), p).infinity);
}

TEST(Secp256k1Test, CompressedRoundTrip) {
  for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 99999ULL}) {
    AffinePoint p = generator_mul(U256(k));
    auto enc = p.compressed();
    ASSERT_EQ(enc.size(), 33u);
    auto parsed = AffinePoint::parse(enc);
    ASSERT_TRUE(parsed.has_value()) << k;
    EXPECT_EQ(*parsed, p);
  }
}

TEST(Secp256k1Test, UncompressedRoundTrip) {
  AffinePoint p = generator_mul(U256(42));
  auto enc = p.uncompressed();
  ASSERT_EQ(enc.size(), 65u);
  auto parsed = AffinePoint::parse(enc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(Secp256k1Test, GeneratorCompressedEncoding) {
  EXPECT_EQ(util::to_hex(generator().compressed()),
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
}

TEST(Secp256k1Test, ParseRejectsGarbage) {
  util::Bytes bad(33, 0x02);
  bad[1] = 0xff;  // x beyond any curve point with prefix pattern unlikely
  // Force x >= p to exercise range check.
  for (std::size_t i = 1; i < 33; ++i) bad[i] = 0xff;
  EXPECT_FALSE(AffinePoint::parse(bad).has_value());

  util::Bytes wrong_len(10, 0x02);
  EXPECT_FALSE(AffinePoint::parse(wrong_len).has_value());

  // Uncompressed point not on the curve.
  AffinePoint p = generator_mul(U256(4));
  auto enc = p.uncompressed();
  enc[64] ^= 0x01;
  EXPECT_FALSE(AffinePoint::parse(enc).has_value());
}

TEST(Secp256k1Test, ParseNonResidueFails) {
  // x = 5 has no curve point on secp256k1 (5^3+7 = 132 is a non-residue).
  util::Bytes enc(33, 0x00);
  enc[0] = 0x02;
  enc[32] = 0x05;
  EXPECT_FALSE(AffinePoint::parse(enc).has_value());
}

TEST(Secp256k1Test, DoubleMulMatchesSeparate) {
  // Equal u1, u2 with P = ±G make the ladder add a point to itself (the
  // doubling branch, H = 0 and r = 0) or to its negation (infinity, H = 0 and
  // r != 0); the top-window scalars hit that on the first window.
  util::Rng rng(0xd0b1e);
  const std::vector<U256> us = {U256(0),
                                U256(1),
                                curve_order() - U256(1),
                                U256(777),
                                random_scalar(rng),
                                U256(0, 0, 0, 0x5ULL << 60),
                                U256(0, 0, 0, 0xfULL << 60)};
  const std::vector<AffinePoint> ps = {generator(), generator().negated(),
                                       generator_mul(U256(31337)),
                                       generator_mul(random_scalar(rng))};
  for (const AffinePoint& p : ps) {
    for (const U256& u2 : us) {
      AffinePoint u2p = scalar_mul(u2, p);
      ASSERT_EQ(u2p, ref_mul(u2, p)) << u2.to_hex();
      for (const U256& u1 : us) {
        AffinePoint expect = ref_add(generator_mul(u1), u2p);
        EXPECT_EQ(double_mul(u1, u2, p), expect) << u1.to_hex() << " " << u2.to_hex();
        JacobianPoint g_part = JacobianPoint::from_affine(generator_mul(u1));
        EXPECT_EQ(g_part.add_affine(u2p).to_affine(), expect);
      }
    }
  }
}

class ScalarMulProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarMulProperty, HomomorphicOverAddition) {
  std::uint64_t seed = GetParam();
  U256 a(seed * 2654435761ULL + 1);
  U256 b(seed * 40503ULL + 7);
  AffinePoint lhs = JacobianPoint::from_affine(generator_mul(a))
                        .add_affine(generator_mul(b))
                        .to_affine();
  AffinePoint rhs = generator_mul(scalar_ctx().add(a, b));
  EXPECT_EQ(lhs, rhs);
  EXPECT_TRUE(lhs.on_curve());

  // The windowed ladder against affine double-and-add, at a random point.
  util::Rng rng(seed);
  U256 k = random_scalar(rng);
  AffinePoint p = generator_mul(random_scalar(rng));
  AffinePoint kp = scalar_mul(k, p);
  EXPECT_EQ(kp, ref_mul(k, p));
  EXPECT_EQ(double_mul(a, k, p), ref_add(generator_mul(a), kp));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScalarMulProperty, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace icbtc::crypto
