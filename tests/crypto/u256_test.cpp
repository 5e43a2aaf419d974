#include "crypto/u256.h"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/secp256k1.h"
#include "util/rng.h"

namespace icbtc::crypto {
namespace {

const U256 kAllOnes(~0ULL, ~0ULL, ~0ULL, ~0ULL);

U256 random_u256(util::Rng& rng) { return U256(rng.next(), rng.next(), rng.next(), rng.next()); }

// Reference reduction: x mod m by shift-and-subtract over all 512 bits.
U256 slow_mod(const U512& x, const U256& m) {
  U256 r;
  for (int i = 511; i >= 0; --i) {
    bool overflow = r.bit(255);
    r = r.shifted_left(1);
    r.limb[0] |= (x.limb[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1;
    if (overflow || r >= m) r = r - m;
  }
  return r;
}

U512 make_u512(const U256& hi, const U256& lo) {
  U512 x;
  for (std::size_t i = 0; i < 4; ++i) {
    x.limb[i] = lo.limb[i];
    x.limb[i + 4] = hi.limb[i];
  }
  return x;
}

// Inputs hi·2^256 + lo whose first fold (lo + hi·k) ends at 2^256 − 1 − j in
// its low half, so that the second fold carries out of 2^256.
U512 second_fold_carries(const U256& hi, const U256& k, std::uint64_t j) {
  U256 lo = U256(0) - mul_full(hi, k).lo() - U256(1 + j);
  return make_u512(hi, lo);
}

TEST(U256Test, HexRoundTrip) {
  U256 v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  EXPECT_EQ(v.to_hex(), "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256Test, ShortHexIsZeroPadded) {
  U256 v = U256::from_hex("ff");
  EXPECT_EQ(v, U256(255));
  EXPECT_EQ(v.to_hex(), std::string(62, '0') + "ff");
}

TEST(U256Test, ByteOrderBigEndian) {
  U256 v(0x0102030405060708ULL);
  auto be = v.to_be_bytes();
  EXPECT_EQ(be.data[31], 0x08);
  EXPECT_EQ(be.data[24], 0x01);
  EXPECT_EQ(be.data[0], 0x00);
  EXPECT_EQ(U256::from_be_bytes(be.span()), v);
}

TEST(U256Test, Comparison) {
  U256 a(5), b(6);
  U256 big = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  EXPECT_LT(a, b);
  EXPECT_LT(b, big);
  EXPECT_EQ(a, U256(5));
}

TEST(U256Test, AdditionWithCarry) {
  U256 max = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U256 out;
  EXPECT_EQ(U256::add_with_carry(max, U256(1), out), 1u);
  EXPECT_TRUE(out.is_zero());
  EXPECT_EQ(U256::add_with_carry(U256(2), U256(3), out), 0u);
  EXPECT_EQ(out, U256(5));
}

TEST(U256Test, SubtractionWithBorrow) {
  U256 out;
  EXPECT_EQ(U256::sub_with_borrow(U256(5), U256(3), out), 0u);
  EXPECT_EQ(out, U256(2));
  EXPECT_EQ(U256::sub_with_borrow(U256(3), U256(5), out), 1u);
  // 3 - 5 wraps to 2^256 - 2.
  EXPECT_EQ(out.to_hex(), "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe");
}

TEST(U256Test, LimbCrossingCarry) {
  U256 a = U256::from_hex("000000000000000000000000000000000000000000000000ffffffffffffffff");
  U256 b(1);
  U256 sum = a + b;
  EXPECT_EQ(sum.to_hex(), "0000000000000000000000000000000000000000000000010000000000000000");
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), 0);
  EXPECT_EQ(U256(1).bit_length(), 1);
  EXPECT_EQ(U256(255).bit_length(), 8);
  EXPECT_EQ(U256(256).bit_length(), 9);
  EXPECT_EQ(U256::from_hex("8000000000000000000000000000000000000000000000000000000000000000")
                .bit_length(),
            256);
}

TEST(U256Test, BitAccess) {
  U256 v(0b1010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.is_odd());
  EXPECT_TRUE(U256(7).is_odd());
}

TEST(U256Test, Shifts) {
  U256 v(1);
  EXPECT_EQ(v.shifted_left(64), U256(0, 1, 0, 0));
  EXPECT_EQ(v.shifted_left(70), U256(0, 64, 0, 0));
  EXPECT_EQ(U256(0, 64, 0, 0).shifted_right(70), U256(1));
  EXPECT_EQ(v.shifted_left(256), U256(0));
  EXPECT_EQ(v.shifted_right(256), U256(0));
  U256 pattern = U256::from_hex("00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff");
  EXPECT_EQ(pattern.shifted_left(8).shifted_right(8), pattern);
}

TEST(U256Test, MulFullSmall) {
  U512 p = mul_full(U256(7), U256(6));
  EXPECT_EQ(p.lo(), U256(42));
  EXPECT_TRUE(p.hi_is_zero());
}

TEST(U256Test, MulFullMaximal) {
  U256 max = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U512 p = mul_full(max, max);
  // (2^256-1)^2 = 2^512 - 2^257 + 1.
  EXPECT_EQ(p.lo(), U256(1));
  EXPECT_EQ(p.hi().to_hex(),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe");
}

TEST(ModCtxTest, RejectsSmallModulus) {
  EXPECT_THROW(ModCtx(U256(97)), std::invalid_argument);
}

TEST(ModCtxTest, FieldArithmeticIdentities) {
  const ModCtx& f = field_ctx();
  U256 a = U256::from_hex("123456789abcdef0fedcba9876543210deadbeefcafebabe0123456789abcdef");
  U256 b = U256::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
  EXPECT_EQ(f.add(a, f.neg(a)), U256(0));
  EXPECT_EQ(f.sub(a, a), U256(0));
  EXPECT_EQ(f.mul(a, U256(1)), f.reduce(a));
  EXPECT_EQ(f.add(a, b), f.add(b, a));
  EXPECT_EQ(f.mul(a, b), f.mul(b, a));
  // Distributivity.
  EXPECT_EQ(f.mul(a, f.add(b, U256(7))), f.add(f.mul(a, b), f.mul(a, U256(7))));
}

class ModCtxDifferential : public ::testing::TestWithParam<bool> {
 protected:
  const ModCtx& ctx() const { return GetParam() ? field_ctx() : scalar_ctx(); }
};

TEST_P(ModCtxDifferential, MulSqrReduceMatchSlowReference) {
  const ModCtx& m = ctx();
  const U256& mod = m.modulus();
  const U256 k = U256(0) - mod;  // 2^256 mod m
  std::vector<U256> edges = {U256(0), U256(1), U256(2), mod - U256(1), mod - U256(2), k};
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      EXPECT_EQ(m.mul(a, b), slow_mod(mul_full(a, b), mod)) << a.to_hex() << " " << b.to_hex();
    }
    EXPECT_EQ(m.sqr(a), slow_mod(mul_full(a, a), mod)) << a.to_hex();
  }
  std::vector<U512> reduce_inputs = {
      make_u512(U256(0), kAllOnes),         // 2^256 − 1
      make_u512(kAllOnes, kAllOnes),        // 2^512 − 1
      make_u512(kAllOnes, U256(0)),         // high half all ones
      make_u512(kAllOnes, mod),
      make_u512(U256(0), mod),
      make_u512(mod - U256(1), mod - U256(1)),
  };
  util::Rng rng(GetParam() ? 0xf1e1d : 0x5ca1a);
  for (std::uint64_t j = 0; j < 64; ++j) {
    reduce_inputs.push_back(second_fold_carries(random_u256(rng), k, j));
    reduce_inputs.push_back(second_fold_carries(kAllOnes, k, j));
    reduce_inputs.push_back(make_u512(kAllOnes, random_u256(rng)));
  }
  for (const U512& x : reduce_inputs) {
    EXPECT_EQ(m.reduce512(x), slow_mod(x, mod)) << x.hi().to_hex() << x.lo().to_hex();
  }
  for (int i = 0; i < 10000; ++i) {
    U256 a = m.reduce(random_u256(rng));
    U256 b = m.reduce(random_u256(rng));
    ASSERT_EQ(m.mul(a, b), slow_mod(mul_full(a, b), mod)) << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(m.sqr(a), slow_mod(mul_full(a, a), mod)) << a.to_hex();
    U512 x = make_u512(random_u256(rng), random_u256(rng));
    ASSERT_EQ(m.reduce512(x), slow_mod(x, mod)) << x.hi().to_hex() << x.lo().to_hex();
  }
}

TEST_P(ModCtxDifferential, InverseMatchesFermat) {
  const ModCtx& m = ctx();
  const U256 exp = m.modulus() - U256(2);
  util::Rng rng(GetParam() ? 0x1a7e : 0x2b8f);
  std::vector<U256> values = {U256(1), U256(2), m.modulus() - U256(1), m.modulus() + U256(3),
                              kAllOnes};
  for (int i = 0; i < 200; ++i) values.push_back(random_u256(rng));
  for (const U256& a : values) {
    U256 inv = m.inv(a);
    EXPECT_EQ(inv, m.pow(a, exp)) << a.to_hex();
    EXPECT_EQ(m.mul(a, inv), U256(1)) << a.to_hex();
  }
  EXPECT_THROW(m.inv(U256(0)), std::domain_error);
  EXPECT_THROW(m.inv(m.modulus()), std::domain_error);
}

INSTANTIATE_TEST_SUITE_P(FieldAndScalar, ModCtxDifferential, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "field" : "scalar"; });

TEST(ModCtxTest, InverseIsInverse) {
  const ModCtx& f = field_ctx();
  U256 a = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000000000001");
  EXPECT_EQ(f.mul(a, f.inv(a)), U256(1));
  EXPECT_THROW(f.inv(U256(0)), std::domain_error);
}

TEST(ModCtxTest, ScalarFieldInverse) {
  const ModCtx& sc = scalar_ctx();
  U256 a(123456789);
  EXPECT_EQ(sc.mul(a, sc.inv(a)), U256(1));
}

TEST(ModCtxTest, ReduceHandlesValuesAboveModulus) {
  const ModCtx& f = field_ctx();
  U256 max = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  // p = 2^256 - 2^32 - 977, so max mod p = 2^32 + 976.
  EXPECT_EQ(f.reduce(max), U256(0x1000003d0ULL));
}

TEST(ModCtxTest, PowMatchesRepeatedMul) {
  const ModCtx& f = field_ctx();
  U256 base(3);
  U256 expect(1);
  for (int i = 0; i < 20; ++i) expect = f.mul(expect, base);
  EXPECT_EQ(f.pow(base, U256(20)), expect);
  EXPECT_EQ(f.pow(base, U256(0)), U256(1));
}

TEST(ModCtxTest, FermatHolds) {
  // a^(p-1) == 1 mod p for prime p.
  const ModCtx& f = field_ctx();
  U256 a(987654321);
  U256 p_minus_1 = f.modulus() - U256(1);
  EXPECT_EQ(f.pow(a, p_minus_1), U256(1));
}

TEST(ModCtxTest, Reduce512KnownProduct) {
  const ModCtx& f = field_ctx();
  // (p-1)^2 mod p == 1.
  U256 p_minus_1 = f.modulus() - U256(1);
  EXPECT_EQ(f.mul(p_minus_1, p_minus_1), U256(1));
  // (p-1)*(p-2) mod p == 2.
  U256 p_minus_2 = f.modulus() - U256(2);
  EXPECT_EQ(f.mul(p_minus_1, p_minus_2), U256(2));
}

}  // namespace
}  // namespace icbtc::crypto
