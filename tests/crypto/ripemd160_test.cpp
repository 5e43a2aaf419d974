#include "crypto/ripemd160.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace icbtc::crypto {
namespace {

util::ByteSpan span_of(const std::string& s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

struct Case {
  std::string input;
  std::string digest;
};

// Names each case by its digest. gtest's default printer dumps the struct's
// bytes, heap pointers included, so the test name would differ on every run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.digest; }

class Ripemd160Vectors : public ::testing::TestWithParam<Case> {};

TEST_P(Ripemd160Vectors, MatchesReference) {
  const auto& c = GetParam();
  EXPECT_EQ(ripemd160(span_of(c.input)).hex(), c.digest);
}

// Official RIPEMD-160 test vectors (Dobbertin, Bosselaers, Preneel).
INSTANTIATE_TEST_SUITE_P(
    Reference, Ripemd160Vectors,
    ::testing::Values(
        Case{"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"},
        Case{"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"},
        Case{"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"},
        Case{"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"},
        Case{"abcdefghijklmnopqrstuvwxyz", "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"},
        Case{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
             "12a053384a9c0c88e405a06c27dcf49ada62eb2b"},
        Case{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
             "b0e20b6e3116640286ed3a87a5713079b21f5189"}));

TEST(Ripemd160Test, MillionAs) {
  std::string s(1000000, 'a');
  EXPECT_EQ(ripemd160(span_of(s)).hex(), "52783243c1697bdbe16d37f97f68f08325dc1528");
}

TEST(Hash160Test, PubkeyHashVector) {
  // hash160 of the uncompressed genesis coinbase pubkey — spot-checked
  // against Bitcoin Core's output for the Satoshi genesis key.
  auto pubkey = util::from_hex(
      "0450863ad64a87ae8a2fe83c1af1a8403cb53f53e486d8511dad8a04887e5b2352"
      "2cd470243453a299fa9e77237716103abc11a1df38855ed6f2ee187e9c582ba6");
  EXPECT_EQ(util::to_hex(hash160(pubkey).span()), "010966776006953d5567439e5e39f86a0d273bee");
}

TEST(Hash160Test, IsRipemdOfSha256) {
  util::Bytes data = {1, 2, 3};
  auto direct = hash160(data);
  auto composed = ripemd160(Sha256::hash(data).span());
  EXPECT_EQ(direct, composed);
}

}  // namespace
}  // namespace icbtc::crypto
