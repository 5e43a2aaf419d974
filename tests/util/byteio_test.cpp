#include "util/byteio.h"

#include <gtest/gtest.h>

namespace icbtc::util {
namespace {

TEST(ByteIoTest, LittleEndianRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16le(0x1234);
  w.u32le(0xdeadbeef);
  w.u64le(0x0123456789abcdefULL);
  w.i32le(-5);
  w.i64le(-123456789012345LL);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16le(), 0x1234);
  EXPECT_EQ(r.u32le(), 0xdeadbeefu);
  EXPECT_EQ(r.u64le(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32le(), -5);
  EXPECT_EQ(r.i64le(), -123456789012345LL);
  EXPECT_TRUE(r.done());
}

TEST(ByteIoTest, LittleEndianByteOrder) {
  ByteWriter w;
  w.u32le(0x01020304);
  EXPECT_EQ(to_hex(w.data()), "04030201");
}

TEST(ByteIoTest, ReadPastEndThrows) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  r.u8();
  r.u8();
  EXPECT_THROW(r.u8(), DecodeError);
}

struct VarintCase {
  std::uint64_t value;
  std::string hex;
};

// Names each case by its value. gtest's default printer dumps the struct's
// bytes, heap pointer included, so the test name would differ on every run.
void PrintTo(const VarintCase& c, std::ostream* os) {
  *os << "0x" << std::hex << c.value << std::dec;
}

class VarintTest : public ::testing::TestWithParam<VarintCase> {};

TEST_P(VarintTest, RoundTripsWithCanonicalEncoding) {
  const auto& p = GetParam();
  ByteWriter w;
  w.varint(p.value);
  EXPECT_EQ(to_hex(w.data()), p.hex);
  EXPECT_EQ(varint_size(p.value), w.size());
  ByteReader r(w.data());
  EXPECT_EQ(r.varint(), p.value);
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Canonical, VarintTest,
    ::testing::Values(VarintCase{0, "00"}, VarintCase{1, "01"}, VarintCase{0xfc, "fc"},
                      VarintCase{0xfd, "fdfd00"}, VarintCase{0xffff, "fdffff"},
                      VarintCase{0x10000, "fe00000100"}, VarintCase{0xffffffff, "feffffffff"},
                      VarintCase{0x100000000ULL, "ff0000000001000000"},
                      VarintCase{0xffffffffffffffffULL, "ffffffffffffffffff"}));

TEST(ByteIoTest, VarintRejectsNonCanonical) {
  // 0xfd prefix encoding a value < 0xfd.
  Bytes bad1 = from_hex("fd0100");
  EXPECT_THROW(ByteReader(bad1).varint(), DecodeError);
  // 0xfe prefix encoding a value that fits in 16 bits.
  Bytes bad2 = from_hex("fe00010000");
  EXPECT_THROW(ByteReader(bad2).varint(), DecodeError);
  // 0xff prefix encoding a value that fits in 32 bits.
  Bytes bad3 = from_hex("ff0000000100000000");
  EXPECT_THROW(ByteReader(bad3).varint(), DecodeError);
}

TEST(ByteIoTest, VarBytesRoundTrip) {
  ByteWriter w;
  Bytes payload = {9, 8, 7, 6};
  w.var_bytes(payload);
  ByteReader r(w.data());
  EXPECT_EQ(r.var_bytes(), payload);
}

TEST(ByteIoTest, VarBytesLengthBeyondBufferThrows) {
  // Claims 200 bytes but provides 2.
  Bytes bad = {200, 1, 2};
  ByteReader r(bad);
  EXPECT_THROW(r.var_bytes(), DecodeError);
}

TEST(ByteIoTest, FixedAndHashReads) {
  ByteWriter w;
  Bytes h(32);
  for (int i = 0; i < 32; ++i) h[static_cast<size_t>(i)] = static_cast<std::uint8_t>(i);
  w.bytes(h);
  ByteReader r(w.data());
  Hash256 parsed = r.hash256();
  EXPECT_EQ(parsed.data[0], 0);
  EXPECT_EQ(parsed.data[31], 31);
}

TEST(ByteIoTest, StrWritesRawCharacters) {
  ByteWriter w;
  w.str("abc");
  EXPECT_EQ(to_hex(w.data()), "616263");
}

}  // namespace
}  // namespace icbtc::util
