// Fixed-width 256-bit unsigned arithmetic with modular helpers, written for
// the secp256k1 field/scalar implementation. Not constant-time: this library
// backs a simulation, not a production signer.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace icbtc::crypto {

struct U256 {
  // Little-endian limbs: limb[0] holds the least significant 64 bits.
  std::array<std::uint64_t, 4> limb{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2, std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  static U256 from_be_bytes(util::ByteSpan b);
  static U256 from_hex(std::string_view hex);
  /// 32-byte big-endian encoding.
  util::FixedBytes<32> to_be_bytes() const;
  std::string to_hex() const;

  bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool is_odd() const { return (limb[0] & 1) != 0; }
  bool bit(int i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  /// Number of significant bits (0 for zero).
  int bit_length() const;

  auto operator<=>(const U256& o) const {
    for (int i = 3; i >= 0; --i)
      if (limb[i] != o.limb[i]) return limb[i] <=> o.limb[i];
    return std::strong_ordering::equal;
  }
  bool operator==(const U256&) const = default;

  /// a + b, returning the carry-out.
  static std::uint64_t add_with_carry(const U256& a, const U256& b, U256& out);
  /// a - b, returning the borrow-out.
  static std::uint64_t sub_with_borrow(const U256& a, const U256& b, U256& out);

  U256 operator+(const U256& o) const {
    U256 r;
    add_with_carry(*this, o, r);
    return r;
  }
  U256 operator-(const U256& o) const {
    U256 r;
    sub_with_borrow(*this, o, r);
    return r;
  }

  U256 shifted_left(unsigned n) const;
  U256 shifted_right(unsigned n) const;
};

/// 512-bit product container (little-endian limbs).
struct U512 {
  std::array<std::uint64_t, 8> limb{};

  U256 lo() const { return U256(limb[0], limb[1], limb[2], limb[3]); }
  U256 hi() const { return U256(limb[4], limb[5], limb[6], limb[7]); }
  bool hi_is_zero() const { return (limb[4] | limb[5] | limb[6] | limb[7]) == 0; }
};

/// Full 256x256 -> 512 multiplication.
U512 mul_full(const U256& a, const U256& b);

/// Unsigned division a / b (throws std::domain_error on b == 0).
U256 udiv(const U256& a, const U256& b);

/// Modular-arithmetic context for a fixed modulus m > 2^255. Precomputes
/// k = 2^256 mod m so 512-bit values reduce with a few folds instead of long
/// division; each fold multiplies only k's significant limbs (one for the
/// secp256k1 field prime, three for the group order).
class ModCtx {
 public:
  explicit ModCtx(const U256& modulus);

  const U256& modulus() const { return m_; }

  U256 reduce(const U256& a) const;      // a mod m for a < 2^256
  U256 reduce512(const U512& a) const;   // a mod m for a < 2^512
  U256 add(const U256& a, const U256& b) const;
  U256 sub(const U256& a, const U256& b) const;
  U256 neg(const U256& a) const;
  U256 mul(const U256& a, const U256& b) const;
  U256 sqr(const U256& a) const { return mul(a, a); }
  U256 pow(const U256& base, const U256& exp) const;
  /// Multiplicative inverse by the binary extended Euclidean algorithm
  /// (variable time); the modulus must be an odd prime. Throws
  /// std::domain_error for a ≡ 0.
  U256 inv(const U256& a) const;

 private:
  U256 m_;
  U256 k_;                   // 2^256 mod m
  std::size_t k_limbs_ = 0;  // limbs of k_ up to its highest nonzero one
};

}  // namespace icbtc::crypto
