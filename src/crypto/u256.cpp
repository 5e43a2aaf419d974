#include "crypto/u256.h"

#include <algorithm>

namespace icbtc::crypto {

U256 U256::from_be_bytes(util::ByteSpan b) {
  if (b.size() != 32) throw std::invalid_argument("U256::from_be_bytes: need 32 bytes");
  U256 out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int j = 0; j < 8; ++j) v = (v << 8) | b[static_cast<std::size_t>((3 - i) * 8 + j)];
    out.limb[i] = v;
  }
  return out;
}

U256 U256::from_hex(std::string_view hex) {
  std::string padded(64 - hex.size(), '0');
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: too long");
  padded += hex;
  return from_be_bytes(util::from_hex(padded));
}

util::FixedBytes<32> U256::to_be_bytes() const {
  util::FixedBytes<32> out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = limb[3 - i];
    for (int j = 0; j < 8; ++j) out.data[static_cast<std::size_t>(i * 8 + j)] =
        static_cast<std::uint8_t>(v >> (56 - 8 * j));
  }
  return out;
}

std::string U256::to_hex() const { return util::to_hex(to_be_bytes().span()); }

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return 64 * i + (64 - __builtin_clzll(limb[i]));
  }
  return 0;
}

std::uint64_t U256::add_with_carry(const U256& a, const U256& b, U256& out) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 s = static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  return static_cast<std::uint64_t>(carry);
}

std::uint64_t U256::sub_with_borrow(const U256& a, const U256& b, U256& out) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) -
                          static_cast<unsigned __int128>(b.limb[i]) - borrow;
    out.limb[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>((d >> 64) & 1);
  }
  return borrow;
}

U256 U256::shifted_left(unsigned n) const {
  U256 out;
  if (n >= 256) return out;
  unsigned limb_shift = n / 64, bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) v = limb[src] << bit_shift;
    if (bit_shift != 0 && src - 1 >= 0) v |= limb[src - 1] >> (64 - bit_shift);
    out.limb[i] = v;
  }
  return out;
}

U256 U256::shifted_right(unsigned n) const {
  U256 out;
  if (n >= 256) return out;
  unsigned limb_shift = n / 64, bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    std::size_t src = i + limb_shift;
    if (src < 4) v = limb[src] >> bit_shift;
    if (bit_shift != 0 && src + 1 < 4) v |= limb[src + 1] << (64 - bit_shift);
    out.limb[i] = v;
  }
  return out;
}

U512 mul_full(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
                              out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

U256 udiv(const U256& a, const U256& b) {
  if (b.is_zero()) throw std::domain_error("udiv: division by zero");
  if (a < b) return U256(0);
  // Schoolbook binary long division.
  U256 quotient;
  U256 remainder;
  for (int i = a.bit_length() - 1; i >= 0; --i) {
    remainder = remainder.shifted_left(1);
    if (a.bit(i)) remainder.limb[0] |= 1;
    if (remainder >= b) {
      remainder = remainder - b;
      quotient.limb[static_cast<std::size_t>(i / 64)] |= (1ULL << (i % 64));
    }
  }
  return quotient;
}

ModCtx::ModCtx(const U256& modulus) : m_(modulus) {
  if (modulus.bit_length() < 256) {
    throw std::invalid_argument("ModCtx: modulus must use the top bit (>= 2^255)");
  }
  // 2^256 mod m == (0 - m) mod 2^256 when 2^255 <= m < 2^256.
  U256 zero;
  U256::sub_with_borrow(zero, m_, k_);
  k_limbs_ = static_cast<std::size_t>(k_.bit_length() + 63) / 64;
}

U256 ModCtx::reduce(const U256& a) const {
  // a < 2^256 < 2m, so one conditional subtraction suffices.
  U256 less;
  return U256::sub_with_borrow(a, m_, less) ? a : less;
}

namespace {

// lo + hi * k for lo = v[0..4), hi = v[4..4+H) and the K low limbs of k.
// hi * k + lo < 2^(256 + 64K) for H <= 4, so the result fits in 4 + K limbs.
template <std::size_t H, std::size_t K>
std::array<std::uint64_t, 4 + K> fold(const std::uint64_t* v, const U256& k) {
  std::array<std::uint64_t, 4 + K> r{};
  for (std::size_t i = 0; i < H; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(v[4 + i]) * k.limb[j] + r[i + j] + carry;
      r[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    r[i + K] = carry;
  }
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 4 + K; ++i) {
    carry += static_cast<unsigned __int128>(r[i]) + (i < 4 ? v[i] : 0);
    r[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return r;
}

// A value below 2^256 congruent to a: value = hi * 2^256 + lo == hi * k + lo
// (mod m), where k = 2^256 mod m has K significant limbs, so each fold
// multiplies by those K limbs only and leaves a high part of at most K limbs.
// For p (k < 2^33) the first fold leaves a high limb below 2^34 and the
// second at most a carry of one; for n (k < 2^129) three or four folds do.
template <std::size_t K>
U256 fold_all(const U512& a, const U256& k) {
  std::array<std::uint64_t, 4 + K> t = fold<4, K>(a.limb.data(), k);
  while (std::any_of(t.begin() + 4, t.end(), [](std::uint64_t l) { return l != 0; })) {
    t = fold<K, K>(t.data(), k);
  }
  return U256(t[0], t[1], t[2], t[3]);
}

}  // namespace

U256 ModCtx::reduce512(const U512& a) const {
  switch (k_limbs_) {
    case 1: return reduce(fold_all<1>(a, k_));
    case 2: return reduce(fold_all<2>(a, k_));
    case 3: return reduce(fold_all<3>(a, k_));
    default: return reduce(fold_all<4>(a, k_));
  }
}

U256 ModCtx::add(const U256& a, const U256& b) const {
  U256 r;
  // A carry stands for 2^256 == k (mod m); a, b < m keep r + k below 2^256.
  if (U256::add_with_carry(a, b, r)) U256::add_with_carry(r, k_, r);
  return reduce(r);
}

U256 ModCtx::sub(const U256& a, const U256& b) const {
  U256 r;
  std::uint64_t borrow = U256::sub_with_borrow(a, b, r);
  if (borrow) U256::add_with_carry(r, m_, r);
  return r;
}

U256 ModCtx::neg(const U256& a) const {
  if (a.is_zero()) return a;
  return m_ - reduce(a);
}

U256 ModCtx::mul(const U256& a, const U256& b) const { return reduce512(mul_full(a, b)); }

U256 ModCtx::pow(const U256& base, const U256& exp) const {
  U256 result(1);
  U256 acc = reduce(base);
  int bits = exp.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = mul(result, acc);
    acc = mul(acc, acc);
  }
  return result;
}

U256 ModCtx::inv(const U256& a) const {
  U256 u = reduce(a);
  if (u.is_zero()) throw std::domain_error("ModCtx::inv: zero has no inverse");
  // Binary extended Euclid, keeping x1 * a == u and x2 * a == v (mod m).
  // Halving u or v halves its x: x / 2 mod m is (x + m) / 2 for odd x.
  U256 v = m_;
  U256 x1(1), x2(0);
  auto halve = [this](U256& w, U256& x) {
    while (!w.is_odd()) {
      w = w.shifted_right(1);
      std::uint64_t carry = x.is_odd() ? U256::add_with_carry(x, m_, x) : 0;
      x = x.shifted_right(1);
      x.limb[3] |= carry << 63;
    }
  };
  const U256 one(1);
  while (u != one && v != one) {
    halve(u, x1);
    halve(v, x2);
    if (u >= v) {
      u = u - v;
      x1 = sub(x1, x2);
      if (u.is_zero()) throw std::domain_error("ModCtx::inv: value shares a factor with m");
    } else {
      v = v - u;
      x2 = sub(x2, x1);
    }
  }
  return u == one ? x1 : x2;
}

}  // namespace icbtc::crypto
