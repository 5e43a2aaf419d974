#include "crypto/secp256k1.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace icbtc::crypto {

namespace {

const U256 kP = U256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const U256 kN = U256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
const U256 kGx = U256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const U256 kGy = U256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

}  // namespace

const ModCtx& field_ctx() {
  static const ModCtx ctx(kP);
  return ctx;
}

const ModCtx& scalar_ctx() {
  static const ModCtx ctx(kN);
  return ctx;
}

const U256& curve_order() { return kN; }

const AffinePoint& generator() {
  static const AffinePoint g = AffinePoint::make(kGx, kGy);
  return g;
}

bool AffinePoint::on_curve() const {
  if (infinity) return true;
  const ModCtx& f = field_ctx();
  U256 lhs = f.sqr(y);
  U256 rhs = f.add(f.mul(f.sqr(x), x), U256(7));
  return lhs == rhs;
}

AffinePoint AffinePoint::negated() const {
  if (infinity) return *this;
  return AffinePoint::make(x, field_ctx().neg(y));
}

util::Bytes AffinePoint::compressed() const {
  if (infinity) throw std::domain_error("cannot encode point at infinity");
  util::Bytes out;
  out.reserve(33);
  out.push_back(y.is_odd() ? 0x03 : 0x02);
  auto xb = x.to_be_bytes();
  out.insert(out.end(), xb.data.begin(), xb.data.end());
  return out;
}

util::Bytes AffinePoint::uncompressed() const {
  if (infinity) throw std::domain_error("cannot encode point at infinity");
  util::Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  auto xb = x.to_be_bytes();
  auto yb = y.to_be_bytes();
  out.insert(out.end(), xb.data.begin(), xb.data.end());
  out.insert(out.end(), yb.data.begin(), yb.data.end());
  return out;
}

std::optional<AffinePoint> AffinePoint::parse(util::ByteSpan data) {
  const ModCtx& f = field_ctx();
  if (data.size() == 33 && (data[0] == 0x02 || data[0] == 0x03)) {
    U256 x = U256::from_be_bytes(data.subspan(1, 32));
    if (x >= kP) return std::nullopt;
    // y^2 = x^3 + 7; sqrt via exponentiation with (p+1)/4 (p ≡ 3 mod 4).
    U256 rhs = f.add(f.mul(f.sqr(x), x), U256(7));
    static const U256 kSqrtExp = (kP + U256(1)).shifted_right(2);
    U256 y = f.pow(rhs, kSqrtExp);
    if (f.sqr(y) != rhs) return std::nullopt;  // not a quadratic residue
    bool want_odd = data[0] == 0x03;
    if (y.is_odd() != want_odd) y = f.neg(y);
    return AffinePoint::make(x, y);
  }
  if (data.size() == 65 && data[0] == 0x04) {
    U256 x = U256::from_be_bytes(data.subspan(1, 32));
    U256 y = U256::from_be_bytes(data.subspan(33, 32));
    if (x >= kP || y >= kP) return std::nullopt;
    AffinePoint p = AffinePoint::make(x, y);
    if (!p.on_curve()) return std::nullopt;
    return p;
  }
  return std::nullopt;
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return infinity_point();
  return JacobianPoint{p.x, p.y, U256(1)};
}

JacobianPoint JacobianPoint::doubled() const {
  const ModCtx& f = field_ctx();
  if (is_infinity() || y.is_zero()) return infinity_point();
  // dbl-2009-l formulas (a = 0); the small multiples are field additions.
  U256 a = f.sqr(x);
  U256 b = f.sqr(y);
  U256 c = f.sqr(b);
  U256 d = f.sub(f.sqr(f.add(x, b)), f.add(a, c));
  d = f.add(d, d);
  U256 e = f.add(f.add(a, a), a);
  U256 x3 = f.sub(f.sqr(e), f.add(d, d));
  U256 c8 = f.add(c, c);
  c8 = f.add(c8, c8);
  c8 = f.add(c8, c8);
  U256 y3 = f.sub(f.mul(e, f.sub(d, x3)), c8);
  U256 yz = f.mul(y, z);
  return JacobianPoint{x3, y3, f.add(yz, yz)};
}

JacobianPoint JacobianPoint::add(const JacobianPoint& other) const {
  const ModCtx& f = field_ctx();
  if (is_infinity()) return other;
  if (other.is_infinity()) return *this;
  // add-2007-bl formulas.
  U256 z1z1 = f.sqr(z);
  U256 z2z2 = f.sqr(other.z);
  U256 u1 = f.mul(x, z2z2);
  U256 u2 = f.mul(other.x, z1z1);
  U256 s1 = f.mul(y, f.mul(other.z, z2z2));
  U256 s2 = f.mul(other.y, f.mul(z, z1z1));
  if (u1 == u2) {
    if (s1 == s2) return doubled();
    return infinity_point();
  }
  U256 h = f.sub(u2, u1);
  U256 i = f.sqr(f.add(h, h));
  U256 j = f.mul(h, i);
  U256 r = f.sub(s2, s1);
  r = f.add(r, r);
  U256 v = f.mul(u1, i);
  U256 x3 = f.sub(f.sub(f.sqr(r), j), f.add(v, v));
  U256 s1j = f.mul(s1, j);
  U256 y3 = f.sub(f.mul(r, f.sub(v, x3)), f.add(s1j, s1j));
  U256 z3 = f.mul(f.sub(f.sqr(f.add(z, other.z)), f.add(z1z1, z2z2)), h);
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint JacobianPoint::add_affine(const AffinePoint& other) const {
  if (other.infinity) return *this;
  if (is_infinity()) return from_affine(other);
  const ModCtx& f = field_ctx();
  // madd-2007-bl formulas (Z2 = 1).
  U256 z1z1 = f.sqr(z);
  U256 u2 = f.mul(other.x, z1z1);
  U256 s2 = f.mul(other.y, f.mul(z, z1z1));
  U256 h = f.sub(u2, x);
  U256 r = f.sub(s2, y);
  if (h.is_zero()) {
    if (r.is_zero()) return doubled();
    return infinity_point();
  }
  r = f.add(r, r);
  U256 hh = f.sqr(h);
  U256 i = f.add(hh, hh);
  i = f.add(i, i);
  U256 j = f.mul(h, i);
  U256 v = f.mul(x, i);
  U256 x3 = f.sub(f.sub(f.sqr(r), j), f.add(v, v));
  U256 yj = f.mul(y, j);
  U256 y3 = f.sub(f.mul(r, f.sub(v, x3)), f.add(yj, yj));
  U256 z3 = f.sub(f.sub(f.sqr(f.add(z, h)), z1z1), hh);
  return JacobianPoint{x3, y3, z3};
}

namespace {

/// Entries per window table: v·P for v = 1..15, at index v − 1.
constexpr std::size_t kWindow = 15;
/// multi_mul runs the ladder below this many points and Pippenger from it on;
/// on the host the two tie near 48–56 points of batch-verification shape
/// (128-bit scalars plus two full ones), see DESIGN.md §13.
constexpr std::size_t kLadderMaxPoints = 48;

/// Converts `in` to affine with one field inversion (Montgomery's trick).
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& in) {
  const ModCtx& f = field_ctx();
  std::vector<U256> prefix(in.size() + 1, U256(1));
  for (std::size_t i = 0; i < in.size(); ++i) {
    prefix[i + 1] = in[i].is_infinity() ? prefix[i] : f.mul(prefix[i], in[i].z);
  }
  U256 inv = f.inv(prefix.back());
  std::vector<AffinePoint> out(in.size());
  for (std::size_t i = in.size(); i-- > 0;) {
    if (in[i].is_infinity()) continue;
    U256 zinv = f.mul(inv, prefix[i]);
    inv = f.mul(inv, in[i].z);
    U256 zinv2 = f.sqr(zinv);
    out[i] = AffinePoint::make(f.mul(in[i].x, zinv2), f.mul(in[i].y, f.mul(zinv2, zinv)));
  }
  return out;
}

}  // namespace

AffinePoint JacobianPoint::to_affine() const { return batch_to_affine({*this})[0]; }

namespace {

// Fixed-window table for G, affine: entry 15w + v − 1 is v * 16^w * G for v
// in [1, 16). Row 0 doubles as G's ladder table.
const std::vector<AffinePoint>& generator_table() {
  static const std::vector<AffinePoint> table = [] {
    std::vector<JacobianPoint> t;
    t.reserve(64 * kWindow);
    JacobianPoint window_base = JacobianPoint::from_affine(generator());
    for (int w = 0; w < 64; ++w) {
      JacobianPoint cur = window_base;
      for (std::size_t v = 0; v < kWindow; ++v) {
        t.push_back(cur);
        cur = cur.add(window_base);
      }
      window_base = cur;  // 16^(w+1) * G
    }
    return batch_to_affine(t);
  }();
  return table;
}

unsigned nibble(const U256& k, int w) {
  return static_cast<unsigned>((k.limb[w / 16] >> (4 * (w % 16))) & 0xf);
}

/// Σ scalars[i]·points[i] + g_scalar·G by one interleaved (Strauss–Shamir)
/// ladder: 4 doublings per 4-bit window shared by every term, then one mixed
/// addition per term with a nonzero digit. Each point's table 1P..15P is
/// built in Jacobian coordinates and normalized, all tables with one
/// inversion; G uses row 0 of its static table.
AffinePoint ladder(const U256& g_scalar, const std::vector<U256>& scalars,
                   const std::vector<AffinePoint>& points) {
  const ModCtx& sc = scalar_ctx();
  std::vector<U256> keys;
  std::vector<JacobianPoint> multiples;
  keys.reserve(points.size());
  multiples.reserve(points.size() * kWindow);
  for (std::size_t i = 0; i < points.size(); ++i) {
    U256 k = sc.reduce(scalars[i]);
    if (k.is_zero() || points[i].infinity) continue;
    keys.push_back(k);
    JacobianPoint p = JacobianPoint::from_affine(points[i]);
    multiples.push_back(p);
    multiples.push_back(p.doubled());
    for (std::size_t v = 2; v < kWindow; ++v) {
      multiples.push_back(multiples.back().add_affine(points[i]));
    }
  }
  const std::vector<AffinePoint> tables = batch_to_affine(multiples);
  const U256 g = sc.reduce(g_scalar);
  const std::vector<AffinePoint>& g_table = generator_table();
  int top = g.bit_length();
  for (const U256& k : keys) top = std::max(top, k.bit_length());

  JacobianPoint acc = JacobianPoint::infinity_point();
  for (int w = (top + 3) / 4 - 1; w >= 0; --w) {
    for (int i = 0; i < 4; ++i) acc = acc.doubled();
    if (unsigned d = nibble(g, w)) acc = acc.add_affine(g_table[d - 1]);
    for (std::size_t t = 0; t < keys.size(); ++t) {
      if (unsigned d = nibble(keys[t], w)) acc = acc.add_affine(tables[t * kWindow + d - 1]);
    }
  }
  return acc.to_affine();
}

}  // namespace

AffinePoint scalar_mul(const U256& k, const AffinePoint& p) { return ladder(U256(0), {k}, {p}); }

AffinePoint generator_mul(const U256& k) {
  U256 kr = scalar_ctx().reduce(k);
  const auto& table = generator_table();
  JacobianPoint acc = JacobianPoint::infinity_point();
  for (int w = 0; w < 64; ++w) {
    if (unsigned d = nibble(kr, w)) acc = acc.add_affine(table[kWindow * w + d - 1]);
  }
  return acc.to_affine();
}

AffinePoint double_mul(const U256& u1, const U256& u2, const AffinePoint& p) {
  return ladder(u1, {u2}, {p});
}

AffinePoint multi_mul(const std::vector<U256>& scalars, const std::vector<AffinePoint>& points) {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("multi_mul: size mismatch");
  }
  const std::size_t n = scalars.size();
  if (n < kLadderMaxPoints) return ladder(U256(0), scalars, points);

  const ModCtx& sc = scalar_ctx();
  std::vector<U256> reduced;
  reduced.reserve(n);
  for (const auto& s : scalars) reduced.push_back(sc.reduce(s));

  // Window width: wider windows amortize bucket aggregation (full Jacobian
  // adds, ~16 field muls) over more bucket-fill mixed adds (~11 field muls).
  // Thresholds minimize ceil(256/w)·(11n + 32·(2^w − 1)) at each crossover.
  int w = 4;
  if (n >= 160) w = 5;
  if (n >= 360) w = 6;
  if (n >= 1000) w = 7;
  if (n >= 2000) w = 8;
  if (n >= 9000) w = 10;
  if (n >= 46000) w = 12;
  const int rounds = (256 + w - 1) / w;
  const std::size_t num_buckets = (std::size_t{1} << w) - 1;

  JacobianPoint acc = JacobianPoint::infinity_point();
  std::vector<JacobianPoint> buckets(num_buckets);
  for (int round = rounds - 1; round >= 0; --round) {
    if (!acc.is_infinity()) {
      for (int i = 0; i < w; ++i) acc = acc.doubled();
    }
    for (auto& b : buckets) b = JacobianPoint::infinity_point();
    const int lo = round * w;
    for (std::size_t i = 0; i < n; ++i) {
      unsigned digit = 0;
      for (int bit = w - 1; bit >= 0; --bit) {
        digit <<= 1;
        int idx = lo + bit;
        if (idx < 256 && reduced[i].bit(idx)) digit |= 1;
      }
      if (digit != 0) buckets[digit - 1] = buckets[digit - 1].add_affine(points[i]);
    }
    // Σ v * bucket[v] via the running-sum trick: suffix sums added once each.
    JacobianPoint running = JacobianPoint::infinity_point();
    JacobianPoint sum = JacobianPoint::infinity_point();
    for (std::size_t v = num_buckets; v-- > 0;) {
      running = running.add(buckets[v]);
      sum = sum.add(running);
    }
    acc = acc.add(sum);
  }
  return acc.to_affine();
}

}  // namespace icbtc::crypto
