#include "crypto/ecdsa.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>

#include "crypto/sha256.h"

namespace icbtc::crypto {

namespace {

// n/2, the high-s threshold.
const U256& half_order() {
  static const U256 h = curve_order().shifted_right(1);
  return h;
}

void push_be32(util::Bytes& out, const U256& v) {
  auto b = v.to_be_bytes();
  out.insert(out.end(), b.data.begin(), b.data.end());
}

}  // namespace

util::Bytes Signature::compact() const {
  util::Bytes out;
  out.reserve(64);
  push_be32(out, r);
  push_be32(out, s);
  return out;
}

std::optional<Signature> Signature::from_compact(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  Signature sig;
  sig.r = U256::from_be_bytes(data.subspan(0, 32));
  sig.s = U256::from_be_bytes(data.subspan(32, 32));
  return sig;
}

namespace {
// Minimal positive DER integer encoding of a U256.
void der_int(util::Bytes& out, const U256& v) {
  auto be = v.to_be_bytes();
  std::size_t start = 0;
  while (start < 31 && be.data[start] == 0) ++start;
  bool pad = (be.data[start] & 0x80) != 0;
  std::size_t len = 32 - start + (pad ? 1 : 0);
  out.push_back(0x02);
  out.push_back(static_cast<std::uint8_t>(len));
  if (pad) out.push_back(0x00);
  out.insert(out.end(), be.data.begin() + static_cast<std::ptrdiff_t>(start), be.data.end());
}

std::optional<U256> parse_der_int(util::ByteSpan data, std::size_t& pos) {
  if (pos + 2 > data.size() || data[pos] != 0x02) return std::nullopt;
  std::size_t len = data[pos + 1];
  pos += 2;
  if (len == 0 || len > 33 || pos + len > data.size()) return std::nullopt;
  util::Bytes be(32, 0);
  std::size_t skip = 0;
  if (len == 33) {
    if (data[pos] != 0x00) return std::nullopt;
    skip = 1;
  }
  std::memcpy(be.data() + (32 - (len - skip)), data.data() + pos + skip, len - skip);
  pos += len;
  return U256::from_be_bytes(be);
}
}  // namespace

util::Bytes Signature::der() const {
  util::Bytes body;
  der_int(body, r);
  der_int(body, s);
  util::Bytes out;
  out.reserve(body.size() + 2);
  out.push_back(0x30);
  out.push_back(static_cast<std::uint8_t>(body.size()));
  util::append(out, body);
  return out;
}

std::optional<Signature> Signature::from_der(util::ByteSpan data) {
  if (data.size() < 8 || data[0] != 0x30 || data[1] != data.size() - 2) return std::nullopt;
  std::size_t pos = 2;
  auto r = parse_der_int(data, pos);
  if (!r) return std::nullopt;
  auto s = parse_der_int(data, pos);
  if (!s || pos != data.size()) return std::nullopt;
  return Signature{*r, *s};
}

PrivateKey::PrivateKey(const U256& secret) : secret_(secret) {
  if (secret.is_zero() || secret >= curve_order()) {
    throw std::invalid_argument("PrivateKey: secret out of range");
  }
}

PrivateKey PrivateKey::from_seed(util::ByteSpan seed) {
  // Hash-and-increment until the candidate lands in [1, n); overwhelmingly
  // the first candidate works.
  util::Bytes material(seed.begin(), seed.end());
  material.push_back(0);
  for (;;) {
    util::Hash256 h = Sha256::hash(material);
    U256 candidate = U256::from_be_bytes(h.span());
    if (!candidate.is_zero() && candidate < curve_order()) return PrivateKey(candidate);
    material.back()++;
  }
}

AffinePoint PrivateKey::public_key() const { return generator_mul(secret_); }

U256 rfc6979_nonce(const U256& secret, const util::Hash256& digest, std::uint32_t counter) {
  // RFC 6979 §3.2 with HMAC-SHA256; qlen == hlen == 256 so bits2octets is a
  // reduction mod n.
  const ModCtx& sc = scalar_ctx();
  auto x = secret.to_be_bytes();
  U256 z = sc.reduce(U256::from_be_bytes(digest.span()));
  auto h1 = z.to_be_bytes();

  util::Hash256 v;
  v.data.fill(0x01);
  util::Hash256 k;

  auto mac = [&](std::uint8_t sep, bool with_material) {
    // V || sep, then x || h1 on the keying steps.
    std::array<std::uint8_t, 97> msg;
    std::copy(v.data.begin(), v.data.end(), msg.begin());
    msg[32] = sep;
    if (with_material) {
      std::copy(x.data.begin(), x.data.end(), msg.begin() + 33);
      std::copy(h1.data.begin(), h1.data.end(), msg.begin() + 65);
    }
    k = hmac_sha256(k.span(), util::ByteSpan(msg.data(), with_material ? 97 : 33));
    v = hmac_sha256(k.span(), v.span());
  };

  mac(0x00, true);
  mac(0x01, true);

  std::uint32_t produced = 0;
  for (;;) {
    v = hmac_sha256(k.span(), v.span());
    U256 candidate = U256::from_be_bytes(v.span());
    if (!candidate.is_zero() && candidate < curve_order()) {
      if (produced == counter) return candidate;
      ++produced;
    }
    mac(0x00, false);
  }
}

Signature PrivateKey::sign(const util::Hash256& digest) const {
  const ModCtx& sc = scalar_ctx();
  U256 z = sc.reduce(U256::from_be_bytes(digest.span()));
  for (std::uint32_t counter = 0;; ++counter) {
    U256 k = rfc6979_nonce(secret_, digest, counter);
    AffinePoint rp = generator_mul(k);
    U256 r = sc.reduce(rp.x);
    if (r.is_zero()) continue;
    U256 kinv = sc.inv(k);
    U256 s = sc.mul(kinv, sc.add(z, sc.mul(r, secret_)));
    if (s.is_zero()) continue;
    if (s > half_order()) s = curve_order() - s;
    return Signature{r, s};
  }
}

bool verify(const AffinePoint& pubkey, const util::Hash256& digest, const Signature& sig) {
  if (pubkey.infinity || !pubkey.on_curve()) return false;
  const ModCtx& sc = scalar_ctx();
  if (sig.r.is_zero() || sig.r >= curve_order()) return false;
  if (sig.s.is_zero() || sig.s >= curve_order()) return false;
  if (sig.s > half_order()) return false;  // enforce low-s
  U256 z = sc.reduce(U256::from_be_bytes(digest.span()));
  U256 sinv = sc.inv(sig.s);
  U256 u1 = sc.mul(z, sinv);
  U256 u2 = sc.mul(sig.r, sinv);
  AffinePoint point = double_mul(u1, u2, pubkey);
  if (point.infinity) return false;
  return sc.reduce(point.x) == sig.r;
}

bool batch_verify(const std::vector<BatchVerifyEntry>& entries) {
  if (entries.empty()) return true;
  const ModCtx& sc = scalar_ctx();
  // Cheap per-entry checks, identical in effect to verify()'s preamble, plus
  // consistency of the claimed nonce point with the signature's r.
  for (const auto& e : entries) {
    if (e.pubkey.infinity || !e.pubkey.on_curve()) return false;
    if (e.sig.r.is_zero() || e.sig.r >= curve_order()) return false;
    if (e.sig.s.is_zero() || e.sig.s >= curve_order()) return false;
    if (e.sig.s > half_order()) return false;
    if (e.big_r.infinity || !e.big_r.on_curve()) return false;
    if (sc.reduce(e.big_r.x) != e.sig.r) return false;
  }

  // Batch coefficients: hash the whole batch into a seed, then c_i =
  // first 128 bits of H(seed || i). Deterministic (no RNG state consumed),
  // and an adversary fixing the batch cannot steer the c_i.
  Sha256 seed_hash;
  const char tag[] = "icbtc-batch-verify";
  seed_hash.update(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(tag), sizeof(tag) - 1));
  for (const auto& e : entries) {
    seed_hash.update(e.sig.r.to_be_bytes().span());
    seed_hash.update(e.sig.s.to_be_bytes().span());
    seed_hash.update(e.digest.span());
    auto pk = e.pubkey.compressed();
    seed_hash.update(util::ByteSpan(pk.data(), pk.size()));
    auto rp = e.big_r.compressed();
    seed_hash.update(util::ByteSpan(rp.data(), rp.size()));
  }
  util::Hash256 seed = seed_hash.finalize();

  // Check Σ c_i·R_i − (Σ c_i·u1_i)·G − Σ_P (Σ_{i: P_i=P} c_i·u2_i)·P = O,
  // where u1 = z·s^-1 and u2 = r·s^-1 (the textbook R = u1·G + u2·P form).
  // This shape keeps the per-signature coefficient at the raw 128-bit c_i —
  // each R_i contributes bucket additions in only half the Pippenger rounds
  // — and collapses the generator term always and the pubkey terms per
  // distinct key (threshold wallets sign many requests under one derived
  // key). The s^-1 all come from one batched Montgomery inversion.
  const std::size_t n = entries.size();
  std::vector<U256> prefix(n + 1, U256(1));
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = sc.mul(prefix[i], entries[i].sig.s);
  U256 inv_all = sc.inv(prefix[n]);
  std::vector<U256> sinv(n);
  for (std::size_t i = n; i-- > 0;) {
    sinv[i] = sc.mul(inv_all, prefix[i]);
    inv_all = sc.mul(inv_all, entries[i].sig.s);
  }

  std::vector<U256> scalars;
  std::vector<AffinePoint> points;
  scalars.reserve(n + 8);
  points.reserve(n + 8);
  U256 g_coeff(0);
  std::map<std::pair<U256, U256>, U256> pubkey_terms;  // (x, y) -> Σ c_i·u2_i
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = entries[i];
    Sha256 ci_hash;
    ci_hash.update(seed.span());
    std::uint8_t idx[8];
    for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(i >> (8 * (7 - b)));
    ci_hash.update(util::ByteSpan(idx, sizeof(idx)));
    util::Hash256 ci_bytes = ci_hash.finalize();
    U256 c = U256::from_be_bytes(ci_bytes.span());
    c.limb[2] = 0;  // truncate to 128 bits
    c.limb[3] = 0;
    if (c.is_zero()) c = U256(1);

    U256 z = sc.reduce(U256::from_be_bytes(e.digest.span()));
    g_coeff = sc.add(g_coeff, sc.mul(c, sc.mul(z, sinv[i])));
    scalars.push_back(c);
    points.push_back(e.big_r);
    U256& term = pubkey_terms[{e.pubkey.x, e.pubkey.y}];
    term = sc.add(term, sc.mul(c, sc.mul(e.sig.r, sinv[i])));
  }
  scalars.push_back(sc.neg(g_coeff));
  points.push_back(generator());
  for (const auto& [xy, term] : pubkey_terms) {
    scalars.push_back(sc.neg(term));
    points.push_back(AffinePoint::make(xy.first, xy.second));
  }

  return multi_mul(scalars, points).infinity;
}

bool batch_verify_tweaked(const AffinePoint& master_pubkey,
                          const std::vector<TweakedBatchVerifyEntry>& entries) {
  if (entries.empty()) return true;
  if (master_pubkey.infinity || !master_pubkey.on_curve()) return false;
  const ModCtx& sc = scalar_ctx();
  for (const auto& e : entries) {
    if (e.sig.r.is_zero() || e.sig.r >= curve_order()) return false;
    if (e.sig.s.is_zero() || e.sig.s >= curve_order()) return false;
    if (e.sig.s > half_order()) return false;
    if (e.big_r.infinity || !e.big_r.on_curve()) return false;
    if (sc.reduce(e.big_r.x) != e.sig.r) return false;
  }

  Sha256 seed_hash;
  const char tag[] = "icbtc-batch-verify-tweaked";
  seed_hash.update(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(tag), sizeof(tag) - 1));
  auto mp = master_pubkey.compressed();
  seed_hash.update(util::ByteSpan(mp.data(), mp.size()));
  for (const auto& e : entries) {
    seed_hash.update(e.tweak.to_be_bytes().span());
    seed_hash.update(e.sig.r.to_be_bytes().span());
    seed_hash.update(e.sig.s.to_be_bytes().span());
    seed_hash.update(e.digest.span());
    auto rp = e.big_r.compressed();
    seed_hash.update(util::ByteSpan(rp.data(), rp.size()));
  }
  util::Hash256 seed = seed_hash.finalize();

  // With P_i = M + tweak_i·G, the per-entry pubkey term folds away:
  //   Σ c_i·R_i − (Σ c_i·(u1_i + u2_i·tweak_i))·G − (Σ c_i·u2_i)·M = O.
  const std::size_t n = entries.size();
  std::vector<U256> prefix(n + 1, U256(1));
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = sc.mul(prefix[i], entries[i].sig.s);
  U256 inv_all = sc.inv(prefix[n]);
  std::vector<U256> sinv(n);
  for (std::size_t i = n; i-- > 0;) {
    sinv[i] = sc.mul(inv_all, prefix[i]);
    inv_all = sc.mul(inv_all, entries[i].sig.s);
  }

  std::vector<U256> scalars;
  std::vector<AffinePoint> points;
  scalars.reserve(n + 2);
  points.reserve(n + 2);
  U256 g_coeff(0);
  U256 m_coeff(0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = entries[i];
    Sha256 ci_hash;
    ci_hash.update(seed.span());
    std::uint8_t idx[8];
    for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(i >> (8 * (7 - b)));
    ci_hash.update(util::ByteSpan(idx, sizeof(idx)));
    util::Hash256 ci_bytes = ci_hash.finalize();
    U256 c = U256::from_be_bytes(ci_bytes.span());
    c.limb[2] = 0;  // truncate to 128 bits
    c.limb[3] = 0;
    if (c.is_zero()) c = U256(1);

    U256 z = sc.reduce(U256::from_be_bytes(e.digest.span()));
    U256 u2 = sc.mul(e.sig.r, sinv[i]);
    U256 u1_plus = sc.add(sc.mul(z, sinv[i]), sc.mul(u2, e.tweak));
    g_coeff = sc.add(g_coeff, sc.mul(c, u1_plus));
    m_coeff = sc.add(m_coeff, sc.mul(c, u2));
    scalars.push_back(c);
    points.push_back(e.big_r);
  }
  scalars.push_back(sc.neg(g_coeff));
  points.push_back(generator());
  scalars.push_back(sc.neg(m_coeff));
  points.push_back(master_pubkey);

  return multi_mul(scalars, points).infinity;
}

}  // namespace icbtc::crypto
