#include "crypto/schnorr.h"

#include <stdexcept>

#include "crypto/sha256.h"

namespace icbtc::crypto {

util::Hash256 tagged_hash(std::string_view tag, util::ByteSpan data) {
  util::Hash256 tag_hash = Sha256::hash(util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  Sha256 h;
  h.update(tag_hash.span());
  h.update(tag_hash.span());
  h.update(data);
  return h.finalize();
}

std::optional<AffinePoint> XOnlyPublicKey::lift() const {
  const ModCtx& f = field_ctx();
  if (x >= f.modulus()) return std::nullopt;
  // y^2 = x^3 + 7; take the even root.
  U256 rhs = f.add(f.mul(f.sqr(x), x), U256(7));
  static const U256 kSqrtExp = (f.modulus() + U256(1)).shifted_right(2);
  U256 y = f.pow(rhs, kSqrtExp);
  if (f.sqr(y) != rhs) return std::nullopt;
  if (y.is_odd()) y = f.neg(y);
  return AffinePoint::make(x, y);
}

std::optional<XOnlyPublicKey> XOnlyPublicKey::parse(util::ByteSpan data) {
  if (data.size() != 32) return std::nullopt;
  XOnlyPublicKey key{U256::from_be_bytes(data)};
  if (!key.lift()) return std::nullopt;
  return key;
}

util::Bytes SchnorrSignature::bytes() const {
  util::Bytes out;
  out.reserve(64);
  auto rb = r.to_be_bytes();
  auto sb = s.to_be_bytes();
  out.insert(out.end(), rb.data.begin(), rb.data.end());
  out.insert(out.end(), sb.data.begin(), sb.data.end());
  return out;
}

std::optional<SchnorrSignature> SchnorrSignature::parse(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  return SchnorrSignature{U256::from_be_bytes(data.subspan(0, 32)),
                          U256::from_be_bytes(data.subspan(32, 32))};
}

SchnorrKeyPair SchnorrKeyPair::from_secret(const U256& secret) {
  if (secret.is_zero() || secret >= curve_order()) {
    throw std::invalid_argument("SchnorrKeyPair: secret out of range");
  }
  AffinePoint p = generator_mul(secret);
  SchnorrKeyPair pair;
  pair.secret_even_y = p.y.is_odd() ? curve_order() - secret : secret;
  pair.pubkey = XOnlyPublicKey{p.x};
  return pair;
}

SchnorrSignature schnorr_sign(const U256& secret, const util::Hash256& message,
                              const util::FixedBytes<32>& aux_rand) {
  const ModCtx& sc = scalar_ctx();
  SchnorrKeyPair pair = SchnorrKeyPair::from_secret(secret);
  const U256& d = pair.secret_even_y;

  // t = d XOR H_tag("BIP0340/aux", aux).
  util::Hash256 aux_hash = tagged_hash("BIP0340/aux", aux_rand.span());
  auto d_bytes = d.to_be_bytes();
  util::Bytes t(32);
  for (int i = 0; i < 32; ++i) {
    t[static_cast<std::size_t>(i)] =
        d_bytes.data[static_cast<std::size_t>(i)] ^ aux_hash.data[static_cast<std::size_t>(i)];
  }

  // k0 = H_tag("BIP0340/nonce", t || P.x || m) mod n.
  util::Bytes nonce_input = t;
  auto px = pair.pubkey.bytes();
  nonce_input.insert(nonce_input.end(), px.data.begin(), px.data.end());
  nonce_input.insert(nonce_input.end(), message.data.begin(), message.data.end());
  U256 k0 = sc.reduce(U256::from_be_bytes(tagged_hash("BIP0340/nonce", nonce_input).span()));
  if (k0.is_zero()) throw std::runtime_error("schnorr_sign: zero nonce (negligible)");

  AffinePoint r_point = generator_mul(k0);
  U256 k = r_point.y.is_odd() ? curve_order() - k0 : k0;

  // e = H_tag("BIP0340/challenge", R.x || P.x || m) mod n.
  util::Bytes challenge_input;
  auto rx = r_point.x.to_be_bytes();
  challenge_input.insert(challenge_input.end(), rx.data.begin(), rx.data.end());
  challenge_input.insert(challenge_input.end(), px.data.begin(), px.data.end());
  challenge_input.insert(challenge_input.end(), message.data.begin(), message.data.end());
  U256 e =
      sc.reduce(U256::from_be_bytes(tagged_hash("BIP0340/challenge", challenge_input).span()));

  return SchnorrSignature{r_point.x, sc.add(k, sc.mul(e, d))};
}

bool schnorr_verify(const XOnlyPublicKey& pubkey, const util::Hash256& message,
                    const SchnorrSignature& sig) {
  const ModCtx& sc = scalar_ctx();
  const ModCtx& f = field_ctx();
  auto p = pubkey.lift();
  if (!p) return false;
  if (sig.r >= f.modulus() || sig.s >= curve_order()) return false;

  util::Bytes challenge_input;
  auto rb = sig.r.to_be_bytes();
  auto pb = pubkey.bytes();
  challenge_input.insert(challenge_input.end(), rb.data.begin(), rb.data.end());
  challenge_input.insert(challenge_input.end(), pb.data.begin(), pb.data.end());
  challenge_input.insert(challenge_input.end(), message.data.begin(), message.data.end());
  U256 e =
      sc.reduce(U256::from_be_bytes(tagged_hash("BIP0340/challenge", challenge_input).span()));

  // R = s*G - e*P.
  AffinePoint r_point = double_mul(sig.s, sc.neg(e), *p);
  if (r_point.infinity) return false;
  if (r_point.y.is_odd()) return false;
  return r_point.x == sig.r;
}

}  // namespace icbtc::crypto
