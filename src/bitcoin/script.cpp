#include "bitcoin/script.h"

#include "crypto/ripemd160.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace icbtc::bitcoin {

Bytes p2pkh_script(const util::Hash160& pubkey_hash) {
  Bytes s;
  s.reserve(25);
  s.push_back(OP_DUP);
  s.push_back(OP_HASH160);
  s.push_back(20);
  util::append(s, pubkey_hash.span());
  s.push_back(OP_EQUALVERIFY);
  s.push_back(OP_CHECKSIG);
  return s;
}

Bytes p2wpkh_script(const util::Hash160& pubkey_hash) {
  Bytes s;
  s.reserve(22);
  s.push_back(OP_0);
  s.push_back(20);
  util::append(s, pubkey_hash.span());
  return s;
}

Bytes op_return_script(ByteSpan data) {
  if (data.size() > 75) throw std::invalid_argument("op_return payload too large");
  Bytes s;
  s.reserve(data.size() + 2);
  s.push_back(OP_RETURN);
  s.push_back(static_cast<std::uint8_t>(data.size()));
  util::append(s, data);
  return s;
}

bool is_p2pkh(ByteSpan script) {
  return script.size() == 25 && script[0] == OP_DUP && script[1] == OP_HASH160 &&
         script[2] == 20 && script[23] == OP_EQUALVERIFY && script[24] == OP_CHECKSIG;
}

bool is_p2wpkh(ByteSpan script) {
  return script.size() == 22 && script[0] == OP_0 && script[1] == 20;
}

Bytes p2tr_script(const util::FixedBytes<32>& output_key) {
  Bytes s;
  s.reserve(34);
  s.push_back(OP_1);
  s.push_back(32);
  util::append(s, output_key.span());
  return s;
}

bool is_p2tr(ByteSpan script) {
  return script.size() == 34 && script[0] == OP_1 && script[1] == 32;
}

bool is_op_return(ByteSpan script) { return !script.empty() && script[0] == OP_RETURN; }

std::optional<util::Hash160> extract_pubkey_hash(ByteSpan script) {
  if (is_p2pkh(script)) return util::Hash160::from_span(script.subspan(3, 20));
  if (is_p2wpkh(script)) return util::Hash160::from_span(script.subspan(2, 20));
  return std::nullopt;
}

util::Hash256 legacy_sighash(const Transaction& tx, std::size_t input_index,
                             ByteSpan script_pubkey) {
  if (input_index >= tx.inputs.size()) {
    throw std::out_of_range("legacy_sighash: input index out of range");
  }
  // SIGHASH_ALL: serialize the tx with every scriptSig emptied except the
  // signed input, which carries the previous scriptPubKey, then append the
  // 4-byte sighash type and double-SHA256.
  Transaction copy = tx;
  for (std::size_t i = 0; i < copy.inputs.size(); ++i) {
    copy.inputs[i].script_sig =
        (i == input_index) ? Bytes(script_pubkey.begin(), script_pubkey.end()) : Bytes{};
  }
  util::ByteWriter w;
  copy.serialize(w);
  w.u32le(kSighashAll);
  return crypto::sha256d(w.data());
}

Bytes p2pkh_script_sig(const crypto::Signature& sig, ByteSpan pubkey) {
  Bytes der = sig.der();
  der.push_back(static_cast<std::uint8_t>(kSighashAll));
  Bytes s;
  s.reserve(der.size() + pubkey.size() + 2);
  s.push_back(static_cast<std::uint8_t>(der.size()));
  util::append(s, der);
  s.push_back(static_cast<std::uint8_t>(pubkey.size()));
  util::append(s, pubkey);
  return s;
}

std::optional<std::pair<Bytes, Bytes>> parse_p2pkh_script_sig(ByteSpan script_sig) {
  if (script_sig.size() < 2) return std::nullopt;
  std::size_t sig_len = script_sig[0];
  if (sig_len < 9 || 1 + sig_len + 1 > script_sig.size()) return std::nullopt;
  Bytes sig(script_sig.begin() + 1, script_sig.begin() + 1 + static_cast<std::ptrdiff_t>(sig_len));
  std::size_t key_off = 1 + sig_len;
  std::size_t key_len = script_sig[key_off];
  if (key_off + 1 + key_len != script_sig.size()) return std::nullopt;
  Bytes pubkey(script_sig.begin() + static_cast<std::ptrdiff_t>(key_off + 1), script_sig.end());
  return std::make_pair(std::move(sig), std::move(pubkey));
}

util::Hash256 taproot_sighash(const Transaction& tx, std::size_t input_index,
                              ByteSpan script_pubkey) {
  if (input_index >= tx.inputs.size()) {
    throw std::out_of_range("taproot_sighash: input index out of range");
  }
  Transaction copy = tx;
  for (std::size_t i = 0; i < copy.inputs.size(); ++i) {
    copy.inputs[i].script_sig =
        (i == input_index) ? Bytes(script_pubkey.begin(), script_pubkey.end()) : Bytes{};
  }
  util::ByteWriter w;
  w.u8(0x00);  // sighash type: default
  w.u32le(static_cast<std::uint32_t>(input_index));
  copy.serialize(w);
  return crypto::tagged_hash("TapSighash", w.data());
}

bool SignatureCache::verify(const util::Hash256& digest, ByteSpan pubkey, ByteSpan sig,
                            util::FunctionRef<bool()> check) {
  std::string key;
  key.reserve(12 + digest.data.size() + pubkey.size() + sig.size());
  for (ByteSpan field : {digest.span(), pubkey, sig}) {
    auto len = static_cast<std::uint32_t>(field.size());
    for (int shift = 0; shift < 32; shift += 8) key.push_back(static_cast<char>(len >> shift));
    key.append(field.begin(), field.end());
  }
  if (entries_.contains(key)) return true;
  ++checks_;
  if (!check()) return false;
  if (entries_.size() >= kCapacity) entries_.clear();
  entries_.insert(std::move(key));
  return true;
}

bool verify_p2tr_input(const Transaction& tx, std::size_t input_index, ByteSpan script_pubkey,
                       SignatureCache& cache) {
  if (!is_p2tr(script_pubkey) || input_index >= tx.inputs.size()) return false;
  const auto& script_sig = tx.inputs[input_index].script_sig;
  auto sig = crypto::SchnorrSignature::parse(script_sig);
  if (!sig) return false;
  ByteSpan key_bytes = script_pubkey.subspan(2, 32);
  util::Hash256 digest = taproot_sighash(tx, input_index, script_pubkey);
  auto check = [&] {
    auto pubkey = crypto::XOnlyPublicKey::parse(key_bytes);
    return pubkey && crypto::schnorr_verify(*pubkey, digest, *sig);
  };
  return cache.verify(digest, key_bytes, script_sig, check);
}

bool verify_p2pkh_input(const Transaction& tx, std::size_t input_index, ByteSpan script_pubkey,
                        SignatureCache& cache) {
  if (!is_p2pkh(script_pubkey) || input_index >= tx.inputs.size()) return false;
  auto parsed = parse_p2pkh_script_sig(tx.inputs[input_index].script_sig);
  if (!parsed) return false;
  auto& [sig_with_type, pubkey] = *parsed;
  if (sig_with_type.empty() || sig_with_type.back() != kSighashAll) return false;

  // Pubkey must hash to the locked hash.
  auto expected_hash = extract_pubkey_hash(script_pubkey);
  if (!expected_hash || crypto::hash160(pubkey) != *expected_hash) return false;

  util::Hash256 digest = legacy_sighash(tx, input_index, script_pubkey);
  ByteSpan der(sig_with_type.data(), sig_with_type.size() - 1);
  auto check = [&] {
    auto point = crypto::AffinePoint::parse(pubkey);
    if (!point) return false;
    auto sig = crypto::Signature::from_der(der);
    return sig && crypto::verify(*point, digest, *sig);
  };
  return cache.verify(digest, pubkey, der, check);
}

}  // namespace icbtc::bitcoin
