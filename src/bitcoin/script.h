// Minimal Bitcoin script support: the standard output templates the wallet
// layer uses (P2PKH and P2WPKH), plus legacy-sighash transaction signing and
// signature checking (with a signature cache) for the simulated Bitcoin
// network's mempool policy.
//
// A full script interpreter is deliberately out of scope: the Bitcoin
// canister never validates transaction scripts (§III-C — it relies on the
// proof of work and the Bitcoin network's vetting), so only the standard
// templates the examples spend are needed.
#pragma once

#include <optional>
#include <string>
#include <unordered_set>

#include "bitcoin/transaction.h"
#include "crypto/ecdsa.h"
#include "util/bytes.h"
#include "util/function_ref.h"

namespace icbtc::bitcoin {

// A subset of opcodes sufficient for the standard templates.
enum Opcode : std::uint8_t {
  OP_0 = 0x00,
  OP_1 = 0x51,
  OP_DUP = 0x76,
  OP_EQUAL = 0x87,
  OP_EQUALVERIFY = 0x88,
  OP_HASH160 = 0xa9,
  OP_CHECKSIG = 0xac,
  OP_RETURN = 0x6a,
};

/// SIGHASH type; only ALL is used by the wallet layer.
constexpr std::uint32_t kSighashAll = 0x01;

/// OP_DUP OP_HASH160 <20-byte hash> OP_EQUALVERIFY OP_CHECKSIG
Bytes p2pkh_script(const util::Hash160& pubkey_hash);

/// OP_0 <20-byte hash> (pay-to-witness-pubkey-hash)
Bytes p2wpkh_script(const util::Hash160& pubkey_hash);

/// OP_1 <32-byte x-only key> (pay-to-taproot, key-path only)
Bytes p2tr_script(const util::FixedBytes<32>& output_key);

/// OP_RETURN <data> (unspendable data carrier)
Bytes op_return_script(ByteSpan data);

/// If `script` is a standard P2PKH or P2WPKH output, returns the 20-byte
/// pubkey hash it pays.
std::optional<util::Hash160> extract_pubkey_hash(ByteSpan script);

bool is_p2pkh(ByteSpan script);
bool is_p2wpkh(ByteSpan script);
bool is_p2tr(ByteSpan script);
bool is_op_return(ByteSpan script);

/// The legacy (pre-segwit) signature hash for input `input_index` of `tx`
/// spending an output locked by `script_pubkey`, with SIGHASH_ALL.
util::Hash256 legacy_sighash(const Transaction& tx, std::size_t input_index,
                             ByteSpan script_pubkey);

/// Builds the scriptSig for a P2PKH input: <sig || sighash_type> <pubkey>.
Bytes p2pkh_script_sig(const crypto::Signature& sig, ByteSpan pubkey);

/// Parses a P2PKH scriptSig back into (DER signature + sighash byte, pubkey).
std::optional<std::pair<Bytes, Bytes>> parse_p2pkh_script_sig(ByteSpan script_sig);

/// Signatures that have already verified, after Bitcoin Core's signature
/// cache. A key is the exact (sighash digest, public-key bytes, signature
/// bytes) triple, each field length-prefixed, so two different triples never
/// share a key. Only successful checks are stored: a hit means the same pure
/// check returned true before, so a cached verifier decides exactly as an
/// uncached one. At kCapacity entries the set is emptied wholesale.
///
/// Not thread-safe: a cache belongs to one simulation thread.
class SignatureCache {
 public:
  static constexpr std::size_t kCapacity = 4096;

  /// True when the triple is cached. Otherwise runs `check` (which must be
  /// a pure function of the triple) and caches the triple iff it passes.
  bool verify(const util::Hash256& digest, ByteSpan pubkey, ByteSpan sig,
              util::FunctionRef<bool()> check);

  std::size_t size() const { return entries_.size(); }
  /// Checks run so far (the misses).
  std::uint64_t checks() const { return checks_; }

 private:
  std::unordered_set<std::string> entries_;
  std::uint64_t checks_ = 0;
};

/// Verifies that input `input_index` of `tx` correctly spends a P2PKH output
/// locked by `script_pubkey` (signature and pubkey-hash check). This is what
/// the simulated Bitcoin nodes run as mempool/block policy. The signature
/// check itself runs only for a triple not yet in `cache`.
bool verify_p2pkh_input(const Transaction& tx, std::size_t input_index, ByteSpan script_pubkey,
                        SignatureCache& cache);

/// Taproot key-path signature hash. Simplified from BIP-341: a tagged hash
/// over the legacy-style transaction commitment (this library's transactions
/// carry no witness section, so the witness-specific fields are absent); the
/// binding properties relevant to the simulation are identical.
util::Hash256 taproot_sighash(const Transaction& tx, std::size_t input_index,
                              ByteSpan script_pubkey);

/// Verifies a taproot key-path spend: the scriptSig must hold a 64-byte
/// BIP-340 signature by the output key over taproot_sighash.
bool verify_p2tr_input(const Transaction& tx, std::size_t input_index, ByteSpan script_pubkey,
                       SignatureCache& cache);

}  // namespace icbtc::bitcoin
