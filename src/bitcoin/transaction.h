// Bitcoin transaction structures and (de)serialization (legacy format).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "bitcoin/amount.h"
#include "util/byteio.h"
#include "util/bytes.h"

namespace icbtc::bitcoin {

using util::Bytes;
using util::ByteSpan;
using util::Hash256;

/// Reference to a transaction output: (txid, output index).
struct OutPoint {
  Hash256 txid;
  std::uint32_t vout = 0;

  bool is_null() const { return txid.is_zero() && vout == 0xffffffff; }
  static OutPoint null() { return OutPoint{Hash256{}, 0xffffffff}; }

  auto operator<=>(const OutPoint&) const = default;

  void serialize(util::ByteWriter& w) const;
  static OutPoint deserialize(util::ByteReader& r);
};

struct TxIn {
  OutPoint prevout;
  Bytes script_sig;
  std::uint32_t sequence = 0xffffffff;

  bool operator==(const TxIn&) const = default;

  void serialize(util::ByteWriter& w) const;
  static TxIn deserialize(util::ByteReader& r);
};

struct TxOut {
  Amount value = 0;
  Bytes script_pubkey;

  bool operator==(const TxOut&) const = default;

  void serialize(util::ByteWriter& w) const;
  static TxOut deserialize(util::ByteReader& r);
};

struct Transaction {
  std::int32_t version = 2;
  std::vector<TxIn> inputs;
  std::vector<TxOut> outputs;
  std::uint32_t lock_time = 0;

  Transaction() = default;
  // The txid cache is per-value state, not identity: copies adopt the source's
  // cached hash (same logical tx, same txid); a moved-from source is left
  // invalidated because its field contents are gone.
  Transaction(const Transaction& other);
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(const Transaction& other);
  Transaction& operator=(Transaction&& other) noexcept;

  /// Logical equality over the four serialized fields; the txid cache is
  /// excluded (it is derived state).
  bool operator==(const Transaction& other) const {
    return version == other.version && inputs == other.inputs && outputs == other.outputs &&
           lock_time == other.lock_time;
  }

  /// True for a coinbase transaction (single input spending the null outpoint).
  bool is_coinbase() const {
    return inputs.size() == 1 && inputs[0].prevout.is_null();
  }

  Bytes serialize() const;
  void serialize(util::ByteWriter& w) const;
  static Transaction deserialize(util::ByteReader& r);
  /// Parses a full buffer; throws util::DecodeError on trailing bytes.
  static Transaction parse(ByteSpan data);

  /// Transaction id: double-SHA256 of the serialization (internal byte order).
  /// Memoized — the first call (or deserialize()) computes and caches the
  /// hash; later calls return it for free. Contract: code that mutates the
  /// public fields of a tx that may already have been hashed must call
  /// invalidate_txid() afterwards (the hot paths — relay, ingestion, merkle
  /// validation — treat transactions as immutable once parsed).
  Hash256 txid() const;

  /// Drops the cached txid after a field mutation.
  void invalidate_txid() { txid_state_.store(kTxidEmpty, std::memory_order_release); }

  /// Whether a txid is currently cached (test/bench introspection).
  bool txid_cached() const { return txid_state_.load(std::memory_order_acquire) == kTxidReady; }

  /// Process-wide count of full txid computations (serialize + sha256d), for
  /// tests asserting each tx is hashed exactly once on a hot path.
  static std::uint64_t txid_computations();

  /// Globally enables/disables the cache (default on). Benches disable it to
  /// measure the pre-cache baseline; with the cache off every txid() call
  /// recomputes and deserialize() skips the eager fill.
  static void set_txid_cache_enabled(bool enabled);
  static bool txid_cache_enabled();

  Amount total_output_value() const {
    Amount sum = 0;
    for (const auto& o : outputs) sum += o.value;
    return sum;
  }

  /// Serialized size in bytes, counted from the fields without serializing.
  std::size_t size() const;

  /// Basic syntactic checks mirroring what the Bitcoin canister's
  /// send_transaction endpoint performs: non-empty inputs/outputs, values in
  /// the money range, no duplicate inputs.
  bool is_well_formed() const;

 private:
  // Block::deserialize parses a block's transactions with read_fields and
  // then hashes their wire bytes itself, spread over the shared pool.
  friend struct Block;

  static constexpr std::uint8_t kTxidEmpty = 0;
  static constexpr std::uint8_t kTxidFilling = 1;
  static constexpr std::uint8_t kTxidReady = 2;

  /// Parses the four serialized fields; computes no txid.
  static Transaction read_fields(util::ByteReader& r);
  /// Adds `n` to the txid_computations() count.
  static void count_txid_computations(std::uint64_t n);
  void adopt_cache(const Transaction& other);
  void seed_txid(const Hash256& h) const;

  // Lazy memoized txid. The state machine (empty → filling → ready) makes
  // concurrent txid() calls on the same const tx safe: both compute the same
  // pure value and the CAS loser simply discards its copy.
  mutable std::atomic<std::uint8_t> txid_state_{kTxidEmpty};
  mutable Hash256 txid_cache_{};
};

}  // namespace icbtc::bitcoin

namespace std {
template <>
struct hash<icbtc::bitcoin::OutPoint> {
  size_t operator()(const icbtc::bitcoin::OutPoint& o) const noexcept {
    return std::hash<icbtc::util::Hash256>{}(o.txid) * 1000003u ^ o.vout;
  }
};
}  // namespace std
