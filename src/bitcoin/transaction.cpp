#include "bitcoin/transaction.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace icbtc::bitcoin {

namespace {
std::atomic<std::uint64_t> g_txid_computations{0};
std::atomic<bool> g_txid_cache_enabled{true};
}  // namespace

void OutPoint::serialize(util::ByteWriter& w) const {
  w.bytes(txid.span());
  w.u32le(vout);
}

OutPoint OutPoint::deserialize(util::ByteReader& r) {
  OutPoint o;
  o.txid = r.hash256();
  o.vout = r.u32le();
  return o;
}

void TxIn::serialize(util::ByteWriter& w) const {
  prevout.serialize(w);
  w.var_bytes(script_sig);
  w.u32le(sequence);
}

TxIn TxIn::deserialize(util::ByteReader& r) {
  TxIn in;
  in.prevout = OutPoint::deserialize(r);
  in.script_sig = r.var_bytes();
  in.sequence = r.u32le();
  return in;
}

void TxOut::serialize(util::ByteWriter& w) const {
  w.i64le(value);
  w.var_bytes(script_pubkey);
}

TxOut TxOut::deserialize(util::ByteReader& r) {
  TxOut out;
  out.value = r.i64le();
  out.script_pubkey = r.var_bytes();
  return out;
}

void Transaction::serialize(util::ByteWriter& w) const {
  w.i32le(version);
  w.varint(inputs.size());
  for (const auto& in : inputs) in.serialize(w);
  w.varint(outputs.size());
  for (const auto& out : outputs) out.serialize(w);
  w.u32le(lock_time);
}

Bytes Transaction::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

Transaction Transaction::read_fields(util::ByteReader& r) {
  Transaction tx;
  tx.version = r.i32le();
  std::size_t n_in = r.checked_len(r.varint());
  tx.inputs.reserve(n_in);
  for (std::size_t i = 0; i < n_in; ++i) tx.inputs.push_back(TxIn::deserialize(r));
  std::size_t n_out = r.checked_len(r.varint());
  tx.outputs.reserve(n_out);
  for (std::size_t i = 0; i < n_out; ++i) tx.outputs.push_back(TxOut::deserialize(r));
  tx.lock_time = r.u32le();
  return tx;
}

Transaction Transaction::deserialize(util::ByteReader& r) {
  std::size_t start = r.position();
  Transaction tx = read_fields(r);
  if (g_txid_cache_enabled.load(std::memory_order_relaxed)) {
    // Hash the exact wire bytes just consumed — the txid comes for free at
    // parse time, with no reserialization.
    g_txid_computations.fetch_add(1, std::memory_order_relaxed);
    tx.seed_txid(crypto::sha256d(r.window(start)));
  }
  return tx;
}

Transaction Transaction::parse(ByteSpan data) {
  util::ByteReader r(data);
  Transaction tx = deserialize(r);
  if (!r.done()) throw util::DecodeError("trailing bytes after transaction");
  return tx;
}

Transaction::Transaction(const Transaction& other)
    : version(other.version),
      inputs(other.inputs),
      outputs(other.outputs),
      lock_time(other.lock_time) {
  adopt_cache(other);
}

Transaction::Transaction(Transaction&& other) noexcept
    : version(other.version),
      inputs(std::move(other.inputs)),
      outputs(std::move(other.outputs)),
      lock_time(other.lock_time) {
  adopt_cache(other);
  other.invalidate_txid();
}

Transaction& Transaction::operator=(const Transaction& other) {
  if (this != &other) {
    version = other.version;
    inputs = other.inputs;
    outputs = other.outputs;
    lock_time = other.lock_time;
    adopt_cache(other);
  }
  return *this;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    version = other.version;
    inputs = std::move(other.inputs);
    outputs = std::move(other.outputs);
    lock_time = other.lock_time;
    adopt_cache(other);
    other.invalidate_txid();
  }
  return *this;
}

void Transaction::adopt_cache(const Transaction& other) {
  if (other.txid_state_.load(std::memory_order_acquire) == kTxidReady) {
    txid_cache_ = other.txid_cache_;
    txid_state_.store(kTxidReady, std::memory_order_release);
  } else {
    txid_state_.store(kTxidEmpty, std::memory_order_relaxed);
  }
}

void Transaction::seed_txid(const Hash256& h) const {
  std::uint8_t expected = kTxidEmpty;
  if (txid_state_.compare_exchange_strong(expected, kTxidFilling, std::memory_order_acq_rel)) {
    txid_cache_ = h;
    txid_state_.store(kTxidReady, std::memory_order_release);
  }
}

Hash256 Transaction::txid() const {
  if (g_txid_cache_enabled.load(std::memory_order_relaxed) &&
      txid_state_.load(std::memory_order_acquire) == kTxidReady) {
    return txid_cache_;
  }
  g_txid_computations.fetch_add(1, std::memory_order_relaxed);
  Hash256 h = crypto::sha256d(serialize());
  if (g_txid_cache_enabled.load(std::memory_order_relaxed)) seed_txid(h);
  return h;
}

void Transaction::count_txid_computations(std::uint64_t n) {
  g_txid_computations.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Transaction::txid_computations() {
  return g_txid_computations.load(std::memory_order_relaxed);
}

void Transaction::set_txid_cache_enabled(bool enabled) {
  g_txid_cache_enabled.store(enabled, std::memory_order_relaxed);
}

bool Transaction::txid_cache_enabled() {
  return g_txid_cache_enabled.load(std::memory_order_relaxed);
}

std::size_t Transaction::size() const {
  // version, the two counts, lock_time, and per input an outpoint, a
  // length-prefixed script and a sequence; per output a value and a
  // length-prefixed script.
  std::size_t n = 4 + util::varint_size(inputs.size()) + util::varint_size(outputs.size()) + 4;
  for (const auto& in : inputs) {
    n += 36 + util::varint_size(in.script_sig.size()) + in.script_sig.size() + 4;
  }
  for (const auto& out : outputs) {
    n += 8 + util::varint_size(out.script_pubkey.size()) + out.script_pubkey.size();
  }
  return n;
}

bool Transaction::is_well_formed() const {
  if (inputs.empty() || outputs.empty()) return false;
  Amount total = 0;
  for (const auto& out : outputs) {
    if (!money_range(out.value)) return false;
    total += out.value;
    if (!money_range(total)) return false;
  }
  bool coinbase = is_coinbase();
  std::vector<OutPoint> prevouts;
  prevouts.reserve(inputs.size());
  for (const auto& in : inputs) {
    if (!coinbase && in.prevout.is_null()) return false;
    prevouts.push_back(in.prevout);
  }
  // Duplicate inputs end up adjacent once sorted.
  std::sort(prevouts.begin(), prevouts.end());
  return std::adjacent_find(prevouts.begin(), prevouts.end()) == prevouts.end();
}

}  // namespace icbtc::bitcoin
