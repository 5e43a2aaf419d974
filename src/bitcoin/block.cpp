#include "bitcoin/block.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "crypto/sha256.h"

namespace icbtc::bitcoin {

namespace {
/// Transactions per txid-hashing task at parse. A mainnet-shaped block
/// (~1,100 transactions) makes about a dozen tasks: enough to keep every
/// worker busy, few enough that each task outweighs its dispatch.
constexpr std::size_t kTxidChunk = 96;
}  // namespace

void BlockHeader::serialize(util::ByteWriter& w) const {
  w.i32le(version);
  w.bytes(prev_hash.span());
  w.bytes(merkle_root.span());
  w.u32le(time);
  w.u32le(bits);
  w.u32le(nonce);
}

BlockHeader BlockHeader::deserialize(util::ByteReader& r) {
  BlockHeader h;
  h.version = r.i32le();
  h.prev_hash = r.hash256();
  h.merkle_root = r.hash256();
  h.time = r.u32le();
  h.bits = r.u32le();
  h.nonce = r.u32le();
  return h;
}

Bytes BlockHeader::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

BlockHeader BlockHeader::parse(ByteSpan data) {
  util::ByteReader r(data);
  BlockHeader h = deserialize(r);
  if (!r.done()) throw util::DecodeError("trailing bytes after block header");
  return h;
}

Hash256 BlockHeader::hash() const { return crypto::sha256d(serialize()); }

void Block::serialize(util::ByteWriter& w) const {
  header.serialize(w);
  w.varint(transactions.size());
  for (const auto& tx : transactions) tx.serialize(w);
}

Block Block::deserialize(util::ByteReader& r) {
  Block b;
  b.header = BlockHeader::deserialize(r);
  std::size_t n = r.checked_len(r.varint());
  b.transactions.reserve(n);
  std::vector<ByteSpan> wire;
  wire.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t start = r.position();
    b.transactions.push_back(Transaction::read_fields(r));
    wire.push_back(r.window(start));
  }
  if (!Transaction::txid_cache_enabled()) return b;
  // Each txid is sha256d of the transaction's wire bytes, exactly as
  // Transaction::deserialize hashes them; a pure function of those bytes, so
  // any thread may compute it. The owning pool reference outlives the
  // fan-out (see thread_pool.h).
  Transaction::count_txid_computations(n);
  std::shared_ptr<parallel::ThreadPool> pool = parallel::shared_pool_ref();
  parallel::parallel_for(pool.get(), (n + kTxidChunk - 1) / kTxidChunk, [&](std::size_t chunk) {
    std::size_t end = std::min(n, (chunk + 1) * kTxidChunk);
    for (std::size_t i = chunk * kTxidChunk; i < end; ++i) {
      b.transactions[i].seed_txid(crypto::sha256d(wire[i]));
    }
  });
  return b;
}

Bytes Block::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

Block Block::parse(ByteSpan data) {
  util::ByteReader r(data);
  Block b = deserialize(r);
  if (!r.done()) throw util::DecodeError("trailing bytes after block");
  return b;
}

std::size_t Block::size() const {
  std::size_t n = 80 + util::varint_size(transactions.size());
  for (const auto& tx : transactions) n += tx.size();
  return n;
}

bool Block::txids_cached() const {
  return std::all_of(transactions.begin(), transactions.end(),
                     [](const Transaction& tx) { return tx.txid_cached(); });
}

std::vector<Hash256> Block::txids(parallel::ThreadPool* pool) const {
  std::vector<Hash256> out(transactions.size());
  // txid() is a pure function of the tx bytes and seeds each tx's cache, so
  // computing the uncached ones concurrently is observationally identical to
  // the serial loop. Cached txids are only copied: no fan-out for those.
  parallel::parallel_for(txids_cached() ? nullptr : pool, transactions.size(),
                         [&](std::size_t i) { out[i] = transactions[i].txid(); });
  return out;
}

Hash256 Block::compute_merkle_root(parallel::ThreadPool* pool) const {
  return merkle_root(txids(pool));
}

bool Block::is_well_formed(parallel::ThreadPool* pool) const {
  if (transactions.empty()) return false;
  if (!transactions[0].is_coinbase()) return false;
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    if (i > 0 && transactions[i].is_coinbase()) return false;
    if (!transactions[i].is_well_formed()) return false;
  }
  return compute_merkle_root(pool) == header.merkle_root;
}

Hash256 merkle_root(const std::vector<Hash256>& txids) {
  if (txids.empty()) return Hash256{};
  std::vector<Hash256> level = txids;
  std::uint8_t node[64];
  while (level.size() > 1) {
    if (level.size() % 2 == 1) level.push_back(level.back());
    for (std::size_t i = 0; i < level.size(); i += 2) {
      // Inner node = sha256d(left || right): exactly 64 bytes, hashed via the
      // fixed-size fast path with no heap allocation.
      std::memcpy(node, level[i].data.data(), 32);
      std::memcpy(node + 32, level[i + 1].data.data(), 32);
      level[i / 2] = crypto::sha256d_64(node);
    }
    level.resize(level.size() / 2);
  }
  return level[0];
}

}  // namespace icbtc::bitcoin
