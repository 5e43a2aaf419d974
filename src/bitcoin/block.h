// Bitcoin block headers and blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "bitcoin/transaction.h"
#include "parallel/thread_pool.h"
#include "util/byteio.h"
#include "util/bytes.h"

namespace icbtc::bitcoin {

/// The 80-byte Bitcoin block header.
struct BlockHeader {
  std::int32_t version = 4;
  Hash256 prev_hash;    // hashPrevBlock
  Hash256 merkle_root;  // root of the txid Merkle tree
  std::uint32_t time = 0;
  std::uint32_t bits = 0;  // compact difficulty target
  std::uint32_t nonce = 0;

  bool operator==(const BlockHeader&) const = default;

  void serialize(util::ByteWriter& w) const;
  static BlockHeader deserialize(util::ByteReader& r);
  Bytes serialize() const;
  static BlockHeader parse(ByteSpan data);

  /// The block hash: double-SHA256 of the 80-byte serialization.
  Hash256 hash() const;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  bool operator==(const Block&) const = default;

  void serialize(util::ByteWriter& w) const;
  /// Parses every transaction, then — with the txid cache on — hashes each
  /// one's exact wire bytes into its txid cache, in fixed chunks of
  /// transactions on the shared pool (serially when none is installed).
  /// Must not run inside a shared-pool task: ThreadPool::run is not
  /// reentrant.
  static Block deserialize(util::ByteReader& r);
  Bytes serialize() const;
  static Block parse(ByteSpan data);

  Hash256 hash() const { return header.hash(); }
  /// Serialized size in bytes, counted from the fields without serializing.
  std::size_t size() const;

  /// True when every transaction's txid is memoized (deserialize() seeds
  /// them), so a txid fan-out would only read caches.
  bool txids_cached() const;

  /// All txids in transaction order. When `pool` is non-null and some txid
  /// is uncached, they are computed concurrently (txid is a pure function of
  /// the tx bytes, so the result is identical to the serial path); each tx's
  /// cache is seeded so later consumers hash nothing.
  std::vector<Hash256> txids(parallel::ThreadPool* pool = parallel::shared_pool()) const;

  /// Recomputes the Merkle root from the transactions.
  Hash256 compute_merkle_root(parallel::ThreadPool* pool = parallel::shared_pool()) const;

  /// Structural validity: non-empty, first tx (and only first) is coinbase,
  /// all transactions well-formed, and the header's Merkle root matches.
  bool is_well_formed(parallel::ThreadPool* pool = parallel::shared_pool()) const;
};

/// Merkle root over a list of txids, per Bitcoin's (duplicate-last) rule.
/// An empty list yields the zero hash.
Hash256 merkle_root(const std::vector<Hash256>& txids);

}  // namespace icbtc::bitcoin
