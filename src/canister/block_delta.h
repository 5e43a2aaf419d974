// One block's UTXO changes, flattened once when the block arrives (§III-C,
// Algorithm 2). The unstable delta index reads a block's outputs from it for
// as long as the block is unstable, and the stable UTXO store applies it when
// the block becomes δ-stable, so no block is walked or hashed twice.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitcoin/block.h"
#include "parallel/thread_pool.h"
#include "util/bytes.h"

namespace icbtc::canister {

/// Hash functor for scriptPubKey byte strings, keying a delta's script
/// lookup and filter. Folds eight bytes per step (FNV-style multiply over
/// 64-bit words), ~8x fewer multiplies than a byte-at-a-time loop.
/// Process-local only: values depend on host endianness and must never be
/// serialized — which is also why it must NOT pick shards (see
/// stable_script_shard_hash).
struct ScriptHash {
  std::size_t operator()(util::ByteSpan b) const noexcept;
};

/// Serialization-stable reduction of script bytes used for shard selection:
/// byte-at-a-time FNV-1a 64, independent of host endianness and word size,
/// so shard assignment survives checkpoint/restart across machines. Pinned
/// by known-answer tests; never change without a migration plan.
std::uint64_t stable_script_shard_hash(util::ByteSpan script) noexcept;

/// 512-bit bloom-style summary of the scripts a block pays. Two probes per
/// script keep the false-positive rate low for realistic per-block script
/// counts; a negative answer proves the block added nothing for the script,
/// skipping the lookup entirely.
class ScriptFilter {
 public:
  void add(std::size_t script_hash) {
    for (auto [word, bit] : probes(script_hash)) words_[word] |= bit;
  }
  bool may_contain(std::size_t script_hash) const {
    for (auto [word, bit] : probes(script_hash)) {
      if ((words_[word] & bit) == 0) return false;
    }
    return true;
  }

 private:
  static std::array<std::pair<std::size_t, std::uint64_t>, 2> probes(std::size_t h) {
    // Derive two independent probes from the 64-bit script hash: low bits
    // and a mixed rotation. 512 bits total.
    std::uint64_t h2 = (h >> 17 | h << 47) * 0x9e3779b97f4a7c15ULL;
    return {{{(h >> 6) & 7, 1ULL << (h & 63)}, {(h2 >> 6) & 7, 1ULL << (h2 & 63)}}};
  }

  std::array<std::uint64_t, 8> words_{};
};

/// Everything the canister needs of one block after its arrival, in block
/// order: every output (OP_RETURN outputs included — the scan read path
/// visits and meters them too), the outpoints the non-coinbase inputs spend,
/// and where each transaction's spends and outputs end. Script bytes live in
/// one arena per delta.
struct BlockDelta {
  /// One output. Its script is `script(i)`: the arena bytes from its offset
  /// to the next output's.
  struct Output {
    bitcoin::OutPoint outpoint;
    std::uint32_t script_offset = 0;
    bitcoin::Amount value = 0;
    std::uint64_t shard_hash = 0;  // stable_script_shard_hash of the script
  };
  /// A script's ScriptHash and the index of an output paying it.
  struct ScriptRef {
    std::size_t hash = 0;
    std::uint32_t output = 0;
  };
  /// One past the transaction's last entry in `spent` and in `outputs`.
  struct TxEnd {
    std::uint32_t spends = 0;
    std::uint32_t outputs = 0;
  };

  int height = 0;
  std::vector<Output> outputs;
  util::Bytes scripts;
  /// One entry per output, sorted by (hash, output): a script's outputs are
  /// a contiguous run, in block order.
  std::vector<ScriptRef> by_script;
  std::vector<bitcoin::OutPoint> spent;
  std::vector<TxEnd> tx_ends;
  ScriptFilter filter;
  /// Exact host-side footprint of this delta at build time (computed by
  /// delta_resident_bytes; deterministic).
  std::uint64_t resident_bytes = 0;

  std::size_t transactions() const { return tx_ends.size(); }

  util::ByteSpan script(std::size_t i) const {
    std::size_t begin = outputs[i].script_offset;
    std::size_t end = i + 1 < outputs.size() ? outputs[i + 1].script_offset : scripts.size();
    return util::ByteSpan(scripts).subspan(begin, end - begin);
  }

  /// The entries of `by_script` whose hash is `script_hash`. Their outputs
  /// may still pay another script with the same hash: compare the bytes.
  std::span<const ScriptRef> with_hash(std::size_t script_hash) const {
    auto [first, last] = std::equal_range(
        by_script.begin(), by_script.end(), ScriptRef{script_hash, 0},
        [](const ScriptRef& a, const ScriptRef& b) { return a.hash < b.hash; });
    return {first, last};
  }
};
static_assert(sizeof(BlockDelta::Output) == 56);

/// Builds the delta of `block` at `height`. Txid hashing — the expensive
/// part — runs on `pool` unless every txid is cached already; the walk
/// itself is one serial pass in transaction order, so the delta is
/// byte-identical with or without a pool.
BlockDelta build_block_delta(const bitcoin::Block& block, int height,
                             parallel::ThreadPool* pool);

/// Capacity-accurate host bytes held by a delta (the struct plus its vector
/// and arena buffers at capacity). Feeds `canister.delta.resident_bytes`;
/// pinned by tests so the gauge can't silently regress to an estimate.
std::uint64_t delta_resident_bytes(const BlockDelta& delta);

}  // namespace icbtc::canister
