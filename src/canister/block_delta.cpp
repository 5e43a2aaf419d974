#include "canister/block_delta.h"

#include <cstring>

namespace icbtc::canister {

namespace {

/// Heap-block model shared with the persist layer's map accounting: an
/// allocator header plus the payload rounded to 16.
std::uint64_t heap_block(std::size_t payload) {
  return 16 + ((payload + 15) / 16) * 16;
}

}  // namespace

std::size_t ScriptHash::operator()(util::ByteSpan b) const noexcept {
  // FNV-1a folded over 64-bit words with the length mixed into the seed, so
  // prefixes of different lengths cannot collide trivially. The zero-padded
  // tail load is safe because the length disambiguates it.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL ^ (static_cast<std::uint64_t>(b.size()) * kPrime);
  const std::uint8_t* p = b.data();
  std::size_t n = b.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail) * kPrime;
  }
  // Finalizer: FNV's multiply mixes upward only; fold the high bits back so
  // the table's low-bit bucket selection sees the whole word.
  h ^= h >> 32;
  return h;
}

std::uint64_t stable_script_shard_hash(util::ByteSpan script) noexcept {
  // Canonical byte-at-a-time FNV-1a 64: every host folds the same byte
  // sequence the same way, so shard assignment is identical across
  // endianness, word size, and process restarts. Pinned by known-answer
  // tests (utxo_shard_test); the in-memory ScriptHash above is free to
  // change, this function is part of the (future) checkpoint format.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : script) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

BlockDelta build_block_delta(const bitcoin::Block& block, int height,
                             parallel::ThreadPool* pool) {
  const auto& txs = block.transactions;
  if (!block.txids_cached()) {
    parallel::parallel_for(pool, txs.size(), [&](std::size_t i) { (void)txs[i].txid(); });
  }

  std::size_t n_spends = 0;
  std::size_t n_outputs = 0;
  std::size_t script_bytes = 0;
  for (const auto& tx : txs) {
    if (!tx.is_coinbase()) n_spends += tx.inputs.size();
    n_outputs += tx.outputs.size();
    for (const auto& out : tx.outputs) script_bytes += out.script_pubkey.size();
  }
  BlockDelta d;
  d.height = height;
  d.outputs.reserve(n_outputs);
  d.scripts.reserve(script_bytes);
  d.by_script.reserve(n_outputs);
  d.spent.reserve(n_spends);
  d.tx_ends.reserve(txs.size());

  for (const auto& tx : txs) {
    if (!tx.is_coinbase()) {
      for (const auto& in : tx.inputs) d.spent.push_back(in.prevout);
    }
    util::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
      const util::Bytes& script = tx.outputs[v].script_pubkey;
      std::size_t script_hash = ScriptHash{}(script);
      d.filter.add(script_hash);
      d.by_script.push_back({script_hash, static_cast<std::uint32_t>(d.outputs.size())});
      d.outputs.push_back({bitcoin::OutPoint{txid, v}, static_cast<std::uint32_t>(d.scripts.size()),
                           tx.outputs[v].value, stable_script_shard_hash(script)});
      d.scripts.insert(d.scripts.end(), script.begin(), script.end());
    }
    d.tx_ends.push_back({static_cast<std::uint32_t>(d.spent.size()),
                         static_cast<std::uint32_t>(d.outputs.size())});
  }
  std::sort(d.by_script.begin(), d.by_script.end(),
            [](const BlockDelta::ScriptRef& a, const BlockDelta::ScriptRef& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.output < b.output;
            });
  d.resident_bytes = delta_resident_bytes(d);
  return d;
}

std::uint64_t delta_resident_bytes(const BlockDelta& d) {
  // Every buffer is reserved to its exact final size before it is filled,
  // so the footprint is a function of the block alone.
  std::uint64_t bytes = sizeof(BlockDelta);
  bytes += heap_block(d.outputs.capacity() * sizeof(BlockDelta::Output));
  bytes += heap_block(d.scripts.capacity());
  bytes += heap_block(d.by_script.capacity() * sizeof(BlockDelta::ScriptRef));
  bytes += heap_block(d.spent.capacity() * sizeof(bitcoin::OutPoint));
  bytes += heap_block(d.tx_ends.capacity() * sizeof(BlockDelta::TxEnd));
  return bytes;
}

}  // namespace icbtc::canister
