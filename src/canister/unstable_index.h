// The canister's unstable window (§III-C): every stored block above the
// anchor, each beside the delta built from it, and the index that serves the
// unstable half of get_utxos/get_balance.
//
// Re-scanning every transaction of every unstable block per request would be
// O(unstable chain) per call — hundreds of thousands of tx visits at mainnet
// shape (δ=144 blocks above the anchor). This index makes the read path
// O(relevant): when a block enters the window its BlockDelta
// (canister/block_delta.h) is built exactly once — its outputs with a sorted
// script lookup, the outpoints it spends, and a bloom-style "may touch
// script" summary for cheap negative lookups. The stable store applies the
// same delta once the block is δ-stable. A read syncs the index to the
// current chain: it caches the chain's deltas above the anchor and keeps an
// `outpoint → spending heights` index over them, both updated only for the
// blocks that changed since the last read.
//
// Metering contract: the index changes HOST wall-clock only. The instruction
// meter models the IC canister's measured request costs (Fig. 7), which are
// those of a scan: `unstable_block_scan` per chain block visited and
// `unstable_utxo_read` per matching output — View reports both counts and
// the canister charges them. The scan itself lives on as the reference
// oracle in src/oracles/scan_reads.h, outside every production library.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bitcoin/block.h"
#include "canister/block_delta.h"
#include "canister/utxo_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace icbtc::canister {

class UnstableIndex {
 public:
  /// A script's assembled unstable view plus the charge counts the canister
  /// must replay against the instruction meter (identical to the scan path).
  struct View {
    std::vector<StoredUtxo> survivors;  // newest first: height desc, outpoint asc
    std::size_t visited_blocks = 0;     // charged unstable_block_scan each
    std::size_t matched_outputs = 0;    // charged unstable_utxo_read each
  };

  /// Stores `block` (shared, never copied) under `hash` with the delta built
  /// from it (build_block_delta; txids are hashed on `pool`). Idempotent for
  /// a hash already present.
  void add_block(const util::Hash256& hash, std::shared_ptr<const bitcoin::Block> block,
                 int height, parallel::ThreadPool* pool);

  /// Drops every block for which keep(hash) is false, together with its
  /// delta (anchor advance / reorg pruning).
  template <typename Keep>
  void prune(Keep&& keep) {
    bool changed = false;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (keep(it->first)) {
        ++it;
      } else {
        unsync(&it->second.delta);
        resident_bytes_ -= it->second.delta.resident_bytes;
        it = entries_.erase(it);
        changed = true;
      }
    }
    if (changed) {
      ++generation_;
      update_gauges();
    }
  }

  bool contains(const util::Hash256& hash) const { return entries_.contains(hash); }
  /// The stored block, or nullptr.
  const bitcoin::Block* block(const util::Hash256& hash) const {
    auto it = entries_.find(hash);
    return it == entries_.end() ? nullptr : it->second.block.get();
  }
  /// The stored block's delta, or nullptr.
  const BlockDelta* delta(const util::Hash256& hash) const {
    auto it = entries_.find(hash);
    return it == entries_.end() ? nullptr : &it->second.delta;
  }
  /// Every stored block's hash, ascending.
  std::vector<util::Hash256> hashes() const;

  /// Assembles the view for `script` over the blocks of `chain` (a header
  /// tree's current chain, root first) above the root, up to `height` and
  /// the first block without a delta. Syncs the index to `chain` first when
  /// the tip, the root or the delta set changed since the last call; the
  /// sync touches only the blocks that changed. Deterministic.
  View view(const std::vector<util::Hash256>& chain, const util::Bytes& script, int height);

  /// True iff a block of the last synced chain at or below `height` spends
  /// `outpoint`.
  bool spent(const bitcoin::OutPoint& outpoint, int height) const;

  std::size_t size() const { return entries_.size(); }
  /// Host bytes held by the deltas (the blocks are not counted).
  std::uint64_t resident_bytes() const { return resident_bytes_; }

  /// Attaches a metrics registry (nullptr detaches): `canister.delta.*` —
  /// builds counter, resident-bytes and block-count gauges, and a
  /// build-duration histogram (only fed when a build clock is installed,
  /// keeping default metric exports deterministic).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): every delta build emits a
  /// "canister.delta.build" span with height/txs/outputs/spends attributes.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs a host wall-clock (µs) for the `canister.delta.build_us`
  /// histogram. Off by default: the metrics JSON export is deterministic by
  /// contract, so wall-clock observation is opt-in (benches, fork_monitor).
  void set_build_clock(std::function<std::uint64_t()> now_us) {
    build_clock_ = std::move(now_us);
  }

 private:
  /// Brings synced_ and spent_ up to date with `chain`.
  void sync(const std::vector<util::Hash256>& chain);
  /// Drops `delta` from synced_, taking its spends out of spent_.
  void unsync(const BlockDelta* delta);
  void unindex_spends(const BlockDelta& delta);
  void update_gauges();

  /// One unstable block and the delta built from it at arrival. Map nodes
  /// never move, so `synced_` may point at their deltas.
  struct Entry {
    std::shared_ptr<const bitcoin::Block> block;
    BlockDelta delta;
  };
  std::unordered_map<util::Hash256, Entry> entries_;
  std::uint64_t resident_bytes_ = 0;
  /// Bumped by every block added or pruned; part of the sync key.
  std::uint64_t generation_ = 0;

  /// Sync state: the deltas of the synced chain above its root in chain
  /// order, and every outpoint they spend with the spending block's height.
  /// Holds only live deltas: pruning a delta unsyncs it.
  std::vector<const BlockDelta*> synced_;
  std::unordered_multimap<bitcoin::OutPoint, int> spent_;
  util::Hash256 synced_tip_;
  util::Hash256 synced_root_;
  std::uint64_t synced_generation_ = 0;

  struct Metrics {
    obs::Counter* builds = nullptr;
    obs::Gauge* resident = nullptr;
    obs::Gauge* blocks = nullptr;
    obs::Histogram* build_us = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
  std::function<std::uint64_t()> build_clock_;
};

}  // namespace icbtc::canister
