#include "canister/unstable_index.h"

#include <algorithm>
#include <utility>

namespace icbtc::canister {

namespace {

/// Heap-block model shared with the persist layer's map accounting: an
/// allocator header plus the payload rounded to 16.
std::uint64_t heap_block(std::size_t payload) {
  return 16 + ((payload + 15) / 16) * 16;
}

}  // namespace

std::uint64_t delta_resident_bytes(const BlockDelta& d) {
  // Capacity-accurate accounting from the actual container shapes: the
  // script map's bucket array, one heap node per script (payload + next
  // pointer), script byte buffers, and UTXO and spend vectors at capacity.
  // Deterministic for a fixed build history (bucket growth and vector growth
  // are deterministic).
  std::uint64_t bytes = sizeof(BlockDelta);
  bytes += d.added.bucket_count() * sizeof(void*);
  for (const auto& [script, utxos] : d.added) {
    bytes += heap_block(sizeof(util::Bytes) + sizeof(std::vector<StoredUtxo>) + sizeof(void*));
    bytes += heap_block(script.capacity());
    bytes += heap_block(utxos.capacity() * sizeof(StoredUtxo));
  }
  bytes += heap_block(d.spent.capacity() * sizeof(bitcoin::OutPoint));
  return bytes;
}

void UnstableIndex::add_block(const util::Hash256& hash, const bitcoin::Block& block,
                              int height, parallel::ThreadPool* pool) {
  if (deltas_.contains(hash)) return;
  std::uint64_t t0 = build_clock_ ? build_clock_() : 0;
  obs::ScopedSpan span(tracer_, "canister.delta.build", "canister");

  // Warm the memoized txid caches in parallel — sha256d over the wire bytes
  // is the expensive part of delta construction — unless they are all warm
  // already. The merge below is serial in transaction order, so the delta
  // content is pool-invariant.
  const auto& txs = block.transactions;
  if (!block.txids_cached()) {
    parallel::parallel_for(pool, txs.size(), [&](std::size_t i) { (void)txs[i].txid(); });
  }

  auto delta = std::make_unique<BlockDelta>();
  delta->height = height;
  delta->transactions = txs.size();
  std::size_t spends = 0;
  for (const auto& tx : txs) {
    if (!tx.is_coinbase()) spends += tx.inputs.size();
  }
  delta->spent.reserve(spends);
  for (const auto& tx : txs) {
    if (!tx.is_coinbase()) {
      for (const auto& in : tx.inputs) delta->spent.push_back(in.prevout);
    }
    util::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
      const auto& out = tx.outputs[v];
      auto [it, inserted] = delta->added.try_emplace(out.script_pubkey);
      if (inserted) delta->filter.add(ScriptHash{}(out.script_pubkey));
      it->second.push_back(StoredUtxo{bitcoin::OutPoint{txid, v}, out.value, height});
      ++delta->added_outputs;
    }
  }
  delta->resident_bytes = delta_resident_bytes(*delta);
  resident_bytes_ += delta->resident_bytes;

  if (span.active()) {
    span.attr("height", static_cast<std::int64_t>(height));
    span.attr("txs", static_cast<std::uint64_t>(delta->transactions));
    span.attr("outputs", static_cast<std::uint64_t>(delta->added_outputs));
    span.attr("spends", static_cast<std::uint64_t>(delta->spent.size()));
    span.attr("scripts", static_cast<std::uint64_t>(delta->added.size()));
  }
  deltas_.emplace(hash, std::move(delta));
  ++generation_;
  if (metrics_.builds != nullptr) {
    metrics_.builds->inc();
    if (build_clock_) {
      metrics_.build_us->observe(static_cast<double>(build_clock_() - t0));
    }
  }
  update_gauges();
}

void UnstableIndex::unsync(const BlockDelta* delta) {
  auto it = std::find(synced_.begin(), synced_.end(), delta);
  if (it == synced_.end()) return;
  unindex_spends(*delta);
  synced_.erase(it);
}

void UnstableIndex::unindex_spends(const BlockDelta& delta) {
  for (const auto& outpoint : delta.spent) {
    auto [first, last] = spent_.equal_range(outpoint);
    auto it = std::find_if(first, last, [&](const auto& e) { return e.second == delta.height; });
    if (it != last) spent_.erase(it);
  }
}

void UnstableIndex::sync(const std::vector<util::Hash256>& chain) {
  if (chain.back() == synced_tip_ && chain.front() == synced_root_ &&
      generation_ == synced_generation_) {
    return;
  }
  // Keep the synced deltas up to the first one that differs from the
  // chain's; replace the rest with the chain's deltas up to its first gap.
  std::size_t n = 0;
  while (n < synced_.size() && n + 1 < chain.size() && synced_[n] == delta(chain[n + 1])) ++n;
  while (synced_.size() > n) {
    unindex_spends(*synced_.back());
    synced_.pop_back();
  }
  for (; n + 1 < chain.size(); ++n) {
    const BlockDelta* d = delta(chain[n + 1]);
    if (d == nullptr) break;
    for (const auto& outpoint : d->spent) spent_.emplace(outpoint, d->height);
    synced_.push_back(d);
  }
  synced_tip_ = chain.back();
  synced_root_ = chain.front();
  synced_generation_ = generation_;
}

bool UnstableIndex::spent(const bitcoin::OutPoint& outpoint, int height) const {
  auto [first, last] = spent_.equal_range(outpoint);
  return std::any_of(first, last, [&](const auto& e) { return e.second <= height; });
}

UnstableIndex::View UnstableIndex::view(const std::vector<util::Hash256>& chain,
                                        const util::Bytes& script, int height) {
  sync(chain);
  View v;
  std::size_t script_hash = ScriptHash{}(script);
  for (const BlockDelta* d : synced_) {
    if (d->height > height) break;
    ++v.visited_blocks;
    if (!d->filter.may_contain(script_hash)) continue;
    auto it = d->added.find(script);
    if (it == d->added.end()) continue;
    v.matched_outputs += it->second.size();
    for (const auto& u : it->second) {
      if (!spent(u.outpoint, height)) v.survivors.push_back(u);
    }
  }
  // Newest first, exactly the scan path's order (heights are unique per
  // chain block; outpoints break ties within a block).
  std::sort(v.survivors.begin(), v.survivors.end(), [](const StoredUtxo& a, const StoredUtxo& b) {
    return a.height != b.height ? a.height > b.height : a.outpoint < b.outpoint;
  });
  return v;
}

void UnstableIndex::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.builds = &registry->counter("canister.delta.builds");
  metrics_.resident = &registry->gauge("canister.delta.resident_bytes");
  metrics_.blocks = &registry->gauge("canister.delta.blocks");
  metrics_.build_us = &registry->histogram("canister.delta.build_us",
                                           obs::Histogram::decade_bounds(1.0, 1e6));
  update_gauges();
}

void UnstableIndex::update_gauges() {
  if (metrics_.resident == nullptr) return;
  metrics_.resident->set(static_cast<std::int64_t>(resident_bytes_));
  metrics_.blocks->set(static_cast<std::int64_t>(deltas_.size()));
}

}  // namespace icbtc::canister
