#include "canister/unstable_index.h"

#include <algorithm>
#include <utility>

namespace icbtc::canister {

void UnstableIndex::add_block(const util::Hash256& hash,
                              std::shared_ptr<const bitcoin::Block> block, int height,
                              parallel::ThreadPool* pool) {
  if (entries_.contains(hash)) return;
  std::uint64_t t0 = build_clock_ ? build_clock_() : 0;
  obs::ScopedSpan span(tracer_, "canister.delta.build", "canister");

  BlockDelta delta = build_block_delta(*block, height, pool);
  resident_bytes_ += delta.resident_bytes;

  if (span.active()) {
    span.attr("height", static_cast<std::int64_t>(height));
    span.attr("txs", static_cast<std::uint64_t>(delta.transactions()));
    span.attr("outputs", static_cast<std::uint64_t>(delta.outputs.size()));
    span.attr("spends", static_cast<std::uint64_t>(delta.spent.size()));
  }
  entries_.emplace(hash, Entry{std::move(block), std::move(delta)});
  ++generation_;
  if (metrics_.builds != nullptr) {
    metrics_.builds->inc();
    if (build_clock_) {
      metrics_.build_us->record(build_clock_() - t0);
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

std::vector<util::Hash256> UnstableIndex::hashes() const {
  std::vector<util::Hash256> out;
  out.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) out.push_back(hash);
  std::sort(out.begin(), out.end());
  return out;
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
    for (const BlockDelta::ScriptRef& ref : d->with_hash(script_hash)) {
      if (!util::equal(d->script(ref.output), script)) continue;
      ++v.matched_outputs;
      const BlockDelta::Output& out = d->outputs[ref.output];
      if (!spent(out.outpoint, height)) {
        v.survivors.push_back(StoredUtxo{out.outpoint, out.value, d->height});
      }
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
  metrics_.build_us = &registry->histogram("canister.delta.build_us");
  update_gauges();
}

void UnstableIndex::update_gauges() {
  if (metrics_.resident == nullptr) return;
  metrics_.resident->set(static_cast<std::int64_t>(resident_bytes_));
  metrics_.blocks->set(static_cast<std::int64_t>(entries_.size()));
}

}  // namespace icbtc::canister
