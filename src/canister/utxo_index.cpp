#include "canister/utxo_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "bitcoin/script.h"
#include "crypto/sha256.h"

namespace icbtc::canister {

namespace {
/// Pre-block spends resolved per pool task in apply.
constexpr std::size_t kProbeChunk = 64;

/// Open-addressing table over a delta's spendable outputs, keyed by
/// outpoint: finds the output of the same block that a spend consumes. The
/// first occurrence of an outpoint wins; OP_RETURN outputs are left out.
class LocalOutputs {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  explicit LocalOutputs(const BlockDelta& delta) : delta_(delta) {
    std::size_t capacity = 16;
    while (capacity < 2 * delta.outputs.size()) capacity *= 2;
    slots_.assign(capacity, kNone);
    mask_ = capacity - 1;
    for (std::uint32_t i = 0; i < delta.outputs.size(); ++i) {
      if (bitcoin::is_op_return(delta.script(i))) continue;
      std::uint32_t& slot = probe(delta.outputs[i].outpoint);
      if (slot == kNone) slot = i;
    }
  }

  std::uint32_t find(const bitcoin::OutPoint& outpoint) { return probe(outpoint); }

 private:
  /// The slot holding `outpoint`, or the empty slot where it would go.
  std::uint32_t& probe(const bitcoin::OutPoint& outpoint) {
    std::uint64_t word;
    std::memcpy(&word, outpoint.txid.data.data(), sizeof(word));
    std::uint64_t h = (word ^ outpoint.vout) * 0x9e3779b97f4a7c15ULL;
    for (std::size_t s = (h ^ h >> 32) & mask_;; s = (s + 1) & mask_) {
      std::uint32_t& slot = slots_[s];
      if (slot == kNone || delta_.outputs[slot].outpoint == outpoint) return slot;
    }
  }

  const BlockDelta& delta_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace

std::uint64_t UtxoIndex::entry_footprint(std::size_t script_len) {
  // Payload (outpoint 36 + value 8 + height 4 + script) plus the stable
  // B-tree node overhead (fixed-width keys, slack, versioning) of the
  // production canister's stable structures, stored in both the outpoint
  // index and the address index. Calibrated against the paper's Fig. 5:
  // ~103 GiB for ~170M UTXOs ≈ 600 bytes per UTXO.
  constexpr std::uint64_t kStableBTreeOverhead = 220;
  return 2 * (kStableBTreeOverhead + 36 + 8 + 4 + script_len);
}

UtxoIndex::UtxoIndex(InstructionCosts costs) : UtxoIndex(costs, ShardConfig{}) {}

UtxoIndex::UtxoIndex(InstructionCosts costs, ShardConfig shard_config)
    : costs_(costs), shard_config_(shard_config) {
  if (shard_config_.shards == 0) shard_config_.shards = 1;
  shards_ = make_shards(shard_config_.shards, shard_config_.backend);
}

std::vector<std::unique_ptr<UtxoIndex::Shard>> UtxoIndex::make_shards(
    std::size_t n, persist::UtxoBackend backend) {
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n);
  for (std::size_t s = 0; s < n; ++s) shards.push_back(std::make_unique<Shard>(backend));
  return shards;
}

// Moves are for value-semantics plumbing (from_checkpoint reassigns the store,
// BitcoinCanister is returned by value); the source must be quiescent and is
// left holding one fresh empty shard so its invariants (shards_.size() >= 1)
// survive.
UtxoIndex::UtxoIndex(UtxoIndex&& other) noexcept { *this = std::move(other); }

UtxoIndex& UtxoIndex::operator=(UtxoIndex&& other) noexcept {
  if (this == &other) return *this;
  costs_ = other.costs_;
  shard_config_ = other.shard_config_;
  shards_ = std::move(other.shards_);
  epoch_.store(other.epoch_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  metrics_ = other.metrics_;
  tracer_ = other.tracer_;
  other.shards_ = make_shards(1, other.shard_config_.backend);
  return *this;
}

void UtxoIndex::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.inserts = &registry->counter("utxo.inserts");
  metrics_.removes = &registry->counter("utxo.removes");
  metrics_.size = &registry->gauge("utxo.size");
  metrics_.memory = &registry->gauge("utxo.memory_bytes");
  metrics_.shard_count = &registry->gauge("utxo.shard.count");
  metrics_.shard_epoch = &registry->gauge("utxo.shard.epoch");
  metrics_.shard_max_utxos = &registry->gauge("utxo.shard.max_utxos");
  metrics_.shard_min_utxos = &registry->gauge("utxo.shard.min_utxos");
  metrics_.shard_live_bytes = &registry->gauge("utxo.shard.live_bytes");
  metrics_.shard_resident_bytes = &registry->gauge("utxo.shard.resident_bytes");
  update_size_gauges();
}

void UtxoIndex::update_size_gauges() {
  if (metrics_.size == nullptr) return;
  std::size_t total = 0;
  std::uint64_t memory = 0;
  std::uint64_t live = 0;
  std::uint64_t resident = 0;
  std::size_t max_shard = 0;
  std::size_t min_shard = static_cast<std::size_t>(-1);
  for (const auto& shard : shards_) {
    std::size_t n = shard->store->size();
    total += n;
    memory += shard->memory_bytes;
    live += shard->store->live_bytes();
    resident += shard->store->resident_bytes();
    max_shard = std::max(max_shard, n);
    min_shard = std::min(min_shard, n);
  }
  metrics_.size->set(static_cast<std::int64_t>(total));
  metrics_.memory->set(static_cast<std::int64_t>(memory));
  metrics_.shard_count->set(static_cast<std::int64_t>(shards_.size()));
  metrics_.shard_epoch->set(static_cast<std::int64_t>(epoch()));
  metrics_.shard_max_utxos->set(static_cast<std::int64_t>(max_shard));
  metrics_.shard_min_utxos->set(static_cast<std::int64_t>(min_shard));
  metrics_.shard_live_bytes->set(static_cast<std::int64_t>(live));
  metrics_.shard_resident_bytes->set(static_cast<std::int64_t>(resident));
}

std::uint64_t UtxoIndex::apply_op(Shard& shard, const PendingOp& op, OpCounts& counts) const {
  if (op.kind == PendingOp::Kind::kInsert) {
    if (!shard.store->insert(op.outpoint, op.value, op.height, op.script)) {
      return costs_.output_insert;  // duplicate (pre-BIP30); keep first
    }
    shard.memory_bytes += entry_footprint(op.script.size());
    ++counts.inserted;
    return costs_.output_insert;
  }
  auto erased = shard.store->erase(op.outpoint);
  if (!erased) return costs_.input_remove;  // unvalidated input; tolerated
  shard.memory_bytes -= entry_footprint(erased->script_len);
  ++counts.removed;
  return costs_.input_remove;
}

std::size_t UtxoIndex::shard_holding(const bitcoin::OutPoint& outpoint) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->store->contains(outpoint)) return s;
  }
  return kUnrouted;
}

void UtxoIndex::point_mutation(const PendingOp& op, ic::InstructionMeter& meter) {
  // An insert routes by script; a remove is outpoint-keyed, so it probes for
  // the shard of the entry's script.
  std::size_t shard =
      op.kind == PendingOp::Kind::kInsert ? shard_of(op.script) : shard_holding(op.outpoint);
  if (shard == kUnrouted) {
    meter.charge(costs_.input_remove);  // miss: charged, tolerated, no epoch
    return;
  }
  OpCounts counts;
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    meter.charge(apply_op(*shards_[shard], op, counts));
  }
  epoch_.fetch_add(1, std::memory_order_release);
  if (metrics_.inserts != nullptr && counts.inserted > 0) metrics_.inserts->inc();
  if (metrics_.removes != nullptr && counts.removed > 0) metrics_.removes->inc();
}

void UtxoIndex::insert(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output,
                       int height, ic::InstructionMeter& meter) {
  if (bitcoin::is_op_return(output.script_pubkey)) {
    meter.charge(costs_.per_tx_overhead / 8);
    return;
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kInsert;
  op.outpoint = outpoint;
  op.value = output.value;
  op.script = output.script_pubkey;
  op.height = height;
  point_mutation(op, meter);
}

void UtxoIndex::remove(const bitcoin::OutPoint& outpoint, ic::InstructionMeter& meter) {
  PendingOp op;
  op.kind = PendingOp::Kind::kRemove;
  op.outpoint = outpoint;
  point_mutation(op, meter);
}

BlockApplyStats UtxoIndex::apply_block(const bitcoin::Block& block, int height,
                                       ic::InstructionMeter& meter,
                                       parallel::ThreadPool* pool) {
  return apply(build_block_delta(block, height, pool), meter, pool);
}

BlockApplyStats UtxoIndex::apply(const BlockDelta& delta, ic::InstructionMeter& meter,
                                 parallel::ThreadPool* pool) {
  const std::size_t n_shards = shards_.size();
  const int height = delta.height;
  BlockApplyStats stats;
  stats.transactions = delta.transactions();
  stats.inputs_removed = delta.spent.size();

  // Pass 1 — route spends of this block's own outputs to the output's shard,
  // whatever their order in the block (a spend *preceding* its output stays
  // a tolerated miss there, exactly as on the serial path, because shard
  // order preserves block order). Inserts route by their stored shard hash
  // in pass 3; OP_RETURN outputs are charge-only and never become ops.
  std::vector<std::size_t> spend_shard(delta.spent.size(), kUnrouted);
  std::vector<std::size_t> unresolved;  // spends of pre-block outputs
  {
    LocalOutputs local(delta);
    for (std::size_t i = 0; i < delta.spent.size(); ++i) {
      std::uint32_t out = local.find(delta.spent[i]);
      if (out != LocalOutputs::kNone) {
        spend_shard[i] = static_cast<std::size_t>(delta.outputs[out].shard_hash % n_shards);
      } else {
        unresolved.push_back(i);
      }
    }
  }

  // Pass 2 — resolve removes of pre-block outputs, in chunks on the pool:
  // each outpoint probes the shards in index order and stops at the first
  // holding it (an outpoint lives in the shard of its script, so at most one
  // does). No shard is written before pass 4, and each task writes its own
  // chunk's routes. Misses everywhere are charged (serial semantics: remove()
  // always charges) and dropped.
  parallel::parallel_for(
      pool, (unresolved.size() + kProbeChunk - 1) / kProbeChunk, [&](std::size_t c) {
        std::size_t end = std::min(unresolved.size(), (c + 1) * kProbeChunk);
        for (std::size_t i = c * kProbeChunk; i < end; ++i) {
          spend_shard[unresolved[i]] = shard_holding(delta.spent[unresolved[i]]);
        }
      });
  std::uint64_t miss_charges = 0;
  for (std::size_t i : unresolved) {
    if (spend_shard[i] == kUnrouted) miss_charges += costs_.input_remove;
  }

  // Pass 3 — distribute to per-shard op lists in block order: each
  // transaction's removes, then its inserts.
  struct ShardWork {
    std::vector<PendingOp> ops;
    std::uint64_t insert_charges = 0;
    std::uint64_t remove_charges = 0;
    OpCounts counts;
  };
  std::vector<ShardWork> work(n_shards);
  const std::uint64_t per_tx_charges = costs_.per_tx_overhead * delta.transactions();
  std::uint64_t op_return_charges = 0;
  std::size_t spend = 0;
  std::size_t output = 0;
  for (const BlockDelta::TxEnd& tx : delta.tx_ends) {
    for (; spend < tx.spends; ++spend) {
      if (spend_shard[spend] == kUnrouted) continue;
      PendingOp op;
      op.kind = PendingOp::Kind::kRemove;
      op.outpoint = delta.spent[spend];
      work[spend_shard[spend]].ops.push_back(op);
    }
    for (; output < tx.outputs; ++output) {
      util::ByteSpan script = delta.script(output);
      if (bitcoin::is_op_return(script)) {
        op_return_charges += costs_.per_tx_overhead / 8;
        continue;
      }
      ++stats.outputs_inserted;
      const BlockDelta::Output& out = delta.outputs[output];
      PendingOp op;
      op.kind = PendingOp::Kind::kInsert;
      op.outpoint = out.outpoint;
      op.value = out.value;
      op.script = script;
      op.height = height;
      work[static_cast<std::size_t>(out.shard_hash % n_shards)].ops.push_back(op);
    }
  }
  std::vector<std::size_t> touched;
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (!work[s].ops.empty()) touched.push_back(s);
  }
  stats.shards_touched = touched.size();

  // Pass 4 — apply, shard-parallel: one task per touched shard, holding
  // that shard's mutex (and no other) for all of the block's ops on it, so
  // a locking reader sees the shard before or after the block, never in
  // between. Charges and counts accumulate per shard, never touching the
  // meter from a worker thread.
  parallel::parallel_for(pool, touched.size(), [&](std::size_t t) {
    Shard& shard = *shards_[touched[t]];
    ShardWork& w = work[touched[t]];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& op : w.ops) {
      std::uint64_t charge = apply_op(shard, op, w.counts);
      if (op.kind == PendingOp::Kind::kInsert) {
        w.insert_charges += charge;
      } else {
        w.remove_charges += charge;
      }
    }
  });

  // Pass 5 — serial epilogue in deterministic order: fixed charges first,
  // then each touched shard's accumulated charges in shard-index order. The
  // sum — and therefore every enclosing meter segment — is identical to the
  // serial path for every shard count and pool configuration.
  meter.charge(per_tx_charges + op_return_charges + miss_charges);
  std::uint64_t max_shard_charges = 0;
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  for (std::size_t s : touched) {
    const ShardWork& w = work[s];
    std::uint64_t shard_charges = w.insert_charges + w.remove_charges;
    meter.charge(shard_charges);
    stats.insert_instructions += w.insert_charges;
    stats.remove_instructions += w.remove_charges;
    max_shard_charges = std::max(max_shard_charges, shard_charges);
    inserted += w.counts.inserted;
    removed += w.counts.removed;
  }
  // Stats mirror the serial ingestion breakdown: OP_RETURN decode counts as
  // insert work, unresolved-miss charges as remove work.
  stats.insert_instructions += op_return_charges;
  stats.remove_instructions += miss_charges;
  stats.instructions = per_tx_charges + stats.insert_instructions + stats.remove_instructions;
  stats.critical_path_instructions =
      per_tx_charges + op_return_charges + miss_charges + max_shard_charges;

  if (metrics_.inserts != nullptr && inserted > 0) metrics_.inserts->inc(inserted);
  if (metrics_.removes != nullptr && removed > 0) metrics_.removes->inc(removed);

  epoch_.fetch_add(1, std::memory_order_release);
  update_size_gauges();

  if (tracer_ != nullptr) {
    obs::ScopedSpan span(tracer_, "utxo.apply_block", "canister");
    span.attr("height", static_cast<std::int64_t>(height));
    span.attr("shards_touched", static_cast<std::uint64_t>(stats.shards_touched));
    span.attr("ops", static_cast<std::uint64_t>(stats.inputs_removed + stats.outputs_inserted));
    span.attr("instructions", stats.instructions);
    span.attr("critical_path_instructions", stats.critical_path_instructions);
    span.end_at(span.start() + static_cast<obs::TraceTime>(
                                   static_cast<double>(stats.critical_path_instructions) /
                                   ic::kInstructionsPerUs));
  }
  return stats;
}

std::vector<StoredUtxo> UtxoIndex::utxos_for_script(const util::Bytes& script_pubkey,
                                                    ic::InstructionMeter& meter,
                                                    std::uint64_t per_read_cost) const {
  if (per_read_cost == 0) per_read_cost = costs_.stable_utxo_read;
  std::vector<StoredUtxo> out;
  Pinned pin = pin_shard(shard_of(script_pubkey));
  out.reserve(pin->store->script_utxo_count(script_pubkey));
  auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height) {
    meter.charge(per_read_cost);
    out.push_back(StoredUtxo{outpoint, value, height});
  };
  pin->store->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
  return out;
}

std::size_t UtxoIndex::utxos_for_script(const util::Bytes& script_pubkey,
                                        ic::InstructionMeter& meter, std::size_t offset,
                                        std::size_t limit, std::vector<StoredUtxo>& out,
                                        std::uint64_t per_read_cost) const {
  return utxos_for_script_paged(script_pubkey, meter, offset, limit, out,
                                [](const bitcoin::OutPoint&) { return true; }, per_read_cost);
}

bitcoin::Amount UtxoIndex::balance_of_script(const util::Bytes& script_pubkey,
                                             ic::InstructionMeter& meter) const {
  bitcoin::Amount total = 0;
  Pinned pin = pin_shard(shard_of(script_pubkey));
  auto walk = [&](const bitcoin::OutPoint&, bitcoin::Amount value, int) {
    meter.charge(costs_.stable_balance_read);
    total += value;
  };
  pin->store->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
  return total;
}

std::optional<StoredUtxo> UtxoIndex::find(const bitcoin::OutPoint& outpoint) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Pinned pin = pin_shard(s);
    if (auto found = pin->store->find(outpoint)) {
      return StoredUtxo{outpoint, found->value, found->height};
    }
  }
  return std::nullopt;
}

std::optional<util::Bytes> UtxoIndex::script_of(const bitcoin::OutPoint& outpoint) const {
  util::Bytes script;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Pinned pin = pin_shard(s);
    if (pin->store->script_of(outpoint, script)) return script;
  }
  return std::nullopt;
}

void UtxoIndex::load_entry(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                           util::ByteSpan script) {
  Shard& s = *shards_[shard_of(script)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.store->insert(outpoint, value, height, script)) {
    s.memory_bytes += entry_footprint(script.size());
  }
}

void UtxoIndex::finish_load() {
  // Bulk loads grow the backends by vector doubling; a restore should end
  // memory-tight, so compact every store before publishing the epoch.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->store->compact();
  }
  epoch_.fetch_add(1, std::memory_order_release);
  update_size_gauges();
}

std::size_t UtxoIndex::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += pin_shard(s)->store->size();
  return total;
}

std::uint64_t UtxoIndex::memory_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += pin_shard(s)->memory_bytes;
  return total;
}

std::uint64_t UtxoIndex::live_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += pin_shard(s)->store->live_bytes();
  return total;
}

std::uint64_t UtxoIndex::resident_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += pin_shard(s)->store->resident_bytes();
  return total;
}

std::size_t UtxoIndex::distinct_scripts() const {
  // A script's entries live in exactly one shard, so per-shard counts sum.
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += pin_shard(s)->store->distinct_scripts();
  }
  return total;
}

void UtxoIndex::encode(util::ByteWriter& w) const {
  // Pin every shard for the walk, gather, sort globally by outpoint. The
  // script spans point into pinned shard storage and stay valid until the
  // pins drop at function exit. Pinning all shards cannot deadlock: pins
  // lock in index order, and no writer ever holds two shard mutexes.
  std::vector<Pinned> pins;
  pins.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) pins.push_back(pin_shard(s));

  struct Row {
    bitcoin::OutPoint outpoint;
    bitcoin::Amount value;
    int height;
    util::ByteSpan script;
  };
  std::size_t total = 0;
  for (const auto& pin : pins) total += pin->store->size();
  std::vector<Row> rows;
  rows.reserve(total);
  for (const auto& pin : pins) {
    auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                    util::ByteSpan script) { rows.push_back(Row{outpoint, value, height, script}); };
    pin->store->visit(persist::ShardStore::EntryVisitor(walk));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.outpoint < b.outpoint; });

  w.u64le(rows.size());
  for (const Row& row : rows) {
    row.outpoint.serialize(w);
    w.i64le(row.value);
    w.i32le(row.height);
    w.var_bytes(row.script);
  }
}

void UtxoIndex::decode(util::ByteReader& r) {
  std::uint64_t n = r.u64le();
  bitcoin::OutPoint previous;
  for (std::uint64_t i = 0; i < n; ++i) {
    bitcoin::OutPoint outpoint = bitcoin::OutPoint::deserialize(r);
    if (i > 0 && !(previous < outpoint)) {
      throw util::DecodeError("utxo outpoints not strictly ascending");
    }
    bitcoin::Amount value = r.i64le();
    int height = r.i32le();
    util::ByteSpan script = r.bytes(r.checked_len(r.varint()));
    load_entry(outpoint, value, height, script);
    previous = outpoint;
  }
  finish_load();
}

util::Hash256 UtxoIndex::digest() const {
  util::ByteWriter w;
  encode(w);
  return crypto::sha256d(w.data());
}

}  // namespace icbtc::canister
