// The Bitcoin canister's stable UTXO store: the full UTXO set up to the
// anchor height, indexed both by outpoint (for spend removal) and by
// scriptPubKey (for get_utxos/get_balance), with instruction metering that
// models the canister's measured per-operation costs (Fig. 6).
//
// The store is partitioned into N shards keyed by a serialization-stable
// hash of the scriptPubKey bytes, so every mutation of a UTXO — its insert
// and its eventual spend — lands on exactly one shard. apply partitions a
// block's delta (canister/block_delta.h) into per-shard inserts/removes
// (outpoint-keyed removes route through the block's own outputs, or else by
// probing the shards) and applies the shards in parallel on src/parallel's
// pool; metering stays bit-exact with the serial path because charges
// accumulate per shard and are summed into the meter in deterministic shard
// order. Each shard is one store guarded by one mutex:
// every write holds it, and with snapshot reads enabled every read walk holds
// it too, so a concurrent reader sees a shard as of a block boundary — before
// or after that shard's part of a block, never in the middle of it.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/transaction.h"
#include "canister/block_delta.h"
#include "ic/metering.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "persist/shard_store.h"

namespace icbtc::canister {

/// Instruction costs, calibrated against the paper's measurements: block
/// ingestion averages ~21.6e9 instructions with roughly half spent on output
/// insertions and half on input removals (Fig. 6), i.e. a few million
/// instructions per UTXO mutation of the large stable store. Reads of stable
/// UTXOs are cheaper but still dominate reads of unstable blocks (the
/// bifurcation in Fig. 7 right).
struct InstructionCosts {
  std::uint64_t output_insert = 4'200'000;
  std::uint64_t input_remove = 4'600'000;
  std::uint64_t stable_utxo_read = 310'000;
  /// Balance reads only accumulate values (no outpoint materialization or
  /// response encoding), hence far cheaper per UTXO — the ~23x cost gap
  /// between get_balance and get_utxos in §IV-B.
  std::uint64_t stable_balance_read = 55'000;
  std::uint64_t unstable_utxo_read = 45'000;
  std::uint64_t unstable_block_scan = 220'000;  // per unstable block visited
  std::uint64_t request_overhead = 5'500'000;   // decode/encode, certification
  std::uint64_t per_tx_overhead = 90'000;       // per transaction in a block
};

struct StoredUtxo {
  bitcoin::OutPoint outpoint;
  bitcoin::Amount value = 0;
  int height = 0;

  bool operator==(const StoredUtxo&) const = default;
};

/// Per-block apply statistics (drives IngestStats and the Fig. 6 benches).
struct BlockApplyStats {
  std::size_t transactions = 0;
  std::size_t inputs_removed = 0;    // remove ops issued (all non-coinbase inputs)
  std::size_t outputs_inserted = 0;  // non-OP_RETURN outputs
  std::uint64_t instructions = 0;    // total charged to the meter by this block
  std::uint64_t insert_instructions = 0;
  std::uint64_t remove_instructions = 0;
  /// Modelled shard-parallel latency of the block in instructions: the serial
  /// prologue (per-tx overhead, unrouted removes, OP_RETURN decode) plus the
  /// *maximum* per-shard mutation charge — what a replica executing shards
  /// concurrently would wait for, vs. `instructions` which is the serial sum.
  std::uint64_t critical_path_instructions = 0;
  std::size_t shards_touched = 0;
};

class UtxoIndex {
 public:
  struct ShardConfig {
    /// Number of shards (>= 1). 1 reproduces the unsharded layout.
    std::size_t shards = 1;
    /// Reads hold the shard mutex for their whole walk, so they are safe
    /// against a concurrent apply_block and see each shard as of a block
    /// boundary. A reader may wait for one shard's part of a block (and that
    /// part for the reader). Off: reads take no lock and the caller must not
    /// overlap them with mutation.
    bool snapshot_reads = false;
    /// Per-shard backing store. The flat arena is the production layout; the
    /// node-map backend is kept as the differential oracle and bench
    /// baseline. Responses, metering, and digests are backend-invariant.
    persist::UtxoBackend backend = persist::UtxoBackend::kArena;
  };

  UtxoIndex() : UtxoIndex(InstructionCosts{}) {}
  explicit UtxoIndex(InstructionCosts costs);  // single shard, no snapshots
  UtxoIndex(InstructionCosts costs, ShardConfig shard_config);

  UtxoIndex(UtxoIndex&& other) noexcept;
  UtxoIndex& operator=(UtxoIndex&& other) noexcept;

  const InstructionCosts& costs() const { return costs_; }
  std::size_t shard_count() const { return shards_.size(); }
  bool snapshot_reads() const { return shard_config_.snapshot_reads; }
  persist::UtxoBackend backend() const { return shard_config_.backend; }
  /// Published epoch: increments once per apply_block (and once per point
  /// mutation), after the new state becomes visible to readers.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Shard owning `script_pubkey` under the current configuration.
  std::size_t shard_of(util::ByteSpan script_pubkey) const {
    return static_cast<std::size_t>(stable_script_shard_hash(script_pubkey) % shards_.size());
  }

  /// Inserts an output. OP_RETURN outputs are unspendable and skipped (but
  /// still charged a nominal decode cost). Point mutations hold the owning
  /// shard's mutex; like apply_block they need a single writer.
  void insert(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output, int height,
              ic::InstructionMeter& meter);

  /// Removes a spent output; missing outpoints are tolerated (the canister
  /// does not validate transactions, §III-C) but still charged. Same
  /// single-writer contract as insert().
  void remove(const bitcoin::OutPoint& outpoint, ic::InstructionMeter& meter);

  /// Applies every transaction of a block's delta (inputs removed, outputs
  /// added) at the delta's height. With `pool` non-null the per-shard
  /// mutations run shard-parallel; the meter total, metrics, digest, and
  /// final state are bit-identical for every shard count and pool
  /// configuration. Each shard's ops are applied under that shard's mutex,
  /// one shard per task; no task ever holds two. Nothing refers to the delta
  /// after the call returns.
  BlockApplyStats apply(const BlockDelta& delta, ic::InstructionMeter& meter,
                        parallel::ThreadPool* pool = nullptr);

  /// apply(build_block_delta(block, height, pool), meter, pool).
  BlockApplyStats apply_block(const bitcoin::Block& block, int height,
                              ic::InstructionMeter& meter,
                              parallel::ThreadPool* pool = nullptr);

  /// All UTXOs paying `script_pubkey`, sorted by height descending then by
  /// outpoint (the get_utxos response order). Charges `per_read_cost` per
  /// returned entry (0 = the default stable_utxo_read).
  std::vector<StoredUtxo> utxos_for_script(const util::Bytes& script_pubkey,
                                           ic::InstructionMeter& meter,
                                           std::uint64_t per_read_cost = 0) const;

  /// Pagination-aware variant: walks the script's UTXO list (canonical order)
  /// exactly once, appends the entries with rank [offset, offset + limit)
  /// among those passing `keep(outpoint)` to `out`, and charges
  /// `per_read_cost` only for appended entries — a page meters only what it
  /// returns. Returns the total number of entries passing `keep`. A script's
  /// UTXOs live in exactly one shard, so a page reads one pinned shard and
  /// the response order is shard-count-invariant. With snapshot reads on,
  /// `keep` runs under the shard's mutex and must not call into this index.
  template <typename Keep>
  std::size_t utxos_for_script_paged(const util::Bytes& script_pubkey,
                                     ic::InstructionMeter& meter, std::size_t offset,
                                     std::size_t limit, std::vector<StoredUtxo>& out, Keep&& keep,
                                     std::uint64_t per_read_cost = 0) const {
    if (per_read_cost == 0) per_read_cost = costs_.stable_utxo_read;
    Pinned pin = pin_shard(shard_of(script_pubkey));
    std::size_t kept = 0;
    auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height) {
      if (!keep(outpoint)) return;
      if (kept >= offset && kept - offset < limit) {
        meter.charge(per_read_cost);
        out.push_back(StoredUtxo{outpoint, value, height});
      }
      ++kept;
    };
    pin->store->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
    return kept;
  }

  /// Keep-all offset/limit overload.
  std::size_t utxos_for_script(const util::Bytes& script_pubkey, ic::InstructionMeter& meter,
                               std::size_t offset, std::size_t limit,
                               std::vector<StoredUtxo>& out,
                               std::uint64_t per_read_cost = 0) const;

  /// Sum of values paying `script_pubkey`.
  bitcoin::Amount balance_of_script(const util::Bytes& script_pubkey,
                                    ic::InstructionMeter& meter) const;

  /// Looks up a single UTXO by outpoint (used to resolve unstable spends of
  /// stable outputs). Probes the shards; an outpoint lives in the shard of
  /// its script, so at most one shard answers.
  std::optional<StoredUtxo> find(const bitcoin::OutPoint& outpoint) const;
  /// The script paying a stored outpoint (copied out of the backing store),
  /// or nullopt.
  std::optional<util::Bytes> script_of(const bitcoin::OutPoint& outpoint) const;

  /// Canonical encoding of the whole set: u64le count, then every entry in
  /// ascending outpoint order as (outpoint, value i64le, height i32le,
  /// script var_bytes). A pure function of the set — independent of
  /// insertion order, table iteration order, shard count, and backend. The
  /// checkpoint's UTXO section is these bytes, and digest() hashes them.
  void encode(util::ByteWriter& w) const;
  /// Loads an encode() stream into this freshly constructed index, then
  /// finish_load()s it. Throws util::DecodeError on truncation or when
  /// outpoints are not strictly ascending (a repeated or out-of-order row),
  /// so only canonical bytes restore. Leaves any bytes after the last entry
  /// unread.
  void decode(util::ByteReader& r);

  /// Bulk-restore path: inserts one entry directly into the owning shard,
  /// with no metering, metrics, or epoch bump per entry. The index must be
  /// freshly constructed; call finish_load() once after the last entry.
  void load_entry(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                  util::ByteSpan script);
  /// Seals a load_entry() sequence: bumps the epoch once and refreshes gauges.
  void finish_load();

  std::size_t size() const;
  /// Modelled stable-memory footprint in bytes (drives Fig. 5): outpoint +
  /// value + height + script, plus both index overheads. Shard-count- and
  /// snapshot-invariant.
  std::uint64_t memory_bytes() const;
  /// Exact host bytes attributable to live entries (backend accounting, not
  /// the Fig. 5 model).
  std::uint64_t live_bytes() const;
  /// Exact host capacity held by every shard store. Snapshot-invariant: each
  /// shard keeps one store either way.
  std::uint64_t resident_bytes() const;
  std::size_t distinct_scripts() const;

  /// Attaches a metrics registry (nullptr detaches): insert/remove rates,
  /// size/memory gauges under `utxo.*`, and shard-layout gauges under
  /// `utxo.shard.*` (count, published epoch, min/max shard size). The
  /// shard-layout gauges describe the configuration, so snapshots taken at
  /// different shard counts differ in exactly that namespace.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): apply_block emits a
  /// "utxo.apply_block" span whose end time is the modelled shard-parallel
  /// latency (critical-path instructions at the canister's 2000/µs rate).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Deterministic digest of the entire UTXO set: sha256d of encode().
  /// Independent of insertion order, hash-map iteration order, AND shard
  /// count — serial and shard-parallel ingestion at any configuration must
  /// produce identical digests.
  util::Hash256 digest() const;

 private:
  /// One shard: its backing store, guarded by `mu`. Writers (apply_block's
  /// task for this shard, point mutations, load_entry) always hold `mu`;
  /// readers hold it for a whole walk when snapshot reads are on.
  struct Shard {
    explicit Shard(persist::UtxoBackend backend) : store(persist::make_shard_store(backend)) {}
    mutable std::mutex mu;
    std::unique_ptr<persist::ShardStore> store;
    std::uint64_t memory_bytes = 0;  // modelled Fig. 5 footprint of this shard
  };

  /// A block mutation routed to one shard, kept in block-sequence order. An
  /// insert borrows its script from the caller (the delta's arena or a point
  /// insert's output): no op outlives the call that made it.
  struct PendingOp {
    enum class Kind : std::uint8_t { kInsert, kRemove };
    Kind kind = Kind::kInsert;
    bitcoin::OutPoint outpoint;
    bitcoin::Amount value = 0;  // insert only
    util::ByteSpan script;      // insert only
    int height = 0;             // insert only
  };

  /// RAII read access to one shard for the length of a walk: holds the
  /// shard mutex when snapshot reads are on, nothing otherwise.
  class Pinned {
   public:
    Pinned(const Shard& shard, bool lock) : shard_(&shard), lock_(shard.mu, std::defer_lock) {
      if (lock) lock_.lock();
    }
    const Shard* operator->() const { return shard_; }

   private:
    const Shard* shard_;
    std::unique_lock<std::mutex> lock_;
  };

  Pinned pin_shard(std::size_t shard) const {
    return Pinned(*shards_[shard], shard_config_.snapshot_reads);
  }
  static std::vector<std::unique_ptr<Shard>> make_shards(std::size_t n,
                                                         persist::UtxoBackend backend);

  /// Applies one op to `shard` (caller holds its mutex), returning the
  /// instructions the op charges. `counts` receives insert/remove counts.
  struct OpCounts {
    std::uint64_t inserted = 0;
    std::uint64_t removed = 0;
  };
  std::uint64_t apply_op(Shard& shard, const PendingOp& op, OpCounts& counts) const;

  /// The first shard, in index order, holding `outpoint`, or kUnrouted.
  /// Writer-side probe: reads without locking, which is safe because only
  /// the (single) writer mutates.
  std::size_t shard_holding(const bitcoin::OutPoint& outpoint) const;
  /// Applies a point mutation under its shard's mutex, bumping the epoch.
  void point_mutation(const PendingOp& op, ic::InstructionMeter& meter);

  void update_size_gauges();

  static std::uint64_t entry_footprint(std::size_t script_len);

  static constexpr std::size_t kUnrouted = static_cast<std::size_t>(-1);

  InstructionCosts costs_;
  ShardConfig shard_config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> epoch_{0};

  struct Metrics {
    obs::Counter* inserts = nullptr;
    obs::Counter* removes = nullptr;
    obs::Gauge* size = nullptr;
    obs::Gauge* memory = nullptr;
    obs::Gauge* shard_count = nullptr;
    obs::Gauge* shard_epoch = nullptr;
    obs::Gauge* shard_max_utxos = nullptr;
    obs::Gauge* shard_min_utxos = nullptr;
    obs::Gauge* shard_live_bytes = nullptr;
    obs::Gauge* shard_resident_bytes = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::canister
