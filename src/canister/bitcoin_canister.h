// The Bitcoin canister (§III-C): the smart contract holding the Bitcoin
// blockchain state on the IC.
//
// It stores the full UTXO set up to a difficulty-δ-stable *anchor* block
// (δ=144 on mainnet), keeps all headers above the anchor in a tree together
// with the corresponding unstable blocks, ingests adapter responses per
// Algorithm 2, and serves get_utxos / get_balance / send_transaction to
// other canisters. It refuses to answer while out of sync (τ gating).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "adapter/adapter.h"
#include "bitcoin/address.h"
#include "canister/unstable_index.h"
#include "canister/utxo_index.h"
#include "chain/header_tree.h"
#include "ic/metering.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace icbtc::canister {

struct CanisterConfig {
  /// δ: difficulty-based stability threshold for anchor advancement
  /// (144 on mainnet — roughly one day of blocks).
  int stability_delta = 144;
  /// τ: the canister replies with errors when the max header height exceeds
  /// the max available-block height by more than this (2 in production).
  int sync_slack = 2;
  /// Maximum UTXOs per get_utxos page.
  std::size_t utxos_per_page = 1000;
  /// Blocks scanned by get_current_fee_percentiles.
  int fee_window_blocks = 6;
  /// Stable UTXO set shards (>= 1); block ingestion applies them in parallel
  /// when the shared thread pool is installed. Responses, metering, and
  /// digests are bit-identical for every shard count (1 reproduces the
  /// unsharded layout exactly).
  std::size_t utxo_shards = 8;
  /// Epoch snapshot reads: queries serve the last published shard snapshots
  /// while ingestion builds the next epoch (see UtxoIndex::ShardConfig).
  bool utxo_snapshot_reads = true;
  /// Stable shard backing store (see persist::UtxoBackend). Responses,
  /// metering, digests, and checkpoints are backend-invariant; only host
  /// memory and wall-clock differ.
  persist::UtxoBackend utxo_backend = persist::UtxoBackend::kArena;
  InstructionCosts costs;

  static CanisterConfig for_params(const bitcoin::ChainParams& params) {
    CanisterConfig c;
    c.stability_delta = params.stability_delta;
    c.sync_slack = params.sync_slack;
    return c;
  }
};

enum class Status {
  kOk,
  kNotSynced,                 // header tree ahead of available blocks by > τ
  kBadAddress,                // undecodable address for this network
  kMinConfirmationsTooLarge,  // c > δ (response could be incorrect, §III-C)
  kMalformedTransaction,      // send_transaction bytes fail syntactic checks
  kBadPage,                   // invalid pagination token
  kBadRange,                  // invalid height range for get_block_headers
};

const char* to_string(Status s);

template <typename T>
struct Outcome {
  Status status = Status::kOk;
  T value{};

  bool ok() const { return status == Status::kOk; }
};

struct Utxo {
  bitcoin::OutPoint outpoint;
  bitcoin::Amount value = 0;
  int height = 0;

  bool operator==(const Utxo&) const = default;
};

struct GetUtxosRequest {
  std::string address;
  /// Number of confirmations required; 0 means "use the full current chain".
  int min_confirmations = 0;
  /// Page token from a previous response.
  std::optional<util::Bytes> page;
};

struct GetUtxosResponse {
  std::vector<Utxo> utxos;
  util::Hash256 tip_hash;   // tip of the considered chain
  int tip_height = 0;
  std::optional<util::Bytes> next_page;  // set when more UTXOs remain
};

/// Per-stable-block ingestion record (drives the Fig. 6 benches): the
/// block's apply statistics and its height.
struct IngestStats : BlockApplyStats {
  int height = 0;
};

class BitcoinCanister {
 public:
  BitcoinCanister(const bitcoin::ChainParams& params, CanisterConfig config);

  const bitcoin::ChainParams& params() const { return *params_; }
  const CanisterConfig& config() const { return config_; }

  // -------- Adapter interaction (via the IC's consensus layer) ----------

  /// Builds the periodic request (β*, A, T). Drains the outbound tx queue.
  adapter::AdapterRequest make_request();

  /// Algorithm 2: ingest an adapter response. `now_s` drives header
  /// timestamp validation. Returns how many blocks/headers were accepted.
  struct ProcessResult {
    std::size_t blocks_stored = 0;
    std::size_t headers_appended = 0;
    std::size_t anchors_advanced = 0;
  };
  ProcessResult process_response(const adapter::AdapterResponse& response, std::int64_t now_s);

  /// Sync gate (Algorithm 2 line 22): max height in T minus max height of
  /// available blocks is at most τ.
  bool is_synced() const;

  // ----------------------------- Public API -----------------------------

  Outcome<GetUtxosResponse> get_utxos(const GetUtxosRequest& request);
  Outcome<bitcoin::Amount> get_balance(const std::string& address, int min_confirmations = 0);
  Status send_transaction(const util::Bytes& raw_transaction);

  /// Fee percentiles (in millisatoshi per vbyte) over the transactions of
  /// the last `fee_window_blocks` blocks of the current chain, as the
  /// production canister's get_current_fee_percentiles returns: 101 entries
  /// for the 0th..100th percentile. Empty when no fee data is available
  /// (e.g. only coinbase transactions).
  Outcome<std::vector<std::uint64_t>> get_current_fee_percentiles();

  /// Block headers in the given height range of the current chain (both ends
  /// inclusive; `end_height` < 0 means "up to the tip"). Heights below the
  /// anchor are served from the archived stable headers. Mirrors the
  /// production canister's get_block_headers endpoint.
  struct GetBlockHeadersResponse {
    int tip_height = 0;
    std::vector<bitcoin::BlockHeader> headers;
  };
  Outcome<GetBlockHeadersResponse> get_block_headers(int start_height, int end_height = -1);

  // ------------------------- Upgrade persistence -------------------------

  /// Serializes the full canister state (anchor, header tree, unstable
  /// blocks, archived headers, stable UTXO set, pending transactions, meter
  /// total) — what a production canister writes to stable memory across
  /// upgrades — into the sectioned, CRC-guarded persist envelope (see
  /// persist/checkpoint.h and DESIGN.md §12). Every section is canonical —
  /// the UTXO set globally sorted by outpoint, header/block sets sorted by
  /// hash — so the byte stream is a pure function of logical state:
  /// invariant under the writer's shard count, backend, snapshot mode, and
  /// ingestion interleaving. A checkpoint written at 16 shards restores at 4.
  util::Bytes write_checkpoint() const;

  /// Rebuilds a canister from a write_checkpoint() stream under a possibly
  /// different CanisterConfig (shard count / backend). The restored
  /// canister's UTXO digest, query responses, and meter total are identical
  /// to the writer's. Throws persist::CheckpointError — never a partially
  /// restored canister — on any corruption, including a header, unstable
  /// block or UTXO section that is not in the writer's canonical order
  /// (kMalformed).
  static BitcoinCanister from_checkpoint(const bitcoin::ChainParams& params,
                                         CanisterConfig config, util::ByteSpan checkpoint);

  /// File convenience wrappers (`*.ckpt` by convention; gitignored).
  void checkpoint(const std::string& path) const;
  static BitcoinCanister restore(const bitcoin::ChainParams& params, CanisterConfig config,
                                 const std::string& path);

  // ---------------------------- Introspection ---------------------------

  int anchor_height() const { return tree_.root().height; }
  util::Hash256 anchor_hash() const { return tree_.root_hash(); }
  int tip_height() const { return tree_.best_height(); }
  std::size_t utxo_count() const { return stable_utxos_.size(); }
  /// Modelled memory footprint: stable UTXO store + unstable blocks + headers.
  std::uint64_t memory_bytes() const;
  std::size_t unstable_block_count() const { return unstable_index_.size(); }
  std::size_t pending_transactions() const { return pending_txs_.size(); }
  const chain::HeaderTree& header_tree() const { return tree_; }
  const UtxoIndex& stable_utxos() const { return stable_utxos_; }
  /// Deterministic digest of the stable UTXO set (see UtxoIndex::digest);
  /// the bench/CI compare scalar vs. parallel ingestion through this.
  util::Hash256 utxo_digest() const { return stable_utxos_.digest(); }
  ic::InstructionMeter& meter() { return meter_; }
  const std::vector<IngestStats>& ingest_log() const { return ingest_log_; }
  /// Number of stable headers archived below the anchor (kept forever).
  std::size_t archived_headers() const { return stable_headers_.size(); }

  /// Attaches a metrics registry (nullptr detaches): per-endpoint call
  /// counts with instruction-cost and simulated-latency distributions (the
  /// latter, `canister.<endpoint>.latency_us`, are the endpoints' SLO
  /// records; see obs/slo.h), anchor/tip/unstable-block gauges, sync-gate
  /// rejections, and the stable UTXO store's `utxo.*` metrics.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): every endpoint call becomes a
  /// "canister.<endpoint>" span ending at its modelled execution latency
  /// (metered instructions at 2e9/s), block ingestion yields per-block
  /// "canister.ingest_block" child spans, and anchor advancement emits an
  /// "anchor_advanced" flight-recorder event. Exports are identical with and
  /// without the shared thread pool.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    stable_utxos_.set_tracer(tracer);
    unstable_index_.set_tracer(tracer);
  }
  obs::Tracer* tracer() const { return tracer_; }

  /// The unstable window: every stored block above the anchor with its delta
  /// (anchor advance applies the deltas).
  const UnstableIndex& unstable_index() const { return unstable_index_; }

  /// Installs a host wall-clock (µs) feeding the `canister.delta.build_us`
  /// histogram; see UnstableIndex::set_build_clock.
  void set_delta_build_clock(std::function<std::uint64_t()> now_us) {
    unstable_index_.set_build_clock(std::move(now_us));
  }

 private:
  /// Per-endpoint observability hooks; all nullptr without a registry.
  struct EndpointMetrics {
    obs::Counter* calls = nullptr;
    obs::Histogram* instructions = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  /// RAII guard: counts the call and, on scope exit, records the metered
  /// instruction delta and its simulated execution latency — into the
  /// metrics histograms and, when a tracer is attached, a
  /// "canister.<endpoint>" span carrying the same numbers.
  class EndpointCall {
   public:
    EndpointCall(BitcoinCanister& canister, std::string_view name,
                 const EndpointMetrics& metrics);
    EndpointCall(const EndpointCall&) = delete;
    EndpointCall& operator=(const EndpointCall&) = delete;
    ~EndpointCall();

   private:
    const EndpointMetrics* metrics_;
    ic::InstructionMeter::Segment segment_;
    obs::ScopedSpan span_;
  };

  /// is_synced(), but counts a `canister.sync_rejections` when it fails.
  bool sync_gate();
  /// Pushes anchor/tip/unstable/pending gauges after a state change.
  void update_state_gauges();

  /// Advances the anchor while some block at anchor height + 1 is
  /// difficulty-based δ-stable w.r.t. the anchor's work.
  std::size_t advance_anchor();

  /// Resolves an address to its scriptPubKey, or kBadAddress.
  Outcome<util::Bytes> script_for(const std::string& address) const;

  /// Height of the considered tip for `min_confirmations`, along the current
  /// chain.
  std::pair<util::Hash256, int> considered_tip(int min_confirmations) const;

  /// Recomputes the incrementally tracked max available-block height after
  /// anchor advances or fork pruning shrink the unstable set.
  void recompute_max_available_height();

  /// Collects the address view (stable + unstable up to the considered tip).
  /// `stable_read_cost` overrides the per-UTXO read cost (0 = default); the
  /// balance endpoint uses the cheaper accumulate-only cost.
  std::vector<Utxo> collect_utxos(const util::Bytes& script, int considered_height,
                                  std::uint64_t stable_read_cost = 0);

  /// Paged variant used by get_utxos: appends the entries with rank
  /// [offset, offset + limit) of the combined (unstable, then stable)
  /// survivor list to `out`, metering stable reads only for what it appends.
  /// Returns the total survivor count so the caller can validate the offset
  /// and mint the next page token.
  std::size_t collect_utxos_page(const util::Bytes& script, int considered_height,
                                 std::size_t offset, std::size_t limit, std::vector<Utxo>& out);

  const bitcoin::ChainParams* params_;
  CanisterConfig config_;
  ic::InstructionMeter meter_;

  UtxoIndex stable_utxos_;
  chain::HeaderTree tree_;  // rooted at the anchor
  /// The unstable window: each block shared with the adapter response that
  /// delivered it (never copied) beside its delta, both released when the
  /// anchor passes the block or its fork is pruned.
  UnstableIndex unstable_index_;
  /// Max height among available (stored) blocks and the anchor, maintained
  /// incrementally so is_synced() is O(1) instead of a per-call scan.
  int max_available_height_ = 0;
  std::vector<bitcoin::BlockHeader> stable_headers_;  // archive below the anchor
  std::deque<util::Bytes> pending_txs_;
  std::vector<IngestStats> ingest_log_;

  struct Metrics {
    EndpointMetrics get_utxos;
    EndpointMetrics get_balance;
    EndpointMetrics send_transaction;
    EndpointMetrics fee_percentiles;
    EndpointMetrics block_headers;
    EndpointMetrics process_response;
    obs::Counter* sync_rejections = nullptr;
    obs::Counter* blocks_stored = nullptr;
    obs::Counter* headers_appended = nullptr;
    obs::Counter* blocks_ingested = nullptr;
    obs::Histogram* ingest_instructions = nullptr;
    obs::Gauge* anchor_height = nullptr;
    obs::Gauge* tip_height = nullptr;
    obs::Gauge* unstable_blocks = nullptr;
    obs::Gauge* pending = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::canister
