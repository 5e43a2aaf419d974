// A simulated Bitcoin full node: header tree, block store, best-chain UTXO
// set with reorg support, mempool with standard policy, and P2P relay.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "bitcoin/utxo.h"
#include "btcnet/network.h"
#include "chain/header_tree.h"
#include "reconcile/compact_block.h"
#include "reconcile/recon_set.h"

namespace icbtc::btcnet {

/// How a node pushes newly accepted blocks to its peers.
enum class BlockRelayMode {
  /// Announce via inv; peers pull the full block with getdata.
  kFull,
  /// Push a compact block (header + coinbase + short ids + IBLT sketch);
  /// peers reconstruct from their mempools, falling back to getblocktxn and
  /// finally a full getdata (src/reconcile).
  kCompact,
};

/// How a node announces newly accepted transactions.
enum class TxRelayMode {
  /// inv to every peer (classic flooding).
  kFlood,
  /// Erlay-style: inv to a small fanout subset, everyone else learns via
  /// periodic per-link sketch reconciliation (src/reconcile/recon_set).
  kReconcile,
};

struct NodeOptions {
  /// Block relay mode. Nodes always *accept* compact blocks; this selects
  /// what they send.
  BlockRelayMode relay_mode = BlockRelayMode::kFull;

  /// Transaction relay mode. Nodes always *answer* reconciliation messages;
  /// this selects how their own announcements go out.
  TxRelayMode tx_relay_mode = TxRelayMode::kFlood;
  /// Peers a new transaction is inv-flooded to in kReconcile mode; the rest
  /// learn it through sketch exchange.
  std::size_t flood_fanout = 2;
  /// Reconciliation cadence. Ticks land on staggered per-node phases of this
  /// interval (simulated time, so traces stay byte-identical).
  util::SimTime recon_interval = 2 * util::kSecond;

  // Fee-market policy. The zero defaults keep the legacy permissive mempool
  // (no floor, no cap, no expiry); RBF only changes behaviour when a
  // replacement actually pays more.
  /// Minimum feerate (millisatoshi per vbyte) to enter the mempool; also the
  /// incremental rate an RBF replacement must pay over the evicted total.
  std::uint64_t min_relay_fee_rate = 0;
  /// Replace-by-fee: a conflicting transaction may displace mempool entries
  /// when its feerate strictly beats every direct conflict and its absolute
  /// fee covers the evicted fees plus the incremental rate.
  bool replace_by_fee = true;
  /// Mempool size cap in transactions (0 = unbounded). When full, arrivals
  /// not beating the current fee floor are rejected; otherwise the
  /// lowest-feerate entry (and its descendants) is evicted.
  std::size_t mempool_max_txs = 0;
  /// Transactions expire from the mempool after this long (0 = never).
  util::SimTime mempool_tx_ttl = 0;
};

class BitcoinNode : public Endpoint {
 public:
  BitcoinNode(Network& network, const bitcoin::ChainParams& params, NodeOptions options = {},
              bool ipv6 = true);
  ~BitcoinNode() override;

  BitcoinNode(const BitcoinNode&) = delete;
  BitcoinNode& operator=(const BitcoinNode&) = delete;

  NodeId id() const { return id_; }
  Network& network() { return *network_; }
  const bitcoin::ChainParams& params() const { return *params_; }

  const chain::HeaderTree& tree() const { return tree_; }
  const bitcoin::UtxoSet& utxos() const { return utxos_; }
  int best_height() const { return tree_.best_height(); }
  util::Hash256 best_tip() const { return tree_.best_tip(); }

  bool has_block(const util::Hash256& hash) const { return blocks_.contains(hash); }
  const bitcoin::Block* get_block(const util::Hash256& hash) const;

  std::size_t mempool_size() const { return mempool_.size(); }
  bool in_mempool(const util::Hash256& txid) const { return mempool_.contains(txid); }
  /// Mempool transactions in admission order (miners consume this).
  std::vector<bitcoin::Transaction> mempool_snapshot() const;

  /// Block template: transactions ordered by feerate (descending, admission
  /// order as tie-break), parents always before children. Capped at
  /// `max_txs` entries.
  std::vector<bitcoin::Transaction> mempool_template(std::size_t max_txs = SIZE_MAX) const;

  struct MempoolTxInfo {
    bitcoin::Amount fee = 0;
    std::size_t vsize = 0;
    std::uint64_t feerate_milli = 0;  // millisatoshi per vbyte
  };
  std::optional<MempoolTxInfo> mempool_info(const util::Hash256& txid) const;
  /// Lowest feerate currently in the mempool (msat/vbyte; 0 when empty).
  std::uint64_t mempool_fee_floor() const;
  /// Transactions queued for reconciliation with `peer` (0 when flooding or
  /// no such link).
  std::size_t recon_pending(NodeId peer) const;

  /// Locally submits a block (e.g. from an attached miner). Returns true if
  /// the block was accepted and stored.
  bool submit_block(const bitcoin::Block& block);

  /// Locally submits a transaction (e.g. a wallet RPC). Returns true if it
  /// entered the mempool.
  bool submit_tx(const bitcoin::Transaction& tx);

  // Endpoint interface.
  void deliver(NodeId from, const Message& msg) override;
  void on_connected(NodeId peer) override;
  void on_disconnected(NodeId peer) override;

  std::size_t reorg_count() const { return reorg_count_; }

  /// Attaches a metrics registry (nullptr detaches): mempool flow (size,
  /// admissions, rejects, block/conflict evictions), orphan blocks, and the
  /// compact-relay pipeline (sketch vs full bytes, decode outcomes, fallback
  /// counters, sketch-size histogram). Shared registries aggregate across
  /// nodes: the counters are network-wide totals.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): spans around compact-block decode
  /// with the outcome (mempool reconstruction, getblocktxn round-trip, full
  /// fallback) and flight-recorder events for orphan blocks and reorgs.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// The node's current estimate of mempool divergence (slices), used to
  /// size outgoing sketches.
  const reconcile::DivergenceEstimator& divergence_estimator() const { return estimator_; }

 private:
  void handle_inv(NodeId from, const MsgInv& msg);
  void handle_get_headers(NodeId from, const MsgGetHeaders& msg);
  void handle_headers(NodeId from, const MsgHeaders& msg);
  void handle_get_data(NodeId from, const MsgGetData& msg);
  void handle_block(NodeId from, const MsgBlock& msg);
  void handle_tx(NodeId from, const MsgTx& msg);
  void handle_not_found(NodeId from, const MsgNotFound& msg);
  void handle_get_addr(NodeId from);
  void handle_addr(NodeId from, const MsgAddr& msg);
  void handle_cmpct_block(NodeId from, const MsgCmpctBlock& msg);
  void handle_get_block_txn(NodeId from, const MsgGetBlockTxn& msg);
  void handle_block_txn(NodeId from, const MsgBlockTxn& msg);
  void handle_recon_sketch(NodeId from, const MsgReconSketch& msg);
  void handle_recon_diff(NodeId from, const MsgReconDiff& msg);
  void handle_recon_finalize(NodeId from, const MsgReconFinalize& msg);
  /// Builds MsgCmpctBlock for `block`, sketch sized by the estimator.
  MsgCmpctBlock make_compact(const bitcoin::Block& block);
  /// Finishes a compact reconstruction: accept on success, full-getdata
  /// fallback on Merkle/fill failure.
  void finish_compact(const util::Hash256& hash);

  bool accept_block(const bitcoin::Block& block, NodeId from);
  bool accept_tx(const bitcoin::Transaction& tx, NodeId from);
  /// Moves the UTXO view to the (possibly new) best chain.
  void update_active_chain();
  void relay_block_inv(const util::Hash256& hash, NodeId except);
  /// Mode dispatch: flood invs everywhere, or fanout-inv + queue into the
  /// per-peer reconciliation sets.
  void announce_tx(const util::Hash256& txid, NodeId except);
  std::int64_t now_s() const;
  /// Tries to connect orphan blocks whose parent just arrived.
  void try_connect_orphans();

  // --- Continuous reconciliation (TxRelayMode::kReconcile) ---
  struct ReconLink;
  ReconLink& recon_link(NodeId peer);
  /// Arms the cadence timer iff some link has unreconciled work.
  void schedule_recon_tick();
  /// Per-link phase slot key: spreads one node's rounds across the interval.
  std::uint32_t recon_phase_key(NodeId peer) const;
  void run_recon_ticks();
  void start_recon_round(NodeId peer, ReconLink& link);
  /// Timeout path: restores the round snapshot, counts the failure, parks
  /// the link after three in a row.
  void fail_recon_round(NodeId peer, ReconLink& link);
  void finish_recon_round(ReconLink& link);
  void send_tx_inv_chunked(NodeId peer, const std::vector<util::Hash256>& txids);

  // --- Fee-market mempool maintenance ---
  /// Removes one entry and all its bookkeeping (spends, fee index, expiry
  /// timer, queued announcements). No-op when absent.
  void remove_mempool_tx(const util::Hash256& txid);
  /// Removes `txid` and every in-mempool descendant, counting each into
  /// `reason` (when attached). Takes the id by value: callers pass ids held
  /// in the fee index or the spends map, which the removal erases.
  void evict_subtree(util::Hash256 txid, obs::Counter* reason);
  void enforce_mempool_cap();
  void update_mempool_gauges();

  Network* network_;
  const bitcoin::ChainParams* params_;
  NodeOptions options_;
  NodeId id_ = kInvalidNode;

  chain::HeaderTree tree_;
  std::unordered_map<util::Hash256, bitcoin::Block> blocks_;
  // Blocks whose parent header is unknown yet, keyed by parent hash. The
  // sender is remembered so a later connect does not echo the inv back.
  struct OrphanBlock {
    bitcoin::Block block;
    NodeId from = kInvalidNode;
  };
  std::unordered_map<util::Hash256, std::vector<OrphanBlock>> orphans_;

  // UTXO view of the active chain plus undo data to unwind reorgs.
  bitcoin::UtxoSet utxos_;
  std::vector<std::pair<util::Hash256, bitcoin::BlockUndo>> undo_stack_;
  util::Hash256 active_tip_;

  struct MempoolEntry {
    bitcoin::Transaction tx;
    std::uint64_t sequence = 0;  // admission order
    bitcoin::Amount fee = 0;
    std::size_t vsize = 0;
    std::uint64_t feerate_milli = 0;  // millisatoshi per vbyte
    util::EventHandle expiry{};       // armed when mempool_tx_ttl > 0
  };
  std::unordered_map<util::Hash256, MempoolEntry> mempool_;
  std::unordered_map<bitcoin::OutPoint, util::Hash256> mempool_spends_;
  /// (feerate_milli, sequence) -> txid, ascending: begin() is the eviction
  /// candidate, and ties break deterministically by admission order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, util::Hash256> fee_index_;
  std::uint64_t mempool_sequence_ = 0;

  /// Per-peer reconciliation state (kReconcile mode; created lazily, dropped
  /// on disconnect). std::map keeps round scheduling deterministic.
  struct ReconLink {
    reconcile::ReconSet set;
    reconcile::DivergenceEstimator estimator{4.0};
    bool round_active = false;
    std::uint32_t round = 0;
    /// Outstanding sketch parts this round (1, or 2 while bisecting).
    std::uint8_t awaiting_parts = 0;
    std::size_t round_cells = 0;
    /// The diff estimate the active round's sketch was sized for; a failed
    /// decode escalates geometrically from it rather than from the (far
    /// larger) union bound.
    std::size_t round_sized = 0;
    std::size_t round_diff = 0;
    std::uint32_t failed_rounds = 0;
    /// Three consecutive timeouts (e.g. a partition) stop the cadence for
    /// this link until it reconnects or new work arrives.
    bool parked = false;
    /// False until the first observed diff: a cold link sizes its sketch by
    /// its own pending-set size instead of the (meaningless) prior mean.
    bool warmed = false;
    /// The set contents the active round is reconciling; arrivals during the
    /// round accumulate in `set` for the next one.
    std::map<std::uint64_t, util::Hash256> snapshot;
    util::EventHandle timeout{};
  };
  std::map<NodeId, ReconLink> recon_links_;
  std::uint32_t next_round_ = 1;
  util::EventHandle recon_tick_{};

  // Inventory bookkeeping: what we already requested, to avoid floods.
  std::unordered_set<util::Hash256> requested_blocks_;
  std::unordered_set<util::Hash256> requested_txs_;

  // Peers that announced or delivered an item we do not have yet. Relay
  // skips them (they evidently have it); entries are dropped once the item
  // is relayed or rejected, so the map only tracks in-flight inventory.
  std::unordered_map<util::Hash256, std::unordered_set<NodeId>> announced_by_;

  // Compact blocks being reconstructed (waiting for blocktxn).
  struct PendingCompact {
    reconcile::CompactBlock compact;
    reconcile::CompactBlockCodec::Decode decode;
    NodeId from = kInvalidNode;
  };
  std::unordered_map<util::Hash256, PendingCompact> pending_compact_;

  reconcile::DivergenceEstimator estimator_;

  std::size_t reorg_count_ = 0;

  // Optional observability hooks; all nullptr when no registry is attached.
  struct Metrics {
    obs::Gauge* mempool_size = nullptr;
    obs::Counter* mempool_admitted = nullptr;
    obs::Counter* mempool_rejected = nullptr;
    obs::Counter* mempool_evicted_block = nullptr;
    obs::Counter* mempool_evicted_conflict = nullptr;
    obs::Counter* orphan_blocks = nullptr;
    obs::Counter* cmpct_sent = nullptr;
    obs::Counter* cmpct_received = nullptr;
    obs::Counter* cmpct_decode_success = nullptr;
    obs::Counter* cmpct_peel_failure = nullptr;
    obs::Counter* cmpct_fallback_getblocktxn = nullptr;
    obs::Counter* cmpct_fallback_full = nullptr;
    obs::Counter* cmpct_bytes_sketch = nullptr;
    obs::Counter* cmpct_bytes_full_equiv = nullptr;
    obs::Histogram* cmpct_sketch_cells = nullptr;
    // Continuous tx relay (relay.*).
    obs::Counter* relay_sketches_sent = nullptr;
    obs::Counter* relay_sketch_bytes = nullptr;
    obs::Counter* relay_diffs_decoded = nullptr;
    obs::Counter* relay_diffs_failed = nullptr;
    obs::Counter* relay_bisections = nullptr;
    obs::Counter* relay_full_inv = nullptr;
    obs::Counter* relay_fanout_invs = nullptr;
    obs::Counter* relay_rounds = nullptr;
    obs::Counter* relay_round_timeouts = nullptr;
    obs::Histogram* relay_sketch_cells = nullptr;
    // Fee market (mempool.*).
    obs::Counter* mempool_rbf_replaced = nullptr;
    obs::Counter* mempool_evicted_expired = nullptr;
    obs::Counter* mempool_evicted_sizecap = nullptr;
    obs::Gauge* mempool_fee_floor = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::btcnet
