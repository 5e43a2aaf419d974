#include "btcnet/node.h"

#include <algorithm>
#include <cmath>

#include "bitcoin/script.h"
#include "util/log.h"

namespace icbtc::btcnet {

using bitcoin::Block;
using bitcoin::OutPoint;
using bitcoin::Transaction;
using util::Hash256;

namespace {
/// Maximum addresses returned to a getaddr.
constexpr std::size_t kMaxAddrResponse = 1000;
/// Maximum entries announced or requested per inv/getdata.
constexpr std::size_t kMaxInv = 500;
/// A reconciliation round with no response after this long is abandoned
/// (its snapshot is re-queued); three consecutive timeouts park the link
/// until it reconnects or new transactions arrive.
constexpr util::SimTime kReconTimeout = 10 * util::kSecond;
}  // namespace

BitcoinNode::BitcoinNode(Network& network, const bitcoin::ChainParams& params,
                         NodeOptions options, bool ipv6)
    : network_(&network),
      params_(&params),
      options_(options),
      tree_(params, params.genesis_header) {
  Block genesis = bitcoin::genesis_block(params);
  active_tip_ = genesis.hash();
  auto undo = utxos_.apply_block(genesis, 0);
  blocks_.emplace(genesis.hash(), std::move(genesis));
  (void)undo;  // genesis is never rolled back
  id_ = network.attach(this, ipv6, /*gossiped=*/true);
}

BitcoinNode::~BitcoinNode() {
  // Cancel everything that captured `this` before the network forgets us.
  auto& sim = network_->sim();
  sim.cancel(recon_tick_);
  for (auto& [peer, link] : recon_links_) sim.cancel(link.timeout);
  for (auto& [txid, entry] : mempool_) sim.cancel(entry.expiry);
  if (network_->exists(id_)) network_->detach(id_);
}

const Block* BitcoinNode::get_block(const Hash256& hash) const {
  auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : &it->second;
}

std::vector<Transaction> BitcoinNode::mempool_snapshot() const {
  std::vector<const MempoolEntry*> entries;
  entries.reserve(mempool_.size());
  for (const auto& [txid, entry] : mempool_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const MempoolEntry* a, const MempoolEntry* b) { return a->sequence < b->sequence; });
  std::vector<Transaction> out;
  out.reserve(entries.size());
  for (const auto* e : entries) out.push_back(e->tx);
  return out;
}

std::int64_t BitcoinNode::now_s() const {
  return static_cast<std::int64_t>(params_->genesis_header.time) +
         network_->sim().now() / util::kSecond;
}

bool BitcoinNode::submit_block(const Block& block) { return accept_block(block, kInvalidNode); }

bool BitcoinNode::submit_tx(const Transaction& tx) { return accept_tx(tx, kInvalidNode); }

void BitcoinNode::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.mempool_size = &registry->gauge("node.mempool.size");
  metrics_.mempool_admitted = &registry->counter("node.mempool.admitted");
  metrics_.mempool_rejected = &registry->counter("node.mempool.rejected");
  metrics_.mempool_evicted_block = &registry->counter("node.mempool.evicted_block");
  metrics_.mempool_evicted_conflict = &registry->counter("node.mempool.evicted_conflict");
  metrics_.orphan_blocks = &registry->counter("node.orphan_blocks");
  metrics_.cmpct_sent = &registry->counter("cmpct.sent");
  metrics_.cmpct_received = &registry->counter("cmpct.received");
  metrics_.cmpct_decode_success = &registry->counter("cmpct.decode_success");
  metrics_.cmpct_peel_failure = &registry->counter("cmpct.peel_failure");
  metrics_.cmpct_fallback_getblocktxn = &registry->counter("cmpct.fallback.getblocktxn");
  metrics_.cmpct_fallback_full = &registry->counter("cmpct.fallback.full");
  metrics_.cmpct_bytes_sketch = &registry->counter("cmpct.bytes.compact");
  metrics_.cmpct_bytes_full_equiv = &registry->counter("cmpct.bytes.full_equiv");
  metrics_.cmpct_sketch_cells = &registry->histogram("cmpct.sketch_cells");
  metrics_.relay_sketches_sent = &registry->counter("relay.sketches_sent");
  metrics_.relay_sketch_bytes = &registry->counter("relay.sketch_bytes");
  metrics_.relay_diffs_decoded = &registry->counter("relay.diffs_decoded");
  metrics_.relay_diffs_failed = &registry->counter("relay.diffs_failed");
  metrics_.relay_bisections = &registry->counter("relay.bisections");
  metrics_.relay_full_inv = &registry->counter("relay.full_inv_fallbacks");
  metrics_.relay_fanout_invs = &registry->counter("relay.fanout_invs");
  metrics_.relay_rounds = &registry->counter("relay.rounds_completed");
  metrics_.relay_round_timeouts = &registry->counter("relay.round_timeouts");
  metrics_.relay_sketch_cells = &registry->histogram("relay.sketch_cells");
  metrics_.mempool_rbf_replaced = &registry->counter("mempool.rbf_replaced");
  metrics_.mempool_evicted_expired = &registry->counter("mempool.evicted_expired");
  metrics_.mempool_evicted_sizecap = &registry->counter("mempool.evicted_sizecap");
  metrics_.mempool_fee_floor = &registry->gauge("mempool.fee_floor");
}

void BitcoinNode::deliver(NodeId from, const Message& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, MsgInv>) {
          handle_inv(from, m);
        } else if constexpr (std::is_same_v<T, MsgGetHeaders>) {
          handle_get_headers(from, m);
        } else if constexpr (std::is_same_v<T, MsgHeaders>) {
          handle_headers(from, m);
        } else if constexpr (std::is_same_v<T, MsgGetData>) {
          handle_get_data(from, m);
        } else if constexpr (std::is_same_v<T, MsgBlock>) {
          handle_block(from, m);
        } else if constexpr (std::is_same_v<T, MsgTx>) {
          handle_tx(from, m);
        } else if constexpr (std::is_same_v<T, MsgGetAddr>) {
          handle_get_addr(from);
        } else if constexpr (std::is_same_v<T, MsgAddr>) {
          handle_addr(from, m);
        } else if constexpr (std::is_same_v<T, MsgCmpctBlock>) {
          handle_cmpct_block(from, m);
        } else if constexpr (std::is_same_v<T, MsgGetBlockTxn>) {
          handle_get_block_txn(from, m);
        } else if constexpr (std::is_same_v<T, MsgBlockTxn>) {
          handle_block_txn(from, m);
        } else if constexpr (std::is_same_v<T, MsgReconSketch>) {
          handle_recon_sketch(from, m);
        } else if constexpr (std::is_same_v<T, MsgReconDiff>) {
          handle_recon_diff(from, m);
        } else if constexpr (std::is_same_v<T, MsgReconFinalize>) {
          handle_recon_finalize(from, m);
        } else if constexpr (std::is_same_v<T, MsgNotFound>) {
          handle_not_found(from, m);
        }
      },
      msg);
}

void BitcoinNode::on_connected(NodeId peer) {
  // Start header sync with the new peer.
  network_->send(id_, peer, MsgGetHeaders{tree_.locator(), Hash256{}});
  if (mempool_.empty()) return;
  // Mempool resync: a (re)connected peer may have diverged arbitrarily —
  // e.g. across a partition — so offer everything we hold. Flooding
  // announces outright; reconciliation queues the lot, and the next sketch
  // exchange cancels the (typically large) overlap at sketch cost.
  std::vector<Hash256> txids;
  txids.reserve(mempool_.size());
  for (const auto& [txid, entry] : mempool_) txids.push_back(txid);
  std::sort(txids.begin(), txids.end());
  if (options_.tx_relay_mode == TxRelayMode::kFlood) {
    send_tx_inv_chunked(peer, txids);
  } else {
    ReconLink& link = recon_link(peer);
    link.parked = false;
    link.failed_rounds = 0;
    for (const auto& txid : txids) link.set.add(txid);
    schedule_recon_tick();
  }
}

void BitcoinNode::on_disconnected(NodeId peer) {
  auto it = recon_links_.find(peer);
  if (it == recon_links_.end()) return;
  network_->sim().cancel(it->second.timeout);
  recon_links_.erase(it);
}

void BitcoinNode::send_tx_inv_chunked(NodeId peer, const std::vector<Hash256>& txids) {
  for (std::size_t i = 0; i < txids.size(); i += kMaxInv) {
    MsgInv inv;
    inv.tx_ids.assign(txids.begin() + static_cast<std::ptrdiff_t>(i),
                      txids.begin() +
                          static_cast<std::ptrdiff_t>(std::min(i + kMaxInv, txids.size())));
    network_->send(id_, peer, std::move(inv));
  }
}

void BitcoinNode::handle_inv(NodeId from, const MsgInv& msg) {
  MsgGetData request;
  for (const auto& hash : msg.block_hashes) {
    if (blocks_.contains(hash)) continue;
    announced_by_[hash].insert(from);
    if (requested_blocks_.contains(hash) || pending_compact_.contains(hash)) continue;
    requested_blocks_.insert(hash);
    request.block_hashes.push_back(hash);
  }
  for (const auto& txid : msg.tx_ids) {
    // The announcer evidently has it: no need to reconcile it their way.
    if (options_.tx_relay_mode == TxRelayMode::kReconcile) {
      auto link = recon_links_.find(from);
      if (link != recon_links_.end()) link->second.set.remove(txid);
    }
    if (mempool_.contains(txid)) continue;
    announced_by_[txid].insert(from);
    if (requested_txs_.contains(txid)) continue;
    requested_txs_.insert(txid);
    request.tx_ids.push_back(txid);
  }
  if (!request.block_hashes.empty() || !request.tx_ids.empty()) {
    network_->send(id_, from, std::move(request));
  }
}

void BitcoinNode::handle_get_headers(NodeId from, const MsgGetHeaders& msg) {
  // Find the fork point: first locator entry we know on our best chain.
  const std::vector<Hash256>& chain = tree_.current_chain();
  std::size_t start = 0;  // default: from the root
  for (const auto& hash : msg.locator) {
    if (tree_.on_current_chain(hash)) {
      start = static_cast<std::size_t>(tree_.find(hash)->height - tree_.root().height) + 1;
      break;
    }
  }
  MsgHeaders response;
  for (std::size_t i = start; i < chain.size() && response.headers.size() < kMaxHeadersPerMsg;
       ++i) {
    response.headers.push_back(tree_.find(chain[i])->header);
    if (!msg.stop.is_zero() && chain[i] == msg.stop) break;
  }
  network_->send(id_, from, std::move(response));
}

void BitcoinNode::handle_headers(NodeId from, const MsgHeaders& msg) {
  MsgGetData request;
  for (const auto& header : msg.headers) {
    auto result = tree_.accept(header, now_s());
    if (result == chain::AcceptResult::kInvalid) break;  // stop at garbage
    if (result == chain::AcceptResult::kOrphan) {
      // We are behind this peer by more than one batch: restart sync.
      network_->send(id_, from, MsgGetHeaders{tree_.locator(), Hash256{}});
      return;
    }
    Hash256 hash = header.hash();
    if (!blocks_.contains(hash) && !requested_blocks_.contains(hash) &&
        !pending_compact_.contains(hash) && request.block_hashes.size() < kMaxInv) {
      requested_blocks_.insert(hash);
      request.block_hashes.push_back(hash);
    }
  }
  if (!request.block_hashes.empty()) network_->send(id_, from, std::move(request));
  if (msg.headers.size() == kMaxHeadersPerMsg) {
    network_->send(id_, from, MsgGetHeaders{tree_.locator(), Hash256{}});
  }
}

void BitcoinNode::handle_get_data(NodeId from, const MsgGetData& msg) {
  MsgNotFound missing;
  for (const auto& hash : msg.block_hashes) {
    auto it = blocks_.find(hash);
    if (it == blocks_.end()) {
      missing.block_hashes.push_back(hash);
      continue;
    }
    network_->send(id_, from, MsgBlock{it->second});
  }
  for (const auto& txid : msg.tx_ids) {
    auto it = mempool_.find(txid);
    if (it != mempool_.end()) {
      network_->send(id_, from, MsgTx{it->second.tx});
    } else {
      // Evicted, replaced, or confirmed since the announcement; tell the
      // requester so it does not wait on a dead request.
      missing.tx_ids.push_back(txid);
    }
  }
  if (!missing.block_hashes.empty() || !missing.tx_ids.empty()) {
    network_->send(id_, from, std::move(missing));
  }
}

void BitcoinNode::handle_not_found(NodeId, const MsgNotFound& msg) {
  // Clear in-flight state so a later announcement can retrigger the fetch.
  for (const auto& hash : msg.block_hashes) requested_blocks_.erase(hash);
  for (const auto& txid : msg.tx_ids) {
    requested_txs_.erase(txid);
    announced_by_.erase(txid);
  }
}

void BitcoinNode::handle_block(NodeId from, const MsgBlock& msg) {
  requested_blocks_.erase(msg.block.hash());
  accept_block(msg.block, from);
}

void BitcoinNode::handle_tx(NodeId from, const MsgTx& msg) {
  // Single txid computation per received tx: this call seeds msg.tx's cache,
  // so accept_tx — and the mempool/relay copies made downstream — reuse the
  // hash instead of reserializing.
  const Hash256 txid = msg.tx.txid();
  requested_txs_.erase(txid);
  accept_tx(msg.tx, from);
}

void BitcoinNode::handle_get_addr(NodeId from) {
  auto addresses = network_->sample_addresses(kMaxAddrResponse, network_->rng());
  network_->send(id_, from, MsgAddr{std::move(addresses)});
}

void BitcoinNode::handle_addr(NodeId, const MsgAddr&) {
  // Full nodes rely on the registry for connectivity in this simulation;
  // address books are only modelled in the Bitcoin adapter (§III-B).
}

MsgCmpctBlock BitcoinNode::make_compact(const Block& block) {
  MsgCmpctBlock msg{reconcile::CompactBlockCodec::encode(block, estimator_.estimate())};
  if (metrics_.cmpct_sketch_cells != nullptr) {
    metrics_.cmpct_sketch_cells->record(msg.compact.sketch.cell_count());
  }
  return msg;
}

void BitcoinNode::handle_cmpct_block(NodeId from, const MsgCmpctBlock& msg) {
  const reconcile::CompactBlock& cb = msg.compact;
  Hash256 hash = cb.header.hash();
  if (metrics_.cmpct_received != nullptr) metrics_.cmpct_received->inc();
  if (blocks_.contains(hash) || pending_compact_.contains(hash)) return;
  requested_blocks_.erase(hash);  // supersedes any earlier inv-triggered getdata
  announced_by_[hash].insert(from);

  std::vector<const Transaction*> pool;
  pool.reserve(mempool_.size());
  for (const auto& [txid, entry] : mempool_) pool.push_back(&entry.tx);
  obs::ScopedSpan span(tracer_, "cmpct.decode", "reconcile");
  span.attr("node", static_cast<std::uint64_t>(id_));
  span.attr("sketch_cells", static_cast<std::uint64_t>(cb.sketch.cell_count()));
  span.attr("mempool", static_cast<std::uint64_t>(pool.size()));
  auto decode = reconcile::CompactBlockCodec::decode(cb, pool);
  estimator_.observe(decode.diff_slices);
  if (metrics_.cmpct_decode_success != nullptr) {
    if (decode.peel_complete) {
      metrics_.cmpct_decode_success->inc();
    } else {
      metrics_.cmpct_peel_failure->inc();
    }
  }

  if (decode.complete()) {
    auto block = reconcile::CompactBlockCodec::assemble(cb, decode);
    if (block) {
      span.attr("outcome", "reconstructed");
      accept_block(*block, from);
      return;
    }
    // Merkle mismatch (short-id collision picked a wrong transaction): only
    // the full block can resolve it.
    span.attr("outcome", "fallback_full");
    span.event(obs::Severity::kWarn, "cmpct.merkle_mismatch", "falling back to full block");
    if (metrics_.cmpct_fallback_full != nullptr) metrics_.cmpct_fallback_full->inc();
    requested_blocks_.insert(hash);
    network_->send(id_, from, MsgGetData{{hash}, {}});
    return;
  }

  // Some positions are unresolved: ask the announcer for exactly those.
  span.attr("outcome", "getblocktxn");
  span.attr("missing", static_cast<std::uint64_t>(decode.missing.size()));
  if (metrics_.cmpct_fallback_getblocktxn != nullptr) metrics_.cmpct_fallback_getblocktxn->inc();
  MsgGetBlockTxn request{hash, decode.missing};
  pending_compact_.emplace(hash, PendingCompact{cb, std::move(decode), from});
  network_->send(id_, from, std::move(request));
}

void BitcoinNode::handle_get_block_txn(NodeId from, const MsgGetBlockTxn& msg) {
  auto it = blocks_.find(msg.block_hash);
  if (it == blocks_.end()) {
    network_->send(id_, from, MsgNotFound{{msg.block_hash}, {}});
    return;
  }
  MsgBlockTxn response{msg.block_hash, {}};
  response.transactions.reserve(msg.indexes.size());
  for (std::uint32_t index : msg.indexes) {
    std::size_t pos = static_cast<std::size_t>(index) + 1;  // index 0 = first non-coinbase
    if (pos >= it->second.transactions.size()) {
      network_->send(id_, from, MsgNotFound{{msg.block_hash}, {}});
      return;
    }
    response.transactions.push_back(it->second.transactions[pos]);
  }
  network_->send(id_, from, std::move(response));
}

void BitcoinNode::handle_block_txn(NodeId from, const MsgBlockTxn& msg) {
  auto it = pending_compact_.find(msg.block_hash);
  if (it == pending_compact_.end()) return;
  if (!reconcile::CompactBlockCodec::fill(it->second.decode, msg.transactions)) {
    pending_compact_.erase(it);
    if (tracer_ != nullptr) {
      tracer_->event(obs::Severity::kWarn, "cmpct.fill_failed", "falling back to full block");
    }
    if (metrics_.cmpct_fallback_full != nullptr) metrics_.cmpct_fallback_full->inc();
    requested_blocks_.insert(msg.block_hash);
    network_->send(id_, from, MsgGetData{{msg.block_hash}, {}});
    return;
  }
  finish_compact(msg.block_hash);
}

void BitcoinNode::finish_compact(const Hash256& hash) {
  auto it = pending_compact_.find(hash);
  if (it == pending_compact_.end()) return;
  NodeId from = it->second.from;
  std::optional<Block> block;
  if (it->second.decode.complete()) {
    block = reconcile::CompactBlockCodec::assemble(it->second.compact, it->second.decode);
  }
  pending_compact_.erase(it);
  if (block) {
    accept_block(*block, from);
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->event(obs::Severity::kWarn, "cmpct.assemble_failed", "falling back to full block");
  }
  if (metrics_.cmpct_fallback_full != nullptr) metrics_.cmpct_fallback_full->inc();
  requested_blocks_.insert(hash);
  network_->send(id_, from, MsgGetData{{hash}, {}});
}

bool BitcoinNode::accept_block(const Block& block, NodeId from) {
  Hash256 hash = block.hash();
  if (blocks_.contains(hash)) return false;
  if (!block.is_well_formed()) return false;

  auto result = tree_.accept(block.header, now_s());
  if (result == chain::AcceptResult::kOrphan) {
    // Remember the sender so the eventual connect does not echo the
    // announcement back to it.
    orphans_[block.header.prev_hash].push_back(OrphanBlock{block, from});
    if (tracer_ != nullptr) {
      tracer_->event(obs::Severity::kWarn, "node.orphan_block",
                     "node " + std::to_string(id_) + " missing parent");
    }
    if (metrics_.orphan_blocks != nullptr) metrics_.orphan_blocks->inc();
    // Learn the missing ancestry.
    if (from != kInvalidNode) {
      network_->send(id_, from, MsgGetHeaders{tree_.locator(), Hash256{}});
    }
    return false;
  }
  if (result == chain::AcceptResult::kInvalid) {
    announced_by_.erase(hash);
    return false;
  }
  // kAccepted or kDuplicate (header known, block was missing): store it.
  blocks_.emplace(hash, block);

  update_active_chain();
  relay_block_inv(hash, from);
  try_connect_orphans();
  return true;
}

void BitcoinNode::try_connect_orphans() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (tree_.contains(it->first)) {
        auto pending = std::move(it->second);
        it = orphans_.erase(it);
        for (const auto& orphan : pending) accept_block(orphan.block, orphan.from);
        progress = true;
        break;  // iterator invalidated by recursion; restart scan
      }
      ++it;
    }
  }
}

void BitcoinNode::update_active_chain() {
  Hash256 best = tree_.best_tip();
  if (best == active_tip_) return;

  const std::vector<Hash256>& target_chain = tree_.current_chain();

  // Roll back until the active tip lies on the target chain.
  bool rolled_back = false;
  while (!tree_.on_current_chain(active_tip_) && !undo_stack_.empty()) {
    auto& [hash, undo] = undo_stack_.back();
    utxos_.undo_block(undo);
    // Return the block's non-coinbase transactions to the mempool.
    auto it = blocks_.find(hash);
    if (it != blocks_.end()) {
      for (const auto& tx : it->second.transactions) {
        if (!tx.is_coinbase()) accept_tx(tx, kInvalidNode);
      }
    }
    const auto* entry = tree_.find(hash);
    active_tip_ = entry != nullptr ? entry->parent : Hash256{};
    undo_stack_.pop_back();
    rolled_back = true;
  }
  if (rolled_back) {
    ++reorg_count_;
    if (tracer_ != nullptr) {
      tracer_->event(obs::Severity::kWarn, "node.reorg",
                     "node " + std::to_string(id_) + " switched best chain");
    }
  }

  // Walk forward from the fork point.
  const auto* active_entry = tree_.find(active_tip_);
  if (active_entry == nullptr) return;
  std::size_t idx = static_cast<std::size_t>(active_entry->height - tree_.root().height);
  for (std::size_t i = idx + 1; i < target_chain.size(); ++i) {
    auto it = blocks_.find(target_chain[i]);
    if (it == blocks_.end()) break;  // block not yet downloaded
    int height = tree_.find(target_chain[i])->height;
    auto undo = utxos_.apply_block(it->second, height);
    if (!undo) break;  // invalid spend; leave the view at the last good block
    undo_stack_.emplace_back(target_chain[i], std::move(*undo));
    active_tip_ = target_chain[i];
    // Evict included transactions (and anything now conflicting) from the
    // mempool.
    for (const auto& tx : it->second.transactions) {
      Hash256 txid = tx.txid();
      if (mempool_.contains(txid)) {
        remove_mempool_tx(txid);
        if (metrics_.mempool_evicted_block != nullptr) metrics_.mempool_evicted_block->inc();
      }
      for (const auto& in : tx.inputs) {
        auto spender = mempool_spends_.find(in.prevout);
        if (spender != mempool_spends_.end() && spender->second != txid) {
          evict_subtree(spender->second, metrics_.mempool_evicted_conflict);
        }
      }
    }
  }
  update_mempool_gauges();
  // Cap undo history to bound memory; deep reorgs past this are not
  // supported (Bitcoin Core behaves similarly with its pruning depth).
  constexpr std::size_t kMaxUndoDepth = 1000;
  if (undo_stack_.size() > kMaxUndoDepth) {
    undo_stack_.erase(undo_stack_.begin(),
                      undo_stack_.begin() +
                          static_cast<std::ptrdiff_t>(undo_stack_.size() - kMaxUndoDepth));
  }
}

bool BitcoinNode::accept_tx(const Transaction& tx, NodeId from) {
  Hash256 txid = tx.txid();
  if (mempool_.contains(txid)) return false;
  auto reject = [this, &txid] {
    if (metrics_.mempool_rejected != nullptr) metrics_.mempool_rejected->inc();
    announced_by_.erase(txid);
    return false;
  };
  if (!tx.is_well_formed() || tx.is_coinbase()) return reject();

  // Each input must be unspent (in the UTXO view or an in-mempool output);
  // mempool double-spends are rejected outright unless they qualify as an
  // RBF replacement (checked below, once the fee is known).
  bitcoin::Amount in_value = 0;
  bool value_known = true;
  std::vector<Hash256> conflicts;
  for (const auto& in : tx.inputs) {
    auto spender = mempool_spends_.find(in.prevout);
    if (spender != mempool_spends_.end()) {
      if (!options_.replace_by_fee) return reject();
      conflicts.push_back(spender->second);
    }
    auto entry = utxos_.find(in.prevout);
    if (entry) {
      in_value += entry->output.value;
      std::size_t index = static_cast<std::size_t>(&in - tx.inputs.data());
      const auto& lock = entry->output.script_pubkey;
      auto& cache = network_->signature_cache();
      if (bitcoin::is_p2pkh(lock)) {
        if (!bitcoin::verify_p2pkh_input(tx, index, lock, cache)) return reject();
      } else if (bitcoin::is_p2tr(lock)) {
        if (!bitcoin::verify_p2tr_input(tx, index, lock, cache)) return reject();
      }
      continue;
    }
    // Maybe spending an in-mempool parent.
    auto parent = mempool_.find(in.prevout.txid);
    if (parent != mempool_.end() && in.prevout.vout < parent->second.tx.outputs.size()) {
      in_value += parent->second.tx.outputs[in.prevout.vout].value;
      continue;
    }
    value_known = false;
    break;
  }
  if (!value_known) return reject();
  if (in_value < tx.total_output_value()) return reject();

  bitcoin::Amount fee = in_value - tx.total_output_value();
  std::size_t vsize = std::max<std::size_t>(tx.size(), 1);
  std::uint64_t feerate_milli =
      static_cast<std::uint64_t>(fee) * 1000 / static_cast<std::uint64_t>(vsize);
  if (feerate_milli < options_.min_relay_fee_rate) return reject();

  if (!conflicts.empty()) {
    // BIP125-flavoured replacement: the newcomer must strictly beat every
    // direct conflict's feerate AND pay for the bandwidth it wastes — the
    // evicted fees plus the incremental relay fee on its own size. A
    // replacement may not depend on what it evicts.
    std::sort(conflicts.begin(), conflicts.end());
    conflicts.erase(std::unique(conflicts.begin(), conflicts.end()), conflicts.end());
    bitcoin::Amount conflict_fees = 0;
    for (const auto& conflict : conflicts) {
      const MempoolEntry& victim = mempool_.at(conflict);
      if (feerate_milli <= victim.feerate_milli) return reject();
      conflict_fees += victim.fee;
    }
    for (const auto& in : tx.inputs) {
      if (std::binary_search(conflicts.begin(), conflicts.end(), in.prevout.txid)) {
        return reject();
      }
    }
    bitcoin::Amount increment = static_cast<bitcoin::Amount>(
        static_cast<std::uint64_t>(vsize) * options_.min_relay_fee_rate / 1000);
    if (fee < conflict_fees + increment) return reject();
  } else if (options_.mempool_max_txs > 0 && mempool_.size() >= options_.mempool_max_txs &&
             !fee_index_.empty() && feerate_milli <= fee_index_.begin()->first.first) {
    // Full, and the newcomer does not beat the fee floor: rejecting here —
    // rather than admit-then-evict — keeps the pool converging to the top-K
    // of everything offered, independent of arrival order.
    return reject();
  }

  for (const auto& conflict : conflicts) {
    evict_subtree(conflict, metrics_.mempool_rbf_replaced);
  }

  for (const auto& in : tx.inputs) mempool_spends_[in.prevout] = txid;
  std::uint64_t sequence = mempool_sequence_++;
  MempoolEntry entry{tx, sequence, fee, vsize, feerate_milli, {}};
  if (options_.mempool_tx_ttl > 0) {
    entry.expiry = network_->sim().schedule(options_.mempool_tx_ttl, [this, txid, sequence] {
      auto it = mempool_.find(txid);
      if (it == mempool_.end() || it->second.sequence != sequence) return;
      evict_subtree(txid, metrics_.mempool_evicted_expired);
      update_mempool_gauges();
    });
  }
  fee_index_.emplace(std::make_pair(feerate_milli, sequence), txid);
  mempool_[txid] = std::move(entry);
  enforce_mempool_cap();
  if (metrics_.mempool_admitted != nullptr) metrics_.mempool_admitted->inc();
  update_mempool_gauges();
  announce_tx(txid, from);
  return true;
}

void BitcoinNode::remove_mempool_tx(const Hash256& txid) {
  auto it = mempool_.find(txid);
  if (it == mempool_.end()) return;
  for (const auto& in : it->second.tx.inputs) {
    auto spender = mempool_spends_.find(in.prevout);
    if (spender != mempool_spends_.end() && spender->second == txid) {
      mempool_spends_.erase(spender);
    }
  }
  fee_index_.erase({it->second.feerate_milli, it->second.sequence});
  network_->sim().cancel(it->second.expiry);
  // Never announce a transaction we no longer hold.
  for (auto& [peer, link] : recon_links_) link.set.remove(txid);
  mempool_.erase(it);
}

void BitcoinNode::evict_subtree(Hash256 txid, obs::Counter* reason) {
  auto it = mempool_.find(txid);
  if (it == mempool_.end()) return;
  std::vector<Hash256> children;
  for (std::uint32_t vout = 0; vout < it->second.tx.outputs.size(); ++vout) {
    auto spender = mempool_spends_.find(OutPoint{txid, vout});
    if (spender != mempool_spends_.end()) children.push_back(spender->second);
  }
  remove_mempool_tx(txid);
  if (reason != nullptr) reason->inc();
  for (const auto& child : children) evict_subtree(child, reason);
}

void BitcoinNode::enforce_mempool_cap() {
  if (options_.mempool_max_txs == 0) return;
  while (mempool_.size() > options_.mempool_max_txs && !fee_index_.empty()) {
    evict_subtree(fee_index_.begin()->second, metrics_.mempool_evicted_sizecap);
  }
}

void BitcoinNode::update_mempool_gauges() {
  if (metrics_.mempool_size != nullptr) {
    metrics_.mempool_size->set(static_cast<std::int64_t>(mempool_.size()));
  }
  if (metrics_.mempool_fee_floor != nullptr) {
    metrics_.mempool_fee_floor->set(
        fee_index_.empty() ? 0 : static_cast<std::int64_t>(fee_index_.begin()->first.first));
  }
}

std::optional<BitcoinNode::MempoolTxInfo> BitcoinNode::mempool_info(const Hash256& txid) const {
  auto it = mempool_.find(txid);
  if (it == mempool_.end()) return std::nullopt;
  return MempoolTxInfo{it->second.fee, it->second.vsize, it->second.feerate_milli};
}

std::uint64_t BitcoinNode::mempool_fee_floor() const {
  return fee_index_.empty() ? 0 : fee_index_.begin()->first.first;
}

std::size_t BitcoinNode::recon_pending(NodeId peer) const {
  auto it = recon_links_.find(peer);
  return it == recon_links_.end() ? 0 : it->second.set.size();
}

std::vector<Transaction> BitcoinNode::mempool_template(std::size_t max_txs) const {
  // Feerate-descending greedy selection that never orders a child before its
  // in-mempool parent: repeatedly scan the ranked list admitting whatever
  // has all parents selected, until the cap or a fixed point.
  struct Ranked {
    const Hash256* txid;
    const MempoolEntry* entry;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(mempool_.size());
  for (const auto& [txid, entry] : mempool_) ranked.push_back(Ranked{&txid, &entry});
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.entry->feerate_milli != b.entry->feerate_milli) {
      return a.entry->feerate_milli > b.entry->feerate_milli;
    }
    return a.entry->sequence < b.entry->sequence;
  });
  std::unordered_set<Hash256> selected;
  std::vector<bool> taken(ranked.size(), false);
  std::vector<Transaction> out;
  bool progress = true;
  while (progress && out.size() < max_txs) {
    progress = false;
    for (std::size_t i = 0; i < ranked.size() && out.size() < max_txs; ++i) {
      if (taken[i]) continue;
      bool ready = true;
      for (const auto& in : ranked[i].entry->tx.inputs) {
        if (mempool_.contains(in.prevout.txid) && !selected.contains(in.prevout.txid)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      taken[i] = true;
      selected.insert(*ranked[i].txid);
      out.push_back(ranked[i].entry->tx);
      progress = true;
    }
  }
  return out;
}

void BitcoinNode::relay_block_inv(const Hash256& hash, NodeId except) {
  auto skip = announced_by_.find(hash);
  std::optional<MsgCmpctBlock> compact;
  for (NodeId peer : network_->peers_of(id_)) {
    if (peer == except) continue;
    if (skip != announced_by_.end() && skip->second.contains(peer)) continue;
    if (options_.relay_mode == BlockRelayMode::kCompact) {
      if (!compact) compact = make_compact(blocks_.at(hash));
      if (metrics_.cmpct_sent != nullptr) {
        metrics_.cmpct_sent->inc();
        metrics_.cmpct_bytes_sketch->inc(compact->compact.wire_size());
        metrics_.cmpct_bytes_full_equiv->inc(blocks_.at(hash).size());
      }
      network_->send(id_, peer, *compact);
    } else {
      network_->send(id_, peer, MsgInv{{hash}, {}});
    }
  }
  announced_by_.erase(hash);
}

void BitcoinNode::announce_tx(const Hash256& txid, NodeId except) {
  auto skip = announced_by_.find(txid);
  auto already_has = [&](NodeId peer) {
    return peer == except || (skip != announced_by_.end() && skip->second.contains(peer));
  };
  if (options_.tx_relay_mode == TxRelayMode::kFlood) {
    for (NodeId peer : network_->peers_of(id_)) {
      if (already_has(peer)) continue;
      network_->send(id_, peer, MsgInv{{}, {txid}});
    }
  } else {
    std::vector<NodeId> eligible;
    for (NodeId peer : network_->peers_of(id_)) {
      if (!already_has(peer)) eligible.push_back(peer);
    }
    std::vector<NodeId> targets = reconcile::select_fanout_peers(
        txid, eligible, options_.flood_fanout, reconcile::kRelaySalt);
    for (NodeId peer : eligible) {
      if (std::binary_search(targets.begin(), targets.end(), peer)) {
        network_->send(id_, peer, MsgInv{{}, {txid}});
        if (metrics_.relay_fanout_invs != nullptr) metrics_.relay_fanout_invs->inc();
      } else {
        ReconLink& link = recon_link(peer);
        link.set.add(txid);
        if (link.parked) {
          // New work revives a link parked by timeouts (the partition may
          // have healed without the connection cycling).
          link.parked = false;
          link.failed_rounds = 0;
        }
      }
    }
    schedule_recon_tick();
  }
  announced_by_.erase(txid);
}

BitcoinNode::ReconLink& BitcoinNode::recon_link(NodeId peer) {
  auto it = recon_links_.find(peer);
  if (it == recon_links_.end()) {
    ReconLink link;
    link.set = reconcile::ReconSet(reconcile::link_salt(id_, peer, reconcile::kRelaySalt));
    it = recon_links_.emplace(peer, std::move(link)).first;
  }
  return it->second;
}

// Each link gets its own phase slot (derived from both endpoint ids) so a
// node's rounds to its peers spread across the interval instead of firing as
// one salvo. Staggering matters for bandwidth, not just smoothness: when
// several concurrent rounds would each learn that this node lacks the same
// transaction, each responder pushes a copy; serialized rounds let the first
// push land so the transaction cancels in every later sketch.
std::uint32_t BitcoinNode::recon_phase_key(NodeId peer) const {
  return id_ * 0x9e3779b9u + peer * 0x85ebca6bu;
}

void BitcoinNode::schedule_recon_tick() {
  if (options_.tx_relay_mode != TxRelayMode::kReconcile) return;
  if (recon_tick_.valid()) return;
  util::SimTime next = 0;
  for (const auto& [peer, link] : recon_links_) {
    if (link.parked || link.round_active || link.set.empty()) continue;
    if (!network_->connected(id_, peer)) continue;
    util::SimTime tick = reconcile::next_recon_tick(network_->sim().now(),
                                                    options_.recon_interval,
                                                    recon_phase_key(peer));
    if (next == 0 || tick < next) next = tick;
  }
  if (next == 0) return;
  recon_tick_ = network_->sim().schedule_at(next, [this] {
    recon_tick_ = {};
    run_recon_ticks();
  });
}

void BitcoinNode::run_recon_ticks() {
  util::SimTime now = network_->sim().now();
  for (auto& [peer, link] : recon_links_) {
    if (link.parked || link.round_active || link.set.empty()) continue;
    if (!network_->connected(id_, peer)) continue;
    // Only links whose phase slot lands exactly on this tick fire; the rest
    // are picked up when the timer is re-armed for the next due slot.
    if (reconcile::next_recon_tick(now - 1, options_.recon_interval,
                                   recon_phase_key(peer)) != now) {
      continue;
    }
    start_recon_round(peer, link);
  }
  schedule_recon_tick();
}

void BitcoinNode::start_recon_round(NodeId peer, ReconLink& link) {
  link.round_active = true;
  link.round = next_round_++;
  link.awaiting_parts = 1;
  link.round_diff = 0;
  // Size for the smoothed divergence with a two-sigma cushion — enough that
  // ordinary fluctuation rarely triggers a bisection, without stacking the
  // estimator's full fallback margin on top of the sizing law's own decode
  // margin. Two local signals then correct the smoothed history:
  //  - cap at 2|A|+4: arrivals are symmetric across a link, so the peer's
  //    pending count tracks ours and the true difference is near-surely
  //    under twice our own. This is what deflates the post-burst tail —
  //    the EWMA decays a round late, but a near-empty set is proof the
  //    divergence it predicts cannot materialise.
  //  - floor at |A|/2 on a cold link: with no observed diff the prior mean
  //    is meaningless, but by the first tick both sides have been filling
  //    their sets from the same stream, so roughly half of what we hold is
  //    already mirrored on the other side.
  double mean = link.estimator.mean();
  auto sized = static_cast<std::size_t>(std::ceil(mean + 2.0 * std::sqrt(std::max(mean, 1.0))));
  sized = std::min(sized, 2 * link.set.size() + 4);
  if (!link.warmed) sized = std::max(sized, link.set.size() / 2 + 4);
  link.round_sized = sized;
  link.round_cells = reconcile::recon_sketch_cells(sized);
  reconcile::ShortIdSketch sketch = link.set.sketch(link.round_cells, 0);
  link.snapshot = link.set.take_snapshot();
  MsgReconSketch msg{link.round, 0, static_cast<std::uint32_t>(link.snapshot.size()),
                    std::move(sketch)};
  if (metrics_.relay_sketches_sent != nullptr) {
    metrics_.relay_sketches_sent->inc();
    metrics_.relay_sketch_bytes->inc(msg.sketch.wire_size());
    metrics_.relay_sketch_cells->record(link.round_cells);
  }
  network_->send(id_, peer, std::move(msg));
  std::uint32_t round = link.round;
  link.timeout = network_->sim().schedule(kReconTimeout, [this, peer, round] {
    auto it = recon_links_.find(peer);
    if (it == recon_links_.end() || !it->second.round_active || it->second.round != round) return;
    fail_recon_round(peer, it->second);
  });
}

void BitcoinNode::fail_recon_round(NodeId peer, ReconLink& link) {
  link.round_active = false;
  link.set.restore_snapshot(std::move(link.snapshot));
  link.snapshot.clear();
  ++link.failed_rounds;
  if (metrics_.relay_round_timeouts != nullptr) metrics_.relay_round_timeouts->inc();
  if (link.failed_rounds >= 3) {
    link.parked = true;
    if (tracer_ != nullptr) {
      tracer_->event(obs::Severity::kWarn, "relay.link_parked",
                     "node " + std::to_string(id_) + " parked link to " + std::to_string(peer));
    }
    return;
  }
  schedule_recon_tick();
}

void BitcoinNode::finish_recon_round(ReconLink& link) {
  // Every snapshot entry was either resolved by a direct push or cancelled
  // against the peer's set; anything left (shouldn't happen) is re-queued
  // rather than dropped.
  if (!link.snapshot.empty()) link.set.restore_snapshot(std::move(link.snapshot));
  link.snapshot.clear();
  link.estimator.observe(link.round_diff);
  link.warmed = true;
  link.round_active = false;
  link.failed_rounds = 0;
  network_->sim().cancel(link.timeout);
  link.timeout = {};
  if (metrics_.relay_rounds != nullptr) metrics_.relay_rounds->inc();
  schedule_recon_tick();
}

void BitcoinNode::handle_recon_sketch(NodeId from, const MsgReconSketch& msg) {
  ReconLink& link = recon_link(from);
  obs::ScopedSpan span(tracer_, "relay.respond", "reconcile");
  span.attr("node", static_cast<std::uint64_t>(id_));
  span.attr("part", static_cast<std::uint64_t>(msg.part));
  span.attr("cells", static_cast<std::uint64_t>(msg.sketch.cell_count()));
  std::size_t mine_before = link.set.part_size(msg.part);
  reconcile::ReconDiffResult result = reconcile::respond_to_sketch(link.set, msg.sketch, msg.part);
  MsgReconDiff reply{msg.round, msg.part, result.decode_failed,
                    static_cast<std::uint32_t>(mine_before),
                    0,
                    {},
                    {}};
  std::vector<const bitcoin::Transaction*> push;
  if (result.decode_failed) {
    span.attr("outcome", "decode_failed");
    if (metrics_.relay_diffs_failed != nullptr) metrics_.relay_diffs_failed->inc();
  } else {
    span.attr("outcome", "decoded");
    span.attr("diff", static_cast<std::uint64_t>(result.want.size() + result.have.size()));
    if (metrics_.relay_diffs_decoded != nullptr) metrics_.relay_diffs_decoded->inc();
    link.estimator.observe(result.want.size() + result.have.size());
    link.warmed = true;
    reply.want = std::move(result.want);
    for (const auto& [short_id, txid] : result.have) {
      // The decoded sketch proves the initiator lacks this transaction, so
      // push the body outright — no txid/getdata round trip needed, and the
      // push cannot duplicate a payload the way blind flooding would.
      auto entry = mempool_.find(txid);
      if (entry != mempool_.end()) {
        announced_by_[txid].insert(from);
        ++reply.have_count;
        push.push_back(&entry->second.tx);
      } else {
        reply.have_txs.push_back(txid);  // left the mempool mid-round
      }
    }
  }
  network_->send(id_, from, std::move(reply));
  for (const bitcoin::Transaction* tx : push) network_->send(id_, from, MsgTx{*tx});
}

void BitcoinNode::handle_recon_diff(NodeId from, const MsgReconDiff& msg) {
  // The peer's exclusive transactions are worth fetching no matter how stale
  // the round bookkeeping is (timeouts and reordered bisection halves must
  // not lose announcements).
  MsgGetData request;
  for (const auto& txid : msg.have_txs) {
    announced_by_[txid].insert(from);
    if (mempool_.contains(txid) || requested_txs_.contains(txid)) continue;
    requested_txs_.insert(txid);
    request.tx_ids.push_back(txid);
  }
  if (!request.tx_ids.empty()) network_->send(id_, from, std::move(request));

  auto it = recon_links_.find(from);
  if (it == recon_links_.end()) return;
  ReconLink& link = it->second;
  if (!link.round_active || msg.round != link.round) return;

  if (msg.decode_failed) {
    if (msg.part == 0) {
      // Bisect: the same cell count over half the ids doubles capacity.
      if (metrics_.relay_bisections != nullptr) metrics_.relay_bisections->inc();
      if (tracer_ != nullptr) {
        tracer_->event(obs::Severity::kDebug, "relay.bisect",
                       "node " + std::to_string(id_) + " round " + std::to_string(link.round));
      }
      link.awaiting_parts = 2;
      for (std::uint8_t part = 1; part <= 2; ++part) {
        std::uint32_t count = 0;
        for (const auto& [short_id, txid] : link.snapshot) {
          if (reconcile::id_in_part(short_id, part)) ++count;
        }
        // The failed round taught us both set sizes, so size each half by
        // the union bound (our part count plus half the peer's set): the
        // part's true difference cannot exceed it, making a second failure
        // — and the full-inv fallback it would force — vanishingly rare.
        // Escalate geometrically from the estimate that just failed: each
        // half gets the full failed capacity, doubling overall reach. The
        // union bound (our part count plus half the peer's set) stays as a
        // hard cap — the half's true difference cannot exceed it, and with
        // heavily overlapping sets the bound alone would oversize wildly.
        std::size_t bound = count + (msg.set_size + 1) / 2;
        std::size_t target = std::min(bound, 2 * link.round_sized);
        reconcile::ShortIdSketch sketch(reconcile::recon_sketch_cells(target),
                                        link.set.salt());
        for (const auto& [short_id, txid] : link.snapshot) {
          if (reconcile::id_in_part(short_id, part)) sketch.insert(short_id);
        }
        MsgReconSketch half{link.round, part, count, std::move(sketch)};
        if (metrics_.relay_sketches_sent != nullptr) {
          metrics_.relay_sketches_sent->inc();
          metrics_.relay_sketch_bytes->inc(half.sketch.wire_size());
        }
        network_->send(id_, from, std::move(half));
      }
    } else {
      // Even a bisection half failed: give up on sketches for this round and
      // exchange full inventories. Our whole snapshot goes out; the peer
      // answers with its own pending set as a plain inv.
      if (metrics_.relay_full_inv != nullptr) metrics_.relay_full_inv->inc();
      if (tracer_ != nullptr) {
        tracer_->event(obs::Severity::kWarn, "relay.full_inv",
                       "node " + std::to_string(id_) + " round " + std::to_string(link.round));
      }
      std::vector<Hash256> all;
      all.reserve(link.snapshot.size());
      for (const auto& [short_id, txid] : link.snapshot) all.push_back(txid);
      // Grow the estimate past this round's capacity so the next sketch has
      // headroom (the true difference is unknowable after a failed decode).
      link.round_diff += link.round_cells * 2 + msg.set_size;
      network_->send(id_, from, MsgReconFinalize{link.round, true, std::move(all)});
      link.snapshot.clear();
      finish_recon_round(link);
    }
    return;
  }

  // Successful decode for this part: resolve the peer's wants by pushing the
  // bodies outright (the peer proved it lacks them) and retire every
  // snapshot entry the part covered (ids not wanted cancelled in the sketch
  // — the peer already has them).
  link.round_diff += msg.want.size() + msg.have_count + msg.have_txs.size();
  for (auto snap = link.snapshot.begin(); snap != link.snapshot.end();) {
    if (!reconcile::id_in_part(snap->first, msg.part)) {
      ++snap;
      continue;
    }
    if (std::binary_search(msg.want.begin(), msg.want.end(), snap->first)) {
      auto entry = mempool_.find(snap->second);
      if (entry != mempool_.end()) {
        // If the tx left the mempool mid-round (mined, replaced), skip: a
        // mined tx reaches the peer through block relay, a replaced one is
        // no longer worth announcing.
        announced_by_[snap->second].insert(from);
        network_->send(id_, from, MsgTx{entry->second.tx});
      }
    }
    snap = link.snapshot.erase(snap);
  }
  if (--link.awaiting_parts == 0) finish_recon_round(link);
}

void BitcoinNode::handle_recon_finalize(NodeId from, const MsgReconFinalize& msg) {
  ReconLink& link = recon_link(from);
  MsgGetData request;
  for (const auto& txid : msg.tx_ids) {
    // The initiator has these; never announce them back (this is what makes
    // reconciliation-learned transactions echo-free, same as inv relay).
    announced_by_[txid].insert(from);
    link.set.remove(txid);
    if (mempool_.contains(txid) || requested_txs_.contains(txid)) continue;
    requested_txs_.insert(txid);
    request.tx_ids.push_back(txid);
  }
  if (msg.full_inv) {
    // Sketchless exchange: hand the initiator our whole pending set too.
    std::vector<Hash256> mine = link.set.txids();
    link.set.clear();
    send_tx_inv_chunked(from, mine);
  }
  if (!request.tx_ids.empty()) network_->send(id_, from, std::move(request));
}

}  // namespace icbtc::btcnet
