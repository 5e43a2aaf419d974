#include "adapter/adapter.h"

#include <algorithm>

#include "reconcile/recon_set.h"
#include "util/log.h"

namespace icbtc::adapter {

using btcnet::Message;
using btcnet::MsgAddr;
using btcnet::MsgBlock;
using btcnet::MsgGetData;
using btcnet::MsgGetHeaders;
using btcnet::MsgHeaders;
using btcnet::MsgInv;
using btcnet::MsgTx;
using btcnet::NodeId;
using util::Hash256;

namespace {
/// Outbound transactions expire from the cache after 10 minutes (§III-B).
constexpr util::SimTime kTxCacheExpiry = 10 * util::kMinute;
/// Retry interval for unanswered block requests.
constexpr util::SimTime kBlockRequestRetry = 5 * util::kSecond;
/// Period of the address/connection maintenance timer.
constexpr util::SimTime kMaintenanceInterval = 2 * util::kSecond;
/// Modelled serving cost of a request with an unknown anchor: the fixed
/// dispatch cost alone (see handle_request).
constexpr std::uint64_t kDispatchUs = 20;
}  // namespace

AdapterConfig AdapterConfig::for_params(const bitcoin::ChainParams& params) {
  AdapterConfig c;
  c.outbound_connections = params.outbound_connections;
  c.addr_lower_threshold = params.addr_lower_threshold;
  c.addr_upper_threshold = params.addr_upper_threshold;
  return c;
}

BitcoinAdapter::BitcoinAdapter(btcnet::Network& network, const bitcoin::ChainParams& params,
                               AdapterConfig config, util::Rng rng)
    : network_(&network),
      params_(&params),
      config_(config),
      rng_(std::move(rng)),
      tree_(params, params.genesis_header) {
  // The adapter is a client; it is not advertised in addr gossip.
  id_ = network.attach(this, /*ipv6=*/true, /*gossiped=*/false);
}

BitcoinAdapter::~BitcoinAdapter() {
  if (network_->exists(id_)) network_->detach(id_);
}

void BitcoinAdapter::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.peers = &registry->gauge("adapter.peers");
  metrics_.header_height = &registry->gauge("adapter.header_height");
  metrics_.headers_accepted = &registry->counter("adapter.headers_accepted");
  metrics_.blocks_received = &registry->counter("adapter.blocks_received");
  metrics_.blocks_stored = &registry->gauge("adapter.blocks_stored");
  metrics_.block_requests = &registry->counter("adapter.block_requests");
  metrics_.block_request_retries = &registry->counter("adapter.block_request_retries");
  metrics_.pending_block_requests = &registry->gauge("adapter.pending_block_requests");
  metrics_.requests_handled = &registry->counter("adapter.requests_handled");
  metrics_.request_latency_us = &registry->histogram("adapter.handle_request.latency_us");
  metrics_.request_errors = &registry->counter("adapter.handle_request.errors");
  metrics_.tx_cache_size = &registry->gauge("adapter.tx_cache.size");
  metrics_.tx_cached = &registry->counter("adapter.tx_cache.added");
  metrics_.tx_delivered = &registry->counter("adapter.tx_cache.delivered");
  metrics_.tx_evicted_expired = &registry->counter("adapter.tx_cache.evicted_expired");
  metrics_.tx_evicted_delivered = &registry->counter("adapter.tx_cache.evicted_delivered");
  metrics_.recon_sketches_answered = &registry->counter("adapter.recon.sketches_answered");
  metrics_.peers->set(static_cast<std::int64_t>(connections_.size()));
  metrics_.header_height->set(tree_.best_height());
  metrics_.blocks_stored->set(static_cast<std::int64_t>(blocks_.size()));
  metrics_.tx_cache_size->set(static_cast<std::int64_t>(tx_cache_.size()));
  metrics_.pending_block_requests->set(static_cast<std::int64_t>(pending_blocks_.size()));
}

std::int64_t BitcoinAdapter::now_s() const {
  return static_cast<std::int64_t>(params_->genesis_header.time) +
         network_->sim().now() / util::kSecond;
}

void BitcoinAdapter::start() {
  if (running_) return;
  running_ = true;
  discovering_ = true;
  // Bootstrap the address book from the DNS seeds (hard-coded list, §III-B).
  for (const auto& seed : network_->query_dns_seeds()) {
    if (seed.ipv6 && known_address_ids_.insert(seed.id).second) {
      address_book_.push_back(seed);
    }
  }
  maintain();
}

void BitcoinAdapter::stop() {
  running_ = false;
  network_->sim().cancel(maintenance_timer_);
  maintenance_timer_ = {};
}

void BitcoinAdapter::maintain() {
  if (!running_) return;

  // Discovery: keep requesting addresses until the upper threshold t_u is
  // reached; re-enter discovery if the book shrinks below t_l.
  if (address_book_.size() >= config_.addr_upper_threshold) {
    discovering_ = false;
  } else if (address_book_.size() < config_.addr_lower_threshold) {
    discovering_ = true;
  }
  if (discovering_) request_addresses();

  open_connections();
  expire_transactions();
  advertise_transactions();

  // Retry stale block requests.
  for (auto& [hash, pending] : pending_blocks_) {
    if (pending.last_request >= 0 &&
        network_->sim().now() - pending.last_request < kBlockRequestRetry) {
      continue;
    }
    auto peer = random_peer();
    if (!peer) break;
    if (pending.last_request >= 0) {
      if (metrics_.block_request_retries != nullptr) metrics_.block_request_retries->inc();
      if (tracer_ != nullptr) {
        tracer_->event(obs::Severity::kWarn, "adapter.block_request_retry",
                       "unanswered for " +
                           std::to_string(network_->sim().now() - pending.last_request) + "us");
      }
    }
    pending.last_request = network_->sim().now();
    pending.asked = *peer;
    network_->send(id_, *peer, MsgGetData{{hash}, {}});
  }

  maintenance_timer_ =
      network_->sim().schedule(kMaintenanceInterval, [this] { maintain(); });
}

void BitcoinAdapter::request_addresses() {
  // Ask connected peers; bootstrap connections to seeds if we have none.
  if (connections_.empty()) {
    for (const auto& seed : address_book_) {
      if (connections_.size() >= config_.outbound_connections) break;
      if (network_->connect(id_, seed.id)) {
        connections_.insert(seed.id);
        sync_headers(seed.id);
      }
    }
    if (metrics_.peers != nullptr) metrics_.peers->set(static_cast<std::int64_t>(connections_.size()));
  }
  for (NodeId peer : connections_) network_->send(id_, peer, btcnet::MsgGetAddr{});
}

void BitcoinAdapter::open_connections() {
  // Maintain ℓ connections to uniformly random known addresses.
  std::size_t attempts = 0;
  while (connections_.size() < config_.outbound_connections && !address_book_.empty() &&
         attempts < 4 * config_.outbound_connections) {
    ++attempts;
    const auto& candidate =
        address_book_[static_cast<std::size_t>(rng_.next_below(address_book_.size()))];
    if (connections_.contains(candidate.id)) continue;
    if (!network_->exists(candidate.id)) continue;
    if (network_->connect(id_, candidate.id)) {
      connections_.insert(candidate.id);
      sync_headers(candidate.id);
    }
  }
  if (metrics_.peers != nullptr) metrics_.peers->set(static_cast<std::int64_t>(connections_.size()));
}

void BitcoinAdapter::on_disconnected(NodeId peer) {
  connections_.erase(peer);
  if (metrics_.peers != nullptr) metrics_.peers->set(static_cast<std::int64_t>(connections_.size()));
}

std::optional<NodeId> BitcoinAdapter::random_peer() {
  if (connections_.empty()) return std::nullopt;
  std::vector<NodeId> peers(connections_.begin(), connections_.end());
  std::sort(peers.begin(), peers.end());
  return peers[static_cast<std::size_t>(rng_.next_below(peers.size()))];
}

std::vector<btcnet::NodeId> BitcoinAdapter::connected_peers() const {
  std::vector<NodeId> peers(connections_.begin(), connections_.end());
  std::sort(peers.begin(), peers.end());
  return peers;
}

void BitcoinAdapter::sync_headers(NodeId peer) {
  network_->send(id_, peer, MsgGetHeaders{tree_.locator(), Hash256{}});
}

void BitcoinAdapter::deliver(NodeId from, const Message& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, MsgHeaders>) {
          handle_headers(from, m);
        } else if constexpr (std::is_same_v<T, MsgInv>) {
          handle_inv(from, m);
        } else if constexpr (std::is_same_v<T, MsgBlock>) {
          handle_block(m);
        } else if constexpr (std::is_same_v<T, MsgGetData>) {
          handle_get_data(from, m);
        } else if constexpr (std::is_same_v<T, MsgAddr>) {
          handle_addr(m);
        } else if constexpr (std::is_same_v<T, btcnet::MsgCmpctBlock>) {
          // A pushed compact block only announces its hash: nothing of the
          // sketch is decoded, and the block is fetched in full with getdata
          // once the canister's request reaches it, as after an inv.
          handle_inv(from, MsgInv{{m.compact.header.hash()}, {}});
        } else if constexpr (std::is_same_v<T, btcnet::MsgReconSketch>) {
          handle_recon_sketch(from, m);
        } else if constexpr (std::is_same_v<T, MsgGetHeaders>) {
          // The adapter is a leech: it does not serve headers.
        }
      },
      msg);
}

void BitcoinAdapter::handle_addr(const MsgAddr& msg) {
  for (const auto& addr : msg.addresses) {
    if (address_book_.size() >= config_.addr_upper_threshold) break;
    // IC nodes only have IPv6 connectivity (§III-B).
    if (!addr.ipv6 || addr.id == id_) continue;
    if (known_address_ids_.insert(addr.id).second) address_book_.push_back(addr);
  }
}

void BitcoinAdapter::handle_headers(NodeId from, const MsgHeaders& msg) {
  // The adapter validates every header (well-formedness, prev link, correct
  // difficulty bits, PoW, timestamp) and stores any valid header — possibly
  // several per height. Fork resolution is the canister's job.
  for (const auto& header : msg.headers) {
    auto result = tree_.accept(header, now_s());
    if (result == chain::AcceptResult::kInvalid) break;  // discard the rest
    if (result == chain::AcceptResult::kOrphan) {
      sync_headers(from);  // we lag this peer; restart from a locator
      return;
    }
    if (result == chain::AcceptResult::kAccepted && metrics_.headers_accepted != nullptr) {
      metrics_.headers_accepted->inc();
      metrics_.header_height->set(tree_.best_height());
    }
  }
  if (msg.headers.size() == btcnet::kMaxHeadersPerMsg) sync_headers(from);
}

void BitcoinAdapter::handle_inv(NodeId from, const MsgInv& msg) {
  // Only block announcements matter: the adapter pushes canister
  // transactions out and never pulls any in.
  for (const auto& hash : msg.block_hashes) {
    if (!tree_.contains(hash)) {
      sync_headers(from);  // learn the header (and any ancestors) first
      break;
    }
  }
}

void BitcoinAdapter::handle_recon_sketch(NodeId from, const btcnet::MsgReconSketch& msg) {
  // Passive responder: the adapter pushes canister transactions by inv, so
  // its side of every link is empty. An empty set still decodes the
  // initiator's side, which keeps node rounds from timing out against an
  // adapter peer; the reply only lists what the initiator holds.
  reconcile::ReconSet empty(reconcile::link_salt(id_, from, reconcile::kRelaySalt));
  reconcile::ReconDiffResult result = reconcile::respond_to_sketch(empty, msg.sketch, msg.part);
  btcnet::MsgReconDiff reply{msg.round, msg.part, result.decode_failed, 0, 0, {}, {}};
  if (!result.decode_failed) reply.want = std::move(result.want);
  if (metrics_.recon_sketches_answered != nullptr) metrics_.recon_sketches_answered->inc();
  network_->send(id_, from, std::move(reply));
}

void BitcoinAdapter::handle_block(const MsgBlock& msg) {
  Hash256 hash = msg.block.hash();
  if (!pending_blocks_.contains(hash) && blocks_.contains(hash)) return;
  if (!msg.block.is_well_formed()) return;
  // The header must be known and valid; unknown headers were requested via
  // sync, so simply drop blocks that do not fit the tree yet.
  if (!tree_.contains(hash)) return;
  blocks_.emplace(hash, std::make_shared<const bitcoin::Block>(msg.block));
  pending_blocks_.erase(hash);
  if (metrics_.blocks_received != nullptr) {
    metrics_.blocks_received->inc();
    metrics_.blocks_stored->set(static_cast<std::int64_t>(blocks_.size()));
    metrics_.pending_block_requests->set(static_cast<std::int64_t>(pending_blocks_.size()));
  }
}

void BitcoinAdapter::handle_get_data(NodeId from, const MsgGetData& msg) {
  // Peers may request transactions we advertised.
  for (const auto& txid : msg.tx_ids) {
    auto it = tx_cache_.find(txid);
    if (it != tx_cache_.end()) {
      network_->send(id_, from, MsgTx{it->second.tx});
      if (it->second.delivered_to.insert(from).second && metrics_.tx_delivered != nullptr) {
        metrics_.tx_delivered->inc();
      }
    }
  }
}

void BitcoinAdapter::request_block(const Hash256& hash) {
  if (blocks_.contains(hash) || pending_blocks_.contains(hash)) return;
  if (metrics_.block_requests != nullptr) metrics_.block_requests->inc();
  PendingBlock pending;
  auto peer = random_peer();
  if (peer) {
    pending.last_request = network_->sim().now();
    pending.asked = *peer;
    network_->send(id_, *peer, MsgGetData{{hash}, {}});
  }
  pending_blocks_.emplace(hash, pending);
  if (metrics_.pending_block_requests != nullptr) {
    metrics_.pending_block_requests->set(static_cast<std::int64_t>(pending_blocks_.size()));
  }
}

void BitcoinAdapter::advertise_transactions() {
  for (auto& [txid, cached] : tx_cache_) {
    for (NodeId peer : connections_) {
      if (cached.delivered_to.contains(peer)) continue;
      network_->send(id_, peer, MsgInv{{}, {txid}});
    }
  }
}

void BitcoinAdapter::expire_transactions() {
  util::SimTime now = network_->sim().now();
  std::erase_if(tx_cache_, [&](const auto& entry) {
    const CachedTx& cached = entry.second;
    // Drop when expired, or once enough *distinct* peers have pulled it.
    // Early-dropping as soon as every currently connected peer had it is
    // wrong: with a single transient peer the tx would be evicted minutes
    // before its 10-minute expiry (§III-B) and never reach later peers.
    // ℓ distinct deliveries match the intended full-fan-out condition.
    if (cached.expires <= now) {
      if (metrics_.tx_evicted_expired != nullptr) metrics_.tx_evicted_expired->inc();
      return true;
    }
    if (cached.delivered_to.size() >= config_.outbound_connections) {
      if (metrics_.tx_evicted_delivered != nullptr) metrics_.tx_evicted_delivered->inc();
      return true;
    }
    return false;
  });
  if (metrics_.tx_cache_size != nullptr) {
    metrics_.tx_cache_size->set(static_cast<std::int64_t>(tx_cache_.size()));
  }
}

AdapterResponse BitcoinAdapter::handle_request(const AdapterRequest& request) {
  obs::ScopedSpan span(tracer_, "adapter.handle_request", "adapter");
  span.attr("adapter", static_cast<std::uint64_t>(id_));
  span.attr("txs_in", static_cast<std::uint64_t>(request.transactions.size()));
  span.attr("processed_in", static_cast<std::uint64_t>(request.processed.size()));
  if (metrics_.requests_handled != nullptr) metrics_.requests_handled->inc();
  // Lines 1-3: cache the outbound transactions; they are advertised
  // asynchronously by the maintenance loop.
  for (const auto& raw : request.transactions) {
    try {
      bitcoin::Transaction tx = bitcoin::Transaction::parse(raw);
      Hash256 txid = tx.txid();
      if (!tx_cache_.contains(txid)) {
        tx_cache_.emplace(txid, CachedTx{std::move(tx),
                                         network_->sim().now() + kTxCacheExpiry,
                                         {}});
        if (metrics_.tx_cached != nullptr) {
          metrics_.tx_cached->inc();
          metrics_.tx_cache_size->set(static_cast<std::int64_t>(tx_cache_.size()));
        }
      }
    } catch (const util::DecodeError&) {
      // Undecodable bytes never reach the Bitcoin network.
    }
  }
  advertise_transactions();

  AdapterResponse response;
  const auto* anchor_entry = tree_.find(request.anchor);
  if (anchor_entry == nullptr) {
    span.attr("outcome", "unknown_anchor");
    span.event(obs::Severity::kWarn, "adapter.unknown_anchor");
    // Still a served round-trip: count it against the SLO as an error.
    if (metrics_.request_latency_us != nullptr) {
      metrics_.request_latency_us->record(kDispatchUs);
      metrics_.request_errors->inc();
    }
    return response;  // unknown anchor: nothing to serve
  }

  std::unordered_set<Hash256> in_a(request.processed.begin(), request.processed.end());
  in_a.insert(request.anchor);  // β* counts as processed
  std::unordered_set<Hash256> in_b;

  // The canister has blocks for everything in A; the adapter can free them.
  for (const auto& hash : request.processed) blocks_.erase(hash);

  bool multi_block = anchor_entry->height < config_.multi_block_below_height;
  std::size_t max_blocks = multi_block ? SIZE_MAX : 1;
  std::size_t total_bytes = 0;

  // Lines 4-16: BFS over the header tree starting at β*.
  std::deque<Hash256> queue;
  queue.push_back(request.anchor);
  while (!queue.empty() && response.next_headers.size() < config_.max_headers) {
    Hash256 cur = queue.front();
    queue.pop_front();
    const auto* entry = tree_.find(cur);
    if (entry == nullptr) continue;

    bool cur_in_a = in_a.contains(cur);
    if (!cur_in_a && (in_a.contains(entry->parent) || in_b.contains(entry->parent))) {
      auto block_it = blocks_.find(cur);
      if (block_it == blocks_.end()) {
        request_block(cur);  // served in a future response
      } else if (total_bytes < config_.max_response_bytes &&
                 response.blocks.size() < max_blocks) {
        // MAX_SIZE is a soft limit: an oversized block is still added.
        total_bytes += block_it->second->size();
        response.blocks.emplace_back(block_it->second, entry->header);
        in_b.insert(cur);
      }
    }
    if (!cur_in_a && !in_b.contains(cur)) {
      response.next_headers.push_back(entry->header);
      // Prefetch upcoming blocks so future requests can serve them in bulk
      // ("requested asynchronously so that the block may be served in the
      // response to a future request", §III-B).
      request_block(cur);
    }
    for (const auto& child : entry->children) queue.push_back(child);
  }
  span.attr("blocks", static_cast<std::uint64_t>(response.blocks.size()));
  span.attr("headers", static_cast<std::uint64_t>(response.next_headers.size()));
  span.attr("bytes", static_cast<std::uint64_t>(total_bytes));
  if (metrics_.request_latency_us != nullptr) {
    // Modelled serving latency: the fixed dispatch cost, 1 µs per 256 bytes
    // of block payload copied out, 2 µs per upcoming header walked.
    // Deterministic by construction (no wall clock).
    metrics_.request_latency_us->record(
        kDispatchUs + static_cast<std::uint64_t>(total_bytes) / 256 +
        2 * static_cast<std::uint64_t>(response.next_headers.size()));
  }
  return response;
}

}  // namespace icbtc::adapter
