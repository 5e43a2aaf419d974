// The Bitcoin adapter (§III-B): the per-IC-node process that connects the IC
// to the Bitcoin P2P network without intermediaries.
//
// It is an SPV-style client: it discovers peers through DNS seeds and addr
// gossip (thresholds t_l/t_u), keeps ℓ random outbound connections, syncs
// and validates the full block-header tree (storing *all* valid headers —
// fork resolution is deliberately left to the Bitcoin canister), fetches
// blocks on demand, relays outbound transactions from a 10-minute expiring
// cache, and answers the Bitcoin canister's requests per Algorithm 1.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "btcnet/network.h"
#include "chain/header_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace icbtc::adapter {

struct AdapterConfig {
  /// ℓ: outbound connections to maintain (5 on mainnet).
  std::size_t outbound_connections = 5;
  /// t_l / t_u: address-book thresholds (500/2000 mainnet, 100/1000 testnet,
  /// 1/1 regtest).
  std::size_t addr_lower_threshold = 500;
  std::size_t addr_upper_threshold = 2000;
  /// MAX_HEADERS: cap on the upcoming-header set N per response.
  std::size_t max_headers = 100;
  /// MAX_SIZE: soft cap on total block bytes per response (2 MiB).
  std::size_t max_response_bytes = 2 * 1024 * 1024;
  /// Height above which only a single block is returned per request
  /// (multi-block responses speed up initial sync; single-block responses
  /// are required for the §IV-A downtime defence). The production adapter
  /// hardcodes a mainnet height; harnesses set it per experiment.
  int multi_block_below_height = 0;

  static AdapterConfig for_params(const bitcoin::ChainParams& params);
};

/// The canister->adapter request of Algorithm 1: the anchor β*, the set A of
/// header hashes whose blocks the canister already has, and outbound
/// transactions T.
struct AdapterRequest {
  util::Hash256 anchor;
  std::vector<util::Hash256> processed;  // A
  std::vector<util::Bytes> transactions;  // raw serialized txs (T)
};

/// One block of a response with its header. The block is immutable and
/// shared, never copied: the adapter's store, the response and the
/// canister's unstable window hold the same object, which is freed when the
/// last of them lets go (the canister, once the anchor passes the block).
struct ResponseBlock {
  ResponseBlock(bitcoin::Block block, const bitcoin::BlockHeader& header)
      : block(std::make_shared<const bitcoin::Block>(std::move(block))), header(header) {}
  ResponseBlock(std::shared_ptr<const bitcoin::Block> block, const bitcoin::BlockHeader& header)
      : block(std::move(block)), header(header) {}

  std::shared_ptr<const bitcoin::Block> block;
  bitcoin::BlockHeader header;
};

/// The adapter's response: blocks B (with their headers) extending the
/// canister's tree, and upcoming headers N the canister lacks blocks for.
struct AdapterResponse {
  std::vector<ResponseBlock> blocks;               // B
  std::vector<bitcoin::BlockHeader> next_headers;  // N
};

class BitcoinAdapter : public btcnet::Endpoint {
 public:
  BitcoinAdapter(btcnet::Network& network, const bitcoin::ChainParams& params,
                 AdapterConfig config, util::Rng rng);
  ~BitcoinAdapter() override;

  BitcoinAdapter(const BitcoinAdapter&) = delete;
  BitcoinAdapter& operator=(const BitcoinAdapter&) = delete;

  btcnet::NodeId id() const { return id_; }
  const AdapterConfig& config() const { return config_; }

  /// Starts discovery, connection maintenance, and header sync.
  void start();
  void stop();

  /// Algorithm 1. Also ingests the request's transactions into the tx cache
  /// and prunes delivered blocks from the local block store.
  AdapterResponse handle_request(const AdapterRequest& request);

  /// Attaches a metrics registry (nullptr detaches): peer connections,
  /// header-sync progress, full-block requests, receipts and retries,
  /// tx-cache size/evictions, reconciliation sketches answered, and the
  /// "adapter.handle_request" SLO record (see obs/slo.h): each
  /// Algorithm 1 round-trip's modelled serving latency in
  /// `adapter.handle_request.latency_us` (µs; a base cost plus per-byte and
  /// per-header terms, a model of adapter-side work rather than a wall-clock
  /// measurement, so exports stay byte-identical across runs), and requests
  /// with an unknown anchor in `adapter.handle_request.errors`.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): an "adapter.handle_request" span
  /// per Algorithm 1 round-trip and flight-recorder events for block-request
  /// retries.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Introspection.
  const chain::HeaderTree& header_tree() const { return tree_; }
  std::size_t known_addresses() const { return address_book_.size(); }
  std::size_t active_connections() const { return connections_.size(); }
  std::vector<btcnet::NodeId> connected_peers() const;
  bool has_block(const util::Hash256& hash) const { return blocks_.contains(hash); }
  std::size_t cached_transactions() const { return tx_cache_.size(); }
  std::size_t blocks_stored() const { return blocks_.size(); }
  bool in_discovery() const { return discovering_; }

  // btcnet::Endpoint interface.
  void deliver(btcnet::NodeId from, const btcnet::Message& msg) override;
  void on_disconnected(btcnet::NodeId peer) override;

 private:
  void maintain();  // periodic: connections, addresses, retries, expiry
  void request_addresses();
  void open_connections();
  void sync_headers(btcnet::NodeId peer);
  void handle_headers(btcnet::NodeId from, const btcnet::MsgHeaders& msg);
  void handle_inv(btcnet::NodeId from, const btcnet::MsgInv& msg);
  void handle_block(const btcnet::MsgBlock& msg);
  void handle_get_data(btcnet::NodeId from, const btcnet::MsgGetData& msg);
  void handle_addr(const btcnet::MsgAddr& msg);
  void handle_recon_sketch(btcnet::NodeId from, const btcnet::MsgReconSketch& msg);
  void request_block(const util::Hash256& hash);
  void advertise_transactions();
  void expire_transactions();
  std::int64_t now_s() const;
  std::optional<btcnet::NodeId> random_peer();

  btcnet::Network* network_;
  const bitcoin::ChainParams* params_;
  AdapterConfig config_;
  util::Rng rng_;
  btcnet::NodeId id_ = btcnet::kInvalidNode;

  bool running_ = false;
  bool discovering_ = true;
  util::EventHandle maintenance_timer_{};

  // Address book (discovered, not yet necessarily connected). Only IPv6
  // addresses are usable (§III-B).
  std::vector<btcnet::NetAddress> address_book_;
  std::unordered_set<btcnet::NodeId> known_address_ids_;
  std::unordered_set<btcnet::NodeId> connections_;

  // Header tree B_a (all valid headers, forks included) and block store B_a.
  // A served block is shared with the response until the canister lists it
  // as processed.
  chain::HeaderTree tree_;
  std::unordered_map<util::Hash256, std::shared_ptr<const bitcoin::Block>> blocks_;

  struct PendingBlock {
    util::SimTime last_request = -1;
    btcnet::NodeId asked = btcnet::kInvalidNode;
  };
  std::unordered_map<util::Hash256, PendingBlock> pending_blocks_;

  struct CachedTx {
    bitcoin::Transaction tx;
    util::SimTime expires;
    /// Every peer that ever pulled this tx, including since-disconnected
    /// ones: eviction counts distinct deliveries, not current connections.
    std::unordered_set<btcnet::NodeId> delivered_to;
  };
  std::unordered_map<util::Hash256, CachedTx> tx_cache_;

  // Optional observability hooks; all nullptr when no registry is attached.
  struct Metrics {
    obs::Gauge* peers = nullptr;
    obs::Gauge* header_height = nullptr;
    obs::Counter* headers_accepted = nullptr;
    obs::Counter* blocks_received = nullptr;
    obs::Gauge* blocks_stored = nullptr;
    obs::Counter* block_requests = nullptr;
    obs::Counter* block_request_retries = nullptr;
    /// Saturation signal: blocks requested from peers but not yet stored.
    obs::Gauge* pending_block_requests = nullptr;
    obs::Counter* requests_handled = nullptr;
    obs::Histogram* request_latency_us = nullptr;
    obs::Counter* request_errors = nullptr;
    obs::Gauge* tx_cache_size = nullptr;
    obs::Counter* tx_cached = nullptr;
    obs::Counter* tx_delivered = nullptr;
    obs::Counter* tx_evicted_expired = nullptr;
    obs::Counter* tx_evicted_delivered = nullptr;
    obs::Counter* recon_sketches_answered = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::adapter
