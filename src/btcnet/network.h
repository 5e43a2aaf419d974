// Transport and registry for the simulated Bitcoin P2P network.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitcoin/script.h"
#include "btcnet/messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/sim.h"

namespace icbtc::btcnet {

/// Wire-protocol name of the Message variant alternative at `index`
/// ("inv", "headers", "block", ...), or "unknown" if out of range.
const char* message_type_name(std::size_t index);

/// Anything that can be attached to the network: full nodes and Bitcoin
/// adapters implement this.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Delivers a message from a connected peer.
  virtual void deliver(NodeId from, const Message& msg) = 0;

  /// Called when a connection is established / torn down.
  virtual void on_connected(NodeId peer) { (void)peer; }
  virtual void on_disconnected(NodeId peer) { (void)peer; }
};

/// Latency model: base propagation delay plus per-byte transfer time, with
/// multiplicative jitter.
struct LatencyModel {
  util::SimTime base = 50 * util::kMillisecond;
  util::SimTime per_kilobyte = 1 * util::kMillisecond;
  double jitter = 0.2;  // +- fraction

  util::SimTime sample(std::size_t message_bytes, util::Rng& rng) const;
};

/// The simulated network: address registry, connections, and message
/// delivery with latency. Deterministic given the seed of the supplied RNG.
class Network {
 public:
  Network(util::Simulation& sim, util::Rng rng, LatencyModel latency = {})
      : sim_(&sim), rng_(std::move(rng)), latency_(latency) {}

  util::Simulation& sim() { return *sim_; }
  util::Rng& rng() { return rng_; }
  /// One signature cache for every node on this network: each input's
  /// signature is checked once network-wide, and the other nodes (and
  /// re-admissions after a reorg) pay a hash probe.
  bitcoin::SignatureCache& signature_cache() { return signature_cache_; }

  /// Registers an endpoint; returns its assigned id. `gossiped` controls
  /// whether the address appears in addr gossip / DNS seed answers (adapters
  /// do not advertise themselves).
  NodeId attach(Endpoint* endpoint, bool ipv6 = true, bool gossiped = true);
  void detach(NodeId id);

  /// Marks an address as a DNS seed answer source.
  void add_dns_seed(NodeId id);
  /// The DNS-seed bootstrap answer: addresses of seed nodes.
  std::vector<NetAddress> query_dns_seeds() const;

  /// All gossiped addresses (for nodes answering getaddr).
  std::vector<NetAddress> sample_addresses(std::size_t max, util::Rng& rng) const;

  bool connect(NodeId a, NodeId b);
  void disconnect(NodeId a, NodeId b);
  bool connected(NodeId a, NodeId b) const;
  std::vector<NodeId> peers_of(NodeId id) const;
  bool exists(NodeId id) const { return endpoints_.contains(id); }

  /// Sends `msg` from `from` to `to`; silently dropped if the two are not
  /// connected at send time (as a TCP reset would).
  void send(NodeId from, NodeId to, Message msg);

  /// Partitions: while set, messages between the two groups are dropped.
  void set_partitioned(NodeId id, bool partitioned);

  std::size_t message_count() const { return messages_sent_; }
  std::size_t bytes_sent() const { return bytes_sent_; }

  /// Attaches a metrics registry (nullptr detaches): counts messages and
  /// bytes by type (`net.msg.<type>`, `net.bytes.<type>`), total
  /// messages/bytes, and drops (disconnected link, partition cut, or torn
  /// down in flight).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches). Each delivery then runs inside a
  /// "net.<type>" span whose parent is the span that was current at *send*
  /// time, so request/response chains (e.g. an adapter GetSuccessors
  /// round-trip) form one causal trace across scheduled events.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  struct Link {
    NodeId a, b;
    bool operator==(const Link&) const = default;
  };
  static Link make_link(NodeId a, NodeId b) { return a < b ? Link{a, b} : Link{b, a}; }
  struct LinkHash {
    std::size_t operator()(const Link& l) const noexcept {
      return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(l.a) << 32) | l.b);
    }
  };

  util::Simulation* sim_;
  util::Rng rng_;
  LatencyModel latency_;
  bitcoin::SignatureCache signature_cache_;
  NodeId next_id_ = 1;
  std::unordered_map<NodeId, Endpoint*> endpoints_;
  std::unordered_map<NodeId, NetAddress> addresses_;
  std::unordered_set<NodeId> gossiped_;
  std::vector<NodeId> dns_seeds_;
  std::unordered_set<Link, LinkHash> links_;
  std::unordered_set<NodeId> partitioned_;
  std::size_t messages_sent_ = 0;
  std::size_t bytes_sent_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Counter* drops_metric_ = nullptr;
  std::array<obs::Counter*, std::variant_size_v<Message>> msg_type_metrics_{};
  std::array<obs::Counter*, std::variant_size_v<Message>> msg_type_bytes_{};
};

}  // namespace icbtc::btcnet
