#include "btcnet/network.h"

#include <algorithm>

namespace icbtc::btcnet {

namespace {
// Indexed by the Message variant alternative order.
constexpr const char* kTypeNames[] = {"inv",         "getheaders", "headers",
                                      "getdata",     "block",      "notfound",
                                      "tx",          "getaddr",    "addr",
                                      "cmpctblock",  "getblocktxn", "blocktxn",
                                      "reconsketch", "recondiff",  "reconfinalize"};
static_assert(std::size(kTypeNames) == std::variant_size_v<Message>);
}  // namespace

const char* message_type_name(std::size_t index) {
  return index < std::size(kTypeNames) ? kTypeNames[index] : "unknown";
}

std::size_t message_size(const Message& msg) {
  struct Sizer {
    std::size_t operator()(const MsgInv& m) const {
      return 8 + 36 * (m.block_hashes.size() + m.tx_ids.size());
    }
    std::size_t operator()(const MsgGetHeaders& m) const { return 8 + 32 * (m.locator.size() + 1); }
    std::size_t operator()(const MsgHeaders& m) const { return 8 + 81 * m.headers.size(); }
    std::size_t operator()(const MsgGetData& m) const {
      // The header's 8 bytes plus the message's count byte.
      return 9 + 36 * (m.block_hashes.size() + m.tx_ids.size());
    }
    std::size_t operator()(const MsgBlock& m) const { return 8 + m.block.size(); }
    std::size_t operator()(const MsgNotFound& m) const {
      return 8 + 36 * (m.block_hashes.size() + m.tx_ids.size());
    }
    std::size_t operator()(const MsgTx& m) const { return 8 + m.tx.size(); }
    std::size_t operator()(const MsgGetAddr&) const { return 8; }
    std::size_t operator()(const MsgAddr& m) const { return 8 + 30 * m.addresses.size(); }
    std::size_t operator()(const MsgCmpctBlock& m) const { return 8 + m.compact.wire_size(); }
    std::size_t operator()(const MsgGetBlockTxn& m) const { return 8 + 32 + 3 + 3 * m.indexes.size(); }
    std::size_t operator()(const MsgBlockTxn& m) const {
      std::size_t total = 8 + 32 + 3;
      for (const auto& tx : m.transactions) total += tx.size();
      return total;
    }
    std::size_t operator()(const MsgReconSketch& m) const {
      return 8 + 4 + 1 + 4 + m.sketch.wire_size();
    }
    std::size_t operator()(const MsgReconDiff& m) const {
      // Short ids travel as 6 bytes each; txids as full 32.
      return 8 + 4 + 1 + 1 + 4 + 4 + 6 * m.want.size() + 32 * m.have_txs.size();
    }
    std::size_t operator()(const MsgReconFinalize& m) const {
      return 8 + 4 + 1 + 32 * m.tx_ids.size();
    }
  };
  return std::visit(Sizer{}, msg);
}

util::SimTime LatencyModel::sample(std::size_t message_bytes, util::Rng& rng) const {
  double transfer = static_cast<double>(per_kilobyte) * static_cast<double>(message_bytes) / 1024.0;
  double raw = static_cast<double>(base) + transfer;
  double factor = 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
  return static_cast<util::SimTime>(raw * std::max(0.0, factor));
}

NodeId Network::attach(Endpoint* endpoint, bool ipv6, bool gossiped) {
  NodeId id = next_id_++;
  endpoints_[id] = endpoint;
  addresses_[id] = NetAddress{id, ipv6};
  if (gossiped) gossiped_.insert(id);
  return id;
}

void Network::detach(NodeId id) {
  for (NodeId peer : peers_of(id)) disconnect(id, peer);
  endpoints_.erase(id);
  addresses_.erase(id);
  gossiped_.erase(id);
  std::erase(dns_seeds_, id);
  partitioned_.erase(id);
}

void Network::add_dns_seed(NodeId id) {
  if (endpoints_.contains(id)) dns_seeds_.push_back(id);
}

std::vector<NetAddress> Network::query_dns_seeds() const {
  std::vector<NetAddress> out;
  out.reserve(dns_seeds_.size());
  for (NodeId id : dns_seeds_) out.push_back(addresses_.at(id));
  return out;
}

std::vector<NetAddress> Network::sample_addresses(std::size_t max, util::Rng& rng) const {
  std::vector<NetAddress> all;
  all.reserve(gossiped_.size());
  for (NodeId id : gossiped_) all.push_back(addresses_.at(id));
  // Sort for determinism (unordered_set iteration order is unspecified),
  // then shuffle with the caller's RNG.
  std::sort(all.begin(), all.end(),
            [](const NetAddress& x, const NetAddress& y) { return x.id < y.id; });
  rng.shuffle(all);
  if (all.size() > max) all.resize(max);
  return all;
}

bool Network::connect(NodeId a, NodeId b) {
  if (a == b || !endpoints_.contains(a) || !endpoints_.contains(b)) return false;
  auto [it, inserted] = links_.insert(make_link(a, b));
  (void)it;
  if (inserted) {
    endpoints_.at(a)->on_connected(b);
    endpoints_.at(b)->on_connected(a);
  }
  return inserted;
}

void Network::disconnect(NodeId a, NodeId b) {
  if (links_.erase(make_link(a, b)) > 0) {
    if (auto it = endpoints_.find(a); it != endpoints_.end()) it->second->on_disconnected(b);
    if (auto it = endpoints_.find(b); it != endpoints_.end()) it->second->on_disconnected(a);
  }
}

bool Network::connected(NodeId a, NodeId b) const { return links_.contains(make_link(a, b)); }

std::vector<NodeId> Network::peers_of(NodeId id) const {
  std::vector<NodeId> out;
  for (const auto& link : links_) {
    if (link.a == id) out.push_back(link.b);
    if (link.b == id) out.push_back(link.a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Network::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    messages_metric_ = bytes_metric_ = drops_metric_ = nullptr;
    msg_type_metrics_.fill(nullptr);
    msg_type_bytes_.fill(nullptr);
    return;
  }
  messages_metric_ = &registry->counter("net.messages");
  bytes_metric_ = &registry->counter("net.bytes");
  drops_metric_ = &registry->counter("net.drops");
  for (std::size_t i = 0; i < msg_type_metrics_.size(); ++i) {
    msg_type_metrics_[i] = &registry->counter(std::string("net.msg.") + kTypeNames[i]);
    msg_type_bytes_[i] = &registry->counter(std::string("net.bytes.") + kTypeNames[i]);
  }
}

void Network::send(NodeId from, NodeId to, Message msg) {
  if (!connected(from, to) || partitioned_.contains(from) != partitioned_.contains(to)) {
    if (drops_metric_ != nullptr) drops_metric_->inc();
    return;
  }
  std::size_t size = message_size(msg);
  ++messages_sent_;
  bytes_sent_ += size;
  if (messages_metric_ != nullptr) {
    messages_metric_->inc();
    bytes_metric_->inc(size);
    msg_type_metrics_[msg.index()]->inc();
    msg_type_bytes_[msg.index()]->inc(size);
  }
  util::SimTime delay = latency_.sample(size, rng_);
  // Capture the causal parent at send time: the delivery event then nests
  // under whatever span initiated the send, stitching request/response
  // chains into one trace across the scheduler boundary.
  obs::SpanContext parent = tracer_ != nullptr ? tracer_->current() : obs::SpanContext{};
  sim_->schedule(delay, [this, from, to, size, parent, m = std::move(msg)] {
    // The link may have been torn down or the endpoint detached in flight.
    if (!connected(from, to) || !endpoints_.contains(to) ||
        partitioned_.contains(from) != partitioned_.contains(to)) {
      if (drops_metric_ != nullptr) drops_metric_->inc();
      if (tracer_ != nullptr) {
        tracer_->event(obs::Severity::kDebug, "net.drop_in_flight",
                       std::string(message_type_name(m.index())), parent);
      }
      return;
    }
    obs::ScopedSpan span(tracer_, std::string("net.") + message_type_name(m.index()), "btcnet",
                         parent);
    span.attr("from", static_cast<std::uint64_t>(from));
    span.attr("to", static_cast<std::uint64_t>(to));
    span.attr("bytes", static_cast<std::uint64_t>(size));
    endpoints_.at(to)->deliver(from, m);
  });
}

void Network::set_partitioned(NodeId id, bool partitioned) {
  if (partitioned) {
    partitioned_.insert(id);
  } else {
    partitioned_.erase(id);
  }
}

}  // namespace icbtc::btcnet
