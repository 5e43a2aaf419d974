#include "ic/subnet.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/presig_pool.h"

namespace icbtc::ic {

namespace {
/// Nominal consensus round duration, before `round_jitter`.
constexpr util::SimTime kRoundInterval = util::kSecond;

// Replicated (update) call latency components, calibrated to the paper's
// mainnet measurements (min ~7s, mean <10s, p90 ~18s for cross-subnet calls
// to the Bitcoin canister).
constexpr util::SimTime kUpdateBaseLatency = 4 * util::kSecond;  // ingress + xnet routing
constexpr std::uint32_t kUpdateRounds = 3;                         // induction..certification
constexpr double kUpdateLatencyJitter = 0.6;                       // long-tailed share

// Query latency: single-replica execution, no consensus.
constexpr util::SimTime kQueryBaseLatency = 120 * util::kMillisecond;  // network + scheduling

crypto::ThresholdEcdsaServiceConfig ecdsa_service_config(const SubnetConfig& config) {
  crypto::ThresholdEcdsaServiceConfig ec;
  ec.pool_depth = config.ecdsa_presig_depth;
  ec.pool_low_watermark = config.ecdsa_presig_low_watermark;
  return ec;
}
}  // namespace

Subnet::Subnet(util::Simulation& sim, SubnetConfig config, std::uint64_t seed)
    : sim_(&sim),
      config_(config),
      rng_(seed),
      ecdsa_(config.threshold(), config.num_nodes, seed ^ 0xecd5a5eedULL,
             ecdsa_service_config(config)),
      schnorr_(config.threshold(), config.num_nodes, seed ^ 0x5c40044bb1ULL) {
  if (config_.num_nodes == 0) throw std::invalid_argument("Subnet: need nodes");
  if (config_.num_byzantine >= config_.num_nodes) {
    throw std::invalid_argument("Subnet: too many byzantine nodes");
  }
  byzantine_.assign(config_.num_nodes, false);
  // Corrupt a uniformly random subset (positions do not matter but this way
  // node index carries no meaning).
  auto corrupted = rng_.sample_indices(config_.num_nodes, config_.num_byzantine);
  for (auto i : corrupted) byzantine_[i] = true;
  block_maker_ = static_cast<std::uint32_t>(rng_.next_below(config_.num_nodes));
  // Prefill the presignature pool: the offline phase runs before any signing
  // demand, as it would between consensus rounds on the IC.
  ecdsa_.pool().refill();
}

bool Subnet::node_is_byzantine(std::uint32_t node) const {
  return node < byzantine_.size() && byzantine_[node];
}

void Subnet::start() {
  if (running_) return;
  running_ = true;
  schedule_next_round();
}

void Subnet::stop() {
  running_ = false;
  sim_->cancel(pending_);
  pending_ = {};
}

void Subnet::schedule_next_round() {
  double jitter = 1.0 + config_.round_jitter * (2.0 * rng_.next_double() - 1.0);
  auto delay = static_cast<util::SimTime>(static_cast<double>(kRoundInterval) * jitter);
  pending_ = sim_->schedule(delay, [this] { run_round(); });
}

void Subnet::run_round() {
  if (!running_) return;
  ++round_;
  // The IC's random beacon makes the block maker unpredictable; model it as
  // a fresh uniform draw each round.
  block_maker_ = static_cast<std::uint32_t>(rng_.next_below(config_.num_nodes));
  if (node_is_byzantine(block_maker_)) ++byzantine_maker_rounds_;

  util::SimTime now = sim_->now();
  std::uint64_t gap_us = last_round_time_ >= 0
                             ? static_cast<std::uint64_t>(now - last_round_time_)
                             : static_cast<std::uint64_t>(kRoundInterval);
  last_round_time_ = now;
  if (metrics_.rounds != nullptr) {
    metrics_.rounds->inc();
    if (node_is_byzantine(block_maker_)) metrics_.byzantine_maker_rounds->inc();
    metrics_.round_dispatch_us->record(gap_us);
  }

  RoundInfo info;
  info.round = round_;
  info.block_maker = block_maker_;
  info.block_maker_byzantine = node_is_byzantine(block_maker_);
  info.time = sim_->now();
  // Copy: heartbeats may register/unregister during iteration.
  auto callbacks = heartbeats_;
  for (auto& [id, fn] : callbacks) fn(info);
  schedule_next_round();
}

std::size_t Subnet::register_heartbeat(std::function<void(const RoundInfo&)> fn) {
  std::size_t id = next_heartbeat_id_++;
  heartbeats_.emplace_back(id, std::move(fn));
  if (metrics_.heartbeats != nullptr) {
    metrics_.heartbeats->set(static_cast<std::int64_t>(heartbeats_.size()));
  }
  return id;
}

void Subnet::unregister_heartbeat(std::size_t id) {
  std::erase_if(heartbeats_, [id](const auto& entry) { return entry.first == id; });
  if (metrics_.heartbeats != nullptr) {
    metrics_.heartbeats->set(static_cast<std::int64_t>(heartbeats_.size()));
  }
}

void Subnet::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.rounds = &registry->counter("ic.rounds");
  metrics_.byzantine_maker_rounds = &registry->counter("ic.byzantine_maker_rounds");
  metrics_.heartbeats = &registry->gauge("ic.heartbeats");
  metrics_.round_dispatch_us = &registry->histogram("ic.round_dispatch.latency_us");
  metrics_.heartbeats->set(static_cast<std::int64_t>(heartbeats_.size()));
}

util::SimTime Subnet::sample_update_latency(std::uint64_t instructions) {
  // Consensus-dominated: base (ingress + cross-subnet routing) plus a few
  // rounds, plus a long-tailed component; execution time itself is minor but
  // large responses add certification work.
  double rounds = static_cast<double>(kUpdateRounds) * static_cast<double>(kRoundInterval);
  double exec_ns = kNsPerInstruction * static_cast<double>(instructions);
  double base = static_cast<double>(kUpdateBaseLatency) + rounds + exec_ns / 1000.0;  // ns -> us
  // Long tail: exponential surcharge (retries, queueing, xnet batching).
  double tail = rng_.next_exponential(kUpdateLatencyJitter * base);
  return static_cast<util::SimTime>(base + tail);
}

util::SimTime Subnet::sample_query_latency(std::uint64_t instructions) {
  double exec_ns = kNsPerInstruction * static_cast<double>(instructions);
  double base = static_cast<double>(kQueryBaseLatency) + exec_ns / 1000.0;
  double jitter = rng_.next_exponential(0.25 * base);
  return static_cast<util::SimTime>(base + jitter);
}

util::SimTime Subnet::sample_signing_latency() {
  // Threshold signing needs additional consensus rounds to agree on the
  // presignature and deliver shares.
  double base = 2.0 * static_cast<double>(kRoundInterval);
  double tail = rng_.next_exponential(0.5 * base);
  return static_cast<util::SimTime>(base + tail);
}

crypto::SchnorrSignature Subnet::sign_with_schnorr(const util::Hash256& message,
                                                   const crypto::SchnorrDerivationPath& path) {
  return schnorr_.sign(message, path, honest_signing_quorum());
}

std::vector<std::uint32_t> Subnet::honest_signing_quorum() const {
  // Honest replicas suffice: 2f+1 <= number of honest nodes.
  std::vector<std::uint32_t> participants;
  for (std::uint32_t i = 0; i < config_.num_nodes && participants.size() < config_.threshold();
       ++i) {
    if (!byzantine_[i]) participants.push_back(i + 1);  // signer indices are 1-based
  }
  if (participants.size() < config_.threshold()) {
    throw std::runtime_error("signing quorum: not enough honest replicas");
  }
  return participants;
}

crypto::Signature Subnet::sign_with_ecdsa(const util::Hash256& digest,
                                          const crypto::DerivationPath& path) {
  return ecdsa_.sign(digest, path, honest_signing_quorum());
}

std::vector<crypto::Signature> Subnet::sign_with_ecdsa_batch(
    const std::vector<crypto::ThresholdEcdsaService::SignRequest>& requests) {
  return ecdsa_.sign_batch(requests, honest_signing_quorum());
}

}  // namespace icbtc::ic
