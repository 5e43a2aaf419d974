// Simulated Internet Computer subnet: blockchain-based state machine
// replication with rotating, unpredictable block makers and deterministic
// finalization (§II-A). Because execution is deterministic, honest replicas
// hold identical canister state, so the simulation executes canisters once
// per subnet while modelling the *consensus-visible* behaviour per replica:
// which node makes each block (Byzantine makers can pick the payload, the
// crux of Lemma IV.3), round timing, and latency/cost of calls.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "crypto/threshold_ecdsa.h"
#include "crypto/threshold_schnorr.h"
#include "ic/metering.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/sim.h"

namespace icbtc::ic {

struct SubnetConfig {
  std::uint32_t num_nodes = 13;      // n = 3f+1
  std::uint32_t num_byzantine = 0;   // actually corrupted nodes (< n/3 assumed)
  double round_jitter = 0.15;  // fractional jitter on the 1 s round duration

  CycleCostModel cost_model;

  // Offline threshold-ECDSA presignature pool, mirroring the IC: quadruples
  // are precomputed between rounds so sign_with_ecdsa only pays the online
  // phase. Depth 0 disables precomputation (every request deals online);
  // the pool refills once the stock reaches the low watermark.
  std::size_t ecdsa_presig_depth = 16;
  std::size_t ecdsa_presig_low_watermark = 4;

  std::uint32_t max_faulty() const { return (num_nodes - 1) / 3; }
  /// Threshold for tECDSA and certification: 2f+1.
  std::uint32_t threshold() const { return 2 * max_faulty() + 1; }
};

/// Per-round information passed to canister heartbeats.
struct RoundInfo {
  std::uint64_t round = 0;
  std::uint32_t block_maker = 0;
  bool block_maker_byzantine = false;
  util::SimTime time = 0;
};

class Subnet {
 public:
  Subnet(util::Simulation& sim, SubnetConfig config, std::uint64_t seed);

  const SubnetConfig& config() const { return config_; }
  util::Simulation& sim() { return *sim_; }

  /// Starts the round loop.
  void start();
  void stop();

  std::uint64_t round() const { return round_; }
  std::uint32_t current_block_maker() const { return block_maker_; }
  bool node_is_byzantine(std::uint32_t node) const;

  /// Registers a per-round callback (canister heartbeats / timers). Returns
  /// an id usable with unregister_heartbeat.
  std::size_t register_heartbeat(std::function<void(const RoundInfo&)> fn);
  void unregister_heartbeat(std::size_t id);

  /// Latency samples for the two call flavours. Instructions influence query
  /// latency directly (single replica executes synchronously); update
  /// latency is dominated by consensus rounds.
  util::SimTime sample_update_latency(std::uint64_t instructions);
  util::SimTime sample_query_latency(std::uint64_t instructions);

  /// The subnet's threshold-ECDSA service (t = 2f+1 of n), as exposed to
  /// canisters through the management canister API.
  crypto::ThresholdEcdsaService& ecdsa() { return ecdsa_; }

  /// Signs with a quorum of honest replicas; models the extra consensus
  /// latency of the signing protocol via `sample_signing_latency`.
  crypto::Signature sign_with_ecdsa(const util::Hash256& digest,
                                    const crypto::DerivationPath& path);

  /// Signs every pending request of a round in one pass (shared Lagrange
  /// coefficients, batched verification); element i corresponds to request
  /// i. One signing-latency sample covers the whole batch — the batch rides
  /// a single signing round, which is the point of batching.
  std::vector<crypto::Signature> sign_with_ecdsa_batch(
      const std::vector<crypto::ThresholdEcdsaService::SignRequest>& requests);

  util::SimTime sample_signing_latency();

  /// The subnet's threshold-Schnorr service (BIP-340), the second signing
  /// protocol canisters can use (for taproot outputs).
  crypto::ThresholdSchnorrService& schnorr() { return schnorr_; }
  crypto::SchnorrSignature sign_with_schnorr(const util::Hash256& message,
                                             const crypto::SchnorrDerivationPath& path);

  /// Number of rounds in which a Byzantine node was block maker.
  std::uint64_t byzantine_maker_rounds() const { return byzantine_maker_rounds_; }

  /// Attaches a metrics registry (nullptr detaches):
  ///   ic.rounds                     counter   — consensus rounds dispatched
  ///   ic.byzantine_maker_rounds     counter   — rounds with a Byzantine maker
  ///   ic.heartbeats                 gauge     — registered heartbeat callbacks
  ///   ic.round_dispatch.latency_us  histogram — gap between round dispatches
  /// The last is the "ic.round_dispatch" cadence SLO (obs/slo.h): a round
  /// that fires late is a saturated subnet.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  void run_round();
  void schedule_next_round();
  /// First 2f+1 honest replica indices (1-based), the signing quorum. Throws
  /// std::runtime_error when fewer than 2f+1 nodes are honest.
  std::vector<std::uint32_t> honest_signing_quorum() const;

  util::Simulation* sim_;
  SubnetConfig config_;
  util::Rng rng_;
  crypto::ThresholdEcdsaService ecdsa_;
  crypto::ThresholdSchnorrService schnorr_;

  std::uint64_t round_ = 0;
  std::uint32_t block_maker_ = 0;
  std::vector<bool> byzantine_;
  bool running_ = false;
  util::EventHandle pending_{};
  std::uint64_t byzantine_maker_rounds_ = 0;

  std::vector<std::pair<std::size_t, std::function<void(const RoundInfo&)>>> heartbeats_;
  std::size_t next_heartbeat_id_ = 1;

  struct Metrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* byzantine_maker_rounds = nullptr;
    obs::Gauge* heartbeats = nullptr;
    obs::Histogram* round_dispatch_us = nullptr;
  };
  Metrics metrics_;
  util::SimTime last_round_time_ = -1;
};

}  // namespace icbtc::ic
