// Wires the full architecture of Fig. 4 together: one Bitcoin adapter per IC
// replica (each with its own random connections into the Bitcoin network),
// the Bitcoin canister executing on the subnet, and the consensus-mediated
// request/response loop: each round, the canister's update request is
// answered by the *block maker's* adapter — a Byzantine maker may substitute
// an arbitrary (but block-valid) response, which is exactly the attack
// surface analysed in §IV-A (Lemma IV.3).
#pragma once

#include <functional>
#include <memory>
#include <type_traits>

#include "adapter/adapter.h"
#include "canister/bitcoin_canister.h"
#include "ic/subnet.h"

namespace icbtc::canister {

struct IntegrationConfig {
  adapter::AdapterConfig adapter;
  CanisterConfig canister;
};

/// A call measurement: what the caller observed.
template <typename T>
struct CallResult {
  T outcome;
  util::SimTime latency = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::size_t response_bytes = 0;
};

class BitcoinIntegration {
 public:
  /// Overrides the response the canister sees when a Byzantine replica is
  /// block maker. Returning nullopt falls through to that replica's adapter
  /// (which the simulation models as honest hardware running corrupt logic:
  /// the attacker substitutes payloads, not the networking stack).
  using ByzantineResponseProvider =
      std::function<std::optional<adapter::AdapterResponse>(const adapter::AdapterRequest&,
                                                            const ic::RoundInfo&)>;

  BitcoinIntegration(ic::Subnet& subnet, btcnet::Network& bitcoin_network,
                     const bitcoin::ChainParams& params, IntegrationConfig config,
                     std::uint64_t seed);
  ~BitcoinIntegration();

  BitcoinIntegration(const BitcoinIntegration&) = delete;
  BitcoinIntegration& operator=(const BitcoinIntegration&) = delete;

  BitcoinCanister& canister() { return canister_; }
  ic::Subnet& subnet() { return *subnet_; }
  adapter::BitcoinAdapter& adapter_of(std::uint32_t replica) { return *adapters_.at(replica); }
  std::size_t num_adapters() const { return adapters_.size(); }

  /// Starts all adapters and hooks the request loop into subnet rounds.
  void start();
  void stop();

  /// Attaches a tracer to the whole integration (nullptr detaches): the
  /// canister, every adapter, and this layer's own spans — an
  /// "ic.round_request" span per consensus round-trip and one root
  /// "request.<endpoint>" span per client call. Each client call also
  /// records a RequestCostRecord (a Fig. 7 data point) binding its sim-time
  /// latency, metered instructions, response bytes, and cycle cost. The
  /// caller is responsible for installing a clock on the tracer (normally
  /// the subnet's simulation time).
  void set_tracer(obs::Tracer* tracer);

  void set_byzantine_response_provider(ByzantineResponseProvider provider) {
    byzantine_provider_ = std::move(provider);
  }

  /// Pauses/resumes the canister's request loop (models canister downtime,
  /// the precondition of the Lemma IV.3 attack).
  void set_canister_down(bool down) { canister_down_ = down; }

  // ---- Client-side calls with the paper's latency & cost models ----

  CallResult<Outcome<GetUtxosResponse>> replicated_get_utxos(const GetUtxosRequest& request);
  CallResult<Outcome<GetUtxosResponse>> query_get_utxos(const GetUtxosRequest& request);
  CallResult<Outcome<bitcoin::Amount>> replicated_get_balance(const std::string& address,
                                                              int min_confirmations = 0);
  CallResult<Outcome<bitcoin::Amount>> query_get_balance(const std::string& address,
                                                         int min_confirmations = 0);
  CallResult<Status> replicated_send_transaction(const util::Bytes& raw_tx);

  std::uint64_t requests_made() const { return requests_made_; }

 private:
  void on_round(const ic::RoundInfo& info);
  /// One client call: runs `endpoint` on the canister under a root
  /// `span_name` span, meters it, samples the replicated or query latency
  /// and cycle cost, and records a RequestCostRecord named `record_name`.
  template <typename Endpoint>
  CallResult<std::invoke_result_t<Endpoint&>> call(const char* span_name,
                                                   const char* record_name, bool replicated,
                                                   Endpoint&& endpoint);

  ic::Subnet* subnet_;
  btcnet::Network* bitcoin_network_;
  IntegrationConfig config_;
  BitcoinCanister canister_;
  std::vector<std::unique_ptr<adapter::BitcoinAdapter>> adapters_;
  ByzantineResponseProvider byzantine_provider_;
  obs::Tracer* tracer_ = nullptr;
  std::size_t heartbeat_id_ = 0;
  bool running_ = false;
  bool canister_down_ = false;
  std::uint64_t requests_made_ = 0;
};

}  // namespace icbtc::canister
