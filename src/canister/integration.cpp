#include "canister/integration.h"

namespace icbtc::canister {

namespace {
/// The canister requests adapter updates every this many rounds.
constexpr std::uint64_t kRequestEveryRounds = 2;
}  // namespace

BitcoinIntegration::BitcoinIntegration(ic::Subnet& subnet, btcnet::Network& bitcoin_network,
                                       const bitcoin::ChainParams& params,
                                       IntegrationConfig config, std::uint64_t seed)
    : subnet_(&subnet),
      bitcoin_network_(&bitcoin_network),
      config_(config),
      canister_(params, config.canister) {
  util::Rng rng(seed);
  adapters_.reserve(subnet.config().num_nodes);
  for (std::uint32_t i = 0; i < subnet.config().num_nodes; ++i) {
    adapters_.push_back(std::make_unique<adapter::BitcoinAdapter>(
        bitcoin_network, params, config.adapter, rng.fork()));
  }
}

BitcoinIntegration::~BitcoinIntegration() { stop(); }

void BitcoinIntegration::start() {
  if (running_) return;
  running_ = true;
  for (auto& adapter : adapters_) adapter->start();
  heartbeat_id_ = subnet_->register_heartbeat([this](const ic::RoundInfo& info) {
    on_round(info);
  });
}

void BitcoinIntegration::stop() {
  if (!running_) return;
  running_ = false;
  subnet_->unregister_heartbeat(heartbeat_id_);
  for (auto& adapter : adapters_) adapter->stop();
}

void BitcoinIntegration::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  canister_.set_tracer(tracer);
  for (auto& adapter : adapters_) adapter->set_tracer(tracer);
}

void BitcoinIntegration::on_round(const ic::RoundInfo& info) {
  if (canister_down_) return;
  if (info.round % kRequestEveryRounds != 0) return;

  // The canister's request goes through consensus; whichever replica makes
  // this round's block supplies the adapter response included in it. The
  // round span parents both the adapter's handle_request and the canister's
  // process_response, giving one Algorithm 1+2 trace per round-trip.
  obs::ScopedSpan span(tracer_, "ic.round_request", "ic");
  span.attr("round", info.round);
  span.attr("block_maker", static_cast<std::uint64_t>(info.block_maker));
  if (info.block_maker_byzantine) span.attr("byzantine", "true");

  adapter::AdapterRequest request = canister_.make_request();
  ++requests_made_;

  std::optional<adapter::AdapterResponse> response;
  if (info.block_maker_byzantine && byzantine_provider_) {
    response = byzantine_provider_(request, info);
  }
  if (!response) {
    response = adapters_.at(info.block_maker)->handle_request(request);
  }
  std::int64_t now_s =
      static_cast<std::int64_t>(canister_.params().genesis_header.time) +
      subnet_->sim().now() / util::kSecond;
  canister_.process_response(*response, now_s);
}

namespace {
/// Modelled certified response sizes.
std::size_t response_bytes(const Outcome<GetUtxosResponse>& outcome) {
  if (!outcome.ok()) return 16;
  // outpoint (36) + value (8) + height (4) per UTXO, plus tip metadata.
  return 48 * outcome.value.utxos.size() + 44;
}
std::size_t response_bytes(const Outcome<bitcoin::Amount>&) { return 16; }
std::size_t response_bytes(Status) { return 8; }

Status status_of(Status status) { return status; }
template <typename T>
Status status_of(const Outcome<T>& outcome) {
  return outcome.status;
}
}  // namespace

template <typename Endpoint>
CallResult<std::invoke_result_t<Endpoint&>> BitcoinIntegration::call(const char* span_name,
                                                                     const char* record_name,
                                                                     bool replicated,
                                                                     Endpoint&& endpoint) {
  CallResult<std::invoke_result_t<Endpoint&>> result;
  obs::ScopedSpan span(tracer_, span_name, "request");
  span.attr("kind", replicated ? "replicated" : "query");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = endpoint();
  result.instructions = segment.sample();
  result.response_bytes = response_bytes(result.outcome);
  if (replicated) {
    result.latency = subnet_->sample_update_latency(result.instructions);
    result.cycles = subnet_->config().cost_model.update_cost_cycles(result.instructions,
                                                                    result.response_bytes);
  } else {
    result.latency = subnet_->sample_query_latency(result.instructions);
    result.cycles = subnet_->config().cost_model.query_base;  // queries are free
  }
  span.attr("status", to_string(status_of(result.outcome)));
  // Bind the finished call to its trace: attrs on the root span (ended at
  // the modelled call latency) plus one RequestCostRecord, a Fig. 7 data
  // point.
  if (!span.active()) return result;
  span.attr("latency_us", static_cast<std::int64_t>(result.latency));
  span.attr("instructions", result.instructions);
  span.attr("response_bytes", static_cast<std::uint64_t>(result.response_bytes));
  span.attr("cycles", result.cycles);
  span.tracer()->record_request_cost(obs::RequestCostRecord{
      record_name, span.context().trace_id, result.latency, result.instructions,
      static_cast<std::uint64_t>(result.response_bytes), result.cycles});
  span.end_at(span.start() + result.latency);
  return result;
}

CallResult<Outcome<GetUtxosResponse>> BitcoinIntegration::replicated_get_utxos(
    const GetUtxosRequest& request) {
  return call("request.get_utxos", "get_utxos", /*replicated=*/true,
              [&] { return canister_.get_utxos(request); });
}

CallResult<Outcome<GetUtxosResponse>> BitcoinIntegration::query_get_utxos(
    const GetUtxosRequest& request) {
  return call("request.get_utxos", "get_utxos.query", /*replicated=*/false,
              [&] { return canister_.get_utxos(request); });
}

CallResult<Outcome<bitcoin::Amount>> BitcoinIntegration::replicated_get_balance(
    const std::string& address, int min_confirmations) {
  return call("request.get_balance", "get_balance", /*replicated=*/true,
              [&] { return canister_.get_balance(address, min_confirmations); });
}

CallResult<Outcome<bitcoin::Amount>> BitcoinIntegration::query_get_balance(
    const std::string& address, int min_confirmations) {
  return call("request.get_balance", "get_balance.query", /*replicated=*/false,
              [&] { return canister_.get_balance(address, min_confirmations); });
}

CallResult<Status> BitcoinIntegration::replicated_send_transaction(const util::Bytes& raw_tx) {
  return call("request.send_transaction", "send_transaction", /*replicated=*/true,
              [&] { return canister_.send_transaction(raw_tx); });
}

}  // namespace icbtc::canister
