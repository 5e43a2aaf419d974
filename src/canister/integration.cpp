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

std::size_t BitcoinIntegration::utxos_response_bytes(
    const Outcome<GetUtxosResponse>& outcome) {
  if (!outcome.ok()) return 16;
  // outpoint (36) + value (8) + height (4) per UTXO, plus tip metadata.
  return 48 * outcome.value.utxos.size() + 44;
}

namespace {
/// Binds a finished client call to its trace: attrs on the root request
/// span (ended at the modelled call latency) plus one RequestCostRecord —
/// a Fig. 7 data point.
template <typename T>
void finish_request_trace(obs::ScopedSpan& span, const char* endpoint,
                          const CallResult<T>& result) {
  if (!span.active()) return;
  span.attr("latency_us", static_cast<std::int64_t>(result.latency));
  span.attr("instructions", result.instructions);
  span.attr("response_bytes", static_cast<std::uint64_t>(result.response_bytes));
  span.attr("cycles", result.cycles);
  obs::Tracer* tracer = span.tracer();
  tracer->record_request_cost(obs::RequestCostRecord{
      endpoint, span.context().trace_id, result.latency, result.instructions,
      static_cast<std::uint64_t>(result.response_bytes), result.cycles});
  span.end_at(span.start() + result.latency);
}
}  // namespace

CallResult<Outcome<GetUtxosResponse>> BitcoinIntegration::replicated_get_utxos(
    const GetUtxosRequest& request) {
  CallResult<Outcome<GetUtxosResponse>> result;
  obs::ScopedSpan span(tracer_, "request.get_utxos", "request");
  span.attr("kind", "replicated");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = canister_.get_utxos(request);
  result.instructions = segment.sample();
  result.response_bytes = utxos_response_bytes(result.outcome);
  result.latency = subnet_->sample_update_latency(result.instructions);
  result.cycles = subnet_->config().cost_model.update_cost_cycles(result.instructions,
                                                                  result.response_bytes);
  span.attr("status", to_string(result.outcome.status));
  finish_request_trace(span, "get_utxos", result);
  return result;
}

CallResult<Outcome<GetUtxosResponse>> BitcoinIntegration::query_get_utxos(
    const GetUtxosRequest& request) {
  CallResult<Outcome<GetUtxosResponse>> result;
  obs::ScopedSpan span(tracer_, "request.get_utxos", "request");
  span.attr("kind", "query");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = canister_.get_utxos(request);
  result.instructions = segment.sample();
  result.response_bytes = utxos_response_bytes(result.outcome);
  result.latency = subnet_->sample_query_latency(result.instructions);
  result.cycles = subnet_->config().cost_model.query_base;  // queries are free
  span.attr("status", to_string(result.outcome.status));
  finish_request_trace(span, "get_utxos.query", result);
  return result;
}

CallResult<Outcome<bitcoin::Amount>> BitcoinIntegration::replicated_get_balance(
    const std::string& address, int min_confirmations) {
  CallResult<Outcome<bitcoin::Amount>> result;
  obs::ScopedSpan span(tracer_, "request.get_balance", "request");
  span.attr("kind", "replicated");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = canister_.get_balance(address, min_confirmations);
  result.instructions = segment.sample();
  result.response_bytes = 16;
  result.latency = subnet_->sample_update_latency(result.instructions);
  result.cycles = subnet_->config().cost_model.update_cost_cycles(result.instructions,
                                                                  result.response_bytes);
  span.attr("status", to_string(result.outcome.status));
  finish_request_trace(span, "get_balance", result);
  return result;
}

CallResult<Outcome<bitcoin::Amount>> BitcoinIntegration::query_get_balance(
    const std::string& address, int min_confirmations) {
  CallResult<Outcome<bitcoin::Amount>> result;
  obs::ScopedSpan span(tracer_, "request.get_balance", "request");
  span.attr("kind", "query");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = canister_.get_balance(address, min_confirmations);
  result.instructions = segment.sample();
  result.response_bytes = 16;
  result.latency = subnet_->sample_query_latency(result.instructions);
  result.cycles = subnet_->config().cost_model.query_base;
  span.attr("status", to_string(result.outcome.status));
  finish_request_trace(span, "get_balance.query", result);
  return result;
}

CallResult<Status> BitcoinIntegration::replicated_send_transaction(const util::Bytes& raw_tx) {
  CallResult<Status> result;
  obs::ScopedSpan span(tracer_, "request.send_transaction", "request");
  span.attr("kind", "replicated");
  ic::InstructionMeter::Segment segment(canister_.meter());
  result.outcome = canister_.send_transaction(raw_tx);
  result.instructions = segment.sample();
  result.response_bytes = 8;
  result.latency = subnet_->sample_update_latency(result.instructions);
  result.cycles = subnet_->config().cost_model.update_cost_cycles(result.instructions,
                                                                  result.response_bytes);
  span.attr("status", to_string(result.outcome));
  finish_request_trace(span, "send_transaction", result);
  return result;
}

}  // namespace icbtc::canister
