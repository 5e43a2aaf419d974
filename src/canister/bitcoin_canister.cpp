#include "canister/bitcoin_canister.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "bitcoin/script.h"
#include "parallel/thread_pool.h"
#include "persist/checkpoint.h"
#include "util/byteio.h"

namespace icbtc::canister {

using bitcoin::Block;
using util::Hash256;

using ic::kInstructionsPerUs;

BitcoinCanister::EndpointCall::EndpointCall(BitcoinCanister& canister, std::string_view name,
                                            const EndpointMetrics& metrics)
    : metrics_(&metrics),
      segment_(canister.meter_),
      span_(canister.tracer_, std::string("canister.") + std::string(name), "canister") {}

BitcoinCanister::EndpointCall::~EndpointCall() {
  std::uint64_t instructions = segment_.sample();
  double modelled_us = static_cast<double>(instructions) / kInstructionsPerUs;
  if (span_.active()) {
    // Simulated time stands still while a call executes, so the span ends at
    // its modelled execution latency rather than at now().
    span_.attr("instructions", instructions);
    span_.attr("latency_ms", static_cast<double>(instructions) / (kInstructionsPerUs * 1000));
    span_.end_at(span_.start() + static_cast<obs::TraceTime>(modelled_us));
  }
  if (metrics_->calls == nullptr) return;
  metrics_->calls->inc();
  metrics_->instructions->record(instructions);
  metrics_->latency_us->record(static_cast<std::uint64_t>(modelled_us));
}

void BitcoinCanister::set_metrics(obs::MetricsRegistry* registry) {
  stable_utxos_.set_metrics(registry);
  unstable_index_.set_metrics(registry);
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  auto endpoint = [registry](const char* name) {
    EndpointMetrics em;
    std::string prefix = std::string("canister.") + name;
    em.calls = &registry->counter(prefix + ".calls");
    em.instructions = &registry->histogram(prefix + ".instructions");
    em.latency_us = &registry->histogram(prefix + ".latency_us");
    return em;
  };
  metrics_.get_utxos = endpoint("get_utxos");
  metrics_.get_balance = endpoint("get_balance");
  metrics_.send_transaction = endpoint("send_transaction");
  metrics_.fee_percentiles = endpoint("get_current_fee_percentiles");
  metrics_.block_headers = endpoint("get_block_headers");
  metrics_.process_response = endpoint("process_response");
  metrics_.sync_rejections = &registry->counter("canister.sync_rejections");
  metrics_.blocks_stored = &registry->counter("canister.blocks_stored");
  metrics_.headers_appended = &registry->counter("canister.headers_appended");
  metrics_.blocks_ingested = &registry->counter("canister.blocks_ingested");
  metrics_.ingest_instructions = &registry->histogram("canister.ingest.instructions");
  metrics_.anchor_height = &registry->gauge("canister.anchor_height");
  metrics_.tip_height = &registry->gauge("canister.tip_height");
  metrics_.unstable_blocks = &registry->gauge("canister.unstable_blocks");
  metrics_.pending = &registry->gauge("canister.pending_transactions");
  update_state_gauges();
}

void BitcoinCanister::update_state_gauges() {
  if (metrics_.anchor_height == nullptr) return;
  metrics_.anchor_height->set(tree_.root().height);
  metrics_.tip_height->set(tree_.best_height());
  metrics_.unstable_blocks->set(static_cast<std::int64_t>(unstable_index_.size()));
  metrics_.pending->set(static_cast<std::int64_t>(pending_txs_.size()));
}

bool BitcoinCanister::sync_gate() {
  if (is_synced()) return true;
  if (metrics_.sync_rejections != nullptr) metrics_.sync_rejections->inc();
  return false;
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotSynced: return "not synced";
    case Status::kBadAddress: return "bad address";
    case Status::kMinConfirmationsTooLarge: return "min_confirmations too large";
    case Status::kMalformedTransaction: return "malformed transaction";
    case Status::kBadPage: return "bad page token";
    case Status::kBadRange: return "bad height range";
  }
  return "?";
}

BitcoinCanister::BitcoinCanister(const bitcoin::ChainParams& params, CanisterConfig config)
    : params_(&params),
      config_(config),
      stable_utxos_(config.costs,
                    UtxoIndex::ShardConfig{config.utxo_shards, config.utxo_snapshot_reads,
                                           config.utxo_backend}),
      tree_(params, params.genesis_header) {
  // The genesis block's outputs are part of the stable set by definition
  // (the anchor starts at genesis).
  Block genesis = bitcoin::genesis_block(params);
  stable_utxos_.apply_block(genesis, 0, meter_);
  // stable_headers_ archives heights [0, anchor): the outgoing root is
  // pushed on every anchor advance, so genesis lands at index 0 then.
}

adapter::AdapterRequest BitcoinCanister::make_request() {
  adapter::AdapterRequest request;
  request.anchor = tree_.root_hash();
  request.processed = unstable_index_.hashes();
  while (!pending_txs_.empty()) {
    request.transactions.push_back(std::move(pending_txs_.front()));
    pending_txs_.pop_front();
  }
  update_state_gauges();
  return request;
}

BitcoinCanister::ProcessResult BitcoinCanister::process_response(
    const adapter::AdapterResponse& response, std::int64_t now_s) {
  EndpointCall call(*this, "process_response", metrics_.process_response);
  meter_.charge(config_.costs.request_overhead);
  ProcessResult result;
  // One owning pool reference for the whole response: fan-outs below stay
  // valid even if another thread replaces the shared pool mid-call.
  std::shared_ptr<parallel::ThreadPool> pool = parallel::shared_pool_ref();

  // Lines 1-15: validate and store each block, then try to advance the
  // anchor (possibly repeatedly: one arrival can make several blocks
  // stable).
  for (const auto& [block, header] : response.blocks) {
    // is_valid(b, β): well-formed, Merkle root matches the header. The
    // transactions themselves are NOT validated (§III-C: the canister relies
    // on the proof of work and the Bitcoin network's vetting). Checked
    // before the header is appended: β only enters T if both are valid.
    if (block == nullptr || block->hash() != header.hash() || !block->is_well_formed()) {
      continue;
    }
    // is_valid(β, T): same header checks the adapter performs, as a valid
    // extension of T.
    auto accept = tree_.accept(header, now_s);
    if (accept != chain::AcceptResult::kAccepted && accept != chain::AcceptResult::kDuplicate) {
      continue;
    }
    // The anchor's own block answers kDuplicate too, but it already left the
    // window: a response re-delivering it must not store it again.
    if (header.hash() == tree_.root_hash() || unstable_index_.contains(header.hash())) {
      continue;
    }

    const chain::HeaderTree::Entry* entry = tree_.find(header.hash());
    max_available_height_ = std::max(max_available_height_, entry->height);
    unstable_index_.add_block(header.hash(), block, entry->height, pool.get());
    ++result.blocks_stored;
    result.anchors_advanced += advance_anchor();
  }

  // Lines 16-20: append validated upcoming headers.
  for (const auto& header : response.next_headers) {
    if (tree_.accept(header, now_s) == chain::AcceptResult::kAccepted) {
      ++result.headers_appended;
    }
  }
  if (metrics_.blocks_stored != nullptr) {
    metrics_.blocks_stored->inc(result.blocks_stored);
    metrics_.headers_appended->inc(result.headers_appended);
  }
  update_state_gauges();
  return result;
}

std::size_t BitcoinCanister::advance_anchor() {
  std::size_t advanced = 0;
  for (;;) {
    const crypto::U256& anchor_work = tree_.root().block_work;  // w(β*)
    int next_height = tree_.root().height + 1;

    // B_next: blocks at height h(β*)+1 whose block data is available.
    Hash256 best;
    crypto::U256 best_depth(0);
    bool found = false;
    for (const auto& candidate : tree_.blocks_at_height(next_height)) {
      if (!unstable_index_.contains(candidate)) continue;
      crypto::U256 depth = tree_.depth_work(candidate);
      if (!found || depth > best_depth) {
        best = candidate;
        best_depth = depth;
        found = true;
      }
    }
    if (!found) break;
    if (!tree_.is_difficulty_stable(best, config_.stability_delta, anchor_work)) break;

    // process_block(U, b_next): migrate the block into the stable UTXO set
    // from the delta built at its arrival, shard-parallel when the shared
    // pool is installed. The owning pool reference is held across the
    // fan-out so a concurrent set_shared_pool() cannot tear the pool down
    // mid-application (see thread_pool.h).
    obs::ScopedSpan ingest_span(tracer_, "canister.ingest_block", "canister");
    std::shared_ptr<parallel::ThreadPool> pool = parallel::shared_pool_ref();
    IngestStats stats{stable_utxos_.apply(*unstable_index_.delta(best), meter_, pool.get()),
                      next_height};
    if (ingest_span.active()) {
      ingest_span.attr("height", static_cast<std::int64_t>(stats.height));
      ingest_span.attr("txs", static_cast<std::uint64_t>(stats.transactions));
      ingest_span.attr("inputs_removed", static_cast<std::uint64_t>(stats.inputs_removed));
      ingest_span.attr("outputs_inserted", static_cast<std::uint64_t>(stats.outputs_inserted));
      ingest_span.attr("instructions", stats.instructions);
      ingest_span.attr("shards_touched", static_cast<std::uint64_t>(stats.shards_touched));
      ingest_span.attr("critical_path_instructions", stats.critical_path_instructions);
      ingest_span.end_at(ingest_span.start() +
                         static_cast<obs::TraceTime>(static_cast<double>(stats.instructions) /
                                                     kInstructionsPerUs));
    }
    ingest_log_.push_back(stats);
    if (metrics_.blocks_ingested != nullptr) {
      metrics_.blocks_ingested->inc();
      metrics_.ingest_instructions->record(stats.instructions);
    }

    // The stable block header is archived (headers are kept forever); the
    // block itself is discarded and competing branches are pruned
    // (remove_blocks(T, B_next) — all but the stable header are removed).
    // Only now may the block and its delta go: the apply above read from it.
    // The new root is the block just applied, so it is pruned too, along with
    // every block whose header went with its fork.
    stable_headers_.push_back(tree_.root().header);
    tree_.reroot(best);
    unstable_index_.prune(
        [&](const util::Hash256& hash) { return hash != best && tree_.contains(hash); });
    recompute_max_available_height();
    ++advanced;
    if (tracer_ != nullptr) {
      tracer_->event(obs::Severity::kInfo, "anchor_advanced",
                     "height " + std::to_string(tree_.root().height));
    }
  }
  return advanced;
}

void BitcoinCanister::recompute_max_available_height() {
  int max_block_height = tree_.root().height;
  for (const auto& hash : unstable_index_.hashes()) {
    const auto* entry = tree_.find(hash);
    if (entry != nullptr) max_block_height = std::max(max_block_height, entry->height);
  }
  max_available_height_ = max_block_height;
}

bool BitcoinCanister::is_synced() const {
  // max_available_height_ is maintained on block arrival and recomputed when
  // anchor advances or pruning shrink the unstable set, so the sync gate is
  // O(1) instead of a tree_.find per stored block on every call.
  return tree_.max_height() - max_available_height_ <= config_.sync_slack;
}

Outcome<util::Bytes> BitcoinCanister::script_for(const std::string& address) const {
  auto decoded = bitcoin::decode_address(address, params_->network);
  if (!decoded) return {Status::kBadAddress, {}};
  return {Status::kOk, bitcoin::script_for_address(*decoded)};
}

std::pair<Hash256, int> BitcoinCanister::considered_tip(int min_confirmations) const {
  const std::vector<Hash256>& chain = tree_.current_chain();
  int root_height = tree_.root().height;
  if (min_confirmations <= 0) {
    return {chain.back(), root_height + static_cast<int>(chain.size()) - 1};
  }
  for (std::size_t i = chain.size(); i-- > 0;) {
    // At most one block per height can be c-stable, and on the current chain
    // stability is monotone towards the root, so the first hit is the tip.
    if (tree_.is_confirmation_stable(chain[i], min_confirmations)) {
      return {chain[i], root_height + static_cast<int>(i)};
    }
  }
  // Nothing above the anchor qualifies; answer from the stable state.
  return {tree_.root_hash(), root_height};
}

std::vector<Utxo> BitcoinCanister::collect_utxos(const util::Bytes& script,
                                                 int considered_height,
                                                 std::uint64_t stable_read_cost) {
  // The unstable chain above the anchor up to the considered height and its
  // first block-data gap. Metering contract (unstable_index.h): one
  // unstable_block_scan per visited block and one unstable_utxo_read per
  // output paying the script, survivors and spent-again outputs alike.
  UnstableIndex::View view = unstable_index_.view(tree_.current_chain(), script, considered_height);
  meter_.charge(config_.costs.unstable_block_scan * view.visited_blocks);
  meter_.charge(config_.costs.unstable_utxo_read * view.matched_outputs);
  std::vector<Utxo> result;
  for (const auto& u : view.survivors) result.push_back(Utxo{u.outpoint, u.value, u.height});
  // Stable entries are already sorted by height descending.
  for (const auto& stored : stable_utxos_.utxos_for_script(script, meter_, stable_read_cost)) {
    // Spent by an unstable tx at or below the considered height.
    if (unstable_index_.spent(stored.outpoint, considered_height)) continue;
    result.push_back(Utxo{stored.outpoint, stored.value, stored.height});
  }
  return result;
}

std::size_t BitcoinCanister::collect_utxos_page(const util::Bytes& script, int considered_height,
                                                std::size_t offset, std::size_t limit,
                                                std::vector<Utxo>& out) {
  UnstableIndex::View view = unstable_index_.view(tree_.current_chain(), script, considered_height);
  meter_.charge(config_.costs.unstable_block_scan * view.visited_blocks);
  meter_.charge(config_.costs.unstable_utxo_read * view.matched_outputs);
  const std::size_t unstable_total = view.survivors.size();
  for (std::size_t i = offset; i < unstable_total && out.size() < limit; ++i) {
    const StoredUtxo& u = view.survivors[i];
    out.push_back(Utxo{u.outpoint, u.value, u.height});
  }
  // Single ordered walk of the stable list: the spent filter is applied
  // before ranking, so page boundaries line up with the unpaged view, and
  // only appended entries are metered.
  std::size_t stable_offset = offset > unstable_total ? offset - unstable_total : 0;
  std::vector<StoredUtxo> stable_page;
  std::size_t stable_total = stable_utxos_.utxos_for_script_paged(
      script, meter_, stable_offset, limit - out.size(), stable_page,
      [&](const bitcoin::OutPoint& op) { return !unstable_index_.spent(op, considered_height); });
  for (const auto& s : stable_page) out.push_back(Utxo{s.outpoint, s.value, s.height});
  return unstable_total + stable_total;
}

Outcome<GetUtxosResponse> BitcoinCanister::get_utxos(const GetUtxosRequest& request) {
  EndpointCall call(*this, "get_utxos", metrics_.get_utxos);
  if (!sync_gate()) return {Status::kNotSynced, {}};
  if (request.min_confirmations > config_.stability_delta) {
    // Responses could be missing outputs spent below the anchor (§III-C).
    return {Status::kMinConfirmationsTooLarge, {}};
  }
  auto script = script_for(request.address);
  if (!script.ok()) return {script.status, {}};

  auto [tip_hash, tip_height] = considered_tip(request.min_confirmations);

  // The page token (opaque to clients) binds the offset to the considered
  // tip: [tip hash (32)][offset (8 LE)]. A raw offset alone is unsound —
  // when a block arrives or a reorg happens between pages, offsets into the
  // rebuilt UTXO list shift and clients silently see duplicated or skipped
  // UTXOs. A token minted against a different tip is rejected instead.
  std::size_t offset = 0;
  if (request.page) {
    if (request.page->size() != 40) return {Status::kBadPage, {}};
    util::ByteReader r(*request.page);
    Hash256 page_tip = r.hash256();
    offset = static_cast<std::size_t>(r.u64le());
    if (page_tip != tip_hash) return {Status::kBadPage, {}};
  }

  GetUtxosResponse response;
  response.tip_hash = tip_hash;
  response.tip_height = tip_height;
  std::size_t total =
      collect_utxos_page(script.value, tip_height, offset, config_.utxos_per_page, response.utxos);
  if (offset > total) return {Status::kBadPage, {}};

  std::size_t end = offset + response.utxos.size();
  if (end < total) {
    util::ByteWriter w;
    w.bytes(tip_hash.span());
    w.u64le(end);
    response.next_page = std::move(w).take();
  }
  return {Status::kOk, std::move(response)};
}

Outcome<bitcoin::Amount> BitcoinCanister::get_balance(const std::string& address,
                                                      int min_confirmations) {
  EndpointCall call(*this, "get_balance", metrics_.get_balance);
  if (!sync_gate()) return {Status::kNotSynced, {}};
  if (min_confirmations > config_.stability_delta) {
    return {Status::kMinConfirmationsTooLarge, {}};
  }
  auto script = script_for(address);
  if (!script.ok()) return {script.status, {}};
  auto [tip_hash, tip_height] = considered_tip(min_confirmations);
  (void)tip_hash;
  bitcoin::Amount total = 0;
  for (const auto& u :
       collect_utxos(script.value, tip_height, config_.costs.stable_balance_read)) {
    total += u.value;
  }
  return {Status::kOk, total};
}

Status BitcoinCanister::send_transaction(const util::Bytes& raw_transaction) {
  EndpointCall call(*this, "send_transaction", metrics_.send_transaction);
  // Basic syntactic checks only (§III-C): decodable and well-formed.
  try {
    bitcoin::Transaction tx = bitcoin::Transaction::parse(raw_transaction);
    if (!tx.is_well_formed() || tx.is_coinbase()) return Status::kMalformedTransaction;
  } catch (const util::DecodeError&) {
    return Status::kMalformedTransaction;
  }
  pending_txs_.push_back(raw_transaction);
  if (metrics_.pending != nullptr) {
    metrics_.pending->set(static_cast<std::int64_t>(pending_txs_.size()));
  }
  return Status::kOk;
}

Outcome<std::vector<std::uint64_t>> BitcoinCanister::get_current_fee_percentiles() {
  EndpointCall call(*this, "get_current_fee_percentiles", metrics_.fee_percentiles);
  if (!sync_gate()) return {Status::kNotSynced, {}};
  // Scan the last fee_window_blocks blocks of the current chain. Outputs
  // created anywhere in the unstable chain (or in the stable set) resolve
  // input values; transactions with unresolvable inputs are skipped, as in
  // the production canister.
  const std::vector<util::Hash256>& chain = tree_.current_chain();
  std::size_t first =
      chain.size() > static_cast<std::size_t>(config_.fee_window_blocks)
          ? chain.size() - static_cast<std::size_t>(config_.fee_window_blocks)
          : 1;  // skip the anchor itself (its block is discarded)
  // Only the window's prevouts are ever looked up: collect them, then take
  // their values from the unstable blocks' delta outputs in chain order (a
  // later write wins), so spends of younger-but-out-of-window outputs still
  // resolve.
  std::unordered_map<bitcoin::OutPoint, std::optional<bitcoin::Amount>> unstable_values;
  for (std::size_t i = first; i < chain.size(); ++i) {
    const Block* block = unstable_index_.block(chain[i]);
    if (block == nullptr) continue;
    for (const auto& tx : block->transactions) {
      if (tx.is_coinbase()) continue;
      for (const auto& in : tx.inputs) unstable_values.try_emplace(in.prevout);
    }
  }
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const BlockDelta* delta = unstable_index_.delta(chain[i]);
    if (delta == nullptr) continue;
    for (const auto& out : delta->outputs) {
      auto w = unstable_values.find(out.outpoint);
      if (w != unstable_values.end()) w->second = out.value;
    }
  }

  std::vector<double> fee_rates;  // millisatoshi per vbyte
  for (std::size_t i = first; i < chain.size(); ++i) {
    const Block* block = unstable_index_.block(chain[i]);
    if (block == nullptr) continue;
    meter_.charge(config_.costs.unstable_block_scan);
    for (const auto& tx : block->transactions) {
      if (tx.is_coinbase()) continue;
      bitcoin::Amount in_value = 0;
      bool resolved = true;
      for (const auto& in : tx.inputs) {
        if (auto w = unstable_values.find(in.prevout); w != unstable_values.end() && w->second) {
          in_value += *w->second;
        } else if (auto stable = stable_utxos_.find(in.prevout)) {
          in_value += stable->value;
        } else {
          resolved = false;
          break;
        }
      }
      if (!resolved) continue;
      bitcoin::Amount fee = in_value - tx.total_output_value();
      if (fee < 0) continue;  // nonsensical (unvalidated) transaction
      double vbytes = static_cast<double>(tx.size());
      fee_rates.push_back(static_cast<double>(fee) * 1000.0 / vbytes);
      meter_.charge(config_.costs.per_tx_overhead);
    }
  }
  if (fee_rates.empty()) return {Status::kOk, {}};
  std::sort(fee_rates.begin(), fee_rates.end());
  std::vector<std::uint64_t> percentiles;
  percentiles.reserve(101);
  for (int p = 0; p <= 100; ++p) {
    double rank = static_cast<double>(p) / 100.0 * static_cast<double>(fee_rates.size() - 1);
    // Nearest-rank: truncating the fractional rank would bias every
    // non-endpoint percentile towards the lower sample.
    auto index = std::min(static_cast<std::size_t>(std::llround(rank)), fee_rates.size() - 1);
    percentiles.push_back(static_cast<std::uint64_t>(fee_rates[index]));
  }
  return {Status::kOk, std::move(percentiles)};
}

Outcome<BitcoinCanister::GetBlockHeadersResponse> BitcoinCanister::get_block_headers(
    int start_height, int end_height) {
  EndpointCall call(*this, "get_block_headers", metrics_.block_headers);
  if (!sync_gate()) return {Status::kNotSynced, {}};
  int tip = tree_.best_height();
  if (end_height < 0) end_height = tip;
  if (start_height < 0 || start_height > end_height || end_height > tip) {
    return {Status::kBadRange, {}};
  }
  GetBlockHeadersResponse response;
  response.tip_height = tip;
  int anchor = tree_.root().height;
  // stable_headers_ archives heights 0..anchor-1; the anchor itself is the
  // tree root; heights above come from the current chain.
  const std::vector<util::Hash256>& chain = tree_.current_chain();
  for (int h = start_height; h <= end_height; ++h) {
    meter_.charge(config_.costs.unstable_utxo_read);
    if (h < anchor) {
      response.headers.push_back(stable_headers_.at(static_cast<std::size_t>(h)));
    } else {
      response.headers.push_back(
          tree_.find(chain.at(static_cast<std::size_t>(h - anchor)))->header);
    }
  }
  return {Status::kOk, std::move(response)};
}

namespace {
// Checkpoint section ids (persist envelope; strictly increasing on the wire).
constexpr std::uint32_t kSecMeta = 1;            // anchor: height, prev work, root header
constexpr std::uint32_t kSecHeaders = 2;         // unstable headers, parents first
constexpr std::uint32_t kSecUnstableBlocks = 3;  // full blocks, sorted by hash
constexpr std::uint32_t kSecStableHeaders = 4;   // archived headers below the anchor
constexpr std::uint32_t kSecUtxos = 5;           // stable set, sorted by outpoint
constexpr std::uint32_t kSecPending = 6;         // outbound tx queue, queue order
constexpr std::uint32_t kSecMeter = 7;           // lifetime instruction total
}  // namespace

util::Bytes BitcoinCanister::write_checkpoint() const {
  persist::CheckpointWriter cw;
  {
    util::ByteWriter& w = cw.begin_section(kSecMeta);
    const auto& root = tree_.root();
    w.i32le(root.height);
    crypto::U256 prev_work = root.cumulative_work - root.block_work;
    w.bytes(prev_work.to_be_bytes().span());
    root.header.serialize(w);
  }
  {
    // Height order keeps parents before children; within a height the hashes
    // are sorted so the bytes do not depend on ingestion interleaving.
    util::ByteWriter& w = cw.begin_section(kSecHeaders);
    std::vector<bitcoin::BlockHeader> headers;
    for (int h = tree_.root().height + 1; h <= tree_.max_height(); ++h) {
      std::vector<Hash256> at_height = tree_.blocks_at_height(h);
      std::sort(at_height.begin(), at_height.end());
      for (const auto& hash : at_height) headers.push_back(tree_.find(hash)->header);
    }
    w.varint(headers.size());
    for (const auto& header : headers) header.serialize(w);
  }
  {
    util::ByteWriter& w = cw.begin_section(kSecUnstableBlocks);
    std::vector<Hash256> hashes = unstable_index_.hashes();
    w.varint(hashes.size());
    for (const auto& hash : hashes) w.var_bytes(unstable_index_.block(hash)->serialize());
  }
  {
    util::ByteWriter& w = cw.begin_section(kSecStableHeaders);
    w.varint(stable_headers_.size());
    for (const auto& header : stable_headers_) header.serialize(w);
  }
  // The canonical UTXO encoding (sorted by outpoint): invariant under the
  // writer's shard count, backend, and snapshot mode.
  stable_utxos_.encode(cw.begin_section(kSecUtxos));
  {
    util::ByteWriter& w = cw.begin_section(kSecPending);
    w.varint(pending_txs_.size());
    for (const auto& raw : pending_txs_) w.var_bytes(raw);
  }
  {
    util::ByteWriter& w = cw.begin_section(kSecMeter);
    w.u64le(meter_.count());
  }
  return std::move(cw).finish();
}

BitcoinCanister BitcoinCanister::from_checkpoint(const bitcoin::ChainParams& params,
                                                 CanisterConfig config,
                                                 util::ByteSpan checkpoint) {
  using Code = persist::CheckpointError::Code;
  persist::CheckpointReader reader(checkpoint);  // validates envelope + every CRC

  // Section payloads decode with ByteReader, which throws util::DecodeError
  // on any truncation/malformation; wrap so callers always see the typed
  // error, and build into a fresh canister so a failure can never leave a
  // partially restored one behind.
  try {
    BitcoinCanister canister(params, config);

    {
      util::ByteReader r = reader.section(kSecMeta);
      int root_height = r.i32le();
      crypto::U256 prev_work = crypto::U256::from_be_bytes(r.bytes(32));
      bitcoin::BlockHeader root = bitcoin::BlockHeader::deserialize(r);
      if (!r.done()) throw util::DecodeError("meta trailing bytes");
      canister.stable_utxos_ =
          UtxoIndex(config.costs, UtxoIndex::ShardConfig{config.utxo_shards,
                                                         config.utxo_snapshot_reads,
                                                         config.utxo_backend});
      canister.tree_ = chain::HeaderTree(params, root, root_height, prev_work);
    }

    // Headers were fully validated before the checkpoint was written; only
    // structural linkage matters on restore. Like the UTXO section, the
    // header and block sections restore only in the writer's canonical
    // order, so a restored canister writes back exactly the bytes it read.
    chain::ValidationOptions lax;
    lax.check_pow = false;
    lax.check_difficulty = false;
    lax.check_timestamp = false;
    {
      util::ByteReader r = reader.section(kSecHeaders);
      std::size_t n = r.checked_len(r.varint());
      std::pair<int, Hash256> last{canister.tree_.root().height, Hash256{}};
      for (std::size_t i = 0; i < n; ++i) {
        bitcoin::BlockHeader header = bitcoin::BlockHeader::deserialize(r);
        if (canister.tree_.accept(header, 0, nullptr, lax) != chain::AcceptResult::kAccepted) {
          throw util::DecodeError("orphan header");
        }
        std::pair<int, Hash256> key{canister.tree_.find(header.hash())->height, header.hash()};
        if (key <= last) throw util::DecodeError("headers not ascending by (height, hash)");
        last = key;
      }
      if (!r.done()) throw util::DecodeError("headers trailing bytes");
    }

    {
      util::ByteReader r = reader.section(kSecUnstableBlocks);
      std::size_t n = r.checked_len(r.varint());
      std::shared_ptr<parallel::ThreadPool> pool = parallel::shared_pool_ref();
      Hash256 last;
      for (std::size_t i = 0; i < n; ++i) {
        auto block = std::make_shared<const Block>(Block::parse(r.var_bytes()));
        Hash256 hash = block->hash();
        if (!canister.tree_.contains(hash)) throw util::DecodeError("stray block");
        if (i > 0 && hash <= last) throw util::DecodeError("unstable blocks not ascending by hash");
        last = hash;
        canister.unstable_index_.add_block(hash, std::move(block),
                                           canister.tree_.find(hash)->height, pool.get());
      }
      if (!r.done()) throw util::DecodeError("blocks trailing bytes");
      canister.recompute_max_available_height();
    }

    {
      util::ByteReader r = reader.section(kSecStableHeaders);
      std::size_t n = r.checked_len(r.varint());
      canister.stable_headers_.clear();
      canister.stable_headers_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        canister.stable_headers_.push_back(bitcoin::BlockHeader::deserialize(r));
      }
      if (!r.done()) throw util::DecodeError("stable headers trailing bytes");
    }

    {
      util::ByteReader r = reader.section(kSecUtxos);
      canister.stable_utxos_.decode(r);
      if (!r.done()) throw util::DecodeError("utxo trailing bytes");
    }

    {
      util::ByteReader r = reader.section(kSecPending);
      std::size_t n = r.checked_len(r.varint());
      canister.pending_txs_.clear();
      for (std::size_t i = 0; i < n; ++i) canister.pending_txs_.push_back(r.var_bytes());
      if (!r.done()) throw util::DecodeError("pending trailing bytes");
    }

    {
      util::ByteReader r = reader.section(kSecMeter);
      std::uint64_t total = r.u64le();
      if (!r.done()) throw util::DecodeError("meter trailing bytes");
      // The writer's lifetime total subsumes everything this constructor
      // charged (genesis seeding); replaying it keeps the restored canister's
      // meter bit-identical to a never-stopped twin.
      canister.meter_.reset();
      canister.meter_.charge(total);
    }

    return canister;
  } catch (const persist::CheckpointError&) {
    throw;
  } catch (const util::DecodeError& e) {
    throw persist::CheckpointError(Code::kMalformed, e.what());
  }
}

void BitcoinCanister::checkpoint(const std::string& path) const {
  persist::write_checkpoint_file(path, write_checkpoint());
}

BitcoinCanister BitcoinCanister::restore(const bitcoin::ChainParams& params,
                                         CanisterConfig config, const std::string& path) {
  util::Bytes bytes = persist::read_checkpoint_file(path);
  return from_checkpoint(params, config, bytes);
}

std::uint64_t BitcoinCanister::memory_bytes() const {
  std::uint64_t unstable = 0;
  for (const auto& hash : unstable_index_.hashes()) unstable += unstable_index_.block(hash)->size();
  return stable_utxos_.memory_bytes() + unstable + 81 * (stable_headers_.size() + tree_.size());
}

}  // namespace icbtc::canister
