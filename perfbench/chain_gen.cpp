#include "chain_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "chain/block_builder.h"
#include "parallel/thread_pool.h"

namespace perfbench {

using namespace icbtc;

namespace {

constexpr std::size_t kDealOutputsPerTx = 200;
constexpr std::size_t kDealTxsPerBlock = 25;

std::size_t jittered(util::Rng& rng, double base, double jitter) {
  double factor = 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(base * factor)));
}

util::Hash160 random_key(util::Rng& rng) {
  util::Hash160 h;
  auto hash = rng.next_hash();
  std::copy(hash.data.begin(), hash.data.begin() + 20, h.data.begin());
  return h;
}

}  // namespace

ChainGen::ChainGen(std::uint64_t seed)
    : params_(&bitcoin::ChainParams::regtest()),
      rng_(seed),
      tree_(*params_, params_->genesis_header),
      tip_(params_->genesis_header.hash()),
      time_(params_->genesis_header.time) {
  util::Hash160 miner;
  miner.data.fill(0xee);  // pays no population address
  coinbase_script_ = bitcoin::p2pkh_script(miner);
}

std::string ChainGen::address(std::size_t index) const {
  return bitcoin::p2pkh_address(keys_[index], params_->network);
}

void ChainGen::append_block(std::vector<bitcoin::Transaction> txs, std::size_t inputs,
                            std::size_t outputs) {
  time_ += 600;
  bitcoin::Block block = chain::build_child_block(tree_, tip_, time_, coinbase_script_,
                                                  bitcoin::block_subsidy(0), std::move(txs),
                                                  tag_++);
  if (tree_.accept(block.header, static_cast<std::int64_t>(time_) + 10000) !=
      chain::AcceptResult::kAccepted) {
    throw std::logic_error("perfbench: generated block rejected");
  }
  tip_ = block.hash();
  blocks_.push_back(block.serialize());
  times_.push_back(time_);
  inputs_.push_back(inputs);
  outputs_.push_back(outputs + 1);  // + coinbase
  utxo_delta_.push_back(static_cast<std::int64_t>(outputs + 1) -
                        static_cast<std::int64_t>(inputs));
}

void ChainGen::deal_population(const PopulationSpec& spec) {
  hot_ = spec.hot;
  keys_.resize(spec.addresses);
  dealt_.assign(spec.addresses, 1);
  for (std::size_t a = 0; a < spec.addresses; ++a) keys_[a] = random_key(rng_);
  // The paper's measured skew over its sampled addresses (§IV-B). The
  // per-rank counts are drawn once from a fixed seed, so every seed queries
  // the same UTXO-count profile; the seed varies keys, blocks and schedules.
  util::Rng skew(0x736b6577);
  for (std::size_t a = 0; a < spec.hot; ++a) {
    double roll = skew.next_double();
    if (roll < 0.517) {
      dealt_[a] = static_cast<std::uint32_t>(1 + skew.next_below(49));
    } else if (roll < 0.676) {
      dealt_[a] = static_cast<std::uint32_t>(50 + skew.next_below(150));
    } else if (roll < 0.789) {
      dealt_[a] = static_cast<std::uint32_t>(200 + skew.next_below(800));
    } else {
      dealt_[a] = static_cast<std::uint32_t>(1000 + skew.next_below(500));
    }
  }

  std::vector<bitcoin::Transaction> batch;
  bitcoin::Transaction tx;
  std::size_t batch_outputs = 0;
  auto close_tx = [&] {
    population_txids_.push_back(tx.txid());
    batch_outputs += tx.outputs.size();
    batch.push_back(std::move(tx));
    tx = bitcoin::Transaction{};
    if (batch.size() == kDealTxsPerBlock) {
      // The dealing inputs are synthetic (the canister does not validate
      // transactions, §III-C) and spend nothing that exists.
      append_block(std::move(batch), 0, batch_outputs);
      batch.clear();
      batch_outputs = 0;
    }
  };
  for (std::size_t a = 0; a < spec.addresses; ++a) {
    util::Bytes script = bitcoin::p2pkh_script(keys_[a]);
    for (std::uint32_t u = 0; u < dealt_[a]; ++u) {
      if (tx.inputs.empty()) {
        bitcoin::TxIn in;
        in.prevout.txid = rng_.next_hash();
        tx.inputs.push_back(in);
      }
      tx.outputs.push_back(bitcoin::TxOut{kDealValue, script});
      ++population_utxos_;
      if (tx.outputs.size() == kDealOutputsPerTx) close_tx();
    }
  }
  if (!tx.outputs.empty()) close_tx();
  if (!batch.empty()) append_block(std::move(batch), 0, batch_outputs);
  population_spent_.assign(population_utxos_, false);
  population_unspent_ = population_utxos_;
}

void ChainGen::add_empty_blocks(int n) {
  for (int i = 0; i < n; ++i) append_block({}, 0, 0);
}

bitcoin::OutPoint ChainGen::take_population_outpoint() {
  for (;;) {
    std::size_t k = static_cast<std::size_t>(rng_.next_below(population_utxos_));
    if (population_spent_[k]) continue;
    population_spent_[k] = true;
    --population_unspent_;
    return bitcoin::OutPoint{population_txids_[k / kDealOutputsPerTx],
                             static_cast<std::uint32_t>(k % kDealOutputsPerTx)};
  }
}

void ChainGen::add_stream_block(const StreamShape& shape) {
  std::size_t n_tx = jittered(rng_, static_cast<double>(shape.transactions), shape.jitter);
  std::vector<bitcoin::Transaction> txs(n_tx);
  std::size_t inputs = 0, outputs = 0;
  // Outputs become spendable from the next block on: no in-block chains.
  std::vector<bitcoin::OutPoint> created;
  for (auto& tx : txs) {
    std::size_t n_in = jittered(rng_, shape.inputs_per_tx, 0.66);
    for (std::size_t i = 0; i < n_in; ++i) {
      bitcoin::TxIn in;
      bool from_population = population_unspent_ > population_utxos_ / 4 &&
                             (stream_spendable_.empty() ||
                              rng_.next_double() < shape.population_spend_share);
      if (from_population) {
        in.prevout = take_population_outpoint();
      } else if (!stream_spendable_.empty()) {
        std::size_t pick = static_cast<std::size_t>(rng_.next_below(stream_spendable_.size()));
        in.prevout = stream_spendable_[pick];
        stream_spendable_[pick] = stream_spendable_.back();
        stream_spendable_.pop_back();
      } else {
        continue;
      }
      tx.inputs.push_back(in);
    }
    if (tx.inputs.empty()) throw std::logic_error("perfbench: nothing left to spend");
    inputs += tx.inputs.size();
    std::size_t n_out = jittered(rng_, shape.outputs_per_tx, 0.66);
    for (std::size_t o = 0; o < n_out; ++o) {
      util::Hash160 key = rng_.next_double() < shape.hot_output_share
                              ? keys_[static_cast<std::size_t>(rng_.next_below(hot_))]
                              : random_key(rng_);
      auto value = static_cast<bitcoin::Amount>(1000 + rng_.next_below(100000));
      tx.outputs.push_back(bitcoin::TxOut{value, bitcoin::p2pkh_script(key)});
    }
    outputs += n_out;
    tx.lock_time = static_cast<std::uint32_t>(tag_);
    util::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < n_out; ++v) created.push_back({txid, v});
  }
  stream_spendable_.insert(stream_spendable_.end(), created.begin(), created.end());
  append_block(std::move(txs), inputs, outputs);
}

std::unique_ptr<canister::BitcoinCanister> make_canister() {
  return std::make_unique<canister::BitcoinCanister>(bitcoin::ChainParams::regtest(),
                                                     canister::CanisterConfig{});
}

bool feed(canister::BitcoinCanister& canister, const ChainGen& chain, std::size_t from,
          std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    bitcoin::Block block = bitcoin::Block::parse(chain.block_bytes(i));
    bitcoin::BlockHeader header = block.header;
    adapter::AdapterResponse response;
    response.blocks.emplace_back(std::move(block), header);
    if (canister.process_response(response, chain.arrival_time_s(i)).blocks_stored != 1) {
      return false;
    }
  }
  return true;
}

double per(std::uint64_t count, std::uint64_t base) {
  return base == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(base);
}

void attach_counters(canister::BitcoinCanister& canister, Counters& counters) {
  canister.set_metrics(&counters.registry);
  parallel::shared_pool()->set_metrics(&counters.registry);
  canister.set_delta_build_clock([] { return static_cast<std::uint64_t>(now_us()); });
}

void detach_counters(canister::BitcoinCanister& canister) {
  canister.set_metrics(nullptr);
  parallel::shared_pool()->set_metrics(nullptr);
  canister.set_delta_build_clock({});
}

void add_canister_layer_metrics(const canister::BitcoinCanister& canister, Counters& counters,
                                std::uint64_t blocks, double overhead_pct, Result& result) {
  std::uint64_t hits = counters.get("canister.delta.memo_hits");
  std::uint64_t lookups = hits + counters.get("canister.delta.memo_misses");
  result.per_layer.push_back({"trace.overhead_pct", overhead_pct, "%"});
  result.per_layer.push_back({"canister.sync_rejections",
                              static_cast<double>(counters.get("canister.sync_rejections")),
                              "count"});
  result.per_layer.push_back(
      {"pool.tasks_per_block", per(counters.get("pool.tasks_executed"), blocks), "count"});
  result.per_layer.push_back({"canister.delta.memo_hit_ratio", 100.0 * per(hits, lookups), "%"});
  result.per_layer.push_back(
      {"utxo.resident_bytes_per_utxo",
       per(canister.stable_utxos().resident_bytes(), canister.utxo_count()), "B"});
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(util::Rng& rng) const {
  double u = rng.next_double();
  return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

Call sample_call(util::Rng& rng) {
  double roll = rng.next_double();
  if (roll < 0.45) return Call::kGetUtxos;
  if (roll < 0.90) return Call::kGetBalance;
  return Call::kSendTransaction;
}

std::vector<util::Bytes> make_raw_transactions(std::size_t n, util::Rng& rng) {
  std::vector<util::Bytes> out;
  for (std::size_t i = 0; i < n; ++i) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout.txid = rng.next_hash();
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{5000, bitcoin::p2pkh_script(random_key(rng))});
    out.push_back(tx.serialize());
  }
  return out;
}

}  // namespace perfbench
