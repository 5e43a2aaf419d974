// Seeded input generation for the canister workloads: an address population
// with the paper's UTXO-count skew dealt through synthetic blocks, and a
// stream of mainnet-shaped blocks on top of it. Everything is generated and
// serialized before timing starts; the canister only ever sees block bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "bitcoin/params.h"
#include "canister/bitcoin_canister.h"
#include "chain/header_tree.h"
#include "util/rng.h"

namespace perfbench {

/// Every population UTXO is worth this much.
constexpr icbtc::bitcoin::Amount kDealValue = 1000;

/// bench_load's population: 1M addresses, 2048 hot ones with the paper's
/// 517/159/113/211 skew, a one-UTXO tail — about 1.77M UTXOs.
struct PopulationSpec {
  std::size_t addresses = 1'000'000;
  std::size_t hot = 2048;
};

/// Mainnet block shape of the paper's Fig. 6 stream: ~700 transactions,
/// ~2.1k inputs and ~2.3k outputs per block.
struct StreamShape {
  std::size_t transactions = 700;
  double inputs_per_tx = 3.0;
  double outputs_per_tx = 3.3;
  double jitter = 0.2;            // relative +- per block
  double hot_output_share = 0.05; // outputs paying hot population addresses
  double population_spend_share = 0.5;
};

/// The benchmark's chain, in height order (block i has height i + 1).
class ChainGen {
 public:
  explicit ChainGen(std::uint64_t seed);

  /// Deals the population through blocks of 25 transactions x 200 outputs.
  void deal_population(const PopulationSpec& spec);
  /// Appends coinbase-only blocks.
  void add_empty_blocks(int n);
  /// Appends one mainnet-shaped block whose inputs spend population
  /// outpoints and earlier stream outputs (never the same outpoint twice).
  void add_stream_block(const StreamShape& shape);

  std::size_t size() const { return blocks_.size(); }
  const icbtc::util::Bytes& block_bytes(std::size_t i) const { return blocks_[i]; }
  /// UTXOs the block adds to the set once stable (outputs minus spends).
  std::int64_t utxo_delta(std::size_t i) const { return utxo_delta_[i]; }
  std::size_t inputs(std::size_t i) const { return inputs_[i]; }
  std::size_t outputs(std::size_t i) const { return outputs_[i]; }
  /// The canister's notion of "now" when block i arrives.
  std::int64_t arrival_time_s(std::size_t i) const { return times_[i] + 10000; }

  std::size_t population_size() const { return dealt_.size(); }
  std::uint32_t dealt(std::size_t address) const { return dealt_[address]; }
  const icbtc::util::Hash160& key(std::size_t address) const { return keys_[address]; }
  /// P2PKH address string of a population index on regtest.
  std::string address(std::size_t index) const;

 private:
  void append_block(std::vector<icbtc::bitcoin::Transaction> txs, std::size_t inputs,
                    std::size_t outputs);
  icbtc::bitcoin::OutPoint take_population_outpoint();

  const icbtc::bitcoin::ChainParams* params_;
  icbtc::util::Rng rng_;
  icbtc::chain::HeaderTree tree_;
  icbtc::util::Hash256 tip_;
  std::uint32_t time_;
  std::uint64_t tag_ = 1;
  icbtc::util::Bytes coinbase_script_;

  std::vector<icbtc::util::Bytes> blocks_;
  std::vector<std::int64_t> times_;
  std::vector<std::int64_t> utxo_delta_;
  std::vector<std::size_t> inputs_;
  std::vector<std::size_t> outputs_;

  std::vector<icbtc::util::Hash160> keys_;
  std::vector<std::uint32_t> dealt_;
  std::size_t hot_ = 0;
  std::size_t population_utxos_ = 0;
  // Population outpoint k is output k % 200 of population tx k / 200.
  std::vector<icbtc::util::Hash256> population_txids_;
  std::vector<bool> population_spent_;
  std::size_t population_unspent_ = 0;
  std::vector<icbtc::bitcoin::OutPoint> stream_spendable_;
};

/// The canister every canister workload measures: regtest addresses, the
/// default CanisterConfig (δ=144, 8 arena shards, snapshot reads).
std::unique_ptr<icbtc::canister::BitcoinCanister> make_canister();

/// Feeds blocks [from, to) of `chain` to `canister`, one adapter response
/// each (parse + process_response). Returns false if any block is refused.
bool feed(icbtc::canister::BitcoinCanister& canister, const ChainGen& chain, std::size_t from,
          std::size_t to);

/// `count / base`, or 0 for an empty base.
double per(std::uint64_t count, std::uint64_t base);

/// The program's own counters, read through its public metrics registry.
/// Attached in traced runs only, so untraced runs time the bare program.
struct Counters {
  icbtc::obs::MetricsRegistry registry;
  std::uint64_t get(const char* name) { return registry.counter(name).value(); }
};

/// Attaches `counters` to the canister and the shared pool, and installs a
/// host clock for the canister's delta-build histogram.
void attach_counters(icbtc::canister::BitcoinCanister& canister, Counters& counters);
void detach_counters(icbtc::canister::BitcoinCanister& canister);

/// The per-layer metrics every workload's traced run reports besides the
/// self-time shares: tracing overhead, sync rejections, pool tasks per
/// ingested block, delta memo hit ratio, and resident bytes per stable UTXO.
void add_canister_layer_metrics(const icbtc::canister::BitcoinCanister& canister,
                                Counters& counters, std::uint64_t blocks, double overhead_pct,
                                Result& result);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(icbtc::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The paper's query mix: 45% get_utxos, 45% get_balance, 10% send_transaction.
enum class Call : std::uint8_t { kGetUtxos, kGetBalance, kSendTransaction };
Call sample_call(icbtc::util::Rng& rng);

/// `n` distinct, well-formed raw transactions for send_transaction.
std::vector<icbtc::util::Bytes> make_raw_transactions(std::size_t n, icbtc::util::Rng& rng);

}  // namespace perfbench
