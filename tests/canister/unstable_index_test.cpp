// The unstable-block delta index: unit tests for the filter and delta
// machinery, canister-level read-path tests against the scan oracle
// (oracles/scan_reads.h), plus the randomized differential test checking
// canisters at 1, 4 and 16 shards against that oracle and each other. The
// contract is strict: responses, page tokens AND metered instructions must
// be identical across workloads with reorgs across the anchor, pruned forks,
// and unstable-chain gaps.
#include "canister/unstable_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "ic/metering.h"
#include "obs/metrics.h"
#include "chain/block_builder.h"
#include "oracles/scan_reads.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace icbtc::canister {
namespace {

using bitcoin::Block;
using bitcoin::ChainParams;
using util::Hash256;

// ---------------------------------------------------------------------------
// ScriptFilter

TEST(ScriptFilterTest, NoFalseNegatives) {
  util::Rng rng(11);
  ScriptFilter filter;
  std::vector<std::size_t> hashes;
  for (int i = 0; i < 300; ++i) {
    std::size_t h = rng.next();
    hashes.push_back(h);
    filter.add(h);
  }
  for (std::size_t h : hashes) EXPECT_TRUE(filter.may_contain(h));
}

TEST(ScriptFilterTest, EmptyFilterRejectsEverything) {
  ScriptFilter filter;
  util::Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(filter.may_contain(rng.next()));
}

// ---------------------------------------------------------------------------
// Delta construction

Block delta_test_block(int n_txs, std::uint64_t seed) {
  util::Rng rng(seed);
  Block block;
  bitcoin::Transaction coinbase;
  coinbase.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint::null(), {0x51}, 0xffffffff});
  coinbase.outputs.push_back(bitcoin::TxOut{50, {0x6a}});  // OP_RETURN
  block.transactions.push_back(coinbase);
  for (int t = 0; t < n_txs; ++t) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout.txid = rng.next_hash();
    in.prevout.vout = static_cast<std::uint32_t>(rng.next() % 4);
    tx.inputs.push_back(in);
    int n_outs = 1 + static_cast<int>(rng.next() % 4);
    for (int o = 0; o < n_outs; ++o) {
      util::Hash160 h;
      h.data[0] = static_cast<std::uint8_t>(rng.next() % 16);  // few distinct scripts
      tx.outputs.push_back(
          bitcoin::TxOut{static_cast<bitcoin::Amount>(1000 + o), bitcoin::p2pkh_script(h)});
    }
    block.transactions.push_back(tx);
  }
  return block;
}

TEST(UnstableIndexTest, DeltaRecordsAddsAndSpends) {
  Block block = delta_test_block(20, 21);
  UnstableIndex index;
  auto stored = std::make_shared<const Block>(block);
  index.add_block(block.hash(), stored, 7, nullptr);
  EXPECT_TRUE(index.contains(block.hash()));
  EXPECT_EQ(index.block(block.hash()), stored.get());  // kept, not copied

  const BlockDelta* delta = index.delta(block.hash());
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->height, 7);
  EXPECT_EQ(delta->transactions(), block.transactions.size());
  // Coinbase inputs are not spends; every other input is.
  EXPECT_EQ(delta->spent.size(), 20u);
  // Every output in block order, OP_RETURN included (metering parity), with
  // its script, shard hash and transaction boundary.
  std::size_t i = 0;
  for (std::size_t t = 0; t < block.transactions.size(); ++t) {
    const auto& tx = block.transactions[t];
    for (std::uint32_t v = 0; v < tx.outputs.size(); ++v, ++i) {
      ASSERT_LT(i, delta->outputs.size());
      const BlockDelta::Output& out = delta->outputs[i];
      EXPECT_EQ(out.outpoint, (bitcoin::OutPoint{tx.txid(), v}));
      EXPECT_EQ(out.value, tx.outputs[v].value);
      EXPECT_TRUE(util::equal(delta->script(i), tx.outputs[v].script_pubkey));
      EXPECT_EQ(out.shard_hash, stable_script_shard_hash(tx.outputs[v].script_pubkey));
    }
    EXPECT_EQ(delta->tx_ends[t].outputs, i);
  }
  EXPECT_EQ(delta->outputs.size(), i);
  // The script lookup finds each output under its script's hash.
  ASSERT_EQ(delta->by_script.size(), delta->outputs.size());
  for (std::uint32_t o = 0; o < delta->outputs.size(); ++o) {
    std::size_t h = ScriptHash{}(delta->script(o));
    EXPECT_TRUE(delta->filter.may_contain(h));
    auto refs = delta->with_hash(h);
    EXPECT_TRUE(
        std::any_of(refs.begin(), refs.end(), [&](const auto& ref) { return ref.output == o; }));
  }
  EXPECT_GT(index.resident_bytes(), 0u);
  index.prune([](const auto&) { return false; });
  EXPECT_FALSE(index.contains(block.hash()));
  EXPECT_EQ(index.block(block.hash()), nullptr);
  EXPECT_EQ(index.delta(block.hash()), nullptr);
  EXPECT_EQ(index.resident_bytes(), 0u);
  EXPECT_EQ(stored.use_count(), 1);  // the block went with its delta
}

TEST(UnstableIndexTest, DeltaConstructionIsPoolInvariant) {
  Block block = delta_test_block(40, 22);
  UnstableIndex serial;
  serial.add_block(block.hash(), std::make_shared<const Block>(block), 3, nullptr);

  // A fresh copy of the block, so the pooled build hashes its txids itself.
  Block fresh = delta_test_block(40, 22);
  ASSERT_FALSE(fresh.txids_cached());
  parallel::ThreadPool pool(3);
  UnstableIndex pooled;
  pooled.add_block(fresh.hash(), std::make_shared<const Block>(fresh), 3, &pool);

  const BlockDelta* a = serial.delta(block.hash());
  const BlockDelta* b = pooled.delta(block.hash());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->spent, b->spent);
  EXPECT_EQ(a->scripts, b->scripts);
  ASSERT_EQ(a->outputs.size(), b->outputs.size());
  for (std::size_t i = 0; i < a->outputs.size(); ++i) {
    EXPECT_EQ(a->outputs[i].outpoint, b->outputs[i].outpoint);
    EXPECT_EQ(a->outputs[i].script_offset, b->outputs[i].script_offset);
    EXPECT_EQ(a->outputs[i].value, b->outputs[i].value);
    EXPECT_EQ(a->outputs[i].shard_hash, b->outputs[i].shard_hash);
  }
  ASSERT_EQ(a->by_script.size(), b->by_script.size());
  for (std::size_t i = 0; i < a->by_script.size(); ++i) {
    EXPECT_EQ(a->by_script[i].hash, b->by_script[i].hash);
    EXPECT_EQ(a->by_script[i].output, b->by_script[i].output);
  }
  ASSERT_EQ(a->tx_ends.size(), b->tx_ends.size());
  for (std::size_t t = 0; t < a->tx_ends.size(); ++t) {
    EXPECT_EQ(a->tx_ends[t].spends, b->tx_ends[t].spends);
    EXPECT_EQ(a->tx_ends[t].outputs, b->tx_ends[t].outputs);
  }
  EXPECT_EQ(a->resident_bytes, b->resident_bytes);
}

TEST(UnstableIndexTest, PruningSyncedDeltaDropsItsSpends) {
  Block block = delta_test_block(3, 23);
  UnstableIndex index;
  index.add_block(block.hash(), std::make_shared<const Block>(block), 1, nullptr);
  Hash256 root;
  root.data[0] = 1;
  (void)index.view({root, block.hash()}, bitcoin::p2pkh_script(util::Hash160{}), 1);
  const bitcoin::OutPoint spent = block.transactions[1].inputs[0].prevout;
  EXPECT_TRUE(index.spent(spent, 1));
  EXPECT_FALSE(index.spent(spent, 0));  // spent above the considered height
  index.prune([](const auto&) { return false; });
  EXPECT_FALSE(index.spent(spent, 1));
}

// ---------------------------------------------------------------------------
// Reads checked against the scan oracle on the same canister: the same
// outcome (status, UTXOs, tip and page-token bytes) for the same per-call
// instruction charge.

template <typename T>
struct Charged {
  Outcome<T> outcome;
  std::uint64_t instructions = 0;
};

Charged<bitcoin::Amount> checked_balance(BitcoinCanister& canister, const std::string& address,
                                         int min_confirmations) {
  ic::InstructionMeter::Segment segment(canister.meter());
  auto outcome = canister.get_balance(address, min_confirmations);
  std::uint64_t charged = segment.sample();
  ic::InstructionMeter oracle_meter;
  auto expected = oracles::scan_get_balance(canister, address, min_confirmations, oracle_meter);
  EXPECT_EQ(outcome.status, expected.status);
  EXPECT_EQ(outcome.value, expected.value);
  EXPECT_EQ(charged, oracle_meter.count()) << "get_balance metering differs from the scan oracle";
  return {outcome, charged};
}

Charged<GetUtxosResponse> checked_utxos(BitcoinCanister& canister,
                                        const GetUtxosRequest& request) {
  ic::InstructionMeter::Segment segment(canister.meter());
  auto outcome = canister.get_utxos(request);
  std::uint64_t charged = segment.sample();
  ic::InstructionMeter oracle_meter;
  auto expected = oracles::scan_get_utxos(canister, request, oracle_meter);
  EXPECT_EQ(outcome.status, expected.status);
  EXPECT_EQ(outcome.value.utxos, expected.value.utxos);
  EXPECT_EQ(outcome.value.tip_hash, expected.value.tip_hash);
  EXPECT_EQ(outcome.value.tip_height, expected.value.tip_height);
  EXPECT_EQ(outcome.value.next_page, expected.value.next_page)
      << "page token differs from the scan oracle";
  EXPECT_EQ(charged, oracle_meter.count()) << "get_utxos metering differs from the scan oracle";
  return {std::move(outcome), charged};
}

// ---------------------------------------------------------------------------
// Canister-level read path: every read is checked against the scan oracle.

class UnstableReadTest : public ::testing::Test {
 protected:
  UnstableReadTest()
      : canister_(params_, CanisterConfig::for_params(params_)),
        build_tree_(params_, params_.genesis_header) {
    canister_.set_metrics(&registry_);
  }

  util::Bytes script(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_script(h);
  }

  std::string address(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_address(h, bitcoin::Network::kRegtest);
  }

  static bitcoin::Transaction spend(const bitcoin::OutPoint& prevout, util::Bytes to) {
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{prevout, {}, 0xffffffff});
    tx.outputs.push_back(bitcoin::TxOut{kSpent, std::move(to)});
    return tx;
  }

  static bitcoin::OutPoint coinbase_of(const Block& block) {
    return bitcoin::OutPoint{block.transactions[0].txid(), 0};
  }

  /// Mines a block on `parent` whose coinbase pays `tag`, without feeding it.
  Block mine(const Hash256& parent, std::uint8_t tag, std::vector<bitcoin::Transaction> txs = {}) {
    time_ += 600;
    Block b = chain::build_child_block(build_tree_, parent, time_, script(tag), kSubsidy,
                                       std::move(txs), tag_++);
    EXPECT_EQ(build_tree_.accept(b.header, now_s()), chain::AcceptResult::kAccepted);
    mined_.emplace(b.hash(), b);
    return b;
  }

  /// Feeds blocks (with their data) and then bare headers to the canister.
  void deliver(const std::vector<Block>& blocks,
               const std::vector<bitcoin::BlockHeader>& headers = {}) {
    adapter::AdapterResponse response;
    for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
    response.next_headers = headers;
    canister_.process_response(response, now_s());
  }

  Block feed(const Hash256& parent, std::uint8_t tag, std::vector<bitcoin::Transaction> txs = {}) {
    Block b = mine(parent, tag, std::move(txs));
    deliver({b});
    return b;
  }

  Block feed_tip(std::uint8_t tag, std::vector<bitcoin::Transaction> txs = {}) {
    Block b = feed(tip_, tag, std::move(txs));
    tip_ = b.hash();
    return b;
  }

  /// Reads `tag`'s balance and UTXOs, each checked against the scan oracle,
  /// and returns the balance.
  bitcoin::Amount read(std::uint8_t tag, int min_confirmations = 0) {
    auto balance = checked_balance(canister_, address(tag), min_confirmations).outcome;
    EXPECT_TRUE(balance.ok());
    checked_utxos(canister_, GetUtxosRequest{address(tag), min_confirmations, std::nullopt});
    return balance.value;
  }

  /// The digest of the stable set rebuilt from scratch: genesis, then the
  /// mined blocks from height 1 up to the canister's anchor.
  Hash256 replayed_stable_digest() const {
    std::vector<const Block*> stable;
    for (Hash256 h = canister_.anchor_hash(); h != params_.genesis_header.hash();
         h = mined_.at(h).header.prev_hash) {
      stable.push_back(&mined_.at(h));
    }
    UtxoIndex replay;
    ic::InstructionMeter meter;
    replay.apply_block(bitcoin::genesis_block(params_), 0, meter);
    int height = 0;
    for (auto it = stable.rbegin(); it != stable.rend(); ++it) {
      replay.apply_block(**it, ++height, meter);
    }
    return replay.digest();
  }

  std::int64_t now_s() const { return static_cast<std::int64_t>(time_) + 4000; }

  static constexpr bitcoin::Amount kSubsidy = 50 * bitcoin::kCoin;
  static constexpr bitcoin::Amount kSpent = 49 * bitcoin::kCoin;

  const ChainParams& params_ = ChainParams::regtest();  // δ=6, τ=2
  obs::MetricsRegistry registry_;
  BitcoinCanister canister_;
  chain::HeaderTree build_tree_;
  std::unordered_map<Hash256, Block> mined_;
  Hash256 tip_ = params_.genesis_header.hash();
  std::uint32_t time_ = params_.genesis_header.time;
  std::uint64_t tag_ = 1;
};

TEST_F(UnstableReadTest, RepeatReadsChargeIdentically) {
  for (int i = 0; i < 4; ++i) feed_tip(1);
  ASSERT_EQ(registry_.counter("canister.delta.builds").value(), 4u);

  ic::InstructionMeter::Segment first(canister_.meter());
  auto cold = canister_.get_balance(address(1));
  std::uint64_t cold_cost = first.sample();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value, 4 * kSubsidy);

  ic::InstructionMeter::Segment second(canister_.meter());
  auto hot = canister_.get_balance(address(1));
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.value, cold.value);
  // The metering contract: the first read after a change syncs the index,
  // which changes host time only, never the modelled instruction count.
  EXPECT_EQ(second.sample(), cold_cost);
}

TEST_F(UnstableReadTest, BlockArrivalVisibleToNextRead) {
  Block funding = feed_tip(1);
  for (int i = 0; i < 2; ++i) feed_tip(1);
  EXPECT_EQ(read(1), 3 * kSubsidy);

  feed_tip(1);
  EXPECT_EQ(read(1), 4 * kSubsidy);

  // So is a spend: the next block moves the first coinbase to tag 2.
  feed_tip(3, {spend(coinbase_of(funding), script(2))});
  EXPECT_EQ(read(1), 3 * kSubsidy);
  EXPECT_EQ(read(2), kSpent);

  // A block whose data arrives after its header and its child's block
  // extends the next read, although the best tip stays put.
  Block gap = mine(tip_, 1);
  Block after = mine(gap.hash(), 1);
  tip_ = after.hash();
  deliver({}, {gap.header, after.header});
  deliver({after});
  EXPECT_EQ(read(1), 3 * kSubsidy);
  deliver({gap});
  ASSERT_EQ(canister_.header_tree().best_tip(), after.hash());
  EXPECT_EQ(read(1), 5 * kSubsidy);
}

TEST_F(UnstableReadTest, AnchorAdvanceShrinksIndex) {
  for (int i = 0; i < 10; ++i) feed_tip(1);  // δ=6: anchor advances
  EXPECT_GT(canister_.anchor_height(), 0);
  EXPECT_EQ(canister_.unstable_index().size(), canister_.unstable_block_count());
  EXPECT_EQ(read(1), 10 * kSubsidy);
}

TEST_F(UnstableReadTest, ReorgAwayFromSpendRestoresOutput) {
  Block funding = feed_tip(1);  // height 1 pays tag 1
  Hash256 fork = tip_;
  feed_tip(2, {spend(coinbase_of(funding), script(3))});
  feed_tip(2);
  // At min_confirmations 0 the spend at height 2 is visible; at 3 the
  // considered tip is height 1, below the spend.
  EXPECT_EQ(read(1), 0);
  EXPECT_EQ(read(3), kSpent);
  EXPECT_EQ(read(1, 3), kSubsidy);
  EXPECT_EQ(read(3, 3), 0);

  // A longer branch from height 1 without the spend takes over, first as
  // bare headers (reads stop at the fork point), then with its blocks.
  std::vector<Block> branch;
  Hash256 parent = fork;
  for (int i = 0; i < 3; ++i) {
    branch.push_back(mine(parent, 4));
    parent = branch.back().hash();
  }
  deliver({}, {branch[0].header, branch[1].header, branch[2].header});
  ASSERT_EQ(canister_.header_tree().best_tip(), parent);
  EXPECT_EQ(read(1), kSubsidy);
  EXPECT_EQ(read(3), 0);
  deliver(branch);
  EXPECT_EQ(read(1), kSubsidy);
  EXPECT_EQ(read(3), 0);
  EXPECT_EQ(read(4), 3 * kSubsidy);
  EXPECT_EQ(read(1, 1), kSubsidy);
  EXPECT_EQ(read(1, 3), kSubsidy);
}

TEST_F(UnstableReadTest, PrunedBranchTakesItsSpends) {
  Block funding = feed_tip(1);
  Hash256 fork = tip_;
  feed_tip(2, {spend(coinbase_of(funding), script(3))});
  EXPECT_EQ(read(1), 0);  // syncs the index to the spending branch
  // A branch without the spend overtakes and becomes stable before the next
  // read: pruning the spending branch must take its spends along.
  Hash256 parent = fork;
  for (int i = 0; i < 8; ++i) parent = feed(parent, 4).hash();
  ASSERT_GT(canister_.anchor_height(), 2);
  EXPECT_EQ(read(1), kSubsidy);
  EXPECT_EQ(read(3), 0);
}

TEST_F(UnstableReadTest, StableSpendMatchesScanOracle) {
  Block funding = feed_tip(1);
  feed_tip(2, {spend(coinbase_of(funding), script(3))});
  // Read after every block, so the index stays synced while the anchor
  // passes the funding block (a stable output spent by an unstable block)
  // and then the spending block.
  for (int i = 0; i < 10; ++i) {
    for (std::uint8_t tag = 1; tag <= 3; ++tag) {
      read(tag);
      read(tag, 2);
    }
    feed_tip(2);
  }
  ASSERT_GT(canister_.anchor_height(), 2);
  EXPECT_EQ(read(1), 0);
  EXPECT_EQ(read(3), kSpent);
  EXPECT_EQ(canister_.utxo_digest(), replayed_stable_digest());
}

// ---------------------------------------------------------------------------
// Differential: canisters on the unsharded store and on sharded stores with
// snapshot reads vs. the scan oracle, across randomized reorg workloads

class DifferentialHarness {
 public:
  explicit DifferentialHarness(std::uint64_t seed)
      : rng_(seed), build_tree_(params_, params_.genesis_header) {
    // Candidates: the unsharded store, then sharded stores with epoch
    // snapshot reads. Every response, page token and per-call meter segment
    // of each must match the scan oracle on that same canister; their
    // digests, anchors, tips, responses and cumulative meter totals must
    // match each other.
    candidates_.push_back(std::make_unique<BitcoinCanister>(params_, config(1, false)));
    candidates_.push_back(std::make_unique<BitcoinCanister>(params_, config(4, true)));
    candidates_.push_back(std::make_unique<BitcoinCanister>(params_, config(16, true)));
    heights_[params_.genesis_header.hash()] = 0;
    by_height_.push_back({params_.genesis_header.hash()});
  }

  static CanisterConfig config(std::size_t shards, bool snapshots) {
    auto c = CanisterConfig::for_params(ChainParams::regtest());
    c.utxos_per_page = 7;  // force pagination
    c.utxo_shards = shards;
    c.utxo_snapshot_reads = snapshots;
    return c;
  }

  util::Bytes script(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_script(h);
  }

  std::string address(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_address(h, bitcoin::Network::kRegtest);
  }

  /// One random evolution step: extend the best tip, race a fork, or create
  /// and later fill block-data gaps.
  void step() {
    std::uint64_t dice = rng_.next() % 10;
    if (dice < 6) {
      extend_tip();
    } else if (dice < 8) {
      race_fork();
    } else {
      withhold_block();
    }
    if (!withheld_.empty() && rng_.next() % 3 == 0) release_withheld();
  }

  /// Checks every read of every candidate against the scan oracle and the
  /// first candidate; each is queried twice so the already-synced (hot) path
  /// must also charge identically.
  void check_equivalence() {
    BitcoinCanister& first = *candidates_[0];
    for (auto& candidate : candidates_) {
      BitcoinCanister& other = *candidate;
      ASSERT_EQ(first.is_synced(), other.is_synced());
      ASSERT_EQ(first.anchor_height(), other.anchor_height());
      ASSERT_EQ(first.tip_height(), other.tip_height());
      ASSERT_EQ(first.unstable_block_count(), other.unstable_block_count());
      ASSERT_EQ(first.utxo_digest(), other.utxo_digest())
          << "digest diverged at " << other.config().utxo_shards << " shards";
    }

    for (std::uint8_t tag = 1; tag <= kTags; ++tag) {
      int minconf = static_cast<int>(rng_.next() % 9);
      for (int repeat = 0; repeat < 2; ++repeat) {
        compare_balance(tag, minconf);
        compare_utxos(tag, minconf);
      }
    }
    compare_fee_percentiles();
    for (auto& candidate : candidates_) {
      ASSERT_EQ(first.meter().count(), candidate->meter().count())
          << "cumulative metered instructions diverged at "
          << candidate->config().utxo_shards << " shards";
    }
  }

  void compare_balance(std::uint8_t tag, int minconf) {
    auto first = checked_balance(*candidates_[0], address(tag), minconf);
    for (std::size_t c = 1; c < candidates_.size(); ++c) {
      auto other = checked_balance(*candidates_[c], address(tag), minconf);
      ASSERT_EQ(first.outcome.status, other.outcome.status);
      ASSERT_EQ(first.outcome.value, other.outcome.value);
      ASSERT_EQ(first.instructions, other.instructions)
          << "get_balance metering diverged at " << candidates_[c]->config().utxo_shards
          << " shards";
    }
  }

  void compare_utxos(std::uint8_t tag, int minconf) {
    std::vector<GetUtxosRequest> requests(candidates_.size());
    for (auto& request : requests) {
      request.address = address(tag);
      request.min_confirmations = minconf;
    }
    for (int page = 0; page < 64; ++page) {  // bounded pagination walk
      std::vector<Charged<GetUtxosResponse>> got;
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        got.push_back(checked_utxos(*candidates_[c], requests[c]));
      }
      const auto& a = got[0].outcome;
      for (std::size_t c = 1; c < candidates_.size(); ++c) {
        const auto& b = got[c].outcome;
        std::size_t shards = candidates_[c]->config().utxo_shards;
        ASSERT_EQ(a.status, b.status);
        ASSERT_EQ(got[0].instructions, got[c].instructions)
            << "get_utxos metering diverged at " << shards << " shards";
        if (!a.ok()) continue;
        ASSERT_EQ(a.value.utxos, b.value.utxos);
        ASSERT_EQ(a.value.tip_hash, b.value.tip_hash);
        ASSERT_EQ(a.value.tip_height, b.value.tip_height);
        // Page tokens byte-identical: offsets into the sharded merged view
        // line up with the unsharded one.
        ASSERT_EQ(a.value.next_page, b.value.next_page)
            << "page token diverged at " << shards << " shards";
      }
      if (!a.ok() || !a.value.next_page) return;
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        requests[c].page = got[c].outcome.value.next_page;
      }
    }
    FAIL() << "pagination did not terminate";
  }

  void compare_fee_percentiles() {
    ic::InstructionMeter::Segment s(candidates_[0]->meter());
    auto a = candidates_[0]->get_current_fee_percentiles();
    std::uint64_t first_cost = s.sample();
    for (std::size_t c = 1; c < candidates_.size(); ++c) {
      ic::InstructionMeter::Segment i(candidates_[c]->meter());
      auto b = candidates_[c]->get_current_fee_percentiles();
      ASSERT_EQ(a.status, b.status);
      ASSERT_EQ(a.value, b.value);
      ASSERT_EQ(first_cost, i.sample());
    }
  }

  void send_random_transaction() {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout.txid = rng_.next_hash();
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{1234, script(1)});
    util::Bytes raw = tx.serialize();
    util::Bytes garbage = rng_.next_bytes(1 + rng_.next() % 16);
    BitcoinCanister& first = *candidates_[0];
    Status accepted = first.send_transaction(raw);
    Status rejected = first.send_transaction(garbage);
    for (std::size_t c = 1; c < candidates_.size(); ++c) {
      ASSERT_EQ(accepted, candidates_[c]->send_transaction(raw));
      ASSERT_EQ(first.pending_transactions(), candidates_[c]->pending_transactions());
      ASSERT_EQ(rejected, candidates_[c]->send_transaction(garbage));
    }
  }

  int steps_run() const { return steps_; }

 private:
  static constexpr std::uint8_t kTags = 5;

  Block make_block(const Hash256& parent) {
    std::vector<bitcoin::Transaction> txs;
    int n_txs = static_cast<int>(rng_.next() % 4);
    for (int t = 0; t < n_txs; ++t) {
      bitcoin::Transaction tx;
      bitcoin::TxIn in;
      // Spend a known unstable/stable output half the time (exercises the
      // spent-set filter), a random unknown outpoint otherwise (tolerated).
      if (!created_.empty() && rng_.next() % 2 == 0) {
        in.prevout = created_[rng_.next() % created_.size()];
      } else {
        in.prevout.txid = rng_.next_hash();
      }
      tx.inputs.push_back(in);
      int n_outs = 1 + static_cast<int>(rng_.next() % 3);
      for (int o = 0; o < n_outs; ++o) {
        auto tag = static_cast<std::uint8_t>(1 + rng_.next() % kTags);
        tx.outputs.push_back(
            bitcoin::TxOut{static_cast<bitcoin::Amount>(500 + 10 * o), script(tag)});
      }
      txs.push_back(std::move(tx));
    }
    time_ += 600;
    auto coinbase_tag = static_cast<std::uint8_t>(1 + rng_.next() % kTags);
    Block b = chain::build_child_block(build_tree_, parent, time_, script(coinbase_tag),
                                       50 * bitcoin::kCoin, std::move(txs), tag_++);
    EXPECT_EQ(build_tree_.accept(b.header, now_s()), chain::AcceptResult::kAccepted);
    int height = build_tree_.find(b.hash())->height;
    heights_[b.hash()] = height;
    if (static_cast<std::size_t>(height) >= by_height_.size()) by_height_.resize(height + 1);
    by_height_[height].push_back(b.hash());
    for (const auto& tx : b.transactions) {
      Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
        created_.push_back(bitcoin::OutPoint{txid, v});
      }
    }
    return b;
  }

  void feed(const std::vector<Block>& blocks, const std::vector<bitcoin::BlockHeader>& headers) {
    adapter::AdapterResponse response;
    for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
    response.next_headers = headers;
    auto a = candidates_[0]->process_response(response, now_s());
    for (std::size_t c = 1; c < candidates_.size(); ++c) {
      auto b = candidates_[c]->process_response(response, now_s());
      ASSERT_EQ(a.blocks_stored, b.blocks_stored);
      ASSERT_EQ(a.headers_appended, b.headers_appended);
      ASSERT_EQ(a.anchors_advanced, b.anchors_advanced);
    }
  }

  void extend_tip() {
    Block b = make_block(tip_);
    tip_ = b.hash();
    feed({b}, {});
    ++steps_;
  }

  void race_fork() {
    // Branch from a random recent height (can cross what will soon be the
    // anchor) and race 1-3 blocks; the canister prunes the losing branch on
    // the next reroot.
    int best = build_tree_.find(tip_) != nullptr ? heights_.at(tip_) : 0;
    int back = 1 + static_cast<int>(rng_.next() % 4);
    int from = std::max(0, best - back);
    const auto& candidates = by_height_[from];
    Hash256 parent = candidates[rng_.next() % candidates.size()];
    int len = 1 + static_cast<int>(rng_.next() % 3);
    std::vector<Block> branch;
    for (int i = 0; i < len; ++i) {
      Block b = make_block(parent);
      parent = b.hash();
      branch.push_back(std::move(b));
    }
    // A longer branch can win: the canisters reorg their current chain.
    if (heights_.at(parent) > heights_.at(tip_)) tip_ = parent;
    feed(branch, {});
    ++steps_;
  }

  void withhold_block() {
    // Header-only delivery: the next block's header enters the tree but its
    // data is withheld — queries must not see past the gap.
    Block gap = make_block(tip_);
    Block after = make_block(gap.hash());
    tip_ = after.hash();
    feed({}, {gap.header, after.header});
    feed({after}, {});  // stored above the gap
    withheld_.push_back(std::move(gap));
    ++steps_;
  }

  void release_withheld() {
    std::vector<Block> blocks = {withheld_.back()};
    withheld_.pop_back();
    feed(blocks, {});
  }

  std::int64_t now_s() const { return static_cast<std::int64_t>(time_) + 4000; }

  const ChainParams& params_ = ChainParams::regtest();  // δ=6, τ=2
  util::Rng rng_;
  std::vector<std::unique_ptr<BitcoinCanister>> candidates_;
  chain::HeaderTree build_tree_;
  Hash256 tip_ = ChainParams::regtest().genesis_header.hash();
  std::uint32_t time_ = ChainParams::regtest().genesis_header.time;
  std::uint64_t tag_ = 1;
  int steps_ = 0;
  std::vector<Block> withheld_;
  std::vector<bitcoin::OutPoint> created_;
  std::unordered_map<Hash256, int> heights_;
  std::vector<std::vector<Hash256>> by_height_;
};

TEST(UnstableIndexDifferentialTest, RandomizedReorgWorkloadsMatchScanExactly) {
  for (std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    DifferentialHarness h(seed);
    for (int step = 0; step < 45; ++step) {
      h.step();
      if (step % 3 == 0) h.check_equivalence();
      if (step % 7 == 0) h.send_random_transaction();
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    h.check_equivalence();
    EXPECT_GT(h.steps_run(), 0);
  }
}

}  // namespace
}  // namespace icbtc::canister
