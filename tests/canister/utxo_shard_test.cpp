// Sharded stable UTXO store: shard-selection stability (known-answer tests),
// shard-count invariance of digests/queries/metering/pagination, locked
// snapshot reads under a concurrent writer, and point-op/move semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "canister/utxo_index.h"
#include "chain/block_builder.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace icbtc::canister {
namespace {

using bitcoin::Block;
using bitcoin::ChainParams;
using util::Hash256;

util::Bytes script(std::uint8_t tag) {
  util::Hash160 h;
  h.data[0] = tag;
  return bitcoin::p2pkh_script(h);
}

// ---------------------------------------------------------------------------
// Shard selection: serialization-stable reduction

TEST(StableShardHashTest, KnownAnswers) {
  // FNV-1a 64 reference values: the function is part of the (future)
  // checkpoint format, so these must never change. A failure here means the
  // shard assignment of every persisted UTXO set silently moved.
  EXPECT_EQ(stable_script_shard_hash(util::Bytes{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(stable_script_shard_hash(util::Bytes{'a'}), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(stable_script_shard_hash(util::Bytes{'a', 'b', 'c'}), 0xe71fa2190541574bULL);
  EXPECT_EQ(stable_script_shard_hash(util::Bytes{0x00}), 0xaf63bd4c8601b7dfULL);
  EXPECT_EQ(stable_script_shard_hash(util::Bytes{0xff, 0x00, 0xff}), 0xf920341be414d4afULL);
}

TEST(StableShardHashTest, IndependentOfProcessLocalScriptHash) {
  // ScriptHash (the in-memory table hash) is free to change per process;
  // shard ids must come from the stable reduction only.
  for (std::uint8_t tag = 0; tag < 32; ++tag) {
    util::Bytes s = script(tag);
    UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{16, false});
    EXPECT_EQ(index.shard_of(s), stable_script_shard_hash(s) % 16);
  }
}

// ---------------------------------------------------------------------------
// Shard-count invariance at the UtxoIndex level

/// Deterministic block stream exercising every routing path: inserts across
/// many scripts, spends of prior blocks' outputs (per-shard probe), spends of
/// same-block outputs (block-local routing), spends of unknown outpoints
/// (charged misses), OP_RETURN outputs, and occasional duplicate spends.
std::vector<Block> shard_workload(std::uint64_t seed, int n_blocks) {
  util::Rng rng(seed);
  std::vector<bitcoin::OutPoint> live;
  std::vector<Block> blocks;
  for (int h = 0; h < n_blocks; ++h) {
    Block block;
    bitcoin::Transaction coinbase;
    bitcoin::TxIn cb_in;
    cb_in.prevout = bitcoin::OutPoint::null();
    cb_in.script_sig = rng.next_bytes(4);  // unique txid per block
    coinbase.inputs.push_back(cb_in);
    coinbase.outputs.push_back(
        bitcoin::TxOut{50, script(static_cast<std::uint8_t>(rng.next() % 32))});
    if (rng.next() % 4 == 0) {
      coinbase.outputs.push_back(
          bitcoin::TxOut{0, bitcoin::op_return_script(util::Bytes{0x42})});
    }
    block.transactions.push_back(coinbase);

    std::vector<bitcoin::OutPoint> created_this_block;
    {
      Hash256 txid = block.transactions[0].txid();
      for (std::uint32_t v = 0; v < block.transactions[0].outputs.size(); ++v) {
        created_this_block.push_back(bitcoin::OutPoint{txid, v});
      }
    }
    int n_txs = 2 + static_cast<int>(rng.next() % 6);
    for (int t = 0; t < n_txs; ++t) {
      bitcoin::Transaction tx;
      int n_ins = 1 + static_cast<int>(rng.next() % 3);
      for (int i = 0; i < n_ins; ++i) {
        bitcoin::TxIn in;
        std::uint64_t dice = rng.next() % 10;
        if (dice < 5 && !live.empty()) {
          std::size_t pick = rng.next() % live.size();
          in.prevout = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else if (dice < 7 && !created_this_block.empty()) {
          in.prevout = created_this_block[rng.next() % created_this_block.size()];
        } else {
          in.prevout.txid = rng.next_hash();  // unknown: tolerated miss
        }
        tx.inputs.push_back(in);
      }
      int n_outs = 1 + static_cast<int>(rng.next() % 4);
      for (int o = 0; o < n_outs; ++o) {
        auto tag = static_cast<std::uint8_t>(rng.next() % 32);
        tx.outputs.push_back(
            bitcoin::TxOut{static_cast<bitcoin::Amount>(100 + 7 * o), script(tag)});
      }
      Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
        created_this_block.push_back(bitcoin::OutPoint{txid, v});
      }
      block.transactions.push_back(std::move(tx));
    }
    for (const auto& outpoint : created_this_block) live.push_back(outpoint);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

struct ReplayResult {
  Hash256 digest;
  std::uint64_t metered = 0;
  std::size_t size = 0;
  std::uint64_t memory = 0;
  std::size_t scripts = 0;
  std::vector<std::vector<StoredUtxo>> per_script;
  std::vector<std::uint64_t> per_script_cost;
  std::uint64_t critical_path = 0;
};

ReplayResult replay(const std::vector<Block>& blocks, std::size_t shards, bool snapshots,
                    parallel::ThreadPool* pool) {
  UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{shards, snapshots});
  ic::InstructionMeter meter;
  ReplayResult result;
  for (std::size_t h = 0; h < blocks.size(); ++h) {
    BlockApplyStats stats =
        index.apply_block(blocks[h], static_cast<int>(h + 1), meter, pool);
    EXPECT_EQ(stats.instructions + (h == 0 ? 0 : result.metered), meter.count());
    result.metered = meter.count();
    result.critical_path += stats.critical_path_instructions;
  }
  result.digest = index.digest();
  result.size = index.size();
  result.memory = index.memory_bytes();
  result.scripts = index.distinct_scripts();
  for (std::uint8_t tag = 0; tag < 32; ++tag) {
    ic::InstructionMeter read_meter;
    result.per_script.push_back(index.utxos_for_script(script(tag), read_meter));
    result.per_script_cost.push_back(read_meter.count());
  }
  return result;
}

TEST(UtxoShardInvarianceTest, DigestQueriesAndMeteringIdenticalAcrossShardCounts) {
  std::vector<Block> blocks = shard_workload(717, 30);
  parallel::ThreadPool pool(3);
  ReplayResult serial = replay(blocks, 1, false, nullptr);
  ASSERT_GT(serial.size, 0u);
  for (std::size_t shards : {1u, 4u, 16u}) {
    for (bool snapshots : {false, true}) {
      for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
        ReplayResult got = replay(blocks, shards, snapshots, p);
        EXPECT_EQ(got.digest, serial.digest)
            << shards << " shards, snapshots=" << snapshots << ", pool=" << (p != nullptr);
        EXPECT_EQ(got.metered, serial.metered) << shards << " shards";
        EXPECT_EQ(got.size, serial.size);
        EXPECT_EQ(got.memory, serial.memory);
        EXPECT_EQ(got.scripts, serial.scripts);
        EXPECT_EQ(got.per_script, serial.per_script) << shards << " shards";
        EXPECT_EQ(got.per_script_cost, serial.per_script_cost) << shards << " shards";
      }
    }
  }
}

TEST(UtxoShardInvarianceTest, CriticalPathNeverExceedsSerialInstructions) {
  std::vector<Block> blocks = shard_workload(718, 12);
  ReplayResult serial = replay(blocks, 1, false, nullptr);
  ReplayResult sharded = replay(blocks, 8, true, nullptr);
  // At 1 shard the modelled critical path IS the serial cost; with more
  // shards it can only shrink (serial prologue + max shard <= sum).
  EXPECT_EQ(serial.critical_path, serial.metered);
  EXPECT_LT(sharded.critical_path, serial.metered);
  EXPECT_EQ(sharded.metered, serial.metered);
}

TEST(UtxoShardInvarianceTest, MetricsSnapshotsMatchModuloShardGauges) {
  std::vector<Block> blocks = shard_workload(719, 10);
  auto run = [&](std::size_t shards) {
    auto registry = std::make_unique<obs::MetricsRegistry>();
    UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{shards, true});
    index.set_metrics(registry.get());
    ic::InstructionMeter meter;
    for (std::size_t h = 0; h < blocks.size(); ++h) {
      index.apply_block(blocks[h], static_cast<int>(h + 1), meter, nullptr);
    }
    return registry;
  };
  auto one = run(1);
  auto four = run(4);
  // Counters and logical-size gauges are shard-count-invariant; only the
  // utxo.shard.{count,max_utxos,min_utxos} layout gauges may differ.
  EXPECT_EQ(one->counter("utxo.inserts").value(), four->counter("utxo.inserts").value());
  EXPECT_EQ(one->counter("utxo.removes").value(), four->counter("utxo.removes").value());
  EXPECT_EQ(one->gauge("utxo.size").value(), four->gauge("utxo.size").value());
  EXPECT_EQ(one->gauge("utxo.memory_bytes").value(), four->gauge("utxo.memory_bytes").value());
  EXPECT_EQ(one->gauge("utxo.shard.epoch").value(), four->gauge("utxo.shard.epoch").value());
  EXPECT_EQ(one->gauge("utxo.shard.count").value(), 1);
  EXPECT_EQ(four->gauge("utxo.shard.count").value(), 4);
  EXPECT_EQ(one->gauge("utxo.shard.max_utxos").value(), one->gauge("utxo.size").value());
}

/// Blocks that stress routing inside one block, appended to the chain of
/// `blocks`: a spend that precedes its output, a spend of a same-block
/// OP_RETURN output, outpoints (older and same-block) spent twice, and a
/// transaction repeated within the block. A last block spends survivors.
void append_adversarial_blocks(std::vector<Block>& blocks) {
  auto tx_of = [](std::vector<bitcoin::OutPoint> prevouts, std::vector<bitcoin::TxOut> outputs) {
    bitcoin::Transaction tx;
    for (const auto& prevout : prevouts) tx.inputs.push_back(bitcoin::TxIn{prevout, {}, 0});
    tx.outputs = std::move(outputs);
    return tx;
  };
  auto coinbase = [](std::uint8_t tag, std::vector<bitcoin::TxOut> outputs) {
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint::null(), {0xad, tag}, 0xffffffff});
    tx.outputs = std::move(outputs);
    return tx;
  };
  auto pay = [](std::uint8_t tag) { return bitcoin::TxOut{1000 + tag, script(tag)}; };

  Block funding;
  funding.transactions.push_back(coinbase(1, {pay(1), pay(2), pay(3), pay(4)}));
  Hash256 funds = funding.transactions[0].txid();
  blocks.push_back(funding);

  bitcoin::Transaction later = tx_of({{funds, 0}}, {pay(5), pay(6)});
  Hash256 later_id = later.txid();
  bitcoin::Transaction op_return =
      tx_of({{funds, 1}}, {bitcoin::TxOut{0, bitcoin::op_return_script(util::Bytes{0x42})},
                           pay(8)});
  Hash256 op_return_id = op_return.txid();
  Block adversarial;
  adversarial.transactions.push_back(coinbase(2, {pay(14)}));
  adversarial.transactions.push_back(tx_of({{later_id, 0}}, {pay(7)}));  // before its output
  adversarial.transactions.push_back(later);
  adversarial.transactions.push_back(op_return);
  adversarial.transactions.push_back(tx_of({{op_return_id, 0}, {op_return_id, 1}}, {pay(9)}));
  adversarial.transactions.push_back(tx_of({{funds, 2}}, {pay(10)}));
  adversarial.transactions.push_back(tx_of({{funds, 2}}, {pay(11)}));  // older, spent twice
  adversarial.transactions.push_back(tx_of({{later_id, 1}}, {pay(12)}));
  adversarial.transactions.push_back(tx_of({{later_id, 1}}, {pay(13)}));  // same-block, twice
  adversarial.transactions.push_back(later);  // repeated transaction
  blocks.push_back(adversarial);

  Block spender;
  spender.transactions.push_back(coinbase(3, {pay(15)}));
  spender.transactions.push_back(
      tx_of({{later_id, 0}, {adversarial.transactions[1].txid(), 0}, {op_return_id, 1},
             {adversarial.transactions[4].txid(), 0}, {funds, 3}},
            {pay(16)}));
  blocks.push_back(spender);
}

TEST(UtxoShardInvarianceTest, ApplyMatchesPointMutationReplay) {
  // The oracle applies each block as the point mutations it stands for, in
  // block order: every non-coinbase input removed, then every output
  // inserted, transaction by transaction, plus the per-transaction charge.
  // apply_block must land on the same set and charge the same instructions
  // at every shard count, with and without a pool — in-block spends
  // included, which every shard count would otherwise get wrong alike.
  std::vector<Block> blocks = shard_workload(721, 24);
  append_adversarial_blocks(blocks);
  parallel::ThreadPool pool(3);
  for (std::size_t shards : {1u, 3u, 8u, 16u}) {
    for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
      UtxoIndex oracle(InstructionCosts{}, UtxoIndex::ShardConfig{1, false});
      UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{shards, true});
      ic::InstructionMeter oracle_meter;
      ic::InstructionMeter meter;
      for (std::size_t h = 0; h < blocks.size(); ++h) {
        int height = static_cast<int>(h + 1);
        for (const auto& tx : blocks[h].transactions) {
          oracle_meter.charge(oracle.costs().per_tx_overhead);
          if (!tx.is_coinbase()) {
            for (const auto& in : tx.inputs) oracle.remove(in.prevout, oracle_meter);
          }
          Hash256 txid = tx.txid();
          for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
            oracle.insert(bitcoin::OutPoint{txid, v}, tx.outputs[v], height, oracle_meter);
          }
        }
        index.apply_block(blocks[h], height, meter, p);
        ASSERT_EQ(index.digest(), oracle.digest())
            << shards << " shards, pool=" << (p != nullptr) << ", block " << h;
        ASSERT_EQ(meter.count(), oracle_meter.count()) << shards << " shards, block " << h;
        ASSERT_EQ(index.size(), oracle.size()) << shards << " shards, block " << h;
        ASSERT_EQ(index.memory_bytes(), oracle.memory_bytes()) << shards << " shards, block " << h;
      }
      for (std::uint8_t tag = 0; tag < 32; ++tag) {
        ic::InstructionMeter a;
        ic::InstructionMeter b;
        EXPECT_EQ(index.utxos_for_script(script(tag), a), oracle.utxos_for_script(script(tag), b))
            << shards << " shards, script " << int{tag};
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Point mutations and value semantics

TEST(UtxoShardPointOpTest, PointOpsMatchSerialSemantics) {
  UtxoIndex serial(InstructionCosts{}, UtxoIndex::ShardConfig{1, false});
  UtxoIndex sharded(InstructionCosts{}, UtxoIndex::ShardConfig{8, true});
  ic::InstructionMeter serial_meter;
  ic::InstructionMeter sharded_meter;
  util::Rng rng(31);
  std::vector<bitcoin::OutPoint> created;
  for (int i = 0; i < 400; ++i) {
    if (rng.next() % 3 != 0 || created.empty()) {
      bitcoin::OutPoint outpoint{rng.next_hash(), static_cast<std::uint32_t>(rng.next() % 3)};
      bitcoin::TxOut out{static_cast<bitcoin::Amount>(1 + rng.next() % 1000),
                         script(static_cast<std::uint8_t>(rng.next() % 24))};
      int height = static_cast<int>(rng.next() % 100);
      serial.insert(outpoint, out, height, serial_meter);
      sharded.insert(outpoint, out, height, sharded_meter);
      created.push_back(outpoint);
    } else {
      std::size_t pick = rng.next() % created.size();
      serial.remove(created[pick], serial_meter);
      sharded.remove(created[pick], sharded_meter);
      created.erase(created.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  // A miss, charged on both.
  bitcoin::OutPoint missing{rng.next_hash(), 0};
  serial.remove(missing, serial_meter);
  sharded.remove(missing, sharded_meter);

  EXPECT_EQ(serial_meter.count(), sharded_meter.count());
  EXPECT_EQ(serial.digest(), sharded.digest());
  EXPECT_EQ(serial.size(), sharded.size());
  for (const auto& outpoint : created) {
    auto a = serial.find(outpoint);
    auto b = sharded.find(outpoint);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
}

TEST(UtxoShardPointOpTest, MovePreservesShardedContents) {
  UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{4, true});
  ic::InstructionMeter meter;
  for (std::uint8_t tag = 0; tag < 12; ++tag) {
    index.insert(bitcoin::OutPoint{util::Hash256{}, tag}, bitcoin::TxOut{100, script(tag)},
                 5, meter);
  }
  Hash256 digest = index.digest();
  std::uint64_t epoch = index.epoch();

  UtxoIndex moved(std::move(index));
  EXPECT_EQ(moved.digest(), digest);
  EXPECT_EQ(moved.epoch(), epoch);
  EXPECT_EQ(moved.shard_count(), 4u);

  UtxoIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.digest(), digest);
  EXPECT_EQ(assigned.size(), 12u);
  // The moved-from index stays a valid (empty) store.
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move): contract under test
}

// ---------------------------------------------------------------------------
// Epoch snapshot isolation: queries during ingestion

TEST(UtxoShardSnapshotTest, ReadersSeeConsistentEpochsDuringIngestion) {
  // Writer: each block spends every script's only UTXO and recreates exactly
  // one per script whose value encodes the block height. Readers (their own
  // meters) must therefore always observe exactly one UTXO per script with a
  // plausible height-consistent value — never a mid-block state where a
  // script's UTXO is removed but not yet replaced, and never a torn page.
  constexpr std::uint8_t kScripts = 8;
  constexpr int kBlocks = 60;
  UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{4, true});
  parallel::ThreadPool pool(2);
  ic::InstructionMeter writer_meter;

  // Height 1: one genesis-style output per script.
  std::vector<bitcoin::OutPoint> current(kScripts);
  {
    Block block;
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint::null(), {0x01}, 0xffffffff});
    for (std::uint8_t s = 0; s < kScripts; ++s) {
      tx.outputs.push_back(bitcoin::TxOut{1, script(s)});
    }
    block.transactions.push_back(tx);
    Hash256 txid = block.transactions[0].txid();
    for (std::uint8_t s = 0; s < kScripts; ++s) current[s] = bitcoin::OutPoint{txid, s};
    index.apply_block(block, 1, writer_meter, nullptr);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ic::InstructionMeter reader_meter;
      util::Rng rng(static_cast<std::uint64_t>(1000 + r));
      while (!stop.load(std::memory_order_relaxed)) {
        auto tag = static_cast<std::uint8_t>(rng.next() % kScripts);
        auto utxos = index.utxos_for_script(script(tag), reader_meter);
        if (utxos.size() != 1) {
          violations.fetch_add(1);
        } else if (utxos[0].value != utxos[0].height) {
          // Each epoch's single UTXO carries value == its creation height: a
          // mismatch means the reader saw a torn (mid-epoch) state.
          violations.fetch_add(1);
        }
        bitcoin::Amount balance = index.balance_of_script(script(tag), reader_meter);
        if (balance < 1 || balance > kBlocks + 1) violations.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int h = 2; h <= kBlocks; ++h) {
    Block block;
    bitcoin::Transaction tx;
    for (std::uint8_t s = 0; s < kScripts; ++s) {
      tx.inputs.push_back(bitcoin::TxIn{current[s], {}, 0xffffffff});
      tx.outputs.push_back(bitcoin::TxOut{static_cast<bitcoin::Amount>(h), script(s)});
    }
    block.transactions.push_back(tx);
    Hash256 txid = block.transactions[0].txid();
    for (std::uint8_t s = 0; s < kScripts; ++s) {
      current[s] = bitcoin::OutPoint{txid, static_cast<std::uint32_t>(s)};
    }
    index.apply_block(block, h, writer_meter, &pool);
    // Force genuine interleaving on small hosts: wait until the readers have
    // observed at least one state between publications before advancing.
    std::uint64_t seen = reads.load(std::memory_order_relaxed);
    for (int spin = 0; spin < 100000 && reads.load(std::memory_order_relaxed) <= seen;
         ++spin) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(index.epoch(), static_cast<std::uint64_t>(kBlocks));
  // Queries served snapshots; final state reflects every block.
  ic::InstructionMeter check;
  for (std::uint8_t s = 0; s < kScripts; ++s) {
    auto utxos = index.utxos_for_script(script(s), check);
    ASSERT_EQ(utxos.size(), 1u);
    EXPECT_EQ(utxos[0].value, kBlocks);
  }
}

TEST(UtxoShardSnapshotTest, ResidentBytesIndependentOfSnapshotReads) {
  // One store per shard either way: snapshot reads choose locking, not how
  // much the host holds.
  std::vector<Block> blocks = shard_workload(720, 40);
  auto resident = [&](bool snapshots) {
    UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{4, snapshots});
    ic::InstructionMeter meter;
    for (std::size_t h = 0; h < blocks.size(); ++h) {
      index.apply_block(blocks[h], static_cast<int>(h + 1), meter, nullptr);
    }
    return index.resident_bytes();
  };
  std::uint64_t off = resident(false);
  EXPECT_GT(off, 0u);
  EXPECT_EQ(resident(true), off);
}

TEST(UtxoShardSnapshotTest, ApplyBlockWaitsForReaderInsideItsShard) {
  // A reader parked inside a page walk's keep callback holds its shard, so a
  // concurrent apply_block touching that shard waits for it. The reader's
  // page is the pre-block state; the block is visible once it is released.
  UtxoIndex index(InstructionCosts{}, UtxoIndex::ShardConfig{4, true});
  ic::InstructionMeter meter;
  const util::Bytes paid = script(3);
  Block first;
  {
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint::null(), {0x01}, 0xffffffff});
    tx.outputs.push_back(bitcoin::TxOut{10, paid});
    tx.outputs.push_back(bitcoin::TxOut{20, paid});
    first.transactions.push_back(tx);
  }
  index.apply_block(first, 1, meter, nullptr);
  Block second;  // spends the 10 and pays 30 to the same script
  {
    bitcoin::Transaction tx;
    tx.inputs.push_back(
        bitcoin::TxIn{bitcoin::OutPoint{first.transactions[0].txid(), 0}, {}, 0xffffffff});
    tx.outputs.push_back(bitcoin::TxOut{30, paid});
    second.transactions.push_back(tx);
  }

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<StoredUtxo> page;
  std::thread reader([&] {
    ic::InstructionMeter reader_meter;
    bool parked = false;
    index.utxos_for_script_paged(paid, reader_meter, 0, 10, page,
                                 [&](const bitcoin::OutPoint&) {
                                   if (!parked) {
                                     parked = true;
                                     entered.set_value();
                                     released.wait();
                                   }
                                   return true;
                                 });
  });
  entered.get_future().wait();

  std::atomic<bool> applied{false};
  std::thread writer([&] {
    index.apply_block(second, 2, meter, nullptr);
    applied.store(true);
  });
  // An apply that did not wait would finish in microseconds.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(applied.load());
  EXPECT_EQ(index.epoch(), 1u);
  release.set_value();
  reader.join();
  writer.join();

  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].value, 10);
  EXPECT_EQ(page[1].value, 20);
  EXPECT_EQ(index.epoch(), 2u);
  ic::InstructionMeter check;
  auto after = index.utxos_for_script(paid, check);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].value, 30);
  EXPECT_EQ(after[0].height, 2);
  EXPECT_EQ(after[1].value, 20);
}

// ---------------------------------------------------------------------------
// Canister-level randomized pagination across shard counts

class ShardedPaginationTest : public ::testing::Test {
 protected:
  static CanisterConfig config(std::size_t shards, bool snapshots) {
    auto c = CanisterConfig::for_params(ChainParams::regtest());
    c.utxos_per_page = 5;  // force multi-page walks
    c.utxo_shards = shards;
    c.utxo_snapshot_reads = snapshots;
    return c;
  }

  std::string address(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_address(h, bitcoin::Network::kRegtest);
  }

  util::Bytes pay_script(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_script(h);
  }
};

TEST_F(ShardedPaginationTest, PageSequencesAndTokensByteIdenticalAcrossShardCounts) {
  const ChainParams& params = ChainParams::regtest();
  std::vector<std::unique_ptr<BitcoinCanister>> canisters;
  canisters.push_back(std::make_unique<BitcoinCanister>(params, config(1, false)));
  canisters.push_back(std::make_unique<BitcoinCanister>(params, config(4, true)));
  canisters.push_back(std::make_unique<BitcoinCanister>(params, config(16, true)));

  // A single chain paying a small tag set repeatedly, with extra same-script
  // outputs per block so stable pages span many heights; enough blocks that
  // the anchor advances (δ=6) and most UTXOs are stable.
  util::Rng rng(929);
  chain::HeaderTree build_tree(params, params.genesis_header);
  Hash256 tip = params.genesis_header.hash();
  std::uint32_t time = params.genesis_header.time;
  constexpr std::uint8_t kTags = 3;
  for (int i = 0; i < 24; ++i) {
    time += 600;
    auto tag = static_cast<std::uint8_t>(1 + rng.next() % kTags);
    std::vector<bitcoin::Transaction> txs;
    bitcoin::Transaction extra;
    bitcoin::TxIn in;
    in.prevout.txid = rng.next_hash();
    extra.inputs.push_back(in);
    int n_outs = 1 + static_cast<int>(rng.next() % 3);
    for (int o = 0; o < n_outs; ++o) {
      extra.outputs.push_back(bitcoin::TxOut{
          static_cast<bitcoin::Amount>(100 + o), pay_script(static_cast<std::uint8_t>(
                                                     1 + rng.next() % kTags))});
    }
    txs.push_back(std::move(extra));
    Block b = chain::build_child_block(build_tree, tip, time, pay_script(tag),
                                       50 * bitcoin::kCoin, std::move(txs),
                                       static_cast<std::uint64_t>(i + 1));
    tip = b.hash();
    ASSERT_EQ(build_tree.accept(b.header, static_cast<std::int64_t>(time) + 4000),
              chain::AcceptResult::kAccepted);
    adapter::AdapterResponse response;
    response.blocks.emplace_back(b, b.header);
    for (auto& canister : canisters) {
      canister->process_response(response, static_cast<std::int64_t>(time) + 4000);
    }
  }
  ASSERT_GT(canisters[0]->anchor_height(), 0);

  // Randomized page walks: every page's UTXO list AND its opaque token must
  // be byte-identical across shard counts.
  for (int round = 0; round < 8; ++round) {
    auto tag = static_cast<std::uint8_t>(1 + rng.next() % kTags);
    int minconf = static_cast<int>(rng.next() % 7);
    std::vector<GetUtxosRequest> requests(canisters.size());
    for (auto& request : requests) {
      request.address = address(tag);
      request.min_confirmations = minconf;
    }
    for (int page = 0; page < 64; ++page) {
      auto baseline = canisters[0]->get_utxos(requests[0]);
      for (std::size_t c = 1; c < canisters.size(); ++c) {
        auto got = canisters[c]->get_utxos(requests[c]);
        ASSERT_EQ(baseline.status, got.status);
        if (!baseline.ok()) continue;
        ASSERT_EQ(baseline.value.utxos, got.value.utxos)
            << canisters[c]->config().utxo_shards << " shards, page " << page;
        ASSERT_EQ(baseline.value.tip_hash, got.value.tip_hash);
        ASSERT_EQ(baseline.value.next_page, got.value.next_page)
            << "token diverged at " << canisters[c]->config().utxo_shards << " shards";
        if (got.value.next_page) requests[c].page = got.value.next_page;
      }
      if (!baseline.ok() || !baseline.value.next_page) break;
      requests[0].page = baseline.value.next_page;
    }
  }
}

}  // namespace
}  // namespace icbtc::canister
