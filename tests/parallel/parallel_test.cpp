#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/params.h"

namespace icbtc::parallel {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.run(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, RepeatedRunsAreIndependent) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run(17, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 16 * 17 / 2);
  }
}

TEST(ThreadPoolTest, ZeroAndOneItemRuns) {
  ThreadPool pool(2);
  pool.run(0, [](std::size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  pool.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersEachCompleteExactlyOnce) {
  // Two threads submitting overlapping run() calls to the same pool: before
  // submissions were serialized, the second submission clobbered
  // current_/generation_, stranding workers on the overwritten job and
  // letting a submitter return with stragglers still claiming its items.
  // Under TSan this also shakes out any residual data race in the
  // publication protocol.
  ThreadPool pool(3);
  constexpr int kRounds = 200;
  constexpr std::size_t kN = 64;
  std::atomic<int> failures{0};
  auto submitter = [&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> counts(kN);
      pool.run(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
      for (std::size_t i = 0; i < kN; ++i) {
        if (counts[i].load() != 1) failures.fetch_add(1);
      }
    }
  };
  std::thread a(submitter);
  std::thread b(submitter);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PoolMetricsTest, CountersAndGaugesAreDeterministicAfterRuns) {
  // The pinned contract of ThreadPool::set_metrics: after any number of
  // completed runs, pool.runs counts fan-outs, pool.tasks_executed counts
  // items, and both gauges read exactly 0 (instrument updates are ordered
  // before each item's completion count).
  obs::MetricsRegistry registry;
  ThreadPool pool(3);
  pool.set_metrics(&registry);
  pool.run(8, [](std::size_t) {});
  pool.run(5, [](std::size_t) {});
  pool.run(0, [](std::size_t) {});  // empty fan-out short-circuits: no run counted
  EXPECT_EQ(registry.counter("pool.runs").value(), 2u);
  EXPECT_EQ(registry.counter("pool.tasks_executed").value(), 13u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0);
  EXPECT_EQ(registry.gauge("pool.workers_busy").value(), 0);
}

TEST(PoolMetricsTest, GaugesAreLiveDuringAFanOut) {
  obs::MetricsRegistry registry;
  ThreadPool pool(2);
  pool.set_metrics(&registry);
  std::atomic<std::int64_t> max_busy{0};
  std::atomic<std::int64_t> max_depth{0};
  pool.run(64, [&](std::size_t) {
    std::int64_t busy = registry.gauge("pool.workers_busy").value();
    std::int64_t depth = registry.gauge("pool.queue_depth").value();
    std::int64_t prev = max_busy.load();
    while (busy > prev && !max_busy.compare_exchange_weak(prev, busy)) {
    }
    prev = max_depth.load();
    while (depth > prev && !max_depth.compare_exchange_weak(prev, depth)) {
    }
  });
  // The observing task itself is inside fn, so both gauges were >= 1.
  EXPECT_GE(max_busy.load(), 1);
  EXPECT_GE(max_depth.load(), 1);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0);
  EXPECT_EQ(registry.gauge("pool.workers_busy").value(), 0);
}

TEST(PoolMetricsTest, DetachStopsRecording) {
  obs::MetricsRegistry registry;
  ThreadPool pool(2);
  pool.set_metrics(&registry);
  pool.run(4, [](std::size_t) {});
  pool.set_metrics(nullptr);
  pool.run(4, [](std::size_t) {});
  EXPECT_EQ(registry.counter("pool.runs").value(), 1u);
  EXPECT_EQ(registry.counter("pool.tasks_executed").value(), 4u);
}

TEST(SharedPoolTest, ReplacementDuringFlightIsSafe) {
  // A fan-out holding shared_pool_ref() must survive concurrent
  // set_shared_pool() replacement: the old pool stays alive until the last
  // reference drops (previously reset() could destroy — and join — a pool
  // out from under an in-flight run()).
  set_shared_pool(2);
  std::atomic<bool> stop{false};
  std::atomic<bool> user_done{false};
  std::atomic<std::uint64_t> completed{0};
  std::thread user([&] {
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true); }
    } done{user_done};  // also set when a failed ASSERT returns early
    while (!stop.load()) {
      std::shared_ptr<ThreadPool> pool = shared_pool_ref();
      if (pool == nullptr) continue;
      std::atomic<int> sum{0};
      pool->run(32, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
      ASSERT_EQ(sum.load(), 31 * 32 / 2);
      completed.fetch_add(1);
    }
  });
  // Each replacement waits for a fan-out completed since the previous one,
  // so every replacement races a user that is mid-flight or about to be,
  // however busy the host.
  std::uint64_t seen = 0;
  for (int i = 0; i < 50; ++i) {
    while (completed.load() == seen && !user_done.load()) std::this_thread::yield();
    seen = completed.load();
    set_shared_pool(1 + static_cast<std::size_t>(i % 3));
  }
  stop.store(true);
  user.join();
  set_shared_pool(0);
  EXPECT_EQ(shared_pool(), nullptr);
  EXPECT_GE(completed.load(), 50u);
}

TEST(ParallelMapTest, MatchesSerialResultForAnyThreadCount) {
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  auto fn = [](int x) { return x * x + 7; };

  std::vector<int> serial;
  parallel_map(nullptr, items, serial, fn);
  ASSERT_EQ(serial.size(), items.size());

  for (std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    std::vector<int> parallel_out;
    parallel_map(&pool, items, parallel_out, fn);
    EXPECT_EQ(parallel_out, serial) << threads << " threads";
  }
}

TEST(ParallelMapTest, NullPoolRunsSerially) {
  std::vector<int> items = {1, 2, 3};
  std::vector<int> out;
  parallel_map(nullptr, items, out, [](int x) { return x + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(SharedPoolTest, DisabledByDefaultAndInstallable) {
  // Serial by default: no pool unless a consumer opts in.
  EXPECT_EQ(shared_pool(), nullptr);
  set_shared_pool(2);
  ASSERT_NE(shared_pool(), nullptr);
  EXPECT_EQ(shared_pool()->worker_count(), 2u);
  set_shared_pool(0);
  EXPECT_EQ(shared_pool(), nullptr);
}

TEST(ParallelHashingTest, BlockTxidsAndMerkleRootMatchSerial) {
  // Deterministic fan-out on the real consumer: a block's txids and merkle
  // root must be byte-identical with and without a pool, whatever the cache
  // state.
  bitcoin::Block block = bitcoin::genesis_block(bitcoin::ChainParams::regtest());
  for (int i = 0; i < 9; ++i) {
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{
        bitcoin::OutPoint{block.transactions.back().txid(), 0}, {0x51}, 0xffffffff});
    tx.outputs.push_back(bitcoin::TxOut{1000 + i, {0x51, static_cast<std::uint8_t>(i)}});
    block.transactions.push_back(tx);
  }

  auto serial_ids = block.txids(nullptr);
  auto serial_root = block.compute_merkle_root(nullptr);

  ThreadPool pool(4);
  // Fresh copies with cold caches so the pool actually computes the hashes.
  bitcoin::Block reparsed = bitcoin::Block::parse(block.serialize());
  for (auto& tx : reparsed.transactions) tx.invalidate_txid();
  EXPECT_EQ(reparsed.txids(&pool), serial_ids);
  EXPECT_EQ(reparsed.compute_merkle_root(&pool), serial_root);
}

TEST(ParallelHashingTest, PooledParseSeedsEveryTxidOnce) {
  // Block::deserialize hashes the txids in chunks on the shared pool. A
  // block of 1,200 transactions of mixed sizes parses to the same txids and
  // merkle root without a pool, on 1 worker and on 3, hashing each
  // transaction exactly once; with the txid cache off it hashes none.
  bitcoin::Block block = bitcoin::genesis_block(bitcoin::ChainParams::regtest());
  for (std::uint32_t i = 0; i < 1200; ++i) {
    bitcoin::Transaction tx;
    for (std::uint32_t in = 0; in <= i % 3; ++in) {
      tx.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint{block.transactions.back().txid(), in},
                                        util::Bytes(i % 7 == 0 ? 300 : 20 + i % 90, 0x51),
                                        0xffffffff});
    }
    for (std::uint32_t out = 0; out <= i % 5; ++out) {
      tx.outputs.push_back(bitcoin::TxOut{1000 + i, util::Bytes(i % 11 == 0 ? 0 : 25, 0x6a)});
    }
    block.transactions.push_back(tx);
  }
  block.header.merkle_root = block.compute_merkle_root(nullptr);
  const std::vector<util::Hash256> expected = block.txids(nullptr);
  const util::Bytes bytes = block.serialize();

  for (std::size_t workers : {0u, 1u, 3u}) {
    SCOPED_TRACE(workers);
    set_shared_pool(workers);
    auto before = bitcoin::Transaction::txid_computations();
    bitcoin::Block parsed = bitcoin::Block::parse(bytes);
    EXPECT_EQ(bitcoin::Transaction::txid_computations() - before, block.transactions.size());
    EXPECT_TRUE(parsed.txids_cached());
    EXPECT_EQ(parsed.txids(nullptr), expected);
    EXPECT_EQ(parsed.compute_merkle_root(nullptr), block.header.merkle_root);
    EXPECT_EQ(bitcoin::Transaction::txid_computations() - before, block.transactions.size());

    bitcoin::Transaction::set_txid_cache_enabled(false);
    before = bitcoin::Transaction::txid_computations();
    bitcoin::Block uncached = bitcoin::Block::parse(bytes);
    EXPECT_EQ(bitcoin::Transaction::txid_computations(), before);
    for (const auto& tx : uncached.transactions) EXPECT_FALSE(tx.txid_cached());
    bitcoin::Transaction::set_txid_cache_enabled(true);
  }
  set_shared_pool(0);
}

}  // namespace
}  // namespace icbtc::parallel
