// Transaction and block relay (src/reconcile): two wire-bandwidth studies.
//
// 1. Compact block relay — bytes for full-block relay vs IBLT-sketch compact
//    relay at high and low mempool overlap (compact ≤ 25% of full is the
//    acceptance target; low overlap exercises the getblocktxn/full fallbacks).
// 2. Continuous mempool reconciliation — announcement bytes for per-peer inv
//    flooding vs Erlay-style sketch reconciliation on a 100-node network
//    under a sustained transaction stream. The acceptance gate is a ≥ 3x
//    announcement-bandwidth reduction; the process exits nonzero (and the CI
//    bench-smoke job fails) if reconciliation misses the gate or either mode
//    fails to converge every node's mempool.
//
// ICBTC_BENCH_QUICK (set to anything but "0") shrinks the transaction stream
// for CI smoke runs.
// Every number derives from the seeded simulation — two runs of the same
// build produce byte-identical JSON reports.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bitcoin/script.h"
#include "btcnet/miner.h"
#include "btcnet/node.h"
#include "crypto/ripemd160.h"
#include "obs/metrics.h"
#include "reconcile/compact_block.h"
#include "workload.h"

namespace {

using namespace icbtc;

std::uint64_t counter(const obs::MetricsRegistry& metrics, const std::string& name) {
  auto it = metrics.counters().find(name);
  return it == metrics.counters().end() ? 0 : it->second.value();
}

struct RelayStats {
  std::uint64_t full_bytes = 0;     // bytes of MsgBlock during block relay
  std::uint64_t compact_bytes = 0;  // cmpctblock + getblocktxn + blocktxn + getdata + block
  std::uint64_t decode_success = 0;
  std::uint64_t peel_failure = 0;
  std::uint64_t fallback_getblocktxn = 0;
  std::uint64_t fallback_full = 0;
};

/// Two connected nodes; Alice mines `blocks` blocks of `txs_per_block`
/// four-output spends each. With `high_overlap` the spends propagate to Bob
/// before mining (≥95% mempool overlap); otherwise they are submitted in the
/// same instant as the block, so the compact sketch cannot cover them. Byte
/// counters are measured over the block-relay segments only (the funding
/// blocks and tx gossip are excluded from both modes alike).
RelayStats run_relay(btcnet::BlockRelayMode mode, bool high_overlap, int blocks,
                     int txs_per_block) {
  util::Simulation sim;
  btcnet::Network net{sim, util::Rng(31)};
  const auto& params = bitcoin::ChainParams::regtest();
  obs::MetricsRegistry metrics;
  btcnet::NodeOptions options;
  options.relay_mode = mode;
  btcnet::BitcoinNode alice{net, params, options};
  btcnet::BitcoinNode bob{net, params, options};
  btcnet::Miner miner{alice, 1.0, util::Rng(32)};
  alice.set_metrics(&metrics);
  bob.set_metrics(&metrics);
  net.set_metrics(&metrics);
  net.connect(alice.id(), bob.id());
  sim.run();

  auto key = crypto::PrivateKey::from_seed(util::Bytes{3, 1, 4});
  auto key_hash = crypto::hash160(key.public_key().compressed());
  std::uint32_t fund_time = params.genesis_header.time;
  std::uint64_t tag = 9000;

  auto fund = [&] {
    fund_time += 600;
    auto block = chain::build_child_block(alice.tree(), alice.best_tip(), fund_time,
                                          bitcoin::p2pkh_script(key_hash), 50 * bitcoin::kCoin,
                                          {}, tag++);
    alice.submit_block(block);
    sim.run_until(sim.now() + 600 * util::kSecond);  // stay ahead of future drift
    return bitcoin::OutPoint{block.transactions[0].txid(), 0};
  };
  auto spend = [&](const bitcoin::OutPoint& coin) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = coin;
    tx.inputs.push_back(in);
    for (int i = 0; i < 4; ++i) {
      tx.outputs.push_back(bitcoin::TxOut{12 * bitcoin::kCoin, bitcoin::p2pkh_script(key_hash)});
    }
    auto lock = bitcoin::p2pkh_script(key_hash);
    auto digest = bitcoin::legacy_sighash(tx, 0, lock);
    tx.inputs[0].script_sig =
        bitcoin::p2pkh_script_sig(key.sign(digest), key.public_key().compressed());
    return tx;
  };
  auto relay_bytes = [&] {
    return counter(metrics, "net.bytes.cmpctblock") + counter(metrics, "net.bytes.getblocktxn") +
           counter(metrics, "net.bytes.blocktxn") + counter(metrics, "net.bytes.getdata") +
           counter(metrics, "net.bytes.block");
  };

  RelayStats stats;
  for (int b = 0; b < blocks; ++b) {
    std::vector<bitcoin::OutPoint> coins;
    for (int i = 0; i < txs_per_block; ++i) coins.push_back(fund());
    for (const auto& coin : coins) alice.submit_tx(spend(coin));
    if (high_overlap) sim.run();  // gossip the spends to Bob first

    std::uint64_t full0 = counter(metrics, "net.bytes.block");
    std::uint64_t compact0 = relay_bytes();
    miner.mine_one();
    sim.run();
    stats.full_bytes += counter(metrics, "net.bytes.block") - full0;
    stats.compact_bytes += relay_bytes() - compact0;
  }
  stats.decode_success = counter(metrics, "cmpct.decode_success");
  stats.peel_failure = counter(metrics, "cmpct.peel_failure");
  stats.fallback_getblocktxn = counter(metrics, "cmpct.fallback.getblocktxn");
  stats.fallback_full = counter(metrics, "cmpct.fallback.full");
  return stats;
}

/// Returns the `"scenarios"` JSON fragment for the report.
std::string run_relay_table() {
  std::printf("\n--- compact block relay: bytes on the wire (full vs IBLT sketch) ---\n");
  const int kBlocks = 3;
  const int kTxs = 100;

  std::string json = "  \"blocks\": " + std::to_string(kBlocks) +
                     ",\n  \"txs_per_block\": " + std::to_string(kTxs) +
                     ",\n  \"scenarios\": [\n";
  std::printf("%-14s %-14s %-14s %-8s %-22s\n", "scenario", "full bytes", "compact bytes",
              "ratio", "fallbacks (gbt/full)");
  bool first = true;
  for (bool high_overlap : {true, false}) {
    auto full = run_relay(btcnet::BlockRelayMode::kFull, high_overlap, kBlocks, kTxs);
    auto compact = run_relay(btcnet::BlockRelayMode::kCompact, high_overlap, kBlocks, kTxs);
    double ratio = full.full_bytes == 0
                       ? 0.0
                       : static_cast<double>(compact.compact_bytes) /
                             static_cast<double>(full.full_bytes);
    const char* name = high_overlap ? "high_overlap" : "low_overlap";
    std::printf("%-14s %-14llu %-14llu %-8.3f %llu/%llu\n", name,
                static_cast<unsigned long long>(full.full_bytes),
                static_cast<unsigned long long>(compact.compact_bytes), ratio,
                static_cast<unsigned long long>(compact.fallback_getblocktxn),
                static_cast<unsigned long long>(compact.fallback_full));
    char entry[512];
    std::snprintf(entry, sizeof(entry),
                  "    {\"name\": \"%s\", \"full_bytes\": %llu, \"compact_bytes\": %llu, "
                  "\"compact_over_full\": %.4f, \"decode_success\": %llu, "
                  "\"peel_failure\": %llu, \"fallback_getblocktxn\": %llu, "
                  "\"fallback_full\": %llu}",
                  name, static_cast<unsigned long long>(full.full_bytes),
                  static_cast<unsigned long long>(compact.compact_bytes), ratio,
                  static_cast<unsigned long long>(compact.decode_success),
                  static_cast<unsigned long long>(compact.peel_failure),
                  static_cast<unsigned long long>(compact.fallback_getblocktxn),
                  static_cast<unsigned long long>(compact.fallback_full));
    json += (first ? "" : ",\n");
    json += entry;
    first = false;
  }
  json += "\n  ]";
  std::printf("\nAt high overlap the sketch replaces the block body; at low overlap the\n");
  std::printf("peel fails detectably and getblocktxn/blocktxn (or a full getdata) fill in.\n");
  return json;
}

// ---------------------------------------------------------------------------
// Continuous mempool reconciliation: flooding vs Erlay-style sketches.
// ---------------------------------------------------------------------------

struct ContinuousStats {
  std::uint64_t announce_bytes = 0;  // inv + reconsketch + recondiff + reconfinalize
  std::uint64_t announce_msgs = 0;
  std::uint64_t inv_bytes = 0;
  std::uint64_t sketch_bytes = 0;
  std::uint64_t diff_bytes = 0;
  std::uint64_t finalize_bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bisections = 0;
  std::uint64_t full_inv_fallbacks = 0;
  std::uint64_t fanout_invs = 0;
  bool converged = true;
};

/// A 100-node network shaped like the one Erlay assumes — sparse but well
/// connected (a ring with three chord strides gives every node 8 links and a
/// diameter of ~3). `txs` distinct-fee spends are injected in bursts from
/// seeded random origins, several per reconciliation interval, and the run
/// drains to quiescence. Announcement bandwidth is everything spent deciding
/// *which* transactions a peer is missing: inv traffic plus the three
/// reconciliation message types. getdata and tx payload bytes are excluded
/// from both modes alike — both modes move every transaction exactly once.
ContinuousStats run_continuous(btcnet::TxRelayMode mode, int peers, int txs) {
  util::Simulation sim;
  btcnet::Network net{sim, util::Rng(41)};
  const auto& params = bitcoin::ChainParams::regtest();
  obs::MetricsRegistry metrics;
  btcnet::NodeOptions options;
  options.tx_relay_mode = mode;
  // Pure reconciliation, on Erlay's cadence: a fanout inv cascade would cover
  // nearly the whole network by itself (paying flooding's per-announcement
  // price), and a short interval spends a sketch's fixed cost on a handful of
  // transactions. An 8s interval lets each round carry a large batch, which
  // is where sketch amortisation wins.
  options.flood_fanout = 0;
  options.recon_interval = 8 * util::kSecond;
  std::vector<std::unique_ptr<btcnet::BitcoinNode>> nodes;
  nodes.reserve(static_cast<std::size_t>(peers));
  for (int i = 0; i < peers; ++i) {
    nodes.push_back(std::make_unique<btcnet::BitcoinNode>(net, params, options));
    nodes.back()->set_metrics(&metrics);
  }
  net.set_metrics(&metrics);
  for (int i = 0; i < peers; ++i) {
    for (int step : {1, 7, 19, 43}) {
      net.connect(nodes[static_cast<std::size_t>(i)]->id(),
                  nodes[static_cast<std::size_t>((i + step) % peers)]->id());
    }
  }
  sim.run();

  auto key = crypto::PrivateKey::from_seed(util::Bytes{3, 1, 4});
  auto key_hash = crypto::hash160(key.public_key().compressed());
  std::uint32_t fund_time = params.genesis_header.time;
  std::uint64_t tag = 7000;
  auto fund = [&] {
    fund_time += 600;
    auto block = chain::build_child_block(nodes[0]->tree(), nodes[0]->best_tip(), fund_time,
                                          bitcoin::p2pkh_script(key_hash), 50 * bitcoin::kCoin,
                                          {}, tag++);
    nodes[0]->submit_block(block);
    sim.run_until(sim.now() + 600 * util::kSecond);  // stay ahead of future drift
    return bitcoin::OutPoint{block.transactions[0].txid(), 0};
  };
  auto spend = [&](const bitcoin::OutPoint& coin, int i) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = coin;
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{49 * bitcoin::kCoin - i * 1000,
                                        bitcoin::p2pkh_script(key_hash)});
    auto lock = bitcoin::p2pkh_script(key_hash);
    auto digest = bitcoin::legacy_sighash(tx, 0, lock);
    tx.inputs[0].script_sig =
        bitcoin::p2pkh_script_sig(key.sign(digest), key.public_key().compressed());
    return tx;
  };

  std::vector<bitcoin::OutPoint> coins;
  for (int i = 0; i < txs; ++i) coins.push_back(fund());
  sim.run();

  auto announce_bytes = [&] {
    return counter(metrics, "net.bytes.inv") + counter(metrics, "net.bytes.reconsketch") +
           counter(metrics, "net.bytes.recondiff") + counter(metrics, "net.bytes.reconfinalize");
  };
  auto announce_msgs = [&] {
    return counter(metrics, "net.msg.inv") + counter(metrics, "net.msg.reconsketch") +
           counter(metrics, "net.msg.recondiff") + counter(metrics, "net.msg.reconfinalize");
  };
  // Snapshot after funding: the deltas below exclude block-relay invs.
  std::uint64_t bytes0 = announce_bytes();
  std::uint64_t msgs0 = announce_msgs();
  std::uint64_t inv0 = counter(metrics, "net.bytes.inv");

  util::Rng origins(43);
  std::vector<util::Hash256> txids;
  for (int i = 0; i < txs; ++i) {
    auto tx = spend(coins[static_cast<std::size_t>(i)], i);
    txids.push_back(tx.txid());
    nodes[origins.next_below(static_cast<std::uint64_t>(peers))]->submit_tx(tx);
    // A sustained stream of 16 tx/s: arrivals span several reconciliation
    // intervals, so sketches carry steady batches the divergence estimator
    // can track rather than one untrackable spike, and the per-round fixed
    // costs amortise over dense diffs.
    if ((i + 1) % 4 == 0) sim.run_until(sim.now() + util::kSecond / 4);
  }
  sim.run();

  ContinuousStats stats;
  stats.announce_bytes = announce_bytes() - bytes0;
  stats.announce_msgs = announce_msgs() - msgs0;
  stats.inv_bytes = counter(metrics, "net.bytes.inv") - inv0;
  stats.sketch_bytes = counter(metrics, "net.bytes.reconsketch");
  stats.diff_bytes = counter(metrics, "net.bytes.recondiff");
  stats.finalize_bytes = counter(metrics, "net.bytes.reconfinalize");
  stats.rounds = counter(metrics, "relay.rounds_completed");
  stats.bisections = counter(metrics, "relay.bisections");
  stats.full_inv_fallbacks = counter(metrics, "relay.full_inv_fallbacks");
  stats.fanout_invs = counter(metrics, "relay.fanout_invs");
  for (const auto& node : nodes) {
    for (const auto& txid : txids) {
      if (!node->in_mempool(txid)) stats.converged = false;
    }
  }
  return stats;
}

/// Returns {json fragment, gate passed}.
std::pair<std::string, bool> run_continuous_table() {
  const bool quick = bench::quick_mode();
  const int kPeers = 100;
  // The gate needs a sustained stream: with too few transactions the fixed
  // per-round sketch cost dominates and neither mode's asymptotic behaviour
  // shows. 128 is past the knee; the full run doubles it.
  const int kTxs = quick ? 256 : 512;
  std::printf("\n--- continuous tx relay: announcement bytes (flood vs reconciliation) ---\n");
  std::printf("peers=%d txs=%d%s\n", kPeers, kTxs, quick ? " (quick)" : "");

  auto flood = run_continuous(btcnet::TxRelayMode::kFlood, kPeers, kTxs);
  auto recon = run_continuous(btcnet::TxRelayMode::kReconcile, kPeers, kTxs);
  double reduction = recon.announce_bytes == 0
                         ? 0.0
                         : static_cast<double>(flood.announce_bytes) /
                               static_cast<double>(recon.announce_bytes);

  std::printf("%-12s %-16s %-16s %-14s\n", "mode", "announce bytes", "announce msgs",
              "bytes per tx");
  std::printf("%-12s %-16llu %-16llu %-14llu\n", "flood",
              static_cast<unsigned long long>(flood.announce_bytes),
              static_cast<unsigned long long>(flood.announce_msgs),
              static_cast<unsigned long long>(flood.announce_bytes / kTxs));
  std::printf("%-12s %-16llu %-16llu %-14llu\n", "reconcile",
              static_cast<unsigned long long>(recon.announce_bytes),
              static_cast<unsigned long long>(recon.announce_msgs),
              static_cast<unsigned long long>(recon.announce_bytes / kTxs));
  std::printf("reduction: %.2fx  (rounds %llu, bisections %llu, full-inv %llu, fanout invs %llu)\n",
              reduction, static_cast<unsigned long long>(recon.rounds),
              static_cast<unsigned long long>(recon.bisections),
              static_cast<unsigned long long>(recon.full_inv_fallbacks),
              static_cast<unsigned long long>(recon.fanout_invs));
  std::printf("reconcile breakdown: inv %llu, sketch %llu, diff %llu, finalize %llu\n",
              static_cast<unsigned long long>(recon.inv_bytes),
              static_cast<unsigned long long>(recon.sketch_bytes),
              static_cast<unsigned long long>(recon.diff_bytes),
              static_cast<unsigned long long>(recon.finalize_bytes));

  char entry[768];
  std::snprintf(entry, sizeof(entry),
                "  \"continuous\": {\"peers\": %d, \"txs\": %d, "
                "\"flood_announce_bytes\": %llu, \"flood_announce_msgs\": %llu, "
                "\"recon_announce_bytes\": %llu, \"recon_announce_msgs\": %llu, "
                "\"flood_over_recon\": %.4f, \"recon_rounds\": %llu, "
                "\"recon_bisections\": %llu, \"recon_full_inv_fallbacks\": %llu, "
                "\"recon_fanout_invs\": %llu, \"flood_converged\": %s, "
                "\"recon_converged\": %s}",
                kPeers, kTxs, static_cast<unsigned long long>(flood.announce_bytes),
                static_cast<unsigned long long>(flood.announce_msgs),
                static_cast<unsigned long long>(recon.announce_bytes),
                static_cast<unsigned long long>(recon.announce_msgs), reduction,
                static_cast<unsigned long long>(recon.rounds),
                static_cast<unsigned long long>(recon.bisections),
                static_cast<unsigned long long>(recon.full_inv_fallbacks),
                static_cast<unsigned long long>(recon.fanout_invs),
                flood.converged ? "true" : "false", recon.converged ? "true" : "false");

  bool pass = true;
  if (!flood.converged || !recon.converged) {
    std::printf("GATE FAILED: a relay mode did not converge every mempool "
                "(flood %s, reconcile %s)\n",
                flood.converged ? "ok" : "diverged", recon.converged ? "ok" : "diverged");
    pass = false;
  }
  if (reduction < 3.0) {
    std::printf("GATE FAILED: announcement-bandwidth reduction %.2fx < 3x\n", reduction);
    pass = false;
  }
  return {std::string(entry), pass};
}

bitcoin::Block make_bench_block(std::size_t txs) {
  bitcoin::Block block;
  bitcoin::Transaction coinbase;
  bitcoin::TxIn cin;
  cin.prevout = bitcoin::OutPoint::null();
  cin.script_sig = bitcoin::Bytes{0x01};
  coinbase.inputs.push_back(cin);
  coinbase.outputs.push_back(bitcoin::TxOut{50 * bitcoin::kCoin, bitcoin::Bytes{0x6a}});
  block.transactions.push_back(coinbase);
  for (std::size_t i = 0; i < txs; ++i) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    for (std::size_t b = 0; b < 8; ++b) {
      in.prevout.txid.data[b] = static_cast<std::uint8_t>((i + 1) >> (8 * b));
    }
    tx.inputs.push_back(in);
    for (int o = 0; o < 4; ++o) {
      tx.outputs.push_back(
          bitcoin::TxOut{static_cast<bitcoin::Amount>(1000 + i), bitcoin::Bytes{0x76, 0xa9}});
    }
    block.transactions.push_back(tx);
  }
  block.header.merkle_root = block.compute_merkle_root();
  return block;
}

void BM_CompactEncode(benchmark::State& state) {
  auto block = make_bench_block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reconcile::CompactBlockCodec::encode(block, 16));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactEncode)->Arg(16)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_CompactDecode(benchmark::State& state) {
  auto block = make_bench_block(static_cast<std::size_t>(state.range(0)));
  auto cb = reconcile::CompactBlockCodec::encode(block, 16);
  std::vector<const bitcoin::Transaction*> pool;
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    pool.push_back(&block.transactions[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reconcile::CompactBlockCodec::decode(cb, pool));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactDecode)->Arg(16)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::string scenarios = run_relay_table();
  auto [continuous, pass] = run_continuous_table();

  std::string json = "{\n  \"bench\": \"relay\",\n" + scenarios + ",\n" + continuous + "\n}\n";
  std::printf("\n--- bench_relay JSON report ---\n%s", json.c_str());
  if (const char* path = std::getenv("ICBTC_METRICS_JSON"); path != nullptr) {
    if (std::FILE* f = std::fopen(path, "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("(written to %s)\n", path);
    }
  }
  if (!pass) return 1;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
