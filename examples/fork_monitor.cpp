// Fork monitor: visualizes the paper's stability calculus (§II-C, Fig. 3).
// Builds a block tree with competing forks and prints, per block, the two
// depth functions (d_c, d_w) and the confirmation-based stability — showing
// how stability stagnates under a racing fork and goes negative on the
// losing branch, and when the difficulty-based rule lets the anchor advance.
//
// Build & run:  cmake --build build && ./build/examples/fork_monitor
//
// With --trace, every header acceptance becomes a span on a logical clock
// (600 µs per header), fork appearances land in the flight recorder (dumped
// the moment a fork is detected), and the full trace is written as Chrome
// trace-event JSON to fork_monitor_trace.json (ICBTC_CHROME_TRACE_OUT) for
// chrome://tracing / Perfetto.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "btcnet/node.h"
#include "canister/bitcoin_canister.h"
#include "chain/block_builder.h"
#include "crypto/ecdsa.h"
#include "crypto/ripemd160.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "parallel/thread_pool.h"

using namespace icbtc;

namespace {

struct TreePrinter {
  const chain::HeaderTree& tree;
  std::map<util::Hash256, std::string> names;
  obs::MetricsRegistry* metrics = nullptr;

  void print() const {
    if (metrics != nullptr) update_metrics();
    std::printf("  %-6s %-7s %-5s %-5s %-10s %s\n", "block", "height", "d_c", "d_w",
                "stability", "note");
    // Order by height, then name.
    for (int h = tree.root().height; h <= tree.max_height(); ++h) {
      for (const auto& hash : tree.blocks_at_height(h)) {
        int stability = tree.confirmation_stability(hash);
        bool on_main = false;
        for (const auto& m : tree.current_chain()) {
          if (m == hash) on_main = true;
        }
        std::printf("  %-6s %-7d %-5d %-5s %-10d %s\n", names.at(hash).c_str(), h,
                    tree.depth_count(hash), tree.depth_work(hash).to_hex().substr(62).c_str(),
                    stability, on_main ? "on current chain" : "fork");
      }
    }
    std::printf("\n");
  }

  /// Refreshes the tree-shape gauges from the current snapshot (the
  /// stability histogram is filled once, at the end, so observations are
  /// not double-counted across prints).
  void update_metrics() const {
    metrics->gauge("monitor.tree_size").set(static_cast<std::int64_t>(tree.size()));
    metrics->gauge("monitor.max_height").set(tree.max_height());
    metrics->gauge("monitor.best_height").set(tree.best_height());
    int forked_heights = 0;
    for (int h = tree.root().height; h <= tree.max_height(); ++h) {
      if (tree.blocks_at_height(h).size() > 1) ++forked_heights;
    }
    metrics->gauge("monitor.forked_heights").set(forked_heights);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool trace_enabled = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_enabled = true;
  }

  std::printf("=== fork monitor: δ-stability in action (cf. Fig. 3) ===\n\n");

  const auto& params = bitcoin::ChainParams::regtest();
  chain::HeaderTree tree(params, params.genesis_header);
  obs::MetricsRegistry metrics;
  TreePrinter printer{tree, {}, &metrics};
  printer.names[tree.root_hash()] = "g";
  std::uint32_t time = params.genesis_header.time;
  std::int64_t now = time + 1000000;
  std::uint32_t salt = 0;

  // Headers arrive on a logical clock: 600 µs apart (a µs-for-second
  // miniature of Bitcoin's 10-minute block interval), entirely
  // deterministic.
  obs::TracerConfig tracer_config;
  tracer_config.event_capacity = 128;
  obs::Tracer tracer(tracer_config);
  obs::TraceTime logical_now = 0;
  tracer.set_clock([&logical_now] { return logical_now; });
  obs::Tracer* tracer_ptr = trace_enabled ? &tracer : nullptr;

  auto extend = [&](const util::Hash256& parent, const std::string& name) {
    util::Hash256 merkle;
    merkle.data[0] = static_cast<std::uint8_t>(++salt);
    merkle.data[1] = static_cast<std::uint8_t>(salt >> 8);
    time += 600;
    logical_now += 600;
    obs::ScopedSpan span(tracer_ptr, "monitor.accept_header", "chain");
    auto header = chain::build_child_header(tree, parent, time, merkle);
    tree.accept(header, now);
    metrics.counter("monitor.headers_accepted").inc();
    printer.names[header.hash()] = name;
    int height = tree.find(header.hash())->height;
    span.attr("name", name);
    span.attr("height", static_cast<std::int64_t>(height));
    if (tree.blocks_at_height(height).size() > 1) {
      span.attr("fork", "true");
      span.event(obs::Severity::kWarn, "fork_detected",
                 name + " competes at height " + std::to_string(height));
      if (trace_enabled) {
        std::printf("--- fork detected at height %d: flight recorder ---\n%s\n", height,
                    obs::flight_recorder_text(tracer).c_str());
      }
    }
    return header.hash();
  };

  std::printf("Building the main chain m1..m6:\n");
  util::Hash256 tip = tree.root_hash();
  std::vector<util::Hash256> main_chain;
  for (int i = 1; i <= 6; ++i) {
    tip = extend(tip, std::string("m").append(std::to_string(i)));
    main_chain.push_back(tip);
  }
  printer.print();

  std::printf("A fork f1-f2 appears at height 2 (branching off m1):\n");
  auto f1 = extend(main_chain[0], "f1");
  auto f2 = extend(f1, "f2");
  printer.print();

  std::printf("Note: m2's stability dropped from 5 to d_c(m2)-d_c(f1)=3; the fork\n");
  std::printf("blocks have NEGATIVE stability (they are outrun), as in Fig. 3.\n\n");

  std::printf("The fork races ahead two more blocks (f3, f4):\n");
  auto f3 = extend(f2, "f3");
  extend(f3, "f4");
  printer.print();

  std::printf("Difficulty-based stability (δ=4, reference = anchor work):\n");
  crypto::U256 ref = tree.root().block_work;
  for (const auto& hash : tree.blocks_at_height(2)) {
    std::printf("  %s is difficulty-based 4-stable: %s\n", printer.names[hash].c_str(),
                tree.is_difficulty_stable(hash, 4, ref) ? "yes" : "no");
  }
  std::printf("\nm2 cannot become stable while the fork keeps pace: the margin\n");
  std::printf("condition of Definition II.1 requires d_w(m2) - d_w(f1) >= 4*w.\n\n");

  std::printf("The main chain decisively outruns the fork (m7..m12):\n");
  for (int i = 7; i <= 12; ++i) tip = extend(tip, std::string("m").append(std::to_string(i)));
  std::printf("  m2 is difficulty-based 4-stable: %s -> the Bitcoin canister would\n",
              tree.is_difficulty_stable(main_chain[1], 4, ref) ? "yes" : "no");
  std::printf("  advance its anchor past m2 and prune the fork (Algorithm 2).\n");

  tree.reroot(main_chain[0]);
  metrics.counter("monitor.reroots").inc();
  tracer.event(obs::Severity::kInfo, "reroot",
               "anchor advanced to height " + std::to_string(tree.root().height));
  std::printf("\nAfter reroot: %zu headers remain, root at height %d, tip at height %d.\n",
              tree.size(), tree.root().height, tree.best_height());

  // Final stability sweep: one observation per surviving block, so the
  // histogram summarizes the end-state distribution (forks pruned by the
  // reroot no longer contribute). A block on a losing fork has negative
  // stability; the histogram holds non-negative values, so those blocks are
  // counted instead.
  auto& stability = metrics.histogram("monitor.stability");
  auto& negative = metrics.counter("monitor.stability_negative");
  for (int h = tree.root().height; h <= tree.max_height(); ++h) {
    for (const auto& hash : tree.blocks_at_height(h)) {
      int s = tree.confirmation_stability(hash);
      if (s < 0) {
        negative.inc();
      } else {
        stability.record(static_cast<std::uint64_t>(s));
      }
    }
  }
  printer.update_metrics();

  // --- The canister's view of the same story: unstable deltas -------------
  // A small Bitcoin canister ingests a fork scenario with full blocks. Every
  // block arrival builds one delta in the unstable index; the first query
  // after it syncs the index's spent outpoints. The canister.delta.* rows in
  // the table below show the builds and the resident delta bytes
  // (build_us is wall-clock, wired here via set_delta_build_clock — the
  // registry export is only deterministic when that clock stays detached).
  std::printf("\nReplaying a fork scenario through a Bitcoin canister (delta index):\n");
  {
    // A small shared pool so ingestion's parallel txid hashing shows up in
    // the pool.* rows of the table (pool.runs / pool.tasks_executed; both
    // gauges read 0 once the fan-outs drain).
    parallel::set_shared_pool(2);
    parallel::shared_pool()->set_metrics(&metrics);
    canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
    canister.set_metrics(&metrics);
    canister.set_delta_build_clock([] {
      return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now().time_since_epoch())
                                            .count());
    });

    chain::HeaderTree feed_tree(params, params.genesis_header);
    util::Hash160 pkh;
    pkh.data[0] = 0x42;
    util::Bytes script = bitcoin::p2pkh_script(pkh);
    std::string address = bitcoin::p2pkh_address(pkh, params.network);
    std::uint32_t block_time = params.genesis_header.time;
    std::uint64_t tag = 1;
    auto feed = [&](const util::Hash256& parent) {
      block_time += 600;
      // A handful of transactions per block, enough for the txid hashing to
      // fan out across the shared pool.
      std::vector<bitcoin::Transaction> txs;
      for (int t = 0; t < 8; ++t) {
        bitcoin::Transaction tx;
        bitcoin::TxIn in;
        in.prevout.txid.data[0] = static_cast<std::uint8_t>(tag);
        in.prevout.txid.data[1] = static_cast<std::uint8_t>(t + 1);
        tx.inputs.push_back(in);
        tx.outputs.push_back(bitcoin::TxOut{1000, script});
        tx.lock_time = static_cast<std::uint32_t>(tag * 100 + static_cast<std::uint64_t>(t));
        txs.push_back(std::move(tx));
      }
      auto block = chain::build_child_block(feed_tree, parent, block_time, script,
                                            50 * bitcoin::kCoin, std::move(txs), tag++);
      feed_tree.accept(block.header, static_cast<std::int64_t>(block_time) + 10000);
      adapter::AdapterResponse response;
      response.blocks.emplace_back(block, block.header);
      canister.process_response(response, static_cast<std::int64_t>(block_time) + 10000);
      return block.hash();
    };

    util::Hash256 c_tip = params.genesis_header.hash();
    std::vector<util::Hash256> spine;
    for (int i = 0; i < 5; ++i) {
      c_tip = feed(c_tip);
      spine.push_back(c_tip);
    }
    feed(feed(spine[1]));  // losing two-block fork: deltas built, then pruned
    for (int i = 0; i < 4; ++i) c_tip = feed(c_tip);

    auto cold = canister.get_balance(address);  // syncs the index to the tip
    auto hot = canister.get_balance(address);   // same tip: nothing to sync
    std::printf("  balance of %s: %lld satoshi (first read) / %lld (repeat)\n", address.c_str(),
                static_cast<long long>(cold.value), static_cast<long long>(hot.value));
    std::printf("  unstable blocks: %zu, resident deltas: %llu bytes\n",
                canister.unstable_block_count(),
                static_cast<unsigned long long>(canister.unstable_index().resident_bytes()));
    parallel::shared_pool()->set_metrics(nullptr);
  }
  parallel::set_shared_pool(0);

  // --- Transaction relay + fee market: the relay.* / mempool.* rows -------
  // A three-node line relays a fee ladder by Erlay-style set reconciliation
  // (fanout 0, so sketches are the only announcement channel), with one RBF
  // bump and six-slot mempools that evict the cheapest arrivals. The relay.*
  // and mempool.* exporter rows in the table below come from this traffic;
  // everything runs on the simulated clock, so the counts are identical on
  // every run.
  std::printf("\nRelaying a fee ladder by set reconciliation (3-node line):\n");
  {
    util::Simulation sim;
    btcnet::Network net(sim, util::Rng(31));
    net.set_metrics(&metrics);
    btcnet::NodeOptions options;
    options.tx_relay_mode = btcnet::TxRelayMode::kReconcile;
    options.flood_fanout = 0;
    options.mempool_max_txs = 6;
    btcnet::BitcoinNode alice(net, params, options);
    btcnet::BitcoinNode bob(net, params, options);
    btcnet::BitcoinNode carol(net, params, options);
    for (auto* node : {&alice, &bob, &carol}) node->set_metrics(&metrics);
    net.connect(alice.id(), bob.id());
    net.connect(bob.id(), carol.id());
    sim.run();

    crypto::PrivateKey key = crypto::PrivateKey::from_seed(util::Bytes{7, 8, 9});
    util::Hash160 key_hash = crypto::hash160(key.public_key().compressed());
    util::Bytes lock = bitcoin::p2pkh_script(key_hash);
    auto spend = [&](const bitcoin::OutPoint& from, bitcoin::Amount value) {
      bitcoin::Transaction tx;
      bitcoin::TxIn in;
      in.prevout = from;
      tx.inputs.push_back(in);
      tx.outputs.push_back(bitcoin::TxOut{value, lock});
      auto digest = bitcoin::legacy_sighash(tx, 0, lock);
      tx.inputs[0].script_sig =
          bitcoin::p2pkh_script_sig(key.sign(digest), key.public_key().compressed());
      return tx;
    };

    // Nine coinbases to spend, mined 600 simulated seconds apart so the
    // future-drift rule stays happy.
    std::uint32_t chain_time = params.genesis_header.time;
    std::uint64_t fund_tag = 9000;
    std::vector<bitcoin::OutPoint> outpoints;
    for (int i = 0; i < 9; ++i) {
      sim.run_until(sim.now() + 600 * util::kSecond);
      chain_time += 600;
      auto block = chain::build_child_block(alice.tree(), alice.best_tip(), chain_time, lock,
                                            50 * bitcoin::kCoin, {}, fund_tag++);
      alice.submit_block(block);
      outpoints.push_back(bitcoin::OutPoint{block.transactions[0].txid(), 0});
    }
    sim.run();

    // A nine-rung fee ladder into six-slot mempools: the three cheapest
    // spends fall out the bottom as the cap bites.
    for (std::size_t i = 0; i < outpoints.size(); ++i) {
      bitcoin::Amount fee = static_cast<bitcoin::Amount>(i + 1) * 100000;
      alice.submit_tx(spend(outpoints[i], 50 * bitcoin::kCoin - fee));
    }
    sim.run();

    // RBF: the top rung is bumped past its original fee, displacing the
    // earlier spend in every mempool it already reached.
    alice.submit_tx(spend(outpoints.back(), 50 * bitcoin::kCoin - 1200000));
    sim.run();

    std::printf("  mempools after the ladder: alice %zu, bob %zu, carol %zu (cap 6)\n",
                alice.mempool_size(), bob.mempool_size(), carol.mempool_size());
    std::printf("  fee floor at carol: %llu millisat/vbyte\n",
                static_cast<unsigned long long>(carol.mempool_fee_floor()));
    net.set_metrics(nullptr);
  }

  std::printf("\n--- monitor metrics (obs::to_table) ---\n%s", obs::to_table(metrics).c_str());

  if (trace_enabled) {
    const char* path = std::getenv("ICBTC_CHROME_TRACE_OUT");
    if (path == nullptr || *path == '\0') path = "fork_monitor_trace.json";
    std::string body = obs::to_chrome_trace(tracer);
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path);
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), out);
    std::fclose(out);
    std::printf("\nwrote %s — open it in chrome://tracing or https://ui.perfetto.dev\n", path);
  }

  std::printf("=== done ===\n");
  return 0;
}
