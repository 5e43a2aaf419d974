// payout_roundtrip: canister wallets paying out through the whole stack —
// tECDSA signing on the 13-replica subnet, the canister's outbound queue, the
// block maker's adapter, btcnet relay, a miner, and back into the canister.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "chain_gen.h"
#include "chain/block_builder.h"
#include "contracts/btc_wallet.h"
#include "crypto/ecdsa.h"
#include "crypto/presig_pool.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace icbtc;

namespace {

constexpr int kSetupReps = 9;  // set-up takes milliseconds
constexpr std::size_t kWallets = 8;  // one payout per wallet per wave
constexpr int kFundingBlocksPerWallet = 2;
constexpr bitcoin::Amount kFunding = 10 * bitcoin::kCoin;  // per funding block
constexpr bitcoin::Amount kFee = 2'000;
/// Second change output of a two-input payout.
constexpr bitcoin::Amount kChangeSplit = 200'000;
/// Measured phases are split into this many segments; end-to-end figures are
/// medians over segments.
constexpr std::size_t kSegments = 10;
/// Host-speed sensitivity (see Segments): over 15 runs of 30 s on the
/// reference host, the raw payout rate fell as slowness^-1.49 (log-log
/// correlation -0.99), half again as steeply as the probe.
constexpr double kHostSensitivity = 1.5;
/// Sim-time cap on any wait for the network; exceeding it fails the payout.
constexpr int kMaxWaitSteps = 600;
/// Seed of the simulated network, subnet and adapters. It is the same for
/// every run: the seed varies the payouts (recipients, amounts, inputs), not
/// the topology, whose message delays set how many simulated seconds a wave
/// takes and would otherwise move payouts_per_s by a third from seed to seed.
constexpr std::uint64_t kStackSeed = 1;
/// peak_rss_mb is read once this many waves have run: every wave adds a block
/// to each node's chain, so a later reading would grow with the host's speed.
constexpr std::size_t kRssWave = 64;

/// The whole simulated stack. Members are declared in dependency order so
/// destruction runs in reverse (the simulation outlives everything).
struct Stack {
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  util::Simulation sim;
  std::unique_ptr<btcnet::BitcoinNetworkHarness> harness;
  std::unique_ptr<ic::Subnet> subnet;
  std::unique_ptr<canister::BitcoinIntegration> integration;
  std::vector<std::unique_ptr<contracts::BtcWallet>> wallets;
  std::size_t heartbeat = 0;
  Tracing* heartbeat_tracing = nullptr;  // spans of the benchmark's heartbeat
  // Round statistics gathered by the benchmark's heartbeat.
  std::uint64_t responses = 0;
  std::uint64_t response_blocks = 0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (subnet) {
      subnet->unregister_heartbeat(heartbeat);
      subnet->stop();
    }
    if (integration) {
      for (std::size_t i = 0; i < integration->num_adapters(); ++i) {
        integration->adapter_of(static_cast<std::uint32_t>(i)).stop();
      }
    }
  }

  canister::BitcoinCanister& canister() { return integration->canister(); }
  btcnet::BitcoinNode& miner_node() { return harness->node(0); }

  /// Advances simulated time by one second, traced as btcnet time (the
  /// heartbeat's own spans nest inside and are subtracted).
  void step(Tracing& tracing) {
    Tracing::Span span(tracing, Layer::kBtcnet, "btcnet.advance");
    sim.run_until(sim.now() + util::kSecond);
  }
};

/// The benchmark's round heartbeat, mirroring BitcoinIntegration::on_round:
/// every second round the canister's request goes to the block maker's
/// adapter and its response back into the canister.
void on_round(Stack& s, Tracing& tracing, const ic::RoundInfo& info) {
  if (info.round % 2 != 0) return;
  Tracing::Span round(tracing, Layer::kIc, "ic.round");
  adapter::AdapterRequest request;
  {
    Tracing::Span span(tracing, Layer::kCanister, "canister.make_request");
    request = s.canister().make_request();
  }
  adapter::AdapterResponse response;
  {
    Tracing::Span span(tracing, Layer::kAdapter, "adapter.handle_request");
    response = s.integration->adapter_of(info.block_maker).handle_request(request);
  }
  std::int64_t now_s = static_cast<std::int64_t>(s.params.genesis_header.time) +
                       s.sim.now() / util::kSecond;
  ++s.responses;
  s.response_blocks += response.blocks.size();
  Tracing::Span span(tracing, Layer::kCanister, "canister.process_response");
  s.canister().process_response(response, now_s);
}

/// Brings the stack up, funds every wallet with coinbase outputs, and waits
/// until the canister sees the funding. Returns false on a timeout.
bool build_stack(Stack& s, std::uint64_t seed, Tracing& tracing) {
  btcnet::BitcoinNetworkConfig net;
  net.num_nodes = 8;
  net.num_miners = 1;
  net.ipv6_fraction = 1.0;
  s.harness = std::make_unique<btcnet::BitcoinNetworkHarness>(s.sim, s.params, net, seed);
  s.sim.run();
  s.subnet = std::make_unique<ic::Subnet>(s.sim, ic::SubnetConfig{}, seed + 1);
  canister::IntegrationConfig config;
  config.adapter.addr_lower_threshold = 3;
  config.adapter.addr_upper_threshold = 8;
  config.adapter.multi_block_below_height = 1 << 30;
  config.canister = canister::CanisterConfig{};
  s.integration = std::make_unique<canister::BitcoinIntegration>(
      *s.subnet, s.harness->network(), s.params, config, seed + 2);
  for (std::size_t i = 0; i < s.integration->num_adapters(); ++i) {
    s.integration->adapter_of(static_cast<std::uint32_t>(i)).start();
  }
  s.heartbeat_tracing = &tracing;
  s.heartbeat = s.subnet->register_heartbeat(
      [&s](const ic::RoundInfo& info) { on_round(s, *s.heartbeat_tracing, info); });
  s.subnet->start();

  for (std::size_t w = 0; w < kWallets; ++w) {
    s.wallets.push_back(std::make_unique<contracts::BtcWallet>(
        *s.integration, crypto::DerivationPath{{0x70, static_cast<std::uint8_t>(w)}}));
  }
  // Coinbase funding: each wallet gets kFundingBlocksPerWallet outputs.
  auto& node = s.miner_node();
  std::uint64_t tag = 1;
  for (int b = 0; b < kFundingBlocksPerWallet; ++b) {
    for (auto& wallet : s.wallets) {
      auto time = static_cast<std::uint32_t>(s.params.genesis_header.time +
                                             s.sim.now() / util::kSecond + tag);
      auto block = chain::build_child_block(node.tree(), node.best_tip(), time,
                                            wallet->script_pubkey(), kFunding, {}, tag++);
      node.submit_block(block);
    }
  }
  for (int i = 0; i < kMaxWaitSteps; ++i) {
    s.step(tracing);
    bool funded = true;
    for (auto& wallet : s.wallets) {
      auto balance = wallet->balance(1);
      funded = funded && balance.ok() && balance.value == kFundingBlocksPerWallet * kFunding;
    }
    if (funded) return true;
  }
  return false;
}

/// Checks every input's signature against the wallet key (untimed).
bool signatures_verify(const contracts::BtcWallet& wallet, const bitcoin::Transaction& tx) {
  for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
    auto parsed = bitcoin::parse_p2pkh_script_sig(tx.inputs[i].script_sig);
    if (!parsed || parsed->first.empty()) return false;
    util::ByteSpan der(parsed->first.data(), parsed->first.size() - 1);  // drop sighash byte
    auto sig = crypto::Signature::from_der(der);
    if (!sig || !crypto::verify(wallet.public_key(), wallet.input_digest(tx, i), *sig)) {
      return false;
    }
  }
  return true;
}

struct Payout {
  std::string recipient;
  bitcoin::Amount amount = 0;
  util::Hash256 txid;
  double start_us = 0;
  double excluded_us = 0;  // untimed verification inside the payout
};

}  // namespace

Result run_payout_roundtrip(const Options& o) {
  Result r;
  Tracing tracing(false);
  util::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 43);

  std::unique_ptr<Stack> s;
  double setup_s = median_setup_s(kSetupReps, [&] {
    s.reset();
    s = std::make_unique<Stack>();
    if (!build_stack(*s, kStackSeed, tracing)) r.fail("wallet funding never reached the canister");
  }, kHostSensitivity);
  r.add_detail("setup.canister_tip_height", s->canister().tip_height(), "count");
  Counters counters;
  if (o.trace) {
    attach_counters(s->canister(), counters);
    for (std::size_t i = 0; i < s->integration->num_adapters(); ++i) {
      s->integration->adapter_of(static_cast<std::uint32_t>(i)).set_metrics(&counters.registry);
    }
  }
  crypto::PresignaturePool& presigs = s->subnet->ecdsa().pool();

  std::vector<double> payout_us, sign_us;
  HostProbe probe;
  Segments segments(kSegments, kHostSensitivity);
  std::size_t segment = 0;  // of the wave in flight
  std::size_t waves = 0;
  double rss_mb = 0;
  std::size_t signatures = 0;
  std::uint64_t payouts = 0;
  double overhead_pct = 0;
  std::uint64_t stalls_before = 0, refills_before = 0, messages_before = 0, bytes_before = 0;
  std::uint64_t responses_before = 0, blocks_before = 0;
  double sim_s_before = 0;
  double window_sim_s = 0;

  auto mark_window = [&] {
    stalls_before = presigs.exhaustion_stalls();
    refills_before = presigs.refills();
    messages_before = s->harness->network().message_count();
    bytes_before = s->harness->network().bytes_sent();
    responses_before = s->responses;
    blocks_before = s->response_blocks;
    sim_s_before = static_cast<double>(s->sim.now()) / util::kSecond;
  };

  // One wave: a payout from every wallet, then the network carries them to
  // a block and the block back to the canister.
  auto wave = [&] {
    std::vector<Payout> wave_payouts;
    for (auto& wallet : s->wallets) {
      Payout p;
      p.start_us = now_us();
      canister::Outcome<std::vector<canister::Utxo>> utxos;
      {
        Tracing::Span span(tracing, Layer::kContracts, "contracts.wallet_utxos");
        utxos = wallet->utxos(1);
      }
      ++r.attempted;
      if (!utxos.ok() || utxos.value.empty()) {
        ++r.failed;
        r.fail("wallet has no confirmed UTXOs");
        continue;
      }
      bitcoin::Transaction tx;
      {
        Tracing::Span span(tracing, Layer::kBitcoin, "bitcoin.build_payment");
        // Largest first, as BtcWallet::send selects.
        std::sort(utxos.value.begin(), utxos.value.end(),
                  [](const auto& a, const auto& b) { return a.value > b.value; });
        std::size_t n_in = std::min<std::size_t>(utxos.value.size(), 1 + rng.next_below(2));
        bitcoin::Amount in_value = 0;
        for (std::size_t i = 0; i < n_in; ++i) {
          bitcoin::TxIn in;
          in.prevout = utxos.value[i].outpoint;
          in_value += utxos.value[i].value;
          tx.inputs.push_back(in);
        }
        util::Hash160 key;
        auto h = rng.next_hash();
        std::copy(h.data.begin(), h.data.begin() + 20, key.data.begin());
        p.recipient = bitcoin::p2pkh_address(key, s->params.network);
        p.amount = static_cast<bitcoin::Amount>(10'000 + rng.next_below(90'000));
        tx.outputs.push_back(bitcoin::TxOut{p.amount, bitcoin::p2pkh_script(key)});
        // One change output per input keeps each wallet's UTXO count (and so
        // the cost of its utxos() call) constant from payout to payout.
        bitcoin::Amount change = in_value - p.amount - kFee;
        bitcoin::Amount split = n_in == 2 ? std::min(kChangeSplit, change / 2) : 0;
        tx.outputs.push_back(bitcoin::TxOut{change - split, wallet->script_pubkey()});
        if (split > 0) tx.outputs.push_back(bitcoin::TxOut{split, wallet->script_pubkey()});
      }
      double t0 = now_us();
      {
        Tracing::Span span(tracing, Layer::kCrypto, "tecdsa.sign_all_inputs");
        wallet->sign_all_inputs(tx);
      }
      double t1 = now_us();
      sign_us.push_back(t1 - t0);
      signatures += tx.inputs.size();
      bool verified = false;
      {
        Tracing::Span span(tracing, Layer::kGen, "gen.verify_signatures");
        verified = signatures_verify(*wallet, tx);
      }
      p.excluded_us = now_us() - t1;
      canister::CallResult<canister::Status> sent;
      {
        Tracing::Span span(tracing, Layer::kCanister, "canister.send_transaction");
        sent = s->integration->replicated_send_transaction(tx.serialize());
      }
      if (!verified || sent.outcome != canister::Status::kOk) {
        ++r.failed;
        r.fail(verified ? "send_transaction refused a payout" : "threshold signature invalid");
        continue;
      }
      p.txid = tx.txid();
      wave_payouts.push_back(std::move(p));
    }
    // Until every payout sits in the miner's mempool, then mine one block.
    auto in_mempool = [&] {
      for (const auto& p : wave_payouts) {
        if (!s->miner_node().in_mempool(p.txid)) return false;
      }
      return true;
    };
    for (int i = 0; i < kMaxWaitSteps && !in_mempool(); ++i) s->step(tracing);
    {
      Tracing::Span span(tracing, Layer::kBtcnet, "btcnet.mine_one");
      s->harness->miners()[0]->mine_one();
    }
    // Until the canister shows every recipient's payment.
    std::vector<bool> seen(wave_payouts.size(), false);
    std::size_t remaining = wave_payouts.size();
    for (int i = 0; i < kMaxWaitSteps && remaining > 0; ++i) {
      s->step(tracing);
      for (std::size_t k = 0; k < wave_payouts.size(); ++k) {
        if (seen[k]) continue;
        canister::Outcome<bitcoin::Amount> balance;
        {
          Tracing::Span span(tracing, Layer::kCanister, "canister.get_balance");
          balance = s->canister().get_balance(wave_payouts[k].recipient, 1);
        }
        if (balance.ok() && balance.value == wave_payouts[k].amount) {
          seen[k] = true;
          --remaining;
          double latency = now_us() - wave_payouts[k].start_us - wave_payouts[k].excluded_us;
          payout_us.push_back(latency);
          segments.add_latency(segment, latency);
          ++payouts;
        }
      }
    }
    if (remaining > 0) {
      r.failed += remaining;
      r.fail("payout never confirmed in the canister");
    }
  };

  auto run_for = [&](double seconds) {
    double start = now_us();
    double deadline = start + seconds * 1e6;
    std::uint64_t before = payouts;
    for (double t = start; t < deadline && r.checks_passed; t = now_us()) {
      segment = segments.of(t - start, seconds * 1e6);
      std::uint64_t wave_before = payouts;
      wave();
      segments.add_work(segment, static_cast<double>(payouts - wave_before), now_us() - t);
      {
        Tracing::Span span(tracing, Layer::kGen, "gen.host_probe");
        segments.add_probe(segment, probe.sample());
      }
      if (++waves == kRssWave) rss_mb = peak_rss_mb();
    }
    double elapsed = now_us() - start;
    return static_cast<double>(payouts - before) / (elapsed / 1e6);
  };

  double payouts_per_s = 0;
  if (o.trace) {
    double untraced = run_for(o.seconds / 2);
    payout_us.clear();
    sign_us.clear();
    signatures = 0;
    tracing.enable();
    mark_window();
    std::uint64_t payouts_before = payouts;
    tracing.begin_window();
    payouts_per_s = run_for(o.seconds / 2);
    tracing.end_window();
    window_sim_s = static_cast<double>(s->sim.now()) / util::kSecond - sim_s_before;
    overhead_pct = 100.0 * (untraced / payouts_per_s - 1.0);
    payouts -= payouts_before;
  } else {
    mark_window();
    payouts_per_s = run_for(o.seconds);
    window_sim_s = static_cast<double>(s->sim.now()) / util::kSecond - sim_s_before;
  }

  Summary latency = summarize(payout_us, 99);
  Summary segmented = segments.latency(kTailLevel);
  r.end_to_end.push_back({"setup_s", setup_s, "s"});
  r.end_to_end.push_back({"peak_rss_mb", waves >= kRssWave ? rss_mb : peak_rss_mb(), "MB"});
  r.end_to_end.push_back({"ops_per_s", segments.ops_per_s(), "1/s"});
  r.end_to_end.push_back({"latency_p50_us", segmented.p50, "us"});
  r.end_to_end.push_back({"latency_tail_us", segmented.tail, "us"});
  r.add_detail("latency_tail_level", segmented.tail_level, "pct");
  r.add_detail("host.slowness", segments.slowness(), "x");
  r.add_detail("payouts_per_s", payouts_per_s, "1/s");
  r.add_detail("payout_p50_ms", latency.p50 / 1e3, "ms");
  r.add_detail("payout_p99_ms", latency.tail / 1e3, "ms");
  r.add_detail("payouts", static_cast<double>(payouts), "count");
  r.add_detail("btcnet.sim_s_per_payout",
               payouts == 0 ? 0.0 : window_sim_s / static_cast<double>(payouts), "s");
  Summary sign = summarize(sign_us);
  r.add_summary("tecdsa.sign_all_inputs_us", sign, "us");
  r.add_detail("tecdsa.us_per_sig",
               signatures == 0 ? 0.0 : sign.mean * static_cast<double>(sign.n) /
                                           static_cast<double>(signatures),
               "us");
  r.add_detail("tecdsa.pool.exhaustion_stalls",
               static_cast<double>(presigs.exhaustion_stalls() - stalls_before), "count");
  r.add_detail("tecdsa.pool.refills", static_cast<double>(presigs.refills() - refills_before),
               "count");
  double per_payout = payouts == 0 ? 0.0 : 1.0 / static_cast<double>(payouts);
  r.add_detail("net.messages_per_payout",
               static_cast<double>(s->harness->network().message_count() - messages_before) *
                   per_payout,
               "count");
  r.add_detail("net.bytes_per_payout",
               static_cast<double>(s->harness->network().bytes_sent() - bytes_before) *
                   per_payout,
               "B");
  std::uint64_t responses = s->responses - responses_before;
  r.add_detail("adapter.blocks_per_response",
               responses == 0 ? 0.0
                              : static_cast<double>(s->response_blocks - blocks_before) /
                                    static_cast<double>(responses),
               "count");

  if (o.trace) {
    add_layer_shares(tracing, r);
    add_canister_layer_metrics(s->canister(), counters, s->response_blocks - blocks_before,
                               overhead_pct, r);
    r.add_summary("contracts.wallet_utxos_us",
                  summarize(tracing.durations("contracts.wallet_utxos")), "us");
    r.add_summary("adapter.handle_request_us",
                  summarize(tracing.durations("adapter.handle_request")), "us");
    r.add_summary("ic.round_us", summarize(tracing.durations("ic.round")), "us");
    r.add_detail("btcnet.advance_us_per_sim_s",
                 window_sim_s <= 0 ? 0.0 : tracing.self_us(Layer::kBtcnet) / window_sim_s, "us");
    r.add_detail("adapter.block_request_retries",
                 static_cast<double>(counters.get("adapter.block_request_retries")),
                 "count");
    write_chrome_trace(tracing, o);
    detach_counters(s->canister());
    for (std::size_t i = 0; i < s->integration->num_adapters(); ++i) {
      s->integration->adapter_of(static_cast<std::uint32_t>(i)).set_metrics(nullptr);
    }
  }

  // The canister follows btcnet's tip once the network settles (after the
  // traced window, with tracing off, so the settling rounds are not counted).
  Tracing quiet(false);
  s->heartbeat_tracing = &quiet;
  for (int i = 0; i < 30; ++i) s->step(quiet);
  auto& node = s->miner_node();
  if (s->canister().tip_height() != node.best_height() ||
      s->canister().header_tree().best_tip() != node.best_tip()) {
    r.fail("canister tip " + std::to_string(s->canister().tip_height()) +
           " differs from btcnet tip " + std::to_string(node.best_height()));
  }
  return r;
}

}  // namespace perfbench
