// Figure 7: response time and instruction cost of get_balance / get_utxos.
//
// Reproduces the paper's mainnet experiment: 1000 addresses with the
// measured UTXO-count skew (517 <50, 159 50-199, 113 200-999, 211 >=1000),
// replicated and query calls for both endpoints, and the instruction count
// vs. response size for replicated UTXO requests, including the
// stable/unstable bifurcation.
//
// Every measured call runs under a tracer whose clock is derived from the
// canister's instruction meter (1 µs per 2000 instructions), so each call
// yields one RequestCostRecord — a Fig. 7 data point binding latency,
// instructions, and response bytes. The run writes:
//   BENCH_latency.json         summary percentiles   (ICBTC_BENCH_OUT)
//   BENCH_latency_trace.json   deterministic traces  (ICBTC_TRACE_OUT)
//   BENCH_latency_chrome.json  chrome://tracing view (ICBTC_CHROME_TRACE_OUT)
// ICBTC_BENCH_QUICK=1 shrinks the address population and skips the
// google-benchmark loops for CI smoke runs; the trace exports are
// byte-identical across identically configured runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bitcoin/script.h"
#include "ic/subnet.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "oracles/scan_reads.h"
#include "workload.h"

namespace {

using namespace icbtc;
using namespace icbtc::bench;

using bench::quick_mode;
using bench::write_file;

struct Fixture {
  static canister::CanisterConfig fixture_config(const bitcoin::ChainParams& params) {
    auto config = canister::CanisterConfig::for_params(params);
    // A deeper unstable window (closer to the mainnet δ=144 regime, scaled)
    // keeps the late-dealt addresses unstable for the Fig. 7 bifurcation.
    config.stability_delta = 40;
    return config;
  }

  util::Simulation sim;
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  canister::BitcoinCanister canister{params, fixture_config(params)};
  ic::Subnet subnet{sim, ic::SubnetConfig{}, 4242};
  std::vector<std::string> addresses;
  std::vector<std::size_t> expected_counts;
  util::Rng rng{777};

  explicit Fixture(std::size_t n_addresses, bool include_unstable = true) {
    ChainFeeder feeder(canister, 778);
    auto counts = paper_address_skew(n_addresses, rng);

    // Register every address and pour its UTXOs in through synthetic blocks:
    // each block pays a batch of outputs to the tracked addresses.
    std::vector<util::Bytes> scripts;
    for (std::size_t i = 0; i < n_addresses; ++i) {
      util::Hash160 h;
      auto bytes = rng.next_bytes(20);
      std::copy(bytes.begin(), bytes.end(), h.data.begin());
      scripts.push_back(bitcoin::p2pkh_script(h));
      addresses.push_back(bitcoin::p2pkh_address(h, params.network));
      expected_counts.push_back(counts[i]);
    }

    // Deal the UTXOs: blocks of direct payments (not via ChainFeeder's
    // random scripts, so counts are exact).
    chain::HeaderTree tree(params, params.genesis_header);
    util::Hash256 tip = params.genesis_header.hash();
    std::uint32_t time = params.genesis_header.time;
    std::uint64_t tag = 909000;
    std::size_t addr_idx = 0, dealt = 0;
    std::vector<bitcoin::Transaction> batch;
    int height = 0;
    auto flush = [&](bool more_to_come) {
      if (batch.empty() && more_to_come) return;
      time += 600;
      auto block = chain::build_child_block(tree, tip, time, scripts[0],
                                            bitcoin::block_subsidy(0), std::move(batch), tag++);
      batch.clear();
      tip = block.hash();
      ++height;
      tree.accept(block.header, static_cast<std::int64_t>(time) + 10000);
      adapter::AdapterResponse response;
      response.blocks.emplace_back(std::move(block), tree.find(tip)->header);
      canister.process_response(response, static_cast<std::int64_t>(time) + 10000);
    };
    auto deal_until = [&](std::size_t limit) {
      while (addr_idx < limit) {
        bitcoin::Transaction tx;
        bitcoin::TxIn in;
        in.prevout.txid = rng.next_hash();  // unvalidated input (§III-C)
        tx.inputs.push_back(in);
        std::size_t want = expected_counts[addr_idx] - dealt;
        std::size_t chunk = std::min<std::size_t>(want, 200);
        for (std::size_t i = 0; i < chunk; ++i) {
          tx.outputs.push_back(bitcoin::TxOut{1000, scripts[addr_idx]});
        }
        dealt += chunk;
        if (dealt == expected_counts[addr_idx]) {
          ++addr_idx;
          dealt = 0;
        }
        batch.push_back(std::move(tx));
        if (batch.size() >= 20) flush(true);
      }
      flush(false);
    };
    auto pad_blocks = [&](int count) {
      for (int i = 0; i < count; ++i) {
        time += 600;
        auto block = chain::build_child_block(tree, tip, time, scripts[0],
                                              bitcoin::block_subsidy(0), {}, tag++);
        tip = block.hash();
        tree.accept(block.header, static_cast<std::int64_t>(time) + 10000);
        adapter::AdapterResponse response;
        response.blocks.emplace_back(std::move(block), tree.find(tip)->header);
        canister.process_response(response, static_cast<std::int64_t>(time) + 10000);
      }
    };

    if (include_unstable) {
      // First 4/5 of the population migrates into the stable set; the last
      // 1/5 is dealt right at the tip so its UTXOs live in unstable blocks —
      // the two branches of Fig. 7's bifurcation.
      deal_until(n_addresses * 4 / 5);
      pad_blocks(canister.config().stability_delta + 2);
      deal_until(n_addresses);
      pad_blocks(1);
    } else {
      deal_until(n_addresses);
      pad_blocks(canister.config().stability_delta + 2);
    }
  }
};

struct Figure7Result {
  std::size_t addresses = 0;
  std::vector<bench::SeriesSummary> series;
  std::uint64_t min_instructions = 0;
  std::uint64_t max_instructions = 0;
  std::size_t requests_traced = 0;
  bool ok = true;
};

Figure7Result run_figure7() {
  const bool quick = quick_mode();
  const std::size_t n_addresses = quick ? 150 : 1000;

  std::printf("\n--- Figure 7: request latency and instruction cost ---\n");
  Fixture fx(n_addresses);
  std::printf("address population: %zu with the paper's UTXO-count skew%s\n\n", n_addresses,
              quick ? " (quick mode)" : "");

  // The tracer clock advances with the canister's instruction meter: 2000
  // instructions per microsecond — the IC's 2e9 instructions/s execution
  // rate. Everything downstream of it is deterministic.
  obs::TracerConfig tracer_config;
  tracer_config.event_capacity = 512;
  obs::Tracer tracer(tracer_config);
  ic::InstructionMeter& meter = fx.canister.meter();
  tracer.set_clock(
      [&meter] { return static_cast<obs::TraceTime>(meter.count() / ic::kInstructionsPerUs); });
  fx.canister.set_tracer(&tracer);

  std::vector<double> rep_balance, rep_utxos, q_balance, q_utxos;
  struct UtxoCost {
    std::size_t response_utxos;
    std::uint64_t instructions;
    bool unstable_heavy;
  };
  std::vector<UtxoCost> utxo_costs;

  const auto& cost_model = fx.subnet.config().cost_model;
  for (std::size_t i = 0; i < fx.addresses.size(); ++i) {
    const auto& addr = fx.addresses[i];
    // Replicated + query get_balance. The root request span is ended at the
    // replicated latency; the nested canister.get_balance span ends at the
    // pure execution latency.
    {
      obs::ScopedSpan span(&tracer, "request.get_balance", "request");
      span.attr("kind", "replicated");
      ic::InstructionMeter::Segment segment(fx.canister.meter());
      auto balance = fx.canister.get_balance(addr);
      std::uint64_t instr = segment.sample();
      if (!balance.ok()) continue;
      util::SimTime latency = fx.subnet.sample_update_latency(instr);
      rep_balance.push_back(static_cast<double>(latency));
      q_balance.push_back(static_cast<double>(fx.subnet.sample_query_latency(instr)));
      span.attr("latency_us", latency);
      span.attr("instructions", instr);
      span.attr("response_bytes", static_cast<std::uint64_t>(16));
      tracer.record_request_cost(obs::RequestCostRecord{
          "get_balance", span.context().trace_id, latency, instr, 16,
          cost_model.update_cost_cycles(instr, 16)});
      span.end_at(span.start() + latency);
    }

    // Replicated + query get_utxos (first page).
    obs::ScopedSpan span(&tracer, "request.get_utxos", "request");
    span.attr("kind", "replicated");
    canister::GetUtxosRequest request;
    request.address = addr;
    ic::InstructionMeter::Segment segment(fx.canister.meter());
    auto utxos = fx.canister.get_utxos(request);
    std::uint64_t instr = segment.sample();
    if (!utxos.ok()) continue;
    util::SimTime latency = fx.subnet.sample_update_latency(instr);
    rep_utxos.push_back(static_cast<double>(latency));
    q_utxos.push_back(static_cast<double>(fx.subnet.sample_query_latency(instr)));

    std::size_t n = utxos.value.utxos.size();
    std::size_t response_bytes = 48 * n + 44;
    span.attr("latency_us", latency);
    span.attr("instructions", instr);
    span.attr("response_bytes", static_cast<std::uint64_t>(response_bytes));
    span.attr("utxos", static_cast<std::uint64_t>(n));
    tracer.record_request_cost(obs::RequestCostRecord{
        "get_utxos", span.context().trace_id, latency, instr,
        static_cast<std::uint64_t>(response_bytes),
        cost_model.update_cost_cycles(instr, response_bytes)});
    span.end_at(span.start() + latency);

    std::size_t unstable = 0;
    for (const auto& u : utxos.value.utxos) {
      if (u.height > fx.canister.anchor_height()) ++unstable;
    }
    utxo_costs.push_back(UtxoCost{n, instr, unstable * 2 > n});
  }
  fx.canister.set_tracer(nullptr);

  Figure7Result result;
  result.addresses = n_addresses;
  result.requests_traced = tracer.request_costs().size();

  std::printf("Left/centre panels — latency (replicated goes through consensus):\n");
  result.series.push_back(bench::summarize_series("replicated get_balance", rep_balance));
  result.series.push_back(bench::summarize_series("replicated get_utxos", rep_utxos));
  result.series.push_back(bench::summarize_series("query get_balance", q_balance));
  result.series.push_back(bench::summarize_series("query get_utxos", q_utxos));
  for (const auto& s : result.series) bench::print_series_seconds(s);
  std::printf("  (paper: replicated avg <10s / p90 18s; query medians 220ms & 310ms)\n\n");

  std::printf("Right panel — instructions for replicated UTXO requests vs response size:\n");
  std::printf("  %-16s %-22s %-22s\n", "response UTXOs", "stable-heavy (instr)",
              "unstable-heavy (instr)");
  for (std::size_t bucket_lo : {0ULL, 50ULL, 200ULL, 1000ULL}) {
    std::size_t bucket_hi = bucket_lo == 0 ? 50 : bucket_lo == 50 ? 200
                            : bucket_lo == 200 ? 1000 : SIZE_MAX;
    double stable_sum = 0, unstable_sum = 0;
    std::size_t stable_n = 0, unstable_n = 0;
    for (const auto& c : utxo_costs) {
      if (c.response_utxos < bucket_lo || c.response_utxos >= bucket_hi) continue;
      if (c.unstable_heavy) {
        unstable_sum += static_cast<double>(c.instructions);
        ++unstable_n;
      } else {
        stable_sum += static_cast<double>(c.instructions);
        ++stable_n;
      }
    }
    std::printf("  [%5zu,%5s) %14.2fM (n=%-4zu) %14.2fM (n=%-4zu)\n", bucket_lo,
                bucket_hi == SIZE_MAX ? "inf" : std::to_string(bucket_hi).c_str(),
                stable_n ? stable_sum / stable_n / 1e6 : 0.0, stable_n,
                unstable_n ? unstable_sum / unstable_n / 1e6 : 0.0, unstable_n);
  }
  auto [min_it, max_it] = std::minmax_element(
      utxo_costs.begin(), utxo_costs.end(),
      [](const UtxoCost& a, const UtxoCost& b) { return a.instructions < b.instructions; });
  result.min_instructions = min_it->instructions;
  result.max_instructions = max_it->instructions;
  std::printf("  range: %.2e .. %.2e instructions (paper: 5.84e6 .. 4.76e8)\n",
              static_cast<double>(result.min_instructions),
              static_cast<double>(result.max_instructions));
  std::printf("  bifurcation: unstable UTXOs are cheaper to fetch than stable-set UTXOs\n\n");

  result.ok &= write_file("ICBTC_TRACE_OUT", "BENCH_latency_trace.json",
                          obs::to_trace_json(tracer), "trace records");
  result.ok &= write_file("ICBTC_CHROME_TRACE_OUT", "BENCH_latency_chrome.json",
                          obs::to_chrome_trace(tracer), "chrome trace");
  return result;
}

bool write_bench_json(const Figure7Result& r) {
  const char* out_path = std::getenv("ICBTC_BENCH_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_latency.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"workload\": {\"addresses\": %zu, \"quick\": %s},\n", r.addresses,
               quick_mode() ? "true" : "false");
  std::fprintf(out, "  \"requests_traced\": %zu,\n", r.requests_traced);
  std::fprintf(out, "  \"series\": [\n");
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const auto& s = r.series[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"n\": %zu, \"min_s\": %.6f, \"median_s\": %.6f, "
                 "\"p90_s\": %.6f, \"max_s\": %.6f}%s\n",
                 s.name.c_str(), s.n, s.min / 1e6, s.p50 / 1e6, s.p90 / 1e6, s.max / 1e6,
                 i + 1 < r.series.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"utxo_request_instructions\": {\"min\": %llu, \"max\": %llu}\n",
               static_cast<unsigned long long>(r.min_instructions),
               static_cast<unsigned long long>(r.max_instructions));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return true;
}

// --- Scan vs. indexed unstable reads -------------------------------------
//
// The delta index (src/canister/unstable_index.h) replaces the per-request
// unstable-chain scan with chain-ordered delta lookups. The contract: host
// wall-clock drops, responses and metered instruction counts are identical.
// This section ingests one deep-unstable workload (δ-deep unstable chain,
// mainnet shape: 144 blocks) into one canister, reads every address through
// the canister (indexed) and through the scan oracle on that canister
// (src/oracles/scan_reads.h), digests every response and meter sample,
// fails on any divergence, and writes BENCH_requests.json with the scan
// baseline column retained.

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct ModesWorkload {
  std::vector<adapter::AdapterResponse> responses;
  std::vector<std::string> addresses;
  std::int64_t now_s = 0;
  std::size_t unstable_blocks = 0;
  std::size_t total_outputs = 0;
  int stability_delta = 0;
};

/// A deep-unstable workload: every dealt block stays below δ of the tip, so
/// each request's view is assembled from the full unstable chain. Tracked
/// addresses follow the paper's UTXO-count skew (the >=1000 bucket forces
/// multi-page get_utxos chains); background transactions pay untracked
/// scripts so the scan path has realistic non-matching work, and some spend
/// earlier outputs to exercise the spent-outpoint filtering.
ModesWorkload build_modes_workload(bool quick) {
  ModesWorkload w;
  w.unstable_blocks = quick ? 24 : 144;
  w.stability_delta = static_cast<int>(w.unstable_blocks);  // nothing stabilizes
  const std::size_t n_addresses = quick ? 40 : 200;
  const std::size_t background_txs = quick ? 4 : 8;
  const std::size_t background_outputs = quick ? 25 : 60;

  util::Rng rng(4242);
  const auto& params = bitcoin::ChainParams::regtest();
  chain::HeaderTree tree(params, params.genesis_header);
  util::Hash256 tip = params.genesis_header.hash();
  std::uint32_t time = params.genesis_header.time;
  std::uint64_t tag = 515000;

  auto counts = paper_address_skew(n_addresses, rng);
  std::vector<util::Bytes> scripts;
  for (std::size_t i = 0; i < n_addresses; ++i) {
    util::Hash160 h;
    auto bytes = rng.next_bytes(20);
    std::copy(bytes.begin(), bytes.end(), h.data.begin());
    scripts.push_back(bitcoin::p2pkh_script(h));
    w.addresses.push_back(bitcoin::p2pkh_address(h, params.network));
  }

  std::vector<std::size_t> remaining = counts;
  std::vector<bitcoin::OutPoint> spendable;
  for (std::size_t b = 0; b < w.unstable_blocks; ++b) {
    std::vector<bitcoin::Transaction> txs;
    // Tracked payments: spread every address's quota evenly across blocks.
    bitcoin::Transaction tracked;
    bitcoin::TxIn in;
    in.prevout.txid = rng.next_hash();
    tracked.inputs.push_back(in);
    for (std::size_t a = 0; a < n_addresses; ++a) {
      std::size_t blocks_left = w.unstable_blocks - b;
      std::size_t chunk = (remaining[a] + blocks_left - 1) / blocks_left;
      chunk = std::min(chunk, remaining[a]);
      for (std::size_t i = 0; i < chunk; ++i) {
        tracked.outputs.push_back(bitcoin::TxOut{1000, scripts[a]});
      }
      remaining[a] -= chunk;
    }
    if (!tracked.outputs.empty()) txs.push_back(std::move(tracked));
    // Background noise, occasionally spending earlier unstable outputs.
    for (std::size_t t = 0; t < background_txs; ++t) {
      bitcoin::Transaction tx;
      bitcoin::TxIn bg_in;
      if (!spendable.empty() && rng.chance(0.5)) {
        bg_in.prevout = spendable[rng.next_below(spendable.size())];
      } else {
        bg_in.prevout.txid = rng.next_hash();
      }
      tx.inputs.push_back(bg_in);
      for (std::size_t o = 0; o < background_outputs; ++o) {
        util::Hash160 h;
        auto bytes = rng.next_bytes(20);
        std::copy(bytes.begin(), bytes.end(), h.data.begin());
        tx.outputs.push_back(bitcoin::TxOut{900, bitcoin::p2pkh_script(h)});
      }
      txs.push_back(std::move(tx));
    }
    time += 600;
    auto block =
        chain::build_child_block(tree, tip, time, scripts[0], bitcoin::block_subsidy(0),
                                 std::move(txs), tag++);
    tip = block.hash();
    tree.accept(block.header, static_cast<std::int64_t>(time) + 10000);
    for (const auto& tx : block.transactions) {
      util::Hash256 txid = tx.txid();
      w.total_outputs += tx.outputs.size();
      for (std::uint32_t v = 0; v < tx.outputs.size() && v < 4; ++v) {
        spendable.push_back(bitcoin::OutPoint{txid, v});
      }
    }
    adapter::AdapterResponse response;
    response.blocks.emplace_back(std::move(block), tree.find(tip)->header);
    w.responses.push_back(std::move(response));
  }
  w.now_s = static_cast<std::int64_t>(time) + 10000;
  return w;
}

struct ModeRun {
  double ingest_us = 0;
  double utxos_us = 0, utxos_hot_us = 0;
  double balance_us = 0, balance_hot_us = 0;
  std::vector<std::uint64_t> probes;  // response digest + instruction count per request
  std::uint64_t meter_total = 0;
  std::uint64_t delta_builds = 0, resident_bytes = 0;
};

/// Times one read path over every address: get_utxos (every page), again
/// hot, then get_balance twice. Digests each response with the instructions
/// it charged to `meter`.
template <typename GetUtxos, typename GetBalance>
void time_reads(const ModesWorkload& w, const ic::InstructionMeter& meter, GetUtxos get_utxos,
                GetBalance get_balance, ModeRun& run) {
  auto probe_utxos = [&](double& bucket) {
    std::uint64_t start = now_us();
    for (const auto& addr : w.addresses) {
      canister::GetUtxosRequest request;
      request.address = addr;
      for (;;) {
        ic::InstructionMeter::Segment segment(meter);
        auto outcome = get_utxos(request);
        std::uint64_t digest = mix64(0, static_cast<std::uint64_t>(outcome.status));
        digest = mix64(digest, segment.sample());
        if (outcome.ok()) {
          digest = mix64(digest, static_cast<std::uint64_t>(outcome.value.tip_height));
          for (const auto& u : outcome.value.utxos) {
            digest = mix64(digest, u.outpoint.txid.data[0] |
                                       static_cast<std::uint64_t>(u.outpoint.vout) << 8);
            digest = mix64(digest, static_cast<std::uint64_t>(u.value));
            digest = mix64(digest, static_cast<std::uint64_t>(u.height));
          }
        }
        run.probes.push_back(digest);
        if (!outcome.ok() || !outcome.value.next_page) break;
        request.page = outcome.value.next_page;
      }
    }
    bucket = static_cast<double>(now_us() - start);
  };
  auto probe_balance = [&](double& bucket) {
    std::uint64_t start = now_us();
    for (const auto& addr : w.addresses) {
      ic::InstructionMeter::Segment segment(meter);
      auto outcome = get_balance(addr);
      std::uint64_t digest = mix64(0, static_cast<std::uint64_t>(outcome.status));
      digest = mix64(digest, segment.sample());
      digest = mix64(digest, static_cast<std::uint64_t>(outcome.value));
      run.probes.push_back(digest);
    }
    bucket = static_cast<double>(now_us() - start);
  };

  probe_utxos(run.utxos_us);
  probe_utxos(run.utxos_hot_us);  // indexed path: the index is already synced
  probe_balance(run.balance_us);
  probe_balance(run.balance_hot_us);
  run.meter_total = meter.count();
}

struct RequestModesResult {
  ModesWorkload workload;  // responses cleared before storing
  ModeRun scan;
  ModeRun indexed;
  std::size_t divergent = 0;
  bool ok = true;
};

RequestModesResult run_request_modes() {
  const bool quick = quick_mode();
  std::printf("\n--- Scan vs. indexed unstable reads (deep-unstable workload) ---\n");
  RequestModesResult r;
  ModesWorkload w = build_modes_workload(quick);
  std::printf("workload: %zu addresses, %zu unstable blocks, %zu outputs%s\n", w.addresses.size(),
              w.unstable_blocks, w.total_outputs, quick ? " (quick mode)" : "");

  const auto& params = bitcoin::ChainParams::regtest();
  auto config = canister::CanisterConfig::for_params(params);
  config.stability_delta = w.stability_delta;
  canister::BitcoinCanister canister(params, config);
  obs::MetricsRegistry registry;
  canister.set_metrics(&registry);
  canister.set_delta_build_clock(now_us);
  std::uint64_t t0 = now_us();
  for (const auto& response : w.responses) canister.process_response(response, w.now_s);
  r.scan.ingest_us = r.indexed.ingest_us = static_cast<double>(now_us() - t0);
  r.indexed.delta_builds = registry.counter("canister.delta.builds").value();
  r.indexed.resident_bytes = canister.unstable_index().resident_bytes();

  // The oracle's meter starts at the canister's post-ingest total, so both
  // columns report ingest plus their own reads.
  ic::InstructionMeter oracle_meter;
  oracle_meter.charge(canister.meter().count());
  time_reads(
      w, canister.meter(),
      [&](const canister::GetUtxosRequest& request) { return canister.get_utxos(request); },
      [&](const std::string& addr) { return canister.get_balance(addr); }, r.indexed);
  time_reads(
      w, oracle_meter,
      [&](const canister::GetUtxosRequest& request) {
        return oracles::scan_get_utxos(canister, request, oracle_meter);
      },
      [&](const std::string& addr) {
        return oracles::scan_get_balance(canister, addr, 0, oracle_meter);
      },
      r.scan);

  if (r.scan.probes.size() != r.indexed.probes.size()) {
    r.divergent = SIZE_MAX;
  } else {
    for (std::size_t i = 0; i < r.scan.probes.size(); ++i) {
      if (r.scan.probes[i] != r.indexed.probes[i]) ++r.divergent;
    }
  }
  if (r.scan.meter_total != r.indexed.meter_total) r.divergent += 1;
  if (r.divergent != 0) {
    std::fprintf(stderr,
                 "FAIL: the canister and the scan oracle diverged (%zu mismatching request "
                 "digests/meter totals) — responses and metering must be identical\n",
                 r.divergent);
    r.ok = false;
  }

  auto speedup = [](double scan, double indexed) { return indexed > 0 ? scan / indexed : 0.0; };
  std::printf("  %-22s %12s %12s %9s\n", "series", "scan (ms)", "indexed (ms)", "speedup");
  auto row = [&](const char* name, double s, double i) {
    std::printf("  %-22s %12.2f %12.2f %8.1fx\n", name, s / 1e3, i / 1e3, speedup(s, i));
  };
  row("get_utxos cold", r.scan.utxos_us, r.indexed.utxos_us);
  row("get_utxos hot", r.scan.utxos_hot_us, r.indexed.utxos_hot_us);
  row("get_balance cold", r.scan.balance_us, r.indexed.balance_us);
  row("get_balance hot", r.scan.balance_hot_us, r.indexed.balance_hot_us);
  std::printf("  ingest: %.2fms (delta builds: %llu)\n", r.indexed.ingest_us / 1e3,
              static_cast<unsigned long long>(r.indexed.delta_builds));
  std::printf("  resident deltas: %.1f MiB\n",
              static_cast<double>(r.indexed.resident_bytes) / (1024.0 * 1024.0));
  std::printf("  metering: scan %llu == indexed %llu instructions (%s)\n",
              static_cast<unsigned long long>(r.scan.meter_total),
              static_cast<unsigned long long>(r.indexed.meter_total),
              r.scan.meter_total == r.indexed.meter_total ? "identical" : "DIVERGED");

  w.responses.clear();  // keep only the metadata for the JSON report
  r.workload = std::move(w);
  return r;
}

bool write_requests_json(const RequestModesResult& r) {
  const char* out_path = std::getenv("ICBTC_BENCH_REQUESTS_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_requests.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return false;
  }
  auto mode_json = [&](const char* name, const ModeRun& m, bool last) {
    std::fprintf(out,
                 "    \"%s\": {\"ingest_ms\": %.3f, \"get_utxos_ms\": %.3f, "
                 "\"get_utxos_hot_ms\": %.3f, \"get_balance_ms\": %.3f, "
                 "\"get_balance_hot_ms\": %.3f, \"metered_instructions\": %llu}%s\n",
                 name, m.ingest_us / 1e3, m.utxos_us / 1e3, m.utxos_hot_us / 1e3,
                 m.balance_us / 1e3, m.balance_hot_us / 1e3,
                 static_cast<unsigned long long>(m.meter_total), last ? "" : ",");
  };
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"workload\": {\"addresses\": %zu, \"unstable_blocks\": %zu, "
               "\"total_outputs\": %zu, \"quick\": %s},\n",
               r.workload.addresses.size(), r.workload.unstable_blocks, r.workload.total_outputs,
               quick_mode() ? "true" : "false");
  std::fprintf(out, "  \"divergent_requests\": %zu,\n", r.divergent);
  std::fprintf(out, "  \"modes\": {\n");
  mode_json("scan", r.scan, false);
  mode_json("indexed", r.indexed, true);
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"speedup\": {\"get_utxos\": %.2f, \"get_utxos_hot\": %.2f, "
               "\"get_balance\": %.2f, \"get_balance_hot\": %.2f},\n",
               r.indexed.utxos_us > 0 ? r.scan.utxos_us / r.indexed.utxos_us : 0.0,
               r.indexed.utxos_hot_us > 0 ? r.scan.utxos_hot_us / r.indexed.utxos_hot_us : 0.0,
               r.indexed.balance_us > 0 ? r.scan.balance_us / r.indexed.balance_us : 0.0,
               r.indexed.balance_hot_us > 0 ? r.scan.balance_hot_us / r.indexed.balance_hot_us
                                            : 0.0);
  std::fprintf(out,
               "  \"delta_index\": {\"builds\": %llu, \"resident_bytes\": %llu}\n",
               static_cast<unsigned long long>(r.indexed.delta_builds),
               static_cast<unsigned long long>(r.indexed.resident_bytes));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return true;
}

void BM_GetBalance(benchmark::State& state) {
  static Fixture fx(200);
  std::size_t i = 0;
  for (auto _ : state) {
    auto outcome = fx.canister.get_balance(fx.addresses[i++ % fx.addresses.size()]);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_GetBalance);

void BM_GetUtxosFirstPage(benchmark::State& state) {
  static Fixture fx(200);
  std::size_t i = 0;
  for (auto _ : state) {
    canister::GetUtxosRequest request;
    request.address = fx.addresses[i++ % fx.addresses.size()];
    auto outcome = fx.canister.get_utxos(request);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_GetUtxosFirstPage);

}  // namespace

int main(int argc, char** argv) {
  Figure7Result result = run_figure7();
  bool ok = result.ok && write_bench_json(result);
  RequestModesResult modes = run_request_modes();
  ok = ok && modes.ok && write_requests_json(modes);
  if (!quick_mode()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
