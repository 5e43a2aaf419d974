// Figure 6: instructions executed for block ingestion — plus the hashing
// pipeline wall-clock benchmark.
//
// Figure 6 left panel: instructions per ingested block over a six-month
// stream, averaging ~21.6e9 on mainnet. Right panel: the split between
// output insertions and input removals (roughly half each). Block contents
// are scaled down 1/10 from mainnet shape (200 inputs / 230 outputs per
// block) and instruction counts scaled back up; the instruction *model* per
// UTXO operation is the paper-calibrated cost in canister::InstructionCosts.
//
// The hashing pipeline benchmark generates one serialized block stream and
// replays the identical bytes through four canister configurations:
//   baseline    txid cache off, portable SHA-256, no thread pool
//   cached      txid cache on,  portable SHA-256, no thread pool
//   dispatched  txid cache on,  best SHA-256 (SHA-NI/SSE4), no thread pool
//   parallel    txid cache on,  best SHA-256, shared thread pool
// Each replay first feeds the stream's warm-up blocks untimed, so every
// timed block extends the canister's chain. It writes BENCH_ingestion.json
// (override with ICBTC_BENCH_OUT) with ns/tx and blocks/s per mode, and exits
// nonzero if a replay leaves a block unstored or the anchor unmoved, or if
// any mode's UTXO-set digest or metrics snapshot diverges from the scalar
// result. ICBTC_BENCH_QUICK=1 shrinks the workload and skips Figure 6 / the
// google-benchmark loops for CI smoke runs. A short traced replay
// additionally writes BENCH_ingestion_chrome.json (ICBTC_CHROME_TRACE_OUT) —
// per-block Algorithm 2 ingestion spans viewable in chrome://tracing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "canister/utxo_index.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "parallel/thread_pool.h"
#include "workload.h"

namespace {

using namespace icbtc;
using namespace icbtc::bench;

constexpr int kIngestScale = 10;

using bench::quick_mode;

void run_figure6() {
  const auto& params = bitcoin::ChainParams::regtest();  // δ=6: fast stabilization
  auto config = canister::CanisterConfig::for_params(params);
  canister::BitcoinCanister canister(params, config);
  ChainFeeder feeder(canister, /*seed=*/66);

  // Mainnet shape / 10: ~220 inputs, ~250 outputs per block.
  BlockShape shape;
  shape.transactions = 90;
  shape.inputs_per_tx = 3;
  shape.outputs_per_tx = 3;
  shape.jitter = 0.35;

  // Warm up the spendable pool, then stream "six months" of blocks (scaled
  // count: 1300 blocks sampled from the ~26k real ones).
  feeder.run(40, shape);
  const int kBlocks = 1300;
  feeder.run(kBlocks, shape);

  const auto& log = canister.ingest_log();
  std::printf("\n--- Figure 6 (left): instructions per ingested block ---\n");
  std::printf("(scaled x%d back to mainnet block shape)\n", kIngestScale);
  std::printf("%-8s %-10s %-14s %-10s %-10s\n", "block", "height", "instructions",
              "inputs", "outputs");
  double total = 0;
  double total_insert = 0;
  double total_remove = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& stats = log[i];
    double scaled = static_cast<double>(stats.instructions) * kIngestScale;
    total += scaled;
    total_insert += static_cast<double>(stats.insert_instructions) * kIngestScale;
    total_remove += static_cast<double>(stats.remove_instructions) * kIngestScale;
    ++count;
    if (i % 100 == 0) {
      std::printf("%-8zu %-10d %-14.2fB %-10zu %-10zu\n", i, stats.height, scaled / 1e9,
                  stats.inputs_removed * kIngestScale, stats.outputs_inserted * kIngestScale);
    }
  }
  std::printf("\naverage: %.1fB instructions/block   (paper: ~21.6B)\n",
              total / static_cast<double>(count) / 1e9);

  std::printf("\n--- Figure 6 (right): split of ingestion instructions ---\n");
  std::printf("output insertions: %.1fB avg/block (%.0f%% of mutation work)\n",
              total_insert / static_cast<double>(count) / 1e9,
              100.0 * total_insert / (total_insert + total_remove));
  std::printf("input removals:    %.1fB avg/block (%.0f%% of mutation work)\n",
              total_remove / static_cast<double>(count) / 1e9,
              100.0 * total_remove / (total_insert + total_remove));
  std::printf("(paper: roughly half of the ~20B instructions each)\n\n");
}

// ---------------------------------------------------------------------------
// Hashing pipeline benchmark
// ---------------------------------------------------------------------------

struct ModeConfig {
  const char* name;
  bool txid_cache;
  crypto::Sha256Impl impl;
  std::size_t pool_threads;  // 0 = serial
};

struct ModeResult {
  std::string name;
  double seconds = 0;
  double ns_per_tx = 0;
  double blocks_per_s = 0;
  std::string utxo_digest;
  std::string metrics_json;
  bool complete = true;  // every replay stored every block and moved the anchor
};

/// Feeds serialized blocks to `canister`, one response each, and checks
/// that it stored every block and advanced its anchor.
bool feed(canister::BitcoinCanister& canister, std::span<const util::Bytes> blocks,
          const char* what) {
  int anchor = canister.anchor_height();
  bool ok = true;
  for (const auto& raw : blocks) {
    bitcoin::Block block = bitcoin::Block::parse(raw);
    adapter::AdapterResponse response;
    bitcoin::BlockHeader header = block.header;
    response.blocks.emplace_back(std::move(block), header);
    auto result =
        canister.process_response(response, static_cast<std::int64_t>(header.time) + 10000);
    ok &= result.blocks_stored == 1;
  }
  if (!ok) std::fprintf(stderr, "FAIL: %s replay refused a block\n", what);
  if (canister.anchor_height() <= anchor) {
    std::fprintf(stderr, "FAIL: %s replay left the anchor at %d\n", what, anchor);
    ok = false;
  }
  return ok;
}

/// Replays the serialized block stream through a freshly configured
/// canister holding the warm-up blocks, returning the best-of-`reps`
/// wall-clock result plus the final UTXO-set digest and metrics snapshot.
ModeResult replay(const ModeConfig& mode, const std::vector<util::Bytes>& warmup,
                  const std::vector<util::Bytes>& stream, std::size_t total_txs, int reps) {
  ModeResult result;
  result.name = mode.name;
  bitcoin::Transaction::set_txid_cache_enabled(mode.txid_cache);
  if (!crypto::set_sha256_impl(mode.impl)) {
    std::fprintf(stderr, "note: %s unsupported on this CPU, using portable\n",
                 crypto::to_string(mode.impl));
    crypto::set_sha256_impl(crypto::Sha256Impl::kPortable);
  }
  parallel::set_shared_pool(mode.pool_threads);

  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto& params = bitcoin::ChainParams::regtest();
    canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
    obs::MetricsRegistry registry;
    canister.set_metrics(&registry);
    result.complete &= feed(canister, warmup, "warm-up");

    auto start = std::chrono::steady_clock::now();
    result.complete &= feed(canister, stream, mode.name);
    auto stop = std::chrono::steady_clock::now();
    double seconds = std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best) best = seconds;
    if (rep == reps - 1) {
      result.utxo_digest = canister.utxo_digest().hex();
      result.metrics_json = obs::to_json(registry);
    }
  }
  result.seconds = best;
  result.ns_per_tx = best * 1e9 / static_cast<double>(total_txs);
  result.blocks_per_s = static_cast<double>(stream.size()) / best;

  // Restore defaults for whatever runs next.
  bitcoin::Transaction::set_txid_cache_enabled(true);
  crypto::set_sha256_impl(crypto::sha256_best_impl());
  parallel::set_shared_pool(0);
  return result;
}

/// Replays a prefix of the block stream under a tracer whose clock follows
/// the instruction meter (2000 instructions/µs) and writes a Chrome trace of
/// the ingestion spans — the per-block Algorithm 2 view of Fig. 6: delta
/// build, anchor advance and shard-parallel apply. The warm-up blocks go in
/// first, untraced. Runs with the shared pool installed, so the delta builds
/// and applies fan out on it; the trace stays byte-identical to a serial
/// replay.
bool write_ingestion_trace(const std::vector<util::Bytes>& warmup,
                           const std::vector<util::Bytes>& stream) {
  auto traced = std::span(stream).first(std::min<std::size_t>(stream.size(), 40));

  obs::TracerConfig tracer_config;
  tracer_config.event_capacity = 256;
  obs::Tracer tracer(tracer_config);

  const auto& params = bitcoin::ChainParams::regtest();
  canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
  bool ok = feed(canister, warmup, "warm-up");
  ic::InstructionMeter& meter = canister.meter();
  tracer.set_clock(
      [&meter] { return static_cast<obs::TraceTime>(meter.count() / ic::kInstructionsPerUs); });
  canister.set_tracer(&tracer);
  parallel::set_shared_pool(4);
  ok &= feed(canister, traced, "traced");
  parallel::set_shared_pool(0);
  canister.set_tracer(nullptr);
  if (!ok) return false;

  const char* path = std::getenv("ICBTC_CHROME_TRACE_OUT");
  if (path == nullptr || *path == '\0') path = "BENCH_ingestion_chrome.json";
  std::string body = obs::to_chrome_trace(tracer);
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path);
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s (chrome trace, %zu blocks)\n", path, traced.size());
  return true;
}

// ---------------------------------------------------------------------------
// Sharded stable-UTXO ingestion
// ---------------------------------------------------------------------------

struct ShardedResult {
  std::size_t shards = 0;
  double seconds = 0;
  double blocks_per_s = 0;
  std::uint64_t instructions = 0;
  std::uint64_t critical_path = 0;
  std::uint64_t reads_mid_ingestion = 0;
  std::string utxo_digest;
};

/// Replays the parsed block stream straight into a sharded UtxoIndex (the
/// stable-store slice of Algorithm 2) with a 4-thread pool, while a reader
/// thread issues epoch-snapshot queries against live scripts. Reports wall
/// clock plus the modelled shard-parallel latency: on a single-subnet replica
/// the per-shard mutation charges run concurrently, so the modelled cost per
/// block is the serial prologue + max per-shard charge, and the modelled
/// speedup is total instructions / total critical path. Wall clock on small
/// CI hosts shows little change (one core); the instruction model is the
/// figure of merit, consistent with the 2000 instructions/us clock used by
/// the trace exporter.
bool run_sharded_section(std::FILE* out, const std::vector<util::Bytes>& stream) {
  std::vector<bitcoin::Block> blocks;
  blocks.reserve(stream.size());
  for (const auto& raw : stream) blocks.push_back(bitcoin::Block::parse(raw));
  // A handful of live scripts for the mid-ingestion reader.
  std::vector<util::Bytes> probe_scripts;
  for (const auto& tx : blocks.front().transactions) {
    for (const auto& txo : tx.outputs) {
      if (probe_scripts.size() < 8) probe_scripts.push_back(txo.script_pubkey);
    }
  }

  std::printf("\n--- sharded stable-UTXO ingestion (epoch snapshot reads) ---\n");
  std::vector<ShardedResult> results;
  for (std::size_t shards : {1u, 4u, 8u}) {
    canister::UtxoIndex index(canister::InstructionCosts{},
                              canister::UtxoIndex::ShardConfig{shards, true});
    parallel::ThreadPool pool(4);
    ic::InstructionMeter meter;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::thread reader([&] {
      ic::InstructionMeter reader_meter;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(
            index.utxos_for_script(probe_scripts[i++ % probe_scripts.size()], reader_meter));
        reads.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });

    ShardedResult r;
    r.shards = shards;
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      auto stats = index.apply_block(blocks[i], static_cast<int>(i + 1), meter, &pool);
      r.critical_path += stats.critical_path_instructions;
    }
    auto end = std::chrono::steady_clock::now();
    stop.store(true);
    reader.join();

    r.seconds = std::chrono::duration<double>(end - start).count();
    r.blocks_per_s = static_cast<double>(blocks.size()) / r.seconds;
    r.instructions = meter.count();
    r.reads_mid_ingestion = reads.load();
    r.utxo_digest = index.digest().hex();
    std::printf(
        "%zu shard(s): %8.3f s  %8.1f blocks/s  modelled speedup %.2fx  "
        "%llu reads mid-ingestion\n",
        shards, r.seconds, r.blocks_per_s,
        static_cast<double>(r.instructions) / static_cast<double>(r.critical_path),
        static_cast<unsigned long long>(r.reads_mid_ingestion));
    results.push_back(std::move(r));
  }

  // Gates: bit-identical state and metering at every shard count, and the
  // modelled shard-parallel latency must win >=2x at 4+ shards.
  bool ok = true;
  for (const auto& r : results) {
    if (r.utxo_digest != results[0].utxo_digest) {
      std::fprintf(stderr, "FAIL: %zu-shard UTXO digest %s != serial %s\n", r.shards,
                   r.utxo_digest.c_str(), results[0].utxo_digest.c_str());
      ok = false;
    }
    if (r.instructions != results[0].instructions) {
      std::fprintf(stderr, "FAIL: %zu-shard metered %llu instructions != serial %llu\n",
                   r.shards, static_cast<unsigned long long>(r.instructions),
                   static_cast<unsigned long long>(results[0].instructions));
      ok = false;
    }
    double modelled =
        static_cast<double>(r.instructions) / static_cast<double>(r.critical_path);
    if (r.shards >= 4 && modelled < 2.0) {
      std::fprintf(stderr, "FAIL: %zu-shard modelled speedup %.2fx < 2x\n", r.shards,
                   modelled);
      ok = false;
    }
  }

  std::fprintf(out, "  \"sharded\": {\n");
  std::fprintf(out, "    \"pool_threads\": 4, \"snapshot_reads\": true,\n");
  std::fprintf(out, "    \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "      {\"shards\": %zu, \"seconds\": %.6f, \"blocks_per_s\": %.2f, "
                 "\"instructions\": %llu, \"critical_path_instructions\": %llu, "
                 "\"modelled_speedup\": %.3f, \"reads_mid_ingestion\": %llu, "
                 "\"utxo_digest\": \"%s\"}%s\n",
                 r.shards, r.seconds, r.blocks_per_s,
                 static_cast<unsigned long long>(r.instructions),
                 static_cast<unsigned long long>(r.critical_path),
                 static_cast<double>(r.instructions) / static_cast<double>(r.critical_path),
                 static_cast<unsigned long long>(r.reads_mid_ingestion),
                 r.utxo_digest.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"digests_match\": %s\n", ok ? "true" : "false");
  std::fprintf(out, "  },\n");
  return ok;
}

bool run_hashing_pipeline_bench() {
  const bool quick = quick_mode();
  const int warmup = quick ? 10 : 40;
  const int blocks = quick ? 60 : 300;
  const int reps = quick ? 2 : 3;

  BlockShape shape;
  shape.transactions = quick ? 40 : 90;
  shape.inputs_per_tx = 3;
  shape.outputs_per_tx = 3;
  shape.jitter = 0.35;

  // Generate the stream once; every mode replays the identical bytes, after
  // the warm-up blocks its first block builds on.
  std::vector<util::Bytes> warmup_stream;
  std::vector<util::Bytes> stream;
  {
    const auto& params = bitcoin::ChainParams::regtest();
    canister::BitcoinCanister generator(params, canister::CanisterConfig::for_params(params));
    ChainFeeder feeder(generator, /*seed=*/68);
    feeder.set_block_tap(&warmup_stream);
    feeder.run(warmup, shape);
    feeder.set_block_tap(&stream);
    feeder.run(blocks, shape);
  }
  std::size_t total_txs = 0;
  for (const auto& raw : stream) total_txs += bitcoin::Block::parse(raw).transactions.size();

  const std::vector<ModeConfig> modes = {
      {"baseline", false, crypto::Sha256Impl::kPortable, 0},
      {"cached", true, crypto::Sha256Impl::kPortable, 0},
      {"dispatched", true, crypto::sha256_best_impl(), 0},
      {"parallel", true, crypto::sha256_best_impl(), 4},
  };
  std::vector<ModeResult> results;
  for (const auto& mode : modes) {
    results.push_back(replay(mode, warmup_stream, stream, total_txs, reps));
    const auto& r = results.back();
    std::printf("%-11s %8.3f s   %10.0f ns/tx   %8.1f blocks/s\n", r.name.c_str(), r.seconds,
                r.ns_per_tx, r.blocks_per_s);
  }

  // Correctness gate: every mode must ingest the whole stream and land on
  // the scalar UTXO set and the scalar metrics snapshot, byte for byte.
  bool ok = true;
  for (const auto& r : results) {
    ok &= r.complete;
    if (r.utxo_digest != results[0].utxo_digest) {
      std::fprintf(stderr, "FAIL: %s UTXO digest %s != baseline %s\n", r.name.c_str(),
                   r.utxo_digest.c_str(), results[0].utxo_digest.c_str());
      ok = false;
    }
    if (r.metrics_json != results[0].metrics_json) {
      std::fprintf(stderr, "FAIL: %s metrics snapshot differs from baseline\n", r.name.c_str());
      ok = false;
    }
  }

  double speedup_cached = results[0].seconds / results[1].seconds;
  double speedup_dispatched = results[0].seconds / results[2].seconds;
  double speedup_parallel = results[0].seconds / results[3].seconds;
  std::printf("speedup vs baseline: cached %.2fx, dispatched %.2fx, parallel %.2fx\n",
              speedup_cached, speedup_dispatched, speedup_parallel);

  const char* out_path = std::getenv("ICBTC_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_ingestion.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"workload\": {\"blocks\": %zu, \"transactions\": %zu, \"quick\": %s},\n",
               stream.size(), total_txs, quick ? "true" : "false");
  std::fprintf(out, "  \"sha256_best_impl\": \"%s\",\n",
               crypto::to_string(crypto::sha256_best_impl()));
  std::fprintf(out, "  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, \"ns_per_tx\": %.1f, "
                 "\"blocks_per_s\": %.2f, \"utxo_digest\": \"%s\", \"metrics_digest\": \"%s\"}%s\n",
                 r.name.c_str(), r.seconds, r.ns_per_tx, r.blocks_per_s, r.utxo_digest.c_str(),
                 crypto::sha256d(util::ByteSpan(
                                     reinterpret_cast<const std::uint8_t*>(r.metrics_json.data()),
                                     r.metrics_json.size()))
                     .hex()
                     .c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_vs_baseline\": {\"cached\": %.3f, \"dispatched\": %.3f, "
               "\"parallel\": %.3f},\n",
               speedup_cached, speedup_dispatched, speedup_parallel);
  ok &= run_sharded_section(out, stream);
  std::fprintf(out, "  \"digests_match\": %s\n", ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  ok &= write_ingestion_trace(warmup_stream, stream);
  return ok;
}

void BM_IngestBlock(benchmark::State& state) {
  const auto& params = bitcoin::ChainParams::regtest();
  canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
  ChainFeeder feeder(canister, 67);
  BlockShape shape;
  shape.transactions = static_cast<std::size_t>(state.range(0));
  shape.inputs_per_tx = 2;
  shape.outputs_per_tx = 3;
  feeder.run(20, shape);
  std::size_t before = canister.ingest_log().size();
  std::uint64_t instructions_before = canister.meter().count();
  for (auto _ : state) {
    feeder.step(shape);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["stable_blocks"] =
      static_cast<double>(canister.ingest_log().size() - before);
  state.counters["instr/iter"] = benchmark::Counter(
      static_cast<double>(canister.meter().count() - instructions_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IngestBlock)->Arg(8)->Arg(80)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool ok = run_hashing_pipeline_bench();
  if (!quick_mode()) {
    run_figure6();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
