// query_stable, ingest_mainnet and reads_during_ingest: one canister over
// bench_load's population, driven directly through its public endpoints.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "chain_gen.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace icbtc;
using canister::BitcoinCanister;

namespace {

/// δ=144: a block turns stable once 143 blocks sit on top of it, so the
/// canister keeps 143 unstable blocks in steady state.
constexpr int kUnstableWindow = 143;
/// Set-up is repeated this often; setup_s is the median.
constexpr int kSetupReps = 3;
/// Measured phases are split into this many segments; end-to-end figures are
/// medians over segments.
constexpr std::size_t kSegments = 5;
/// ingest_mainnet samples the host's speed after every this-many blocks
/// (~1% of the run).
constexpr std::uint64_t kProbeEveryBlocks = 4;
/// ingest_mainnet's host-speed sensitivity (see Segments): over 14 runs of
/// 30 s on the reference host, the raw block rate fell as slowness^-1.16
/// (log-log correlation -0.95).
constexpr double kIngestHostSensitivity = 1.15;
/// query_stable's open-loop rate: an absolute rate at about a tenth of the
/// closed-loop capacity of one caller on the reference host (~20k calls/s),
/// so queueing adds little to service time and host drift is not amplified.
constexpr double kQueryOpenRate = 2'000;
/// reads_during_ingest: one block every 2 s and 300 reads per second. Block
/// ingest plus the first read after it keep the canister busy 10-20% of the
/// time and steady reads ~6%, so the read p50 is a steady read and the read
/// p99 (taken over the whole run) waits behind a block.
constexpr double kBlockIntervalUs = 2e6;
constexpr double kReadRate = 300;
/// Every this-many get_balance calls of reads_during_ingest is checked
/// against the sum of the address's get_utxos pages (untimed).
constexpr std::size_t kBalanceCheckEvery = 50;

const char* call_span(Call call) {
  switch (call) {
    case Call::kGetUtxos: return "canister.get_utxos";
    case Call::kGetBalance: return "canister.get_balance";
    case Call::kSendTransaction: return "canister.send_transaction";
  }
  return "?";
}

/// One query the generator will send: which call, which population address.
struct Query {
  Call call;
  std::uint32_t address;
};

/// Seeded query stream: Zipf(0.99) address ranks (hot ranks first) and the
/// 45/45/10 call mix. Fills address strings for every sampled address only.
std::vector<Query> make_queries(const ChainGen& chain, const Zipf& zipf, util::Rng& rng,
                                std::size_t n, std::vector<std::string>& addresses) {
  std::vector<Query> out(n);
  for (auto& q : out) {
    q.call = sample_call(rng);
    q.address = static_cast<std::uint32_t>(zipf.sample(rng));
    if (addresses[q.address].empty()) addresses[q.address] = chain.address(q.address);
  }
  return out;
}

/// Poisson arrival offsets (µs) at `rate` per second covering `seconds`.
std::vector<double> poisson_offsets(double rate, double seconds, util::Rng& rng) {
  std::vector<double> out;
  double t = 0;
  double mean_gap_us = 1e6 / rate;
  for (;;) {
    t += rng.next_exponential(mean_gap_us);
    if (t >= seconds * 1e6) break;
    out.push_back(t);
  }
  return out;
}

/// Stable UTXO count the canister must hold once blocks below
/// `anchor_height` are stable (block i has height i + 1).
std::int64_t expected_stable_count(const ChainGen& chain, int anchor_height) {
  std::int64_t n = 0;
  for (int i = 0; i < anchor_height; ++i) n += chain.utxo_delta(static_cast<std::size_t>(i));
  return n;
}

void check_stable_count(const BitcoinCanister& c, const ChainGen& chain, Result& r,
                        const char* when) {
  std::int64_t expected = expected_stable_count(chain, c.anchor_height());
  if (static_cast<std::int64_t>(c.utxo_count()) != expected) {
    r.fail(std::string("stable UTXO count not conserved ") + when + ": have " +
           std::to_string(c.utxo_count()) + ", expected " + std::to_string(expected));
  }
}

/// Builds the canister from blocks [0, end) `kSetupReps` times; returns the
/// median set-up time (at nominal host speed, see median_setup_s) and leaves
/// the last canister in `out`.
double set_up(const ChainGen& chain, std::size_t end, std::unique_ptr<BitcoinCanister>& out,
              Result& r, double sensitivity = 1.0) {
  double setup_s = median_setup_s(kSetupReps, [&] {
    out.reset();
    out = make_canister();
    if (!feed(*out, chain, 0, end)) r.fail("set-up block refused");
  }, sensitivity);
  if (out->unstable_block_count() != static_cast<std::size_t>(kUnstableWindow)) {
    r.fail("set-up left " + std::to_string(out->unstable_block_count()) +
           " unstable blocks, expected " + std::to_string(kUnstableWindow));
  }
  check_stable_count(*out, chain, r, "after set-up");
  return setup_s;
}

/// Serves one query and checks what can be checked cheaply. With
/// `expect_dealt` the address holds exactly its dealt population UTXOs.
struct Served {
  bool ok = false;
  std::size_t utxos = 0;
};
Served serve(BitcoinCanister& c, const Query& q, const std::string& address,
             const util::Bytes& raw_tx, const ChainGen& chain, bool expect_dealt) {
  Served s;
  switch (q.call) {
    case Call::kGetUtxos: {
      canister::GetUtxosRequest request;
      request.address = address;
      auto outcome = c.get_utxos(request);
      s.utxos = outcome.value.utxos.size();
      s.ok = outcome.ok();
      if (s.ok && expect_dealt) {
        std::size_t dealt = chain.dealt(q.address);
        std::size_t page = c.config().utxos_per_page;
        s.ok = s.utxos == std::min(dealt, page) &&
               outcome.value.next_page.has_value() == (dealt > page);
      }
      break;
    }
    case Call::kGetBalance: {
      auto outcome = c.get_balance(address);
      s.ok = outcome.ok() &&
             (!expect_dealt || outcome.value == kDealValue * chain.dealt(q.address));
      break;
    }
    case Call::kSendTransaction:
      s.ok = c.send_transaction(raw_tx) == canister::Status::kOk;
      break;
  }
  return s;
}

/// The balance of `address` equals the sum over all its get_utxos pages.
bool balance_matches_pages(BitcoinCanister& c, const std::string& address) {
  auto balance = c.get_balance(address);
  if (!balance.ok()) return false;
  bitcoin::Amount sum = 0;
  canister::GetUtxosRequest request;
  request.address = address;
  for (;;) {
    auto page = c.get_utxos(request);
    if (!page.ok()) return false;
    for (const auto& u : page.value.utxos) sum += u.value;
    if (!page.value.next_page) break;
    request.page = page.value.next_page;
  }
  return sum == balance.value;
}

/// Standalone stable-store probes on the same scripts the workload queried:
/// address decode, paged lookup and balance, timed call by call.
void probe_queries(BitcoinCanister& c, const ChainGen& chain, const std::vector<Query>& queries,
                   const std::vector<std::string>& addresses, Result& r) {
  std::vector<double> decode_ns, lookup_us, balance_us;
  ic::InstructionMeter meter;
  const auto network = bitcoin::ChainParams::regtest().network;
  std::size_t n = std::min<std::size_t>(queries.size(), 20'000);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& address = addresses[queries[i].address];
    double t0 = now_us();
    auto decoded = bitcoin::decode_address(address, network);
    double t1 = now_us();
    if (!decoded) {
      r.fail("decode_address refused a population address");
      continue;
    }
    decode_ns.push_back((t1 - t0) * 1e3);
    util::Bytes script = bitcoin::p2pkh_script(chain.key(queries[i].address));
    std::vector<canister::StoredUtxo> page;
    t0 = now_us();
    c.stable_utxos().utxos_for_script(script, meter, 0, c.config().utxos_per_page, page);
    t1 = now_us();
    lookup_us.push_back(t1 - t0);
    t0 = now_us();
    (void)c.stable_utxos().balance_of_script(script, meter);
    t1 = now_us();
    balance_us.push_back(t1 - t0);
  }
  r.add_summary("bitcoin.decode_address_ns", summarize(decode_ns), "ns");
  r.add_summary("utxo.lookup_us", summarize(lookup_us), "us");
  r.add_summary("utxo.balance_us", summarize(balance_us), "us");
}

void add_standard_e2e(Result& r, double setup_s, double ops_per_s, const Summary& latency) {
  r.end_to_end.push_back({"setup_s", setup_s, "s"});
  r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.end_to_end.push_back({"ops_per_s", ops_per_s, "1/s"});
  r.end_to_end.push_back({"latency_p50_us", latency.p50, "us"});
  r.end_to_end.push_back({"latency_tail_us", latency.tail, "us"});
  r.add_detail("latency_tail_level", latency.tail_level, "pct");
}

}  // namespace

// ---------------------------------------------------------------------------
// query_stable
// ---------------------------------------------------------------------------

Result run_query_stable(const Options& o) {
  Result r;
  Tracing tracing(false);
  ChainGen chain(o.seed);
  chain.deal_population(PopulationSpec{});
  chain.add_empty_blocks(kUnstableWindow);

  util::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 17);
  Zipf zipf(chain.population_size(), 0.99);
  std::vector<std::string> addresses(chain.population_size());
  double closed_s = o.seconds / 2;
  double open_s = o.seconds / 2;
  // Generously sized: the closed loop stops on the clock, not on the list.
  auto closed = make_queries(chain, zipf, rng, static_cast<std::size_t>(closed_s * 120'000),
                             addresses);
  auto offsets = poisson_offsets(kQueryOpenRate, open_s, rng);
  auto open = make_queries(chain, zipf, rng, offsets.size(), addresses);
  auto raw_txs = make_raw_transactions(64, rng);

  std::unique_ptr<BitcoinCanister> c;
  double setup_s = set_up(chain, chain.size(), c, r);
  Counters counters;
  if (o.trace) attach_counters(*c, counters);

  // Closed loop: one caller, next call as soon as the previous returns.
  std::size_t next = 0;
  Segments closed_segments(kSegments);
  auto closed_loop = [&](double seconds, Summary* service) {
    std::vector<double> service_us;
    double start = now_us();
    double deadline = start + seconds * 1e6;
    double t = start;
    std::size_t calls = 0;
    while (t < deadline && next < closed.size()) {
      const Query& q = closed[next++];
      double t0 = now_us();
      Served s;
      {
        Tracing::Span span(tracing, Layer::kCanister, call_span(q.call));
        s = serve(*c, q, addresses[q.address], raw_txs[next % raw_txs.size()], chain, true);
      }
      t = now_us();
      service_us.push_back(t - t0);
      closed_segments.add_work(closed_segments.of(t0 - start, seconds * 1e6), 1, t - t0);
      ++calls;
      ++r.attempted;
      if (!s.ok) {
        ++r.failed;
        r.fail("closed-loop query returned a wrong or non-ok result");
      }
    }
    if (service != nullptr) *service = summarize(service_us);
    return static_cast<double>(calls) / ((t - start) / 1e6);
  };

  double overhead_pct = 0;
  double query_rps = 0;
  Summary closed_service;
  if (o.trace) {
    // Untraced then traced halves of the closed loop give the overhead.
    double untraced = closed_loop(closed_s / 2, nullptr);
    tracing.enable();
    tracing.begin_window();
    query_rps = closed_loop(closed_s / 2, &closed_service);
    overhead_pct = 100.0 * (untraced / query_rps - 1.0);
  } else {
    query_rps = closed_loop(closed_s, &closed_service);
  }

  // Open loop at a fixed absolute rate, timed from each scheduled arrival.
  Segments open_segments(kSegments);
  std::vector<double> latency_by[3], late_us, wait_us;
  std::size_t utxos_returned = 0, utxo_calls = 0;
  OpenLoop loop;
  loop.start();
  for (std::size_t i = 0; i < open.size(); ++i) {
    const Query& q = open[i];
    OpenLoop::Admission a;
    {
      Tracing::Span span(tracing, Layer::kGen, "gen.wait");
      a = loop.admit(offsets[i]);
    }
    Served s;
    {
      Tracing::Span span(tracing, Layer::kCanister, call_span(q.call));
      s = serve(*c, q, addresses[q.address], raw_txs[i % raw_txs.size()], chain, true);
    }
    double done = now_us();
    loop.finish();
    ++r.attempted;
    if (!s.ok) {
      ++r.failed;
      r.fail("open-loop query returned a wrong or non-ok result");
    }
    open_segments.add_latency(open_segments.of(offsets[i], open_s * 1e6), done - a.due_us);
    latency_by[static_cast<int>(q.call)].push_back(done - a.due_us);
    late_us.push_back(a.late_us);
    wait_us.push_back(a.queue_wait_us);
    if (q.call == Call::kGetUtxos) {
      utxos_returned += s.utxos;
      ++utxo_calls;
    }
  }
  tracing.end_window();

  add_standard_e2e(r, setup_s, closed_segments.ops_per_s(), open_segments.latency(kTailLevel));
  r.add_detail("query_rps", query_rps, "1/s");
  r.add_detail("open_loop_rate", kQueryOpenRate, "1/s");
  r.add_summary("closed.service_us", closed_service, "us");
  r.add_summary("get_utxos_us", summarize(latency_by[0]), "us");
  r.add_summary("get_balance_us", summarize(latency_by[1]), "us");
  r.add_summary("send_tx_us", summarize(latency_by[2]), "us");
  r.add_summary("gen.late_us", summarize(late_us), "us");
  r.add_summary("queue_wait_us", summarize(wait_us), "us");
  r.add_detail("canister.utxos_per_response", per(utxos_returned, utxo_calls), "count");
  r.add_detail("stable_utxos", static_cast<double>(c->utxo_count()), "count");

  if (o.trace) {
    add_layer_shares(tracing, r);
    add_canister_layer_metrics(*c, counters, 0, overhead_pct, r);
    r.add_summary("canister.get_utxos_us", summarize(tracing.durations("canister.get_utxos")),
                  "us");
    r.add_summary("canister.get_balance_us",
                  summarize(tracing.durations("canister.get_balance")), "us");
    probe_queries(*c, chain, open, addresses, r);
    write_chrome_trace(tracing, o);
    detach_counters(*c);
  }
  return r;
}

// ---------------------------------------------------------------------------
// ingest_mainnet and reads_during_ingest
// ---------------------------------------------------------------------------

namespace {

/// Population, 143 warm mainnet-shaped blocks (the steady unstable window),
/// then `stream` measured blocks.
struct IngestChain {
  ChainGen chain;
  std::size_t warm_end = 0;

  IngestChain(std::uint64_t seed, std::size_t stream) : chain(seed) {
    chain.deal_population(PopulationSpec{});
    StreamShape shape;
    for (int i = 0; i < kUnstableWindow; ++i) chain.add_stream_block(shape);
    warm_end = chain.size();
    for (std::size_t i = 0; i < stream; ++i) chain.add_stream_block(shape);
  }
};

/// Parse + process_response of stream block `i`, traced as two layers.
bool ingest_block(BitcoinCanister& c, const ChainGen& chain, std::size_t i, Tracing& tracing) {
  bitcoin::Block block;
  {
    Tracing::Span span(tracing, Layer::kBitcoin, "bitcoin.block_parse");
    block = bitcoin::Block::parse(chain.block_bytes(i));
  }
  Tracing::Span span(tracing, Layer::kCanister, "canister.process_response");
  bitcoin::BlockHeader header = block.header;
  adapter::AdapterResponse response;
  response.blocks.emplace_back(std::move(block), header);
  return c.process_response(response, chain.arrival_time_s(i)).blocks_stored == 1;
}

/// Replays blocks [0, end) into a standalone UtxoIndex; times apply_block of
/// blocks [timed_from, end). Returns the index digest.
util::Hash256 replay_stable(const ChainGen& chain, std::size_t timed_from, std::size_t end,
                            canister::UtxoIndex::ShardConfig config,
                            parallel::ThreadPool* pool, std::vector<double>* apply_us) {
  canister::UtxoIndex index(canister::InstructionCosts{}, config);
  ic::InstructionMeter meter;
  for (std::size_t i = 0; i < end; ++i) {
    bitcoin::Block block = bitcoin::Block::parse(chain.block_bytes(i));
    double t0 = now_us();
    index.apply_block(block, static_cast<int>(i + 1), meter, pool);
    if (apply_us != nullptr && i >= timed_from) apply_us->push_back(now_us() - t0);
  }
  return index.digest();
}

/// Txid cost per transaction: Block::parse hashes each transaction's wire
/// bytes while the txid cache is on, so the cost is the parse time with the
/// cache on minus the parse time with it off. Single-threaded callers only.
double txid_ns_per_tx(const ChainGen& chain, std::size_t from, std::size_t to) {
  auto parse_us = [&](bool cache) {
    bitcoin::Transaction::set_txid_cache_enabled(cache);
    double t0 = now_us();
    for (std::size_t i = from; i < to; ++i) (void)bitcoin::Block::parse(chain.block_bytes(i));
    return now_us() - t0;
  };
  double without = parse_us(false);
  double with = parse_us(true);
  std::size_t txs = 0;
  for (std::size_t i = from; i < to; ++i) {
    txs += bitcoin::Block::parse(chain.block_bytes(i)).transactions.size();
  }
  return (with - without) * 1e3 / static_cast<double>(txs);
}

}  // namespace

Result run_ingest_mainnet(const Options& o) {
  Result r;
  Tracing tracing(false);
  // ~115 blocks/s on the reference host; the run also stops on the clock.
  auto stream = static_cast<std::size_t>(o.seconds * 120);
  IngestChain in(o.seed, stream);
  const ChainGen& chain = in.chain;

  std::unique_ptr<BitcoinCanister> c;
  double setup_s = set_up(chain, in.warm_end, c, r, kIngestHostSensitivity);
  Counters counters;
  if (o.trace) attach_counters(*c, counters);
  int anchor_before = c->anchor_height();

  std::vector<double> block_us;
  double busy_us = 0;
  std::size_t next = in.warm_end;
  Segments segments(kSegments, kIngestHostSensitivity);
  HostProbe probe;
  auto ingest = [&](std::size_t end, double seconds) {
    double start = now_us();
    double deadline = start + seconds * 1e6;
    double t0 = start;
    for (; next < end && t0 < deadline; ++next) {
      bool ok = ingest_block(*c, chain, next, tracing);
      double t1 = now_us();
      block_us.push_back(t1 - t0);
      busy_us += t1 - t0;
      std::size_t segment = segments.of(t0 - start, seconds * 1e6);
      segments.add_work(segment, 1, t1 - t0);
      segments.add_latency(segment, t1 - t0);
      ++r.attempted;
      if (!ok) {
        ++r.failed;
        r.fail("stream block refused");
      }
      if (r.attempted % kProbeEveryBlocks == 0) {
        Tracing::Span span(tracing, Layer::kGen, "gen.host_probe");
        segments.add_probe(segment, probe.sample());
        span.end();
        t1 = now_us();
      }
      t0 = t1;
    }
  };

  double overhead_pct = 0;
  std::uint64_t window_blocks_stable = 0;
  int window_anchor = anchor_before;
  if (o.trace) {
    std::size_t half = in.warm_end + stream / 2;
    ingest(half, o.seconds / 2);
    double untraced_rate = static_cast<double>(block_us.size()) / (busy_us / 1e6);
    block_us.clear();
    busy_us = 0;
    tracing.enable();
    window_anchor = c->anchor_height();
    std::uint64_t tasks_before = counters.get("pool.tasks_executed");
    std::uint64_t runs_before = counters.get("pool.runs");
    std::uint64_t inserts_before = counters.get("utxo.inserts");
    std::uint64_t removes_before = counters.get("utxo.removes");
    tracing.begin_window();
    ingest(chain.size(), o.seconds / 2);
    tracing.end_window();
    double traced_rate = static_cast<double>(block_us.size()) / (busy_us / 1e6);
    overhead_pct = 100.0 * (untraced_rate / traced_rate - 1.0);
    window_blocks_stable = static_cast<std::uint64_t>(c->anchor_height() - window_anchor);
    std::uint64_t blocks = block_us.size();
    r.add_detail("utxo.inserts_per_block",
                 per(counters.get("utxo.inserts") - inserts_before, window_blocks_stable),
                 "count");
    r.add_detail("utxo.removes_per_block",
                 per(counters.get("utxo.removes") - removes_before, window_blocks_stable),
                 "count");
    r.add_detail("pool.tasks_per_block_window",
                 per(counters.get("pool.tasks_executed") - tasks_before, blocks), "count");
    r.add_detail("pool.runs_per_block", per(counters.get("pool.runs") - runs_before, blocks),
                 "count");
  } else {
    ingest(chain.size(), o.seconds);
  }
  check_stable_count(*c, chain, r, "after the stream");
  if (c->unstable_block_count() != static_cast<std::size_t>(kUnstableWindow)) {
    r.fail("unstable window drifted to " + std::to_string(c->unstable_block_count()));
  }

  Summary block = summarize(block_us, 99);
  double blocks_per_s = static_cast<double>(block_us.size()) / (busy_us / 1e6);
  add_standard_e2e(r, setup_s, segments.ops_per_s(), segments.latency(kTailLevel));
  r.add_detail("host.slowness", segments.slowness(), "x");
  r.add_detail("ingest_blocks_per_s", blocks_per_s, "1/s");
  r.add_detail("ingest_block_p50_ms", block.p50 / 1e3, "ms");
  r.add_detail("ingest_block_p99_ms", block.tail / 1e3, "ms");
  r.add_detail("blocks_ingested", static_cast<double>(r.attempted), "count");
  r.add_detail("blocks_stabilized", static_cast<double>(c->anchor_height() - anchor_before),
               "count");
  std::size_t inputs = 0, outputs = 0;
  for (std::size_t i = in.warm_end; i < next; ++i) {
    inputs += chain.inputs(i);
    outputs += chain.outputs(i);
  }
  r.add_detail("inputs_per_block", per(inputs, next - in.warm_end), "count");
  r.add_detail("outputs_per_block", per(outputs, next - in.warm_end), "count");

  if (o.trace) {
    add_layer_shares(tracing, r);
    add_canister_layer_metrics(*c, counters, r.attempted, overhead_pct, r);
    r.add_summary("bitcoin.block_parse_us", summarize(tracing.durations("bitcoin.block_parse")),
                  "us");
    r.add_summary("canister.process_response_us",
                  summarize(tracing.durations("canister.process_response")), "us");
    const obs::Histogram& build = counters.registry.histogram("canister.delta.build_us");
    r.add_detail("canister.delta.build_us_p50", build.quantile(0.5), "us");
    r.add_detail("bitcoin.txid_ns_per_tx", txid_ns_per_tx(chain, in.warm_end, in.warm_end + 20),
                 "ns");
    detach_counters(*c);
    write_chrome_trace(tracing, o);

    // The stable set, replayed: shard-parallel with the canister's shard
    // config and pool (timing the window's stabilized blocks), then serially
    // at one shard without a pool. Both digests must equal the canister's.
    auto end = static_cast<std::size_t>(c->anchor_height());
    auto from = static_cast<std::size_t>(window_anchor);
    canister::UtxoIndex::ShardConfig sharded;
    sharded.shards = c->config().utxo_shards;
    sharded.snapshot_reads = c->config().utxo_snapshot_reads;
    sharded.backend = c->config().utxo_backend;
    std::vector<double> apply_us;
    util::Hash256 digest = c->utxo_digest();
    if (replay_stable(chain, from, end, sharded, parallel::shared_pool(), &apply_us) != digest) {
      r.fail("sharded replay digest differs from the canister's");
    }
    if (replay_stable(chain, end, end, canister::UtxoIndex::ShardConfig{}, nullptr, nullptr) !=
        digest) {
      r.fail("serial 1-shard replay digest differs from the canister's");
    }
    r.add_summary("utxo.apply_block_us", summarize(apply_us), "us");
  }
  return r;
}

Result run_reads_during_ingest(const Options& o) {
  Result r;
  Tracing tracing(false);
  auto blocks = static_cast<std::size_t>(o.seconds * 1e6 / kBlockIntervalUs);
  IngestChain in(o.seed, blocks);
  const ChainGen& chain = in.chain;

  util::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 29);
  Zipf zipf(chain.population_size(), 0.99);
  std::vector<std::string> addresses(chain.population_size());
  // One timeline: block i is due at (i + 0.5) intervals; reads are Poisson.
  struct Event {
    double offset_us;
    bool block;
    Query query;
  };
  std::vector<Event> events;
  auto offsets = poisson_offsets(kReadRate, o.seconds, rng);
  auto queries = make_queries(chain, zipf, rng, offsets.size(), addresses);
  for (std::size_t i = 0; i < offsets.size(); ++i) events.push_back({offsets[i], false, queries[i]});
  for (std::size_t b = 0; b < blocks; ++b) {
    events.push_back({(static_cast<double>(b) + 0.5) * kBlockIntervalUs, true, {}});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.offset_us < b.offset_us; });
  auto raw_txs = make_raw_transactions(64, rng);

  std::unique_ptr<BitcoinCanister> c;
  double setup_s = set_up(chain, in.warm_end, c, r);
  Counters counters;
  if (o.trace) attach_counters(*c, counters);

  std::vector<double> reads_us, by_call[3], block_us, first_read_us, steady_us, late_us, wait_us;
  std::size_t next_block = in.warm_end;
  std::size_t balance_calls = 0;
  std::size_t untraced_steady = 0;  // steady reads served before tracing began
  Segments segments(kSegments);
  OpenLoop loop;
  loop.start();
  bool first_read_pending = false;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (o.trace && !tracing.enabled() && events[e].offset_us >= o.seconds * 1e6 / 2) {
      // Second half traced; the first half's steady reads are the untraced base.
      untraced_steady = steady_us.size();
      tracing.enable();
      tracing.begin_window();
    }
    const Event& ev = events[e];
    OpenLoop::Admission a;
    {
      Tracing::Span span(tracing, Layer::kGen, "gen.wait");
      a = loop.admit(ev.offset_us);
    }
    late_us.push_back(a.late_us);
    ++r.attempted;
    std::size_t segment = segments.of(ev.offset_us, o.seconds * 1e6);
    if (ev.block) {
      bool ok = ingest_block(*c, chain, next_block++, tracing);
      double done = now_us();
      loop.finish();
      segments.add_work(segment, 1, done - a.start_us);
      block_us.push_back(done - a.due_us);
      first_read_pending = true;
      if (!ok) {
        ++r.failed;
        r.fail("stream block refused");
      }
      continue;
    }
    wait_us.push_back(a.queue_wait_us);
    const std::string& address = addresses[ev.query.address];
    Served s;
    {
      Tracing::Span span(tracing, Layer::kCanister, call_span(ev.query.call));
      s = serve(*c, ev.query, address, raw_txs[e % raw_txs.size()], chain, false);
    }
    double done = now_us();
    loop.finish();
    segments.add_work(segment, 1, done - a.start_us);
    if (!s.ok) {
      ++r.failed;
      r.fail("query returned a non-ok status");
    }
    by_call[static_cast<int>(ev.query.call)].push_back(done - a.due_us);
    if (ev.query.call == Call::kSendTransaction) continue;
    segments.add_latency(segment, done - a.due_us);
    reads_us.push_back(done - a.due_us);
    (first_read_pending ? first_read_us : steady_us).push_back(done - a.start_us);
    first_read_pending = false;
    if (ev.query.call == Call::kGetBalance && ++balance_calls % kBalanceCheckEvery == 0) {
      double t0 = now_us();
      Tracing::Span span(tracing, Layer::kGen, "gen.check_balance");
      if (!balance_matches_pages(*c, address)) {
        ++r.failed;
        r.fail("balance differs from the sum of its get_utxos pages");
      }
      loop.exclude(now_us() - t0);
    }
  }
  tracing.end_window();
  check_stable_count(*c, chain, r, "after the stream");

  Summary reads = segments.latency(kTailLevel);
  Summary whole_run = summarize(reads_us, 99);
  reads.tail = whole_run.tail;
  reads.tail_level = whole_run.tail_level;
  add_standard_e2e(r, setup_s, segments.ops_per_s(), reads);
  r.add_summary("get_utxos_us", summarize(by_call[0]), "us");
  r.add_summary("get_balance_us", summarize(by_call[1]), "us");
  r.add_summary("ingest_block_us", summarize(block_us), "us");
  r.add_summary("canister.first_read_after_block_us", summarize(first_read_us), "us");
  r.add_summary("canister.read_steady_us", summarize(steady_us), "us");
  r.add_summary("gen.late_us", summarize(late_us), "us");
  r.add_summary("queue_wait_us", summarize(wait_us), "us");
  r.add_detail("read_rate", kReadRate, "1/s");
  r.add_detail("block_interval_ms", kBlockIntervalUs / 1e3, "ms");

  if (o.trace) {
    // Tracing overhead on the steady reads, traced half against untraced half.
    std::vector<double> untraced(steady_us.begin(),
                                 steady_us.begin() + static_cast<std::ptrdiff_t>(untraced_steady));
    std::vector<double> traced(steady_us.begin() + static_cast<std::ptrdiff_t>(untraced_steady),
                               steady_us.end());
    double overhead_pct = 100.0 * (summarize(traced).p50 / summarize(untraced).p50 - 1.0);
    add_layer_shares(tracing, r);
    add_canister_layer_metrics(*c, counters, block_us.size(), overhead_pct, r);
    r.add_summary("canister.process_response_us",
                  summarize(tracing.durations("canister.process_response")), "us");
    detach_counters(*c);
    write_chrome_trace(tracing, o);
  }
  return r;
}

}  // namespace perfbench
