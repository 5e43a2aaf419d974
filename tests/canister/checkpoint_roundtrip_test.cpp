// Checkpoint/restore at the canister level: the randomized reorg-heavy
// round-trip property (restore at a different shard count AND a different
// backend must reproduce the writer's digest, query responses, and meter
// total, then stay in lockstep), checkpoint canonicality across writer
// configurations, the UTXO section as the digest's preimage, canister-level
// corruption KATs (including non-canonical header, unstable-block and UTXO
// sections), and the pinning tests for the arena-accurate `utxo.shard.*` /
// `canister.delta.*` gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "chain/block_builder.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "util/rng.h"

namespace icbtc::canister {
namespace {

// Reorg-heavy random chain generator. Blocks are built once and can be fed
// to any number of canisters in identical order — the twin-equality property
// needs the writer and the restored canister to see the same byte stream.
// Roughly a quarter of steps fork off a recent block, and every tenth step
// mines a two-block branch off the best tip's parent, forcing a genuine
// reorg.
struct ForkChain {
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  chain::HeaderTree tree{params, params.genesis_header};
  util::Rng rng;
  std::uint32_t time = params.genesis_header.time;
  std::uint64_t tag = 1;
  std::vector<util::Bytes> scripts;
  std::vector<std::string> addresses;
  std::vector<bitcoin::OutPoint> spendable;
  std::vector<util::Hash256> recent{params.genesis_header.hash()};
  std::vector<bitcoin::Block> history;
  int step_no = 0;

  explicit ForkChain(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < 5; ++i) {
      util::Hash160 h;
      auto bytes = rng.next_bytes(20);
      std::copy(bytes.begin(), bytes.end(), h.data.begin());
      scripts.push_back(bitcoin::p2pkh_script(h));
      addresses.push_back(bitcoin::p2pkh_address(h, params.network));
    }
  }

  bitcoin::Block build_on(const util::Hash256& parent) {
    std::vector<bitcoin::Transaction> txs;
    std::size_t n_tx = 1 + rng.next_below(3);
    for (std::size_t t = 0; t < n_tx; ++t) {
      bitcoin::Transaction tx;
      bitcoin::TxIn in;
      if (!spendable.empty() && rng.chance(0.55)) {
        std::size_t pick = static_cast<std::size_t>(rng.next_below(spendable.size()));
        in.prevout = spendable[pick];
        spendable[pick] = spendable.back();
        spendable.pop_back();
      } else {
        in.prevout.txid = rng.next_hash();
      }
      tx.inputs.push_back(in);
      std::size_t n_out = 1 + rng.next_below(3);
      for (std::size_t o = 0; o < n_out; ++o) {
        tx.outputs.push_back(bitcoin::TxOut{
            static_cast<bitcoin::Amount>(1000 + rng.next_below(50000)),
            scripts[static_cast<std::size_t>(rng.next_below(scripts.size()))]});
      }
      tx.lock_time = static_cast<std::uint32_t>(tag);
      txs.push_back(std::move(tx));
    }
    time += 600;
    auto block = chain::build_child_block(tree, parent, time, scripts[0],
                                          bitcoin::block_subsidy(0), std::move(txs), tag++);
    tree.accept(block.header, static_cast<std::int64_t>(time) + 10000);
    for (const auto& tx : block.transactions) {
      util::Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
        if (!bitcoin::is_op_return(tx.outputs[v].script_pubkey)) {
          spendable.push_back(bitcoin::OutPoint{txid, v});
        }
      }
    }
    recent.push_back(block.hash());
    if (recent.size() > 8) recent.erase(recent.begin());
    history.push_back(block);
    return block;
  }

  /// Generates this step's blocks (1 normally, 2 for a forced reorg) and
  /// returns them in feed order.
  std::vector<bitcoin::Block> step() {
    ++step_no;
    std::vector<bitcoin::Block> out;
    if (step_no % 10 == 0 && tree.best_height() >= 2) {
      // Forced reorg: a two-block branch off the best tip's parent overtakes
      // the current chain by one.
      util::Hash256 parent = tree.find(tree.best_tip())->header.prev_hash;
      auto first = build_on(parent);
      auto second = build_on(first.hash());
      out.push_back(std::move(first));
      out.push_back(std::move(second));
    } else if (rng.chance(0.25) && recent.size() > 2) {
      // Stale fork off a recent (usually non-tip) block.
      out.push_back(build_on(recent[rng.next_below(recent.size() - 1)]));
    } else {
      out.push_back(build_on(tree.best_tip()));
    }
    return out;
  }

  void feed(BitcoinCanister& canister, const bitcoin::Block& block) const {
    adapter::AdapterResponse response;
    response.blocks.emplace_back(block, block.header);
    canister.process_response(response, static_cast<std::int64_t>(time) + 10000);
  }

  void run(BitcoinCanister& canister, int steps) {
    for (int i = 0; i < steps; ++i) {
      for (const auto& block : step()) feed(canister, block);
    }
  }
};

void expect_same_views(ForkChain& chain, BitcoinCanister& a, BitcoinCanister& b) {
  EXPECT_EQ(a.utxo_digest(), b.utxo_digest());
  EXPECT_EQ(a.anchor_height(), b.anchor_height());
  EXPECT_EQ(a.anchor_hash(), b.anchor_hash());
  EXPECT_EQ(a.tip_height(), b.tip_height());
  EXPECT_EQ(a.utxo_count(), b.utxo_count());
  EXPECT_EQ(a.unstable_block_count(), b.unstable_block_count());
  EXPECT_EQ(a.archived_headers(), b.archived_headers());
  EXPECT_EQ(a.pending_transactions(), b.pending_transactions());
  EXPECT_EQ(a.header_tree().best_tip(), b.header_tree().best_tip());
  EXPECT_EQ(a.is_synced(), b.is_synced());
  EXPECT_EQ(a.meter().count(), b.meter().count());
  // Archived headers below the anchor plus the current chain above it.
  auto headers_a = a.get_block_headers(0);
  auto headers_b = b.get_block_headers(0);
  EXPECT_EQ(headers_a.status, headers_b.status);
  EXPECT_EQ(headers_a.value.headers, headers_b.value.headers);
  for (const auto& addr : chain.addresses) {
    for (int conf : {0, 2, 6}) {
      EXPECT_EQ(a.get_balance(addr, conf).value, b.get_balance(addr, conf).value)
          << addr << " conf " << conf;
    }
    GetUtxosRequest request;
    request.address = addr;
    auto ra = a.get_utxos(request);
    auto rb = b.get_utxos(request);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra.value.utxos, rb.value.utxos);
    EXPECT_EQ(ra.value.tip_hash, rb.value.tip_hash);
    EXPECT_EQ(ra.value.tip_height, rb.value.tip_height);
  }
  // Queries charge the meter; identical queries must charge identically.
  EXPECT_EQ(a.meter().count(), b.meter().count());
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointRoundTrip, RestoreMatchesNeverStoppedTwin) {
  ForkChain chain(GetParam());
  CanisterConfig writer_config = CanisterConfig::for_params(chain.params);
  writer_config.utxo_shards = 8;
  BitcoinCanister writer(chain.params, writer_config);
  chain.run(writer, 40);
  ASSERT_GT(writer.anchor_height(), 0);  // archived headers and a stable set to restore

  bitcoin::Transaction pending;
  bitcoin::TxIn in;
  in.prevout.txid.data[0] = 0x55;
  pending.inputs.push_back(in);
  pending.outputs.push_back(bitcoin::TxOut{100, chain.scripts[0]});
  ASSERT_EQ(writer.send_transaction(pending.serialize()), Status::kOk);

  util::Bytes checkpoint = writer.write_checkpoint();

  // Restore at a different shard count AND the map backend: the checkpoint
  // is invariant to both, so the restored canister must be observationally
  // identical to the writer that never stopped.
  CanisterConfig restore_config = writer_config;
  restore_config.utxo_shards = 3;
  restore_config.utxo_backend = persist::UtxoBackend::kMap;
  auto restored = BitcoinCanister::from_checkpoint(chain.params, restore_config, checkpoint);
  expect_same_views(chain, writer, restored);

  // Lockstep: both ingest the same reorg-heavy continuation.
  for (int i = 0; i < 15; ++i) {
    for (const auto& block : chain.step()) {
      chain.feed(writer, block);
      chain.feed(restored, block);
    }
  }
  expect_same_views(chain, writer, restored);

  // Second generation: the restored canister's own checkpoint is
  // byte-identical to the writer's despite the different shard count and
  // backend — the stream is a pure function of logical state.
  EXPECT_EQ(writer.write_checkpoint(), restored.write_checkpoint());
}

TEST_P(CheckpointRoundTrip, CheckpointBytesInvariantAcrossWriterConfig) {
  ForkChain chain(GetParam());
  CanisterConfig a_config = CanisterConfig::for_params(chain.params);
  a_config.utxo_shards = 16;
  CanisterConfig b_config = CanisterConfig::for_params(chain.params);
  b_config.utxo_shards = 1;
  b_config.utxo_backend = persist::UtxoBackend::kMap;
  b_config.utxo_snapshot_reads = false;
  BitcoinCanister a(chain.params, a_config);
  BitcoinCanister b(chain.params, b_config);
  for (int i = 0; i < 25; ++i) {
    for (const auto& block : chain.step()) {
      chain.feed(a, block);
      chain.feed(b, block);
    }
  }
  ASSERT_EQ(a.utxo_digest(), b.utxo_digest());
  EXPECT_EQ(a.write_checkpoint(), b.write_checkpoint());
  // And writing twice from the same canister is byte-stable.
  EXPECT_EQ(a.write_checkpoint(), a.write_checkpoint());
}

// Checkpoint section ids (kSecHeaders, kSecUnstableBlocks and kSecUtxos in
// the canister's writer).
constexpr std::uint32_t kHeaderSection = 2;
constexpr std::uint32_t kBlockSection = 3;
constexpr std::uint32_t kUtxoSection = 5;

util::Bytes section(util::ByteSpan checkpoint, std::uint32_t id) {
  util::ByteReader r = persist::CheckpointReader(checkpoint).section(id);
  util::ByteSpan payload = r.bytes(r.remaining());
  return util::Bytes(payload.begin(), payload.end());
}

/// `checkpoint` resealed, with valid CRCs, around `payload` as section `id`.
util::Bytes with_section(util::ByteSpan checkpoint, std::uint32_t id, util::ByteSpan payload) {
  persist::CheckpointReader reader(checkpoint);
  persist::CheckpointWriter writer;
  std::size_t copied = 0;
  for (std::uint32_t s = 1; copied < reader.section_count(); ++s) {
    if (!reader.has_section(s)) continue;
    ++copied;
    util::ByteWriter& w = writer.begin_section(s);
    if (s == id) {
      w.bytes(payload);
      continue;
    }
    util::ByteReader r = reader.section(s);
    w.bytes(r.bytes(r.remaining()));
  }
  return std::move(writer).finish();
}

TEST_P(CheckpointRoundTrip, UtxoDigestHashesTheUtxoSection) {
  // One canonical UTXO encoding serves both: the digest is sha256d of the
  // checkpoint's UTXO section payload, at any writer shard count.
  ForkChain chain(GetParam());
  CanisterConfig config = CanisterConfig::for_params(chain.params);
  config.utxo_shards = 8;
  BitcoinCanister canister(chain.params, config);
  chain.run(canister, 30);
  ASSERT_GT(canister.utxo_count(), 0u);
  EXPECT_EQ(canister.utxo_digest(),
            crypto::sha256d(section(canister.write_checkpoint(), kUtxoSection)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointRoundTrip, ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// Canister-level corruption KATs: every corruption is a typed
// persist::CheckpointError thrown before any canister state exists — there
// is no partially restored canister to observe.

persist::CheckpointError::Code restore_code(const ForkChain& chain, util::ByteSpan file) {
  try {
    auto c = BitcoinCanister::from_checkpoint(chain.params,
                                              CanisterConfig::for_params(chain.params), file);
  } catch (const persist::CheckpointError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected CheckpointError";
  return persist::CheckpointError::Code::kIo;
}

TEST(CheckpointCorruption, CanisterRejectsCorruptStreams) {
  ForkChain chain(7);
  BitcoinCanister writer(chain.params, CanisterConfig::for_params(chain.params));
  chain.run(writer, 15);
  util::Bytes good = writer.write_checkpoint();
  using Code = persist::CheckpointError::Code;

  // Sanity: the pristine stream restores.
  auto restored =
      BitcoinCanister::from_checkpoint(chain.params, CanisterConfig::for_params(chain.params),
                                       good);
  EXPECT_EQ(restored.utxo_digest(), writer.utxo_digest());

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(restore_code(chain, bad_magic), Code::kBadMagic);

  auto bad_version = good;
  bad_version[4] += 1;
  EXPECT_EQ(restore_code(chain, bad_version), Code::kBadVersion);

  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  Code code = restore_code(chain, truncated);
  EXPECT_TRUE(code == Code::kTruncated || code == Code::kCrcMismatch) << to_string(code);

  auto flipped = good;
  flipped[good.size() / 2] ^= 0x01;  // somewhere inside a section payload
  EXPECT_EQ(restore_code(chain, flipped), Code::kCrcMismatch);

  auto trailing = good;
  trailing.push_back(0);
  Code trailing_code = restore_code(chain, trailing);
  EXPECT_TRUE(trailing_code == Code::kTrailingBytes || trailing_code == Code::kCrcMismatch ||
              trailing_code == Code::kTruncated)
      << to_string(trailing_code);
}

struct UtxoRow {
  bitcoin::OutPoint outpoint;
  bitcoin::Amount value = 0;
  int height = 0;
  util::Bytes script;
};

std::vector<UtxoRow> utxo_rows(util::ByteSpan checkpoint) {
  util::Bytes payload = section(checkpoint, kUtxoSection);
  util::ByteReader r(payload);
  std::vector<UtxoRow> rows(r.u64le());
  for (UtxoRow& row : rows) {
    row.outpoint = bitcoin::OutPoint::deserialize(r);
    row.value = r.i64le();
    row.height = r.i32le();
    row.script = r.var_bytes();
  }
  return rows;
}

/// `checkpoint` resealed around `rows` as its UTXO section.
util::Bytes with_utxo_rows(util::ByteSpan checkpoint, const std::vector<UtxoRow>& rows) {
  util::ByteWriter w;
  w.u64le(rows.size());
  for (const UtxoRow& row : rows) {
    row.outpoint.serialize(w);
    w.i64le(row.value);
    w.i32le(row.height);
    w.var_bytes(row.script);
  }
  return with_section(checkpoint, kUtxoSection, std::move(w).take());
}

TEST(CheckpointCorruption, CanisterRejectsNonCanonicalUtxoRows) {
  ForkChain chain(7);
  BitcoinCanister writer(chain.params, CanisterConfig::for_params(chain.params));
  chain.run(writer, 15);
  util::Bytes good = writer.write_checkpoint();
  std::vector<UtxoRow> rows = utxo_rows(good);
  ASSERT_GE(rows.size(), 2u);
  ASSERT_EQ(with_utxo_rows(good, rows), good);  // resealing alone changes nothing

  // The first outpoint again under another script: restored naively, it
  // would sit in two shards and the set would hold one UTXO too many.
  auto other = std::find_if(rows.begin(), rows.end(),
                            [&](const UtxoRow& row) { return row.script != rows[0].script; });
  ASSERT_NE(other, rows.end());
  UtxoRow repeat = rows[0];
  repeat.script = other->script;
  std::vector<UtxoRow> repeated = rows;
  repeated.insert(repeated.begin() + 1, repeat);
  EXPECT_EQ(restore_code(chain, with_utxo_rows(good, repeated)),
            persist::CheckpointError::Code::kMalformed);

  std::vector<UtxoRow> swapped = rows;
  std::swap(swapped[0], swapped[1]);
  EXPECT_EQ(restore_code(chain, with_utxo_rows(good, swapped)),
            persist::CheckpointError::Code::kMalformed);
}

/// The header section's headers (80 bytes each) or the unstable-block
/// section's blocks (var_bytes each), after their varint count.
std::vector<util::Bytes> section_items(util::ByteSpan checkpoint, std::uint32_t id) {
  util::Bytes payload = section(checkpoint, id);
  util::ByteReader r(payload);
  std::vector<util::Bytes> items(r.varint());
  for (util::Bytes& item : items) {
    if (id == kBlockSection) {
      item = r.var_bytes();
    } else {
      util::ByteSpan header = r.bytes(80);
      item.assign(header.begin(), header.end());
    }
  }
  return items;
}

/// `checkpoint` resealed around `items` as section `id` (see section_items).
util::Bytes with_items(util::ByteSpan checkpoint, std::uint32_t id,
                       const std::vector<util::Bytes>& items) {
  util::ByteWriter w;
  w.varint(items.size());
  for (const util::Bytes& item : items) {
    if (id == kBlockSection) {
      w.var_bytes(item);
    } else {
      w.bytes(item);
    }
  }
  return with_section(checkpoint, id, std::move(w).take());
}

TEST(CheckpointCorruption, CanisterRejectsNonCanonicalUnstableBlocks) {
  ForkChain chain(7);
  BitcoinCanister writer(chain.params, CanisterConfig::for_params(chain.params));
  chain.run(writer, 15);
  util::Bytes good = writer.write_checkpoint();
  std::vector<util::Bytes> blocks = section_items(good, kBlockSection);
  ASSERT_EQ(blocks.size(), writer.unstable_block_count());
  ASSERT_GE(blocks.size(), 2u);
  ASSERT_EQ(with_items(good, kBlockSection, blocks), good);  // resealing alone changes nothing

  // Restored naively, a repeated block is skipped and a swapped pair sorted
  // away: the canister would write back other bytes than it read.
  std::vector<util::Bytes> repeated(blocks.size() + 1);
  std::copy(blocks.begin(), blocks.end(), repeated.begin() + 1);
  repeated[0] = blocks[0];
  EXPECT_EQ(restore_code(chain, with_items(good, kBlockSection, repeated)),
            persist::CheckpointError::Code::kMalformed);

  std::vector<util::Bytes> swapped = blocks;
  std::swap(swapped[0], swapped[1]);
  EXPECT_EQ(restore_code(chain, with_items(good, kBlockSection, swapped)),
            persist::CheckpointError::Code::kMalformed);
}

TEST(CheckpointCorruption, CanisterRejectsNonCanonicalHeaders) {
  ForkChain chain(7);
  BitcoinCanister writer(chain.params, CanisterConfig::for_params(chain.params));
  chain.run(writer, 15);
  util::Bytes good = writer.write_checkpoint();
  std::vector<util::Bytes> headers = section_items(good, kHeaderSection);
  ASSERT_GE(headers.size(), 7u);
  ASSERT_EQ(with_items(good, kHeaderSection, headers), good);  // resealing alone changes nothing

  // The writer's order is ascending (height, hash); each swap breaks it.
  for (auto [a, b] : {std::pair{0, 1}, std::pair{3, 4}, std::pair{5, 6}}) {
    SCOPED_TRACE(testing::Message() << "headers " << a << " and " << b << " swapped");
    std::vector<util::Bytes> swapped = headers;
    std::swap(swapped[static_cast<std::size_t>(a)], swapped[static_cast<std::size_t>(b)]);
    EXPECT_EQ(restore_code(chain, with_items(good, kHeaderSection, swapped)),
              persist::CheckpointError::Code::kMalformed);
  }
}

TEST(CheckpointCorruption, FileRoundTripAndMissingFile) {
  ForkChain chain(9);
  BitcoinCanister writer(chain.params, CanisterConfig::for_params(chain.params));
  chain.run(writer, 12);

  std::string path = ::testing::TempDir() + "canister_roundtrip.ckpt";
  writer.checkpoint(path);
  CanisterConfig restore_config = CanisterConfig::for_params(chain.params);
  restore_config.utxo_shards = 2;
  auto restored = BitcoinCanister::restore(chain.params, restore_config, path);
  EXPECT_EQ(restored.utxo_digest(), writer.utxo_digest());

  // Two checkpoint files of the same state are byte-identical (`cmp` gate).
  std::string path2 = ::testing::TempDir() + "canister_roundtrip2.ckpt";
  writer.checkpoint(path2);
  EXPECT_EQ(persist::read_checkpoint_file(path), persist::read_checkpoint_file(path2));

  try {
    auto c = BitcoinCanister::restore(chain.params, restore_config,
                                      ::testing::TempDir() + "no_such_file.ckpt");
    FAIL() << "expected kIo";
  } catch (const persist::CheckpointError& e) {
    EXPECT_EQ(e.code(), persist::CheckpointError::Code::kIo);
  }
}

// ---------------------------------------------------------------------------
// Gauge pinning: the byte gauges must report the backends' exact accounting,
// not estimates — these tests recompute the ground truth independently and
// require equality, so the gauges can't silently regress.

TEST(CheckpointGauges, ShardByteGaugesMatchExactAccounting) {
  ForkChain chain(13);
  CanisterConfig config = CanisterConfig::for_params(chain.params);
  config.utxo_shards = 4;
  BitcoinCanister canister(chain.params, config);
  obs::MetricsRegistry registry;
  canister.set_metrics(&registry);
  chain.run(canister, 20);
  ASSERT_GT(canister.utxo_count(), 0u);

  std::uint64_t live = canister.stable_utxos().live_bytes();
  std::uint64_t resident = canister.stable_utxos().resident_bytes();
  EXPECT_GT(live, 0u);
  EXPECT_GE(resident, live);
  EXPECT_EQ(registry.gauge("utxo.shard.live_bytes").value(),
            static_cast<std::int64_t>(live));
  EXPECT_EQ(registry.gauge("utxo.shard.resident_bytes").value(),
            static_cast<std::int64_t>(resident));
}

TEST(CheckpointGauges, DeltaResidentGaugeMatchesRecomputedFootprints) {
  ForkChain chain(17);
  BitcoinCanister canister(chain.params, CanisterConfig::for_params(chain.params));
  obs::MetricsRegistry registry;
  canister.set_metrics(&registry);
  chain.run(canister, 20);
  ASSERT_GT(canister.unstable_block_count(), 0u);

  // Recompute every live delta's footprint from its actual container shapes
  // and require exact agreement with the incrementally maintained total.
  std::set<std::string> seen;
  std::uint64_t recomputed = 0;
  std::size_t live_deltas = 0;
  for (const auto& block : chain.history) {
    util::Hash256 hash = block.hash();
    if (!seen.insert(hash.hex()).second) continue;
    const BlockDelta* delta = canister.unstable_index().delta(hash);
    if (delta == nullptr) continue;
    ++live_deltas;
    EXPECT_EQ(delta->resident_bytes, delta_resident_bytes(*delta));
    recomputed += delta_resident_bytes(*delta);
  }
  EXPECT_GT(live_deltas, 0u);
  EXPECT_EQ(canister.unstable_index().resident_bytes(), recomputed);
  EXPECT_EQ(registry.gauge("canister.delta.resident_bytes").value(),
            static_cast<std::int64_t>(recomputed));
}

}  // namespace
}  // namespace icbtc::canister
