#include "canister/bitcoin_canister.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "bitcoin/script.h"
#include "chain/block_builder.h"
#include "oracles/scan_reads.h"
#include "parallel/thread_pool.h"

namespace icbtc::canister {
namespace {

using bitcoin::Block;
using bitcoin::ChainParams;
using util::Hash256;

// Drives the canister with hand-built blocks: a local header tree mirrors
// what the Bitcoin network would produce so Algorithm 2 can be tested in
// isolation (δ = 6, τ = 2 with regtest params).
class CanisterTest : public ::testing::Test {
 protected:
  CanisterTest()
      : canister_(params_, CanisterConfig::for_params(params_)),
        build_tree_(params_, params_.genesis_header) {}

  util::Hash160 addr_hash(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return h;
  }

  std::string address(std::uint8_t tag) {
    return bitcoin::p2pkh_address(addr_hash(tag), bitcoin::Network::kRegtest);
  }

  util::Bytes script(std::uint8_t tag) { return bitcoin::p2pkh_script(addr_hash(tag)); }

  /// Builds a block on `parent` paying the 50-BTC coinbase to `tag`'s
  /// address, with extra transactions.
  Block make_block(const Hash256& parent, std::uint8_t coinbase_tag,
                   std::vector<bitcoin::Transaction> txs = {}) {
    time_ += 600;
    Block b = chain::build_child_block(build_tree_, parent, time_, script(coinbase_tag),
                                       50 * bitcoin::kCoin, std::move(txs), next_tag_++);
    EXPECT_EQ(build_tree_.accept(b.header, now_s()), chain::AcceptResult::kAccepted);
    return b;
  }

  /// Extends the main chain by `n` blocks paying `tag`; returns the blocks.
  std::vector<Block> extend(int n, std::uint8_t tag = 99) {
    std::vector<Block> blocks;
    for (int i = 0; i < n; ++i) {
      Block b = make_block(tip_, tag);
      tip_ = b.hash();
      blocks.push_back(std::move(b));
    }
    return blocks;
  }

  /// Feeds blocks to the canister as one adapter response.
  BitcoinCanister::ProcessResult feed(const std::vector<Block>& blocks) {
    adapter::AdapterResponse response;
    for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
    return canister_.process_response(response, now_s());
  }

  BitcoinCanister::ProcessResult feed_headers(const std::vector<bitcoin::BlockHeader>& headers) {
    adapter::AdapterResponse response;
    response.next_headers = headers;
    return canister_.process_response(response, now_s());
  }

  std::int64_t now_s() const { return static_cast<std::int64_t>(time_) + 4000; }

  const ChainParams& params_ = ChainParams::regtest();  // δ=6, τ=2
  BitcoinCanister canister_;
  chain::HeaderTree build_tree_;
  Hash256 tip_ = params_.genesis_header.hash();
  std::uint32_t time_ = params_.genesis_header.time;
  std::uint64_t next_tag_ = 1;
};

TEST_F(CanisterTest, InitialState) {
  EXPECT_EQ(canister_.anchor_height(), 0);
  EXPECT_EQ(canister_.tip_height(), 0);
  EXPECT_TRUE(canister_.is_synced());
  EXPECT_EQ(canister_.unstable_block_count(), 0u);
  // The synthetic genesis coinbase pays OP_RETURN: stable set empty.
  EXPECT_EQ(canister_.utxo_count(), 0u);
}

TEST_F(CanisterTest, BlocksAccumulateAsUnstable) {
  feed(extend(3));
  EXPECT_EQ(canister_.tip_height(), 3);
  EXPECT_EQ(canister_.anchor_height(), 0);  // below δ=6
  EXPECT_EQ(canister_.unstable_block_count(), 3u);
}

TEST_F(CanisterTest, AnchorAdvancesAtDelta) {
  // With constant difficulty, the block at height 1 becomes δ-stable once
  // d_w covers δ blocks: after 6 blocks anchor=1, after 10 anchor=4.
  feed(extend(6));
  EXPECT_EQ(canister_.anchor_height(), 1);
  feed(extend(4));
  EXPECT_EQ(canister_.anchor_height(), 5);
  EXPECT_EQ(canister_.unstable_block_count(),
            static_cast<std::size_t>(canister_.tip_height() - canister_.anchor_height()));
}

TEST_F(CanisterTest, StableBlocksMigrateToUtxoSet) {
  feed(extend(7, /*tag=*/1));  // anchor reaches height 2
  EXPECT_EQ(canister_.anchor_height(), 2);
  // Heights 1 and 2 migrated: two coinbases in the stable set.
  EXPECT_EQ(canister_.utxo_count(), 2u);
  // Total balance visible = all 7 coinbases (stable + unstable).
  auto balance = canister_.get_balance(address(1));
  ASSERT_TRUE(balance.ok());
  EXPECT_EQ(balance.value, 7 * 50 * bitcoin::kCoin);
}

TEST_F(CanisterTest, IngestLogRecordsStableBlocks) {
  feed(extend(8, 1));
  ASSERT_EQ(canister_.ingest_log().size(), 3u);  // anchor 0 -> 3
  for (const auto& stats : canister_.ingest_log()) {
    EXPECT_EQ(stats.transactions, 1u);        // coinbase only
    EXPECT_EQ(stats.outputs_inserted, 1u);
    EXPECT_EQ(stats.inputs_removed, 0u);
    EXPECT_GT(stats.instructions, 0u);
    EXPECT_GT(stats.insert_instructions, 0u);
  }
}

TEST_F(CanisterTest, ArchivedHeadersGrowWithAnchor) {
  std::size_t initial = canister_.archived_headers();  // genesis
  feed(extend(9));
  EXPECT_EQ(canister_.archived_headers(), initial + 4);  // anchors 1..4... advanced to 4
}

TEST_F(CanisterTest, ConfirmationFilter) {
  feed(extend(4, 1));
  // Tip block (height 4) has 1 confirmation; height 1 has 4.
  auto all = canister_.get_balance(address(1), 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value, 4 * 50 * bitcoin::kCoin);
  auto conf2 = canister_.get_balance(address(1), 2);
  ASSERT_TRUE(conf2.ok());
  EXPECT_EQ(conf2.value, 3 * 50 * bitcoin::kCoin);
  auto conf4 = canister_.get_balance(address(1), 4);
  ASSERT_TRUE(conf4.ok());
  EXPECT_EQ(conf4.value, 1 * 50 * bitcoin::kCoin);
}

TEST_F(CanisterTest, MinConfirmationsAboveDeltaRejected) {
  feed(extend(3));
  auto outcome = canister_.get_balance(address(1), params_.stability_delta + 1);
  EXPECT_EQ(outcome.status, Status::kMinConfirmationsTooLarge);
  GetUtxosRequest request;
  request.address = address(1);
  request.min_confirmations = params_.stability_delta + 1;
  EXPECT_EQ(canister_.get_utxos(request).status, Status::kMinConfirmationsTooLarge);
}

TEST_F(CanisterTest, BadAddressRejected) {
  EXPECT_EQ(canister_.get_balance("garbage").status, Status::kBadAddress);
  // Mainnet address on regtest canister:
  EXPECT_EQ(canister_.get_balance(bitcoin::p2pkh_address(addr_hash(1),
                                                         bitcoin::Network::kMainnet))
                .status,
            Status::kBadAddress);
}

TEST_F(CanisterTest, SyncGateBlocksWhenHeadersOutrunBlocks) {
  auto blocks = extend(6);
  // Deliver only headers: tree grows, no blocks -> out of sync beyond τ=2.
  std::vector<bitcoin::BlockHeader> headers;
  for (const auto& b : blocks) headers.push_back(b.header);
  feed_headers(headers);
  EXPECT_FALSE(canister_.is_synced());
  EXPECT_EQ(canister_.get_balance(address(1)).status, Status::kNotSynced);
  GetUtxosRequest request;
  request.address = address(1);
  EXPECT_EQ(canister_.get_utxos(request).status, Status::kNotSynced);
  // Delivering the blocks restores service.
  feed(blocks);
  EXPECT_TRUE(canister_.is_synced());
  EXPECT_TRUE(canister_.get_balance(address(1)).ok());
}

TEST_F(CanisterTest, SyncGateTolerance) {
  auto blocks = extend(6);
  std::vector<bitcoin::BlockHeader> headers;
  for (const auto& b : blocks) headers.push_back(b.header);
  // Deliver all blocks but the last two: exactly τ=2 behind -> still synced.
  feed(std::vector<Block>(blocks.begin(), blocks.end() - 2));
  feed_headers({headers.end() - 2, headers.end()});
  EXPECT_TRUE(canister_.is_synced());
  // One more header pushes it over.
  auto extra = extend(1);
  feed_headers({extra[0].header});
  EXPECT_FALSE(canister_.is_synced());
}

TEST_F(CanisterTest, SpendMovesBalanceBetweenAddresses) {
  auto funding = extend(1, /*tag=*/1);
  feed(funding);
  // Spend address 1's coinbase to address 2 in the next block.
  bitcoin::Transaction spend;
  bitcoin::TxIn in;
  in.prevout = bitcoin::OutPoint{funding[0].transactions[0].txid(), 0};
  spend.inputs.push_back(in);
  spend.outputs.push_back(bitcoin::TxOut{30 * bitcoin::kCoin, script(2)});
  spend.outputs.push_back(bitcoin::TxOut{20 * bitcoin::kCoin, script(1)});  // change
  Block b = make_block(tip_, 99, {spend});
  tip_ = b.hash();
  feed({b});

  EXPECT_EQ(canister_.get_balance(address(1)).value, 20 * bitcoin::kCoin);
  EXPECT_EQ(canister_.get_balance(address(2)).value, 30 * bitcoin::kCoin);
}

TEST_F(CanisterTest, SpendOfStableUtxoVisibleWhileUnstable) {
  // Fund address 1, make the funding block stable, then spend it in an
  // unstable block: the stable UTXO must disappear from responses.
  auto funding = extend(1, 1);
  feed(funding);
  feed(extend(7, 99));  // funding block is now below the anchor
  ASSERT_GE(canister_.anchor_height(), 1);
  EXPECT_EQ(canister_.get_balance(address(1)).value, 50 * bitcoin::kCoin);

  bitcoin::Transaction spend;
  bitcoin::TxIn in;
  in.prevout = bitcoin::OutPoint{funding[0].transactions[0].txid(), 0};
  spend.inputs.push_back(in);
  spend.outputs.push_back(bitcoin::TxOut{49 * bitcoin::kCoin, script(2)});
  Block b = make_block(tip_, 99, {spend});
  tip_ = b.hash();
  feed({b});

  EXPECT_EQ(canister_.get_balance(address(1)).value, 0);
  EXPECT_EQ(canister_.get_balance(address(2)).value, 49 * bitcoin::kCoin);
}

TEST_F(CanisterTest, GetUtxosResponseShape) {
  feed(extend(3, 1));
  GetUtxosRequest request;
  request.address = address(1);
  auto outcome = canister_.get_utxos(request);
  ASSERT_TRUE(outcome.ok());
  const auto& response = outcome.value;
  EXPECT_EQ(response.utxos.size(), 3u);
  EXPECT_EQ(response.tip_height, 3);
  EXPECT_EQ(response.tip_hash, tip_);
  EXPECT_FALSE(response.next_page.has_value());
  // Sorted by height descending.
  EXPECT_EQ(response.utxos[0].height, 3);
  EXPECT_EQ(response.utxos[2].height, 1);
  for (const auto& u : response.utxos) EXPECT_EQ(u.value, 50 * bitcoin::kCoin);
}

TEST_F(CanisterTest, GetUtxosWithConfirmationsReportsOlderTip) {
  feed(extend(5, 1));
  GetUtxosRequest request;
  request.address = address(1);
  request.min_confirmations = 3;
  auto outcome = canister_.get_utxos(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value.tip_height, 3);  // height 3 has exactly 3 confs
  EXPECT_EQ(outcome.value.utxos.size(), 3u);
}

TEST_F(CanisterTest, Pagination) {
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.utxos_per_page = 2;
  BitcoinCanister paged(params_, config);
  // Fund the same address in 5 blocks.
  auto blocks = extend(5, 1);
  adapter::AdapterResponse response;
  for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
  paged.process_response(response, now_s());

  GetUtxosRequest request;
  request.address = address(1);
  std::vector<Utxo> collected;
  int pages = 0;
  for (;;) {
    auto outcome = paged.get_utxos(request);
    ASSERT_TRUE(outcome.ok());
    ++pages;
    collected.insert(collected.end(), outcome.value.utxos.begin(), outcome.value.utxos.end());
    if (!outcome.value.next_page) break;
    request.page = outcome.value.next_page;
  }
  EXPECT_EQ(pages, 3);
  EXPECT_EQ(collected.size(), 5u);
  for (std::size_t i = 1; i < collected.size(); ++i) {
    EXPECT_GE(collected[i - 1].height, collected[i].height);
  }
}

TEST_F(CanisterTest, PaginationMetersOnlyReturnedStableUtxos) {
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.utxos_per_page = 2;
  BitcoinCanister paged(params_, config);
  // 5 blocks fund address(1); 10 more on top push them below the anchor so
  // the pages are served from the stable index.
  auto blocks = extend(5, 1);
  auto filler = extend(10, 2);
  adapter::AdapterResponse response;
  for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
  for (const auto& b : filler) response.blocks.emplace_back(b, b.header);
  paged.process_response(response, now_s());
  ASSERT_GE(paged.utxo_count(), 5u);

  // Fixed per-request overhead (request charge + unstable-block scans),
  // measured on an address with no UTXOs anywhere.
  GetUtxosRequest empty_request;
  empty_request.address = address(7);
  ic::InstructionMeter::Segment fixed_segment(paged.meter());
  ASSERT_TRUE(paged.get_utxos(empty_request).ok());
  const std::uint64_t fixed = fixed_segment.sample();

  // Each page must charge stable_utxo_read only for the UTXOs it returns,
  // not for the address's full stable list (the pre-pagination behavior).
  GetUtxosRequest request;
  request.address = address(1);
  std::size_t total_entries = 0;
  std::uint64_t total_read_charges = 0;
  int pages = 0;
  for (;;) {
    ic::InstructionMeter::Segment segment(paged.meter());
    auto outcome = paged.get_utxos(request);
    ASSERT_TRUE(outcome.ok());
    const std::uint64_t delta = segment.sample();
    EXPECT_EQ(delta - fixed, outcome.value.utxos.size() * config.costs.stable_utxo_read)
        << "page " << pages;
    total_entries += outcome.value.utxos.size();
    total_read_charges += delta - fixed;
    ++pages;
    if (!outcome.value.next_page) break;
    request.page = outcome.value.next_page;
  }
  EXPECT_EQ(pages, 3);
  EXPECT_EQ(total_entries, 5u);
  // Across the whole walk, every returned UTXO was metered exactly once.
  EXPECT_EQ(total_read_charges, 5u * config.costs.stable_utxo_read);
}

TEST_F(CanisterTest, BadPageRejected) {
  feed(extend(2, 1));
  GetUtxosRequest request;
  request.address = address(1);
  request.page = util::Bytes{1, 2, 3};  // wrong length
  EXPECT_EQ(canister_.get_utxos(request).status, Status::kBadPage);
  util::ByteWriter w;
  w.u64le(999);  // a bare offset is not a valid token (no tip hash)
  request.page = w.data();
  EXPECT_EQ(canister_.get_utxos(request).status, Status::kBadPage);
  // Well-formed token bound to the right tip, but offset beyond the set.
  util::ByteWriter w2;
  w2.bytes(tip_.span());
  w2.u64le(999);
  request.page = w2.data();
  EXPECT_EQ(canister_.get_utxos(request).status, Status::kBadPage);
}

TEST_F(CanisterTest, PageTokenInvalidatedByNewBlock) {
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.utxos_per_page = 2;
  BitcoinCanister paged(params_, config);
  auto blocks = extend(5, 1);
  adapter::AdapterResponse response;
  for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
  paged.process_response(response, now_s());

  GetUtxosRequest request;
  request.address = address(1);
  auto first = paged.get_utxos(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value.next_page.has_value());

  // A block arrives mid-pagination: the considered tip moves, so offsets
  // into the rebuilt UTXO list no longer line up. The stale token must be
  // rejected instead of silently skipping or duplicating UTXOs.
  Block extra = make_block(tip_, 1);
  tip_ = extra.hash();
  adapter::AdapterResponse more;
  more.blocks.emplace_back(extra, extra.header);
  paged.process_response(more, now_s());

  request.page = first.value.next_page;
  EXPECT_EQ(paged.get_utxos(request).status, Status::kBadPage);

  // Restarting from the first page works and binds to the new tip.
  request.page.reset();
  auto restart = paged.get_utxos(request);
  ASSERT_TRUE(restart.ok());
  EXPECT_EQ(restart.value.tip_hash, tip_);
}

TEST_F(CanisterTest, PageTokenInvalidatedByReorg) {
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.utxos_per_page = 1;
  BitcoinCanister paged(params_, config);
  auto blocks = extend(2, 1);
  adapter::AdapterResponse response;
  for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
  paged.process_response(response, now_s());

  GetUtxosRequest request;
  request.address = address(1);
  auto first = paged.get_utxos(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value.next_page.has_value());

  // A heavier fork replaces the tip the token was minted against.
  Hash256 fork_point = blocks[0].hash();
  Block fork1 = make_block(fork_point, 1);
  Block fork2 = make_block(fork1.hash(), 1);
  adapter::AdapterResponse fork_response;
  fork_response.blocks.emplace_back(fork1, fork1.header);
  fork_response.blocks.emplace_back(fork2, fork2.header);
  paged.process_response(fork_response, now_s());

  request.page = first.value.next_page;
  EXPECT_EQ(paged.get_utxos(request).status, Status::kBadPage);
}

TEST_F(CanisterTest, ForkResolutionFollowsHeavierChain) {
  feed(extend(2, 1));
  Hash256 fork_point = tip_;
  // Short fork paying address 3.
  Block fork1 = make_block(fork_point, 3);
  feed({fork1});
  // Main chain continues paying address 1.
  Block main1 = make_block(fork_point, 1);
  Block main2 = make_block(main1.hash(), 1);
  tip_ = main2.hash();
  feed({main1, main2});
  // The heavier chain wins: address 3's fork coinbase is not in the view.
  EXPECT_EQ(canister_.get_balance(address(3)).value, 0);
  EXPECT_EQ(canister_.get_balance(address(1)).value, 4 * 50 * bitcoin::kCoin);
  EXPECT_EQ(canister_.tip_height(), 4);
}

TEST_F(CanisterTest, ReorgAboveAnchorHandledAutomatically) {
  feed(extend(2, 1));
  Hash256 fork_point = tip_;
  Block a1 = make_block(fork_point, 4);
  feed({a1});
  EXPECT_EQ(canister_.get_balance(address(4)).value, 50 * bitcoin::kCoin);
  // A longer fork from the same point displaces a1 (§III-C: reorgs above
  // the anchor are handled automatically).
  Block b1 = make_block(fork_point, 5);
  Block b2 = make_block(b1.hash(), 5);
  tip_ = b2.hash();
  feed({b1, b2});
  EXPECT_EQ(canister_.get_balance(address(4)).value, 0);
  EXPECT_EQ(canister_.get_balance(address(5)).value, 2 * 50 * bitcoin::kCoin);
}

TEST_F(CanisterTest, AnchorAdvancePrunesForks) {
  feed(extend(1, 1));
  Hash256 fork_point = params_.genesis_header.hash();
  Block fork = make_block(fork_point, 6);
  feed({fork});
  EXPECT_EQ(canister_.unstable_block_count(), 2u);
  // Extend main chain until the height-1 block is stable; the fork dies.
  feed(extend(7, 1));
  EXPECT_GE(canister_.anchor_height(), 1);
  EXPECT_FALSE(canister_.header_tree().contains(fork.hash()));
  for (const auto& hash : canister_.header_tree().blocks_at_height(1)) {
    EXPECT_NE(hash, fork.hash());
  }
}

TEST_F(CanisterTest, RedeliveredAnchorBlockStaysOutOfTheWindow) {
  // A Byzantine block maker (§IV-A) may re-deliver the anchor's own block.
  // The header tree answers kDuplicate for the root, but the block already
  // left the window: it must get no delta, no processed-list entry and no
  // memory charge.
  auto blocks = extend(8);
  feed(blocks);
  ASSERT_EQ(canister_.anchor_height(), 3);
  const Block& anchor_block = blocks[2];
  ASSERT_EQ(anchor_block.hash(), canister_.header_tree().root_hash());
  std::size_t window = canister_.unstable_block_count();
  auto hashes = canister_.unstable_index().hashes();
  std::uint64_t memory = canister_.memory_bytes();

  EXPECT_EQ(feed({anchor_block}).blocks_stored, 0u);
  EXPECT_EQ(canister_.unstable_block_count(), window);
  EXPECT_EQ(canister_.unstable_index().hashes(), hashes);
  EXPECT_EQ(canister_.memory_bytes(), memory);
  auto processed = canister_.make_request().processed;
  EXPECT_EQ(std::count(processed.begin(), processed.end(), anchor_block.hash()), 0);
}

TEST_F(CanisterTest, InvalidBlocksIgnored) {
  auto blocks = extend(2);
  Block bad = blocks[0];
  bad.transactions.push_back(bad.transactions[0]);  // duplicate coinbase
  adapter::AdapterResponse response;
  response.blocks.emplace_back(bad, bad.header);
  auto result = canister_.process_response(response, now_s());
  EXPECT_EQ(result.blocks_stored, 0u);
  EXPECT_EQ(canister_.tip_height(), 0);
}

TEST_F(CanisterTest, MismatchedHeaderBlockPairIgnored) {
  auto blocks = extend(2);
  adapter::AdapterResponse response;
  response.blocks.emplace_back(blocks[0], blocks[1].header);  // mismatch
  auto result = canister_.process_response(response, now_s());
  EXPECT_EQ(result.blocks_stored, 0u);
}

TEST_F(CanisterTest, SendTransactionValidatesSyntaxOnly) {
  EXPECT_EQ(canister_.send_transaction(util::Bytes{0xde, 0xad}), Status::kMalformedTransaction);
  // Well-formed but unfunded transaction is accepted (no validation, §III-C).
  bitcoin::Transaction tx;
  bitcoin::TxIn in;
  in.prevout.txid.data[0] = 0x77;
  tx.inputs.push_back(in);
  tx.outputs.push_back(bitcoin::TxOut{1000, script(1)});
  EXPECT_EQ(canister_.send_transaction(tx.serialize()), Status::kOk);
  EXPECT_EQ(canister_.pending_transactions(), 1u);
}

TEST_F(CanisterTest, MakeRequestShape) {
  auto blocks = extend(3);
  feed(blocks);
  bitcoin::Transaction tx;
  bitcoin::TxIn in;
  in.prevout.txid.data[0] = 1;
  tx.inputs.push_back(in);
  tx.outputs.push_back(bitcoin::TxOut{5, script(1)});
  canister_.send_transaction(tx.serialize());

  auto request = canister_.make_request();
  EXPECT_EQ(request.anchor, canister_.anchor_hash());
  EXPECT_EQ(request.processed.size(), 3u);  // A = unstable blocks we hold
  EXPECT_EQ(request.transactions.size(), 1u);
  EXPECT_EQ(canister_.pending_transactions(), 0u);  // drained
}

TEST_F(CanisterTest, MemoryAccountingMoves) {
  auto before = canister_.memory_bytes();
  feed(extend(8, 1));
  EXPECT_GT(canister_.memory_bytes(), before);
  EXPECT_GT(canister_.utxo_count(), 0u);
}

TEST_F(CanisterTest, MeterChargesForReads) {
  feed(extend(3, 1));
  auto before = canister_.meter().count();
  canister_.get_balance(address(1));
  EXPECT_GT(canister_.meter().count(), before);
}

// ---------------------------------------------------------------------------
// One shared block: the unstable window holds the very block the adapter
// response delivered, never a copy, and lets go of it when the anchor
// passes it.

class BlockSharingTest : public CanisterTest {};

TEST_F(BlockSharingTest, WindowSharesResponseBlockUntilAnchorPasses) {
  adapter::AdapterResponse response;
  for (const auto& b : extend(1, 1)) response.blocks.emplace_back(b, b.header);
  canister_.process_response(response, now_s());
  const std::shared_ptr<const Block>& block = response.blocks[0].block;
  EXPECT_EQ(block.use_count(), 2);  // the response and the unstable window
  feed(extend(4));
  EXPECT_EQ(canister_.anchor_height(), 0);
  EXPECT_EQ(block.use_count(), 2);
  feed(extend(1));  // six blocks: height 1 is δ-stable
  ASSERT_EQ(canister_.anchor_height(), 1);
  EXPECT_EQ(block.use_count(), 1);
  EXPECT_EQ(canister_.get_balance(address(1)).value, 50 * bitcoin::kCoin);
}

TEST_F(BlockSharingTest, ShardTwinsShareOneBlockAndAgreeWithScanOracle) {
  // One response, parsed from wire bytes with the shared pool installed (a
  // block of 151 transactions hashes its txids there, and 4-shard apply runs
  // there), feeds twins at 1 and 4 shards: each keeps the same unstable
  // block objects, and both serve the scan oracle's answers.
  parallel::set_shared_pool(3);
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.utxo_shards = 1;
  BitcoinCanister unsharded(params_, config);
  config.utxo_shards = 4;
  BitcoinCanister sharded(params_, config);

  auto spend = [](const bitcoin::Transaction& parent, std::uint32_t vout, bitcoin::Amount value,
                  util::Bytes to) {
    bitcoin::Transaction tx;
    tx.inputs.push_back(bitcoin::TxIn{bitcoin::OutPoint{parent.txid(), vout}, {}, 0xffffffff});
    tx.outputs.push_back(bitcoin::TxOut{value, std::move(to)});
    return tx;
  };
  auto add = [&](std::vector<bitcoin::Transaction> txs) {
    Block b = make_block(tip_, 99, std::move(txs));
    tip_ = b.hash();
    return b;
  };
  std::vector<Block> blocks = extend(1, 1);
  bitcoin::Transaction split;
  split.inputs.push_back(
      bitcoin::TxIn{bitcoin::OutPoint{blocks[0].transactions[0].txid(), 0}, {}, 0xffffffff});
  for (int i = 0; i < 150; ++i) {
    split.outputs.push_back(
        bitcoin::TxOut{bitcoin::kCoin / 4, script(static_cast<std::uint8_t>(10 + i % 5))});
  }
  blocks.push_back(add({split}));
  std::vector<bitcoin::Transaction> spends;
  for (std::uint32_t v = 0; v < 150; ++v) {
    spends.push_back(spend(split, v, bitcoin::kCoin / 4 - 1000 * (v + 1),
                           script(static_cast<std::uint8_t>(20 + v % 3))));
  }
  blocks.push_back(add(spends));
  blocks.push_back(
      add({spend(spends[0], 0, 1000, script(30)), spend(spends[1], 0, 2000, script(30))}));
  for (const auto& b : extend(3)) blocks.push_back(b);  // seven blocks: anchor at 2

  adapter::AdapterResponse response;
  for (const auto& b : blocks) {
    response.blocks.emplace_back(Block::parse(b.serialize()), b.header);
  }
  unsharded.process_response(response, now_s());
  sharded.process_response(response, now_s());
  ASSERT_EQ(unsharded.anchor_height(), 2);
  ASSERT_EQ(sharded.anchor_height(), 2);
  for (std::size_t i = 0; i < response.blocks.size(); ++i) {
    // Heights 1 and 2 are stable and released; the rest sit in both windows.
    EXPECT_EQ(response.blocks[i].block.use_count(), i < 2 ? 1 : 3) << "height " << i + 1;
  }

  EXPECT_EQ(unsharded.utxo_digest(), sharded.utxo_digest());
  for (std::uint8_t tag : {1, 10, 11, 12, 13, 14, 20, 21, 22, 30, 99}) {
    SCOPED_TRACE(static_cast<int>(tag));
    GetUtxosRequest request;
    request.address = address(tag);
    for (BitcoinCanister* twin : {&unsharded, &sharded}) {
      ic::InstructionMeter::Segment utxos_cost(twin->meter());
      auto got = twin->get_utxos(request);
      std::uint64_t charged = utxos_cost.sample();
      ic::InstructionMeter oracle_meter;
      auto want = oracles::scan_get_utxos(*twin, request, oracle_meter);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value.utxos, want.value.utxos);
      EXPECT_EQ(got.value.tip_hash, want.value.tip_hash);
      EXPECT_EQ(got.value.next_page, want.value.next_page);
      EXPECT_EQ(charged, oracle_meter.count());

      ic::InstructionMeter::Segment balance_cost(twin->meter());
      auto balance = twin->get_balance(address(tag));
      charged = balance_cost.sample();
      oracle_meter.reset();
      EXPECT_EQ(balance.value,
                oracles::scan_get_balance(*twin, address(tag), 0, oracle_meter).value);
      EXPECT_EQ(charged, oracle_meter.count());
    }
  }
  auto fees = unsharded.get_current_fee_percentiles();
  ASSERT_TRUE(fees.ok());
  EXPECT_EQ(fees.value.size(), 101u);
  EXPECT_EQ(fees.value, sharded.get_current_fee_percentiles().value);
  EXPECT_EQ(unsharded.meter().count(), sharded.meter().count());
  parallel::set_shared_pool(0);
}

}  // namespace
}  // namespace icbtc::canister
