// Tests for the extended canister API: get_current_fee_percentiles and
// get_block_headers.
#include <gtest/gtest.h>

#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "chain/block_builder.h"

namespace icbtc::canister {
namespace {

using bitcoin::Block;
using bitcoin::ChainParams;
using util::Hash256;

class CanisterApiTest : public ::testing::Test {
 protected:
  CanisterApiTest()
      : canister_(params_, CanisterConfig::for_params(params_)),
        build_tree_(params_, params_.genesis_header) {}

  util::Bytes script(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_script(h);
  }

  Block make_block(std::vector<bitcoin::Transaction> txs) {
    time_ += 600;
    Block b = chain::build_child_block(build_tree_, tip_, time_, script(99),
                                       50 * bitcoin::kCoin, std::move(txs), next_tag_++);
    EXPECT_EQ(build_tree_.accept(b.header, now_s()), chain::AcceptResult::kAccepted);
    tip_ = b.hash();
    return b;
  }

  void feed(const std::vector<Block>& blocks) {
    adapter::AdapterResponse response;
    for (const auto& b : blocks) response.blocks.emplace_back(b, b.header);
    canister_.process_response(response, now_s());
  }

  /// A funding tx with an unresolvable input (the canister cannot price it).
  bitcoin::Transaction unpriceable_tx(std::uint8_t tag) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout.txid.data[0] = tag;
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{100000, script(tag)});
    return tx;
  }

  std::int64_t now_s() const { return static_cast<std::int64_t>(time_) + 4000; }

  const ChainParams& params_ = ChainParams::regtest();
  BitcoinCanister canister_;
  chain::HeaderTree build_tree_;
  Hash256 tip_ = params_.genesis_header.hash();
  std::uint32_t time_ = params_.genesis_header.time;
  std::uint64_t next_tag_ = 1;
};

TEST_F(CanisterApiTest, FeePercentilesEmptyWithoutFeeData) {
  feed({make_block({}), make_block({})});  // coinbase-only blocks
  auto outcome = canister_.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value.empty());
}

TEST_F(CanisterApiTest, FeePercentilesRequireSync) {
  // Headers-only delivery starting at height 1: the tree outruns the
  // available blocks beyond τ, so the canister refuses to serve.
  adapter::AdapterResponse response;
  for (int i = 0; i < 5; ++i) response.next_headers.push_back(make_block({}).header);
  canister_.process_response(response, now_s());
  EXPECT_EQ(canister_.get_current_fee_percentiles().status, Status::kNotSynced);
  EXPECT_EQ(canister_.get_block_headers(0).status, Status::kNotSynced);
}

TEST_F(CanisterApiTest, FeePercentilesFromResolvableSpends) {
  // Block 1 funds outputs; block 2 spends them with varying fees.
  auto funding1 = unpriceable_tx(1);
  auto funding2 = unpriceable_tx(2);
  feed({make_block({funding1, funding2})});

  auto spend = [&](const bitcoin::Transaction& parent, bitcoin::Amount out_value,
                   std::uint8_t tag) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = bitcoin::OutPoint{parent.txid(), 0};
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{out_value, script(tag)});
    return tx;
  };
  // Fees: 100000-90000 = 10000 and 100000-50000 = 50000.
  feed({make_block({spend(funding1, 90000, 11), spend(funding2, 50000, 12)})});

  auto outcome = canister_.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.size(), 101u);
  // Millisat/vbyte: monotone percentiles, spread between the two fee rates.
  EXPECT_LE(outcome.value.front(), outcome.value.back());
  EXPECT_GT(outcome.value.back(), outcome.value.front());
  for (std::size_t i = 1; i < outcome.value.size(); ++i) {
    EXPECT_GE(outcome.value[i], outcome.value[i - 1]);
  }
}

TEST_F(CanisterApiTest, FeePercentilesUseNearestRank) {
  // Two samples with distinct rates. The median's fractional rank is
  // 0.5*(n-1) = 0.5, which nearest-rank rounds UP to the higher sample;
  // truncation would bias it to the lower one.
  auto funding1 = unpriceable_tx(1);
  auto funding2 = unpriceable_tx(2);
  feed({make_block({funding1, funding2})});
  auto spend = [&](const bitcoin::Transaction& parent, bitcoin::Amount out_value,
                   std::uint8_t tag) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = bitcoin::OutPoint{parent.txid(), 0};
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{out_value, script(tag)});
    return tx;
  };
  feed({make_block({spend(funding1, 90000, 11), spend(funding2, 50000, 12)})});

  auto outcome = canister_.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.size(), 101u);
  ASSERT_GT(outcome.value[100], outcome.value[0]);  // two distinct rates
  EXPECT_EQ(outcome.value[49], outcome.value[0]);    // rank 0.49 -> lower
  EXPECT_EQ(outcome.value[50], outcome.value[100]);  // rank 0.50 -> upper
  EXPECT_EQ(outcome.value[51], outcome.value[100]);  // rank 0.51 -> upper
}

TEST_F(CanisterApiTest, FeePercentilesSkipUnresolvableTransactions) {
  // A block containing only unpriceable transactions yields no data.
  feed({make_block({unpriceable_tx(3), unpriceable_tx(4)})});
  auto outcome = canister_.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value.empty());
}

TEST_F(CanisterApiTest, FeeWindowLimitsScan) {
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.fee_window_blocks = 1;
  BitcoinCanister narrow(params_, config);
  auto funding = unpriceable_tx(5);
  auto b1 = make_block({funding});
  bitcoin::Transaction tx;
  bitcoin::TxIn in;
  in.prevout = bitcoin::OutPoint{funding.txid(), 0};
  tx.inputs.push_back(in);
  tx.outputs.push_back(bitcoin::TxOut{90000, script(6)});
  auto b2 = make_block({tx});
  auto b3 = make_block({});  // fee tx now outside the 1-block window
  adapter::AdapterResponse response;
  for (const auto& b : {b1, b2, b3}) response.blocks.emplace_back(b, b.header);
  narrow.process_response(response, now_s());
  auto outcome = narrow.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value.empty());
}

TEST_F(CanisterApiTest, FeeWindowInputResolvesBelowTheWindow) {
  // The only priced transaction sits in the 1-block window and spends an
  // output created two blocks earlier: above the anchor, below the window.
  CanisterConfig config = CanisterConfig::for_params(params_);
  config.fee_window_blocks = 1;
  BitcoinCanister narrow(params_, config);
  auto funding = unpriceable_tx(7);
  bitcoin::Transaction tx;
  bitcoin::TxIn in;
  in.prevout = bitcoin::OutPoint{funding.txid(), 0};
  tx.inputs.push_back(in);
  tx.outputs.push_back(bitcoin::TxOut{90000, script(8)});
  adapter::AdapterResponse response;
  for (const auto& b : {make_block({funding}), make_block({}), make_block({tx})}) {
    response.blocks.emplace_back(b, b.header);
  }
  narrow.process_response(response, now_s());
  ASSERT_EQ(narrow.anchor_height(), 0);
  auto outcome = narrow.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.size(), 101u);
  auto rate = static_cast<std::uint64_t>(10000.0 * 1000.0 / static_cast<double>(tx.size()));
  for (auto p : outcome.value) EXPECT_EQ(p, rate);
}

TEST_F(CanisterApiTest, FeePercentilesWithDuplicatedOutpoint) {
  // The funding tx appears in two blocks, so its outpoint is created twice,
  // and two window transactions in different blocks both spend it: each is
  // priced against the one output value.
  auto funding = unpriceable_tx(9);
  feed({make_block({funding}), make_block({funding})});
  auto spend = [&](bitcoin::Amount out_value, std::uint8_t tag) {
    bitcoin::Transaction tx;
    bitcoin::TxIn in;
    in.prevout = bitcoin::OutPoint{funding.txid(), 0};
    tx.inputs.push_back(in);
    tx.outputs.push_back(bitcoin::TxOut{out_value, script(tag)});
    return tx;
  };
  auto low = spend(90000, 10);   // fee 10000
  auto high = spend(70000, 11);  // fee 30000
  feed({make_block({low}), make_block({high})});
  auto outcome = canister_.get_current_fee_percentiles();
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.size(), 101u);
  EXPECT_EQ(outcome.value[0],
            static_cast<std::uint64_t>(10000.0 * 1000.0 / static_cast<double>(low.size())));
  EXPECT_EQ(outcome.value[100],
            static_cast<std::uint64_t>(30000.0 * 1000.0 / static_cast<double>(high.size())));
}

TEST_F(CanisterApiTest, BlockHeadersFullRange) {
  std::vector<Block> blocks;
  for (int i = 0; i < 5; ++i) blocks.push_back(make_block({}));
  feed(blocks);
  auto outcome = canister_.get_block_headers(0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value.tip_height, 5);
  ASSERT_EQ(outcome.value.headers.size(), 6u);  // genesis..5
  EXPECT_EQ(outcome.value.headers[0], params_.genesis_header);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(outcome.value.headers[static_cast<std::size_t>(i + 1)], blocks[static_cast<std::size_t>(i)].header);
  }
}

TEST_F(CanisterApiTest, BlockHeadersSubrangeAndRangeChecks) {
  std::vector<Block> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(make_block({}));
  feed(blocks);
  auto outcome = canister_.get_block_headers(2, 3);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.headers.size(), 2u);
  EXPECT_EQ(outcome.value.headers[0], blocks[1].header);

  EXPECT_EQ(canister_.get_block_headers(-1, 2).status, Status::kBadRange);
  EXPECT_EQ(canister_.get_block_headers(3, 2).status, Status::kBadRange);
  EXPECT_EQ(canister_.get_block_headers(0, 99).status, Status::kBadRange);
}

TEST_F(CanisterApiTest, BlockHeadersSpanAnchor) {
  // Push enough blocks that some become stable (δ=6 regtest): the range then
  // crosses archived headers, the anchor, and unstable headers.
  std::vector<Block> blocks;
  for (int i = 0; i < 10; ++i) blocks.push_back(make_block({}));
  feed(blocks);
  ASSERT_GT(canister_.anchor_height(), 0);
  auto outcome = canister_.get_block_headers(0);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value.headers.size(), 11u);
  EXPECT_EQ(outcome.value.headers[0], params_.genesis_header);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(outcome.value.headers[static_cast<std::size_t>(i + 1)],
              blocks[static_cast<std::size_t>(i)].header)
        << "height " << i + 1;
  }
}

}  // namespace
}  // namespace icbtc::canister
