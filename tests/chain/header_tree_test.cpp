#include "chain/header_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "chain/block_builder.h"
#include "util/rng.h"

namespace icbtc::chain {
namespace {

using bitcoin::ChainParams;

class HeaderTreeTest : public ::testing::Test {
 protected:
  const ChainParams& params_ = ChainParams::regtest();
  HeaderTree tree_{params_, params_.genesis_header};
  std::uint32_t time_ = params_.genesis_header.time;
  std::int64_t now_ = params_.genesis_header.time + 1000000;

  /// Extends `parent` with a fresh valid header; `salt` forces distinct
  /// headers for forks at the same height.
  Hash256 extend(const Hash256& parent, std::uint32_t salt = 0) {
    Hash256 merkle;
    merkle.data[0] = static_cast<std::uint8_t>(salt);
    merkle.data[1] = static_cast<std::uint8_t>(salt >> 8);
    time_ += 600;
    auto header = build_child_header(tree_, parent, time_, merkle);
    EXPECT_EQ(tree_.accept(header, now_), AcceptResult::kAccepted);
    return header.hash();
  }

  /// Builds a linear chain of `n` blocks on `parent`, returns all hashes.
  std::vector<Hash256> extend_chain(Hash256 parent, int n, std::uint32_t salt = 0) {
    std::vector<Hash256> out;
    for (int i = 0; i < n; ++i) {
      parent = extend(parent, salt + static_cast<std::uint32_t>(i) * 1000 + 1);
      out.push_back(parent);
    }
    return out;
  }
};

TEST_F(HeaderTreeTest, RootOnlyProperties) {
  EXPECT_EQ(tree_.size(), 1u);
  EXPECT_EQ(tree_.best_tip(), tree_.root_hash());
  EXPECT_EQ(tree_.depth_count(tree_.root_hash()), 1);
  EXPECT_EQ(tree_.max_height(), 0);
  EXPECT_EQ(tree_.current_chain(), std::vector<Hash256>{tree_.root_hash()});
}

TEST_F(HeaderTreeTest, LinearChainAccounting) {
  auto chain = extend_chain(tree_.root_hash(), 5);
  EXPECT_EQ(tree_.size(), 6u);
  EXPECT_EQ(tree_.best_tip(), chain.back());
  EXPECT_EQ(tree_.best_height(), 5);
  EXPECT_EQ(tree_.depth_count(tree_.root_hash()), 6);
  EXPECT_EQ(tree_.depth_count(chain.back()), 1);
  EXPECT_EQ(tree_.current_chain().size(), 6u);
}

TEST_F(HeaderTreeTest, DuplicateRejected) {
  Hash256 merkle;
  time_ += 600;
  auto header = build_child_header(tree_, tree_.root_hash(), time_, merkle);
  EXPECT_EQ(tree_.accept(header, now_), AcceptResult::kAccepted);
  EXPECT_EQ(tree_.accept(header, now_), AcceptResult::kDuplicate);
}

TEST_F(HeaderTreeTest, OrphanRejected) {
  bitcoin::BlockHeader h;
  h.prev_hash.data[0] = 0xde;  // unknown parent
  h.bits = params_.pow_limit_bits;
  h.time = time_ + 600;
  EXPECT_EQ(tree_.accept(h, now_), AcceptResult::kOrphan);
}

TEST_F(HeaderTreeTest, BadPowRejected) {
  Hash256 merkle;
  time_ += 600;
  auto header = build_child_header(tree_, tree_.root_hash(), time_, merkle);
  // Find a nonce that fails the PoW check.
  do {
    header.nonce++;
  } while (bitcoin::check_proof_of_work(header.hash(), header.bits, params_.pow_limit));
  std::string error;
  EXPECT_EQ(tree_.accept(header, now_, &error), AcceptResult::kInvalid);
  EXPECT_EQ(error, "proof of work check failed");
}

TEST_F(HeaderTreeTest, WrongBitsRejected) {
  Hash256 merkle;
  time_ += 600;
  auto header = build_child_header(tree_, tree_.root_hash(), time_, merkle);
  header.bits = 0x1d00ffff;  // not the expected regtest bits
  std::string error;
  EXPECT_EQ(tree_.accept(header, now_, &error), AcceptResult::kInvalid);
  EXPECT_EQ(error, "incorrect difficulty bits");
}

TEST_F(HeaderTreeTest, FutureTimestampRejected) {
  Hash256 merkle;
  auto far_future = static_cast<std::uint32_t>(now_ + params_.max_future_drift_s + 10);
  auto header = build_child_header(tree_, tree_.root_hash(), far_future, merkle);
  std::string error;
  EXPECT_EQ(tree_.accept(header, now_, &error), AcceptResult::kInvalid);
  EXPECT_EQ(error, "timestamp too far in the future");
}

TEST_F(HeaderTreeTest, MedianTimePastEnforced) {
  auto chain = extend_chain(tree_.root_hash(), 11);
  // A child whose timestamp is at or below the median of the last 11 must
  // be rejected.
  auto mtp = tree_.median_time_past(chain.back());
  Hash256 merkle;
  merkle.data[0] = 0xee;
  auto header = build_child_header(tree_, chain.back(), static_cast<std::uint32_t>(mtp), merkle);
  std::string error;
  EXPECT_EQ(tree_.accept(header, now_, &error), AcceptResult::kInvalid);
  EXPECT_EQ(error, "timestamp not after median time past");
}

TEST_F(HeaderTreeTest, ValidationCanBeRelaxed) {
  bitcoin::BlockHeader h;
  h.prev_hash = tree_.root_hash();
  h.bits = 0x1d00ffff;  // wrong bits, bad PoW, stale timestamp
  h.time = 0;
  ValidationOptions lax;
  lax.check_pow = false;
  lax.check_difficulty = false;
  lax.check_timestamp = false;
  EXPECT_EQ(tree_.accept(h, now_, nullptr, lax), AcceptResult::kAccepted);
}

TEST_F(HeaderTreeTest, ForkTracking) {
  auto main_chain = extend_chain(tree_.root_hash(), 3, 0);
  auto fork = extend_chain(tree_.root_hash(), 2, 50000);
  EXPECT_EQ(tree_.tips().size(), 2u);
  EXPECT_EQ(tree_.best_tip(), main_chain.back());  // longer chain wins
  EXPECT_EQ(tree_.blocks_at_height(1).size(), 2u);
  EXPECT_EQ(tree_.blocks_at_height(3).size(), 1u);
  // Extending the fork beyond main flips the best tip.
  auto fork_ext = extend_chain(fork.back(), 2, 60000);
  EXPECT_EQ(tree_.best_tip(), fork_ext.back());
}

TEST_F(HeaderTreeTest, DepthFunctionsOnFork) {
  // root - a1 - a2 - a3
  //      \ b1 - b2
  auto a = extend_chain(tree_.root_hash(), 3, 0);
  auto b = extend_chain(tree_.root_hash(), 2, 50000);
  EXPECT_EQ(tree_.depth_count(a[0]), 3);
  EXPECT_EQ(tree_.depth_count(b[0]), 2);
  EXPECT_EQ(tree_.depth_count(tree_.root_hash()), 4);
  // All regtest blocks carry work 2: d_w = 2 * d_c.
  EXPECT_EQ(tree_.depth_work(a[0]), crypto::U256(6));
  EXPECT_EQ(tree_.depth_work(b[0]), crypto::U256(4));
}

TEST_F(HeaderTreeTest, ConfirmationStabilityLinearChain) {
  auto chain = extend_chain(tree_.root_hash(), 4);
  // No forks: stability equals plain confirmation count.
  EXPECT_EQ(tree_.confirmation_stability(chain[0]), 4);
  EXPECT_EQ(tree_.confirmation_stability(chain[3]), 1);
  EXPECT_EQ(tree_.confirmations(chain[0]), 4);
}

TEST_F(HeaderTreeTest, Figure3StabilityValues) {
  // Reproduces Fig. 3 of the paper: a chain with two forks, checking the
  // confirmation-based stability annotated inside each block.
  //
  //   g - m1 - m2 - m3 - m4 - m5 - m6     (main chain)
  //            \ f1 - f2                  (fork at height 2..3)
  //        \ s1                           (fork at height 2)
  //
  // Main chain: m1..m6; fork A branches off m1; fork B branches off m1? The
  // figure's exact shape: two forks of lengths 2 and 1 competing with the
  // main chain. Stabilities: deep main blocks keep δ = margin over the fork,
  // fork blocks go negative once outrun.
  auto m = extend_chain(tree_.root_hash(), 6, 0);
  auto f = extend_chain(m[0], 2, 50000);   // fork at heights 2-3
  auto s = extend_chain(m[0], 1, 70000);   // single-block fork at height 2

  // d_c: m2 has depth 5 (m2..m6), f1 depth 2, s1 depth 1.
  EXPECT_EQ(tree_.depth_count(m[1]), 5);
  EXPECT_EQ(tree_.depth_count(f[0]), 2);
  EXPECT_EQ(tree_.depth_count(s[0]), 1);

  // m2 competes with f1 and s1 at the same height:
  // stability = min(5, 5-2, 5-1) = 3.
  EXPECT_EQ(tree_.confirmation_stability(m[1]), 3);
  // f1 is outrun: min(2, 2-5, 2-1) = -3 (negative, as in the figure).
  EXPECT_EQ(tree_.confirmation_stability(f[0]), -3);
  EXPECT_EQ(tree_.confirmations(f[0]), 0);
  // m3 competes with f2: min(4, 4-1) = 3.
  EXPECT_EQ(tree_.confirmation_stability(m[2]), 3);
  // m1 has no competitor: stability = its depth = 6.
  EXPECT_EQ(tree_.confirmation_stability(m[0]), 6);
  // Deep main blocks past the forks: stability = depth.
  EXPECT_EQ(tree_.confirmation_stability(m[3]), 3);
  EXPECT_EQ(tree_.confirmation_stability(m[5]), 1);
}

TEST_F(HeaderTreeTest, StabilityCanStagnateWhileDepthGrows) {
  // The paper notes stability may stagnate as depth increases: a competing
  // fork that keeps pace caps the margin.
  auto m = extend_chain(tree_.root_hash(), 2, 0);
  auto f = extend_chain(tree_.root_hash(), 1, 50000);
  int s_before = tree_.confirmation_stability(m[0]);
  // Grow both branches in lockstep.
  auto m_more = extend_chain(m.back(), 3, 1000);
  extend_chain(f.back(), 3, 60000);
  int s_after = tree_.confirmation_stability(m[0]);
  EXPECT_EQ(s_before, s_after);  // depth rose by 3, stability unchanged
  EXPECT_GT(tree_.depth_count(m[0]), 2);
  (void)m_more;
}

TEST_F(HeaderTreeTest, AtMostOneStableBlockPerHeight) {
  auto m = extend_chain(tree_.root_hash(), 5, 0);
  auto f = extend_chain(tree_.root_hash(), 3, 50000);
  for (int h = 1; h <= tree_.max_height(); ++h) {
    int stable_count = 0;
    for (const auto& b : tree_.blocks_at_height(h)) {
      if (tree_.is_confirmation_stable(b, 1)) ++stable_count;
    }
    EXPECT_LE(stable_count, 1) << "height " << h;
  }
  (void)m;
  (void)f;
}

TEST_F(HeaderTreeTest, DeltaStabilityMonotoneInDelta) {
  auto m = extend_chain(tree_.root_hash(), 6, 0);
  extend_chain(tree_.root_hash(), 2, 50000);
  const auto& b = m[1];
  // δ-stable implies δ'-stable for δ' <= δ.
  int stability = tree_.confirmation_stability(b);
  ASSERT_GT(stability, 0);
  for (int delta = 1; delta <= stability; ++delta) {
    EXPECT_TRUE(tree_.is_confirmation_stable(b, delta)) << delta;
  }
  EXPECT_FALSE(tree_.is_confirmation_stable(b, stability + 1));
}

TEST_F(HeaderTreeTest, DifficultyStability) {
  auto m = extend_chain(tree_.root_hash(), 6, 0);
  auto f = extend_chain(tree_.root_hash(), 2, 50000);
  crypto::U256 ref_work = tree_.find(tree_.root_hash())->block_work;  // = 2
  // m1 (d_w = 12) competes with f1 (d_w = 4): margin 8/2 = 4 ref units.
  EXPECT_TRUE(tree_.is_difficulty_stable(m[0], 4, ref_work));
  EXPECT_FALSE(tree_.is_difficulty_stable(m[0], 5, ref_work));
  // m2 (d_w = 10) competes with f2 (d_w = 2): margin 8/2 = 4 ref units.
  EXPECT_TRUE(tree_.is_difficulty_stable(m[1], 4, ref_work));
  EXPECT_FALSE(tree_.is_difficulty_stable(m[1], 5, ref_work));
  // The losing fork is never difficulty-stable.
  EXPECT_FALSE(tree_.is_difficulty_stable(f[0], 1, ref_work));
}

TEST_F(HeaderTreeTest, RerootDiscardsCompetingBranches) {
  auto m = extend_chain(tree_.root_hash(), 4, 0);
  auto f = extend_chain(tree_.root_hash(), 2, 50000);
  EXPECT_EQ(tree_.size(), 7u);
  tree_.reroot(m[0]);
  EXPECT_EQ(tree_.root_hash(), m[0]);
  EXPECT_EQ(tree_.size(), 4u);  // m1..m4
  EXPECT_FALSE(tree_.contains(f[0]));
  EXPECT_FALSE(tree_.contains(f[1]));
  EXPECT_EQ(tree_.best_tip(), m.back());
  // Depths are preserved relative to the new root.
  EXPECT_EQ(tree_.depth_count(m[0]), 4);
}

TEST_F(HeaderTreeTest, RerootValidation) {
  auto m = extend_chain(tree_.root_hash(), 3, 0);
  EXPECT_THROW(tree_.reroot(m[2]), std::invalid_argument);  // not a root child
  Hash256 unknown;
  unknown.data[0] = 0xaa;
  EXPECT_THROW(tree_.reroot(unknown), std::invalid_argument);
}

TEST_F(HeaderTreeTest, RerootRecomputesBestTipFromSurvivors) {
  auto m = extend_chain(tree_.root_hash(), 2, 0);
  auto f = extend_chain(tree_.root_hash(), 5, 50000);
  EXPECT_EQ(tree_.best_tip(), f.back());
  // Keep the shorter branch: best tip must move onto it.
  tree_.reroot(m[0]);
  EXPECT_EQ(tree_.best_tip(), m.back());
  EXPECT_EQ(tree_.max_height(), 2);
}

TEST_F(HeaderTreeTest, RerootKeepsFirstSeenTipOnTie) {
  Hash256 keep = extend(tree_.root_hash(), 1);
  // Two equal-work children of `keep`, the higher hash seen first: a
  // lowest-hash tie-break would pick the other one.
  time_ += 600;
  Hash256 merkle_a, merkle_b;
  merkle_a.data[0] = 2;
  merkle_b.data[0] = 3;
  auto first = build_child_header(tree_, keep, time_, merkle_a);
  auto second = build_child_header(tree_, keep, time_, merkle_b);
  if (first.hash() < second.hash()) std::swap(first, second);
  ASSERT_EQ(tree_.accept(first, now_), AcceptResult::kAccepted);
  ASSERT_EQ(tree_.accept(second, now_), AcceptResult::kAccepted);
  ASSERT_EQ(tree_.best_tip(), first.hash());

  tree_.reroot(keep);
  EXPECT_EQ(tree_.best_tip(), first.hash());
  EXPECT_EQ(tree_.current_chain(), (std::vector<Hash256>{keep, first.hash()}));
}

/// The locator algorithm the btcnet node and the adapter each carried before
/// HeaderTree::locator(), kept as the reference.
std::vector<Hash256> reference_locator(const std::vector<Hash256>& chain) {
  std::vector<Hash256> locator;
  std::size_t step = 1;
  std::size_t i = chain.size();
  while (i > 0) {
    --i;
    locator.push_back(chain[i]);
    if (locator.size() > 10) step *= 2;
    if (i < step) break;
    i -= step - 1;
  }
  if (locator.empty() || locator.back() != chain.front()) locator.push_back(chain.front());
  return locator;
}

TEST_F(HeaderTreeTest, MaterializedChainMatchesWalkFromBestTip) {
  now_ += 10'000'000;  // room for every header's timestamp
  util::Rng rng(23);
  std::vector<Hash256> known = {tree_.root_hash()};
  std::vector<Hash256> pruned;
  std::uint32_t salt = 1;
  auto check = [&](int step) {
    std::vector<Hash256> walk;
    for (Hash256 h = tree_.best_tip();; h = tree_.find(h)->parent) {
      walk.push_back(h);
      if (h == tree_.root_hash()) break;
    }
    std::reverse(walk.begin(), walk.end());
    ASSERT_EQ(tree_.current_chain(), walk) << "step " << step;
    std::unordered_set<Hash256> on_walk(walk.begin(), walk.end());
    for (const auto& h : known) {
      ASSERT_EQ(tree_.on_current_chain(h), on_walk.contains(h)) << "step " << step;
    }
    for (const auto& h : pruned) ASSERT_FALSE(tree_.on_current_chain(h)) << "step " << step;
    ASSERT_EQ(tree_.locator(), reference_locator(walk)) << "step " << step;
  };

  for (int step = 0; step < 300; ++step) {
    std::uint64_t dice = rng.next() % 10;
    if (dice < 5) {
      known.push_back(extend(tree_.best_tip(), salt++));
    } else if (dice < 8) {
      // Race 1-4 blocks from any known block: the branch falls short, ties
      // or overtakes the best chain.
      Hash256 parent = known[rng.next() % known.size()];
      int length = 1 + static_cast<int>(rng.next() % 4);
      for (int i = 0; i < length; ++i) {
        parent = extend(parent, salt++);
        known.push_back(parent);
      }
    } else if (dice < 9) {
      // An equal-work sibling of the best tip: first seen keeps the tie.
      Hash256 best = tree_.best_tip();
      if (best != tree_.root_hash()) {
        known.push_back(extend(tree_.find(best)->parent, salt++));
        ASSERT_EQ(tree_.best_tip(), best) << "step " << step;
      }
    } else {
      // Reroot onto any child of the root, often off the best chain.
      std::vector<Hash256> children = tree_.root().children;
      if (!children.empty()) {
        tree_.reroot(children[rng.next() % children.size()]);
        for (const auto& h : known) {
          if (!tree_.contains(h)) pruned.push_back(h);
        }
        std::erase_if(known, [&](const Hash256& h) { return !tree_.contains(h); });
      }
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tree_.current_chain().size(), 20u);  // the locator's doubling steps ran
}

TEST_F(HeaderTreeTest, ExpectedBitsStableWithoutRetargeting) {
  auto chain = extend_chain(tree_.root_hash(), 3);
  EXPECT_EQ(tree_.expected_bits(chain.back()), params_.pow_limit_bits);
}

TEST_F(HeaderTreeTest, TreeRootedAtNonzeroHeight) {
  // The canister's tree is rooted at the anchor, not genesis.
  auto chain = extend_chain(tree_.root_hash(), 3);
  const auto* anchor = tree_.find(chain[1]);
  HeaderTree anchored(params_, anchor->header, anchor->height,
                      anchor->cumulative_work - anchor->block_work);
  EXPECT_EQ(anchored.root().height, 2);
  EXPECT_EQ(anchored.best_height(), 2);
}

TEST_F(HeaderTreeTest, ConfirmationsNeverNegative) {
  auto m = extend_chain(tree_.root_hash(), 4, 0);
  auto f = extend_chain(tree_.root_hash(), 1, 50000);
  EXPECT_EQ(tree_.confirmations(f[0]), 0);
  EXPECT_GT(tree_.confirmations(m[0]), 0);
}

}  // namespace
}  // namespace icbtc::chain
