// The block-header tree and the paper's stability calculus (§II-B, §II-C).
//
// Headers form a tree rooted at a trusted block (genesis, or the Bitcoin
// canister's anchor). Two depth functions are provided:
//   d_c (cost 1 per block)      — confirmation counting,
//   d_w (cost = block work)     — difficulty weighting,
// and δ-stability follows Definition II.1: a block b is δ-stable iff
//   (1) d(b) >= δ and (2) for every other block b' at the same height,
//   d(b) - d(b') >= δ.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/params.h"
#include "bitcoin/pow.h"

namespace icbtc::chain {

using bitcoin::BlockHeader;
using crypto::U256;
using util::Hash256;

/// Result of offering a header to the tree.
enum class AcceptResult {
  kAccepted,
  kDuplicate,  // already known
  kOrphan,     // parent unknown (also: below the tree root)
  kInvalid,    // failed validation
};

const char* to_string(AcceptResult r);

/// Validation configuration. The adapter and the canister run the same checks
/// (§III-B / §III-C): well-formedness, parent linkage, correct difficulty
/// bits, proof of work, and timestamp sanity.
struct ValidationOptions {
  bool check_pow = true;
  bool check_difficulty = true;
  bool check_timestamp = true;
};

class HeaderTree {
 public:
  struct Entry {
    BlockHeader header;
    Hash256 hash;
    int height = 0;
    U256 block_work;             // w(b)
    U256 cumulative_work;        // Σ w over root..b
    Hash256 parent;
    std::vector<Hash256> children;
  };

  /// Creates a tree rooted at `root` (trusted; not validated) at the given
  /// height with the given cumulative work below it.
  HeaderTree(const bitcoin::ChainParams& params, const BlockHeader& root, int root_height = 0,
             const U256& root_prev_work = U256(0));

  const bitcoin::ChainParams& params() const { return *params_; }

  /// Offers a header. `now_s` is the current wall-clock used for the
  /// future-drift check. On kInvalid, `error` (if non-null) says why.
  AcceptResult accept(const BlockHeader& header, std::int64_t now_s, std::string* error = nullptr,
                      const ValidationOptions& opts = {});

  /// Validates a header against the tree without inserting. Returns
  /// kAccepted if it would be accepted.
  AcceptResult validate(const BlockHeader& header, std::int64_t now_s,
                        std::string* error = nullptr, const ValidationOptions& opts = {}) const;

  bool contains(const Hash256& hash) const { return entries_.contains(hash); }
  const Entry* find(const Hash256& hash) const;
  const Entry& root() const { return entries_.at(root_); }
  Hash256 root_hash() const { return root_; }
  std::size_t size() const { return entries_.size(); }

  /// All leaf blocks.
  std::vector<Hash256> tips() const { return std::vector<Hash256>(tips_.begin(), tips_.end()); }

  /// The tip of the current blockchain: maximizes cumulative work
  /// (first-seen wins ties, as in Bitcoin Core).
  Hash256 best_tip() const { return chain_.back(); }
  int best_height() const { return entries_.at(chain_.back()).height; }
  int max_height() const { return max_height_; }

  /// The current blockchain from the root to the best tip (inclusive),
  /// indexed by height above the root. Maintained incrementally by accept()
  /// and reroot(); the reference is valid until the next mutation.
  const std::vector<Hash256>& current_chain() const { return chain_; }

  /// True iff `hash` is a block of the current blockchain.
  bool on_current_chain(const Hash256& hash) const;

  /// Block locator for getheaders: the current chain's hashes from the tip
  /// back, the ten most recent one by one and then at doubling steps,
  /// always ending with the root.
  std::vector<Hash256> locator() const;

  /// Hashes of all blocks at the given height.
  std::vector<Hash256> blocks_at_height(int height) const;

  /// d_c(b): maximum number of blocks on any path from b to a tip in its
  /// subtree (>= 1: b itself counts).
  int depth_count(const Hash256& hash) const;

  /// d_w(b): maximum cumulative work from b to any tip in its subtree.
  U256 depth_work(const Hash256& hash) const;

  /// Confirmation-based stability of b: the largest δ for which b is
  /// δ-stable under d_c — min(d_c(b), min over competitors of
  /// d_c(b) - d_c(b')). Negative when a competing branch is deeper
  /// (cf. Fig. 3). INT_MIN is never returned; values are small.
  int confirmation_stability(const Hash256& hash) const;

  /// True iff b is confirmation-based δ-stable (δ >= 1).
  bool is_confirmation_stable(const Hash256& hash, int delta) const;

  /// True iff b is difficulty-based δ-stable with respect to reference work
  /// w*: d_w(b) >= δ*w* and every competitor trails by at least δ*w*
  /// (§II-C: d_w(b)/w(b*) >= δ).
  bool is_difficulty_stable(const Hash256& hash, int delta, const U256& reference_work) const;

  /// Number of confirmations of the block per the paper's definition: the
  /// confirmation-based stability of its block (clamped at 0).
  int confirmations(const Hash256& hash) const;

  /// Removes every header at the root's children level except `keep`, along
  /// with their subtrees, then re-roots the tree at `keep`. This is the
  /// canister's anchor advance: the new anchor becomes the trusted root and
  /// competing stale forks are discarded.
  void reroot(const Hash256& keep);

  /// Expected compact bits for a child of `parent_hash` at time `time`.
  std::uint32_t expected_bits(const Hash256& parent_hash) const;

  /// Median time past over the last `median_time_span` ancestors of `hash`
  /// (inclusive).
  std::int64_t median_time_past(const Hash256& hash) const;

 private:
  void insert_unchecked(const BlockHeader& header);
  /// Moves the best tip to `tip`, replacing the current chain above its
  /// fork point with the branch leading to `tip`.
  void set_best_tip(const Hash256& tip);
  /// Re-derives the best tip and the current chain from all tips; reroot()
  /// calls it when the best tip was pruned.
  void recompute_best_tip();
  /// Collects the tips lying in the subtree of `hash`.
  std::vector<const Entry*> subtree_tips(const Hash256& hash) const;
  bool is_ancestor_of(const Entry& ancestor, const Entry& node) const;

  const bitcoin::ChainParams* params_;
  std::unordered_map<Hash256, Entry> entries_;
  std::unordered_map<int, std::vector<Hash256>> by_height_;
  std::unordered_set<Hash256> tips_;
  Hash256 root_;
  std::vector<Hash256> chain_;  // the current chain: root .. best tip
  int max_height_ = 0;
};

}  // namespace icbtc::chain
