#include "chain/header_tree.h"

#include <algorithm>
#include <deque>

namespace icbtc::chain {

const char* to_string(AcceptResult r) {
  switch (r) {
    case AcceptResult::kAccepted: return "accepted";
    case AcceptResult::kDuplicate: return "duplicate";
    case AcceptResult::kOrphan: return "orphan";
    case AcceptResult::kInvalid: return "invalid";
  }
  return "?";
}

HeaderTree::HeaderTree(const bitcoin::ChainParams& params, const BlockHeader& root,
                       int root_height, const U256& root_prev_work)
    : params_(&params) {
  Entry e;
  e.header = root;
  e.hash = root.hash();
  e.height = root_height;
  e.block_work = bitcoin::work_from_bits(root.bits);
  e.cumulative_work = root_prev_work + e.block_work;
  e.parent = root.prev_hash;
  root_ = e.hash;
  chain_.push_back(e.hash);
  max_height_ = root_height;
  by_height_[root_height].push_back(e.hash);
  tips_.insert(e.hash);
  entries_.emplace(e.hash, std::move(e));
}

const HeaderTree::Entry* HeaderTree::find(const Hash256& hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

std::int64_t HeaderTree::median_time_past(const Hash256& hash) const {
  std::vector<std::uint32_t> times;
  times.reserve(static_cast<std::size_t>(params_->median_time_span));
  const Entry* cur = find(hash);
  while (cur != nullptr && times.size() < static_cast<std::size_t>(params_->median_time_span)) {
    times.push_back(cur->header.time);
    if (cur->hash == root_) break;
    cur = find(cur->parent);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::uint32_t HeaderTree::expected_bits(const Hash256& parent_hash) const {
  const Entry* parent = find(parent_hash);
  if (parent == nullptr) return params_->pow_limit_bits;
  if (!params_->retargeting_enabled) return params_->pow_limit_bits;

  int next_height = parent->height + 1;
  if (next_height % params_->retarget_interval != 0) return parent->header.bits;

  // Walk back to the first block of the closing period.
  const Entry* first = parent;
  for (int i = 0; i < params_->retarget_interval - 1 && first->hash != root_; ++i) {
    const Entry* up = find(first->parent);
    if (up == nullptr) break;
    first = up;
  }
  std::int64_t actual = static_cast<std::int64_t>(parent->header.time) -
                        static_cast<std::int64_t>(first->header.time);
  std::int64_t target_timespan =
      params_->target_spacing_s * (params_->retarget_interval - 1);
  return bitcoin::next_target(parent->header.bits, actual, target_timespan, params_->pow_limit);
}

AcceptResult HeaderTree::validate(const BlockHeader& header, std::int64_t now_s,
                                  std::string* error, const ValidationOptions& opts) const {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return AcceptResult::kInvalid;
  };

  Hash256 hash = header.hash();
  if (entries_.contains(hash)) return AcceptResult::kDuplicate;
  const Entry* parent = find(header.prev_hash);
  if (parent == nullptr) return AcceptResult::kOrphan;

  if (opts.check_difficulty) {
    std::uint32_t expected = expected_bits(header.prev_hash);
    if (header.bits != expected) return fail("incorrect difficulty bits");
  }
  if (opts.check_pow) {
    if (!bitcoin::check_proof_of_work(hash, header.bits, params_->pow_limit)) {
      return fail("proof of work check failed");
    }
  }
  if (opts.check_timestamp) {
    if (static_cast<std::int64_t>(header.time) <= median_time_past(header.prev_hash)) {
      return fail("timestamp not after median time past");
    }
    if (static_cast<std::int64_t>(header.time) > now_s + params_->max_future_drift_s) {
      return fail("timestamp too far in the future");
    }
  }
  return AcceptResult::kAccepted;
}

AcceptResult HeaderTree::accept(const BlockHeader& header, std::int64_t now_s, std::string* error,
                                const ValidationOptions& opts) {
  AcceptResult result = validate(header, now_s, error, opts);
  if (result != AcceptResult::kAccepted) return result;
  insert_unchecked(header);
  return AcceptResult::kAccepted;
}

void HeaderTree::insert_unchecked(const BlockHeader& header) {
  Entry& parent = entries_.at(header.prev_hash);
  Entry e;
  e.header = header;
  e.hash = header.hash();
  e.height = parent.height + 1;
  e.block_work = bitcoin::work_from_bits(header.bits);
  e.cumulative_work = parent.cumulative_work + e.block_work;
  e.parent = parent.hash;
  parent.children.push_back(e.hash);
  tips_.erase(parent.hash);
  tips_.insert(e.hash);
  by_height_[e.height].push_back(e.hash);
  max_height_ = std::max(max_height_, e.height);
  // First-seen wins ties: only strictly more work displaces the best tip.
  bool better = e.cumulative_work > entries_.at(best_tip()).cumulative_work;
  Hash256 hash = e.hash;
  entries_.emplace(hash, std::move(e));
  if (better) set_best_tip(hash);
}

void HeaderTree::set_best_tip(const Hash256& tip) {
  std::vector<Hash256> branch;
  const Entry* cur = &entries_.at(tip);
  while (!on_current_chain(cur->hash)) {
    branch.push_back(cur->hash);
    cur = &entries_.at(cur->parent);
  }
  chain_.resize(static_cast<std::size_t>(cur->height - root().height) + 1);
  chain_.insert(chain_.end(), branch.rbegin(), branch.rend());
}

bool HeaderTree::on_current_chain(const Hash256& hash) const {
  const Entry* e = find(hash);
  if (e == nullptr) return false;
  auto index = static_cast<std::size_t>(e->height - root().height);
  return index < chain_.size() && chain_[index] == hash;
}

std::vector<Hash256> HeaderTree::locator() const {
  std::vector<Hash256> locator;
  std::size_t step = 1;
  std::size_t i = chain_.size();
  while (i > 0) {
    --i;
    locator.push_back(chain_[i]);
    if (locator.size() > 10) step *= 2;
    if (i < step) break;
    i -= step - 1;
  }
  if (locator.back() != chain_.front()) locator.push_back(chain_.front());
  return locator;
}

std::vector<Hash256> HeaderTree::blocks_at_height(int height) const {
  auto it = by_height_.find(height);
  return it == by_height_.end() ? std::vector<Hash256>{} : it->second;
}

bool HeaderTree::is_ancestor_of(const Entry& ancestor, const Entry& node) const {
  const Entry* cur = &node;
  while (cur->height > ancestor.height) {
    auto it = entries_.find(cur->parent);
    if (it == entries_.end()) return false;
    cur = &it->second;
  }
  return cur->hash == ancestor.hash;
}

std::vector<const HeaderTree::Entry*> HeaderTree::subtree_tips(const Hash256& hash) const {
  std::vector<const Entry*> out;
  const Entry* base = find(hash);
  if (base == nullptr) return out;
  for (const auto& tip_hash : tips_) {
    const Entry& tip = entries_.at(tip_hash);
    if (is_ancestor_of(*base, tip)) out.push_back(&tip);
  }
  return out;
}

int HeaderTree::depth_count(const Hash256& hash) const {
  const Entry* base = find(hash);
  if (base == nullptr) return 0;
  int best = 0;
  for (const Entry* tip : subtree_tips(hash)) {
    best = std::max(best, tip->height - base->height + 1);
  }
  return best;
}

U256 HeaderTree::depth_work(const Hash256& hash) const {
  const Entry* base = find(hash);
  if (base == nullptr) return U256(0);
  const Entry* parent = find(base->parent);
  U256 below = (parent != nullptr) ? parent->cumulative_work
                                   : base->cumulative_work - base->block_work;
  U256 best(0);
  for (const Entry* tip : subtree_tips(hash)) {
    U256 depth = tip->cumulative_work - below;
    if (depth > best) best = depth;
  }
  return best;
}

int HeaderTree::confirmation_stability(const Hash256& hash) const {
  const Entry* base = find(hash);
  if (base == nullptr) return 0;
  int own_depth = depth_count(hash);
  int stability = own_depth;  // condition (1): d(b) >= δ
  for (const auto& other : blocks_at_height(base->height)) {
    if (other == hash) continue;
    stability = std::min(stability, own_depth - depth_count(other));  // condition (2)
  }
  return stability;
}

bool HeaderTree::is_confirmation_stable(const Hash256& hash, int delta) const {
  if (delta <= 0) return contains(hash);
  return confirmation_stability(hash) >= delta;
}

int HeaderTree::confirmations(const Hash256& hash) const {
  return std::max(0, confirmation_stability(hash));
}

bool HeaderTree::is_difficulty_stable(const Hash256& hash, int delta,
                                      const U256& reference_work) const {
  const Entry* base = find(hash);
  if (base == nullptr) return false;
  // threshold = δ * w(b*); reference work is far below 2^248 so this cannot
  // overflow in any realistic configuration.
  U256 threshold = crypto::mul_full(reference_work, U256(static_cast<std::uint64_t>(delta))).lo();
  U256 own = depth_work(hash);
  if (own < threshold) return false;
  for (const auto& other : blocks_at_height(base->height)) {
    if (other == hash) continue;
    U256 other_depth = depth_work(other);
    if (own < other_depth) return false;
    if (own - other_depth < threshold) return false;
  }
  return true;
}

void HeaderTree::reroot(const Hash256& keep) {
  const Entry* new_root = find(keep);
  if (new_root == nullptr) throw std::invalid_argument("reroot: unknown header");
  if (new_root->parent != root_) {
    throw std::invalid_argument("reroot: new root must be a child of the current root");
  }

  // Delete everything not in the subtree of `keep` (the old root and all
  // competing branches).
  std::deque<Hash256> to_delete;
  const Entry& old_root = entries_.at(root_);
  for (const auto& child : old_root.children) {
    if (child != keep) to_delete.push_back(child);
  }
  to_delete.push_back(root_);
  while (!to_delete.empty()) {
    Hash256 h = to_delete.front();
    to_delete.pop_front();
    auto it = entries_.find(h);
    if (it == entries_.end()) continue;
    for (const auto& child : it->second.children) {
      if (h == root_ && child == keep) continue;
      to_delete.push_back(child);
    }
    auto& at_height = by_height_[it->second.height];
    std::erase(at_height, h);
    if (at_height.empty()) by_height_.erase(it->second.height);
    tips_.erase(h);
    entries_.erase(it);
  }
  root_ = keep;
  entries_.at(root_).parent = Hash256{};

  // max height and best tip may have lived on a deleted branch. A surviving
  // best tip stays (first-seen wins ties), and its chain loses the old root.
  max_height_ = 0;
  for (const auto& [height, hashes] : by_height_) {
    if (!hashes.empty()) max_height_ = std::max(max_height_, height);
  }
  if (entries_.contains(best_tip())) {
    chain_.erase(chain_.begin());
  } else {
    recompute_best_tip();
  }
}

void HeaderTree::recompute_best_tip() {
  // Deterministic scan: highest cumulative work; ties broken by hash to stay
  // stable across container iteration orders.
  const Entry* best = nullptr;
  for (const auto& tip_hash : tips_) {
    const Entry& e = entries_.at(tip_hash);
    if (best == nullptr || e.cumulative_work > best->cumulative_work ||
        (e.cumulative_work == best->cumulative_work && e.hash < best->hash)) {
      best = &e;
    }
  }
  chain_.clear();
  for (Hash256 cur = best != nullptr ? best->hash : root_;; cur = entries_.at(cur).parent) {
    chain_.push_back(cur);
    if (cur == root_) break;
  }
  std::reverse(chain_.begin(), chain_.end());
}

}  // namespace icbtc::chain
