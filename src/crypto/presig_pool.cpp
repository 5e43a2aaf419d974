#include "crypto/presig_pool.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace icbtc::crypto {

PresignaturePool::PresignaturePool(const ThresholdEcdsaDealer& dealer, PresigPoolConfig config,
                                   util::Rng rng)
    : dealer_(dealer), config_(config), rng_(rng) {}

void PresignaturePool::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    depth_gauge_ = nullptr;
    dealt_counter_ = nullptr;
    consumed_counter_ = nullptr;
    refills_counter_ = nullptr;
    stalls_counter_ = nullptr;
    return;
  }
  depth_gauge_ = &registry->gauge("tecdsa.pool.depth");
  dealt_counter_ = &registry->counter("tecdsa.pool.dealt");
  consumed_counter_ = &registry->counter("tecdsa.pool.consumed");
  refills_counter_ = &registry->counter("tecdsa.pool.refills");
  stalls_counter_ = &registry->counter("tecdsa.pool.exhaustion_stalls");
  depth_gauge_->set(static_cast<std::int64_t>(size()));
}

std::size_t PresignaturePool::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ready_.size();
}

void PresignaturePool::note_depth(std::size_t depth) {
  if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<std::int64_t>(depth));
}

DealtPresignature PresignaturePool::deal_one_locked() {
  DealtPresignature out;
  out.seq = next_seq_++;
  auto [pub, shares] = dealer_.deal_presignature(rng_);
  out.pub = pub;
  out.shares = std::move(shares);
  dealt_total_.fetch_add(1, std::memory_order_relaxed);
  if (dealt_counter_ != nullptr) dealt_counter_->inc();
  return out;
}

DealtPresignature PresignaturePool::take() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ready_.empty()) {
      DealtPresignature out = std::move(ready_.front());
      ready_.pop_front();
      consumed_total_.fetch_add(1, std::memory_order_relaxed);
      if (consumed_counter_ != nullptr) consumed_counter_->inc();
      note_depth(ready_.size());
      return out;
    }
  }
  // Pool exhausted: fall back to online dealing (the documented backpressure
  // policy), serialized behind any in-flight refill so the deal sequence
  // stays intact.
  exhaustion_stalls_.fetch_add(1, std::memory_order_relaxed);
  if (stalls_counter_ != nullptr) stalls_counter_->inc();
  std::lock_guard<std::mutex> dl(deal_mu_);
  {
    // A refill may have landed while we waited for the deal mutex; consume
    // from the queue first to preserve FIFO order over the deal sequence.
    std::lock_guard<std::mutex> lk(mu_);
    if (!ready_.empty()) {
      DealtPresignature out = std::move(ready_.front());
      ready_.pop_front();
      consumed_total_.fetch_add(1, std::memory_order_relaxed);
      if (consumed_counter_ != nullptr) consumed_counter_->inc();
      note_depth(ready_.size());
      return out;
    }
  }
  DealtPresignature out = deal_one_locked();
  consumed_total_.fetch_add(1, std::memory_order_relaxed);
  if (consumed_counter_ != nullptr) consumed_counter_->inc();
  return out;
}

void PresignaturePool::refill() {
  if (config_.depth == 0) return;
  std::lock_guard<std::mutex> dl(deal_mu_);
  std::size_t have;
  {
    std::lock_guard<std::mutex> lk(mu_);
    have = ready_.size();
  }
  if (have >= config_.depth) return;
  const std::size_t need = config_.depth - have;

  obs::ScopedSpan span(tracer_, "tecdsa.presig.deal", "crypto");
  span.attr("count", static_cast<std::uint64_t>(need));

  // Phase 1 (serial, RNG-ordered): draw every deal's randomness. Phase 2
  // (pure, parallelizable): the expensive point/inversion/share work.
  std::vector<PresigRandomness> randomness;
  std::vector<std::uint64_t> seqs;
  randomness.reserve(need);
  seqs.reserve(need);
  for (std::size_t i = 0; i < need; ++i) {
    randomness.push_back(dealer_.draw_presig_randomness(rng_));
    seqs.push_back(next_seq_++);
  }

  std::vector<DealtPresignature> dealt(need);
  std::shared_ptr<parallel::ThreadPool> pool_ref = parallel::shared_pool_ref();
  parallel::parallel_for(pool_ref.get(), need, [&](std::size_t i) {
    auto [pub, shares] = dealer_.deal_presignature_from(randomness[i]);
    dealt[i] = DealtPresignature{seqs[i], pub, std::move(shares), false};
  });

  std::size_t depth_after;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& d : dealt) ready_.push_back(std::move(d));
    depth_after = ready_.size();
  }
  dealt_total_.fetch_add(need, std::memory_order_relaxed);
  refills_.fetch_add(1, std::memory_order_relaxed);
  if (dealt_counter_ != nullptr) dealt_counter_->inc(need);
  if (refills_counter_ != nullptr) refills_counter_->inc();
  note_depth(depth_after);
  span.attr("depth_after", static_cast<std::uint64_t>(depth_after));
}

void PresignaturePool::maybe_refill() {
  if (config_.depth == 0) return;
  if (size() > config_.low_watermark) return;
  refill();
}

}  // namespace icbtc::crypto
