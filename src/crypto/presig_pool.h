// Offline presignature pool for the threshold-ECDSA service.
//
// On the IC the expensive part of threshold ECDSA — generating the
// "quadruple" presignature material — runs as a background MPC between
// consensus rounds, and sign_with_ecdsa requests only pay the cheap online
// phase (partial signatures + recombination). This pool reproduces that
// split: presignatures are dealt ahead of demand, in batches, on the
// process-wide parallel::ThreadPool when one is installed, and consumed FIFO
// by signing requests.
//
// Determinism contract: all dealing — prefill, refill batches, and the
// exhaustion fallback — is serialized under one deal mutex and draws from
// one private RNG stream in deal-sequence order, so the k-th presignature
// ever dealt is a pure function of (pool seed, k) regardless of when refills
// run or how large their batches are. Consumption is strict FIFO over that
// sequence, so for a single-threaded caller the j-th take() always returns
// presignature j and the resulting signatures are byte-identical across pool
// depths, watermarks, and refill timing. (Refill batches split randomness
// drawing from computation: draws happen serially under the deal mutex,
// the pure per-presignature computation may then fan out across the shared
// thread pool.)
//
// Backpressure policy (the documented choice): a take() that finds the pool
// empty does NOT fail or block indefinitely — it falls back to dealing one
// presignature online, inside the call, under the deal mutex. A burst larger
// than the pool depth therefore degrades to the pre-pool per-request cost
// instead of stalling, and the exhaustion is visible in the
// tecdsa.pool.exhaustion_stalls counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>

#include "crypto/threshold_ecdsa.h"

namespace icbtc::obs {
class Counter;
class Gauge;
class MetricsRegistry;
class Tracer;
}  // namespace icbtc::obs

namespace icbtc::crypto {

struct PresigPoolConfig {
  /// Target number of precomputed presignatures. 0 disables precomputation:
  /// every take() deals online (the pre-pool behaviour).
  std::size_t depth = 0;
  /// maybe_refill() tops the pool back up to `depth` once the stock falls
  /// below this. 0 means "only refill when empty".
  std::size_t low_watermark = 0;
};

class PresignaturePool {
 public:
  /// `dealer` must outlive the pool. `seed` seeds the pool's private RNG
  /// stream (the deal sequence is a pure function of it).
  PresignaturePool(const ThresholdEcdsaDealer& dealer, PresigPoolConfig config,
                   util::Rng rng);

  PresignaturePool(const PresignaturePool&) = delete;
  PresignaturePool& operator=(const PresignaturePool&) = delete;

  /// Next presignature in deal order. Falls back to online dealing when the
  /// pool is empty (see the backpressure policy above). Thread-safe.
  DealtPresignature take();

  /// Tops the pool up to config().depth (no-op when depth is 0 or the pool
  /// is already full). Thread-safe; concurrent refills serialize.
  void refill();

  /// refill(), but only when the stock is at/below the low watermark — the
  /// amortized top-up hook callers run after servicing demand.
  void maybe_refill();

  const PresigPoolConfig& config() const { return config_; }

  /// Currently precomputed presignatures.
  std::size_t size() const;

  // Lifetime statistics (also exported as tecdsa.pool.* metrics).
  std::uint64_t dealt_total() const { return dealt_total_.load(std::memory_order_relaxed); }
  std::uint64_t consumed_total() const { return consumed_total_.load(std::memory_order_relaxed); }
  std::uint64_t refills() const { return refills_.load(std::memory_order_relaxed); }
  std::uint64_t exhaustion_stalls() const {
    return exhaustion_stalls_.load(std::memory_order_relaxed);
  }

  /// Attaches tecdsa.pool.* gauges/counters (nullptr detaches). Attach while
  /// quiescent.
  void set_metrics(obs::MetricsRegistry* registry);
  /// Attaches tecdsa.presig.deal refill spans. The Tracer is single-threaded
  /// by contract: only attach when refill()/take() run on the tracer's
  /// thread.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Deals the next presignature in sequence. Caller holds deal_mu_.
  DealtPresignature deal_one_locked();
  void note_depth(std::size_t depth);

  const ThresholdEcdsaDealer& dealer_;
  PresigPoolConfig config_;

  /// Serializes all dealing (refills and exhaustion fallbacks) so rng_ is
  /// consumed in deal-sequence order. Never acquired while holding mu_.
  std::mutex deal_mu_;
  util::Rng rng_;              // guarded by deal_mu_
  std::uint64_t next_seq_ = 0; // guarded by deal_mu_

  mutable std::mutex mu_;
  std::deque<DealtPresignature> ready_;  // guarded by mu_, FIFO in seq order

  std::atomic<std::uint64_t> dealt_total_{0};
  std::atomic<std::uint64_t> consumed_total_{0};
  std::atomic<std::uint64_t> refills_{0};
  std::atomic<std::uint64_t> exhaustion_stalls_{0};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  // Resolved once in set_metrics; the registry guarantees pointer stability.
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* dealt_counter_ = nullptr;
  obs::Counter* consumed_counter_ = nullptr;
  obs::Counter* refills_counter_ = nullptr;
  obs::Counter* stalls_counter_ = nullptr;
};

}  // namespace icbtc::crypto
