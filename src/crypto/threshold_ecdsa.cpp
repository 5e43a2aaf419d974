#include "crypto/threshold_ecdsa.h"

#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "crypto/presig_pool.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "util/byteio.h"

namespace icbtc::crypto {

namespace {
U256 random_scalar_nonzero(util::Rng& rng) {
  for (;;) {
    auto bytes = rng.next_bytes(32);
    U256 v = U256::from_be_bytes(util::ByteSpan(bytes.data(), bytes.size()));
    if (!v.is_zero() && v < curve_order()) return v;
  }
}

U256 random_scalar(util::Rng& rng) {
  for (;;) {
    auto bytes = rng.next_bytes(32);
    U256 v = U256::from_be_bytes(util::ByteSpan(bytes.data(), bytes.size()));
    if (v < curve_order()) return v;
  }
}

AffinePoint apply_tweak(const AffinePoint& master_pubkey, const U256& tweak) {
  if (tweak.is_zero()) return master_pubkey;
  JacobianPoint p = JacobianPoint::from_affine(master_pubkey);
  return p.add_affine(generator_mul(tweak)).to_affine();
}
}  // namespace

U256 derivation_tweak(const AffinePoint& master_pubkey, const DerivationPath& path) {
  if (path.empty()) return U256(0);
  // tweak = H("icbtc-derive" || compressed(master) || len-prefixed components)
  // reduced mod n. Collision-resistant domain separation suffices here.
  Sha256 h;
  const char tag[] = "icbtc-derive";
  h.update(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(tag), sizeof(tag) - 1));
  auto mp = master_pubkey.compressed();
  h.update(util::ByteSpan(mp.data(), mp.size()));
  for (const auto& component : path) {
    util::ByteWriter w;
    w.u32le(static_cast<std::uint32_t>(component.size()));
    h.update(util::ByteSpan(w.data().data(), w.data().size()));
    h.update(util::ByteSpan(component.data(), component.size()));
  }
  return scalar_ctx().reduce(U256::from_be_bytes(h.finalize().span()));
}

AffinePoint derive_public_key(const AffinePoint& master_pubkey, const DerivationPath& path) {
  return apply_tweak(master_pubkey, derivation_tweak(master_pubkey, path));
}

ThresholdEcdsaDealer::ThresholdEcdsaDealer(std::uint32_t t, std::uint32_t n, util::Rng& rng)
    : t_(t), n_(n) {
  if (t == 0 || t > n) throw std::invalid_argument("ThresholdEcdsaDealer: need 1 <= t <= n");
  master_secret_ = random_scalar_nonzero(rng);
  master_pub_ = generator_mul(master_secret_);
  auto shares = shamir_split(master_secret_, t, n, rng);
  key_shares_.reserve(n);
  for (const auto& s : shares) key_shares_.push_back(KeyShare{s.index, s.value});
}

PresigRandomness ThresholdEcdsaDealer::draw_presig_randomness(util::Rng& rng) const {
  PresigRandomness out;
  out.k = random_scalar_nonzero(rng);
  out.w_coeffs.reserve(t_ - 1);
  out.mu_coeffs.reserve(t_ - 1);
  for (std::uint32_t i = 1; i < t_; ++i) out.w_coeffs.push_back(random_scalar(rng));
  for (std::uint32_t i = 1; i < t_; ++i) out.mu_coeffs.push_back(random_scalar(rng));
  return out;
}

std::pair<Presignature, std::vector<PresignatureShare>> ThresholdEcdsaDealer::deal_presignature_from(
    const PresigRandomness& randomness) const {
  const ModCtx& sc = scalar_ctx();
  U256 k = randomness.k;
  AffinePoint big_r;
  U256 r;
  for (;;) {
    big_r = generator_mul(k);
    r = sc.reduce(big_r.x);
    if (!r.is_zero()) break;
    // r = 0 has probability ~2^-224; re-derive k deterministically (no RNG —
    // this function must stay a pure function of `randomness`).
    Sha256 h;
    h.update(k.to_be_bytes().span());
    k = sc.reduce(U256::from_be_bytes(h.finalize().span()));
    if (k.is_zero()) k = U256(1);
  }
  U256 kinv = sc.inv(k);
  U256 mu = sc.mul(kinv, master_secret_);  // k^-1 * x

  std::vector<U256> w_coeffs;
  w_coeffs.reserve(t_);
  w_coeffs.push_back(kinv);
  for (const auto& c : randomness.w_coeffs) w_coeffs.push_back(c);
  std::vector<U256> mu_coeffs;
  mu_coeffs.reserve(t_);
  mu_coeffs.push_back(mu);
  for (const auto& c : randomness.mu_coeffs) mu_coeffs.push_back(c);

  auto w_shares = shamir_split_with_coeffs(w_coeffs, n_);
  auto mu_shares = shamir_split_with_coeffs(mu_coeffs, n_);
  std::vector<PresignatureShare> shares;
  shares.reserve(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    shares.push_back(PresignatureShare{w_shares[i].index, w_shares[i].value, mu_shares[i].value});
  }
  return {Presignature{big_r, r}, std::move(shares)};
}

std::pair<Presignature, std::vector<PresignatureShare>> ThresholdEcdsaDealer::deal_presignature(
    util::Rng& rng) const {
  return deal_presignature_from(draw_presig_randomness(rng));
}

namespace {

// Partial with the digest already reduced to a scalar; batch signing hoists
// the reduction out of the per-participant loop.
PartialSignature compute_partial_with_z(const PresignatureShare& pre, const Presignature& pub,
                                        const U256& tweak, const U256& z) {
  const ModCtx& sc = scalar_ctx();
  // s_i = z*w_i + r*(mu_i + tweak*w_i): shares of k^-1(z + r(x + tweak)).
  U256 mu_derived = sc.add(pre.mu_share, sc.mul(tweak, pre.w_share));
  U256 s_share = sc.add(sc.mul(z, pre.w_share), sc.mul(pub.r, mu_derived));
  return PartialSignature{pre.index, s_share};
}

}  // namespace

PartialSignature compute_partial_signature(const PresignatureShare& pre, const Presignature& pub,
                                           const U256& tweak, const util::Hash256& digest) {
  const ModCtx& sc = scalar_ctx();
  return compute_partial_with_z(pre, pub, tweak, sc.reduce(U256::from_be_bytes(digest.span())));
}

const char* to_string(CombineError e) {
  switch (e) {
    case CombineError::kOk: return "ok";
    case CombineError::kNoPartials: return "no partial signatures";
    case CombineError::kBadPartyId: return "invalid party id";
    case CombineError::kDuplicateParty: return "duplicate party id";
    case CombineError::kBelowThreshold: return "fewer partials than threshold";
    case CombineError::kInvalidSignature: return "invalid signature";
  }
  return "unknown";
}

CombineOutcome combine_partial_signatures_checked(
    const std::vector<PartialSignature>& partials, const Presignature& pub,
    const AffinePoint& derived_pubkey, const util::Hash256& digest, std::uint32_t threshold,
    const std::vector<U256>* precomputed_lambda, bool verify_result) {
  CombineOutcome out;
  if (partials.empty()) {
    out.error = CombineError::kNoPartials;
    return out;
  }
  std::vector<std::uint32_t> indices;
  std::unordered_set<std::uint32_t> seen;
  indices.reserve(partials.size());
  for (const auto& p : partials) {
    if (p.index == 0) {
      out.error = CombineError::kBadPartyId;
      return out;
    }
    if (!seen.insert(p.index).second) {
      out.error = CombineError::kDuplicateParty;
      return out;
    }
    indices.push_back(p.index);
  }
  if (partials.size() < threshold) {
    out.error = CombineError::kBelowThreshold;
    return out;
  }
  if (precomputed_lambda != nullptr && precomputed_lambda->size() != partials.size()) {
    throw std::invalid_argument("combine: precomputed lambda size mismatch");
  }
  const ModCtx& sc = scalar_ctx();
  std::vector<U256> lambda_storage;
  const std::vector<U256>* lambda = precomputed_lambda;
  if (lambda == nullptr) {
    lambda_storage = lagrange_coefficients_at_zero(indices);
    lambda = &lambda_storage;
  }
  U256 s(0);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    s = sc.add(s, sc.mul((*lambda)[i], partials[i].s_share));
  }
  if (s.is_zero()) {
    out.error = CombineError::kInvalidSignature;
    return out;
  }
  if (s > curve_order().shifted_right(1)) {
    s = curve_order() - s;
    out.s_negated = true;
  }
  Signature sig{pub.r, s};
  if (verify_result && !verify(derived_pubkey, digest, sig)) {
    out.error = CombineError::kInvalidSignature;
    out.s_negated = false;
    return out;
  }
  out.signature = sig;
  return out;
}

std::optional<Signature> combine_partial_signatures(const std::vector<PartialSignature>& partials,
                                                    const Presignature& pub,
                                                    const AffinePoint& derived_pubkey,
                                                    const util::Hash256& digest) {
  // Legacy semantics: any number >= 1 of partials is structurally accepted
  // (threshold 1); an insufficient set fails cryptographic verification.
  auto out = combine_partial_signatures_checked(partials, pub, derived_pubkey, digest,
                                                /*threshold=*/1);
  return out.signature;
}

ThresholdEcdsaService::ThresholdEcdsaService(std::uint32_t t, std::uint32_t n, std::uint64_t seed,
                                             ThresholdEcdsaServiceConfig config)
    : rng_(seed), dealer_(t, n, rng_), config_(config) {
  PresigPoolConfig pool_config;
  pool_config.depth = config_.pool_depth;
  pool_config.low_watermark = config_.pool_low_watermark;
  // The pool gets its own forked stream: its deal sequence is then a pure
  // function of `seed`, independent of any other use of rng_.
  pool_ = std::make_unique<PresignaturePool>(dealer_, pool_config, rng_.fork());
}

ThresholdEcdsaService::~ThresholdEcdsaService() = default;

std::uint32_t ThresholdEcdsaService::threshold() const { return dealer_.threshold(); }
std::uint32_t ThresholdEcdsaService::num_parties() const { return dealer_.num_parties(); }

std::uint64_t ThresholdEcdsaService::presignatures_used() const {
  return pool_->consumed_total();
}

void ThresholdEcdsaService::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  pool_->set_metrics(registry);
}

void ThresholdEcdsaService::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  pool_->set_tracer(tracer);
}

ThresholdEcdsaService::DerivedKey ThresholdEcdsaService::derived_for(
    const DerivationPath& path) const {
  DerivedKey d;
  d.tweak = derivation_tweak(dealer_.master_public_key(), path);
  if (config_.cache_derived_keys) {
    std::lock_guard<std::mutex> lk(derived_mu_);
    auto it = derived_cache_.find(d.tweak);
    if (it != derived_cache_.end()) {
      d.pubkey = it->second;
      return d;
    }
  }
  d.pubkey = apply_tweak(dealer_.master_public_key(), d.tweak);
  if (config_.cache_derived_keys) {
    std::lock_guard<std::mutex> lk(derived_mu_);
    derived_cache_.emplace(d.tweak, d.pubkey);
  }
  return d;
}

AffinePoint ThresholdEcdsaService::public_key(const DerivationPath& path) const {
  return derived_for(path).pubkey;
}

std::vector<std::uint32_t> ThresholdEcdsaService::signing_set(
    const std::vector<std::uint32_t>& participants) const {
  if (participants.size() < dealer_.threshold()) {
    throw std::invalid_argument("threshold sign: not enough participants");
  }
  std::unordered_set<std::uint32_t> seen;
  for (auto i : participants) {
    if (i == 0 || i > dealer_.num_parties() || !seen.insert(i).second) {
      throw std::invalid_argument("threshold sign: bad participant index");
    }
  }
  return std::vector<std::uint32_t>(participants.begin(),
                                    participants.begin() + dealer_.threshold());
}

std::vector<std::uint32_t> ThresholdEcdsaService::default_participants() const {
  std::vector<std::uint32_t> participants;
  participants.reserve(dealer_.threshold());
  for (std::uint32_t i = 1; i <= dealer_.threshold(); ++i) participants.push_back(i);
  return participants;
}

Signature ThresholdEcdsaService::sign_with(DealtPresignature& presig, const util::Hash256& digest,
                                           const DerivationPath& path,
                                           const std::vector<std::uint32_t>& signing) {
  if (presig.consumed) {
    throw std::logic_error("threshold sign: presignature already consumed (nonce reuse)");
  }
  presig.consumed = true;
  DerivedKey derived = derived_for(path);
  const U256 z = scalar_ctx().reduce(U256::from_be_bytes(digest.span()));
  std::vector<PartialSignature> partials;
  partials.reserve(signing.size());
  for (auto i : signing) {
    partials.push_back(compute_partial_with_z(presig.shares[i - 1], presig.pub, derived.tweak, z));
  }
  auto outcome = combine_partial_signatures_checked(partials, presig.pub, derived.pubkey, digest,
                                                    dealer_.threshold());
  if (!outcome.ok()) {
    throw std::runtime_error(std::string("threshold sign: combination failed: ") +
                             to_string(outcome.error));
  }
  return *outcome.signature;
}

Signature ThresholdEcdsaService::sign(const util::Hash256& digest, const DerivationPath& path,
                                      const std::vector<std::uint32_t>& participants) {
  auto signing = signing_set(participants);
  obs::ScopedSpan span(tracer_, "tecdsa.sign", "crypto");
  DealtPresignature presig = pool_->take();
  Signature sig = sign_with(presig, digest, path, signing);
  if (metrics_ != nullptr) metrics_->counter("tecdsa.sign.requests").inc();
  pool_->maybe_refill();
  return sig;
}

Signature ThresholdEcdsaService::sign(const util::Hash256& digest, const DerivationPath& path) {
  return sign(digest, path, default_participants());
}

Signature ThresholdEcdsaService::sign_prepared(const util::Hash256& digest,
                                               const DerivationPath& path,
                                               DealtPresignature& presig,
                                               const std::vector<std::uint32_t>& participants) {
  return sign_with(presig, digest, path, signing_set(participants));
}

std::vector<Signature> ThresholdEcdsaService::sign_batch(
    const std::vector<SignRequest>& requests, const std::vector<std::uint32_t>& participants) {
  auto signing = signing_set(participants);
  if (requests.empty()) return {};
  const std::size_t n = requests.size();

  obs::ScopedSpan span(tracer_, "tecdsa.sign", "crypto");
  span.attr("batch_size", static_cast<std::uint64_t>(n));

  // Consume presignatures in request order — element i of the batch signs
  // with exactly the presignature sign() would have used for the i-th call.
  std::vector<DealtPresignature> presigs;
  presigs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) presigs.push_back(pool_->take());

  // One Lagrange coefficient set for the whole batch (one modular inversion
  // total), and one derived-key lookup per request on the calling thread.
  std::vector<U256> lambda = lagrange_coefficients_at_zero(signing);
  std::vector<DerivedKey> derived;
  derived.reserve(n);
  for (const auto& req : requests) derived.push_back(derived_for(req.path));

  struct PerRequest {
    Signature sig;
    bool s_negated = false;
    CombineError error = CombineError::kOk;
  };
  std::vector<PerRequest> results(n);
  std::shared_ptr<parallel::ThreadPool> pool_ref = parallel::shared_pool_ref();
  parallel::parallel_for(pool_ref.get(), n, [&](std::size_t i) {
    DealtPresignature& presig = presigs[i];
    presig.consumed = true;
    const U256 z = scalar_ctx().reduce(U256::from_be_bytes(requests[i].digest.span()));
    std::vector<PartialSignature> partials;
    partials.reserve(signing.size());
    for (auto p : signing) {
      partials.push_back(compute_partial_with_z(presig.shares[p - 1], presig.pub,
                                                derived[i].tweak, z));
    }
    auto outcome =
        combine_partial_signatures_checked(partials, presig.pub, derived[i].pubkey,
                                           requests[i].digest, dealer_.threshold(), &lambda,
                                           /*verify_result=*/false);
    if (!outcome.ok()) {
      results[i].error = outcome.error;
      return;
    }
    results[i] = PerRequest{*outcome.signature, outcome.s_negated, CombineError::kOk};
  });

  for (const auto& res : results) {
    if (res.error != CombineError::kOk) {
      throw std::runtime_error(std::string("threshold sign_batch: combination failed: ") +
                               to_string(res.error));
    }
  }

  // One batched verification for the whole batch, in the tweaked form: every
  // derived key is master + tweak·G, so the multiexp stays at n + 2 points
  // however many distinct paths the batch spans. If it fails, verify
  // individually to point at the corrupt signature.
  std::vector<TweakedBatchVerifyEntry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AffinePoint big_r =
        results[i].s_negated ? presigs[i].pub.big_r.negated() : presigs[i].pub.big_r;
    entries.push_back(TweakedBatchVerifyEntry{derived[i].tweak, requests[i].digest,
                                              results[i].sig, big_r});
  }
  if (!batch_verify_tweaked(dealer_.master_public_key(), entries)) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!verify(derived[i].pubkey, requests[i].digest, results[i].sig)) {
        throw std::runtime_error("threshold sign_batch: signature " + std::to_string(i) +
                                 " failed verification");
      }
    }
    throw std::runtime_error("threshold sign_batch: batch verification failed");
  }

  if (metrics_ != nullptr) {
    metrics_->counter("tecdsa.sign.requests").inc(n);
    metrics_->counter("tecdsa.sign.batches").inc();
  }
  pool_->maybe_refill();

  std::vector<Signature> sigs;
  sigs.reserve(n);
  for (const auto& res : results) sigs.push_back(res.sig);
  return sigs;
}

std::vector<Signature> ThresholdEcdsaService::sign_batch(const std::vector<SignRequest>& requests) {
  return sign_batch(requests, default_participants());
}

}  // namespace icbtc::crypto
