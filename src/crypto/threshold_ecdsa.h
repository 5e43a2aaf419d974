// Threshold-ECDSA signing service.
//
// The IC runs the Groth–Shoup distributed ECDSA protocol [3]: key shares are
// dealt by a DKG, presignature "quadruples" are produced by an asynchronous
// MPC, and any 2f+1 of 3f+1 replicas can produce a signature. Reproducing the
// MPC is out of scope (the paper treats it as a black box); what matters to
// the architecture is the *interface* — per-replica key shares, per-signature
// presignatures, locally computed partial signatures, and public
// recombination that tolerates missing or corrupt partials.
//
// This module reproduces exactly that structure with a trusted dealer
// standing in for the DKG/MPC:
//   - the master key x is Shamir-shared (degree t-1) into x_i,
//   - a presignature deals shares w_i of k^-1 and mu_i of k^-1 * x for a
//     fresh nonce k with R = k*G public,
//   - replica i computes the partial signature s_i = z*w_i + r*mu_i
//     (plus tweak*w_i for derived keys),
//   - any t partials interpolate to s = k^-1 (z + r*x), a standard ECDSA
//     signature verifiable under the (derived) public key.
//
// Production IC tECDSA hides the expensive quadruple generation behind an
// offline pool consumed per request; ThresholdEcdsaService mirrors that: all
// presignature material flows through a PresignaturePool (depth 0 degrades
// to per-request online dealing), consumption order is the deal order, and
// sign_batch() signs many requests in one pass — shared Lagrange
// coefficients, pooled partial computation, and one batched verification.
//
// Derived keys use additive tweaks (BIP32-style, non-hardened): each canister
// obtains its own Bitcoin key under the subnet master key.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ecdsa.h"
#include "crypto/shamir.h"
#include "util/rng.h"

namespace icbtc::obs {
class MetricsRegistry;
class Tracer;
}  // namespace icbtc::obs

namespace icbtc::crypto {

class PresignaturePool;
struct PresigPoolConfig;

/// A derivation path, as in the IC's `ecdsa_public_key`/`sign_with_ecdsa`
/// management-canister API: arbitrary byte-string components.
using DerivationPath = std::vector<util::Bytes>;

/// Additive scalar tweak for a derivation path under a master public key.
U256 derivation_tweak(const AffinePoint& master_pubkey, const DerivationPath& path);

/// Per-replica long-term key share.
struct KeyShare {
  std::uint32_t index = 0;
  U256 x_share;
};

/// Per-signature presignature material for one replica.
struct PresignatureShare {
  std::uint32_t index = 0;
  U256 w_share;   // share of k^-1
  U256 mu_share;  // share of k^-1 * x (master x)
};

/// Public part of a presignature.
struct Presignature {
  AffinePoint big_r;  // R = k*G
  U256 r;             // R.x mod n
};

/// A replica's contribution to one signature.
struct PartialSignature {
  std::uint32_t index = 0;
  U256 s_share;
};

/// Randomness for one presignature deal, drawn up front: the nonce k plus
/// the random (degree >= 1) coefficients of the two sharing polynomials.
/// Dealing from it is a pure function, so a refill can draw serially (fixing
/// the RNG stream and hence the deal sequence) and compute in parallel.
struct PresigRandomness {
  U256 k;
  std::vector<U256> w_coeffs;   // t-1 coefficients for the k^-1 sharing
  std::vector<U256> mu_coeffs;  // t-1 coefficients for the k^-1 * x sharing
};

/// A dealt presignature ready for consumption: public part plus every
/// party's shares, tagged with its position in the deal sequence. Single-use
/// by construction — ThresholdEcdsaService::sign_prepared marks it consumed
/// and rejects reuse (nonce reuse leaks the master key).
struct DealtPresignature {
  std::uint64_t seq = 0;
  Presignature pub;
  std::vector<PresignatureShare> shares;
  bool consumed = false;
};

/// Trusted dealer simulating DKG + quadruple generation.
class ThresholdEcdsaDealer {
 public:
  /// Deals a t-of-n sharing of a fresh master key.
  ThresholdEcdsaDealer(std::uint32_t t, std::uint32_t n, util::Rng& rng);

  std::uint32_t threshold() const { return t_; }
  std::uint32_t num_parties() const { return n_; }
  const AffinePoint& master_public_key() const { return master_pub_; }
  const std::vector<KeyShare>& key_shares() const { return key_shares_; }

  /// Produces a fresh presignature: public (R, r) plus one share per party.
  std::pair<Presignature, std::vector<PresignatureShare>> deal_presignature(util::Rng& rng) const;

  /// Phase 1 of dealing: draws the nonce and polynomial coefficients. The
  /// only part that touches the RNG.
  PresigRandomness draw_presig_randomness(util::Rng& rng) const;

  /// Phase 2: the expensive, deterministic computation (nonce point, modular
  /// inversion, share evaluation). Pure function of `randomness`, safe to run
  /// on any thread.
  std::pair<Presignature, std::vector<PresignatureShare>> deal_presignature_from(
      const PresigRandomness& randomness) const;

 private:
  std::uint32_t t_;
  std::uint32_t n_;
  U256 master_secret_;
  AffinePoint master_pub_;
  std::vector<KeyShare> key_shares_;
};

/// Public key for a derivation path under a master key.
AffinePoint derive_public_key(const AffinePoint& master_pubkey, const DerivationPath& path);

/// Replica-local partial-signature computation. `tweak` is the derivation
/// tweak of the signing path (0 for the master key).
PartialSignature compute_partial_signature(const PresignatureShare& pre, const Presignature& pub,
                                           const U256& tweak, const util::Hash256& digest);

/// Why a recombination failed. Structural defects (bad ids, too few shares)
/// are distinguished from cryptographic failure so callers can tell a
/// protocol violation from a Byzantine contribution without waiting for an
/// expensive verification to fail.
enum class CombineError {
  kOk = 0,
  kNoPartials,         // empty input
  kBadPartyId,         // a party index of 0 (not a valid share x-coordinate)
  kDuplicateParty,     // the same party contributed twice
  kBelowThreshold,     // fewer than `threshold` distinct partials
  kInvalidSignature,   // interpolation produced s = 0 or verification failed
};

const char* to_string(CombineError e);

/// Result of combine_partial_signatures_checked. `s_negated` reports whether
/// low-s normalization flipped s — the nonce point satisfying the final
/// signature is then -R, which batched verification needs to know.
struct CombineOutcome {
  std::optional<Signature> signature;
  CombineError error = CombineError::kOk;
  bool s_negated = false;

  bool ok() const { return error == CombineError::kOk; }
};

/// Combines partial signatures into a full signature. Rejects malformed
/// input (zero/duplicate party ids, fewer than `threshold` partials) with a
/// distinct error before doing any expensive math. With `precomputed_lambda`
/// the caller supplies the Lagrange coefficients for the partials' index set
/// (in partials order) — shared across a batch signed by one participant
/// set. With verify_result = false the (costly) ECDSA verification is
/// skipped; callers must then verify by other means (e.g. batch_verify).
CombineOutcome combine_partial_signatures_checked(
    const std::vector<PartialSignature>& partials, const Presignature& pub,
    const AffinePoint& derived_pubkey, const util::Hash256& digest, std::uint32_t threshold,
    const std::vector<U256>* precomputed_lambda = nullptr, bool verify_result = true);

/// Legacy interface: combines >= 1 partial signatures and verifies against
/// the derived public key; nullopt on any failure.
std::optional<Signature> combine_partial_signatures(const std::vector<PartialSignature>& partials,
                                                    const Presignature& pub,
                                                    const AffinePoint& derived_pubkey,
                                                    const util::Hash256& digest);

/// Service configuration. The defaults reproduce the IC's shape: a modest
/// offline pool refilled at a low watermark, derived keys cached.
struct ThresholdEcdsaServiceConfig {
  /// Presignature pool depth (0 = deal online inside every sign call, the
  /// pre-pool behaviour) and refill trigger; see PresigPoolConfig.
  std::size_t pool_depth = 0;
  std::size_t pool_low_watermark = 0;
  /// Cache each derivation path's public key, keyed by the path's tweak.
  /// Contracts sign many times under one path; the derivation costs a point
  /// multiplication, the tweak one hash.
  bool cache_derived_keys = true;
};

/// Convenience façade: holds the dealer and replicas, exposes the
/// management-canister-style API. All presignatures flow through an internal
/// PresignaturePool in deal order, so for a fixed seed the k-th signing
/// request consumes the k-th dealt presignature no matter when refills run —
/// signatures are reproducible across pool depths and refill timing.
///
/// Thread safety: sign()/sign_batch()/public_key() may be called
/// concurrently (the pool, derived-key cache, and counters are internally
/// synchronized); attach metrics/tracers only while quiescent, and tracers
/// only when all signing happens on one thread (the Tracer is
/// single-threaded by contract).
class ThresholdEcdsaService {
 public:
  ThresholdEcdsaService(std::uint32_t t, std::uint32_t n, std::uint64_t seed,
                        ThresholdEcdsaServiceConfig config = {});
  ~ThresholdEcdsaService();

  ThresholdEcdsaService(const ThresholdEcdsaService&) = delete;
  ThresholdEcdsaService& operator=(const ThresholdEcdsaService&) = delete;

  AffinePoint public_key(const DerivationPath& path) const;

  /// Signs with the replicas listed in `participants` (must be >= t distinct
  /// indices). Throws std::invalid_argument on malformed participant sets.
  Signature sign(const util::Hash256& digest, const DerivationPath& path,
                 const std::vector<std::uint32_t>& participants);

  /// Signs with the first t replicas.
  Signature sign(const util::Hash256& digest, const DerivationPath& path);

  /// One pending sign_with_ecdsa call.
  struct SignRequest {
    util::Hash256 digest;
    DerivationPath path;
  };

  /// Signs every request in one pass: presignatures are consumed in request
  /// order, Lagrange coefficients are computed once for the participant set,
  /// partial signatures for the whole batch are computed in parallel when a
  /// shared thread pool is installed, and the results are verified together
  /// with one batched verification (falling back to per-signature checks to
  /// identify corrupt results if the batch check fails). Element i of the
  /// result is byte-identical to what sign() would have produced for request
  /// i at the same point in the consumption sequence.
  std::vector<Signature> sign_batch(const std::vector<SignRequest>& requests,
                                    const std::vector<std::uint32_t>& participants);
  std::vector<Signature> sign_batch(const std::vector<SignRequest>& requests);

  /// Signs with an explicitly provided presignature (consumed by this call).
  /// Throws std::logic_error if `presig` was already consumed — the k-reuse
  /// guard.
  Signature sign_prepared(const util::Hash256& digest, const DerivationPath& path,
                          DealtPresignature& presig,
                          const std::vector<std::uint32_t>& participants);

  std::uint32_t threshold() const;
  std::uint32_t num_parties() const;
  const ThresholdEcdsaDealer& dealer() const { return dealer_; }

  /// The offline presignature pool feeding sign()/sign_batch().
  PresignaturePool& pool() { return *pool_; }
  const PresignaturePool& pool() const { return *pool_; }

  /// Number of presignatures consumed so far (each signature uses exactly
  /// one, matching the IC's quadruple consumption).
  std::uint64_t presignatures_used() const;

  /// Attaches tecdsa.* metrics / trace spans (nullptr detaches).
  void set_metrics(obs::MetricsRegistry* registry);
  void set_tracer(obs::Tracer* tracer);

 private:
  struct DerivedKey {
    U256 tweak;
    AffinePoint pubkey;
  };

  /// Validates and truncates to the first `threshold` participant indices.
  std::vector<std::uint32_t> signing_set(const std::vector<std::uint32_t>& participants) const;
  std::vector<std::uint32_t> default_participants() const;
  DerivedKey derived_for(const DerivationPath& path) const;
  Signature sign_with(DealtPresignature& presig, const util::Hash256& digest,
                      const DerivationPath& path, const std::vector<std::uint32_t>& signing);

  util::Rng rng_;
  ThresholdEcdsaDealer dealer_;
  ThresholdEcdsaServiceConfig config_;
  std::unique_ptr<PresignaturePool> pool_;

  mutable std::mutex derived_mu_;
  mutable std::map<U256, AffinePoint> derived_cache_;  // tweak -> derived public key

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::crypto
