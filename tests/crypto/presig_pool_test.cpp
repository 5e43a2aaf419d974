// Presignature pool + batched signing pipeline tests: determinism across
// pool depths and refill timing, the nonce-safety (single-use) guarantees,
// exhaustion backpressure, and the batched verification primitives.
#include "crypto/presig_pool.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace icbtc::crypto {
namespace {

util::Hash256 digest_of(const std::string& s) {
  return Sha256::hash(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

ThresholdEcdsaServiceConfig pooled(std::size_t depth, std::size_t watermark = 0) {
  ThresholdEcdsaServiceConfig config;
  config.pool_depth = depth;
  config.pool_low_watermark = watermark;
  return config;
}

// ---------------------------------------------------------------------------
// Determinism: the k-th signature is a pure function of (seed, k) no matter
// how presignatures were dealt — online, prefilled, or refilled mid-stream.
// ---------------------------------------------------------------------------

TEST(PresigPoolTest, SignaturesIdenticalAcrossPoolDepths) {
  constexpr std::uint64_t kSeed = 7001;
  constexpr int kSigns = 12;
  std::vector<std::vector<Signature>> runs;
  for (std::size_t depth : {std::size_t{0}, std::size_t{3}, std::size_t{64}}) {
    ThresholdEcdsaService service(3, 5, kSeed, pooled(depth, depth / 2));
    service.pool().refill();
    std::vector<Signature> sigs;
    for (int i = 0; i < kSigns; ++i) {
      sigs.push_back(service.sign(digest_of("msg " + std::to_string(i)), {{0x01}}));
    }
    runs.push_back(std::move(sigs));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(PresigPoolTest, SignaturesIdenticalAcrossRefillTiming) {
  constexpr std::uint64_t kSeed = 7002;
  constexpr int kSigns = 10;
  // Run A: refill only via the low-watermark hook. Run B: manual refill()
  // after every signature. Run C: never refill (every take falls back to
  // online dealing after the prefill drains).
  std::vector<std::vector<Signature>> runs;
  for (int mode = 0; mode < 3; ++mode) {
    ThresholdEcdsaService service(3, 5, kSeed, pooled(4, mode == 0 ? 2 : 0));
    if (mode != 2) service.pool().refill();
    std::vector<Signature> sigs;
    for (int i = 0; i < kSigns; ++i) {
      sigs.push_back(service.sign(digest_of("msg " + std::to_string(i)), {}));
      if (mode == 1) service.pool().refill();
    }
    runs.push_back(std::move(sigs));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(PresigPoolTest, BatchMatchesSerialByteForByte) {
  constexpr std::uint64_t kSeed = 7003;
  constexpr int kSigns = 9;
  std::vector<ThresholdEcdsaService::SignRequest> requests;
  for (int i = 0; i < kSigns; ++i) {
    requests.push_back({digest_of("req " + std::to_string(i)),
                        DerivationPath{{static_cast<std::uint8_t>(i % 3)}}});
  }
  ThresholdEcdsaService serial(3, 5, kSeed, pooled(16));
  serial.pool().refill();
  std::vector<Signature> expect;
  for (const auto& r : requests) expect.push_back(serial.sign(r.digest, r.path));

  ThresholdEcdsaService batched(3, 5, kSeed, pooled(16));
  batched.pool().refill();
  std::vector<Signature> got = batched.sign_batch(requests);
  EXPECT_EQ(got, expect);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(verify(batched.public_key(requests[i].path), requests[i].digest, got[i]));
  }
}

TEST(PresigPoolTest, BatchWorksWithSharedThreadPool) {
  parallel::set_shared_pool(3);
  std::vector<ThresholdEcdsaService::SignRequest> requests;
  for (int i = 0; i < 17; ++i) {
    requests.push_back({digest_of(std::string("p").append(std::to_string(i))), {}});
  }
  ThresholdEcdsaService with_pool(3, 5, 7004, pooled(32));
  with_pool.pool().refill();
  auto sigs_parallel = with_pool.sign_batch(requests);
  parallel::set_shared_pool(0);
  ThresholdEcdsaService without_pool(3, 5, 7004, pooled(32));
  without_pool.pool().refill();
  auto sigs_serial = without_pool.sign_batch(requests);
  EXPECT_EQ(sigs_parallel, sigs_serial);
}

// ---------------------------------------------------------------------------
// Nonce safety: a presignature is consumed exactly once, and two different
// digests never see the same nonce point R.
// ---------------------------------------------------------------------------

TEST(PresigPoolTest, ConsumedPresignatureCannotBeReused) {
  ThresholdEcdsaService service(2, 3, 7010, pooled(4));
  service.pool().refill();
  DealtPresignature presig = service.pool().take();
  Signature first = service.sign_prepared(digest_of("a"), {}, presig, {1, 2});
  EXPECT_TRUE(verify(service.public_key({}), digest_of("a"), first));
  EXPECT_TRUE(presig.consumed);
  EXPECT_THROW(service.sign_prepared(digest_of("b"), {}, presig, {1, 2}), std::logic_error);
  // Even re-signing the same digest must be rejected: the guard is on the
  // presignature, not the message.
  EXPECT_THROW(service.sign_prepared(digest_of("a"), {}, presig, {1, 2}), std::logic_error);
}

TEST(PresigPoolTest, NonceNeverRepeatsAcrossRandomizedRun) {
  // Randomized workload mixing single signs, batches, refills, and
  // exhaustion fallbacks: every take() must yield a fresh seq and a fresh
  // nonce point; the r component must never repeat across distinct digests.
  util::Rng driver(7011);
  ThresholdEcdsaService service(3, 5, 7011, pooled(6, 3));
  service.pool().refill();
  std::set<util::FixedBytes<32>> seen_r;
  std::set<std::uint64_t> seen_seq;
  int produced = 0;
  auto note = [&](const Signature& sig) {
    EXPECT_TRUE(seen_r.insert(sig.r.to_be_bytes()).second) << "nonce r repeated";
  };
  while (produced < 80) {
    switch (driver.next_below(4)) {
      case 0: {  // direct pool take: seq must be fresh
        DealtPresignature p = service.pool().take();
        EXPECT_TRUE(seen_seq.insert(p.seq).second) << "presignature seq repeated";
        note(service.sign_prepared(digest_of("take " + std::to_string(produced)), {}, p,
                                   {1, 2, 3}));
        ++produced;
        break;
      }
      case 1:
        note(service.sign(digest_of("single " + std::to_string(produced)), {{0x07}}));
        ++produced;
        break;
      case 2: {
        std::vector<ThresholdEcdsaService::SignRequest> requests;
        auto batch = static_cast<int>(driver.next_range(2, 9));
        for (int i = 0; i < batch; ++i) {
          requests.push_back({digest_of("batch " + std::to_string(produced) + ":" +
                                        std::to_string(i)),
                              {}});
        }
        for (const auto& sig : service.sign_batch(requests)) note(sig);
        produced += batch;
        break;
      }
      default:
        service.pool().refill();
        break;
    }
  }
  EXPECT_EQ(seen_r.size(), static_cast<std::size_t>(produced));
}

// ---------------------------------------------------------------------------
// Backpressure: bursts larger than the pool depth drain it, fall back to
// online dealing (the documented policy), refill, and still verify.
// ---------------------------------------------------------------------------

TEST(PresigPoolTest, BurstLargerThanDepthFallsBackToOnlineDealing) {
  constexpr std::size_t kDepth = 4;
  ThresholdEcdsaService service(3, 5, 7020, pooled(kDepth, 2));
  obs::MetricsRegistry metrics;
  service.set_metrics(&metrics);
  service.pool().refill();
  EXPECT_EQ(service.pool().size(), kDepth);

  std::vector<ThresholdEcdsaService::SignRequest> burst;
  for (int i = 0; i < 3 * static_cast<int>(kDepth); ++i) {
    burst.push_back({digest_of("burst " + std::to_string(i)), {}});
  }
  auto sigs = service.sign_batch(burst);
  ASSERT_EQ(sigs.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_TRUE(verify(service.public_key({}), burst[i].digest, sigs[i]));
  }
  // The burst exceeded the stock: the overflow dealt online and was counted.
  EXPECT_GE(service.pool().exhaustion_stalls(), burst.size() - kDepth);
  EXPECT_EQ(metrics.counters().at("tecdsa.pool.exhaustion_stalls").value(),
            service.pool().exhaustion_stalls());
  // maybe_refill after the batch restocked the pool past the watermark.
  EXPECT_GT(service.pool().size(), 2u);
  EXPECT_GE(service.pool().refills(), 1u);
  EXPECT_EQ(service.pool().consumed_total(), burst.size());
}

TEST(PresigPoolTest, ConcurrentTakesYieldDistinctPresignatures) {
  // Exercised under TSan in CI: concurrent take() against a small pool, with
  // refills racing the exhaustion fallback.
  parallel::set_shared_pool(3);
  util::Rng rng(7021);
  ThresholdEcdsaDealer dealer(2, 3, rng);
  PresigPoolConfig config;
  config.depth = 8;
  config.low_watermark = 4;
  PresignaturePool pool(dealer, config, rng.fork());
  pool.refill();

  constexpr int kThreads = 4;
  constexpr int kTakesPerThread = 12;
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &seqs, t] {
      for (int i = 0; i < kTakesPerThread; ++i) {
        DealtPresignature p = pool.take();
        seqs[static_cast<std::size_t>(t)].push_back(p.seq);
        if (p.seq % 5 == 0) pool.maybe_refill();
      }
    });
  }
  for (auto& th : threads) th.join();
  parallel::set_shared_pool(0);

  std::set<std::uint64_t> all;
  for (const auto& per_thread : seqs) {
    for (auto s : per_thread) EXPECT_TRUE(all.insert(s).second) << "seq " << s << " duplicated";
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kTakesPerThread));
  EXPECT_EQ(pool.consumed_total(), all.size());
  EXPECT_GE(pool.dealt_total(), all.size());
}

// ---------------------------------------------------------------------------
// combine_partial_signatures_checked: distinct structural errors.
// ---------------------------------------------------------------------------

class CombineCheckedTest : public ::testing::Test {
 protected:
  CombineCheckedTest() : rng_(7030), dealer_(3, 5, rng_) {
    std::tie(pub_, shares_) = dealer_.deal_presignature(rng_);
    digest_ = digest_of("combine");
    for (int i = 0; i < 3; ++i) {
      partials_.push_back(
          compute_partial_signature(shares_[static_cast<std::size_t>(i)], pub_, U256(0),
                                    digest_));
    }
  }

  util::Rng rng_;
  ThresholdEcdsaDealer dealer_;
  Presignature pub_;
  std::vector<PresignatureShare> shares_;
  util::Hash256 digest_;
  std::vector<PartialSignature> partials_;
};

TEST_F(CombineCheckedTest, AcceptsThresholdPartials) {
  auto out = combine_partial_signatures_checked(partials_, pub_, dealer_.master_public_key(),
                                                digest_, 3);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.signature.has_value());
  EXPECT_TRUE(verify(dealer_.master_public_key(), digest_, *out.signature));
}

TEST_F(CombineCheckedTest, EmptyInputIsNoPartials) {
  auto out = combine_partial_signatures_checked({}, pub_, dealer_.master_public_key(), digest_, 3);
  EXPECT_EQ(out.error, CombineError::kNoPartials);
  EXPECT_FALSE(out.signature.has_value());
}

TEST_F(CombineCheckedTest, ZeroPartyIdIsBadPartyId) {
  auto bad = partials_;
  bad[1].index = 0;
  auto out =
      combine_partial_signatures_checked(bad, pub_, dealer_.master_public_key(), digest_, 3);
  EXPECT_EQ(out.error, CombineError::kBadPartyId);
}

TEST_F(CombineCheckedTest, DuplicatePartyIsDistinctFromBadParty) {
  auto dup = partials_;
  dup[2] = dup[0];
  auto out =
      combine_partial_signatures_checked(dup, pub_, dealer_.master_public_key(), digest_, 3);
  EXPECT_EQ(out.error, CombineError::kDuplicateParty);
}

TEST_F(CombineCheckedTest, FewerThanThresholdIsBelowThreshold) {
  auto few = partials_;
  few.resize(2);
  auto out =
      combine_partial_signatures_checked(few, pub_, dealer_.master_public_key(), digest_, 3);
  EXPECT_EQ(out.error, CombineError::kBelowThreshold);
}

TEST_F(CombineCheckedTest, CorruptPartialIsInvalidSignature) {
  auto corrupt = partials_;
  corrupt[0].s_share = scalar_ctx().add(corrupt[0].s_share, U256(1));
  auto out = combine_partial_signatures_checked(corrupt, pub_, dealer_.master_public_key(),
                                                digest_, 3);
  EXPECT_EQ(out.error, CombineError::kInvalidSignature);
}

TEST_F(CombineCheckedTest, ErrorStringsAreDistinct) {
  std::set<std::string> names;
  for (auto e : {CombineError::kOk, CombineError::kNoPartials, CombineError::kBadPartyId,
                 CombineError::kDuplicateParty, CombineError::kBelowThreshold,
                 CombineError::kInvalidSignature}) {
    EXPECT_TRUE(names.insert(to_string(e)).second);
  }
}

TEST_F(CombineCheckedTest, PrecomputedLambdaMatchesOnTheFly) {
  std::vector<std::uint32_t> indices;
  for (const auto& p : partials_) indices.push_back(p.index);
  auto lambda = lagrange_coefficients_at_zero(indices);
  auto with = combine_partial_signatures_checked(partials_, pub_, dealer_.master_public_key(),
                                                 digest_, 3, &lambda);
  auto without = combine_partial_signatures_checked(partials_, pub_, dealer_.master_public_key(),
                                                    digest_, 3);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(*with.signature, *without.signature);
}

// ---------------------------------------------------------------------------
// Batched verification + multiexp primitives.
// ---------------------------------------------------------------------------

TEST(BatchVerifyTest, AcceptsValidBatchAndFlagsNegatedNonces) {
  util::Rng rng(7040);
  ThresholdEcdsaDealer dealer(2, 3, rng);
  std::vector<BatchVerifyEntry> entries;
  bool saw_negated = false;
  for (int i = 0; i < 12; ++i) {
    auto [pub, shares] = dealer.deal_presignature(rng);
    auto digest = digest_of("bv " + std::to_string(i));
    std::vector<PartialSignature> partials = {
        compute_partial_signature(shares[0], pub, U256(0), digest),
        compute_partial_signature(shares[1], pub, U256(0), digest),
    };
    auto out = combine_partial_signatures_checked(partials, pub, dealer.master_public_key(),
                                                  digest, 2, nullptr, /*verify_result=*/false);
    ASSERT_TRUE(out.ok());
    saw_negated = saw_negated || out.s_negated;
    entries.push_back(BatchVerifyEntry{dealer.master_public_key(), digest, *out.signature,
                                       out.s_negated ? pub.big_r.negated() : pub.big_r});
  }
  // Over 12 signatures the probability that no s was flipped is 2^-12; the
  // negated-R path is all but guaranteed to be exercised.
  EXPECT_TRUE(saw_negated);
  EXPECT_TRUE(batch_verify(entries));
}

TEST(BatchVerifyTest, RejectsSingleCorruptEntry) {
  util::Rng rng(7041);
  ThresholdEcdsaDealer dealer(2, 3, rng);
  std::vector<BatchVerifyEntry> entries;
  for (int i = 0; i < 6; ++i) {
    auto [pub, shares] = dealer.deal_presignature(rng);
    auto digest = digest_of("corrupt " + std::to_string(i));
    std::vector<PartialSignature> partials = {
        compute_partial_signature(shares[0], pub, U256(0), digest),
        compute_partial_signature(shares[1], pub, U256(0), digest),
    };
    auto out = combine_partial_signatures_checked(partials, pub, dealer.master_public_key(),
                                                  digest, 2, nullptr, false);
    ASSERT_TRUE(out.ok());
    entries.push_back(BatchVerifyEntry{dealer.master_public_key(), digest, *out.signature,
                                       out.s_negated ? pub.big_r.negated() : pub.big_r});
  }
  ASSERT_TRUE(batch_verify(entries));
  // Flip one digest: the whole batch must fail.
  entries[3].digest = digest_of("tampered");
  EXPECT_FALSE(batch_verify(entries));
}

TEST(BatchVerifyTest, RejectsMismatchedNoncePoint) {
  util::Rng rng(7042);
  ThresholdEcdsaDealer dealer(2, 3, rng);
  auto [pub, shares] = dealer.deal_presignature(rng);
  auto digest = digest_of("nonce mismatch");
  std::vector<PartialSignature> partials = {
      compute_partial_signature(shares[0], pub, U256(0), digest),
      compute_partial_signature(shares[1], pub, U256(0), digest),
  };
  auto out = combine_partial_signatures_checked(partials, pub, dealer.master_public_key(),
                                                digest, 2, nullptr, false);
  ASSERT_TRUE(out.ok());
  // Claiming the wrong sign of R must be caught by the R.x == r consistency
  // check (the two candidates share x, so this exercises the multiexp).
  BatchVerifyEntry entry{dealer.master_public_key(), digest, *out.signature,
                         out.s_negated ? pub.big_r : pub.big_r.negated()};
  EXPECT_FALSE(batch_verify({entry}));
}

TEST(BatchVerifyTest, EmptyBatchVerifies) { EXPECT_TRUE(batch_verify({})); }

TEST(BatchVerifyTest, TweakedVariantAcceptsDerivedKeysAndRejectsTampering) {
  util::Rng rng(7043);
  ThresholdEcdsaDealer dealer(2, 3, rng);
  std::vector<TweakedBatchVerifyEntry> entries;
  for (int i = 0; i < 8; ++i) {
    DerivationPath path = {{static_cast<std::uint8_t>(i % 3)}};
    U256 tweak = derivation_tweak(dealer.master_public_key(), path);
    AffinePoint derived = derive_public_key(dealer.master_public_key(), path);
    auto [pub, shares] = dealer.deal_presignature(rng);
    auto digest = digest_of("tweaked " + std::to_string(i));
    std::vector<PartialSignature> partials = {
        compute_partial_signature(shares[0], pub, tweak, digest),
        compute_partial_signature(shares[1], pub, tweak, digest),
    };
    auto out = combine_partial_signatures_checked(partials, pub, derived, digest, 2, nullptr,
                                                  /*verify_result=*/false);
    ASSERT_TRUE(out.ok());
    // Cross-check against the generic per-key verifier: the folded equation
    // must accept exactly what verify() accepts.
    ASSERT_TRUE(verify(derived, digest, *out.signature));
    entries.push_back(TweakedBatchVerifyEntry{tweak, digest, *out.signature,
                                              out.s_negated ? pub.big_r.negated() : pub.big_r});
  }
  EXPECT_TRUE(batch_verify_tweaked(dealer.master_public_key(), entries));
  auto tampered = entries;
  tampered[5].digest = digest_of("tweaked tampered");
  EXPECT_FALSE(batch_verify_tweaked(dealer.master_public_key(), tampered));
  auto wrong_tweak = entries;
  wrong_tweak[2].tweak = U256(12345);
  EXPECT_FALSE(batch_verify_tweaked(dealer.master_public_key(), wrong_tweak));
  EXPECT_TRUE(batch_verify_tweaked(dealer.master_public_key(), {}));
}

TEST(MultiMulTest, MatchesNaiveSum) {
  // Sizes on both sides of the ladder/Pippenger crossover (48 points), with
  // every fifth scalar zero and each point repeated across the batch.
  util::Rng rng(7050);
  for (std::size_t n : {1, 2, 7, 40, 47, 48, 64}) {
    std::vector<U256> scalars;
    std::vector<AffinePoint> points;
    JacobianPoint expect = JacobianPoint::infinity_point();
    for (std::size_t i = 0; i < n; ++i) {
      auto bytes = rng.next_bytes(32);
      U256 s = scalar_ctx().reduce(U256::from_be_bytes(util::ByteSpan(bytes.data(), bytes.size())));
      if (i % 5 == 4) s = U256(0);
      U256 base(static_cast<std::uint64_t>(i % 6 + 2));
      AffinePoint p = generator_mul(base);
      scalars.push_back(s);
      points.push_back(p);
      expect = expect.add(JacobianPoint::from_affine(scalar_mul(s, p)));
    }
    EXPECT_EQ(multi_mul(scalars, points), expect.to_affine()) << "n=" << n;
  }
}

TEST(MultiMulTest, HandlesZeroScalarsAndInfinity) {
  std::vector<U256> scalars = {U256(0), U256(5)};
  std::vector<AffinePoint> points = {generator(), generator()};
  EXPECT_EQ(multi_mul(scalars, points), generator_mul(U256(5)));
  EXPECT_TRUE(multi_mul({}, {}).infinity);
}

}  // namespace
}  // namespace icbtc::crypto
