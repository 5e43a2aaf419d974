// secp256k1 group arithmetic: y^2 = x^3 + 7 over F_p.
#pragma once

#include <optional>
#include <vector>

#include "crypto/u256.h"
#include "util/bytes.h"

namespace icbtc::crypto {

/// Field prime p = 2^256 - 2^32 - 977.
const ModCtx& field_ctx();
/// Group order n.
const ModCtx& scalar_ctx();
/// The curve order as a U256.
const U256& curve_order();

/// Affine point; infinity is represented by `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  static AffinePoint make(const U256& x, const U256& y) { return AffinePoint{x, y, false}; }

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }

  /// True if the point satisfies the curve equation (or is infinity).
  bool on_curve() const;

  /// The point with the same x and negated y (-P); infinity negates to
  /// itself. Cheap: one field subtraction.
  AffinePoint negated() const;

  /// SEC1 compressed encoding (33 bytes: 02/03 prefix + x).
  util::Bytes compressed() const;
  /// SEC1 uncompressed encoding (65 bytes: 04 prefix + x + y).
  util::Bytes uncompressed() const;
  /// Parses a SEC1 compressed or uncompressed encoding; nullopt on failure.
  static std::optional<AffinePoint> parse(util::ByteSpan data);
};

/// Jacobian point for inversion-free addition chains.
struct JacobianPoint {
  U256 x, y, z;  // infinity iff z == 0

  static JacobianPoint from_affine(const AffinePoint& p);
  static JacobianPoint infinity_point() { return JacobianPoint{U256(1), U256(1), U256(0)}; }
  bool is_infinity() const { return z.is_zero(); }

  JacobianPoint doubled() const;
  JacobianPoint add(const JacobianPoint& other) const;
  JacobianPoint add_affine(const AffinePoint& other) const;
  AffinePoint to_affine() const;
};

/// The generator point G.
const AffinePoint& generator();

/// Scalar multiplication k * P: a 4-bit-window ladder over an affine table
/// of 1P..15P (not constant time).
AffinePoint scalar_mul(const U256& k, const AffinePoint& p);

/// k * G with a precomputed window table for the generator.
AffinePoint generator_mul(const U256& k);

/// u1*G + u2*P, the ECDSA verification combination: one interleaved
/// (Strauss–Shamir) 4-bit-window ladder over G's static table and P's table,
/// sharing its 256 doublings between both terms.
AffinePoint double_mul(const U256& u1, const U256& u2, const AffinePoint& p);

/// Multi-scalar multiplication Σ scalars[i] * points[i] (scalars reduced mod
/// the group order) — the primitive behind batched signature verification.
/// Small batches run the interleaved ladder of double_mul; larger ones use
/// windowed bucket accumulation (Pippenger), which costs a few group
/// operations per term instead of a window table and ladder additions each.
/// Requires scalars.size() == points.size().
AffinePoint multi_mul(const std::vector<U256>& scalars, const std::vector<AffinePoint>& points);

}  // namespace icbtc::crypto
