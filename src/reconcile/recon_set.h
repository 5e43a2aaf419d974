// Continuous transaction-relay reconciliation (Erlay-style; Naumenko et al.,
// "Bandwidth-Efficient Transaction Relay for Bitcoin").
//
// Instead of flooding an inv per transaction per peer, each node keeps a
// per-peer *reconciliation set* — the transactions it would have announced to
// that peer but deferred — and on a cadence exchanges a compact sketch of the
// salted 48-bit short ids in that set. Subtracting the two sides' sketches
// leaves the symmetric difference; peeling it tells each side exactly which
// transactions the other is missing. A sketch cell carries only (count,
// id_sum, check_sum) — 13 wire bytes — so reconciling a diff of d
// transactions costs ~20·d bytes per link instead of 36 bytes per
// transaction per link of flooding.
//
// Decode failure (undersized sketch) is detectable, never silent; the
// protocol then bisects the set by short-id parity (doubling effective
// capacity) and, if even a half fails, falls back to a full inv of the set.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/bytes.h"

namespace icbtc::reconcile {

/// Hash functions per id; 3 gives the usual ~1.5x cell overhead.
constexpr std::size_t kReconHashes = 3;

/// Serialized bytes per sketch cell: count (1) + id_sum (6, ids are 48-bit
/// so their XOR never exceeds it) + check_sum (3, truncated to 24 bits —
/// false-pure odds of 2^-24 per peel are negligible at sketch scale).
constexpr std::size_t kReconCellBytes = 10;

/// Cells needed to peel-decode an expected symmetric difference of `diff`
/// short ids (same 1.5x + slack margin as the block-relay sketches).
std::size_t recon_sketch_cells(std::size_t diff);

/// Deterministic per-link salt: both endpoints of a connection derive the
/// same value regardless of which side computes it, and distinct links get
/// distinct short-id spaces so collisions cannot persist network-wide.
std::uint64_t link_salt(std::uint32_t a, std::uint32_t b, std::uint64_t network_salt);

/// The network-wide relay seed every node and adapter derives its per-link
/// salts (and nodes their fanout ranks) from, so both ends of a link share
/// one short-id space.
inline constexpr std::uint64_t kRelaySalt = 0x69636274u;

/// Invertible Bloom Lookup Table over 48-bit short transaction ids — the
/// id-only sibling of the slice-carrying Iblt used for block relay. Each id
/// lands in kReconHashes cells; subtracting a peer's table leaves the
/// symmetric difference, recovered by peeling pure cells.
class ShortIdSketch {
 public:
  /// `cells` is clamped up to a small minimum so tiny sketches stay
  /// decodable; `salt` seeds cell placement and checksums and must match
  /// between the two sides of a subtract.
  explicit ShortIdSketch(std::size_t cells, std::uint64_t salt = 0);
  ShortIdSketch() : ShortIdSketch(0, 0) {}

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t salt() const { return salt_; }

  void insert(std::uint64_t short_id);
  void erase(std::uint64_t short_id);

  /// this -= other. Requires identical cell count and salt.
  ShortIdSketch& subtract(const ShortIdSketch& other);

  struct Peel {
    /// True when every cell drained to zero: the lists are exactly the
    /// symmetric difference. False means the sketch was undersized and the
    /// lists are partial.
    bool complete = false;
    /// Ids present on the minuend's side only (the sketch sender's, after
    /// the receiver subtracts its own table).
    std::vector<std::uint64_t> a_only;
    /// Ids present on the subtrahend's side only (the receiver's).
    std::vector<std::uint64_t> b_only;
  };

  /// Non-destructive peel (works on a copy). Output id lists are sorted.
  Peel peel() const;

  /// True when every cell is zero.
  bool empty() const;

  /// Serialized wire size in bytes (what the latency/bandwidth model
  /// charges for the sketch portion of a MsgReconSketch).
  std::size_t wire_size() const;

  bool operator==(const ShortIdSketch&) const = default;

 private:
  struct Cell {
    std::int32_t count = 0;
    std::uint64_t id_sum = 0;
    std::uint32_t check_sum = 0;

    bool operator==(const Cell&) const = default;
  };

  std::uint32_t checksum(std::uint64_t short_id) const;
  void cell_indexes(std::uint64_t short_id, std::size_t out[kReconHashes]) const;
  void apply(std::uint64_t short_id, int direction);

  std::uint64_t salt_ = 0;
  std::vector<Cell> cells_;
};

/// Bisection halves: a part-1 sketch covers ids with even parity, part-2 odd.
/// Part 0 is the whole set.
bool id_in_part(std::uint64_t short_id, std::uint8_t part);

/// One peer's reconciliation set: the transactions this node has and has not
/// yet announced on a given link, keyed by the link-salted short id. A
/// std::map keeps iteration (and thus sketches, snapshots, and full-inv
/// fallbacks) deterministic.
class ReconSet {
 public:
  ReconSet() = default;
  explicit ReconSet(std::uint64_t salt) : salt_(salt) {}

  std::uint64_t salt() const { return salt_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Adds `txid` under the link salt. Returns false on a short-id collision
  /// (the earlier entry wins; at 48 bits this is vanishingly rare).
  bool add(const util::Hash256& txid);
  bool remove(const util::Hash256& txid);
  void clear() { entries_.clear(); }

  const util::Hash256* find_id(std::uint64_t short_id) const;
  bool contains(const util::Hash256& txid) const;

  /// Sketch of the ids in `part` (0 = all) with `cells` cells, salted for
  /// this link.
  ShortIdSketch sketch(std::size_t cells, std::uint8_t part = 0) const;

  /// Number of entries falling in `part`.
  std::size_t part_size(std::uint8_t part) const;

  /// All txids in short-id order (the deterministic full-inv fallback).
  std::vector<util::Hash256> txids() const;

  const std::map<std::uint64_t, util::Hash256>& entries() const { return entries_; }

  /// Moves all entries out (the initiator's round snapshot), leaving the set
  /// empty for arrivals during the round.
  std::map<std::uint64_t, util::Hash256> take_snapshot();
  /// Merges a snapshot back (round aborted: timeout or disconnect).
  void restore_snapshot(std::map<std::uint64_t, util::Hash256> snapshot);

 private:
  std::uint64_t salt_ = 0;
  std::map<std::uint64_t, util::Hash256> entries_;
};

/// Responder side of one sketch exchange. Builds this set's sketch for
/// `received`'s part at `received`'s size, subtracts, and peels.
///
/// On success the set is updated in place: ids the initiator also has
/// (they cancelled in the subtract) are removed — the peer evidently knows
/// them — and the set-exclusive ids are removed and returned in `have` for
/// the caller to announce (or drop, for a passive observer like the
/// adapter). On failure nothing is touched.
struct ReconDiffResult {
  bool decode_failed = false;
  /// Ids only the initiator has (this side wants them).
  std::vector<std::uint64_t> want;
  /// (id, txid) pairs only this side has (removed from the set).
  std::vector<std::pair<std::uint64_t, util::Hash256>> have;
};
ReconDiffResult respond_to_sketch(ReconSet& set, const ShortIdSketch& received,
                                  std::uint8_t part);

// ---------------------------------------------------------------------------
// Relay policy helpers (deterministic: no RNG, only seeded hashes).

/// Selects min(fanout, peers.size()) flood targets for `txid` among `peers`:
/// peers are ranked by a salted hash of (txid, peer) so every node picks the
/// same targets for the same inputs, but different transactions spread
/// through different subsets of the topology.
std::vector<std::uint32_t> select_fanout_peers(const util::Hash256& txid,
                                               std::vector<std::uint32_t> peers,
                                               std::size_t fanout, std::uint64_t salt);

/// The next reconciliation tick strictly after `now` on a per-node staggered
/// cadence: ticks land on interval boundaries shifted by a deterministic
/// per-node phase, so a fleet of nodes does not reconcile in lockstep.
std::int64_t next_recon_tick(std::int64_t now, std::int64_t interval, std::uint32_t node_id);

}  // namespace icbtc::reconcile
